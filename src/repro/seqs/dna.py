"""Low-level DNA sequence primitives.

Sequences are handled in two representations:

* **ASCII strings** over the alphabet ``ACGT`` (FASTA ingest refuses ``N``
  and other IUPAC codes, naming the record and position, rather than
  rewriting them into bases that would seed false candidates), and
* **2-bit code arrays**: ``numpy`` ``uint8`` arrays with ``A=0, C=1, G=2,
  T=3``.  All hot paths (k-mer extraction, reverse complement, hashing)
  operate on code arrays and are fully vectorized.

The module also provides genome generation with controlled repeat structure,
which drives the overlap-graph densities the paper reports in Table III.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ALPHABET",
    "encode",
    "decode",
    "revcomp_codes",
    "revcomp",
    "canonical",
    "random_genome",
    "GenomeSpec",
]

ALPHABET = "ACGT"

# ASCII byte -> 2-bit code lookup (255 = invalid).
_ENC = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(ALPHABET):
    _ENC[ord(_b)] = _i
    _ENC[ord(_b.lower())] = _i

_DEC = np.frombuffer(ALPHABET.encode(), dtype=np.uint8)


def encode(seq: str | bytes, rng: np.random.Generator | None = None, *,
           strict: bool = False) -> np.ndarray:
    """Encode an ACGT string into a 2-bit code array (case-insensitive).

    With ``strict`` any other byte (``N``, IUPAC codes, garbage) raises
    :class:`ValueError` naming the first one and its 1-based position —
    the FASTA ingest mode.  Otherwise such bytes are replaced with a random
    base when ``rng`` is given, else with ``A`` (what the service's
    ``ingest`` still does).

    Parameters
    ----------
    seq:
        Sequence as ``str`` or ``bytes``.
    rng:
        Optional generator used to fill non-ACGT positions.
    strict:
        Refuse non-ACGT bytes instead of substituting them.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of codes in ``{0, 1, 2, 3}``.
    """
    if isinstance(seq, str):
        seq = seq.encode()
    raw = np.frombuffer(seq, dtype=np.uint8)
    codes = _ENC[raw]
    bad = codes == 255
    if bad.any():
        if strict:
            pos = int(np.argmax(bad))
            raise ValueError(f"non-ACGT base {chr(raw[pos])!r} at position "
                             f"{pos + 1}")
        if rng is None:
            codes = np.where(bad, np.uint8(0), codes)
        else:
            codes = codes.copy()
            codes[bad] = rng.integers(0, 4, size=int(bad.sum()), dtype=np.uint8)
    return codes


def decode(codes: np.ndarray) -> str:
    """Decode a 2-bit code array back into an ACGT string."""
    return _DEC[codes].tobytes().decode()


def revcomp_codes(codes: np.ndarray) -> np.ndarray:
    """Reverse complement of a 2-bit code array.

    With the ``A=0, C=1, G=2, T=3`` encoding the complement of code ``c`` is
    ``3 - c``, so the whole operation is a single vectorized expression.
    """
    return (np.uint8(3) - codes)[::-1]


def revcomp(seq: str) -> str:
    """Reverse complement of an ACGT string."""
    return decode(revcomp_codes(encode(seq)))


def canonical(seq: str) -> str:
    """Canonical form: the lexicographically smaller of ``seq`` and its
    reverse complement (the paper, Section II)."""
    rc = revcomp(seq)
    return seq if seq <= rc else rc


class GenomeSpec:
    """Specification for a synthetic genome with controlled repeats.

    Repeats are what make real overlap graphs denser than the ideal
    ``c = 2d`` bound (paper Table III's "inefficiency factor"), so the
    generator plants ``n_repeats`` copies of ``repeat_len``-long segments at
    random positions.

    Attributes
    ----------
    length:
        Genome length in bases.
    n_repeats:
        Number of *extra* copies of repeat segments to plant.
    repeat_len:
        Length of each repeated segment.
    seed:
        RNG seed for reproducibility.
    """

    def __init__(self, length: int, n_repeats: int = 0, repeat_len: int = 0,
                 seed: int = 0) -> None:
        if length <= 0:
            raise ValueError("genome length must be positive")
        if n_repeats > 0 and not 0 < repeat_len <= length:
            raise ValueError("repeat_len must be in (0, length]")
        self.length = int(length)
        self.n_repeats = int(n_repeats)
        self.repeat_len = int(repeat_len)
        self.seed = int(seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GenomeSpec(length={self.length}, n_repeats={self.n_repeats},"
                f" repeat_len={self.repeat_len}, seed={self.seed})")


def random_genome(spec: GenomeSpec) -> np.ndarray:
    """Generate a random genome as a 2-bit code array.

    A uniform random sequence of ``spec.length`` bases is drawn first; then
    ``spec.n_repeats`` times, a random ``repeat_len`` window is copied over
    another random location (possibly reverse-complemented, as real genomic
    repeats occur in both orientations).
    """
    rng = np.random.default_rng(spec.seed)
    genome = rng.integers(0, 4, size=spec.length, dtype=np.uint8)
    for _ in range(spec.n_repeats):
        src = int(rng.integers(0, spec.length - spec.repeat_len + 1))
        dst = int(rng.integers(0, spec.length - spec.repeat_len + 1))
        segment = genome[src:src + spec.repeat_len]
        if rng.random() < 0.5:
            segment = revcomp_codes(segment)
        genome[dst:dst + spec.repeat_len] = segment
    return genome
