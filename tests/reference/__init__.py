"""Reference engines the product's fast paths are pinned against.

Each module here is a deliberately simple re-implementation of one
pipeline stage that the product no longer ships:

* :mod:`reference.align` — the per-pair seed-and-extend aligner (the 1D
  Landau–Vishkin x-drop, the exact antidiagonal DP, the chain estimate)
  and a per-pair ``align_candidates`` driver;
* :mod:`reference.kmer` — the per-read / per-key dict k-mer counter and
  the read-by-read ``A`` scan;
* :mod:`reference.spgemm` — the unmasked ``C = A·Aᵀ`` product with its
  triangle prune, and transitive reduction with an unmasked ``N = R²``.

Every driver takes the same arguments and returns the same objects (and
the same communication records) as its product counterpart, so a parity
test is one call on each side and an equality check.

Imported as the top-level package ``reference``: ``tests/`` is on
``sys.path`` under pytest (its ``conftest.py`` puts it there), and
``benchmarks/conftest.py`` adds it for the benchmarks.  No other module
in the repository or its dependencies is named ``reference``, so — unlike
a second ``conftest`` — the name cannot resolve to the wrong file.
"""
