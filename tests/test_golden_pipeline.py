"""Golden end-to-end snapshot suite.

The pipeline claims "byte-identical output" along every performance axis —
backends, executors, blocked overlap, and the fast engines against their
reference implementations (``tests/reference/``).  This suite pins the
claim globally: one fixed-seed dataset runs through the full pipeline
across the ``executor × overlap-mode`` cross-product, and the digests of S,
R, the contig layout, the communication records, and the peak-memory marks
must all equal the stored golden values.  R is also rebuilt stage by stage
from every combination of product and reference k-mer / alignment engine.

If a future PR *intentionally* changes pipeline output, it must update the
``GOLDEN`` constants below (the assertion message prints the new digests) —
making every silent behavioral drift a test failure instead of a footnote.

Everything digested is integer-valued and RNG-stream-stable (fixed PCG64
seeds, integer alignment scores, explicit ``kmer_upper`` so no float model
sits on the critical path), so the digests are platform-independent.
"""

import hashlib
import itertools

import numpy as np
import pytest

import reference.align
import reference.kmer
from repro.core import overlap
from repro.core.contigs import extract_contigs
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs import kmer_counter

K = 17
NPROCS = 4
KMER_UPPER = 24

EXECUTORS = [("serial", 1), ("thread", 3), ("process", 2)]
OVERLAP_MODES = ["monolithic", "blocked"]

#: Stage engines of the R rebuild: the product's ("batch") or the per-pair /
#: per-read reference's ("loop").
ALIGN_ENGINES = {"batch": overlap.align_candidates,
                 "loop": reference.align.align_candidates}
KMER_ENGINES = {"batch": (kmer_counter.count_kmers, overlap.build_a_matrix),
                "loop": (reference.kmer.count_kmers,
                         reference.kmer.build_a_matrix)}

#: Golden digests of the fixed-seed run.  S and the contig layout are
#: invariant across *every* axis; the communication records and peak marks
#: are invariant across executors and engines but legitimately differ
#: between monolithic and blocked candidate formation (blocked runs one
#: SUMMA per strip and holds smaller candidate peaks — that is its point).
#:
#: The two ``peaks`` digests record the masked transitive reduction, which
#: squares R within R's own pattern, so its ``TrReduction`` live set
#: (R + N) is smaller than the unmasked square's (93600 vs 180288 bytes
#: here).  Every other digest — S, R, contigs, counts, both trackers, and
#: the ``SpGEMM`` peak inside the peaks dicts — predates the masked engine
#: and is unchanged by it.
GOLDEN = {
    "S": "bce02a9f21bd33e20a0a076940bb08a6c1e628435f6bd9fe8301ea8e43211ad2",
    "R": "50d4eaa5a0aa3dc9fd206419f558d12b2fe60398c87b566fada2cf168afbe93a",
    "contigs": "3c6ae1b223e149e8d8cbd24c9f57923bb7da71a9a125d775575210eb9d80bf6a",
    "counts": (88231, 1334, 1338, 726),  # nnz A, C, R, S
    "tracker": {
        "monolithic":
            "4dbd7670092db728b0f2868a88731a4d34366e051ec330ea6ab0684af4ecf35c",
        "blocked":
            "84581ee8562fb7bbc8c791e1dcdcc6ff3b4f57bca1a78e2f0b2cabe99fae073a",
    },
    "peaks": {
        "monolithic":
            "710cc8a302621b111d4e9087898d7e42bdad01381eaefa2e4df29ae81bec82da",
        "blocked":
            "0caa120861bd85567e14156e31e075a72fc03717fef79215330fc538e5f5bcea",
    },
}


@pytest.fixture(scope="module")
def golden_reads():
    """Fixed-seed error-free dataset (PCG64 streams are version-stable)."""
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=9_000, seed=21), depth=10,
                    mean_len=650, min_len=350, sigma_len=0.2,
                    error=ErrorModel(rate=0.0), seed=22))
    return reads


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _sha_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _contig_digest(graph) -> str:
    contigs = extract_contigs(graph)
    # Canonical form: every maximal walk as (reads, orientations) tuples,
    # sorted — independent of extraction order.
    canon = sorted((tuple(c.reads), tuple(c.orientations)) for c in contigs)
    return _sha_text(repr(canon))


def _tracker_digest(tracker) -> str:
    summary = tracker.summary()
    lines = [f"{stage}:{rec['total_bytes']:.0f}:{rec['max_bytes']:.0f}:"
             f"{rec['total_messages']}:{rec['max_messages']}"
             for stage, rec in sorted(summary.items())]
    return _sha_text("|".join(lines))


def _peaks_digest(timer) -> str:
    peaks = timer.peak_bytes()
    return _sha_text(repr(sorted(peaks.items())))


def _config(executor, workers, overlap_mode):
    return PipelineConfig(
        k=K, nprocs=NPROCS, align_mode="xdrop", fuzz=60,
        kmer_upper=KMER_UPPER, executor=executor, workers=workers,
        overlap_mode=overlap_mode, n_strips=3 if overlap_mode == "blocked"
        else None)


COMBOS = list(itertools.product(EXECUTORS, OVERLAP_MODES))


@pytest.mark.parametrize(
    "executor_workers,overlap_mode", COMBOS,
    ids=[f"{e[0]}{e[1]}-{o}" for e, o in COMBOS])
def test_golden_pipeline(golden_reads, executor_workers, overlap_mode):
    executor, workers = executor_workers
    result = run_pipeline(golden_reads,
                          _config(executor, workers, overlap_mode))
    got = {
        "S": _sha(result.S.row, result.S.col, result.S.vals),
        "contigs": _contig_digest(result.string_graph),
        "counts": (result.nnz_a, result.nnz_c, result.nnz_r, result.nnz_s),
        "tracker": _tracker_digest(result.tracker),
        "peaks": _peaks_digest(result.timer),
    }
    expect = {
        "S": GOLDEN["S"],
        "contigs": GOLDEN["contigs"],
        "counts": GOLDEN["counts"],
        "tracker": GOLDEN["tracker"][overlap_mode],
        "peaks": GOLDEN["peaks"][overlap_mode],
    }
    assert got == expect, (
        f"golden pipeline drift under executor={executor}/{workers} "
        f"overlap={overlap_mode}.\n"
        f"If this change is intentional, update GOLDEN to:\n{got!r}")


@pytest.mark.parametrize("align_engine", list(ALIGN_ENGINES))
@pytest.mark.parametrize("kmer_engine", list(KMER_ENGINES))
def test_golden_overlap_r(golden_reads, align_engine, kmer_engine):
    """R itself (not just its cardinality) matches the stored digest for
    every combination of product and reference stage engines."""
    count_kmers, build_a_matrix = KMER_ENGINES[kmer_engine]
    comm = SimComm(NPROCS, CommTracker(NPROCS))
    timer = StageTimer()
    table = count_kmers(golden_reads, K, comm, timer, upper=KMER_UPPER)
    A = build_a_matrix(golden_reads, table, ProcessGrid2D(NPROCS), comm,
                       timer)
    C = overlap.candidate_overlaps(A, comm, timer)
    R = ALIGN_ENGINES[align_engine](C, golden_reads, K, comm, timer,
                                    mode="xdrop", fuzz=60)
    g = R.to_global()
    got = _sha(g.row, g.col, g.vals)
    assert got == GOLDEN["R"], (
        f"golden R drift under align={align_engine} kmer={kmer_engine}; "
        f"new digest {got}")
