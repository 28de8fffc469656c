"""Tests for the baselines (Myers, SORA-like, diBELLA 1D, minimap-like)."""

import numpy as np
import pytest

import reference.align
from repro.baselines import dibella1d
from repro.baselines import (myers_transitive_reduction, run_dibella1d,
                             run_minimap_like, sora_transitive_reduction)
from repro.core.string_graph import StringGraph
from repro.eval.metrics import overlap_recall_precision


# -- Myers ------------------------------------------------------------------

def test_myers_removes_chain_transitive():
    src = np.array([0, 1, 1, 2, 0, 2])
    dst = np.array([1, 0, 2, 1, 2, 0])
    suffix = np.array([4, 6, 3, 5, 7, 11])
    end_src = np.array([1, 0, 1, 0, 1, 0])
    end_dst = np.array([0, 1, 0, 1, 0, 1])
    g = StringGraph(3, src, dst, suffix, end_src, end_dst)
    out = myers_transitive_reduction(g, fuzz=0)
    assert (0, 2) not in out.edge_set()
    assert (0, 1) in out.edge_set()


def test_myers_fixed_point(clean_overlap_graph):
    out = myers_transitive_reduction(clean_overlap_graph, fuzz=20)
    again = myers_transitive_reduction(out, fuzz=20)
    assert out.edge_set() == again.edge_set()


def test_myers_rowmax_at_least_as_aggressive(clean_overlap_graph):
    """rowmax bound (the paper's) removes a superset of Myers' per-edge
    bound removals."""
    g = clean_overlap_graph
    rowmax = myers_transitive_reduction(g, fuzz=20, use_rowmax=True)
    peredge = myers_transitive_reduction(g, fuzz=20, use_rowmax=False)
    assert rowmax.edge_set() <= peredge.edge_set()


# -- SORA ------------------------------------------------------------------

def test_sora_matches_myers(clean_overlap_graph):
    g = clean_overlap_graph
    sora = sora_transitive_reduction(g, nodes=2)
    myers = myers_transitive_reduction(g, fuzz=150)
    assert sora.graph.edge_set() == myers.edge_set()


def test_sora_runtime_flat_in_nodes(clean_overlap_graph):
    """Table VI's signature: SORA's modeled time is nearly constant in the
    node count (framework-overhead dominated)."""
    g = clean_overlap_graph
    t = [sora_transitive_reduction(g, nodes=n).modeled_seconds
         for n in (2, 8, 32)]
    assert max(t) / min(t) < 2.0


def test_sora_counts_supersteps_and_shuffle(clean_overlap_graph):
    res = sora_transitive_reduction(clean_overlap_graph, nodes=2)
    assert res.supersteps >= 2  # work + quiescence check
    assert res.shuffle_bytes > 0


# -- diBELLA 1D ----------------------------------------------------------------

@pytest.fixture(scope="module")
def oned_run(clean_dataset):
    _genome, reads, _layout = clean_dataset
    return run_dibella1d(reads, k=17, nprocs=4, align_mode="chain",
                         depth_hint=12, error_hint=0.0, kmer_upper=40)


def test_1d_finds_overlaps(clean_dataset, oned_run):
    _genome, reads, layout = clean_dataset
    assert oned_run.n_overlaps > 0
    assert oned_run.n_candidate_pairs >= oned_run.n_overlaps


def test_1d_candidates_match_2d(clean_dataset, oned_run):
    """1D and 2D compute the same candidate pair set (they are the same
    outer product, differently distributed)."""
    from overlap_helpers import build_overlap_graph
    from repro.core.overlap import build_a_matrix, candidate_overlaps
    from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
    from repro.seqs.kmer_counter import count_kmers

    _genome, reads, _layout = clean_dataset
    comm = SimComm(1, CommTracker(1))
    timer = StageTimer()
    table = count_kmers(reads, 17, comm, timer, upper=40)
    A = build_a_matrix(reads, table, ProcessGrid2D(1), comm, timer)
    C = candidate_overlaps(A, comm, timer)
    assert oned_run.n_candidate_pairs == C.nnz()


def _per_pair_chunk_task(ctx, task):
    """The per-pair reference engine in the batched task's shape: two
    directed R rows per surviving dovetail (only the row count is used)."""
    rows = []
    for gi, gj, cval in zip(*task):
        if reference.align._align_task(ctx, (int(gi), int(gj), cval)):
            rows += [int(gi), int(gj)]
    return np.array(rows, dtype=np.int64), None, None


@pytest.mark.parametrize("mode", ["xdrop", "chain"])
def test_1d_alignment_matches_per_pair_reference(clean_dataset, monkeypatch,
                                                 mode):
    """The 1D baseline aligns on the 2D pipeline's batched kernel; its
    counts equal the per-pair reference engine's on the same candidates."""
    _genome, reads, _layout = clean_dataset
    kwargs = dict(k=17, nprocs=4, align_mode=mode, depth_hint=12,
                  error_hint=0.0, kmer_upper=40)
    got = run_dibella1d(reads, **kwargs)
    monkeypatch.setattr(dibella1d, "_align_chunk_task", _per_pair_chunk_task)
    ref = run_dibella1d(reads, **kwargs)
    assert got.n_overlaps == ref.n_overlaps > 0
    assert got.n_candidate_pairs == ref.n_candidate_pairs


def test_1d_comm_exceeds_2d_at_moderate_p(clean_dataset):
    """Table I's point: at moderate P the 1D overlap exchange moves more
    words per rank than the 2D SpGEMM broadcasts (a²m/P vs am/√P with the
    duplicated-candidate constant)."""
    from repro.eval.experiments import _CACHE
    from repro.core.overlap import build_a_matrix, candidate_overlaps
    from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
    from repro.seqs.kmer_counter import count_kmers

    _genome, reads, _layout = clean_dataset
    P = 4
    oned = run_dibella1d(reads, k=17, nprocs=P, align_mode="chain",
                         depth_hint=12, error_hint=0.0, kmer_upper=40)
    tracker = CommTracker(P)
    comm = SimComm(P, tracker)
    timer = StageTimer()
    table = count_kmers(reads, 17, comm, timer, upper=40)
    A = build_a_matrix(reads, table, ProcessGrid2D(P), comm, timer)
    candidate_overlaps(A, comm, timer)
    w_1d = oned.tracker.words("Overlap1D")
    w_2d = tracker.words("SpGEMM")
    assert w_1d > 0 and w_2d > 0
    assert w_1d > 0.5 * w_2d  # the duplicated-pair volume is substantial


# -- minimap-like -----------------------------------------------------------------

def test_minimap_like_recall(clean_dataset):
    _genome, reads, layout = clean_dataset
    res = run_minimap_like(reads, k=15, w=8, min_shared=3, min_span=150)
    recall, _ = overlap_recall_precision(res.pairs, layout, min_overlap=500)
    assert recall > 0.9
    # Precision must be judged against the overlapper's own span threshold:
    # pairs with 150–500 bp true overlaps are correct detections.
    _, precision = overlap_recall_precision(res.pairs, layout,
                                            min_overlap=100)
    assert precision > 0.8


def test_minimap_like_times_recorded(clean_dataset):
    _genome, reads, _layout = clean_dataset
    res = run_minimap_like(reads)
    assert res.index_seconds > 0 and res.query_seconds > 0
    assert res.modeled_threads_time(32) < res.total_seconds()
