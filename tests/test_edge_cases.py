"""Edge-case and failure-injection tests across the stack."""

import io

import numpy as np
import pytest

from repro import PipelineConfig, run_pipeline
from repro.core.overlap import build_a_matrix, candidate_overlaps
from repro.core.pipeline import run_pipeline_from_fasta
from repro.core.string_graph import StringGraph
from repro.dsparse.coomat import CooMat
from repro.dsparse.distmat import DistMat
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs.dna import encode
from repro.seqs.fasta import ReadSet, read_fasta
from repro.seqs.kmer_counter import KmerTable, count_kmers


def test_pipeline_rejects_nonsquare_grid():
    reads = ReadSet(["a"], [encode("ACGT" * 30)])
    with pytest.raises(ValueError):
        run_pipeline(reads, PipelineConfig(nprocs=6))


def test_pipeline_single_read():
    reads = ReadSet(["a"], [encode("ACGT" * 100)])
    res = run_pipeline(reads, PipelineConfig(k=17, nprocs=1,
                                             align_mode="chain"))
    assert res.nnz_c == 0 and res.nnz_s == 0
    assert res.tr_rounds <= 1


def test_pipeline_identical_reads_all_contained():
    """Identical reads are mutual near-containments: no dovetail edges."""
    rng = np.random.default_rng(0)
    base = rng.integers(0, 4, 500).astype(np.uint8)
    reads = ReadSet([f"r{i}" for i in range(4)],
                    [base.copy() for _ in range(4)])
    res = run_pipeline(reads, PipelineConfig(
        k=17, nprocs=1, align_mode="chain", kmer_upper=20, fuzz=20))
    assert res.nnz_c > 0      # candidates found
    assert res.nnz_r == 0     # but all classified contained


def test_pipeline_reads_shorter_than_k():
    reads = ReadSet(["tiny1", "tiny2"], [encode("ACGTA"), encode("TTTT")])
    res = run_pipeline(reads, PipelineConfig(k=17, nprocs=1))
    assert res.n_kmers == 0 and res.nnz_s == 0


def test_pipeline_no_overlaps_between_disjoint_genomes():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 4, 800).astype(np.uint8)
    b = rng.integers(0, 4, 800).astype(np.uint8)
    # Two copies each so k-mers pass the singleton filter, but the two
    # groups share nothing.
    reads = ReadSet(["a1", "a2", "b1", "b2"],
                    [a.copy(), a.copy(), b.copy(), b.copy()])
    comm = SimComm(1, CommTracker(1))
    timer = StageTimer()
    table = count_kmers(reads, 17, comm, timer, upper=20)
    A = build_a_matrix(reads, table, ProcessGrid2D(1), comm, timer)
    C = candidate_overlaps(A, comm, timer).to_global()
    pairs = set(zip(C.row.tolist(), C.col.tolist()))
    assert (0, 2) not in pairs and (0, 3) not in pairs
    assert (1, 2) not in pairs and (1, 3) not in pairs


def test_kmer_table_lookup_on_empty_table():
    table = KmerTable(k=17, kmers=np.empty(0, np.uint64),
                      counts=np.empty(0, np.int64), lower=2, upper=4)
    out = table.lookup(np.array([123], dtype=np.uint64))
    assert out[0] == -1


def test_fasta_headers_without_sequences_are_rejected():
    """Empty-bodied records are malformed input, refused by name.

    (They used to parse as zero-length reads: the post-loop
    ``len(seqs) != len(names)`` check was dead code because the empty
    record *was* appended, and zero-length reads then leaked into k-mer
    extraction.)"""
    with pytest.raises(ValueError, match="'only_header'"):
        read_fasta(io.StringIO(">only_header\n>another\nACGT\n"))
    with pytest.raises(ValueError, match="'x'"):
        read_fasta(io.StringIO(">x\n\n"))


def test_string_graph_empty_walk_is_valid():
    g = StringGraph(2, np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty(0, np.int64))
    assert g.is_valid_walk([])


def test_distmat_single_entry_matrix():
    grid = ProcessGrid2D(4)
    D = DistMat.from_coo((5, 5), grid, np.array([4]), np.array([4]),
                         np.array([[7]]))
    assert D.nnz() == 1
    g = D.to_global()
    assert int(g.row[0]) == 4 and int(g.vals[0, 0]) == 7


def test_coomat_zero_by_zero():
    m = CooMat.empty((0, 0))
    assert m.nnz == 0
    assert m.csr_indptr().shape == (1,)


def test_transitive_reduction_two_node_graph_untouched():
    from repro.core.transitive_reduction import transitive_reduction
    g = StringGraph(2, np.array([0, 1]), np.array([1, 0]),
                    np.array([5, 7]), np.array([1, 0]), np.array([0, 1]))
    mat = g.to_coomat()
    D = DistMat.from_coo(mat.shape, ProcessGrid2D(1), mat.row, mat.col,
                         mat.vals)
    res = transitive_reduction(D, SimComm(1, CommTracker(1)), fuzz=1000)
    assert res.S.nnz() == 2  # nothing to reduce without a 2-hop path


def test_pipeline_with_n_bases_in_input(tmp_path):
    # N bases are refused at ingest, naming record and position, by both
    # read stores: rewriting them (formerly to A) turned N-runs into poly-A
    # k-mers.
    fa = tmp_path / "reads.fa"
    fa.write_text(">a\n" + "ACGTN" * 60 + "\n>b\n" + "ACGTN" * 60 + "\n")
    for store in ("inmem", "mmap"):
        with pytest.raises(ValueError, match="record 'a' has a non-ACGT "
                                             "base 'N' at position 5"):
            run_pipeline_from_fasta(fa, PipelineConfig(
                k=17, nprocs=1, kmer_upper=20, read_store=store))
