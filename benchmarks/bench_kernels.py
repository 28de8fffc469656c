"""Micro-benchmarks of the computational kernels.

Times the hot paths the pipeline is built from (these are the
pytest-benchmark entries with real statistics): ESC semiring SpGEMM vs the
Gustavson reference, the MinPlus squaring, k-mer extraction/hashing, Bloom
filter throughput, and the two per-pair x-drop reference engines
(``tests/reference/align.py``; the batched kernels are timed by
``bench_align_batch.py``).
"""

import numpy as np
import scipy.sparse as sp

from reference.align import xdrop_extend, xdrop_extend_dp
from repro.align.xdrop import Scoring
from repro.core.semirings import BidirectedMinPlus
from repro.dsparse.coomat import CooMat
from repro.dsparse.semiring import PlusTimes
from repro.dsparse.spgemm import spgemm_esc, spgemm_gustavson
from repro.seqs.bloom import BloomFilter
from repro.seqs.kmers import canonical_kmers, pack_kmers, splitmix64


def _rand_coo(seed, n, density, nfields=1):
    rng = np.random.default_rng(seed)
    s = sp.random(n, n, density=density, format="coo", random_state=rng,
                  data_rvs=lambda k: rng.integers(1, 50, k))
    m = CooMat.from_scipy(s)
    if nfields > 1:
        vals = np.tile(m.vals, (1, nfields))
        m = CooMat(m.shape, m.row, m.col, vals, checked=True)
    return m


def test_spgemm_esc_plustimes(benchmark):
    A = _rand_coo(0, 2000, 0.005)
    out = benchmark(lambda: spgemm_esc(A, A, PlusTimes()))
    assert out.nnz > 0


def test_spgemm_scipy_backend_plustimes(benchmark):
    """Same product as the ESC entry above, on the CSR-lowering backend."""
    from repro.dsparse.backend import get_backend
    bk = get_backend("scipy")
    A = _rand_coo(0, 2000, 0.005)
    out = benchmark(lambda: bk.spgemm(A, A, PlusTimes()))
    assert out.nnz > 0


def test_spgemm_gustavson_plustimes(benchmark):
    A = _rand_coo(0, 400, 0.01)
    out = benchmark(lambda: spgemm_gustavson(A, A, PlusTimes()))
    assert out.nnz > 0


def test_spgemm_esc_bidirected_minplus(benchmark):
    rng = np.random.default_rng(1)
    A = _rand_coo(1, 2000, 0.004)
    vals = np.stack([A.vals[:, 0],
                     rng.integers(0, 2, A.nnz),
                     rng.integers(0, 2, A.nnz),
                     np.full(A.nnz, 100)], axis=1)
    R = CooMat(A.shape, A.row, A.col, vals, checked=True)
    out = benchmark(lambda: spgemm_esc(R, R, BidirectedMinPlus()))
    assert out.shape == A.shape


def test_kmer_extraction(benchmark):
    rng = np.random.default_rng(2)
    read = rng.integers(0, 4, 50_000).astype(np.uint8)
    km = benchmark(lambda: canonical_kmers(pack_kmers(read, 17), 17))
    assert km.shape[0] == 50_000 - 16


def test_splitmix_hash(benchmark):
    keys = np.arange(1_000_000, dtype=np.uint64)
    out = benchmark(lambda: splitmix64(keys))
    assert out.shape == keys.shape


def test_bloom_filter_throughput(benchmark):
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 2 ** 62, 200_000, dtype=np.uint64)

    def run():
        bf = BloomFilter(200_000, 0.01)
        bf.add(keys)
        return bf.contains(keys)

    hit = benchmark(run)
    assert hit.all()


def _mutated_pair(seed, n, div):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, n).astype(np.uint8)
    b = a.copy()
    k = int(n * div)
    pos = rng.choice(n, size=k, replace=False)
    b[pos] = (b[pos] + rng.integers(1, 4, k)) % 4
    return a, b


def test_xdrop_lv_engine(benchmark):
    a, b = _mutated_pair(4, 2000, 0.10)
    score, ei, ej = benchmark(lambda: xdrop_extend(a, b, Scoring()))
    assert score > 0


def test_xdrop_dp_reference(benchmark):
    a, b = _mutated_pair(4, 300, 0.10)
    score, ei, ej = benchmark(lambda: xdrop_extend_dp(a, b, Scoring()))
    assert score > 0
