"""Parity suite: batched alignment engine vs per-pair loop vs DP oracle.

The compiled x-drop kernel (:mod:`repro.align.native`) is held to the same
contract: identical to the numpy batch sweep and to the 1D engine on
random batches, and the numpy sweep takes over — announced, with its
reason — whenever the kernel cannot be built.

The batch engine's contract is *byte identity* with the per-pair reference
for every input — same R entries, same coordinates, same payloads — since
``align_impl`` must be a pure performance axis.  These tests pin that
contract with hypothesis-driven random read sets (both strands, both
alignment modes, boundary seeds) plus the edge cases a lockstep sweep can
get wrong: empty batches, empty extension sides, pairs that all retire in
round 0, and filters that prune everything.
"""

import itertools
import os
import subprocess
import sys
import sysconfig
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.align import batch as batch_mod
from repro.align import native
from repro.align.batch import (chain_extend_batch, extend_seeds_xdrop_batch,
                               resolve_align_impl, xdrop_extend_batch)
from repro.align.xdrop import (Scoring, chain_extend, seed_extend_align,
                               xdrop_extend, xdrop_extend_dp)
from repro.core.overlap import AlignmentFilter, align_candidates
from repro.core.semirings import C_NFIELDS
from repro.dsparse.distmat import DistMat
from repro.exec import get_executor
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs.fasta import ReadSet

SC = Scoring()
K = 11


# ---------------------------------------------------------------------------
# Low-level kernel: xdrop_extend_batch vs xdrop_extend vs the exact DP.
# ---------------------------------------------------------------------------

def _run_batch_single(s, t, sc=SC):
    codes = np.concatenate([s, t]) if s.size or t.size else \
        np.empty(0, np.uint8)
    one = np.array([1], np.int64)
    best, ei, ej = xdrop_extend_batch(
        codes, np.array([0], np.int64), one, np.array([s.size], np.int64),
        np.array([s.size], np.int64), one.copy(),
        np.array([t.size], np.int64), np.zeros(1, np.int64), sc)
    return int(best[0]), int(ei[0]), int(ej[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 8), st.integers(0, 90))
def test_batch_kernel_matches_serial_lv(seed, n_mut, length):
    """One-problem batch == the 1D LV engine, element for element."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 4, size=length).astype(np.uint8)
    t = s.copy()
    for _ in range(n_mut):
        if t.size == 0:
            break
        p = int(rng.integers(0, t.size))
        op = int(rng.integers(0, 3))
        if op == 0:
            t[p] = (t[p] + int(rng.integers(1, 4))) % 4
        elif op == 1:
            t = np.delete(t, p)
        else:
            t = np.insert(t, p, int(rng.integers(0, 4)))
    t = t.astype(np.uint8)
    assert _run_batch_single(s, t) == xdrop_extend(s, t, SC)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(0, 6))
def test_batch_kernel_close_to_exact_dp(seed, n_mut):
    """Like the LV engine, the batch sweep is a tight admissible heuristic
    of the exact antidiagonal DP (small additive gap both ways)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, size=50).astype(np.uint8)
    b = a.copy()
    for _ in range(n_mut):
        p = int(rng.integers(0, 50))
        b[p] = (b[p] + int(rng.integers(1, 4))) % 4
    got = _run_batch_single(a, b)
    ref = xdrop_extend_dp(a, b, SC)
    assert abs(got[0] - ref[0]) <= 2


def test_batch_kernel_empty_sides():
    s = np.array([0, 1, 2, 3], np.uint8)
    empty = np.empty(0, np.uint8)
    assert _run_batch_single(s, empty) == (0, 0, 0)
    assert _run_batch_single(empty, s) == (0, 0, 0)
    assert _run_batch_single(empty, empty) == (0, 0, 0)


def test_batch_kernel_empty_problem_set():
    e = np.empty(0, np.int64)
    best, ei, ej = xdrop_extend_batch(np.empty(0, np.uint8), e, e, e, e, e,
                                      e, e, SC)
    assert best.shape == ei.shape == ej.shape == (0,)


def test_batch_kernel_mixed_lifetimes():
    """Problems retiring at different rounds must not disturb survivors:
    mix round-0 full matches, instant x-drop deaths, and long extensions."""
    rng = np.random.default_rng(5)
    long_a = rng.integers(0, 4, 300).astype(np.uint8)
    long_b = long_a.copy()
    long_b[::31] = (long_b[::31] + 1) % 4  # sparse mutations: long survivor
    probs = [
        (long_a, long_b),
        (long_a[:40], long_a[:40]),                  # round-0 retirement
        (np.zeros(60, np.uint8), np.full(60, 3, np.uint8)),  # instant death
        (long_a[:1], long_b[:1]),
    ]
    bufs, meta = [], []
    off = 0
    for s, t in probs:
        bufs += [s, t]
        meta.append((off, s.size, off + s.size, t.size))
        off += s.size + t.size
    codes = np.concatenate(bufs)
    sb = np.array([m[0] for m in meta], np.int64)
    sl = np.array([m[1] for m in meta], np.int64)
    tb = np.array([m[2] for m in meta], np.int64)
    tl = np.array([m[3] for m in meta], np.int64)
    ones = np.ones(len(probs), np.int64)
    best, ei, ej = xdrop_extend_batch(codes, sb, ones, sl, tb, ones.copy(),
                                      tl, np.zeros(len(probs), np.int64), SC)
    for p, (s, t) in enumerate(probs):
        assert (int(best[p]), int(ei[p]), int(ej[p])) == \
            xdrop_extend(s, t, SC)


# ---------------------------------------------------------------------------
# Compiled kernel: native.xdrop_extend_compiled vs the numpy sweep vs 1D.
# ---------------------------------------------------------------------------

#: Non-default scoring schemes the kernels must agree under.
SCORINGS = [SC, Scoring(mismatch=-2, gap=-1, xdrop=5),
            Scoring(match=2, mismatch=-3, gap=-2, xdrop=20),
            Scoring(xdrop=0)]


def _mutate(rng, s, n_edits, alphabet):
    t = s.copy()
    for _ in range(n_edits):
        p = int(rng.integers(0, t.size + 1))
        op = int(rng.integers(0, 3))
        if op == 0 and p < t.size:
            t[p] = (t[p] + int(rng.integers(1, 4))) % alphabet
        elif op == 1 and p < t.size:
            t = np.delete(t, p)
        else:
            t = np.insert(t, p, int(rng.integers(0, alphabet)))
    return t.astype(np.uint8)


def _batch_of(pairs, rng):
    """Pack ``(s, t)`` pairs into one SoA batch, each side stored forward or
    reversed (``step = ±1``) and t optionally complemented (``xor = 3``)."""
    parts, cols = [], []
    off = 0
    for s, t in pairs:
        s_step = int(rng.choice([1, -1]))
        t_step = int(rng.choice([1, -1]))
        xor = int(rng.choice([0, 3]))
        s_st = s[::s_step]
        t_st = (t ^ np.uint8(xor))[::t_step]
        s_base = off if s_step == 1 else off + s.size - 1
        off += s.size
        t_base = off if t_step == 1 else off + t.size - 1
        off += t.size
        parts += [s_st, t_st]
        cols.append((s_base, s_step, s.size, t_base, t_step, t.size, xor))
    codes = np.concatenate(parts).astype(np.uint8) if parts else \
        np.empty(0, np.uint8)
    arrs = np.array(cols, np.int64).reshape(-1, 7).T
    return (codes, *arrs)


def _view(codes, base, step, length, xor=0):
    return codes[base + np.arange(length, dtype=np.int64) * step] ^ \
        np.uint8(xor)


def _assert_kernels_agree(batch, sc):
    """numpy sweep == 1D engine per problem; compiled == numpy when built."""
    ref = xdrop_extend_batch(*batch, sc)
    codes, sb, ss, sl, tb, ts, tl, tx = batch
    for p in range(sb.shape[0]):
        s = _view(codes, sb[p], ss[p], sl[p])
        t = _view(codes, tb[p], ts[p], tl[p], tx[p])
        assert tuple(int(col[p]) for col in ref) == xdrop_extend(s, t, sc)
    lib = native.load()
    if lib is not None:
        got = native.xdrop_extend_compiled(lib, *batch, sc)
        for want, have in zip(ref, got):
            assert np.array_equal(want, have)
    return ref


def _random_pairs(rng, n_prob, max_len, alphabet):
    pairs = []
    for _ in range(n_prob):
        s = rng.integers(0, alphabet, int(rng.integers(0, max_len + 1))
                         ).astype(np.uint8)
        if rng.random() < 0.2:        # unrelated sequences: early death
            t = rng.integers(0, alphabet, int(rng.integers(0, max_len + 1))
                             ).astype(np.uint8)
        else:
            t = _mutate(rng, s, int(rng.integers(0, max_len // 4 + 2)),
                        alphabet)
        pairs.append((s, t))
    return pairs


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 31), st.integers(0, 10),
       st.sampled_from([4, 30, 160]), st.sampled_from([1, 2, 4]),
       st.sampled_from(range(len(SCORINGS))))
def test_compiled_kernel_parity_random(seed, n_prob, max_len, alphabet,
                                       sc_idx):
    """Random batches — strided and complemented views, empty sides,
    low-complexity (tie-heavy) alphabets, non-default scoring."""
    rng = np.random.default_rng(seed)
    batch = _batch_of(_random_pairs(rng, n_prob, max_len, alphabet), rng)
    _assert_kernels_agree(batch, SCORINGS[sc_idx])


@pytest.mark.parametrize("sc", SCORINGS[:2])
def test_compiled_kernel_exhaustive_short(sc):
    """Every pair of ``ACG`` strings up to length 3, empty sides included.
    Short mismatching pairs run the sweep to its last allowed round
    (``e = m + n``), so the edit budget is exercised on both kernels."""
    seqs = [np.array(w, np.uint8) for n in range(4)
            for w in itertools.product(range(3), repeat=n)]
    pairs = list(itertools.product(seqs, seqs))
    best, _, _ = _assert_kernels_agree(
        _batch_of(pairs, np.random.default_rng(0)), sc)
    empty = np.array([s.size == 0 or t.size == 0 for s, t in pairs])
    assert not best[empty].any()


def _kernel_task(sc, batch):
    lib = native.load()
    assert lib is not None
    return native.xdrop_extend_compiled(lib, *batch, sc)


@pytest.fixture(scope="module", params=["serial", "thread", "process"])
def kernel_executor(request):
    with get_executor(request.param, 2) as ex:
        yield ex


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2 ** 31))
def test_compiled_kernel_identical_across_executors(kernel_executor, seed):
    """Chunks of one batch on serial, thread (the GIL is released) and
    process workers reassemble to the single-call numpy result."""
    if native.load() is None:
        pytest.skip(f"x-drop kernel not built: {native.kernel_name()}")
    rng = np.random.default_rng(seed)
    batches = [_batch_of(_random_pairs(rng, 6, 120, 4), rng)
               for _ in range(4)]
    got = kernel_executor.run(_kernel_task, batches, context=SC)
    for batch, have in zip(batches, got):
        for want, col in zip(xdrop_extend_batch(*batch, SC), have):
            assert np.array_equal(want, col)


def test_compiled_kernel_rejects_views_outside_buffer():
    """Raw pointers must never leave the code buffer: a view that would is
    refused before the kernel runs (empty-side problems read nothing)."""
    lib = native.load()
    if lib is None:
        pytest.skip(f"x-drop kernel not built: {native.kernel_name()}")
    codes = np.zeros(10, np.uint8)
    one = np.ones(1, np.int64)

    def run(s_base, s_step, s_len, t_len=4):
        return native.xdrop_extend_compiled(
            lib, codes, np.array([s_base]), np.array([s_step]),
            np.array([s_len]), np.zeros(1, np.int64), one,
            np.array([t_len]), np.zeros(1, np.int64), SC)

    with pytest.raises(ValueError, match="leaves the 10-byte code buffer"):
        run(8, 1, 3)
    with pytest.raises(ValueError, match="leaves the 10-byte code buffer"):
        run(1, -1, 3)
    assert [int(c[0]) for c in run(1, -1, 3, t_len=0)] == [0, 0, 0]
    assert [int(c[0]) for c in run(9, -1, 10)] == [4, 4, 4]


def _seed_problem():
    rng = np.random.default_rng(7)
    reads = _overlapping_readset(rng, n_reads=4)
    codes, offsets, lengths = _soa(reads)
    gi = np.array([0, 1, 2, 3, 0], np.int64)
    gj = np.array([1, 2, 3, 0, 2], np.int64)
    pa = np.minimum(lengths[gi] - K, 40)
    pb = np.minimum(lengths[gj] - K, 25)
    strand = np.array([0, 1, 0, 1, 1], np.int64)
    args = (codes, offsets[gi], lengths[gi], offsets[gj], lengths[gj], pa,
            pb, strand, K, SC)
    want = []
    for t in range(gi.size):
        ref = seed_extend_align(reads[int(gi[t])], reads[int(gj[t])],
                                int(pa[t]), int(pb[t]), K, int(strand[t]),
                                SC)
        want.append((ref.score, ref.ba, ref.ea, ref.bb, ref.eb))
    return args, want


def _columns(got):
    return [tuple(int(col[t]) for col in got) for t in range(got[0].size)]


def test_compile_failure_falls_back_to_numpy(monkeypatch, tmp_path):
    """A compiler that fails leaves a recorded reason and the numpy sweep
    computing the same results; nothing half-built lands in the cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_state", None)
    monkeypatch.setattr(native, "compiler", lambda: ["/bin/false"])
    args, want = _seed_problem()
    assert _columns(extend_seeds_xdrop_batch(*args)) == want
    assert native.load() is None
    name = native.kernel_name()
    assert name.startswith("numpy (build failed: /bin/false exited")
    assert not list((tmp_path / "repro").iterdir())


def test_stubbed_compiler_counts_as_absent(monkeypatch, tmp_path):
    monkeypatch.setenv("CC", "/bin/false")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_state", None)
    assert native.compiler() is None
    assert native.load() is None
    assert native.kernel_name() == \
        "numpy (no working C compiler (CC=/bin/false))"


def test_concurrent_first_use_builds_once(monkeypatch, tmp_path):
    """First use from several threads and processes at once into an empty
    cache: one library per process (the loader's lock), one file in the
    cache (temp name + atomic rename), no temp file left behind."""
    if native.compiler() is None:
        pytest.skip("no working C compiler")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(native, "_state", None)
    code = ("from repro.align import native; "
            "print(native.kernel_name())")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True)
             for _ in range(3)]
    with ThreadPoolExecutor(max_workers=6) as pool:
        libs = list(pool.map(lambda _: native.load(), range(6)))
    outs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert outs == ["compiled"] * 3
    assert libs[0] is not None and all(lib is libs[0] for lib in libs)
    assert [f.suffix for f in (tmp_path / "repro").iterdir()] == \
        [sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"]


def test_compiled_kernel_used_when_compiler_found(monkeypatch):
    """No silent fallback: wherever the loader's probe finds a compiler,
    the pipeline's x-drop entry point runs the compiled kernel."""
    if native.compiler() is None:
        assert native.kernel_name().startswith("numpy (")
        return
    assert native.kernel_name() == "compiled"

    def numpy_sweep(*_args):
        raise AssertionError("numpy x-drop fallback ran")

    monkeypatch.setattr(batch_mod, "xdrop_extend_batch", numpy_sweep)
    args, want = _seed_problem()
    assert _columns(extend_seeds_xdrop_batch(*args)) == want


# ---------------------------------------------------------------------------
# Seed-level parity: batched seed extension vs seed_extend_align /
# chain_extend, including strand-1 strided views and boundary seeds.
# ---------------------------------------------------------------------------

def _random_readset(rng, n_reads, min_len=K, max_len=120):
    seqs = [rng.integers(0, 4, int(rng.integers(min_len, max_len + 1))
                         ).astype(np.uint8) for _ in range(n_reads)]
    return ReadSet([f"r{i}" for i in range(n_reads)], seqs)


def _soa(reads):
    lengths = reads.lengths
    offsets = np.zeros(len(reads), np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return np.concatenate(reads.seqs), offsets, lengths


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 31))
def test_seed_extension_parity_random(seed):
    rng = np.random.default_rng(seed)
    reads = _random_readset(rng, 6)
    codes, offsets, lengths = _soa(reads)
    cases = []
    for _ in range(25):
        i, j = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        pa = int(rng.integers(0, lengths[i] - K + 1))
        pb = int(rng.integers(0, lengths[j] - K + 1))
        cases.append((i, j, pa, pb, int(rng.integers(0, 2))))
    # Boundary seeds: first and last k-mer on both reads, both strands.
    for strand in (0, 1):
        cases.append((0, 1, 0, 0, strand))
        cases.append((0, 1, int(lengths[0]) - K, int(lengths[1]) - K,
                      strand))
    arr = np.array(cases, np.int64)
    gi, gj, pa, pb, strand = arr.T
    got = extend_seeds_xdrop_batch(codes, offsets[gi], lengths[gi],
                                   offsets[gj], lengths[gj], pa, pb, strand,
                                   K, SC)
    chain_got = chain_extend_batch(lengths[gi], lengths[gj], pa, pb, strand,
                                   K)
    for t, (i, j, p_a, p_b, s_) in enumerate(cases):
        ref = seed_extend_align(reads[i], reads[j], p_a, p_b, K, s_, SC)
        assert tuple(int(col[t]) for col in got) == \
            (ref.score, ref.ba, ref.ea, ref.bb, ref.eb)
        cref = chain_extend(int(lengths[i]), int(lengths[j]), p_a, p_b, K,
                            s_)
        assert tuple(int(col[t]) for col in chain_got) == \
            (cref.score, cref.ba, cref.ea, cref.bb, cref.eb)


# ---------------------------------------------------------------------------
# align_candidates parity: impl="loop" vs impl="batch" on synthetic C.
# ---------------------------------------------------------------------------

def _make_candidates(reads, entries, nprocs=4):
    """Build a C-typed DistMat from (i, j, seed1, seed2 | None) tuples."""
    n = len(reads)
    rows, cols, vals = [], [], []
    for i, j, seed1, seed2 in entries:
        v = np.full(C_NFIELDS, -1, np.int64)
        v[0] = 1 if seed2 is None else 2
        v[1:4] = seed1
        if seed2 is not None:
            v[4:7] = seed2
        rows.append(i)
        cols.append(j)
        vals.append(v)
    grid = ProcessGrid2D(nprocs)
    if rows:
        return DistMat.from_coo((n, n), grid, np.array(rows, np.int64),
                                np.array(cols, np.int64), np.vstack(vals))
    return DistMat.empty((n, n), grid, C_NFIELDS)


def _align_both(reads, C, mode="xdrop", filt=None, fuzz=10, executor=None):
    out = []
    for impl in ("loop", "batch"):
        comm = SimComm(C.grid.nprocs, CommTracker(C.grid.nprocs))
        R = align_candidates(C, reads, K, comm, StageTimer(), mode=mode,
                             filt=filt, fuzz=fuzz, executor=executor,
                             impl=impl)
        out.append(R.to_global())
    return out


def _assert_same(gl, gb):
    assert np.array_equal(gl.row, gb.row)
    assert np.array_equal(gl.col, gb.col)
    assert np.array_equal(gl.vals, gb.vals)


def _overlapping_readset(rng, n_reads=8, glen=600, rlen=150):
    """Reads cut from one genome so candidates carry real shared k-mers."""
    genome = rng.integers(0, 4, glen).astype(np.uint8)
    seqs = []
    for _ in range(n_reads):
        start = int(rng.integers(0, glen - rlen))
        s = genome[start:start + rlen].copy()
        mut = rng.random(rlen) < 0.03
        s[mut] = (s[mut] + rng.integers(1, 4, int(mut.sum()))) % 4
        if rng.random() < 0.4:
            s = (np.uint8(3) - s)[::-1].copy()
        seqs.append(s)
    return ReadSet([f"r{i}" for i in range(n_reads)], seqs)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 31), st.sampled_from(["xdrop", "chain"]))
def test_align_candidates_parity_random(seed, mode):
    rng = np.random.default_rng(seed)
    reads = _overlapping_readset(rng)
    lengths = reads.lengths
    entries = {}
    for _ in range(12):
        i, j = sorted(rng.integers(0, len(reads), 2))
        if i == j:
            continue
        def s():
            return (int(rng.integers(0, lengths[i] - K + 1)),
                    int(rng.integers(0, lengths[j] - K + 1)),
                    int(rng.integers(0, 2)))
        entries[(int(i), int(j))] = (int(i), int(j), s(),
                                     s() if rng.random() < 0.6 else None)
    C = _make_candidates(reads, list(entries.values()))
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)
    gl, gb = _align_both(reads, C, mode=mode, filt=filt, fuzz=30)
    _assert_same(gl, gb)


def test_align_candidates_empty_batch():
    rng = np.random.default_rng(0)
    reads = _random_readset(rng, 4)
    C = _make_candidates(reads, [])
    for mode in ("xdrop", "chain"):
        gl, gb = _align_both(reads, C, mode=mode)
        _assert_same(gl, gb)
        assert gb.nnz == 0
        assert gb.vals.shape == (0, 4)


def test_align_candidates_all_pairs_pruned():
    rng = np.random.default_rng(1)
    reads = _overlapping_readset(rng)
    lengths = reads.lengths
    entries = [(0, 1, (0, 0, 0), None),
               (1, 2, (int(lengths[1]) - K, int(lengths[2]) - K, 1), None)]
    C = _make_candidates(reads, entries)
    filt = AlignmentFilter(min_score=10 ** 6, min_overlap=10 ** 6)
    for mode in ("xdrop", "chain"):
        gl, gb = _align_both(reads, C, mode=mode, filt=filt)
        _assert_same(gl, gb)
        assert gb.nnz == 0


@pytest.mark.parametrize("executor,workers",
                         [("thread", 4), ("process", 4)])
def test_batch_impl_identical_across_executors(executor, workers):
    """Chunked batch tasks reassemble in order on every executor."""
    rng = np.random.default_rng(9)
    reads = _overlapping_readset(rng, n_reads=12)
    lengths = reads.lengths
    entries = {}
    for _ in range(30):
        i, j = sorted(rng.integers(0, len(reads), 2))
        if i == j:
            continue
        entries[(int(i), int(j))] = (
            int(i), int(j),
            (int(rng.integers(0, lengths[i] - K + 1)),
             int(rng.integers(0, lengths[j] - K + 1)),
             int(rng.integers(0, 2))), None)
    C = _make_candidates(reads, list(entries.values()))
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)

    def run(ex):
        comm = SimComm(C.grid.nprocs, CommTracker(C.grid.nprocs))
        with ex:
            R = align_candidates(C, reads, K, comm, StageTimer(),
                                 mode="xdrop", filt=filt, fuzz=30,
                                 executor=ex, impl="batch")
        return R.to_global()

    ref = run(get_executor("serial", 1))
    got = run(get_executor(executor, workers))
    _assert_same(ref, got)


# ---------------------------------------------------------------------------
# Seed dedup: redundant second seeds are skipped with R unchanged.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["xdrop", "chain"])
def test_duplicate_second_seed_leaves_r_unchanged(mode):
    """A second seed equal to the first must yield exactly the R of a
    single-seed entry (the dedup path extends once)."""
    rng = np.random.default_rng(3)
    reads = _overlapping_readset(rng, n_reads=4)
    lengths = reads.lengths
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)
    for strand in (0, 1):
        seed = (int(lengths[0]) // 3, int(lengths[1]) // 3, strand)
        dup = _make_candidates(reads, [(0, 1, seed, seed)])
        single = _make_candidates(reads, [(0, 1, seed, None)])
        for impl in ("loop", "batch"):
            out = []
            for C in (dup, single):
                comm = SimComm(C.grid.nprocs, CommTracker(C.grid.nprocs))
                R = align_candidates(C, reads, K, comm, StageTimer(),
                                     mode=mode, filt=filt, fuzz=30,
                                     impl=impl)
                out.append(R.to_global())
            _assert_same(out[0], out[1])


def test_same_diagonal_second_seed_chain_mode():
    """Chain mode: a second seed on the first's oriented diagonal is
    redundant (the estimate depends only on the diagonal), so R matches the
    single-seed entry; different-diagonal seeds still differ from it."""
    rng = np.random.default_rng(4)
    reads = _overlapping_readset(rng, n_reads=4)
    filt = AlignmentFilter(min_score=5, min_overlap=20, ratio=0.1)

    def r_of(entries):
        C = _make_candidates(reads, entries)
        comm = SimComm(C.grid.nprocs, CommTracker(C.grid.nprocs))
        return align_candidates(C, reads, K, comm, StageTimer(),
                                mode="chain", filt=filt, fuzz=30,
                                impl="batch").to_global()

    seed1 = (30, 10, 0)
    same_diag = (45, 25, 0)       # pa - pb identical -> same diagonal
    ref = r_of([(0, 1, seed1, None)])
    _assert_same(r_of([(0, 1, seed1, same_diag)]), ref)


# ---------------------------------------------------------------------------
# The impl switch.
# ---------------------------------------------------------------------------

def test_resolve_align_impl(monkeypatch):
    monkeypatch.delenv("REPRO_ALIGN_IMPL", raising=False)
    assert resolve_align_impl(None) == "batch"
    assert resolve_align_impl("auto") == "batch"
    assert resolve_align_impl("loop") == "loop"
    assert resolve_align_impl("batch") == "batch"
    monkeypatch.setenv("REPRO_ALIGN_IMPL", "loop")
    assert resolve_align_impl("auto") == "loop"
    assert resolve_align_impl(None) == "loop"
    assert resolve_align_impl("batch") == "batch"  # explicit beats env
    with pytest.raises(ValueError):
        resolve_align_impl("vectorized")
