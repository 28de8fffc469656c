"""Batched structure-of-arrays x-drop alignment engine.

:mod:`repro.align.xdrop` vectorizes one pair's extension over its *diagonals*
— which still leaves the pipeline issuing one Python call (and dozens of tiny
numpy kernels) per candidate pair.  This module adds the second vectorization
axis: every function here operates on **whole batches of extension problems
at once**, advancing all of them in lockstep so each edit round is a handful
of large ``(problems × diagonals)`` kernel calls instead of thousands of
small ones.

Sequences are never copied or padded per problem.  A batch references one
shared ``codes`` buffer (all reads concatenated) through structure-of-arrays
views: per problem a base offset, a stride (``+1`` forward, ``-1`` for the
reversed prefixes of left extensions), a length, and an XOR mask (``3``
complements a 2-bit DNA code, so reverse-complemented sequences are plain
strided reads of the forward buffer — no oriented copy is materialized).

The sweep mirrors :func:`repro.align.xdrop.xdrop_extend` *exactly*: the same
greedy Landau–Vishkin recurrence, the same chunked snake slide, the same
score/tie-break/x-drop rules — only run over a 2D ``(problem, diagonal)``
state with per-problem live masks.  Problems retire from the working set as
their diagonal sets die, so the arrays shrink as the batch drains and the
cost converges to the serial engine's per-problem work.

:func:`extend_seeds_xdrop_batch`, the pipeline's entry point, hands the
same structure-of-arrays batch to the compiled kernel of
:mod:`repro.align.native` (built on first use, GIL released) and keeps
:func:`xdrop_extend_batch` as its fallback when no C compiler is usable and
as its parity oracle.  The per-pair path stays the reference oracle behind
the ``loop | batch | auto`` switch (:func:`resolve_align_impl`), and the
parity suite pins byte-identical results between the two.
"""

from __future__ import annotations

import os

import numpy as np

from . import native
from .xdrop import LV_NEG, SNAKE_CHUNK, Scoring

__all__ = [
    "ALIGN_IMPLS", "ALIGN_IMPL_ENV", "DEFAULT_ALIGN_IMPL",
    "resolve_align_impl",
    "xdrop_extend_batch", "extend_seeds_xdrop_batch", "chain_extend_batch",
]

#: Alignment-engine names accepted by ``PipelineConfig.align_impl`` (plus
#: ``"auto"``, which resolves through :func:`resolve_align_impl`).
ALIGN_IMPLS = ("loop", "batch")

#: Environment variable consulted by ``align_impl="auto"``.
ALIGN_IMPL_ENV = "REPRO_ALIGN_IMPL"

#: What ``"auto"`` resolves to when the environment does not override it.
DEFAULT_ALIGN_IMPL = "batch"

#: Sentinel for masked cells in the tie-break reach comparison — below any
#: real ``2·F - d`` (bounded by read lengths) but far from int64 overflow.
_REACH_NEG = np.int64(-(2 ** 60))


def resolve_align_impl(impl: str | None = None) -> str:
    """Resolve an alignment-engine name to ``"loop"`` or ``"batch"``.

    ``None`` and ``"auto"`` defer to the :data:`ALIGN_IMPL_ENV` environment
    variable when set (mirroring ``REPRO_EXECUTOR`` / ``REPRO_OVERLAP_MODE``),
    else pick :data:`DEFAULT_ALIGN_IMPL`; explicit names pass through
    validated.  Both engines produce byte-identical output — the switch is a
    pure performance axis, with ``loop`` kept as the reference oracle.
    """
    if impl is None:
        impl = "auto"
    if impl == "auto":
        env = os.environ.get(ALIGN_IMPL_ENV, "").strip().lower()
        impl = env if env and env != "auto" else DEFAULT_ALIGN_IMPL
    if impl not in ALIGN_IMPLS:
        raise ValueError(f"unknown align impl {impl!r}; expected one of "
                         f"{', '.join(ALIGN_IMPLS + ('auto',))}")
    return impl


def _slide_snakes_2d(codes: np.ndarray,
                     s_base: np.ndarray, s_step: np.ndarray, s_len: np.ndarray,
                     t_base: np.ndarray, t_step: np.ndarray, t_len: np.ndarray,
                     t_xor: np.ndarray, F: np.ndarray, dlo: int,
                     live: np.ndarray) -> np.ndarray:
    """Batched exact-match snake slide over live ``(problem, diagonal)`` cells.

    The 2D counterpart of :func:`repro.align.xdrop._slide_snakes`: ``F[p, w]``
    is the furthest ``i`` of problem ``p`` on diagonal ``dlo + w``; characters
    are fetched through the strided SoA views (``codes[base + i·step] ^ xor``)
    in :data:`~repro.align.xdrop.SNAKE_CHUNK`-character gulps, and only cells
    that matched a full chunk iterate again.
    """
    ext = np.zeros_like(F)
    pp, ww = np.nonzero(live)
    offs = np.arange(SNAKE_CHUNK, dtype=np.int64)
    while pp.size:
        i0 = F[pp, ww] + ext[pp, ww]
        j0 = i0 - (dlo + ww)
        m = s_len[pp]
        n = t_len[pp]
        room = np.minimum(m - i0, n - j0)
        cap = np.minimum(room, SNAKE_CHUNK)
        si = np.minimum(i0[:, None] + offs, (m - 1)[:, None])
        tj = np.minimum(j0[:, None] + offs, (n - 1)[:, None])
        sch = codes[s_base[pp, None] + si * s_step[pp, None]]
        tch = codes[t_base[pp, None] + tj * t_step[pp, None]] ^ \
            t_xor[pp, None]
        inb = offs < cap[:, None]
        eq = sch == tch
        eq &= inb
        run = np.where(eq.all(axis=1), cap,
                       np.argmin(np.where(inb, eq, False), axis=1))
        run = np.where(cap > 0, run, 0)
        ext[pp, ww] += run
        cont = (run == SNAKE_CHUNK) & (room > SNAKE_CHUNK)
        pp = pp[cont]
        ww = ww[cont]
    return ext


def xdrop_extend_batch(codes: np.ndarray,
                       s_base: np.ndarray, s_step: np.ndarray,
                       s_len: np.ndarray,
                       t_base: np.ndarray, t_step: np.ndarray,
                       t_len: np.ndarray, t_xor: np.ndarray,
                       sc: Scoring
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched greedy x-drop extension: all problems in one lockstep sweep.

    Problem ``p`` extends ``s_p`` against ``t_p`` rightward from the origin,
    where ``s_p[i] = codes[s_base[p] + i·s_step[p]]`` for ``i < s_len[p]``
    and ``t_p[j] = codes[t_base[p] + j·t_step[p]] ^ t_xor[p]`` — the strided
    SoA views that make forward suffixes, reversed prefixes, and
    reverse-complemented sequences all zero-copy.  Returns per-problem
    ``(best_score, ext_s, ext_t)`` arrays, each element exactly equal to
    :func:`repro.align.xdrop.xdrop_extend` on the materialized pair.

    Each edit round processes the whole batch as ``(live problems × window)``
    arrays sharing one diagonal axis; the per-problem x-drop prune retires
    problems whose diagonal sets die, shrinking the working set as the batch
    drains, and the shared window is trimmed to the union of live spans.
    """
    n_prob = int(s_base.shape[0])
    out_best = np.zeros(n_prob, dtype=np.int64)
    out_i = np.zeros(n_prob, dtype=np.int64)
    out_j = np.zeros(n_prob, dtype=np.int64)
    if n_prob == 0:
        return out_best, out_i, out_j
    # Empty-side problems return (0, 0, 0) like the serial engine.
    ids = np.flatnonzero((s_len > 0) & (t_len > 0))
    if ids.size == 0:
        return out_best, out_i, out_j
    sb = s_base[ids].astype(np.int64)
    ss = s_step[ids].astype(np.int64)
    m = s_len[ids].astype(np.int64)
    tb = t_base[ids].astype(np.int64)
    ts = t_step[ids].astype(np.int64)
    n = t_len[ids].astype(np.int64)
    tx = np.asarray(t_xor, dtype=codes.dtype)[ids]

    # Round 0: the single seed diagonal, slide its snake.
    F = np.zeros((ids.size, 1), dtype=np.int64)
    M = np.zeros((ids.size, 1), dtype=np.int64)
    live = np.ones((ids.size, 1), dtype=bool)
    dlo = 0
    ext = _slide_snakes_2d(codes, sb, ss, m, tb, ts, n, tx, F, dlo, live)
    F += ext
    M += ext
    best = M[:, 0] * sc.match
    best_i = F[:, 0].copy()
    best_j = F[:, 0].copy()
    done = (F[:, 0] >= m) | (F[:, 0] >= n)
    if done.any():
        out_best[ids[done]] = best[done]
        out_i[ids[done]] = best_i[done]
        out_j[ids[done]] = best_j[done]
        keep = ~done
        ids, sb, ss, m, tb, ts, n, tx = (x[keep] for x in
                                         (ids, sb, ss, m, tb, ts, n, tx))
        F, M = F[keep], M[keep]
        best, best_i, best_j = best[keep], best_i[keep], best_j[keep]

    penalty = min(sc.mismatch, sc.gap)
    e = 0
    while ids.size:
        e += 1
        rows = ids.size
        width = F.shape[1]
        # Grow the shared window by one diagonal on each side.
        Fp = np.full((rows, width + 2), LV_NEG, dtype=np.int64)
        Mp = np.full((rows, width + 2), LV_NEG, dtype=np.int64)
        Fp[:, 1:-1] = F
        Mp[:, 1:-1] = M
        dlo -= 1
        diag = dlo + np.arange(width + 2, dtype=np.int64)
        # Substitution / insertion / deletion candidates; manual 3-way max
        # keeps M paired with its F winner (same scheme as the 1D engine).
        F = Fp + 1
        M = Mp.copy()
        f_ins = np.empty_like(Fp)
        f_ins[:, 0] = LV_NEG
        f_ins[:, 1:] = Fp[:, :-1] + 1
        m_ins = np.empty_like(Mp)
        m_ins[:, 0] = LV_NEG
        m_ins[:, 1:] = Mp[:, :-1]
        take = f_ins > F
        F = np.where(take, f_ins, F)
        M = np.where(take, m_ins, M)
        f_del = np.empty_like(Fp)
        f_del[:, -1] = LV_NEG
        f_del[:, :-1] = Fp[:, 1:]
        m_del = np.empty_like(Mp)
        m_del[:, -1] = LV_NEG
        m_del[:, :-1] = Mp[:, 1:]
        take = f_del > F
        F = np.where(take, f_del, F)
        M = np.where(take, m_del, M)
        # Bounds: i <= m and j = i - d <= n per problem.
        jv = F - diag[None, :]
        valid = (F >= 0) & (F <= m[:, None]) & (jv >= 0) & \
            (jv <= n[:, None]) & (M > LV_NEG // 2)
        F = np.where(valid, F, LV_NEG)
        live = valid
        if live.any():
            ext = _slide_snakes_2d(codes, sb, ss, m, tb, ts, n, tx,
                                   np.where(live, F, 0), dlo, live)
            F = np.where(live, F + ext, F)
            M = np.where(live, M + ext, M)
        scores = np.where(live, M * sc.match + e * penalty, LV_NEG)
        sbest = scores.max(axis=1)
        upd = np.flatnonzero(sbest > best)
        if upd.size:
            # Tie-break equal scores toward the farthest-reaching cell
            # (largest i + j), first in diagonal order — as the 1D engine.
            reach = np.where(scores[upd] == sbest[upd, None],
                             2 * F[upd] - diag[None, :], _REACH_NEG)
            kb = np.argmax(reach, axis=1)
            best[upd] = sbest[upd]
            best_i[upd] = F[upd, kb]
            best_j[upd] = F[upd, kb] - diag[kb]
        # X-drop prune, then retire problems whose diagonal sets died (or
        # that exhausted the serial engine's m + n edit-round budget).
        live &= scores >= (best - sc.xdrop)[:, None]
        F = np.where(live, F, LV_NEG)
        M = np.where(live, M, LV_NEG)
        alive = live.any(axis=1) & (e < m + n)
        if not alive.all():
            dead = ~alive
            out_best[ids[dead]] = best[dead]
            out_i[ids[dead]] = best_i[dead]
            out_j[ids[dead]] = best_j[dead]
            ids, sb, ss, m, tb, ts, n, tx = (x[alive] for x in
                                             (ids, sb, ss, m, tb, ts, n, tx))
            F, M, live = F[alive], M[alive], live[alive]
            best, best_i, best_j = best[alive], best_i[alive], best_j[alive]
            if not ids.size:
                break
        # Trim the shared window to the union of live diagonal spans.
        col_live = live.any(axis=0)
        lo = int(np.argmax(col_live))
        hi = col_live.shape[0] - 1 - int(np.argmax(col_live[::-1]))
        if lo > 0 or hi < col_live.shape[0] - 1:
            F = F[:, lo:hi + 1]
            M = M[:, lo:hi + 1]
            dlo += lo
    return out_best, out_i, out_j


def _seed_scores_batch(codes: np.ndarray, a_base: np.ndarray,
                       a_len: np.ndarray, b_base: np.ndarray,
                       b_len: np.ndarray, pa: np.ndarray, pbo: np.ndarray,
                       strand: np.ndarray, k: int, match: int) -> np.ndarray:
    """Matches inside each seed k-mer (× ``match``), vectorized over pairs.

    ``pbo`` is the seed start on the *oriented* ``b``; strand-1 characters
    are read back-to-front off the forward buffer and complemented by XOR.
    Seed windows clipped by a sequence end are scored over the shared prefix,
    exactly like the per-pair engine.
    """
    la = np.clip(a_len - pa, 0, k)
    lb = np.clip(b_len - pbo, 0, k)
    kl = np.minimum(la, lb)
    offs = np.arange(k, dtype=np.int64)
    in_seed = offs[None, :] < kl[:, None]
    ai = np.minimum(pa[:, None] + offs, np.maximum(a_len, 1)[:, None] - 1)
    ach = codes[a_base[:, None] + ai]
    jo = np.minimum(pbo[:, None] + offs, np.maximum(b_len, 1)[:, None] - 1)
    rc = strand[:, None] != 0
    bi = np.where(rc, b_len[:, None] - 1 - jo, jo)
    bch = codes[b_base[:, None] + bi] ^ \
        (3 * strand[:, None]).astype(codes.dtype)
    return ((ach == bch) & in_seed).sum(axis=1).astype(np.int64) * match


def extend_seeds_xdrop_batch(codes: np.ndarray, a_base: np.ndarray,
                             a_len: np.ndarray, b_base: np.ndarray,
                             b_len: np.ndarray, pa: np.ndarray,
                             pb: np.ndarray, strand: np.ndarray, k: int,
                             sc: Scoring
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray]:
    """Batched :func:`~repro.align.xdrop.seed_extend_align` over seed arrays.

    ``pa`` / ``pb`` are seed k-mer starts on each pair's read ``a`` and on
    the **forward** read ``b``; strand-1 seeds are mapped onto the oriented
    ``b`` without materializing a reverse complement.  Left and right
    extensions of every seed enter one batched x-drop call (reversed-prefix
    left problems are just ``step = -1`` views): the compiled kernel when
    :func:`repro.align.native.load` provides it, else
    :func:`xdrop_extend_batch`, with identical results.  Returns
    per-seed ``(score, ba, ea, bb, eb)`` with coordinates on ``a`` and the
    oriented ``b``, element-wise equal to the per-pair engine.
    """
    n_seed = int(pa.shape[0])
    pbo = np.where(strand != 0, b_len - k - pb, pb)
    seed_score = _seed_scores_batch(codes, a_base, a_len, b_base, b_len,
                                    pa, pbo, strand, k, sc.match)
    rc = strand != 0
    ones = np.ones(n_seed, dtype=np.int64)
    # Right extension: suffixes from the seed end (oriented-b suffixes of a
    # strand-1 pair are reversed, complemented walks of the forward buffer).
    s_base = np.concatenate([a_base + pa + k, a_base + pa - 1])
    s_step = np.concatenate([ones, -ones])
    s_len = np.concatenate([np.maximum(0, a_len - pa - k),
                            np.minimum(pa, a_len)])
    t_base = np.concatenate([
        np.where(rc, b_base + b_len - 1 - pbo - k, b_base + pbo + k),
        np.where(rc, b_base + b_len - pbo, b_base + pbo - 1)])
    t_step = np.concatenate([np.where(rc, -ones, ones),
                             np.where(rc, ones, -ones)])
    t_len = np.concatenate([np.maximum(0, b_len - pbo - k),
                            np.minimum(pbo, b_len)])
    t_xor = np.concatenate([3 * strand, 3 * strand])
    lib = native.load()
    args = (codes, s_base, s_step, s_len, t_base, t_step, t_len, t_xor, sc)
    bests, ext_s, ext_t = (xdrop_extend_batch(*args) if lib is None
                           else native.xdrop_extend_compiled(lib, *args))
    r_sc, r_ea, r_eb = bests[:n_seed], ext_s[:n_seed], ext_t[:n_seed]
    l_sc, l_ea, l_eb = bests[n_seed:], ext_s[n_seed:], ext_t[n_seed:]
    score = seed_score + r_sc + l_sc
    ba = pa - l_ea
    ea = pa + k + r_ea
    bb = pbo - l_eb
    eb = pbo + k + r_eb
    return score, ba, ea, bb, eb


def chain_extend_batch(a_len: np.ndarray, b_len: np.ndarray, pa: np.ndarray,
                       pb: np.ndarray, strand: np.ndarray, k: int,
                       identity: float = 0.85
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                  np.ndarray, np.ndarray]:
    """Batched :func:`~repro.align.xdrop.chain_extend` over seed arrays.

    Pure column arithmetic — the seed diagonal projected to the read ends,
    scored by the implied overlap length × identity estimate.  Returns the
    same ``(score, ba, ea, bb, eb)`` tuple as the x-drop variant.
    """
    sb = np.where(strand != 0, b_len - k - pb, pb)
    left = np.minimum(pa, sb)
    right = np.minimum(a_len - pa, b_len - sb)
    ba = pa - left
    bb = sb - left
    ea = pa + right
    eb = sb + right
    scale = max(0.0, 2.0 * identity - 1.0)
    score = ((ea - ba) * scale).astype(np.int64)
    return score, ba, ea, bb, eb
