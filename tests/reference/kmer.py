"""Per-read / per-key dict k-mer counting: the reference for the SoA engine.

The product counts k-mers through sorted structure-of-arrays tables and
scans ``A`` as one vectorized pass per rank
(:mod:`repro.seqs.kmer_counter`, :func:`repro.core.overlap.build_a_matrix`).
This module keeps the simple engine they are pinned against: seeds
extracted read by read, send lists built with one boolean mask per
destination, the admission/count tables as ``dict[int, int]``, and the
``A`` scan one read at a time.

:func:`count_kmers` and :func:`build_a_matrix` take the same arguments as
the product functions (minus the out-of-core ``table_budget``) and must
return the same :class:`~repro.seqs.kmer_counter.KmerTable` / ``A`` and
record the same ``CountKmer`` / ``CreateSpMat`` traffic.
"""

from __future__ import annotations

import numpy as np

from repro.core.memory import coo_nbytes
from repro.core.overlap import charge_a_routing
from repro.dsparse.distmat import DistMat
from repro.exec import SERIAL
from repro.mpisim.grid import block_bounds
from repro.mpisim.tracker import StageTimer
from repro.seqs.bloom import BloomFilter
from repro.seqs.kmer_counter import STAGE, KmerTable, _histogram_hits
from repro.seqs.kmers import splitmix64
from repro.seqs.seeding import FullKScheme

__all__ = ["count_kmers", "build_a_matrix"]


# -- executor tasks (module-level so the process pool can pickle them) ------

def _extract_task(ctx, owned_idx):
    """One rank's seed extraction over its block of reads, read by read."""
    reads, scheme = ctx
    parts = [scheme.seeds_of_read(reads[int(i)])[0] for i in owned_idx]
    return np.concatenate(parts) if parts else np.empty(0, np.uint64)


def _pass1_task(ctx, task):
    """First-pass handling at one owner rank: Bloom insert + admission.

    Takes and returns the rank's filter plus the keys the per-occurrence
    Bloom test admitted; the admission table itself stays in the parent.
    """
    bloom, incoming = task
    seen = bloom.add_and_test(incoming)
    return bloom, incoming[seen]


def _pass2_task(ctx, task):
    """Second-pass handling at one owner rank: exact counting.

    ``admitted_keys`` is the rank's sorted admitted-key array; returns the
    (admitted key, count) arrays for the parent to fold into its table.
    """
    admitted_keys, incoming = task
    if admitted_keys.shape[0] == 0 or incoming.size == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    uniq, cnt = np.unique(incoming, return_counts=True)
    return _histogram_hits(admitted_keys, uniq, cnt)


def _reliable_task(ctx, table):
    """Reliable selection at one owner rank's dict table."""
    lower, upper = ctx
    if not table:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    kk = np.fromiter(table.keys(), dtype=np.uint64, count=len(table))
    cc = np.fromiter(table.values(), dtype=np.int64, count=len(table))
    keep = (cc >= lower) & (cc <= upper)
    return kk[keep], cc[keep]


def _a_scan_task(ctx, span):
    """One 1D rank's (read, seed k-mer) entry scan, read by read."""
    reads, table, scheme = ctx
    lo, hi = span
    rr, cc, vv = [], [], []
    for gi in range(lo, hi):
        keys, seed_pos, seed_flip = scheme.seeds_of_read(reads[gi])
        if keys.shape[0] == 0:
            continue
        col = table.lookup(keys)
        ok = col >= 0
        if not ok.any():
            continue
        pos = seed_pos[ok]
        col = col[ok]
        flip = seed_flip[ok].astype(np.int64)
        # Keep the first occurrence per (read, k-mer).
        _, first = np.unique(col, return_index=True)
        rr.append(np.full(first.shape[0], gi, dtype=np.int64))
        cc.append(col[first])
        vv.append(np.stack([pos[first], flip[first]], axis=1))
    if not rr:
        return None
    return np.concatenate(rr), np.concatenate(cc), np.vstack(vv)


def _partition_reads(reads, nprocs: int) -> list[np.ndarray]:
    """Balanced 1D block partition of read indices across ranks."""
    bounds = block_bounds(len(reads), nprocs)
    return [np.arange(bounds[p], bounds[p + 1], dtype=np.int64)
            for p in range(nprocs)]


def _group_by_dest_masks(sl: np.ndarray, dl: np.ndarray, nprocs: int
                         ) -> list[np.ndarray]:
    """Send-list construction: one boolean mask per destination rank."""
    return [sl[dl == q] for q in range(nprocs)]


# -- drivers ------------------------------------------------------------------

def count_kmers(reads, k: int, comm, timer: StageTimer | None = None, *,
                batches: int = 1, bloom_fp: float = 0.01, lower: int = 2,
                upper: int = 8, executor=None, scheme=None) -> KmerTable:
    """Two-pass distributed k-mer counting with dict tables.

    Same protocol as :func:`repro.seqs.kmer_counter.count_kmers`: per-rank
    extraction, ``batches`` alltoallv rounds per pass (send lists rebuilt
    for each pass), Bloom admission in pass 1, exact counts in pass 2,
    reliable selection and an allgather of the per-rank reliable sets.
    """
    P = comm.nprocs
    timer = timer if timer is not None else StageTimer()
    executor = executor if executor is not None else SERIAL
    scheme = scheme if scheme is not None else FullKScheme(k)

    with timer.superstep(STAGE) as step:
        owned = _partition_reads(reads, P)
        rank_kmers, secs = executor.run_timed(
            _extract_task, owned, context=(reads, scheme),
            weights=[idx.shape[0] for idx in owned])
        step.charge_many(range(P), secs)

    dest = [(splitmix64(km) % np.uint64(P)).astype(np.int64)
            for km in rank_kmers]
    total_kmers = sum(km.shape[0] for km in rank_kmers)
    blooms = [BloomFilter(max(64, total_kmers // max(1, P)), bloom_fp)
              for _ in range(P)]

    def exchange_rounds(run_round) -> None:
        """One pass = ``batches`` alltoallv rounds + local handling."""
        for b in range(batches):
            send = []
            for p in range(P):
                km = rank_kmers[p]
                n = km.shape[0]
                lo, hi = (n * b) // batches, (n * (b + 1)) // batches
                send.append(_group_by_dest_masks(km[lo:hi],
                                                 dest[p][lo:hi], P))
            recv = comm.alltoallv(send, stage=STAGE)
            run_round([np.concatenate(recv[q]) if recv[q] else
                       np.empty(0, np.uint64) for q in range(P)])

    def run_superstep(fn, tasks, weights):
        """One executor superstep charged to the owner ranks."""
        with timer.superstep(STAGE) as step:
            out, secs = executor.run_timed(fn, tasks, weights=weights)
            step.charge_many(range(P), secs)
        return out

    admitted: list[dict[int, int]] = [dict() for _ in range(P)]

    def pass1(incoming: list[np.ndarray]) -> None:
        out = run_superstep(_pass1_task,
                            [(blooms[q], incoming[q]) for q in range(P)],
                            [inc.shape[0] for inc in incoming])
        for q, (bloom, new_keys) in enumerate(out):
            blooms[q] = bloom
            table = admitted[q]
            for kv in new_keys:
                table.setdefault(int(kv), 0)

    def pass2(incoming: list[np.ndarray]) -> None:
        out = run_superstep(_pass2_task,
                            [(pass2_keys[q], incoming[q]) for q in range(P)],
                            [inc.shape[0] for inc in incoming])
        for q, (hit_keys, counts) in enumerate(out):
            table = admitted[q]
            for kv, c in zip(hit_keys, counts):
                table[int(kv)] += int(c)

    exchange_rounds(pass1)
    # The admitted key sets are frozen once pass 1 completes.
    pass2_keys = [np.sort(np.fromiter(admitted[q].keys(), dtype=np.uint64,
                                      count=len(admitted[q])))
                  for q in range(P)]
    exchange_rounds(pass2)

    with timer.superstep(STAGE) as step:
        rel_parts, secs = executor.run_timed(
            _reliable_task, list(admitted), context=(lower, upper),
            weights=[len(t) for t in admitted])
        step.charge_many(range(P), secs)
    comm.allgather([p[0] for p in rel_parts], stage=STAGE)
    all_k = np.concatenate([p[0] for p in rel_parts])
    all_c = np.concatenate([p[1] for p in rel_parts])
    order = np.argsort(all_k)
    return KmerTable(k=k, kmers=all_k[order], counts=all_c[order],
                     lower=lower, upper=upper)


def build_a_matrix(reads, table: KmerTable, grid, comm,
                   timer: StageTimer | None = None, executor=None,
                   scheme=None) -> DistMat:
    """The |reads|×|k-mers| matrix ``A``, scanned read by read per rank.

    Same entries, entry order, ``CreateSpMat`` traffic and peak mark as
    :func:`repro.core.overlap.build_a_matrix`.
    """
    timer = timer if timer is not None else StageTimer()
    executor = executor if executor is not None else SERIAL
    scheme = scheme if scheme is not None else FullKScheme(table.k)
    stage = "CreateSpMat"
    P = comm.nprocs
    n = len(reads)
    bounds = block_bounds(n, P)
    spans = [(int(bounds[p]), int(bounds[p + 1])) for p in range(P)]
    with timer.superstep(stage) as step:
        parts, secs = executor.run_timed(
            _a_scan_task, spans, context=(reads, table, scheme),
            weights=[hi - lo for lo, hi in spans])
        step.charge_many(range(P), secs)
    parts = [part for part in parts if part is not None]
    if parts:
        row = np.concatenate([part[0] for part in parts])
        col = np.concatenate([part[1] for part in parts])
        vals = np.vstack([part[2] for part in parts])
    else:
        row = col = np.empty(0, np.int64)
        vals = np.empty((0, 2), np.int64)
    charge_a_routing(row, col, n, len(table), grid, comm, stage=stage)
    timer.record_peak_bytes(stage, coo_nbytes(row.shape[0], vals.shape[1]))
    return DistMat.from_coo((n, len(table)), grid, row, col, vals)
