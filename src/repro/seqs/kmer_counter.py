"""Two-pass distributed k-mer counting with a Bloom filter.

Reproduces diBELLA 2D's counter (paper Section IV-C, after HipMer): k-mers
are hashed to an owner rank; in the first pass every rank ships its k-mers to
their owners, who insert them into a local Bloom filter — a k-mer is admitted
to the local counting table only when the filter says it was seen before
(singleton elimination).  The second pass ships the k-mers again and
accumulates exact counts for admitted k-mers.  Both passes are
``MPI_Alltoallv`` exchanges; with ``batches`` rounds per pass the latency
cost is ``Y = bP`` (Table I).

Reliable-k-mer selection then discards k-mers outside
``[2, upper]`` where ``upper`` follows BELLA's dataset-specific model
(:func:`reliable_upper_bound`): with error rate ``e`` a k-mer instance is
error-free with probability ``(1-e)^k``, so correct k-mers have multiplicity
``≈ Poisson(d·(1-e)^k)`` and anything far above that quantile is a repeat or
artifact.  With the paper's CLR parameters (k=17, e≈0.15, d=10–40) this model
lands on the small cutoffs the paper reports (they use max frequency 4 for
H. sapiens).

The per-rank work is structure-of-arrays throughout: extraction is one
:meth:`~repro.seqs.seeding.SeedScheme.seeds_of_block` sweep per rank over
its SoA read block, and the admission/count tables are **sorted arrays**
updated by merge (``np.searchsorted`` membership, vectorized accumulate) —
no per-key Python dict traffic anywhere.  The resulting
:class:`KmerTable` and communication records are pinned byte-identical to
a per-read / per-key dict counter (``tests/reference/kmer.py``) by the
parity and golden suites.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np
from scipy import stats

from ..exec import Executor, SERIAL
from ..mpisim.comm import SimComm
from ..mpisim.grid import block_bounds
from ..mpisim.tracker import StageTimer
from .bloom import BloomFilter
from .fasta import ReadSet
from .kmers import splitmix64
from .seeding import FullKScheme, SeedScheme
from .spill import combine_histograms, merge_pair_runs, write_pair_run

__all__ = ["KmerTable", "reliable_upper_bound", "count_kmers",
           "kmer_histogram", "merge_histograms", "table_from_histogram"]

STAGE = "CountKmer"

# -- executor tasks (module-level so the process pool can pickle them) ------

def _extract_task(ctx, span):
    """One rank's seed extraction as a single SoA sweep.

    The task is the rank's read span ``(lo, hi)``; the worker takes its
    ``(codes, offsets, lengths)`` block from the ReadSet in the context
    (:meth:`~repro.seqs.fasta.ReadSet.soa_block`).  With the mmap read
    store a process pool ships only the store path and each worker pages
    in its own block; in-memory sets ride along in the (pre-pickled)
    context.  Output order is read-major, window order within a read,
    for every :class:`~repro.seqs.seeding.SeedScheme`.
    """
    scheme, reads = ctx
    lo, hi = span
    return scheme.seeds_of_block(*reads.soa_block(lo, hi))[0]


def _pass1_task(ctx, task):
    """First-pass handling at one owner rank: Bloom test + admission.

    Reduces the round's incoming k-mers to their ``(distinct key, count)``
    histogram once, probes/sets the Bloom filter once per *distinct* key
    (:meth:`~repro.seqs.bloom.BloomFilter.test_and_set`), and emits the
    admitted distinct keys — exactly the key set a per-occurrence
    ``add_and_test`` fold admits: a key is admitted iff the pre-round
    filter knew it or it occurs at least twice in the round.  Takes and
    returns the rank's filter (with a process pool it is shipped back
    mutated, with threads it is the same object); the histogram rides back
    so pass 2 never recomputes it.
    """
    bloom, incoming = task
    uniq, cnt = np.unique(incoming, return_counts=True)
    pre = bloom.test_and_set(uniq)
    admitted = uniq[pre | (cnt >= 2)]
    return bloom, admitted, uniq, cnt


def _pass2_task(ctx, task):
    """Second-pass handling at one owner rank: exact counting.

    The per-round incoming set is identical in both passes (same k-mers,
    same destinations, same round slicing), so pass 2 reuses the
    ``(uniq, cnt)`` histogram pass 1 computed instead of re-sorting the
    round's traffic — the exchange itself still runs for the communication
    accounting.  Returns the (admitted key, count) arrays for the parent to
    fold into its table.
    """
    admitted_keys, uniq, cnt = task
    if admitted_keys.shape[0] == 0 or uniq.size == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    return _histogram_hits(admitted_keys, uniq, cnt)


def _histogram_hits(admitted_keys: np.ndarray, uniq: np.ndarray,
                    cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filter a sorted (key, count) histogram to the admitted keys."""
    idx = np.searchsorted(admitted_keys, uniq)
    idx = np.minimum(idx, admitted_keys.shape[0] - 1)
    hit = admitted_keys[idx] == uniq
    return uniq[hit], cnt[hit]


def _reliable_task(ctx, table):
    """Reliable selection at one owner rank's SoA table."""
    lower, upper = ctx
    keys, counts = table
    keep = (counts >= lower) & (counts <= upper)
    return keys[keep], counts[keep]


def _merge_admitted(keys: np.ndarray, counts: np.ndarray,
                    cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge newly admitted keys (sorted, distinct) into a SoA table.

    The vectorized ``setdefault``: keys already present keep their counts,
    unseen keys are spliced in (in sorted position) with count 0.  One
    merge per exchange round — never a per-key loop, and the table stays
    sorted incrementally so pass 2 needs no re-sort.
    """
    if cand.size == 0:
        return keys, counts
    if keys.shape[0]:
        idx = np.searchsorted(keys, cand)
        present = np.zeros(cand.shape[0], dtype=bool)
        inb = idx < keys.shape[0]
        present[inb] = keys[idx[inb]] == cand[inb]
        fresh = cand[~present]
        if fresh.size == 0:
            return keys, counts
        at = idx[~present]
        return (np.insert(keys, at, fresh),
                np.insert(counts, at, 0))
    return cand, np.zeros(cand.shape[0], dtype=np.int64)


def _group_by_dest_sorted(sl: np.ndarray, dl: np.ndarray, nprocs: int
                          ) -> list[np.ndarray]:
    """Send-list construction: one stable sort by destination.

    A stable sort groups the k-mers per rank while preserving their
    original relative order, so every per-destination subarray equals
    ``sl[dl == q]`` — in one pass instead of ``nprocs``.
    """
    order = np.argsort(dl, kind="stable")
    sl = sl[order]
    cuts = np.searchsorted(dl[order], np.arange(1, nprocs, dtype=np.int64))
    return np.split(sl, cuts)


# -- spillable (out-of-core) engine tasks -----------------------------------

def _seed_count_task(ctx, span):
    """Per-read seed counts over one rank's read span (spill engine).

    Swept in fixed sub-blocks so the transient extraction buffer stays
    bounded regardless of span size — the whole point of the budgeted
    path.  The counts feed the per-rank prefix sums that let each exchange
    round re-extract exactly its slice of the seed stream.
    """
    scheme, reads = ctx
    lo, hi = span
    counts = np.zeros(hi - lo, dtype=np.int64)
    for sub in range(lo, hi, 2048):
        sub_hi = min(sub + 2048, hi)
        keys, ridx = scheme.seeds_of_block(
            *reads.soa_block(sub, sub_hi))[:2]
        counts[sub - lo:sub_hi - lo] = np.bincount(
            ridx, minlength=sub_hi - sub)[:sub_hi - sub]
    return counts


def _round_extract_task(ctx, task):
    """One rank's send lists for one exchange round (spill engine).

    ``task = (r0, r1, skip, take)``: extract the seeds of reads
    ``[r0, r1)``, drop the first ``skip`` (they belong to earlier rounds)
    and keep ``take``.  Because seed extraction is read-major and
    :func:`~repro.seqs.kmers.splitmix64` is elementwise, slicing the
    re-extracted stream is byte-identical to slicing the resident
    counter's one-shot extraction — same keys, same destinations, same
    stable-sorted per-destination subarrays, hence the same alltoallv
    traffic.
    """
    scheme, reads, nprocs = ctx
    r0, r1, skip, take = task
    keys = scheme.seeds_of_block(*reads.soa_block(r0, r1))[0]
    keys = keys[skip:skip + take]
    dl = (splitmix64(keys) % np.uint64(nprocs)).astype(np.int64)
    return _group_by_dest_sorted(keys, dl, nprocs)


def _round_hist_task(ctx, incoming):
    """One owner rank's ``(distinct key, count)`` histogram of a round."""
    if incoming.size == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    uniq, cnt = np.unique(incoming, return_counts=True)
    return uniq, cnt.astype(np.int64)


def _reliable_spill_task(ctx, runs):
    """Reliable selection at one owner rank from its spill runs.

    A chunked k-way merge-sum of the rank's sorted runs yields the exact
    per-key totals in bounded memory; the ``[lower, upper]`` filter over
    them is the rank's reliable set (see :func:`table_from_histogram` for
    why that equals the two-pass Bloom-admitted tables when
    ``lower >= 2``).
    """
    lower, upper, chunk_items = ctx
    kparts: list[np.ndarray] = []
    cparts: list[np.ndarray] = []
    for keys, counts in merge_pair_runs(runs, chunk_items=chunk_items):
        keep = (counts >= lower) & (counts <= upper)
        if keep.any():
            kparts.append(keys[keep])
            cparts.append(counts[keep])
    if not kparts:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    return np.concatenate(kparts), np.concatenate(cparts)


def kmer_histogram(reads: ReadSet, k: int,
                   scheme: SeedScheme | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Exact global ``(keys, counts)`` histogram of canonical seed k-mers.

    One vectorized sweep over the whole read set; keys come back sorted
    ascending.  This is the *mergeable* form of the counting state the
    incremental service keeps per version: unlike the Bloom-filtered
    two-pass tables (whose admission decisions depend on how occurrences
    were batched), exact histograms of two read batches combine losslessly
    with :func:`merge_histograms`, and the reliable table is a pure filter
    of the merged histogram (:func:`table_from_histogram`).  Both
    properties hold for any :class:`~repro.seqs.seeding.SeedScheme` —
    schemes are pure per-read functions, so the seed multiset of a batch
    union is the union of the batches' seed multisets.
    """
    scheme = scheme if scheme is not None else FullKScheme(k)
    canon = scheme.seeds_of_block(*reads.soa())[0]
    if canon.size == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    keys, counts = np.unique(canon, return_counts=True)
    return keys, counts.astype(np.int64)


def merge_histograms(keys: np.ndarray, counts: np.ndarray,
                     new_keys: np.ndarray, new_counts: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted k-mer histograms: shared keys add, fresh keys splice.

    The PR-5 sorted-SoA merge (:func:`_merge_admitted`'s splice) extended
    with count accumulation: membership is one ``searchsorted``, present
    keys accumulate in place, absent keys are inserted at their sorted
    positions — the output stays sorted without a re-sort.  Returns new
    arrays; the inputs are never mutated (older service versions keep
    aliasing theirs).
    """
    if new_keys.size == 0:
        return keys, counts
    if keys.shape[0] == 0:
        return new_keys.copy(), new_counts.copy()
    idx = np.searchsorted(keys, new_keys)
    present = np.zeros(new_keys.shape[0], dtype=bool)
    inb = idx < keys.shape[0]
    present[inb] = keys[idx[inb]] == new_keys[inb]
    merged_counts = counts.copy()
    np.add.at(merged_counts, idx[present], new_counts[present])
    fresh = ~present
    if not fresh.any():
        return keys, merged_counts
    return (np.insert(keys, idx[fresh], new_keys[fresh]),
            np.insert(merged_counts, idx[fresh], new_counts[fresh]))


def table_from_histogram(keys: np.ndarray, counts: np.ndarray, k: int,
                         lower: int = 2, upper: int = 8) -> "KmerTable":
    """Reliable-k-mer table as a filter of an exact histogram.

    Byte-identical to :func:`count_kmers` on the same reads: the two-pass
    counter admits every key occurring at least twice (the Bloom filter's
    false positives only ever *add* singletons, which the ``lower`` bound
    then discards) and counts admitted keys exactly, so its final table is
    precisely ``{key: lower <= count <= upper}`` of the true histogram.
    """
    keep = (counts >= lower) & (counts <= upper)
    return KmerTable(k=k, kmers=keys[keep].copy(),
                     counts=counts[keep].copy(), lower=lower, upper=upper)


@dataclass
class KmerTable:
    """Result of distributed counting: the reliable k-mer dictionary.

    ``kmers`` is sorted ascending (packed canonical ``uint64``), so the
    global column id of a k-mer is its index — lookups are
    ``np.searchsorted``.  ``counts`` holds the total multiplicities.
    """

    k: int
    kmers: np.ndarray
    counts: np.ndarray
    lower: int
    upper: int

    def __len__(self) -> int:
        return int(self.kmers.shape[0])

    def lookup(self, kmers: np.ndarray) -> np.ndarray:
        """Column ids for the given packed k-mers; -1 if not reliable."""
        idx = np.searchsorted(self.kmers, kmers)
        idx = np.minimum(idx, len(self) - 1) if len(self) else np.zeros_like(idx)
        ok = (len(self) > 0) & (self.kmers[idx] == kmers) if len(self) else \
            np.zeros(kmers.shape[0], dtype=bool)
        return np.where(ok, idx, -1)


def reliable_upper_bound(depth: float, error_rate: float, k: int,
                         quantile: float = 0.998) -> int:
    """BELLA-style maximum reliable k-mer multiplicity.

    Mean multiplicity of a correct, unique-locus k-mer is
    ``μ = depth · (1 - e)^k``; the upper cutoff is the ``quantile`` point of
    ``Poisson(μ)`` plus one, and never below 4 (the floor the paper's runs
    effectively used).
    """
    mu = depth * (1.0 - error_rate) ** k
    upper = int(stats.poisson.ppf(quantile, mu))
    return max(4, upper)


def count_kmers(reads: ReadSet, k: int, comm: SimComm,
                timer: StageTimer | None = None, *,
                batches: int = 1, bloom_fp: float = 0.01,
                lower: int = 2, upper: int = 8,
                executor: Executor | None = None,
                scheme: SeedScheme | None = None,
                table_budget: int | None = None,
                spill_dir: str | None = None) -> KmerTable:
    """Distributed two-pass k-mer counting.

    Parameters
    ----------
    reads:
        The full read set (rank ``p`` processes its balanced block slice).
    k:
        K-mer length.
    comm:
        Simulated communicator (traffic charged to stage ``"CountKmer"``).
    timer:
        Optional stage timer (per-rank compute, max-reduced per superstep).
    batches:
        Number of exchange rounds per pass (``b`` in Table I's ``Y = bP``).
    bloom_fp:
        Bloom filter false-positive target.
    lower, upper:
        Reliable multiplicity range (inclusive); compute ``upper`` with
        :func:`reliable_upper_bound` for dataset-driven values.
    executor:
        :class:`~repro.exec.Executor` spreading each superstep's per-rank
        work (extraction, Bloom handling, counting, selection) over real
        workers; ``None`` runs them serially.  The resulting table is
        byte-identical either way.
    scheme:
        :class:`~repro.seqs.seeding.SeedScheme` choosing which windows of
        each read are counted; ``None`` keeps the full-k default (every
        window — the paper's behavior, byte-identical to the historical
        hardwired path).
    table_budget:
        Optional byte ceiling for the resident per-rank tables.  When set
        (and ``lower >= 2``), counting runs the out-of-core engine: each
        rank buffers per-round histograms up to its ``table_budget / P``
        share, spills them to sorted disk runs, and k-way merges the runs
        at reliable-selection time — byte-identical table and
        communication records, bounded memory.  ``lower < 2`` ignores the
        budget and stays resident: below 2 the Bloom admission is not a
        pure histogram filter.
    spill_dir:
        Directory under which the spill runs' temporary directory is
        created (``None`` = the system temp dir).  Always removed on exit.

    Returns
    -------
    KmerTable
        The sorted reliable k-mer dictionary with counts.
    """
    P = comm.nprocs
    timer = timer if timer is not None else StageTimer()
    executor = executor if executor is not None else SERIAL
    scheme = scheme if scheme is not None else FullKScheme(k)
    if table_budget is not None and lower >= 2:
        return _count_kmers_spill(
            reads, k, comm, timer, batches=batches, lower=lower,
            upper=upper, executor=executor, scheme=scheme,
            table_budget=table_budget, spill_dir=spill_dir)
    bounds = block_bounds(len(reads), P)

    # Extract (canonical) seed k-mers per rank once; reused by both passes.
    spans = [(int(bounds[p]), int(bounds[p + 1])) for p in range(P)]
    pre = np.concatenate(([0], np.cumsum(reads.lengths)))
    with timer.superstep(STAGE) as step:
        rank_kmers, secs = executor.run_timed(
            _extract_task, spans, context=(scheme, reads),
            weights=[int(pre[hi] - pre[lo]) for lo, hi in spans])
        step.charge_many(range(P), secs)

    dest = [(splitmix64(km) % np.uint64(P)).astype(np.int64)
            for km in rank_kmers]

    total_kmers = sum(km.shape[0] for km in rank_kmers)
    blooms = [BloomFilter(max(64, total_kmers // max(1, P)), bloom_fp)
              for _ in range(P)]

    # Each round's send lists are built once and replayed in pass 2 (both
    # passes ship exactly the same k-mers to the same owners).  The cache
    # holds one dest-grouped copy of the extracted k-mers (~8 bytes each)
    # across the stage — the price of skipping pass 2's regrouping sort.
    send_cache: dict[int, list[list[np.ndarray]]] = {}

    def exchange_rounds(run_round, *, need_incoming: bool = True) -> None:
        """One pass = ``batches`` alltoallv rounds + local handling."""
        for b in range(batches):
            send = send_cache.get(b)
            if send is None:
                send = []
                for p in range(P):
                    km = rank_kmers[p]
                    n = km.shape[0]
                    lo, hi = (n * b) // batches, (n * (b + 1)) // batches
                    send.append(_group_by_dest_sorted(km[lo:hi],
                                                      dest[p][lo:hi], P))
                send_cache[b] = send
            recv = comm.alltoallv(send, stage=STAGE)
            incoming = [np.concatenate(recv[q]) if recv[q] else
                        np.empty(0, np.uint64) for q in range(P)] \
                if need_incoming else None
            run_round(b, incoming)

    def run_superstep(fn, tasks, weights):
        """One executor superstep charged to the owner ranks."""
        with timer.superstep(STAGE) as step:
            out, secs = executor.run_timed(fn, tasks, weights=weights)
            step.charge_many(range(P), secs)
        return out

    # Sorted-array SoA admission/count tables: setdefault is a merge,
    # accumulation a vectorized scatter-add — maintained incrementally
    # sorted, so no pass ever re-materializes key arrays.  Each round's
    # (distinct key, count) histogram from pass 1 is kept for pass 2.
    tab_keys = [np.empty(0, np.uint64) for _ in range(P)]
    tab_counts = [np.empty(0, np.int64) for _ in range(P)]
    histograms: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    def pass1(b: int, incoming: list[np.ndarray]) -> None:
        out = run_superstep(
            _pass1_task,
            [(blooms[q], incoming[q]) for q in range(P)],
            [inc.shape[0] for inc in incoming])
        histograms[b] = []
        for q, (bloom, admitted_q, uniq, cnt) in enumerate(out):
            blooms[q] = bloom
            histograms[b].append((uniq, cnt))
            tab_keys[q], tab_counts[q] = _merge_admitted(
                tab_keys[q], tab_counts[q], admitted_q)

    def pass2(b: int, incoming) -> None:
        hist = histograms[b]
        out = run_superstep(
            _pass2_task,
            [(tab_keys[q],) + hist[q] for q in range(P)],
            [hist[q][0].shape[0] for q in range(P)])
        for q, (hit_keys, cnt) in enumerate(out):
            if hit_keys.size:
                # hit_keys are unique within a round, so a plain fancy
                # add accumulates exactly once per key.
                tab_counts[q][np.searchsorted(tab_keys[q], hit_keys)] += cnt

    exchange_rounds(pass1)
    exchange_rounds(pass2, need_incoming=False)

    # Reliable selection + global dictionary assembly (an allgather of the
    # per-rank reliable sets; column ids are the sorted order).
    with timer.superstep(STAGE) as step:
        rel_parts, secs = executor.run_timed(
            _reliable_task, list(zip(tab_keys, tab_counts)),
            context=(lower, upper),
            weights=[kk.shape[0] for kk in tab_keys])
        step.charge_many(range(P), secs)
    comm.allgather([p[0] for p in rel_parts], stage=STAGE)
    all_k = np.concatenate([p[0] for p in rel_parts])
    all_c = np.concatenate([p[1] for p in rel_parts])
    order = np.argsort(all_k)
    return KmerTable(k=k, kmers=all_k[order], counts=all_c[order],
                     lower=lower, upper=upper)


def _count_kmers_spill(reads: ReadSet, k: int, comm: SimComm,
                       timer: StageTimer, *, batches: int, lower: int,
                       upper: int, executor: Executor, scheme: SeedScheme,
                       table_budget: int, spill_dir: str | None
                       ) -> KmerTable:
    """Out-of-core counting: spillable sorted-run tables, exact output.

    The resident counter holds three table-shaped giants: the full
    extracted seed stream, the cached per-round send lists, and the
    per-rank admission/count tables.  This engine bounds all three at a
    ``table_budget`` while producing the *identical* :class:`KmerTable`
    and the *identical* communication records:

    1. **Counting sweep** — per-read seed counts (bounded sub-blocks)
       give each rank a prefix array over its seed stream, so any round's
       slice ``[(n·b)/batches, (n·(b+1))/batches)`` maps to a read range
       plus skip/take offsets.
    2. **Pass 1, per round** — re-extract exactly that slice, hash and
       stable-group by owner (byte-identical send lists to the resident
       counter, see :func:`_round_extract_task`), exchange, and reduce each
       owner's incoming to its ``(distinct key, count)`` histogram.
       Owners buffer histograms up to their ``table_budget / P`` share,
       then merge-sum and flush a sorted run to disk
       (:func:`~repro.seqs.spill.write_pair_run`).
    3. **Pass 2** — the two-pass protocol's second exchange ships the
       same k-mers to the same owners, so its traffic is replayed from
       the recorded round sizes with placeholder payloads: the simulated
       communicator charges bytes and message counts from array sizes
       only, making the replayed accounting byte-identical while the
       placeholder pages are never even touched.
    4. **Reliable selection** — each rank k-way merge-sums its runs in
       bounded chunks and keeps keys with total count in
       ``[lower, upper]``.  For ``lower >= 2`` this is exactly the
       Bloom-admitted two-pass table (:func:`table_from_histogram`'s
       argument: admission only ever adds singletons beyond the
       ``count >= 2`` keys, and those fall to the lower bound), so no
       admission state needs to exist at all.

    The trade is one extra extraction sweep (the counting pass) for a
    resident footprint that no longer scales with the table size — the
    out-of-core half of the ROADMAP's "inputs ≫ RAM" item.
    """
    P = comm.nprocs
    bounds = block_bounds(len(reads), P)
    spans = [(int(bounds[p]), int(bounds[p + 1])) for p in range(P)]

    with timer.superstep(STAGE) as step:
        counts_out, secs = executor.run_timed(
            _seed_count_task, spans, context=(scheme, reads),
            weights=[hi - lo for lo, hi in spans])
        step.charge_many(range(P), secs)
    kcs = [np.concatenate(([0], np.cumsum(c))) for c in counts_out]

    share = max(1, int(table_budget) // P)
    if spill_dir is not None:
        os.makedirs(spill_dir, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="repro-kmer-spill-", dir=spill_dir)
    try:
        runs: list[list] = [[] for _ in range(P)]
        buffers: list[list] = [[] for _ in range(P)]
        live = [0] * P

        def flush(q: int) -> None:
            if not buffers[q]:
                return
            uniq, cnt = combine_histograms(buffers[q])
            path = os.path.join(tmpdir,
                                f"rank{q:03d}_run{len(runs[q]):04d}.bin")
            runs[q].append(write_pair_run(path, uniq, cnt))
            buffers[q].clear()
            live[q] = 0

        # Pass 1: extract-exchange-histogram one round at a time.
        sizes: list[list[list[int]]] = []
        for b in range(batches):
            tasks = []
            for p in range(P):
                kc = kcs[p]
                n = int(kc[-1])
                lo, hi = (n * b) // batches, (n * (b + 1)) // batches
                r0 = int(np.searchsorted(kc, lo, side="right")) - 1
                r1 = int(np.searchsorted(kc, hi, side="left"))
                tasks.append((spans[p][0] + r0, spans[p][0] + r1,
                              lo - int(kc[r0]), hi - lo))
            with timer.superstep(STAGE) as step:
                send, secs = executor.run_timed(
                    _round_extract_task, tasks, context=(scheme, reads, P),
                    weights=[t[3] for t in tasks])
                step.charge_many(range(P), secs)
            sizes.append([[int(arr.shape[0]) for arr in send[p]]
                          for p in range(P)])
            recv = comm.alltoallv(send, stage=STAGE)
            incoming = [np.concatenate(recv[q]) if recv[q] else
                        np.empty(0, np.uint64) for q in range(P)]
            with timer.superstep(STAGE) as step:
                hists, secs = executor.run_timed(
                    _round_hist_task, incoming,
                    weights=[inc.shape[0] for inc in incoming])
                step.charge_many(range(P), secs)
            for q, (uniq, cnt) in enumerate(hists):
                if uniq.shape[0] == 0:
                    continue
                buffers[q].append((uniq, cnt))
                live[q] += uniq.nbytes + cnt.nbytes
                if live[q] >= share:
                    flush(q)
        for q in range(P):
            flush(q)

        # Pass 2: replay the second exchange's traffic from the recorded
        # sizes.  The payload of a size-matched placeholder is never read
        # (pass 2 exists for the protocol's communication cost), so the
        # accounting is identical without re-extracting anything.
        for b in range(batches):
            send = [[np.empty(sizes[b][p][q], np.uint64)
                     for q in range(P)] for p in range(P)]
            comm.alltoallv(send, stage=STAGE)

        with timer.superstep(STAGE) as step:
            rel_parts, secs = executor.run_timed(
                _reliable_spill_task, runs,
                context=(lower, upper, 1 << 16),
                weights=[sum(r.n for r in rq) for rq in runs])
            step.charge_many(range(P), secs)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    comm.allgather([p[0] for p in rel_parts], stage=STAGE)
    all_k = np.concatenate([p[0] for p in rel_parts])
    all_c = np.concatenate([p[1] for p in rel_parts])
    order = np.argsort(all_k)
    return KmerTable(k=k, kmers=all_k[order], counts=all_c[order],
                     lower=lower, upper=upper)
