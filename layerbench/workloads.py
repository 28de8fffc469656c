"""The four workloads: how each builds its inputs from a seed and runs.

Every workload fixes its genome and its read layout (positions, strands,
lengths); the ``--seed`` argument drives the part of the input a sequencer
would vary run to run: the sequencing errors for the three batch workloads,
and for the error-free ``service-stream`` the order in which the streamed
reads arrive plus the query plan.  One seed always yields the same inputs,
and the amount of work stays close across seeds, so the run-to-run spread
measures the host and the program rather than the draw.  The program only
ever sees the generated reads.

A workload runs *operations* until its time is spent: a whole assembly for
the three batch workloads, one ingest into a live service for
``service-stream``.  Each operation is timed on its own and its output is
checked; a wrong output or an exception is a failed operation.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import (PipelineConfig, run_pipeline,
                                 run_pipeline_from_fasta)
from repro.seqs import (ErrorModel, GenomeSpec, ReadSet, ReadSimSpec,
                        simulate_reads, write_fasta)
from repro.seqs.dna import decode
from repro.seqs.simulator import _apply_errors
from repro.service import ServiceConfig
from repro.service.server import AssemblyService


@dataclass(frozen=True)
class ReadSpec:
    genome_length: int
    genome_seed: int
    read_seed: int
    depth: int
    mean_len: int
    min_len: int
    error: float

    def simulate(self, seed: int) -> ReadSet:
        """Fixed error-free reads, then errors drawn from ``seed``."""
        _genome, reads, _layout = simulate_reads(ReadSimSpec(
            GenomeSpec(length=self.genome_length, seed=self.genome_seed),
            depth=self.depth, mean_len=self.mean_len, min_len=self.min_len,
            error=ErrorModel(rate=0.0), seed=self.read_seed))
        if self.error == 0.0:
            return reads
        model = ErrorModel(rate=self.error)
        rng = np.random.default_rng(seed)
        return ReadSet(list(reads.names),
                       [_apply_errors(s, model, rng) for s in reads.seqs])


@dataclass
class Op:
    """One timed operation: wall seconds, input bases, pass/fail."""

    seconds: float
    bases: int
    ok: bool
    #: Index of the operation's root span in the tracer (traced runs).
    span: int = -1


@dataclass
class Outcome:
    """What a workload's timed region produced, for metrics and checks."""

    ops: list[Op] = field(default_factory=list)
    #: Operations that are not assemblies (service queries): seconds each.
    queries: list[float] = field(default_factory=list)
    queries_failed: int = 0
    #: Single-sample latencies (the service bootstrap load), seconds.
    bootstrap: list[float] = field(default_factory=list)
    #: Exact counts of the first operation (first session for the service).
    counts: dict[str, float] = field(default_factory=dict)
    #: Per-stage communication totals of the first operation.
    comm: dict[str, dict[str, float]] = field(default_factory=dict)
    #: The pipeline's own counters of the first session's final state.
    final_counts: dict[str, int] = field(default_factory=dict)
    #: (S digest, R digest) of the first operation's output.
    digest: tuple[str, str] | None = None
    errors: list[str] = field(default_factory=list)


def digest_of(S, R) -> tuple[str, str]:
    out = []
    for M in (S, R):
        h = hashlib.sha256()
        for arr in (M.row, M.col, M.vals):
            h.update(np.ascontiguousarray(arr).tobytes())
        out.append(h.hexdigest())
    return out[0], out[1]


def _counts(n_kmers, nnz_a, nnz_c, nnz_r, nnz_s, rounds) -> dict:
    return {"seqs.n_kmers": n_kmers, "overlap.nnz_a": nnz_a,
            "overlap.nnz_c": nnz_c, "overlap.nnz_r": nnz_r,
            "tr.nnz_s": nnz_s, "tr.rounds": rounds,
            # R holds both directions of each surviving candidate pair.
            "overlap.candidate_yield": nnz_r / 2 / max(1, nnz_c),
            "tr.removed_frac": 1.0 - nnz_s / max(1, nnz_r)}


def _comm(tracker) -> dict:
    return {stage: {"bytes": rec["total_bytes"],
                    "messages": rec["total_messages"]}
            for stage, rec in tracker.summary().items()}


def structure_errors(S, R) -> list[str]:
    """Invariants the program promises for any input.

    R holds every surviving overlap in both directions, so its pattern is
    symmetric; S is R with transitive edges removed, so its pattern lies
    inside R's.  (S itself need not be symmetric: the reduction tests each
    direction against its own suffix lengths.)
    """
    errors = []
    n = max(R.shape[0], 1)
    s_keys = S.row.astype(np.int64) * n + S.col
    r_keys = R.row.astype(np.int64) * n + R.col
    if S.nnz == 0:
        errors.append("S is empty")
    if not np.isin(s_keys, r_keys).all():
        errors.append("S has an edge that is not in R")
    if not np.array_equal(np.sort(r_keys),
                          np.sort(R.col.astype(np.int64) * n + R.row)):
        errors.append("R is not symmetric")
    return errors


def _keep_going(elapsed: float, last: float, seconds: float) -> bool:
    """Start another operation only if it ends nearer the budget than not."""
    return elapsed + last / 2.0 < seconds


class BatchWorkload:
    """Repeated whole assemblies of one fixed read set."""

    #: Operations per session: the unit whose counts must repeat exactly.
    session_ops = 1

    def __init__(self, name: str, reads: ReadSpec, config: dict,
                 from_fasta: bool = False) -> None:
        self.name = name
        self.read_spec = reads
        self.config = config
        self.from_fasta = from_fasta

    def setup(self, seed: int, workdir: str):
        reads = self.read_spec.simulate(seed)
        reads.soa()
        bases = int(reads.total_bases())
        if not self.from_fasta:
            return reads, bases
        fasta = os.path.join(workdir, "reads.fa")
        write_fasta(fasta, reads)
        return fasta, bases

    def _assemble(self, data, workdir: str, i: int):
        if not self.from_fasta:
            return run_pipeline(data, PipelineConfig(**self.config))
        store = os.path.join(workdir, f"store-{i}")
        return run_pipeline_from_fasta(
            data, PipelineConfig(store_dir=store, **self.config))

    def run(self, inputs, seconds: float, workdir: str, tracer=None,
            expected: tuple[str, str] | None = None) -> Outcome:
        data, bases = inputs
        out = Outcome()
        t_start = time.perf_counter()
        while not out.ops or _keep_going(time.perf_counter() - t_start,
                                         out.ops[-1].seconds, seconds):
            i = len(out.ops)
            span = tracer.open("run.assemble") if tracer else -1
            t0 = time.perf_counter()
            try:
                result = self._assemble(data, workdir, i)
            except Exception as exc:  # a failed operation, not a crash
                result = None
                out.errors.append(f"assembly {i}: {exc!r}")
            wall = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
            ok = result is not None
            if ok:
                dig = digest_of(result.S, result.R)
                if out.digest is None:
                    out.digest = dig
                    out.counts = _counts(result.n_kmers, result.nnz_a,
                                         result.nnz_c, result.nnz_r,
                                         result.nnz_s, result.tr_rounds)
                    out.comm = _comm(result.tracker)
                    errs = structure_errors(result.S, result.R)
                    if expected is not None and dig != expected:
                        errs.append("S/R digest differs from the recorded "
                                    "digest for this seed")
                    out.errors.extend(f"assembly {i}: {e}" for e in errs)
                    ok = not errs
                elif dig != out.digest:
                    out.errors.append(f"assembly {i}: output differs from "
                                      f"assembly 0 on the same input")
                    ok = False
            out.ops.append(Op(wall, bases, ok, span))
            if self.from_fasta:
                shutil.rmtree(os.path.join(workdir, f"store-{i}"),
                              ignore_errors=True)
        return out


#: Share of the reads the service's first ingest loads in bulk: the
#: ``INITIAL_FRACTION`` of ``benchmarks/bench_service.py``, whose data set
#: this workload uses.  The remaining reads (58 of its 289) stream in.
BULK_FRACTION = 0.8
#: Reads per delta ingest.  One read each turns the 58 streamed reads into
#: 58 ingests of equal size, more than the 40 the workload needs for a
#: latency population (``bench_service`` itself sends 6 ingests of ~10).
DELTA_READS = 1
#: The queries after each ingest.  Nothing in the repository records client
#: traffic, so this mix is an assumption, and the cache figures it yields
#: describe it rather than observed traffic: ``QUERY_BURST`` overlaps(read)
#: queries drawn from ``HOT_READS`` reads, so that repeats hit the cache,
#: then one contigs() query.
QUERY_BURST = 32
HOT_READS = 8


class ServiceWorkload:
    """A closed-loop, in-process client of one :class:`AssemblyService`.

    A session bulk-loads the first ``BULK_FRACTION`` of the reads, then
    streams the rest as ingests of ``DELTA_READS`` reads each (equal sizes,
    so the ingest latencies form one population).  After every ingest the
    client sends the assumed query mix above, each query awaited before the
    next.  Sessions repeat, each on a fresh service, until the time is
    spent.
    """

    name = "service-stream"

    def __init__(self, reads: ReadSpec, pipeline: dict) -> None:
        self.read_spec = reads
        self.pipeline = pipeline
        #: Delta ingests per session, known once the reads are built.
        self.session_ops = 0

    def setup(self, seed: int, workdir: str):
        reads = self.read_spec.simulate(seed)
        rng = np.random.default_rng(seed)
        bulk = round(BULK_FRACTION * len(reads))
        order = np.concatenate([np.arange(bulk),
                                bulk + rng.permutation(len(reads) - bulk)])
        reads = reads.subset(order)
        names = list(reads.names)
        seqs = [decode(s) for s in reads.seqs]
        cuts = [0] + list(range(bulk, len(names) + 1, DELTA_READS))
        self.session_ops = len(cuts) - 2
        bursts = []
        for hi in cuts[1:]:
            hot = rng.integers(0, hi, HOT_READS)
            bursts.append(
                hot[rng.integers(0, HOT_READS, QUERY_BURST)].tolist())
        return reads, names, seqs, cuts, bursts

    def _config(self) -> ServiceConfig:
        return ServiceConfig(refresh_mode="incremental",
                             pipeline=PipelineConfig(**self.pipeline))

    def _session(self, inputs, out: Outcome, tracer, first: bool) -> None:
        _reads, names, seqs, cuts, bursts = inputs
        svc = AssemblyService(self._config(), fault_spec="")
        for b, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            span = tracer.open("service.ingest") if tracer and b else -1
            t0 = time.perf_counter()
            try:
                svc.ingest(names[lo:hi], seqs[lo:hi])
                ok = True
            except Exception as exc:  # a failed operation, not a crash
                ok = False
                out.errors.append(f"ingest {b}: {exc!r}")
            wall = time.perf_counter() - t0
            if span >= 0:
                tracer.close(span)
            if b == 0:
                out.bootstrap.append(wall)
                if not ok:
                    out.ops.append(Op(wall, 0, False))
            else:
                bases = sum(len(s) for s in seqs[lo:hi])
                out.ops.append(Op(wall, bases, ok, span))
            version = b + 1
            for read in bursts[b]:
                out.queries_failed += not self._query(
                    out, lambda: svc.overlaps(read), version)
            out.queries_failed += not self._query(out, svc.contigs, version)
        state = svc.store.current()
        digest = digest_of(state.S, state.R)
        if first:
            out.digest = digest
            c = state.counts
            out.counts = _counts(c["n_kmers"], c["nnz_a"], c["nnz_c"],
                                 c["nnz_r"], c["nnz_s"], c["tr_rounds"])
            cache = svc.cache.stats()
            out.counts["service.cache.hits"] = cache["hits"]
            out.counts["service.cache.misses"] = cache["misses"]
            out.comm = _comm(state.tracker)
            out.final_counts = dict(c)
        elif digest != out.digest:
            out.errors.append("a session's final state differs from the "
                              "first session's")
            out.ops[-1].ok = False

    @staticmethod
    def _query(out: Outcome, call, version: int) -> bool:
        t0 = time.perf_counter()
        try:
            reply = call()
        except Exception:  # counted as a failed query
            reply = None
        out.queries.append(time.perf_counter() - t0)
        return reply is not None and reply["version"] == version

    def run(self, inputs, seconds: float, workdir: str, tracer=None,
            expected=None) -> Outcome:
        out = Outcome()
        t_start = time.perf_counter()
        last = 0.0
        first = True
        while first or _keep_going(time.perf_counter() - t_start, last,
                                   seconds):
            t0 = time.perf_counter()
            self._session(inputs, out, tracer, first)
            last = time.perf_counter() - t0
            first = False
        return out

    def verify(self, inputs, out: Outcome) -> None:
        """Final state against a one-shot run on all reads (untimed)."""
        reads = inputs[0]
        ref = run_pipeline(reads, PipelineConfig(
            overlap_mode="monolithic", read_store="inmem", **self.pipeline))
        if digest_of(ref.S, ref.R) != out.digest:
            out.errors.append("final service state differs from a one-shot "
                              "run_pipeline on the concatenated reads")
            out.ops[-1].ok = False
        ref_counts = {"n_reads": ref.n_reads, "n_kmers": ref.n_kmers,
                      "nnz_a": ref.nnz_a, "nnz_c": ref.nnz_c,
                      "nnz_r": ref.nnz_r, "nnz_s": ref.nnz_s,
                      "tr_rounds": ref.tr_rounds}
        if ref_counts != out.final_counts:
            out.errors.append("final service counts differ from the "
                              "one-shot run")
            out.ops[-1].ok = False


#: x-drop alignment of noisy CLR-like reads (the ``BENCH_pipeline`` set).
CLR_XDROP = BatchWorkload(
    "clr-xdrop",
    ReadSpec(genome_length=12_000, genome_seed=42, read_seed=1, depth=12,
             mean_len=800, min_len=400, error=0.05),
    dict(k=17, nprocs=4, align_mode="xdrop", depth_hint=12, error_hint=0.05,
         overlap_mode="monolithic", executor="serial", workers=1))

#: Repeat-dense long reads in chain mode, on two process workers: the only
#: workload that loads the executor pools.  The ``bench_seed_mode`` recipe
#: at 200 kb, where one assembly takes under 3 s, so a run's median covers
#: several assemblies.
REPEAT_CHAIN = BatchWorkload(
    "repeat-chain",
    ReadSpec(genome_length=200_000, genome_seed=7, read_seed=3, depth=8,
             mean_len=5_000, min_len=2_500, error=0.03),
    dict(k=13, nprocs=4, align_mode="chain", depth_hint=8, error_hint=0.03,
         seed_mode="full", overlap_mode="monolithic", executor="process",
         workers=2))

#: FASTA -> on-disk store, spilled k-mer runs, budget-driven strips.
BUDGET_OOC = BatchWorkload(
    "budget-ooc",
    ReadSpec(genome_length=480_000, genome_seed=17, read_seed=23, depth=6,
             mean_len=2_000, min_len=800, error=0.02),
    dict(k=17, nprocs=4, align_mode="chain", depth_hint=6, error_hint=0.02,
         fuzz=30, kmer_batches=8, kmer_upper=24, seed_mode="syncmer",
         seed_w=8, overlap_mode="blocked", memory_budget=1 << 20,
         read_store="mmap", executor="serial", workers=1),
    from_fasta=True)

#: Incremental refresh plus cached queries (the ``bench_service`` set).
SERVICE_STREAM = ServiceWorkload(
    ReadSpec(genome_length=60_000, genome_seed=42, read_seed=1, depth=12,
             mean_len=2_500, min_len=1_200, error=0.0),
    dict(k=17, nprocs=4, fuzz=150, executor="serial", workers=1))

WORKLOADS = {w.name: w for w in (CLR_XDROP, REPEAT_CHAIN, SERVICE_STREAM,
                                  BUDGET_OOC)}
