"""Span tracer that wraps the program's layer entry points from outside.

The benchmark's traced run replaces a fixed list of module (and class)
attributes — the names the program looks up at call time, such as
``repro.core.pipeline.count_kmers`` — with thin wrappers that record one
span per call: name, start, end and the index of the enclosing span.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` restores every
attribute.  Spans stay in memory and are written out once, when the run
ends (:meth:`Tracer.dump`).

Each wrapper also times its own bookkeeping (the work it does before and
after calling through), so the tracer's cost is measured directly rather
than inferred from a noisy traced-vs-untraced difference.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

#: (owner, attribute, span name).  ``owner`` is a module path, optionally
#: followed by ``:Class`` for a method.  Several attributes may share a span
#: name when the program reaches one layer function through several import
#: sites (pipeline, blocked strips, service refresh).
TARGETS = [
    # seqs: FASTA/read-store ingest, k-mer counting, spilled runs
    ("repro.core.pipeline", "read_fasta", "seqs.read_fasta"),
    ("repro.core.pipeline", "read_fasta_to_store", "seqs.read_fasta"),
    ("repro.core.pipeline", "count_kmers", "seqs.count_kmers"),
    ("repro.seqs.kmer_counter", "write_pair_run", "seqs.spill_write"),
    ("repro.service.incremental", "kmer_histogram", "seqs.kmer_histogram"),
    # core.overlap: A build, C = A·Aᵀ, read exchange, alignment driver
    ("repro.core.pipeline", "build_a_matrix", "overlap.build_a_matrix"),
    ("repro.core.pipeline", "exchange_reads", "overlap.exchange_reads"),
    ("repro.service.incremental", "exchange_reads", "overlap.exchange_reads"),
    ("repro.core.pipeline", "candidate_overlaps",
     "overlap.candidate_overlaps"),
    ("repro.core.pipeline", "align_candidates", "overlap.align_candidates"),
    ("repro.core.blocked", "align_candidates", "overlap.align_candidates"),
    ("repro.service.incremental", "align_candidates",
     "overlap.align_candidates"),
    # align: the batched kernels the alignment driver calls
    ("repro.core.overlap", "extend_seeds_xdrop_batch", "align.xdrop_extend"),
    ("repro.core.overlap", "chain_extend_batch", "align.chain_extend"),
    # dsparse: Sparse SUMMA from every caller
    ("repro.core.overlap", "summa", "dsparse.summa"),
    ("repro.core.transitive_reduction", "summa", "dsparse.summa"),
    ("repro.service.incremental", "summa", "dsparse.summa"),
    # core.blocked: the strip-mined candidate loop
    ("repro.core.pipeline", "candidate_overlaps_blocked", "blocked.overlaps"),
    # core.transitive_reduction
    ("repro.core.pipeline", "transitive_reduction", "tr.transitive_reduction"),
    ("repro.service.incremental", "transitive_reduction",
     "tr.transitive_reduction"),
    # exec: every executor map, and every retry it schedules
    ("repro.exec.executor:SerialExecutor", "run_timed", "exec.run"),
    ("repro.exec.executor:_PoolExecutor", "run_timed", "exec.run"),
    ("repro.exec.executor:Executor", "_backoff", "exec.retry"),
    # service: one refresh per ingest
    ("repro.service.server", "refresh", "service.refresh"),
]


def _count_tasks(args, kwargs, _out) -> dict[str, int]:
    tasks = args[2] if len(args) > 2 else kwargs.get("tasks", ())
    return {"exec.tasks": len(tasks)}


def _count_strips(_args, _kwargs, out) -> dict[str, int]:
    return {"blocked.n_strips": int(out.n_strips)}


#: Span name -> hook turning a call's arguments and result into counts.
COUNTERS = {"exec.run": _count_tasks, "blocked.overlaps": _count_strips}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory spans plus counts, keyed to the innermost open span."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent]`` per span; ``parent`` is an index
        #: into this list or ``-1`` for a root.
        self.spans: list[list] = []
        #: Per-span counts recorded by :data:`COUNTERS` hooks.
        self.counts: dict[int, dict[str, int]] = {}
        #: Seconds spent in the wrappers' own bookkeeping.
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of "
                               f"order (innermost is "
                               f"{self.spans[popped][0]!r})")

    def _wrap(self, fn, name: str):
        tracer = self
        hook = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                tracer.counts[idx] = hook(args, kwargs, out)
            span = tracer.spans[idx]
            tracer.overhead_s += (span[1] - t0) + \
                (time.perf_counter() - span[2])
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            obj = _resolve(owner)
            # The owner's own attribute, never one inherited from a base:
            # uninstall must restore exactly what was there.
            orig = vars(obj)[attr]
            setattr(obj, attr, self._wrap(orig, name))
            self._undo.append((obj, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # -- analysis ----------------------------------------------------------
    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            kids[span[3]].append(i)
        return kids

    def breakdown(self, root: int) -> dict[str, dict[str, float]]:
        """Per span name under ``root``: calls, inclusive and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; the program's traced calls run one at a time in this
        process, so children never overlap each other.  Inclusive time
        counts a span only when no enclosing span has the same name
        (executor maps nest inside strip tasks), so it never exceeds the
        wall time it covers.
        """
        kids = self.children()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        todo = [(i, frozenset()) for i in kids.get(root, ())]
        while todo:
            i, outer = todo.pop()
            name, start, end, _ = self.spans[i]
            dur = end - start
            child_s = sum(self.spans[c][2] - self.spans[c][1]
                          for c in kids.get(i, ()))
            rec = out[name]
            rec["calls"] += 1
            rec["s"] += 0.0 if name in outer else dur
            rec["self_s"] += dur - child_s
            for key, val in self.counts.get(i, {}).items():
                rec[key] = rec.get(key, 0) + val
            todo.extend((c, outer | {name}) for c in kids.get(i, ()))
        return dict(out)

    def top_level_s(self, root: int) -> float:
        """Summed duration of ``root``'s direct children."""
        return sum(self.spans[c][2] - self.spans[c][1]
                   for c in self.children().get(root, ()))

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start": round(start - t_base, 9),
                    "end": round(end - t_base, 9),
                    **self.counts.get(i, {})}) + "\n")
