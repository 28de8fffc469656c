"""Shared-memory executors with deterministic ordered reduction.

The mpisim layer models *what a distributed run would cost*; this module
makes the simulated ranks' local work *actually run in parallel* on the
host's cores.  Every hot loop in the pipeline — SUMMA block multiplies,
candidate-pair x-drop alignments, per-rank k-mer hashing — is a list of
independent tasks, and an :class:`Executor` maps a function over such a
list:

* :class:`SerialExecutor` — the deterministic reference (and default): a
  plain in-order loop with zero overhead.
* :class:`ThreadExecutor` — a ``concurrent.futures`` thread pool; wins when
  the tasks spend their time in kernels that release the GIL (numpy/scipy,
  the compiled x-drop kernel).
* :class:`ProcessExecutor` — a fork-safe process pool for tasks that hold
  the GIL (the per-pair x-drop loop); chunks are pickled to workers,
  results shipped back.

All three share one contract, which is what makes ``--workers`` a pure
performance axis:

1. tasks are batched into weight-balanced **contiguous** chunks
   (:func:`~repro.exec.partition.weighted_chunks`), and
2. per-task results are concatenated back in task-list order — an ordered,
   deterministic reduction.

Because each task is independent and the reduction never reorders, the
result list is byte-identical across executors and worker counts; only
wall-clock changes.  Per-task CPU time is measured inside the worker and
returned alongside each result so callers can keep charging compute to the
owning simulated rank (:class:`~repro.mpisim.tracker.StageTimer`'s
critical-path max semantics survive parallel execution).

Failures are survived, not propagated wholesale: a worker exception or a
broken pool loses *chunks*, and the pool executors re-run exactly the lost
chunks (respawning a broken pool) under a bounded
:class:`~repro.resilience.retry.RetryPolicy`, degrading
process → thread → serial when a pool keeps breaking.  Because the
ordered reduction never moves a chunk's slot and every task is a pure
function, a run that survived any number of injected or real faults
returns byte-identical results.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import time
from concurrent.futures import (BrokenExecutor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from typing import Any, Callable

from ..resilience.faults import check_fault, trip
from ..resilience.retry import DEFAULT_RETRY, RetryPolicy
from .partition import weighted_chunks

__all__ = [
    "Executor", "SerialExecutor", "ThreadExecutor", "ProcessExecutor",
    "get_executor", "register_executor", "available_executors",
    "resolve_workers", "SERIAL", "DEFAULT_EXECUTOR", "WORKERS_ENV",
    "EXECUTOR_ENV", "CHUNK_FAULT_SITE",
]

log = logging.getLogger("repro.resilience")

#: Fault-injection site consulted once per chunk submission (the verdict
#: is decided in the parent and shipped with the chunk, so firing order
#: is deterministic even under process pools).
CHUNK_FAULT_SITE = "exec.chunk"

#: Name resolved by ``get_executor("auto", workers)`` when ``workers > 1``.
PARALLEL_DEFAULT = "process"

#: Name resolved by ``get_executor(None)`` (before env overrides).
DEFAULT_EXECUTOR = "auto"

#: Environment variables consulted by :func:`resolve_workers` /
#: :func:`get_executor` when the caller passes ``None``.
WORKERS_ENV = "REPRO_WORKERS"
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: Chunks submitted per worker — enough slack for uneven chunks to
#: rebalance across the pool without drowning in submission overhead
#: (each chunk re-pickles the shared context for a process pool, so this
#: also bounds how many times a big context crosses the pipe per call).
_CHUNKS_PER_WORKER = 2

TaskFn = Callable[[Any, Any], Any]


def _run_chunk(fn: TaskFn, context: Any, tasks: list,
               inject: str | None = None) -> list[tuple[Any, float]]:
    """Run one chunk in-order, timing each task (executes in the worker).

    Tasks are timed with per-thread CPU time, not wall-clock: under a
    thread pool a wall-clock span would include every co-scheduled
    thread's execution (GIL hand-offs), inflating the compute charged to
    each simulated rank roughly workers-fold.  CPU time attributes to a
    rank only the cycles its own task burned, so
    :class:`~repro.mpisim.tracker.StageTimer` breakdowns stay comparable
    across executors (for the compute-bound kernels here, serial CPU time
    ≈ serial wall time).

    ``inject`` is a fault verdict decided in the parent
    (:func:`~repro.resilience.faults.check_fault`); it fires before any
    task runs, so an injected loss never leaks partial work.
    """
    if inject is not None:
        trip(inject, CHUNK_FAULT_SITE)
    out = []
    for task in tasks:
        t0 = time.thread_time()
        res = fn(context, task)
        out.append((res, time.thread_time() - t0))
    return out


def _run_chunk_pickled(fn: TaskFn, ctx_bytes: bytes, tasks: list,
                       inject: str | None = None) -> list[tuple[Any, float]]:
    """Process-pool chunk entry: the shared context arrives pre-pickled.

    The parent serializes the context once per ``run_timed`` call and
    submits the same bytes to every chunk, so a large shared context (the
    read set, a k-mer table) costs one ``pickle.dumps`` instead of one per
    chunk.  Unpickling happens here in the worker — for a store-backed
    ReadSet that is just reopening the memmaps by path.
    """
    return _run_chunk(fn, pickle.loads(ctx_bytes), tasks, inject)


class Executor:
    """Maps ``fn(context, task)`` over task lists with ordered reduction.

    ``context`` is shared, read-only state delivered once per chunk (for
    process pools it is pickled per chunk, not per task — pass the big
    immutable stuff like the read set here).  ``weights`` are per-task cost
    estimates (nonzero counts, read lengths) driving chunk balance; results
    never depend on them.

    ``retry`` bounds how failed chunks are re-run (see
    :class:`~repro.resilience.retry.RetryPolicy`); ``recovery`` accumulates
    one record per retry, pool respawn, or tier downgrade the executor
    performed — empty on the fault-free path.
    """

    #: Registry name; set by subclasses.
    name: str = "abstract"

    def __init__(self, workers: int = 1,
                 retry: RetryPolicy | None = None) -> None:
        self.workers = max(1, int(workers))
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.recovery: list[dict] = []

    def _note(self, event: str, **fields) -> None:
        self.recovery.append({"event": event, "executor": self.name,
                              **fields})

    def _backoff(self, attempt: int, tier: str, error: str) -> None:
        """Record (and optionally sleep) the scheduled backoff delay."""
        delay = self.retry.delay(attempt)
        self._note("retry", tier=tier, attempt=attempt, delay=delay,
                   error=error)
        log.info("repro.exec %s: attempt %d failed at tier %s (%s); "
                 "retrying after %.3fs%s", self.name, attempt, tier, error,
                 delay, "" if self.retry.sleep else " (recorded, not slept)")
        if self.retry.sleep and delay > 0:
            time.sleep(delay)

    def _run_serial(self, fn: TaskFn, tasks: list, context: Any
                    ) -> tuple[list, list[float]]:
        """In-process execution with bounded retry of the (single) chunk."""
        if not tasks:
            return [], []
        attempt = 1
        while True:
            try:
                pairs = _run_chunk(fn, context, tasks,
                                   check_fault(CHUNK_FAULT_SITE))
                return [r for r, _ in pairs], [s for _, s in pairs]
            except Exception as exc:
                if attempt >= self.retry.max_attempts:
                    raise
                self._backoff(attempt, "serial", repr(exc))
                attempt += 1

    def run_timed(self, fn: TaskFn, tasks: list, *, context: Any = None,
                  weights=None) -> tuple[list, list[float]]:
        """Ordered results plus per-task wall seconds (measured in-worker)."""
        raise NotImplementedError

    def run(self, fn: TaskFn, tasks: list, *, context: Any = None,
            weights=None) -> list:
        """Ordered results (timing discarded)."""
        return self.run_timed(fn, tasks, context=context, weights=weights)[0]

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Release pool resources (idempotent; safe on broken pools)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} workers={self.workers}>"


class SerialExecutor(Executor):
    """In-order single-thread execution — the determinism reference."""

    name = "serial"

    def run_timed(self, fn, tasks, *, context=None, weights=None):
        return self._run_serial(fn, list(tasks), context)


class _PoolExecutor(Executor):
    """Shared chunk-submit / ordered-gather / recovery logic for pools.

    Chunks are re-run under :attr:`retry` when a worker raises or the pool
    breaks; a broken pool is discarded and respawned before the re-run.
    When a tier exhausts its attempt budget the executor *degrades* along
    :attr:`_TIERS` (process → thread → serial) with a logged downgrade —
    the last-resort serial tier runs chunks in the parent, where real task
    exceptions finally propagate.  Results stay byte-identical because
    only whole chunks are re-run and each lands back in its own slot of
    the ordered reduction.
    """

    #: Degradation chain; index 0 is the native tier.
    _TIERS: tuple[str, ...] = ()

    def __init__(self, workers: int = 1,
                 retry: RetryPolicy | None = None) -> None:
        super().__init__(workers, retry)
        self._pools: dict[str, Any] = {}
        #: Sticky degradation floor: once pool breakage forces a tier
        #: down, later calls start there instead of re-breaking.
        self._tier_floor = 0

    def _make_pool(self, tier: str):
        if tier == "thread":
            return ThreadPoolExecutor(max_workers=self.workers,
                                      thread_name_prefix="repro-exec")
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=ctx)

    def _pool(self, tier: str):
        pool = self._pools.get(tier)
        if pool is None:
            pool = self._pools[tier] = self._make_pool(tier)
        return pool

    def _discard_pool(self, tier: str) -> None:
        """Drop (and best-effort shut down) a pool — broken or not."""
        pool = self._pools.pop(tier, None)
        if pool is not None:
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - defensive
                pass

    def close(self) -> None:
        for tier in list(self._pools):
            self._discard_pool(tier)

    def run_timed(self, fn, tasks, *, context=None, weights=None):
        tasks = list(tasks)
        if not tasks:
            return [], []
        if self.workers <= 1 or len(tasks) <= 1:
            return self._run_serial(fn, tasks, context)
        if weights is None:
            weights = [1.0] * len(tasks)
        ranges = weighted_chunks(weights, self.workers * _CHUNKS_PER_WORKER)
        chunk_out: list = [None] * len(ranges)
        pending = list(range(len(ranges)))
        tier_i = self._tier_floor
        attempt = 1
        while pending:
            tier = self._TIERS[tier_i]
            if tier == "serial":
                # Last resort: run the lost chunks in the parent, without
                # injection (recovery must terminate) and without retry
                # (a failure here is a real, deterministic task error).
                for ci in pending:
                    lo, hi = ranges[ci]
                    chunk_out[ci] = _run_chunk(fn, context, tasks[lo:hi])
                pending = []
                break
            failed: list[int] = []
            broken = False
            last_exc: BaseException | None = None
            # For the process tier, serialize the shared context once and
            # ship the same bytes with every chunk (a big context would
            # otherwise be re-pickled per chunk by submit()).  Anything
            # unpicklable falls back to plain submission so the pool's own
            # error path (and the degradation ladder) still applies.
            ctx_payload: bytes | None = None
            if tier == "process" and context is not None:
                try:
                    ctx_payload = pickle.dumps(
                        context, protocol=pickle.HIGHEST_PROTOCOL)
                except Exception:
                    ctx_payload = None
            try:
                pool = self._pool(tier)
                futures: dict[int, Future] = {}
                for ci in pending:
                    lo, hi = ranges[ci]
                    if ctx_payload is not None:
                        futures[ci] = pool.submit(
                            _run_chunk_pickled, fn, ctx_payload,
                            tasks[lo:hi], check_fault(CHUNK_FAULT_SITE))
                    else:
                        futures[ci] = pool.submit(
                            _run_chunk, fn, context, tasks[lo:hi],
                            check_fault(CHUNK_FAULT_SITE))
            except BrokenExecutor as exc:
                broken, failed, last_exc = True, list(pending), exc
            else:
                for ci in pending:
                    try:
                        chunk_out[ci] = futures[ci].result()
                    except BrokenExecutor as exc:
                        broken = True
                        failed.append(ci)
                        last_exc = exc
                    except Exception as exc:
                        failed.append(ci)
                        last_exc = exc
            if broken:
                # A dead worker poisons the whole pool: discard it so the
                # next attempt submits to a freshly spawned one.
                self._discard_pool(tier)
                self._note("respawn", tier=tier, chunks=len(failed))
                log.warning("repro.exec %s: %s pool broke (%r); respawning "
                            "(%d chunks lost)", self.name, tier, last_exc,
                            len(failed))
            if not failed:
                break
            pending = failed
            if attempt >= self.retry.max_attempts:
                if tier_i + 1 < len(self._TIERS):
                    tier_i += 1
                    attempt = 1
                    if broken:
                        self._tier_floor = max(self._tier_floor, tier_i)
                    self._note("downgrade", tier=self._TIERS[tier_i],
                               from_tier=tier, sticky=broken)
                    log.warning(
                        "repro.exec %s: tier %s exhausted %d attempts; "
                        "degrading to %s%s", self.name, tier,
                        self.retry.max_attempts, self._TIERS[tier_i],
                        " (sticky: pool kept breaking)" if broken else "")
                else:  # pragma: no cover - serial tier never exhausts
                    raise last_exc
            else:
                self._backoff(attempt, tier, repr(last_exc))
                attempt += 1
        results: list = []
        seconds: list[float] = []
        # Gather in chunk order = task order: the ordered reduction.
        for pairs in chunk_out:
            for res, sec in pairs:
                results.append(res)
                seconds.append(sec)
        return results, seconds


class ThreadExecutor(_PoolExecutor):
    """Thread-pool executor; shines on GIL-releasing numpy/scipy kernels."""

    name = "thread"
    _TIERS = ("thread", "serial")


class ProcessExecutor(_PoolExecutor):
    """Process-pool executor for pure-Python-bound task loops.

    Uses the ``fork`` start method where the platform offers it (cheap
    worker startup, parent globals inherited) and falls back to ``spawn``
    elsewhere; either way task functions and payloads must be picklable —
    which is why the pipeline's task functions are module-level and carry
    their state via ``context``.  The pool is created lazily on first use
    and reused across calls, so per-stage dispatch costs a round of chunk
    pickles, not a pool spin-up.  A chunk lost to a dying worker
    (``BrokenProcessPool``) is re-run on a respawned pool; persistent
    breakage degrades to a thread pool and finally to in-process serial
    execution.
    """

    name = "process"
    _TIERS = ("process", "thread", "serial")


#: Shared zero-state serial instance — the default for library call sites.
SERIAL = SerialExecutor()

_REGISTRY: dict[str, type[Executor]] = {}


def register_executor(name: str, cls: type[Executor]) -> None:
    """Register (or replace) an executor class under ``name``."""
    if not (isinstance(cls, type) and issubclass(cls, Executor)):
        raise TypeError(f"expected an Executor subclass, got {cls!r}")
    _REGISTRY[name] = cls


def available_executors() -> list[str]:
    """Sorted names accepted by :func:`get_executor` (and the CLI flag)."""
    return sorted(_REGISTRY) + ["auto"]


def resolve_workers(workers: int | None = None) -> int:
    """Explicit worker count, else the ``REPRO_WORKERS`` env var, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV, "").strip()
    return max(1, int(env)) if env else 1


def get_executor(name: "str | Executor | None" = None,
                 workers: int | None = None) -> Executor:
    """Build an executor by name with ``workers`` parallel workers.

    ``None`` defaults to ``"auto"``; ``"auto"`` defers to the
    ``REPRO_EXECUTOR`` env var when set, else picks serial for one worker
    and the process pool otherwise — so the environment can steer every
    default-configured run (the CI determinism leg) without touching
    explicit choices.  An already-built :class:`Executor` passes through
    unchanged so plumbing layers accept either form.
    """
    if isinstance(name, Executor):
        return name
    if name is None:
        name = DEFAULT_EXECUTOR
    workers = resolve_workers(workers)
    if name == "auto":
        env = os.environ.get(EXECUTOR_ENV, "").strip()
        if env and env != "auto":
            name = env
        else:
            name = "serial" if workers <= 1 else PARALLEL_DEFAULT
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown executor {name!r}; available: "
                       f"{', '.join(available_executors())}") from None
    return cls(workers)


register_executor("serial", SerialExecutor)
register_executor("thread", ThreadExecutor)
register_executor("process", ProcessExecutor)
