"""Alignment-stage wall-clock: per-pair loop vs batched SoA engine vs the
compiled x-drop kernel.

The pipeline's hottest stage is the seed-and-extend x-drop alignment of
every C nonzero (paper Section IV-D).  This micro-benchmark isolates that
stage on the e2e bench dataset: it forms the candidate matrix once, then
times ``align_candidates`` under ``align_impl="loop"`` (one Python dispatch
per pair — the reference oracle) against ``align_impl="batch"`` with the
numpy lockstep sweep (the compiled kernel's fallback) and with the compiled
kernel of :mod:`repro.align.native` (the default whenever it builds), for
both alignment modes.  Chain mode runs no x-drop kernel, so its compiled
column repeats the batch engine.

Beyond the timing table it asserts the byte-identity contract across all
three and writes ``BENCH_align.json`` at the repo root for the cross-PR
perf record.

Acceptance gate: the numpy batch sweep must be ≥ ``MIN_ALIGN_SPEEDUP``×
faster than the loop engine in x-drop mode.  The comparison is
serial-vs-serial on one core, so the gate holds on any host;
``REPRO_BENCH_MIN_ALIGN_SPEEDUP`` overrides the threshold (``0`` records
without gating).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.align import native
from repro.core.overlap import (align_candidates, build_a_matrix,
                                candidate_overlaps)
from repro.eval.report import format_table
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.kmer_counter import count_kmers, reliable_upper_bound

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_align.json"

#: Same simulated dataset as bench_pipeline_e2e.py, so the stage numbers
#: here decompose the end-to-end record.
GENOME_LENGTH = 12_000
DEPTH = 12
ERROR_RATE = 0.05
K = 17
NPROCS = 4

#: The PR's acceptance gate: batch vs loop in x-drop mode, serial, 1 core.
MIN_ALIGN_SPEEDUP = 3.0

#: Columns of the table: (label, align_impl, compiled kernel allowed).
ENGINES = (("loop", "loop", False), ("batch", "batch", False),
           ("compiled", "batch", True))


def _candidates():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=GENOME_LENGTH, seed=42),
                    depth=DEPTH, mean_len=800, min_len=400,
                    error=ErrorModel(rate=ERROR_RATE), seed=1))
    comm = SimComm(NPROCS, CommTracker(NPROCS))
    grid = ProcessGrid2D(NPROCS)
    timer = StageTimer()
    upper = reliable_upper_bound(DEPTH, ERROR_RATE, K)
    table = count_kmers(reads, K, comm, timer, upper=upper)
    A = build_a_matrix(reads, table, grid, comm, timer)
    C = candidate_overlaps(A, comm, timer)
    return reads, C, comm


def _identical(a, b) -> bool:
    return (np.array_equal(a.row, b.row) and np.array_equal(a.col, b.col)
            and np.array_equal(a.vals, b.vals))


def test_align_batch_speedup(benchmark):
    reads, C, comm = _candidates()

    def run():
        walls: dict[tuple[str, str], float] = {}
        results: dict[tuple[str, str], object] = {}
        for mode in ("xdrop", "chain"):
            for label, impl, compiled in ENGINES:
                with pytest.MonkeyPatch.context() as mp:
                    if not compiled:
                        mp.setattr(native, "load", lambda: None)
                    t0 = time.perf_counter()
                    R = align_candidates(C, reads, K, comm, StageTimer(),
                                         mode=mode, impl=impl)
                    walls[(mode, label)] = time.perf_counter() - t0
                results[(mode, label)] = R.to_global()
        return walls, results

    walls, results = benchmark.pedantic(run, rounds=1, iterations=1)

    record = {
        "bench": "align_batch",
        "dataset": {"genome_length": GENOME_LENGTH, "depth": DEPTH,
                    "error_rate": ERROR_RATE, "n_reads": len(reads),
                    "nnz_c": C.nnz(), "k": K, "nprocs": NPROCS},
        # "compiled", or the numpy fallback (with its reason) that then
        # fills the compiled column.
        "compiled_kernel": native.kernel_name(),
        "modes": {},
    }
    rows = []
    for mode in ("xdrop", "chain"):
        gl = results[(mode, "loop")]
        gb = results[(mode, "batch")]
        gc = results[(mode, "compiled")]
        assert _identical(gl, gb), f"{mode}: batch R diverged from loop R"
        assert _identical(gl, gc) and _identical(gb, gc), \
            f"{mode}: compiled-kernel R diverged from loop / batch R"
        loop_s, batch_s, comp_s = (walls[(mode, label)]
                                   for label, _, _ in ENGINES)
        speedup = loop_s / max(batch_s, 1e-9)
        comp_speedup = batch_s / max(comp_s, 1e-9)
        rows.append({"mode": mode,
                     "loop (s)": f"{loop_s:.2f}",
                     "batch (s)": f"{batch_s:.2f}",
                     "compiled (s)": f"{comp_s:.3f}",
                     "batch/loop": f"{speedup:.2f}x",
                     "compiled/batch": f"{comp_speedup:.2f}x",
                     "byte-identical": "yes"})
        record["modes"][mode] = {
            "loop_seconds": round(loop_s, 4),
            "batch_seconds": round(batch_s, 4),
            "compiled_seconds": round(comp_s, 4),
            "speedup": round(speedup, 3),
            "compiled_speedup_vs_batch": round(comp_speedup, 3),
            "compiled_speedup_vs_loop": round(loop_s / max(comp_s, 1e-9),
                                              3),
            "nnz_r": int(gb.nnz),
            "identical_to_loop": True,
            "compiled_identical": True,
        }

    print(format_table(rows, title=(
        f"Alignment stage: loop vs batch vs compiled ({len(reads)} reads, "
        f"{C.nnz()} candidate pairs, serial)")))
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {JSON_PATH.name} (xdrop speedup "
          f"{record['modes']['xdrop']['speedup']:.2f}x)")

    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_ALIGN_SPEEDUP",
                                       str(MIN_ALIGN_SPEEDUP)))
    if min_speedup > 0.0:
        got = record["modes"]["xdrop"]["speedup"]
        assert got >= min_speedup, (
            f"expected >= {min_speedup}x alignment speedup (batch vs loop, "
            f"x-drop mode), measured {got:.2f}x")
