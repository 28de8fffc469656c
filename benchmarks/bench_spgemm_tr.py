"""Overlap product + transitive reduction: masked engine vs ESC reference.

With the k-mer and alignment stages batched, the semiring SpGEMMs became
the dominant serial cost of an unmasked engine: the monolithic ESC overlap
product (the reference in ``tests/reference/spgemm.py``) expands
every elementary k-mer pairing, materializes a 7-field positions value for
each, and sorts the full product — diagonal and lower triangle included —
only to throw half of it away in the triangle prune; the transitive
reduction squares R into the full two-hop matrix although the mask step
only ever reads N at R's own nonzeros.

The pipeline's masked engine decomposes the overlap product into a native CSR
count pass plus a mask-pruned, reduce-truncated ESC seed pass restricted to
the strict upper triangle, and squares R under R's own pattern.

This micro-benchmark isolates the two stages on an overlap-heavy dataset
(deep coverage, error-free so every shared k-mer survives — the shape that
maximizes elementary products per output nonzero), times
``candidate_overlaps`` + ``transitive_reduction`` under both engines,
asserts the byte-identity contract (the full C and S matrices and the
round count), and writes ``BENCH_spgemm.json`` at the repo root for the
cross-PR perf record.

Acceptance gate: the masked engine must be ≥ ``MIN_SPGEMM_SPEEDUP``× faster
serially on the combined two stages (best-of-``ROUNDS`` per engine, one
core, so the gate holds on any host); ``REPRO_BENCH_MIN_SPGEMM_SPEEDUP``
overrides the threshold (``0`` records without gating).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

import reference.spgemm
from repro.core.overlap import (align_candidates, build_a_matrix,
                                candidate_overlaps)
from repro.core.transitive_reduction import transitive_reduction
from repro.eval.report import format_table
from repro.mpisim import CommTracker, ProcessGrid2D, SimComm, StageTimer
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.kmer_counter import count_kmers, reliable_upper_bound

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_spgemm.json"

#: Overlap-heavy dataset: deep error-free coverage of a small genome packs
#: many reads onto every locus, so each reliable k-mer column is near its
#: occurrence cap and the ESC expansion per output nonzero is maximal.
GENOME_LENGTH = 40_000
DEPTH = 30
MEAN_LEN = 800
MIN_LEN = 400
ERROR_RATE = 0.0
K = 17
NPROCS = 4
TR_FUZZ = 150

#: Timed rounds per engine (best-of to shed scheduler noise).
ROUNDS = 2

#: The acceptance gate: masked vs esc, serial, 1 core.
MIN_SPGEMM_SPEEDUP = 3.0

#: (candidate_overlaps, transitive_reduction) per engine; "esc" is the
#: unmasked reference.
ENGINES = {"esc": (reference.spgemm.candidate_overlaps,
                   reference.spgemm.transitive_reduction),
           "masked": (candidate_overlaps, transitive_reduction)}


def _prepare():
    """Simulate reads and build A + R once — shared, untimed setup."""
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=GENOME_LENGTH, seed=42),
                    depth=DEPTH, mean_len=MEAN_LEN, min_len=MIN_LEN,
                    error=ErrorModel(rate=ERROR_RATE), seed=1))
    reads.soa()
    comm = SimComm(NPROCS, CommTracker(NPROCS))
    timer = StageTimer()
    table = count_kmers(reads, K, comm, timer,
                        upper=reliable_upper_bound(DEPTH, ERROR_RATE, K))
    A = build_a_matrix(reads, table, ProcessGrid2D(NPROCS), comm, timer)
    C = candidate_overlaps(A, comm, timer)
    R = align_candidates(C, reads, K, comm, timer, mode="chain",
                         fuzz=TR_FUZZ)
    return reads, A, R


def _run_stages(A, R, engine):
    overlaps, reduce = ENGINES[engine]
    comm = SimComm(NPROCS, CommTracker(NPROCS))
    timer = StageTimer()
    t0 = time.perf_counter()
    C = overlaps(A, comm, timer)
    t_overlap = time.perf_counter()
    tr = reduce(R, comm, timer, fuzz=TR_FUZZ)
    t_tr = time.perf_counter()
    return (t_overlap - t0, t_tr - t_overlap), C.to_global(), \
        tr.S.to_global(), tr.rounds


def test_spgemm_masked_speedup(benchmark):
    reads, A, R = _prepare()

    def run():
        walls: dict[str, tuple[float, float]] = {}
        results: dict[str, tuple] = {}
        for _r in range(ROUNDS):
            for engine in ENGINES:
                secs, g_c, g_s, rounds = _run_stages(A, R, engine)
                prev = walls.get(engine)
                if prev is None or sum(secs) < sum(prev):
                    walls[engine] = secs
                results[engine] = (g_c, g_s, rounds)
        return walls, results

    walls, results = benchmark.pedantic(run, rounds=1, iterations=1)

    c_e, s_e, rounds_e = results["esc"]
    c_m, s_m, rounds_m = results["masked"]
    identical = (np.array_equal(c_e.row, c_m.row) and
                 np.array_equal(c_e.col, c_m.col) and
                 np.array_equal(c_e.vals, c_m.vals) and
                 np.array_equal(s_e.row, s_m.row) and
                 np.array_equal(s_e.col, s_m.col) and
                 np.array_equal(s_e.vals, s_m.vals) and
                 rounds_e == rounds_m)
    assert identical, "masked SpGEMM engine diverged from the ESC oracle"

    total = {engine: sum(walls[engine]) for engine in ENGINES}
    speedup = total["esc"] / max(total["masked"], 1e-9)
    rows = [{
        "stage": stage,
        "esc (s)": f"{walls['esc'][i]:.2f}",
        "masked (s)": f"{walls['masked'][i]:.2f}",
        "speedup": f"{walls['esc'][i] / max(walls['masked'][i], 1e-9):.2f}x",
    } for i, stage in enumerate(("SpGEMM", "TrReduction"))]
    rows.append({"stage": "total", "esc (s)": f"{total['esc']:.2f}",
                 "masked (s)": f"{total['masked']:.2f}",
                 "speedup": f"{speedup:.2f}x"})
    print(format_table(rows, title=(
        f"Overlap product + TR: esc vs masked engine ({len(reads)} reads, "
        f"nnz(A)={A.nnz()}, nnz(C)={c_m.nnz}, nnz(R)={R.nnz()}, "
        f"nnz(S)={s_m.nnz}, serial)")))

    record = {
        "bench": "spgemm_tr",
        "dataset": {"genome_length": GENOME_LENGTH, "depth": DEPTH,
                    "mean_len": MEAN_LEN, "min_len": MIN_LEN,
                    "error_rate": ERROR_RATE, "n_reads": len(reads),
                    "k": K, "nprocs": NPROCS, "tr_fuzz": TR_FUZZ,
                    "nnz_a": int(A.nnz()), "nnz_c": int(c_m.nnz),
                    "nnz_r": int(R.nnz()), "nnz_s": int(s_m.nnz),
                    "tr_rounds": int(rounds_m)},
        "spgemm": {"esc_seconds": round(walls["esc"][0], 4),
                   "masked_seconds": round(walls["masked"][0], 4)},
        "tr_reduction": {"esc_seconds": round(walls["esc"][1], 4),
                         "masked_seconds": round(walls["masked"][1], 4)},
        "total": {"esc_seconds": round(total["esc"], 4),
                  "masked_seconds": round(total["masked"], 4),
                  "speedup": round(speedup, 3)},
        "identical_to_esc": True,
    }
    JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {JSON_PATH.name} (SpGEMM+TrReduction speedup "
          f"{speedup:.2f}x)")

    min_speedup = float(os.environ.get("REPRO_BENCH_MIN_SPGEMM_SPEEDUP",
                                       str(MIN_SPGEMM_SPEEDUP)))
    if min_speedup > 0.0:
        assert speedup >= min_speedup, (
            f"expected >= {min_speedup}x SpGEMM+TrReduction speedup "
            f"(masked vs esc, serial), measured {speedup:.2f}x")
