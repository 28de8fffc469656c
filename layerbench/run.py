"""Layered benchmark of the diBELLA 2D reproduction.

One workload per run::

    python3 layerbench/run.py --workload clr-xdrop --seed 1 --seconds 20 --trace 0

builds the workload's inputs from ``--seed``, runs operations (assemblies,
or ingests for ``service-stream``) for about ``--seconds`` seconds, checks
every output, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
the layer entry points are wrapped (see ``spans.py``) and the metrics are
the per-layer ones, while the spans go to
``.bench_out/trace-<workload>-seed<n>.jsonl``.  Human-readable detail goes
to stderr.

Without ``--workload`` every workload runs, each in its own fresh
interpreter, and a table of every metric with its unit is printed.

The program is imported from ``src/`` of the checkout holding this
directory; without it the benchmark exits with an error and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None

#: Set-up is repeated this many times per run: the program's import, each
#: in a fresh interpreter, and the input build.  ``setup_s`` is the median
#: import time plus the median build time.
SETUP_REPEATS = 3

#: Stages whose communication volume is reported (``comm.<Stage>.*``).
COMM_STAGES = ("CountKmer", "CreateSpMat", "SpGEMM", "ExchangeRead",
               "TrReduction")

#: Spans whose per-operation inclusive time is reported as ``<name>.s``.
TIMED_SPANS = ("seqs.read_fasta", "seqs.count_kmers", "seqs.spill_write",
               "seqs.kmer_histogram", "overlap.build_a_matrix",
               "overlap.candidate_overlaps", "overlap.align_candidates",
               "align.xdrop_extend", "align.chain_extend", "dsparse.summa",
               "blocked.overlaps", "tr.transitive_reduction", "exec.run",
               "service.refresh")

#: Spans whose call count per session is reported as ``<name>.calls``.
COUNTED_SPANS = ("align.xdrop_extend", "dsparse.summa", "exec.run")


def _units() -> dict[str, str]:
    metrics = SPEC["end_to_end"] + SPEC["per_layer"] if SPEC else []
    return {m["name"]: m["unit"] for m in metrics}


def _pct(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


# -- one workload -------------------------------------------------------------
def _import_s() -> float:
    """Median seconds to import the program, each time in a new interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "t0 = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t0)")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
            stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _end_to_end(out, setup_s: float, rss_mib: float) -> dict[str, float]:
    secs = [op.seconds for op in out.ops]
    # Delta ingest times form two clusters, one about twice the other, and
    # their median flips between the clusters from run to run; the mean
    # does not.
    assemble_s = (statistics.mean(secs) if out.bootstrap
                  else statistics.median(secs))
    mbases = statistics.mean(op.bases for op in out.ops) / 1e6
    return {"setup_s": setup_s, "assemble_s": assemble_s,
            "mbases_per_s": mbases / assemble_s, "peak_rss_mib": rss_mib}


def _per_layer(workload, out, tracer) -> dict[str, float]:
    traced = [op for op in out.ops if op.span >= 0]
    per_op = [tracer.breakdown(op.span) for op in traced]
    session: dict[str, dict[str, float]] = {}
    for rec in per_op[:workload.session_ops]:
        for name, vals in rec.items():
            acc = session.setdefault(name, {})
            for key, val in vals.items():
                acc[key] = acc.get(key, 0) + val

    def median_of(name: str, key: str = "s") -> float:
        return statistics.median(rec.get(name, {}).get(key, 0.0)
                                 for rec in per_op)

    m: dict[str, float] = {}
    for name in TIMED_SPANS:
        m[f"{name}.s"] = median_of(name)
    for name in COUNTED_SPANS:
        m[f"{name}.calls"] = session.get(name, {}).get("calls", 0)
    m["service.refresh.self_s"] = median_of("service.refresh", "self_s")
    m["seqs.spill_runs"] = session.get("seqs.spill_write", {}).get("calls", 0)
    m["blocked.n_strips"] = session.get("blocked.overlaps", {}).get(
        "blocked.n_strips", 0)
    m["exec.tasks"] = session.get("exec.run", {}).get("exec.tasks", 0)
    m["exec.retries"] = session.get("exec.retry", {}).get("calls", 0)
    m.update(out.counts)
    hits = m.setdefault("service.cache.hits", 0)
    misses = m.setdefault("service.cache.misses", 0)
    m["service.cache.hit_ratio"] = hits / (hits + misses) if hits else 0.0
    ingest = [op.seconds for op in out.ops] if out.bootstrap else []
    m["service.bootstrap_s"] = (statistics.median(out.bootstrap)
                                if out.bootstrap else 0.0)
    m["service.ingest_s.p50"] = _pct(ingest, 50)
    m["service.ingest_s.p75"] = _pct(ingest, 75)
    m["service.query_s.p50"] = _pct(out.queries, 50)
    m["service.query_s.p99"] = _pct(out.queries, 99)
    for stage in COMM_STAGES:
        rec = out.comm.get(stage, {"bytes": 0, "messages": 0})
        m[f"comm.{stage}.bytes"] = rec["bytes"]
        m[f"comm.{stage}.messages"] = rec["messages"]
    m["run.residual_s"] = statistics.median(
        op.seconds - tracer.top_level_s(op.span) for op in traced)
    m["run.trace_overhead"] = tracer.overhead_s / sum(op.seconds
                                                      for op in out.ops)
    return m


def _report(name: str, out, tracer) -> None:
    """Human-readable detail on stderr (the JSON line stays last on stdout)."""
    say = lambda *a: print(*a, file=sys.stderr)  # noqa: E731
    secs = [op.seconds for op in out.ops]
    say(f"[{name}] {len(secs)} operations, median {statistics.median(secs):.4f}"
        f" s; {len(out.queries)} queries")
    if out.digest:
        say(f"[{name}] digest S={out.digest[0]} R={out.digest[1]}")
    if len(secs) <= 8:
        say(f"[{name}] operation seconds: "
            + " ".join(f"{s:.4f}" for s in secs))
    if out.bootstrap:
        say(f"[{name}] bootstrap {statistics.median(out.bootstrap):.4f} s; "
            f"ingest p50 {_pct(secs, 50):.4f} s p75 {_pct(secs, 75):.4f} s "
            f"(n={len(secs)}); query p50 {_pct(out.queries, 50) * 1e3:.4f} ms"
            f" p99 {_pct(out.queries, 99) * 1e3:.4f} ms "
            f"(n={len(out.queries)})")
    for err in out.errors:
        say(f"[{name}] FAILED: {err}")
    if tracer is None:
        return
    top: dict[str, float] = {}
    wall = 0.0
    kids = tracer.children()
    for op in out.ops:
        if op.span < 0:
            continue
        wall += op.seconds
        for c in kids.get(op.span, ()):
            name_c, start, end, _ = tracer.spans[c]
            top[name_c] = top.get(name_c, 0.0) + end - start
    say(f"[{name}] top-level spans over all traced operations "
        f"({wall:.4f} s):")
    for span_name, s in sorted(top.items(), key=lambda kv: -kv[1]):
        say(f"    {span_name:28s} {s:10.4f} s  {100 * s / wall:5.1f}%")
    say(f"    {'(residual)':28s} {wall - sum(top.values()):10.4f} s")
    if top:
        say(f"[{name}] largest layer: {max(top, key=top.get)}")


def run_one(args) -> int:
    # Pin every engine axis the program reads from the environment to its
    # default, and keep temporary files inside the checkout.
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    OUT.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT)
    tempfile.tempdir = str(OUT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # imports the program
    import_s = None if args.trace else _import_s()
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup.append(time.perf_counter() - t0)
        expected = json.loads((HERE / "digests.json").read_text()).get(
            args.workload, {}).get(str(args.seed))
        if expected is None and not hasattr(workload, "verify"):
            print(f"[{args.workload}] WARNING: digests.json records no "
                  f"digest for seed {args.seed}; the output is checked only "
                  f"for structure and for repeating across assemblies",
                  file=sys.stderr)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            out = workload.run(inputs, args.seconds, workdir, tracer,
                               tuple(expected) if expected else None)
        finally:
            if tracer:
                tracer.uninstall()
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if hasattr(workload, "verify"):
            workload.verify(inputs, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _report(args.workload, out, tracer)
    if tracer:
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = _per_layer(workload, out, tracer)
    else:
        values = _end_to_end(out, import_s + statistics.median(setup),
                             rss_mib)
    units = _units()
    failed = sum(not op.ok for op in out.ops) + out.queries_failed
    attempted = len(out.ops) + len(out.queries)
    print(json.dumps({
        "correct": failed == 0 and not out.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in values.items()}}))
    return 0


# -- every workload ------------------------------------------------------------
def run_all(args) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    rows, ok = [], True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= res["correct"]
        rows.append((name, res))
    for name, res in rows:
        print(f"== {name}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"failed_frac={res['failed'] / res['attempted']:.4f}")
        for metric, rec in res["metrics"].items():
            print(f"   {metric:32s} {rec['value']:>16.6g} {rec['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, "
                        "each in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"] if SPEC else 20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"layerbench: no program source at {ROOT / 'src' / 'repro'};"
                 f" run it from a checkout of the repository")
    if SPEC is None:
        sys.exit(f"layerbench: {ROOT / 'BENCHMARK.json'} is missing")
    if args.workload is None:
        return run_all(args)
    if args.workload not in {w["name"] for w in SPEC["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
