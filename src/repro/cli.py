"""Command-line interface.

Four subcommands cover the library's main workflows::

    python -m repro simulate --genome-length 50000 --depth 20 out.fa
    python -m repro assemble reads.fa --nprocs 4 --layout layout.tsv
    python -m repro stats reads.fa --nprocs 4
    python -m repro serve --port 8765 --nprocs 4 --initial reads.fa

``simulate`` writes a synthetic CLR-like read set (with the ground-truth
interval encoded in each read name), ``assemble`` runs the diBELLA 2D
pipeline and writes the contig layout, ``stats`` prints the matrix
statistics and stage breakdown without writing outputs, and ``serve``
starts the long-running incremental assembly service (versioned delta
updates over HTTP, see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import sys

from .align import native
from .align.batch import ALIGN_IMPLS
from .core.contigs import extract_contigs
from .core.memory import (OVERLAP_MODES, apportion_budget, format_bytes,
                          parse_bytes)
from .core.pipeline import STAGES, PipelineConfig, run_pipeline_from_fasta
from .dsparse.backend import available_backends
from .dsparse.masked import SPGEMM_IMPLS
from .exec import available_executors
from .mpisim.machine import MACHINES
from .seqs.dna import GenomeSpec, decode
from .seqs.kmer_counter import KMER_IMPLS
from .seqs.read_store import READ_STORES
from .seqs.seeding import SEED_MODES
from .seqs.fasta import read_fasta, write_fasta
from .seqs.simulator import ErrorModel, ReadSimSpec, simulate_reads
from .service import REFRESH_MODES, AssemblyService, ServiceConfig, \
    make_server

__all__ = ["main", "build_parser"]


def _budget_bytes(text: str) -> int:
    """argparse type for --memory-budget: parse_bytes, must be positive."""
    try:
        value = parse_bytes(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"memory budget must be positive, got {text!r}")
    return value


def _strip_count(text: str) -> int:
    """argparse type for --n-strips: integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"strip count must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="diBELLA 2D reproduction: parallel string graph "
                    "construction and transitive reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic CLR read set")
    sim.add_argument("output", help="output FASTA path")
    sim.add_argument("--genome-length", type=int, default=50_000)
    sim.add_argument("--depth", type=float, default=20.0)
    sim.add_argument("--mean-read-length", type=float, default=1_000.0)
    sim.add_argument("--error-rate", type=float, default=0.1)
    sim.add_argument("--repeats", type=int, default=0,
                     help="number of planted repeat copies")
    sim.add_argument("--repeat-length", type=int, default=2_000)
    sim.add_argument("--seed", type=int, default=0)

    # argparse defaults come straight from PipelineConfig so the two can
    # never drift apart (the parity test in tests/test_cli.py pins this).
    cfg = PipelineConfig()

    def add_pipeline_args(p):
        p.add_argument("reads", help="input FASTA")
        p.add_argument("--k", type=int, default=cfg.k)
        p.add_argument("--nprocs", type=int, default=cfg.nprocs,
                       help="simulated process count (perfect square)")
        p.add_argument("--align-mode", choices=("xdrop", "chain"),
                       default=cfg.align_mode)
        p.add_argument("--align-impl", choices=("auto",) + ALIGN_IMPLS,
                       default=cfg.align_impl,
                       help="alignment engine: 'batch' runs one vectorized "
                            "x-drop sweep over whole chunks of candidate "
                            "pairs, 'loop' aligns pair by pair (the "
                            "reference oracle); 'auto' honors "
                            "REPRO_ALIGN_IMPL, else batch (results are "
                            "engine-independent)")
        p.add_argument("--kmer-impl", choices=("auto",) + KMER_IMPLS,
                       default=cfg.kmer_impl,
                       help="k-mer engine: 'batch' extracts and counts "
                            "through vectorized sorted-array SoA tables "
                            "(one sweep per rank for CountKmer and the "
                            "CreateSpMat scan), 'loop' runs the per-read / "
                            "per-key dict reference oracle; 'auto' honors "
                            "REPRO_KMER_IMPL, else batch (results are "
                            "engine-independent)")
        p.add_argument("--spgemm-impl", choices=("auto",) + SPGEMM_IMPLS,
                       default=cfg.spgemm_impl,
                       help="SpGEMM engine for the multi-field semiring "
                            "products: 'masked' decomposes C = A*At into a "
                            "native count product plus a mask-pruned ESC "
                            "seed pass and squares R under its own pattern "
                            "in transitive reduction, 'esc' runs the "
                            "monolithic expand-sort-compress reference "
                            "oracle; 'auto' honors REPRO_SPGEMM_IMPL, else "
                            "masked (results are engine-independent)")
        p.add_argument("--fuzz", type=int, default=cfg.fuzz)
        p.add_argument("--depth-hint", type=float, default=cfg.depth_hint)
        p.add_argument("--error-hint", type=float, default=cfg.error_hint)
        p.add_argument("--machine", choices=sorted(MACHINES), default="cori")
        p.add_argument("--backend", choices=available_backends(),
                       default=cfg.backend,
                       help="local sparse-kernel backend: 'auto' lowers "
                            "scalar semirings to scipy CSR kernels and "
                            "runs multi-field semirings on the numpy ESC "
                            "reference (results are backend-independent)")
        p.add_argument("--workers", type=int, default=cfg.workers,
                       help="parallel workers for the simulated ranks' "
                            "local compute (default: the REPRO_WORKERS "
                            "environment variable, else 1)")
        p.add_argument("--executor", choices=available_executors(),
                       default=cfg.executor,
                       help="execution engine: 'auto' runs serial for one "
                            "worker and a fork-safe process pool otherwise "
                            "(results are executor-independent)")
        p.add_argument("--overlap-mode",
                       choices=("auto",) + OVERLAP_MODES,
                       default=cfg.overlap_mode,
                       help="candidate-formation path: 'blocked' strip-"
                            "mines C = A*At (paper Section VIII) so peak "
                            "candidate memory drops ~n_strips-fold with "
                            "byte-identical output; 'auto' honors "
                            "REPRO_OVERLAP_MODE, else monolithic")
        p.add_argument("--n-strips", type=_strip_count,
                       default=cfg.n_strips,
                       help="explicit strip count for blocked mode "
                            "(default: derived from --memory-budget, "
                            "else 4)")
        p.add_argument("--memory-budget", type=_budget_bytes,
                       default=cfg.memory_budget, metavar="BYTES",
                       help="byte budget for the run's big consumers, e.g. "
                            "64M or 2G: half drives blocked mode's strip "
                            "count, a quarter caps the k-mer counter's "
                            "resident tables (sorted runs spill to disk "
                            "beyond it), the rest is headroom")
        p.add_argument("--read-store", choices=("auto",) + READ_STORES,
                       default=cfg.read_store,
                       help="read-base backend: 'inmem' keeps per-read "
                            "arrays resident, 'mmap' persists the 2-bit "
                            "code buffer to disk once and serves all SoA "
                            "views as read-only memmaps (workers reopen by "
                            "path; RSS stops scaling with input size); "
                            "'auto' honors REPRO_READ_STORE, else inmem "
                            "(results are backend-independent)")
        p.add_argument("--store-dir", default=cfg.store_dir, metavar="DIR",
                       help="directory for the mmap read store and k-mer "
                            "spill runs (default: honors REPRO_STORE_DIR, "
                            "else a self-cleaning temporary directory)")
        p.add_argument("--seed-mode", choices=("auto",) + SEED_MODES,
                       default=cfg.seed_mode,
                       help="seeding scheme: 'full' seeds with every "
                            "reliable k-mer window (the paper's behavior), "
                            "'minimizer'/'syncmer' sketch reads to "
                            "~2/(w+1) / 1/w of their windows before "
                            "counting and A construction — shrinking "
                            "nnz(A)/nnz(C) ~w-fold at a small recall "
                            "cost; 'auto' honors REPRO_SEED_MODE, else "
                            "full")
        p.add_argument("--seed-w", type=int, default=cfg.seed_w,
                       help="window parameter of the sketched seed modes "
                            "(k-mers per minimizer window; syncmer submer "
                            "length is k - w + 1); ignored by --seed-mode "
                            "full")
        p.add_argument("--fault-spec", dest="fault_plan",
                       default=cfg.fault_plan, metavar="SPEC",
                       help="deterministic fault injection spec, e.g. "
                            "'exec.chunk:crash@3;summa.block:exc@2' "
                            "(site:kind@counts clauses joined by ';'); "
                            "the default honors REPRO_FAULT_SPEC, and '' "
                            "pins the run fault-free — either way output "
                            "is byte-identical to a fault-free run")
        p.add_argument("--checkpoint-dir", default=cfg.checkpoint_dir,
                       metavar="DIR",
                       help="crash-safe per-strip checkpoint directory for "
                            "--overlap-mode blocked: completed strips "
                            "persist there, and re-running a killed "
                            "command with the same DIR resumes at the "
                            "last completed strip (default: honors "
                            "REPRO_CHECKPOINT_DIR, else off)")

    asm = sub.add_parser("assemble", help="run the pipeline, write contigs")
    add_pipeline_args(asm)
    asm.add_argument("--layout", default="layout.tsv",
                     help="output contig layout TSV")

    st = sub.add_parser("stats", help="run the pipeline, print statistics")
    add_pipeline_args(st)

    # Serve defaults come from ServiceConfig / PipelineConfig the same way
    # (pinned by the same parity test).
    scfg = ServiceConfig()
    srv = sub.add_parser("serve",
                         help="run the incremental assembly HTTP service")
    srv.add_argument("--host", default=scfg.host)
    srv.add_argument("--port", type=int, default=scfg.port)
    srv.add_argument("--refresh-mode",
                     choices=("auto",) + REFRESH_MODES,
                     default=scfg.refresh_mode,
                     help="refresh engine: 'incremental' folds each batch "
                          "into the live state via delta products, "
                          "'recompute' reruns the pipeline from scratch "
                          "(the byte-identical oracle); 'auto' honors "
                          "REPRO_REFRESH_MODE, else incremental")
    srv.add_argument("--cache-entries", type=int,
                     default=scfg.cache_entries,
                     help="query cache LRU capacity")
    srv.add_argument("--initial", default=None, metavar="FASTA",
                     help="optional FASTA ingested as the first batch "
                          "before serving")
    srv.add_argument("--k", type=int, default=cfg.k)
    srv.add_argument("--nprocs", type=int, default=cfg.nprocs,
                     help="simulated process count (perfect square)")
    srv.add_argument("--align-mode", choices=("xdrop", "chain"),
                     default=cfg.align_mode)
    srv.add_argument("--align-impl", choices=("auto",) + ALIGN_IMPLS,
                     default=cfg.align_impl)
    srv.add_argument("--kmer-impl", choices=("auto",) + KMER_IMPLS,
                     default=cfg.kmer_impl)
    srv.add_argument("--spgemm-impl", choices=("auto",) + SPGEMM_IMPLS,
                     default=cfg.spgemm_impl)
    srv.add_argument("--seed-mode", choices=("auto",) + SEED_MODES,
                     default=cfg.seed_mode,
                     help="seeding scheme of the session (full, minimizer, "
                          "or syncmer); incremental refreshes refuse "
                          "batches under a different scheme")
    srv.add_argument("--seed-w", type=int, default=cfg.seed_w)
    srv.add_argument("--fuzz", type=int, default=cfg.fuzz)
    srv.add_argument("--depth-hint", type=float, default=cfg.depth_hint)
    srv.add_argument("--error-hint", type=float, default=cfg.error_hint)
    srv.add_argument("--backend", choices=available_backends(),
                     default=cfg.backend)
    srv.add_argument("--workers", type=int, default=cfg.workers)
    srv.add_argument("--executor", choices=available_executors(),
                     default=cfg.executor)
    srv.add_argument("--fault-spec", dest="fault_plan",
                     default=cfg.fault_plan, metavar="SPEC",
                     help="persistent fault-injection plan for the service "
                          "(counters span ingests, so 'service.refresh:"
                          "exc@3' fails exactly the third ingest); failed "
                          "refreshes commit nothing and return 503")
    return parser


def _cmd_simulate(args) -> int:
    spec = ReadSimSpec(
        genome=GenomeSpec(length=args.genome_length,
                          n_repeats=args.repeats,
                          repeat_len=args.repeat_length if args.repeats else 0,
                          seed=args.seed),
        depth=args.depth, mean_len=args.mean_read_length,
        error=ErrorModel(rate=args.error_rate), seed=args.seed + 1)
    _genome, reads, _layout = simulate_reads(spec)
    write_fasta(args.output, reads)
    print(f"wrote {args.output}: {len(reads)} reads, "
          f"{reads.total_bases():,} bases")
    return 0


def _run(args):
    cfg = PipelineConfig(k=args.k, nprocs=args.nprocs,
                         align_mode=args.align_mode,
                         align_impl=args.align_impl,
                         kmer_impl=args.kmer_impl,
                         spgemm_impl=args.spgemm_impl, fuzz=args.fuzz,
                         depth_hint=args.depth_hint,
                         error_hint=args.error_hint,
                         backend=args.backend,
                         workers=args.workers, executor=args.executor,
                         overlap_mode=args.overlap_mode,
                         n_strips=args.n_strips,
                         memory_budget=args.memory_budget,
                         seed_mode=args.seed_mode, seed_w=args.seed_w,
                         fault_plan=args.fault_plan,
                         checkpoint_dir=args.checkpoint_dir,
                         read_store=args.read_store,
                         store_dir=args.store_dir)
    return run_pipeline_from_fasta(args.reads, cfg)


def _print_stats(result, machine_name: str) -> None:
    machine = MACHINES[machine_name]
    print(f"reads: {result.n_reads}   reliable k-mers: {result.n_kmers}")
    align = (f"alignment: {result.config.align_mode} mode, "
             f"{result.align_impl} engine")
    if result.config.align_mode == "xdrop" and result.align_impl == "batch":
        # The numpy fallback is ~20x slower; never let it run unannounced.
        align += f", x-drop kernel: {native.kernel_name()}"
    print(align)
    print(f"k-mer counting: {result.kmer_impl} engine")
    print(f"spgemm: {result.spgemm_impl} engine")
    if result.seed_mode == "full":
        print("seeding: full (every k-mer window)")
    else:
        print(f"seeding: {result.seed_mode} scheme "
              f"(w = {result.config.seed_w})")
    if result.overlap_mode == "blocked":
        print(f"overlap mode: blocked ({result.n_strips} strips)")
    if result.read_store != "inmem":
        print(f"read store: {result.read_store}")
    if result.config.memory_budget is not None:
        bp = apportion_budget(result.config.memory_budget)
        print(f"memory budget: {format_bytes(bp.total)} "
              f"(candidate {format_bytes(bp.candidate)}, "
              f"tables {format_bytes(bp.tables)}, "
              f"headroom {format_bytes(bp.headroom)})")
    print(f"nnz(C) = {result.nnz_c}  (c = {result.c_density:.1f})")
    print(f"nnz(R) = {result.nnz_r}  (r = {result.r_density:.1f})")
    print(f"nnz(S) = {result.nnz_s}  (s = {result.s_density:.1f}), "
          f"{result.tr_rounds} reduction rounds")
    paths = result.spgemm_paths
    if paths:
        print("spgemm kernel dispatch per stage (block products):")
        for stage in STAGES:
            if stage in paths:
                breakdown = "  ".join(f"{path}={n}" for path, n in
                                      sorted(paths[stage].items()))
                print(f"  {stage:13s} {breakdown}")
    peaks = result.peak_bytes
    if peaks:
        print("peak live matrix bytes per stage:")
        for stage in STAGES:
            if stage in peaks:
                print(f"  {stage:13s} {format_bytes(peaks[stage]):>12s}")
    print(f"modeled stage times on {machine.name}:")
    for stage, secs in result.modeled_time(machine).items():
        print(f"  {stage:13s} {secs:10.4f} s")


def _cmd_assemble(args) -> int:
    result = _run(args)
    _print_stats(result, args.machine)
    contigs = extract_contigs(result.string_graph)
    contigs.sort(key=len, reverse=True)
    with open(args.layout, "w") as fh:
        fh.write("contig\tposition\tread\torientation\n")
        for cid, contig in enumerate(contigs):
            for t, (rid, orient) in enumerate(zip(contig.reads,
                                                  contig.orientations)):
                fh.write(f"contig{cid}\t{t}\t{rid}\t"
                         f"{'-' if orient else '+'}\n")
    print(f"wrote {args.layout}: {len(contigs)} contigs "
          f"(largest {len(contigs[0])} reads)")
    return 0


def _cmd_stats(args) -> int:
    _print_stats(_run(args), args.machine)
    return 0


def _cmd_serve(args) -> int:
    pcfg = PipelineConfig(k=args.k, nprocs=args.nprocs,
                          align_mode=args.align_mode,
                          align_impl=args.align_impl,
                          kmer_impl=args.kmer_impl,
                          spgemm_impl=args.spgemm_impl, fuzz=args.fuzz,
                          depth_hint=args.depth_hint,
                          error_hint=args.error_hint,
                          backend=args.backend, workers=args.workers,
                          executor=args.executor,
                          seed_mode=args.seed_mode, seed_w=args.seed_w)
    service = AssemblyService(ServiceConfig(
        host=args.host, port=args.port, refresh_mode=args.refresh_mode,
        cache_entries=args.cache_entries, pipeline=pcfg),
        fault_spec=args.fault_plan)
    if args.initial is not None:
        reads = read_fasta(args.initial)
        summary = service.ingest(reads.names,
                                 [decode(s) for s in reads.seqs])
        print(f"ingested {summary['ingested']} reads from {args.initial} "
              f"(version {summary['version']}, "
              f"{summary['refresh_seconds']:.2f}s)")
    server = make_server(service)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} "
          f"(POST /reads, GET /version /stats /contigs /overlaps/<id>)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "assemble":
        return _cmd_assemble(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
