"""Tests for the command-line interface."""

import pytest

from repro.align import native
from repro.cli import build_parser, main
from repro.core.pipeline import PipelineConfig


def test_simulate_writes_fasta(tmp_path, capsys):
    out = tmp_path / "reads.fa"
    rc = main(["simulate", str(out), "--genome-length", "5000",
               "--depth", "5", "--error-rate", "0.0", "--seed", "3"])
    assert rc == 0
    assert out.exists()
    text = out.read_text()
    assert text.startswith(">")
    assert "wrote" in capsys.readouterr().out


def test_assemble_end_to_end(tmp_path, capsys):
    reads = tmp_path / "reads.fa"
    layout = tmp_path / "layout.tsv"
    main(["simulate", str(reads), "--genome-length", "8000",
          "--depth", "10", "--error-rate", "0.0", "--seed", "1"])
    rc = main(["assemble", str(reads), "--nprocs", "4", "--fuzz", "20",
               "--depth-hint", "10", "--error-hint", "0.0",
               "--layout", str(layout)])
    assert rc == 0
    lines = layout.read_text().splitlines()
    assert lines[0] == "contig\tposition\tread\torientation"
    assert len(lines) > 1
    out = capsys.readouterr().out
    assert "nnz(S)" in out and "contigs" in out


def test_stats_command(tmp_path, capsys):
    reads = tmp_path / "reads.fa"
    main(["simulate", str(reads), "--genome-length", "6000",
          "--depth", "8", "--error-rate", "0.0", "--seed", "2"])
    rc = main(["stats", str(reads), "--nprocs", "1", "--fuzz", "20",
               "--machine", "summit", "--depth-hint", "8",
               "--error-hint", "0.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Summit CPU" in out
    assert "TrReduction" in out


def test_stats_blocked_mode(tmp_path, capsys):
    reads = tmp_path / "reads.fa"
    main(["simulate", str(reads), "--genome-length", "6000",
          "--depth", "8", "--error-rate", "0.0", "--seed", "2"])
    rc = main(["stats", str(reads), "--nprocs", "4", "--fuzz", "20",
               "--align-mode", "chain", "--depth-hint", "8",
               "--error-hint", "0.0", "--overlap-mode", "blocked",
               "--n-strips", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overlap mode: blocked (3 strips)" in out
    assert "peak live matrix bytes per stage:" in out
    assert "SpGEMM" in out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_defaults():
    args = build_parser().parse_args(["assemble", "x.fa"])
    assert args.k == 17 and args.nprocs == 1
    assert args.align_mode == "xdrop"  # the PipelineConfig default


def test_parser_defaults_match_pipeline_config():
    """One source of truth: argparse defaults are PipelineConfig's.

    Regression: the CLI had drifted to depth_hint 20 (config: 30),
    error_hint 0.1 (config: 0.15), and align_mode 'chain' (config:
    'xdrop'); now every shared knob reads its default from the config
    dataclass, so drift is structurally impossible.
    """
    cfg = PipelineConfig()
    for command in ("assemble", "stats"):
        args = build_parser().parse_args([command, "x.fa"])
        assert args.k == cfg.k
        assert args.nprocs == cfg.nprocs
        assert args.align_mode == cfg.align_mode
        assert args.align_impl == cfg.align_impl
        assert args.kmer_impl == cfg.kmer_impl
        assert args.spgemm_impl == cfg.spgemm_impl
        assert args.fuzz == cfg.fuzz
        assert args.depth_hint == cfg.depth_hint
        assert args.error_hint == cfg.error_hint
        assert args.backend == cfg.backend
        assert args.workers == cfg.workers
        assert args.executor == cfg.executor
        assert args.overlap_mode == cfg.overlap_mode
        assert args.n_strips == cfg.n_strips
        assert args.memory_budget == cfg.memory_budget
        assert args.seed_mode == cfg.seed_mode
        assert args.seed_w == cfg.seed_w
        assert args.read_store == cfg.read_store
        assert args.store_dir == cfg.store_dir


def test_stats_prints_kmer_engine(tmp_path, capsys):
    reads = tmp_path / "reads.fa"
    main(["simulate", str(reads), "--genome-length", "6000",
          "--depth", "8", "--error-rate", "0.0", "--seed", "2"])
    rc = main(["stats", str(reads), "--nprocs", "1", "--fuzz", "20",
               "--depth-hint", "8", "--error-hint", "0.0",
               "--kmer-impl", "loop"])
    assert rc == 0
    assert "k-mer counting: loop engine" in capsys.readouterr().out


def test_stats_names_xdrop_kernel(tmp_path, capsys):
    """The x-drop kernel that ran is on the alignment line: "compiled", or
    the numpy fallback with its reason — a 20x slowdown is never silent."""
    reads = tmp_path / "reads.fa"
    main(["simulate", str(reads), "--genome-length", "6000",
          "--depth", "8", "--error-rate", "0.0", "--seed", "2"])
    common = ["stats", str(reads), "--nprocs", "1", "--fuzz", "20",
              "--depth-hint", "8", "--error-hint", "0.0",
              "--align-impl", "batch"]
    capsys.readouterr()
    assert main(common + ["--align-mode", "xdrop"]) == 0
    assert (f"alignment: xdrop mode, batch engine, x-drop kernel: "
            f"{native.kernel_name()}\n") in capsys.readouterr().out
    assert main(common + ["--align-mode", "chain"]) == 0
    assert "alignment: chain mode, batch engine\n" in \
        capsys.readouterr().out


def test_parser_memory_budget_suffixes():
    args = build_parser().parse_args(
        ["stats", "x.fa", "--memory-budget", "64M"])
    assert args.memory_budget == 64 * 2**20
    args = build_parser().parse_args(
        ["stats", "x.fa", "--memory-budget", "123456"])
    assert args.memory_budget == 123456
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["stats", "x.fa", "--memory-budget", "lots"])
    # Nonpositive values die at the parser, not deep inside run_pipeline.
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["stats", "x.fa", "--memory-budget", "0"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["stats", "x.fa", "--n-strips", "0"])


def test_serve_parser_defaults_match_config():
    """The serve subcommand reads every default from ServiceConfig /
    PipelineConfig, so the CLI cannot drift from the library defaults."""
    from repro.service import ServiceConfig

    scfg = ServiceConfig()
    cfg = PipelineConfig()
    args = build_parser().parse_args(["serve"])
    assert args.host == scfg.host
    assert args.port == scfg.port
    assert args.refresh_mode == scfg.refresh_mode
    assert args.cache_entries == scfg.cache_entries
    assert args.initial is None
    assert args.k == cfg.k
    assert args.nprocs == cfg.nprocs
    assert args.align_mode == cfg.align_mode
    assert args.align_impl == cfg.align_impl
    assert args.kmer_impl == cfg.kmer_impl
    assert args.spgemm_impl == cfg.spgemm_impl
    assert args.fuzz == cfg.fuzz
    assert args.depth_hint == cfg.depth_hint
    assert args.error_hint == cfg.error_hint
    assert args.backend == cfg.backend
    assert args.workers == cfg.workers
    assert args.executor == cfg.executor
    assert args.seed_mode == cfg.seed_mode
    assert args.seed_w == cfg.seed_w
