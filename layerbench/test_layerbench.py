"""Self-tests of the benchmark: exact counts repeat, and the seed matters.

Run explicitly (the repository's test suite does not collect this file)::

    python3 -m pytest layerbench/test_layerbench.py -q

Each workload runs through ``run.py`` in a fresh interpreter with
``--trace 1``, for a single operation (``--seconds 0``; one service session
for ``service-stream``).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

#: Counts the program computes deterministically from its input.
EXACT = ("seqs.n_kmers", "overlap.nnz_a", "overlap.nnz_c", "overlap.nnz_r",
         "tr.nnz_s", "tr.rounds", "blocked.n_strips", "service.cache.hits",
         "service.cache.misses")


def _run(workload: str, seed: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "layerbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600)


def _observe(workload: str, seed: int) -> tuple[dict, tuple[str, ...]]:
    """Exact counts and the S/R output digest of one traced run."""
    proc = _run(workload, seed)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    counts = {k: v for k, v in metrics.items()
              if k in EXACT or k.startswith("comm.")}
    return counts, re.search(r"digest S=(\w+) R=(\w+)", proc.stderr).groups()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_and_follow_the_seed(workload):
    first = _observe(workload, seed=1)
    assert _observe(workload, seed=1) == first
    counts, digest = _observe(workload, seed=2)
    # The seed reaches the generator: the output changes.
    assert digest != first[1]
    if workload != "service-stream":
        # The batch workloads draw their sequencing errors from the seed, so
        # their counts change.  The service's seed only reorders the same
        # reads and picks the queries: its final counts are the same by
        # design, and its cache counts can coincide (seeds 1 and 2 both miss
        # 514 times).
        assert counts != first[0]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "layerbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / "layerbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(WORKLOADS[0], seed=1, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
