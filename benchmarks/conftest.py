"""Benchmark-suite configuration.

Each ``bench_*`` file regenerates one table or figure of the paper: it runs
the corresponding experiment driver, prints the same rows/series the paper
reports, and times the driving computation via pytest-benchmark.

Three conveniences here:

* ``tests/`` goes on ``sys.path``, so the benchmarks that gate a fast
  engine against its reference import it as ``reference.*`` — the same
  package the parity tests use (``tests/reference/``);
* every benchmark's stdout is replayed to the real terminal after the test
  (so the regenerated tables are visible without ``-s``), and
* the same text is appended to ``benchmarks/results/<bench>.txt`` for a
  durable record (EXPERIMENTS.md references these files).

Expensive pipeline runs are memoized in ``repro.eval.experiments._CACHE``,
so drivers that share runs (e.g. Fig. 4 and Figs. 5–8) pay for them once per
session.
"""

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

_TESTS_DIR = str(Path(__file__).resolve().parent.parent / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)


@pytest.fixture(autouse=True)
def _replay_and_record(request, capsys):
    yield
    captured = capsys.readouterr()
    if not captured.out.strip():
        return
    sys.__stdout__.write(captured.out)
    sys.__stdout__.flush()
    RESULTS_DIR.mkdir(exist_ok=True)
    name = request.node.name
    out_file = RESULTS_DIR / f"{Path(request.node.fspath).stem}.txt"
    with open(out_file, "a") as fh:
        fh.write(f"== {name} ==\n{captured.out}\n")
