"""The committed perf trajectory: every BENCH_*.json at the repository root.

A performance change commits one such file with the ``perfbench/run.py``
result lines of its parent and of the change on every workload.  These
checks keep each file readable and keep a failed or wrong run from being
committed as a data point.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("series-real", "verify-complex", "analysis")
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_holds_parent_and_change_runs(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert type(bench["src_lines"]) is int and bench["src_lines"] > 0
    sides = {(run["workload"], run["side"]) for run in bench["runs"]}
    for workload in WORKLOADS:
        for side in ("parent", "change"):
            assert (workload, side) in sides, (workload, side)
    for run in bench["runs"]:
        assert type(run["seed"]) is int and run["seconds"] > 0
        result = run["result"]
        assert result["correct"] is True, run
        assert result["failed"] == 0, run
        assert result["metrics"]["solve_s"]["value"] > 0
