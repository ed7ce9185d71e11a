#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs each workload once at reduced N (``--size smoke``), untraced and
traced, and asserts that the last line is the result object, that every
check passed, and that every metric BENCHMARK.json names appears with its
unit and a finite value.  It also runs the benchmark in a directory that
holds only BENCHMARK.json and perfbench/, where it must fail without
printing a result.  Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]
TIMEOUT_S = 170


def _run(cwd: Path, workload: str, trace: int, size: str = "smoke"):
    cmd = [sys.executable, *RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(spec: dict, workload: str, trace: int) -> list:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}: {proc.stderr[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    kind = "end_to_end" if trace == 0 else "per_layer"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        entry = got.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, want {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif trace == 0 and value == 0:
            problems.append(f"{name}: end-to-end value is 0")
    return problems


def check_bare_directory() -> list:
    """Without the program's source the benchmark must fail, silently."""
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*"):
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = _run(bare, "analysis", 0, "full")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 without the program source")
    if '"metrics"' in proc.stdout:
        problems.append("printed a result without the program source")
    return problems


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failed = False
    cases = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    for workload, trace in cases:
        problems = check_result(spec, workload, trace)
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {workload} --trace {trace}")
        for problem in problems:
            print(f"  {problem}")
    problems = check_bare_directory()
    failed |= bool(problems)
    print(f"{'FAIL' if problems else 'PASS'} bare directory fails cleanly")
    for problem in problems:
        print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
