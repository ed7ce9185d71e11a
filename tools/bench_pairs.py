"""Run alternating parent/change pairs of the benchmark and write them as a
BENCH_<n>.json file.

    python tools/bench_pairs.py --against REV --pairs N --seconds S \
        --out BENCH_<n>.json

REV is unpacked with ``git archive`` (its src, perfbench and
BENCHMARK.json) into a temporary directory; the same paths of this tree are
copied next to it,
so both sides start from the same kind of directory.  Both copies are
byte-compiled before the first pair, so neither side's ``setup_s`` times
compiling the package.  For each workload, pair i runs
``perfbench/run.py --seed i --seconds S --trace 0`` on both sides, one run
at a time, the side that goes first alternating from pair to pair.
The file is rewritten after every pair; it holds every run's result line
and, per workload and end-to-end metric of BENCHMARK.json, the medians and
quartiles of each side and the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import mpmath
import mpmath.libmp

ROOT = Path(__file__).resolve().parents[1]
TREE = ("src", "perfbench", "BENCHMARK.json")
WORKLOADS = ("series-real", "verify-complex", "analysis")


def _unpack(rev: str, into: Path) -> Path:
    """Extract the TREE paths of rev into `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, *TREE],
                         cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(into, **safe)
    return into


def _copy(into: Path) -> Path:
    """Copy this tree's TREE paths, without caches or outputs."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in TREE[:-1]:
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy2(ROOT / TREE[-1], into / TREE[-1])
    return into


def src_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (tree / "src" / "painleve_hh").glob("*.py"))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree; its result line as a dict."""
    cmd = [sys.executable, str(Path("perfbench") / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items()
           if k not in ("PAINLEVE_PRECISION_BITS", "PYTHONPATH")}
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree} "
                         f"exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list, metrics: dict) -> dict:
    """Per workload and metric: each side's median and quartiles, and how
    many pairs the change won (metrics maps a name to "lower"/"higher")."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        out = summary[workload] = {}
        for name, better in metrics.items():
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            sign = 1 if better == "lower" else -1
            out[name] = {
                "parent": _stats(parent), "change": _stats(change),
                "pairs": len(pairs),
                "change_better_pairs": sum(sign * (c - p) < 0
                                           for p, c in zip(parent, change)),
                "ties": sum(c == p for p, c in zip(parent, change)),
                "ratio_of_medians": round(statistics.median(change)
                                          / statistics.median(parent), 4)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {
        "against": args.against,
        "command": "python3 perfbench/run.py --workload <workload> "
                   f"--seed <seed> --seconds {args.seconds:g} --trace 0",
        "method": "tools/bench_pairs.py: alternating pairs, parent and change "
                  "on the same seed back to back, the first side alternating "
                  "from pair to pair; the parent runs from a git archive of "
                  "the revision, the change from a copy of its tree, both "
                  "byte-compiled first; one run at a time; quartiles by "
                  "statistics.quantiles(n=4, method='inclusive')",
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "mpmath": mpmath.__version__,
                 "mpmath_backend": mpmath.libmp.BACKEND},
    }
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": _unpack(args.against, Path(tmp) / "parent"),
                 "change": _copy(Path(tmp) / "change")}
        for tree in trees.values():
            if not compileall.compile_dir(tree, quiet=1):
                raise SystemExit(f"bench_pairs: cannot compile {tree}")
        record["src_lines"] = src_lines(trees["change"])
        record["src_lines_parent"] = src_lines(trees["parent"])
        for seed in range(1, args.pairs + 1):
            for workload in WORKLOADS:
                order = ("parent", "change") if seed % 2 else \
                    ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, seed,
                                      args.seconds)
                    runs.append({"workload": workload, "seed": seed,
                                 "side": side, "first": order[0],
                                 "seconds": args.seconds, "result": result})
                record["summary"] = summarize(runs, metrics)
                record["runs"] = runs
                args.out.write_text(json.dumps(record, indent=1) + "\n",
                                    encoding="utf-8")
                print(f"pair {seed}/{args.pairs} {workload}: " + ", ".join(
                    f"{side} {r['result']['metrics']['solve_s']['value']:.4f}"
                    for side, r in zip(order, runs[-2:])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
