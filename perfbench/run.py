#!/usr/bin/env python3
"""perfbench: the painleve-hh command line timed end to end.

Each workload is a fixed list of ``painleve_hh.cli.main(argv)`` calls,
run in this process one at a time in a closed loop for ``--seconds``
seconds.  Every call's report is checked; a failed check counts the call
as failed.  The last line printed is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, from spans and counters
that ``tracing.Tracer`` installs around the program's functions (half of the
time runs untraced, to measure the tracing overhead).  Usage, from the
repository root::

    python3 perfbench/run.py --workload series-real --seed 1 --seconds 35 --trace 0

See perfbench/NOTES.md for the workloads, the metrics and a baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import (CANDIDATE_C, OUT_DIR, SIZES, WORKLOADS,  # noqa: E402
                    make_inputs)

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

# Median reference_job() time on the baseline machine (see NOTES.md):
# solve_s is wall time scaled to the speed the host had then.
REFERENCE_S = 0.044

# The paper's classification table: label of each candidate C, and the
# single lambda at which C = -1 and C = -16 are integrable candidates.
INTEGRABLE_AT = {Fraction(-1): Fraction(1), Fraction(-16): Fraction(1, 16)}
LABELS = {Fraction(-6): "integrable-candidate",
          Fraction(-16, 5): "three-parameter-candidate",
          Fraction(-4, 3): "three-parameter-candidate",
          Fraction(-2): "logarithmic"}

# Correctness gates, as the acceptance tests state them.
RESIDUAL_GATE = 1e-25
ENERGY_GATE = 1e-25
XCHECK_GATE = 1e-30

# Data kind of each workload's coefficients, for the convolution probe.
CONV_KIND = {"series-real": "real", "verify-complex": "complex",
             "analysis": "exact"}


def _log(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")


# -- set-up -------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PAINLEVE_PRECISION_BITS", None)
    return env


def timed_setup(workload: str, seed: int, size: str, out: Path) -> list:
    """Run the set-up step in fresh interpreters; return each wall time.

    One untimed run first writes the bytecode caches a user's later runs
    would find.
    """
    cmd = [sys.executable, str(Path("perfbench") / "inputs.py"),
           "--workload", workload, "--seed", str(seed), "--size", size,
           "--out", str(out)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        # a blocking wait: Popen.wait(timeout) polls and rounds up to 50 ms
        with subprocess.Popen(cmd, cwd=ROOT, env=_child_env()) as proc:
            watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"perfbench: set-up exited with {code}")
        if i:
            times.append(elapsed)
    return times


# -- checks -------------------------------------------------------------------


def _frac(obj) -> Fraction | None:
    """An exact scalar of a report as a Fraction, None when rounded."""
    if "num" not in obj:
        return None
    return Fraction(int(obj["num"]), int(obj["den"]))


def _mag(obj):
    """|value| of a report scalar, at the digits the report carries."""
    q = _frac(obj)
    if q is not None:
        return abs(mpmath.mpf(q.numerator) / q.denominator)
    return abs(mpmath.mpc(obj["re"], obj["im"]))


def expected_label(C: Fraction, lam: Fraction) -> str:
    if C in INTEGRABLE_AT:
        return "integrable-candidate" if lam == INTEGRABLE_AT[C] else "generic"
    return LABELS.get(C, "generic")


def residue_reference(lam: Fraction) -> list:
    """C43 residues of the five nominal branches, from the closed form.

    f_{-1}**2 = (105 - 140*lam +- sqrt(7*(1216*lam**2 - 1824*lam + 783)))/385,
    in the order zero, plus(+, -), minus(+, -); evaluated here with mpmath
    alone so that the check does not share code with the program.
    """
    lam = mpmath.mpf(lam.numerator) / lam.denominator
    root = mpmath.sqrt(7 * (1216 * lam ** 2 - 1824 * lam + 783))
    out = [mpmath.mpc(0)]
    for sign in (1, -1):
        w = mpmath.sqrt(mpmath.mpc((105 - 140 * lam + sign * root) / 385))
        out += [w, -w]
    return out


class Checker:
    """Checks each op's report and keeps the worst accuracy figures."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.worst = {}          # accuracy figure -> largest error seen
        self.precisions = set()  # precision_bits the reports gave

    def _note(self, key: str, value) -> None:
        if key not in self.worst or value > self.worst[key]:
            self.worst[key] = value

    def check(self, op: dict, code, report) -> list:
        if code != 0:
            return [f"exit code {code}"]
        if report is None:
            return ["no JSON report"]
        problems = []
        bits = report.get("provenance", {}).get("precision_bits")
        self.precisions.add(bits)
        if bits != self.inputs["precision_bits"]:
            problems.append(f"ran at {bits} bits, expected "
                            f"{self.inputs['precision_bits']}")
        kind = op["kind"]
        getattr(self, f"_check_{kind}")(op, report, problems)
        return problems

    def _gate(self, name, obj, gate, problems):
        value = _mag(obj)
        self._note(name, value)
        if not value <= gate:
            problems.append(f"{name} {mpmath.nstr(value, 5)} > {gate}")

    def _check_series(self, op, report, problems):
        self._gate("residual", report["residual_max"], RESIDUAL_GATE, problems)

    def _check_certify(self, op, report, problems):
        verdict = report["certificate"]["verdict"]
        if verdict != "certified":
            problems.append(f"certificate verdict {verdict}")

    def _check_verify(self, op, report, problems):
        self._gate("residual", report["residual_max"], RESIDUAL_GATE, problems)
        self._gate("energy", report["energy_nonconstant_max"], ENERGY_GATE,
                   problems)
        self._gate("xcheck",
                   report["numeric_cross_check"]["max_component_diff"],
                   XCHECK_GATE, problems)

    def _check_analyze(self, op, report, problems):
        want = expected_label(Fraction(op["C"]), Fraction(op["lambda"]))
        got = report["classification"]["label"]
        if got != want:
            problems.append(f"C={op['C']} lambda={op['lambda']}: label {got}, "
                            f"table says {want}")

    def _check_candidates(self, op, report, problems):
        values = sorted(_frac(c["C"]) for c in report["candidate_C_values"])
        if values != sorted(Fraction(c) for c in CANDIDATE_C):
            problems.append(f"candidate C values {values}")

    def _check_sweep(self, op, report, problems):
        rows = report["sweep"]
        if len(rows) != op["rows"]:
            problems.append(f"{len(rows)} sweep rows, expected {op['rows']}")
        for row in rows:
            if row["nominal_branches"] != 5:
                problems.append(f"lambda {row['lambda']}: "
                                f"{row['nominal_branches']} nominal branches")
                continue
            with mpmath.workprec(2 * self.inputs["precision_bits"]):
                ref = residue_reference(_frac(row["lambda"]))
                for got, want in zip(row["residues"], ref):
                    q = _frac(got)
                    value = mpmath.mpc(q.numerator) / q.denominator \
                        if q is not None else mpmath.mpc(got["re"], got["im"])
                    self._note("residue", abs(value - want))

    def _check_fit(self, op, report, problems):
        fit = report["fit"]
        if op["m"] == 3:
            if fit["nullspace_dim"] != 4:
                problems.append(f"m=3 nullspace_dim {fit['nullspace_dim']}")
            return
        params = self.inputs["params"]
        g2, g3 = Fraction(params["g2"]), Fraction(params["g3"])
        # y'^2 = 4 y^3 - g2 y - g3; the program scales y^3 to 1
        want = {"0,2": Fraction(1), "3,0": Fraction(-4), "1,0": g2, "0,0": g3}
        want = {k: v / -4 for k, v in want.items()}
        if fit["nullspace_dim"] != 1:
            problems.append(f"m=2 nullspace_dim {fit['nullspace_dim']}")
            return
        got = {k: _frac(v) for k, v in fit["basis"][0]["h"].items()}
        if got != want:
            problems.append(f"m=2 basis {got}, expected {want}")

    def accuracy_bits(self, workload: str) -> float:
        """-log2 of the largest series residual, or on analysis of the
        largest error of the sweep's rounded residues."""
        key = "residue" if workload == "analysis" else "residual"
        return self.bits(self.worst[key]) if key in self.worst else 0.0

    def bits(self, error) -> float:
        # a zero error would mean exact results; none of the figures is
        # exact on these workloads, so the floor only guards the logarithm
        error = max(error, mpmath.mpf(2) ** -4096)
        return float(-mpmath.log(error, 2))


# -- running ops --------------------------------------------------------------


class Runner:
    def __init__(self, main, scalars, inputs: dict, checker: Checker):
        self.main = main
        self.scalars = scalars
        self.ops = inputs["ops"]
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.op_times = {}       # op label -> wall time of each call
        self.reference_s = []    # reference_job() time before each iteration

    def run_op(self, op: dict) -> float:
        out, err = io.StringIO(), io.StringIO()
        previous = self.scalars.default_precision()
        code = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:       # a crash is a failed op; the run goes on
            err.write(traceback.format_exc())
        finally:
            elapsed = time.perf_counter() - start
            # cli.main leaves --precision-bits in force; undo it per op
            self.scalars.set_default_precision(previous)
        self.attempted += 1
        label = op["kind"] + (f" m={op['m']}" if "m" in op else "")
        self.op_times.setdefault(label, []).append(elapsed)
        try:
            report = json.loads(out.getvalue()) if code == 0 else None
            problems = self.checker.check(op, code, report)
        except (ValueError, LookupError, TypeError) as exc:
            problems = [f"malformed report: {exc!r}"]
        if problems:
            self.failed += 1
            _log(f"FAILED {' '.join(op['argv'])}: {'; '.join(problems)}")
            if err.getvalue():
                _log(err.getvalue().strip())
        return elapsed

    def iteration(self) -> float:
        """Run every op once; return the summed wall time of the calls."""
        return sum(self.run_op(op) for op in self.ops)

    def loop(self, seconds: float) -> list:
        """Iterate for ``seconds``; each iteration follows a reference job."""
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            self.reference_s.append(reference_job())
            samples.append(self.iteration())
        return samples


def reference_job() -> float:
    """Wall time of a fixed job that shares no code with the program.

    The host's speed drifts by 20% and more over minutes, and it drifts
    alike for this job and for the program: both are pure-Python mpmath
    arithmetic inside precision contexts plus Fraction arithmetic.
    ``solve_s`` divides each iteration's time by the time of the job run
    just before it, which takes the drift out.  Garbage collection is off
    during the job so that its time does not depend on the size of the
    program's heap.
    """
    mp = mpmath.mp
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        with mp.workprec(256):
            xs = [mpmath.mpc(mpmath.mpf(i) / 7, mpmath.mpf(1) / (i + 3))
                  for i in range(48)]
        acc = mpmath.mpc(0)
        for i in range(48):
            for j in range(48 - i):
                with mp.workprec(256):
                    acc = acc + xs[i] * xs[j]
        qs = [Fraction(i, i + 11) for i in range(1, 120)]
        total = Fraction(0)
        for a in qs:
            for b in qs[:30]:
                total += a * b
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


# -- microprobes ---------------------------------------------------------------


def probe_scalar_mul_ns(Scalar, bits: int) -> dict:
    """Median ns per Scalar multiplication, by kind, at ``bits``."""
    pairs = {
        "exact": (Scalar.exact(-7, 9, bits), Scalar.exact(5, 11, bits)),
        "real": (Scalar.from_real("0.70710678", bits),
                 Scalar.from_real("-1.3", bits)),
        "complex": (Scalar.from_complex("0.6", "-0.8", bits),
                    Scalar.from_complex("1.1", "0.3", bits)),
    }
    reps = 2000
    out = {}
    for kind, (a, b) in pairs.items():
        samples = []
        for _ in range(7):
            start = time.perf_counter()
            for _ in range(reps):
                a * b
            samples.append((time.perf_counter() - start) / reps * 1e9)
        out[kind] = statistics.median(samples)
    return out


def probe_conv80_us(Scalar, PuiseuxSeries, kind: str, bits: int) -> float:
    """Median us for the 80-term product of two 80-term series."""
    rng = random.Random(80)

    def coeff():
        p, q = rng.choice((-9, -5, -2, 1, 3, 7)), rng.randint(1, 9)
        if kind == "exact":
            return Scalar.exact(p, q, bits)
        if kind == "real":
            return Scalar.from_real(f"{p / q:.12f}", bits)
        return Scalar.from_complex(f"{p / q:.12f}", f"{q / p:.12f}", bits)

    a = PuiseuxSeries(0, 1, [coeff() for _ in range(80)])
    b = PuiseuxSeries(0, 1, [coeff() for _ in range(80)])
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        a * b
        samples.append((time.perf_counter() - start) * 1e6)
    return statistics.median(samples)


# -- metrics -------------------------------------------------------------------


def tail(samples: list) -> dict:
    """Sample count and the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median_s": statistics.median(ordered)}
    if n > 10:
        out[f"p{100 * (n - 10) / n:.1f}_s"] = ordered[n - 11]
    return out


def per_layer(tracer, traced: list, untraced: list, probes: dict,
              checker: Checker) -> tuple:
    """Per-layer metric values, per traced iteration, and the details."""
    s = tracer.summary()
    calls, incl, booked = s["calls"], s["inclusive_s"], s["booked_s"]
    n = len(traced)
    exact, rounded = tracer.scalar_tally
    counts = tracer.counts

    def per_iter(value):
        return value / n

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    steps = calls.get("laurent.step", 0)
    taylor = counts.get("integrate.steps", 0)
    values = {
        "laurent.build_series.self_s": per_iter(
            booked.get("laurent.build_series", 0.0)),
        "laurent.steps": per_iter(steps),
        "laurent.step_us": ratio(incl.get("laurent.step", 0.0), steps, 1e6),
        "laurent.enumerate_branches.s": per_iter(
            incl.get("laurent.enumerate_branches", 0.0)),
        "model.energy_series.calls": per_iter(
            calls.get("model.energy_series", 0)),
        "model.energy_series.s": per_iter(
            incl.get("model.energy_series", 0.0)),
        "model.residual_of_series.s": per_iter(
            incl.get("model.residual_of_series", 0.0)),
        "series.mul.calls": per_iter(calls.get("series.mul", 0)),
        "series.mul.s": per_iter(incl.get("series.mul", 0.0)),
        "series.mul.macs": per_iter(counts.get("series.mul.macs", 0)),
        "series.conv80_us": probes["conv80_us"],
        "scalars.ops": per_iter(exact + rounded),
        "scalars.exact_share": ratio(exact, exact + rounded),
        "scalars.mul_ns.exact": probes["mul_ns"]["exact"],
        "scalars.mul_ns.real": probes["mul_ns"]["real"],
        "scalars.mul_ns.complex": probes["mul_ns"]["complex"],
        "integrate.integrate_numeric.s": per_iter(
            incl.get("integrate.integrate_numeric", 0.0)),
        "integrate.steps": per_iter(taylor),
        "integrate.step_ms": ratio(
            incl.get("integrate.integrate_numeric", 0.0), taylor, 1e3),
        "convergence.certify.s": per_iter(
            incl.get("convergence.certify", 0.0)),
        "convergence.bound_evals": per_iter(
            counts.get("convergence.bound_evals", 0)),
        "painleve.classify.calls": per_iter(calls.get("painleve.classify", 0)),
        "painleve.classify.s": per_iter(incl.get("painleve.classify", 0.0)),
        "linalg.solve_linear.s": per_iter(
            incl.get("linalg.solve_linear", 0.0)),
        "linalg.solve_linear.cells": per_iter(
            counts.get("linalg.solve_linear.cells", 0)),
        "subequation.fit.self_s": per_iter(
            booked.get("subequation.fit", 0.0)),
        "jsonio.s": per_iter(sum(v for k, v in booked.items()
                                 if k.startswith("jsonio."))),
        "cli.self_s": per_iter(booked.get("cli.main", 0.0)),
        "model.residual_bits": checker.bits(checker.worst["residual"])
        if "residual" in checker.worst else 0.0,
        "integrate.xcheck_bits": checker.bits(checker.worst["xcheck"])
        if "xcheck" in checker.worst else 0.0,
        "trace.overhead": statistics.median(traced)
        / statistics.median(untraced),
    }
    layer_self = {}
    for name, value in booked.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + value / n
    details = {"layer_self_s": layer_self,
               "traced_solve_s": statistics.mean(traced),
               "accounted": sum(booked.values()) / sum(traced)}
    return values, details


# -- main ---------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Time the painleve-hh CLI on one seeded workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=tuple(SIZES),
                        help="'smoke' runs reduced N (the self-test)")
    return parser.parse_args(argv)


def load_program():
    """Import the package from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "painleve_hh" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}")
    os.environ.pop("PAINLEVE_PRECISION_BITS", None)
    sys.path.insert(0, str(src))
    from painleve_hh import cli, scalars
    from painleve_hh.series import PuiseuxSeries
    if Path(cli.__file__).resolve().parent != src / "painleve_hh":
        raise SystemExit(f"perfbench: imported {cli.__file__}, not {src}")
    return cli, scalars, PuiseuxSeries


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    cli, scalars, PuiseuxSeries = load_program()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{args.size}"
    inputs_path = OUT_DIR / f"inputs-{tag}.json"
    setup_times = timed_setup(args.workload, args.seed, args.size,
                              inputs_path)
    with open(inputs_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    if inputs != make_inputs(args.workload, args.seed, args.size):
        raise SystemExit("perfbench: set-up wrote other inputs than the seed "
                         "gives")

    checker = Checker(inputs)
    runner = Runner(cli.main, scalars, inputs, checker)
    runner.iteration()                     # warm-up: lazy set-up, caches
    bits = inputs["precision_bits"]
    result = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "inputs": inputs["params"],
              "setup_s": setup_times}
    if args.trace == 0:
        samples = runner.loop(args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ratios = [t / r for t, r in zip(samples, runner.reference_s)]
        values = {
            "solve_s": statistics.median(ratios) * REFERENCE_S,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_kb / 1024,
            "accuracy_bits": checker.accuracy_bits(args.workload),
        }
        result["solve"] = tail(samples)
        result["solve_samples_s"] = samples
        result["reference_s"] = runner.reference_s
        result["op_median_s"] = {label: statistics.median(times)
                                 for label, times in runner.op_times.items()}
    else:
        from tracing import Tracer
        probes = {
            "mul_ns": probe_scalar_mul_ns(scalars.Scalar, bits),
            "conv80_us": probe_conv80_us(scalars.Scalar, PuiseuxSeries,
                                         CONV_KIND[args.workload], bits),
        }
        untraced = runner.loop(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        runner.main = tracer.span("cli.main", cli.main)
        try:
            traced = runner.loop(args.seconds / 2)
        finally:
            tracer.uninstall()
            runner.main = cli.main
        values, details = per_layer(tracer, traced, untraced, probes, checker)
        result.update(details, untraced_s=untraced, traced_s=traced)
        tracer.dump(OUT_DIR / f"spans-{tag}.jsonl")
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in _benchmark_spec()[kind]}
    result["attempted"], result["failed"] = runner.attempted, runner.failed
    result["precision_bits_reported"] = sorted(checker.precisions, key=str)
    with open(OUT_DIR / f"result-{tag}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"inputs": inputs["params"],
                      "setup_s": setup_times,
                      "solve": result.get("solve")}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
