"""Seeded inputs for the perfbench workloads.

``make_inputs(workload, seed)`` draws every free value of a workload from
its seed and returns the command lines the benchmark passes to
``painleve_hh.cli.main``, together with the values the checks need.  The
same workload and seed always give the same inputs.

Run as a script, this module is the benchmark's timed set-up step: a fresh
interpreter imports ``painleve_hh.cli``, draws the inputs, writes the
Weierstrass series file the ``fit`` commands read, and writes the inputs to
a JSON file::

    python3 perfbench/inputs.py --workload analysis --seed 1 \
        --out perfbench/out/inputs.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path("perfbench") / "out"     # relative to ROOT, the working dir

WORKLOADS = ("series-real", "verify-complex", "analysis")

# The six C values of the paper's candidate table, in that table's order.
CANDIDATE_C = ("-1", "-6", "-16", "-16/5", "-4/3", "-2")

# Full-size problem parameters, and the reduced ones of the self-test.
SIZES = {
    "full": {"series_N": 120, "certify_N": 40, "verify_N": 80,
             "n_lambda": 4, "p_terms": 30},
    "smoke": {"series_N": 40, "certify_N": 40, "verify_N": 80,
              "n_lambda": 2, "p_terms": 30},
}


def _rational(rng: random.Random) -> Fraction:
    """A nonzero rational with numerator in [-3, 3] and denominator in [1, 8]."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 8))


def _text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Inputs of one workload: the drawn parameters and the op list.

    Each op is ``{"kind": ..., "argv": [...]}`` plus what its check needs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = SIZES[size]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "series-real":
        a2, b4 = _rational(rng), _rational(rng)
        branch = ["--case", "C165", "--lambda", "1/9", "--branch", "plus",
                  "--p2", _text(a2), "--p4", _text(b4)]
        return {
            "params": {"a2": _text(a2), "b4": _text(b4)},
            "precision_bits": 256,
            "ops": [
                {"kind": "series", "argv": ["series", *branch,
                                            "--N", str(sizes["series_N"])]},
                {"kind": "certify", "argv": ["certify", *branch,
                                             "--N", str(sizes["certify_N"]),
                                             "--epsilon", "1/10"]},
            ],
        }
    if workload == "verify-complex":
        f2, f4 = _rational(rng), _rational(rng)
        argv = ["--precision-bits", "512", "verify", "--case", "C43",
                "--lambda", "2", "--branch", "minus", "--residue-sign", "+",
                "--p2", _text(f2), "--p4", _text(f4),
                "--N", str(sizes["verify_N"]), "--tol", "1e-40"]
        return {
            "params": {"f2": _text(f2), "f4": _text(f4)},
            "precision_bits": 512,
            "ops": [{"kind": "verify", "argv": argv}],
        }
    lambdas: list[Fraction] = []
    while len(lambdas) < sizes["n_lambda"]:
        lam = Fraction(rng.randint(1, 3), rng.randint(1, 16))
        if lam not in lambdas:
            lambdas.append(lam)
    g2, g3 = _rational(rng), _rational(rng)
    series_file = str(OUT_DIR / f"wp-seed{seed}-{size}.json")
    ops = [{"kind": "analyze", "C": c, "lambda": _text(lam),
            "argv": ["analyze", "--C", c, "--lambda", _text(lam)]}
           for c in CANDIDATE_C for lam in lambdas]
    ops.append({"kind": "candidates",
                "argv": ["analyze", "--C", "-16/5", "--lambda",
                         _text(lambdas[0]), "--candidates"]})
    ops.append({"kind": "sweep", "rows": 9,
                "argv": ["sweep", "--case", "C43", "--lambda-grid", "0:2:1/4"]})
    ops.append({"kind": "fit", "m": 2,
                "argv": ["fit", "--m", "2", "--match-order", "25",
                         "--series", series_file]})
    ops.append({"kind": "fit", "m": 3,
                "argv": ["fit", "--m", "3", "--match-order", "35",
                         "--series", series_file]})
    return {
        "params": {"lambdas": [_text(v) for v in lambdas],
                   "g2": _text(g2), "g3": _text(g3),
                   "p_terms": sizes["p_terms"], "series_file": series_file},
        "precision_bits": 256,
        "ops": ops,
    }


def write_series_file(inputs: dict) -> None:
    """Write the Weierstrass p series JSON the analysis ``fit`` ops read."""
    from painleve_hh.jsonio import encode_series
    from painleve_hh.scalars import Scalar
    from painleve_hh.subequation import weierstrass_p_series

    params = inputs["params"]
    g2, g3 = Fraction(params["g2"]), Fraction(params["g3"])
    series = weierstrass_p_series(Scalar.exact(g2), Scalar.exact(g3),
                                  params["p_terms"])
    with open(params["series_file"], "w", encoding="utf-8") as fh:
        json.dump(encode_series(series), fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=tuple(SIZES))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import painleve_hh.cli  # noqa: F401  -- the import is part of set-up

    inputs = make_inputs(args.workload, args.seed, args.size)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.workload == "analysis":
        write_series_file(inputs)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(inputs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
