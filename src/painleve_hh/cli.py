"""Command-line front end emitting JSON reports.

Rational literals like ``-16/5`` parse to exact scalars; decimal literals
parse to big-floats at the working precision, so the exact fast path is
reachable from the shell.  Exit codes: 0 success, 2 invalid configuration,
3 compatibility violation, 4 certification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import __version__
from .convergence import certify
from .errors import (CompatibilityViolation, ContractViolation,
                     InsufficientPrefix, SingularityApproach,
                     UnsupportedParameter)
from .integrate import check_tolerance, integrate_numeric
from .jsonio import (decode_series, encode_certificate, encode_fit_result,
                     encode_scalar, encode_solution, encode_state,
                     encode_verdict)
from .laurent import (_CASES, BranchSpec, _branch_listing, _merge_coincident,
                      build_series)
from .model import energy, energy_series, residual_of_series, state_from_series
from .painleve import candidate_C_values, classify
from .scalars import (Scalar, default_precision, env_precision,
                      set_default_precision)
from .subequation import fit as fit_subequation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPATIBILITY = 3
EXIT_CERTIFICATION = 4
MAX_GRID_POINTS = 10_000


def parse_scalar(text: str) -> Scalar:
    """'p/q' and integer literals parse exactly; decimals as big-floats."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Scalar.exact(Fraction(int(num), int(den)))
        if "." not in text and "e" not in text.lower():
            return Scalar.exact(int(text))
        return Scalar.from_real(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ContractViolation(f"cannot parse scalar literal {text!r}: {exc}")


def _provenance(args) -> dict:
    config = {k: v for k, v in vars(args).items()
              if k not in ("func",) and v is not None}
    return {
        "tool": "painleve-hh",
        "version": __version__,
        "precision_bits": default_precision(),
        "config": {k: str(v) for k, v in config.items()},
    }


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _peak(values, solution) -> Scalar:
    """Largest magnitude among values (0 if none), at solution precision."""
    return Scalar.from_real(max((v.mag() for v in values), default=0),
                            solution.precision)


def _residual_max(solution) -> Scalar:
    rx, ry = residual_of_series(solution.system(), solution.x, solution.y)
    return _peak(rx.coeffs + ry.coeffs, solution)


def _spec_from_args(args) -> BranchSpec:
    lam = parse_scalar(args.lam)
    free = (parse_scalar(args.p2), parse_scalar(args.p4))
    return BranchSpec(
        case=args.case, lam=lam, root_branch=args.branch,
        x_sign=1 if args.x_sign == "+" else -1,
        residue_sign=1 if args.residue_sign == "+" else -1,
        free_params=free, t0=parse_scalar(args.t0),
    )


def cmd_analyze(args) -> int:
    verdict = classify(parse_scalar(args.C), parse_scalar(args.lam))
    report = {"provenance": _provenance(args), "classification": encode_verdict(verdict)}
    if args.candidates:
        report["candidate_C_values"] = [
            {"C": encode_scalar(c.value), "case": c.case_tag, "note": c.note}
            for c in candidate_C_values()
        ]
    _emit(report, args)
    return EXIT_OK


def cmd_series(args) -> int:
    spec = _spec_from_args(args)
    solution = build_series(spec, args.N,
                            on_incompatible="force" if args.force else "raise")
    report = {
        "provenance": _provenance(args),
        "solution": encode_solution(solution),
        "residual_max": encode_scalar(_residual_max(solution)),
        "energy": encode_scalar(solution.H),
        "f_minus_1": encode_scalar(solution.residue()),
    }
    _emit(report, args)
    return EXIT_OK


def cmd_certify(args) -> int:
    spec = _spec_from_args(args)
    solution = build_series(spec, args.N)
    cert = certify(solution, parse_scalar(args.epsilon),
                   parse_scalar(args.m_limit))
    report = {"provenance": _provenance(args),
              "certificate": encode_certificate(cert)}
    _emit(report, args)
    return EXIT_OK if cert.certified else EXIT_CERTIFICATION


def cmd_fit(args) -> int:
    with open(args.series, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ContractViolation(f"{args.series} is not JSON: {exc}") from None
    obj = payload.get("solution", payload) if isinstance(payload, dict) else payload
    series = decode_series(obj["y"] if isinstance(obj, dict) and "y" in obj else obj)
    result = fit_subequation(series, args.m, args.match_order)
    report = {"provenance": _provenance(args), "fit": encode_fit_result(result)}
    _emit(report, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    t_a, t_b = parse_scalar(args.t_from), parse_scalar(args.t_to)
    tol = check_tolerance(parse_scalar(args.tol))
    solution = build_series(spec, args.N)
    sys_model = solution.system()
    report = {
        "provenance": _provenance(args),
        "residual_max": encode_scalar(_residual_max(solution)),
    }
    es = energy_series(sys_model, solution.x, solution.y)
    report["energy"] = encode_scalar(es.coefficient(0))
    report["energy_nonconstant_max"] = encode_scalar(_peak(
        (c for e, c in zip(es.exponents(), es.coeffs) if e != 0), solution))
    # complex-c1 branches integrate fine: the stepper works over complex
    # states along the real t-path
    s_a = state_from_series(solution.x, solution.y, t_a)
    s_b = state_from_series(solution.x, solution.y, t_b)
    end = integrate_numeric(sys_model, s_a, t_b, tol, center=spec.t0)
    report["numeric_cross_check"] = {
        "series_state": encode_state(s_b),
        "integrated_state": encode_state(end),
        "max_component_diff": encode_scalar(_peak(
            (end.x - s_b.x, end.xt - s_b.xt, end.y - s_b.y, end.yt - s_b.yt),
            solution)),
        "energy_drift": encode_scalar(
            energy(sys_model, end) - energy(sys_model, s_a)),
    }
    _emit(report, args)
    return EXIT_OK


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ContractViolation("grid must be start:end:step")
    try:
        start, end, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ContractViolation(f"bad grid {text!r}: {exc}")
    if step <= 0:
        raise ContractViolation("grid step must be positive")
    count = math.floor((end - start) / step) + 1
    if count > MAX_GRID_POINTS:
        raise ContractViolation(
            f"grid {text!r} has {count} points, more than {MAX_GRID_POINTS}")
    return [start + i * step for i in range(count)]


def cmd_sweep(args) -> int:
    rows = []
    for lam_frac in _parse_grid(args.lambda_grid):
        lam = Scalar.exact(lam_frac)
        listing = _branch_listing(args.case, lam)
        distinct = _merge_coincident(listing)
        merges = [s.merged_with for s in distinct if s.merged_with]
        rows.append({
            "lambda": encode_scalar(lam),
            "nominal_branches": len(listing),
            "distinct_branches": len(distinct),
            "merge_detected": bool(merges),
            "merges": merges,
            "incompatible": [s.label() for s, *_ in listing if not s.compatible],
            "residues": [encode_scalar(residue) for _, _, residue in listing],
        })
    _emit({"provenance": _provenance(args), "sweep": rows}, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painleve-hh",
        description=("Painleve analysis, Laurent/Puiseux special solutions, "
                     "convergence certificates and subequation fits for the "
                     "generalized Henon-Heiles system"),
    )
    parser.add_argument("--precision-bits", type=int, default=None,
                        help="working precision (default 256 or "
                             "PAINLEVE_PRECISION_BITS)")
    parser.add_argument("--output", help="write the JSON report to a file")
    # the same options are accepted after the subcommand; SUPPRESS keeps a
    # sub-level absence from clobbering a root-level value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int,
                        default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify (C, lambda)",
                       parents=[common])
    p.add_argument("--C", required=True)
    p.add_argument("--lambda", dest="lam", default="1")
    p.add_argument("--candidates", action="store_true",
                   help="include the six candidate C values")
    p.set_defaults(func=cmd_analyze)

    def series_args(p):
        p.add_argument("--case", required=True, choices=tuple(_CASES))
        p.add_argument("--lambda", dest="lam", default="1")
        p.add_argument("--branch", default="plus", choices=tuple(
            dict.fromkeys(r for case in _CASES.values() for r in case.roots)))
        p.add_argument("--x-sign", dest="x_sign", default="+", choices=("+", "-"))
        p.add_argument("--residue-sign", dest="residue_sign", default="+",
                       choices=("+", "-"))
        p.add_argument("--p2", default="0",
                       help="free parameter a2 (C165) or f2 (C43)")
        p.add_argument("--p4", default="0",
                       help="free parameter b4 (C165) or f4 (C43)")
        p.add_argument("--t0", default="0")
        p.add_argument("--N", type=int, default=30, help="truncation index")

    p = sub.add_parser("series", help="build one branch as a series report",
                       parents=[common])
    series_args(p)
    p.add_argument("--force", action="store_true",
                   help="keep stepping through an incompatible resonance "
                        "(defect stays visible in the report)")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("certify", help="convergence certificate for a branch",
                       parents=[common])
    series_args(p)
    p.add_argument("--epsilon", default="1/10")
    p.add_argument("--m-limit", dest="m_limit", default="1048576")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("fit", parents=[common],
                       help="fit a first-order subequation to a series")
    p.add_argument("--series", required=True,
                   help="series or solution report JSON file")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--match-order", dest="match_order", type=int, default=25)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", parents=[common],
                       help="residual, energy-constancy and numeric cross-check")
    series_args(p)
    p.add_argument("--t-from", dest="t_from", default="0.3")
    p.add_argument("--t-to", dest="t_to", default="0.5")
    p.add_argument("--tol", default="1e-20")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common],
                       help="grid over lambda, reporting branch counts")
    p.add_argument("--case", required=True, choices=tuple(_CASES))
    p.add_argument("--lambda-grid", dest="lambda_grid", required=True,
                   help="start:end:step with rational entries")
    p.set_defaults(func=cmd_sweep)
    return parser


_parser = functools.cache(build_parser)   # one tree for every main call
_NEGATIVE_VALUE = re.compile(r"^-[0-9][0-9./:eE+-]*$")


def _merge_negative_literals(argv):
    """Let options accept leading-dash values like ``--C -16/5`` or
    ``--lambda-grid -1:1:1/8``; argparse would take them for options."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and i + 1 < len(argv) \
                and _NEGATIVE_VALUE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(_merge_negative_literals(argv))
    previous = default_precision()
    try:
        bits = args.precision_bits
        if bits is None:
            bits = env_precision()
        if bits is not None:
            set_default_precision(bits)
    except ContractViolation as exc:
        parser.exit(EXIT_CONFIG, f"error: {exc}\n")
    try:
        return args.func(args)
    except (ContractViolation, UnsupportedParameter, InsufficientPrefix,
            SingularityApproach, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except CompatibilityViolation as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_COMPATIBILITY
    finally:
        set_default_precision(previous)


if __name__ == "__main__":
    sys.exit(main())
