"""Run a fixed grid of CLI invocations on this tree and on a git revision and
compare their stdout bytes and exit codes.

    python tools/cli_grid.py [--against REV]

REV (default HEAD) is unpacked with ``git archive`` into a temporary
directory.  Each tree runs the whole grid in one subprocess of its own,
calling its ``painleve_hh.cli.main`` in process and restoring the default
precision after every run.  The ``fit`` runs read Weierstrass p series
files that each tree writes with its own ``weierstrass_p_series``, under
the same relative names, so a change to the series shows in the fits.
Prints one line per differing run and a summary; exits 0 when every run
matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import traceback
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

P_TERMS = 30
P_BITS = ("64", "256", "1024")
# (file name, g2, g3, bits): exact data, then g2 and g3 rounded at each
# precision; the 64-bit file's coefficients come out at 256 bits, the
# precision of the exact 1/20 and 1/28 that form c_2 and c_3
P_FILES = [("p_exact.json", "1/3", "-2/5", None)] + [
    (f"p_rounded_{bits}.json", "0.3", "-0.7", bits) for bits in P_BITS]

FREE = ("--p2", "1/3", "--p4", "-2/5")


def _grid() -> list[list[str]]:
    runs = []
    # analyze: the six candidates and four other C values on three lambdas,
    # the precision floor and ceiling, C near zero and the double roots
    for C, lam in product(("-16/5", "-4/3", "-1", "-6", "-16", "-2", "-13/4",
                           "7/9", "-3.2", "0.7"), ("1/9", "1", "0.3")):
        runs.append(["analyze", "--C", C, "--lambda", lam, "--candidates"])
    runs += [["--precision-bits", "64", "analyze", "--C", "-16/5"],
             ["--precision-bits", "512", "analyze", "--C", "-16/5"],
             ["--precision-bits", "64", "analyze", "--C", "0"],
             ["--precision-bits", "64", "analyze", "--C", "1e-30"],
             ["--precision-bits", "64", "analyze", "--C", "-1e-30"],
             ["analyze", "--C", "-23/24"],
             ["analyze", "--C", "48"],
             # Case-1 resonances 5/2 +- 2.45e100
             ["analyze", "--C", "-1e200", "--lambda", "1"],
             # the table at the precision extremes: a rounded Case-1 pair at
             # 1024 bits, a rounded Case-2 pair near s = 0 at 64 bits and a
             # complex Case-1 pair at 64 bits
             ["--precision-bits", "1024", "analyze", "--C", "-13/4"],
             ["--precision-bits", "64", "analyze", "--C", "47.9"],
             ["--precision-bits", "64", "analyze", "--C", "7/9",
              "--lambda", "1"]]
    for case in ("C165", "C43"):
        runs += [["sweep", "--case", case, "--lambda-grid", "0:2:1/4"],
                 ["--precision-bits", "64", "sweep", "--case", case,
                  "--lambda-grid", "0:1:1/3"],
                 ["sweep", "--case", case, "--lambda-grid=-1:1:1/8"]]
    # series at N = 40 over cases, lambdas, roots, free values and bits
    for case, lam, branch, free, bits in product(
            ("C165", "C43"), ("1/9", "0.3", "2"), ("plus", "minus"),
            ((), FREE), P_BITS):
        runs.append(["--precision-bits", bits, "series", "--case", case,
                     "--lambda", lam, "--branch", branch, "--N", "40", *free])
    # every branch of both cases at N = 120
    signs = {"C165": [("--x-sign", s) for s in "+-"],
             "C43": [("--residue-sign", s) for s in "+-"]}
    for case, lam in product(("C165", "C43"), ("1/9", "1/2", "1", "0.3")):
        for branch in ("plus", "minus"):
            for flag, sign in signs[case]:
                runs.append(["series", "--case", case, "--lambda", lam,
                             "--branch", branch, f"{flag}={sign}",
                             "--N", "120"])
        if case == "C43":
            runs.append(["series", "--case", case, "--lambda", lam,
                         "--branch", "zero", "--N", "120"])
    runs += [
        ["series", "--case", "C165", "--lambda", "1/9", "--t0", "1/10",
         "--N", "40", *FREE],
        ["series", "--case", "C43", "--lambda", "1/9", "--branch", "zero",
         "--N", "40", "--force"],
        ["series", "--case", "C165", "--x-sign=-", "--lambda", "1/9",
         "--N", "60", *FREE],
        # exponents far apart
        ["--precision-bits", "64", "series", "--case", "C165",
         "--lambda", "1e-100000000", "--p2", "1e-100000000", "--N", "40"],
        ["series", "--case", "C165", "--lambda", "1e300", "--p2", "1e-300",
         "--p4", "1e200", "--N", "40"],
        # rejections
        ["series", "--case", "C165", "--N", "3"],
        ["series", "--case", "C165", "--lambda", "abc"],
        ["--precision-bits", "32", "series", "--case", "C43"],
    ]
    for case, lam, branch in product(("C165", "C43"), ("1/9", "0.3", "2"),
                                     ("plus", "minus")):
        runs.append(["certify", "--case", case, "--lambda", lam,
                     "--branch", branch, "--N", "40"])
    runs += [["certify", "--case", "C165", "--lambda", "1e-1000",
              "--p2", "1e-1000", "--N", "40"],
             ["certify", "--case", "C165", "--lambda", "1/9", "--N", "40",
              "--m-limit", "1"],
             ["certify", "--case", "C165", "--lambda", "1/9", "--N", "40",
              "--epsilon", "1e-30000000"],
             # M = 2**15: the induction threshold lies beyond the scan cap
             ["certify", "--case", "C165", "--lambda", "1/9", "--N", "40",
              "--p4", "100"],
             ["certify", "--case", "C165", "--lambda", "1/9",
              "--epsilon", "-1/10"],
             ["certify", "--case", "C165", "--lambda", "1/9",
              "--m-limit", "0"]]
    runs += [["verify", "--case", "C165", "--lambda", "1/9", "--N", "40",
              *FREE],
             ["--precision-bits", "512", "verify", "--case", "C43",
              "--branch", "minus", "--lambda", "2", "--N", "80"],
             ["verify", "--case", "C165", "--branch", "minus",
              "--lambda", "1/9", "--N", "40"],
             ["verify", "--case", "C165", "--lambda", "1/9",
              "--t-from", "0"],
             # the verify-complex benchmark's own command: exact free
             # values, so its y-series holds exact entries among the
             # imaginary and real ones
             ["--precision-bits", "512", "verify", "--case", "C43",
              "--lambda", "2", "--branch", "minus", "--residue-sign", "+",
              *FREE, "--N", "80", "--tol", "1e-40"]]
    # the integrator on complex (C43 minus) and real (C165) data
    for bits, tol in (("256", "1e-30"), ("1024", "1e-60")):
        runs += [["--precision-bits", bits, "verify", "--case", "C43",
                  "--branch", "minus", "--lambda", "2", "--N", "80",
                  "--tol", tol],
                 ["--precision-bits", bits, "verify", "--case", "C165",
                  "--lambda", "1/9", *FREE, "--N", "60", "--tol", tol]]
    for name, _, _, bits in P_FILES:
        for m, fit_bits in product(("2", "3"), (bits,) if bits else P_BITS):
            runs.append(["--precision-bits", fit_bits, "fit", "--m", m,
                         "--match-order", "25", "--series", name])
    runs.append(["fit", "--series", "missing.json"])
    return runs


GRID = _grid()


def _write_p_files(work: Path) -> None:
    from painleve_hh.jsonio import encode_series
    from painleve_hh.scalars import Scalar
    from painleve_hh.subequation import weierstrass_p_series

    for name, g2, g3, bits in P_FILES:
        if bits is None:
            g2, g3 = (Scalar.exact(Fraction(v)) for v in (g2, g3))
            series = weierstrass_p_series(g2, g3, P_TERMS)
        else:
            g2, g3 = (Scalar.from_real(v, int(bits)) for v in (g2, g3))
            series = weierstrass_p_series(g2, g3, P_TERMS, int(bits))
        (work / name).write_text(json.dumps(encode_series(series)))


def run_grid(src: Path, out: Path) -> None:
    """Run GRID on the package under src, in the current directory, and
    write [exit code, stdout] per run to out as JSON."""
    sys.path.insert(0, str(src))
    from painleve_hh import cli, scalars

    _write_p_files(Path.cwd())
    results = []
    for argv in GRID:
        stdout = io.StringIO()
        previous = scalars.default_precision()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:       # a crash is a result to compare, too
            code = "crash"
            stdout.write(traceback.format_exc().splitlines()[-1])
        finally:
            scalars.set_default_precision(previous)
        results.append([code, stdout.getvalue()])
    out.write_text(json.dumps(results))


def _unpack(rev: str, into: Path) -> Path:
    """Extract the src directory of rev into `into`; return its path."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                         cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(into, **safe)
    return into / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", default="HEAD",
                        help="git revision to compare with (default HEAD)")
    parser.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.tree is not None:
        run_grid(args.tree, args.out)
        return 0
    env = {k: v for k, v in os.environ.items()
           if k not in ("PAINLEVE_PRECISION_BITS", "PYTHONPATH")}
    with tempfile.TemporaryDirectory(prefix="cli-grid-") as tmp:
        tmp = Path(tmp)
        trees = {"this tree": ROOT / "src",
                 args.against: _unpack(args.against, tmp / "rev")}
        procs = {}
        for i, (label, src) in enumerate(trees.items()):
            work = tmp / f"work{i}"
            work.mkdir()
            procs[label] = (work / "results.json", subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--tree", str(src), "--out", str(work / "results.json")],
                cwd=work, env=env))
        failed = [label for label, (_, proc) in procs.items()
                  if proc.wait() != 0]
        if failed:
            print(f"the grid runner failed on {', '.join(failed)}")
            return 1
        ours, theirs = (json.loads(path.read_text())
                        for path, _ in procs.values())
    differing = 0
    for argv, (code, out), (ref_code, ref_out) in zip(GRID, ours, theirs):
        if code != ref_code or out != ref_out:
            differing += 1
            print(f"DIFFERS: {' '.join(argv)}: exit {code} "
                  f"(against {ref_code}), stdout "
                  f"{'same' if out == ref_out else 'differs'}")
    codes = Counter(code for code, _ in ours)
    tally = ", ".join(f"{n} exit {code}" for code, n in sorted(
        codes.items(), key=lambda item: str(item[0])))
    verdict = f"{differing} differ" if differing \
        else "stdout and exit codes identical"
    print(f"{len(GRID)} runs against {args.against}: {verdict} ({tally})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
