import argparse
import json
from fractions import Fraction

import mpmath
import pytest

from painleve_hh.cli import MAX_GRID_POINTS, _parse_grid, main, parse_scalar
from painleve_hh.errors import ContractViolation
from painleve_hh.scalars import default_precision


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_scalar_literals():
    assert parse_scalar("-16/5").fraction().denominator == 5
    assert parse_scalar("7").is_exact
    assert not parse_scalar("0.25").is_exact
    assert not parse_scalar("1e-20").is_exact
    with pytest.raises(ContractViolation):
        parse_scalar("sqrt(2)")


def test_analyze_three_parameter_case(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--C", "-16/5",
                           "--lambda", "1/9")
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["label"] == "three-parameter-candidate"
    case2 = [b for b in report["classification"]["balances"]
             if b["balance"]["case"] == "Case2"
             and b["balance"]["alpha"] == {"num": "-3", "den": "2"}]
    assert len(case2) == 1
    values = case2[0]["resonances"]["values"]
    nums = sorted(int(v["num"]) for v in values)
    assert nums == [-1, 0, 4, 6]
    assert all(v["den"] == "1" for v in values)


def test_analyze_integrable_case(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--C", "-6", "--lambda", "2")
    assert code == 0
    assert json.loads(out)["classification"]["label"] == "integrable-candidate"


def test_analyze_candidates_block(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--C", "-1", "--candidates")
    assert code == 0
    cands = json.loads(out)["candidate_C_values"]
    assert len(cands) == 6


@pytest.mark.parametrize("C, bits", [
    ("-23/24", "64"), ("-23/24", "256"), ("48", "64"), ("48", "256"),
    ("1e-30", "64"), ("-1e-30", "64")])
def test_analyze_double_resonance(capsys, C, bits):
    # -23/24: Case 1 resonance 5/2 twice; 48: Case 2 resonance 0 twice;
    # +-1e-30: the Case 2 terms alpha*(alpha - 1) and 2b of size 12/|C| cancel
    code, out, err = run_cli(capsys, "--precision-bits", bits, "analyze",
                             "--C", C)
    assert code == 0, err
    assert json.loads(out)["classification"]["label"] == "generic"


def test_analyze_large_negative_C(capsys):
    # the Case-1 resonances 5/2 +- 2.45e100 once crashed a run-time check
    code, out, err = run_cli(capsys, "analyze", "--C", "-1e200", "--lambda", "1")
    assert code == 0, err
    assert json.loads(out)["classification"]["label"] == "generic"


def test_analyze_invalid_C(capsys):
    code, _, err = run_cli(capsys, "analyze", "--C", "0")
    assert code == 2
    assert "C = 0" in err


def test_series_c165(capsys):
    code, out, _ = run_cli(capsys, "series", "--case", "C165",
                           "--lambda", "1/9", "--branch", "plus", "--N", "30")
    assert code == 0
    report = json.loads(out)
    resid = report["residual_max"]
    assert mpmath.mpf(resid["re"]) <= mpmath.mpf("1e-25")
    assert report["solution"]["N"] == 30
    assert report["solution"]["step"] == "1/2"


def test_series_zero_branch_default_lambda(capsys):
    # the default lambda = 1 (classical system) admits the f_{-1} = 0 branch
    code, out, _ = run_cli(capsys, "series", "--case", "C43",
                           "--branch", "zero", "--N", "30")
    assert code == 0
    report = json.loads(out)
    assert report["f_minus_1"] == {"num": "0", "den": "1"}


def test_series_zero_branch_generic_lambda_exit_code(capsys):
    code, _, err = run_cli(capsys, "series", "--case", "C43",
                           "--branch", "zero", "--lambda", "1/9", "--N", "10")
    assert code == 3
    assert "k=2" in err


def test_series_N_too_small(capsys):
    code, _, _ = run_cli(capsys, "series", "--case", "C165", "--N", "3")
    assert code == 2


def test_certify_command(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "--output", str(out_file), "certify",
                         "--case", "C165", "--lambda", "1/9",
                         "--branch", "plus", "--N", "40",
                         "--epsilon", "1/10")
    assert code == 0
    cert = json.loads(out_file.read_text())["certificate"]
    assert cert["verdict"] == "certified"
    assert cert["M"] == {"num": "2", "den": "1"}


def test_fit_command_on_fixture(capsys, tmp_path):
    fixture = {
        "step": "1", "lead": "-2", "complete": True,
        "center": {"num": "0", "den": "1"},
        "coeffs": [{"num": "1", "den": "1"}],
    }
    path = tmp_path / "series.json"
    path.write_text(json.dumps(fixture))
    code, out, _ = run_cli(capsys, "fit", "--series", str(path),
                           "--m", "2", "--match-order", "10")
    assert code == 0
    report = json.loads(out)["fit"]
    assert report["nullspace_dim"] == 1
    h = report["basis"][0]["h"]
    keys = set(h)
    assert keys == {"3,0", "0,2"}


def test_fit_command_on_series_report(capsys, tmp_path):
    path = tmp_path / "sol.json"
    code, _, _ = run_cli(capsys, "--output", str(path), "series",
                         "--case", "C43", "--lambda", "1/9",
                         "--branch", "plus", "--N", "30")
    assert code == 0
    code, out, _ = run_cli(capsys, "fit", "--series", str(path),
                           "--m", "2", "--match-order", "20")
    assert code == 0
    json.loads(out)


_ZEROS = json.dumps({"lead": "-2", "step": "1",
                     "coeffs": [{"num": "0", "den": "1"}] * 40})


@pytest.mark.parametrize("text, options, named", [
    ("{not json", (), "not JSON"),
    ('{"coeffs": []}', (), "'lead'"),
    ("[1, 2]", (), "must be an object"),
    ('{"lead": "-2", "step": "1", "coeffs": [{"re": "inf", "im": "0"}]}', (),
     "'re': 'inf' is not a finite number"),
    ('{"lead": "-2", "step": "1", "coeffs": [], "complete": "false"}', (),
     "'complete': expected true or false"),
    (_ZEROS, ("--m", "1", "--match-order", "20"), "y is constant"),
    (_ZEROS, ("--m", "0"), "m must be a positive integer"),
], ids=["not-json", "missing-lead", "list-payload", "infinite-coefficient",
        "string-complete", "constant-y", "m-zero"])
def test_fit_bad_series_file_exits_2(capsys, tmp_path, text, options, named):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "fit", "--series", str(path), *options)
    assert code == 2
    assert out == ""
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("bits", [0, -5, 32, 63, 64.7])
def test_fit_rejects_scalar_bits_below_the_floor(capsys, tmp_path, bits):
    path = tmp_path / "low.json"
    coeff = {"re": "1.0", "im": "0", "bits": bits}
    path.write_text(json.dumps({"lead": "-2", "step": "1", "coeffs": [coeff]}))
    code, out, err = run_cli(capsys, "fit", "--series", str(path))
    assert (code, out) == (2, "")
    assert "precision must be >= 64 bits" in err


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "C165",
                           "--lambda", "1/9", "--branch", "plus",
                           "--N", "60", "--tol", "1e-20")
    assert code == 0
    report = json.loads(out)
    diff = mpmath.mpf(report["numeric_cross_check"]["max_component_diff"]["re"])
    assert diff <= mpmath.mpf("1e-15")
    assert mpmath.mpf(report["energy_nonconstant_max"]["re"]) \
        <= mpmath.mpf("1e-25")


def test_sweep_detects_merge(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--case", "C43",
                           "--lambda-grid", "1/2:3/2:1/2")
    assert code == 0
    rows = json.loads(out)["sweep"]
    assert len(rows) == 3
    by_lambda = {r["lambda"]["num"] + "/" + r["lambda"]["den"]: r for r in rows}
    assert by_lambda["1/1"]["merge_detected"] is True
    assert by_lambda["1/1"]["distinct_branches"] == 3
    assert by_lambda["3/2"]["merge_detected"] is False
    assert by_lambda["3/2"]["nominal_branches"] == 5
    # lam = 1/2 is the other merge point (minus root collapses onto zero)
    assert by_lambda["1/2"]["merge_detected"] is True


@pytest.mark.parametrize("case, steps, closed_forms", [
    # 9 lambda x 5 specs x the steps k = -1..2 of one compatibility probe
    ("C43", 9 * 5 * 4, 9 * 5),
    # a free c1's closed form is its compatibility: no probe is stepped
    ("C165", 0, 9 * 4),
], ids=["C43", "C165"])
def test_sweep_lists_each_lambda_once(capsys, monkeypatch, case, steps,
                                      closed_forms):
    from painleve_hh import laurent
    calls = {"step": 0, "closed_form": 0}
    step, closed_form = laurent._Recurrence.step, laurent._closed_form

    def counted_step(self, k):
        calls["step"] += 1
        return step(self, k)

    def counted_closed_form(*args):
        calls["closed_form"] += 1
        return closed_form(*args)

    monkeypatch.setattr(laurent._Recurrence, "step", counted_step)
    monkeypatch.setattr(laurent, "_closed_form", counted_closed_form)
    code, _, _ = run_cli(capsys, "sweep", "--case", case,
                         "--lambda-grid", "0:2:1/4")
    assert code == 0
    # each spec's closed form is evaluated once per sweep
    assert calls == {"step": steps, "closed_form": closed_forms}


def test_parse_grid_counts_points_before_building():
    assert _parse_grid("0:1:1/4") == [Fraction(i, 4) for i in range(5)]
    assert _parse_grid("1:0:1/4") == []
    assert len(_parse_grid("0:1:1/9999")) == MAX_GRID_POINTS
    for text, named in (("0:1:1/10000", "more than 10000"),
                        ("0:1:1/100000000", "more than 10000"),
                        ("0:1", "grid must be start:end:step"),
                        ("0:1:x", "bad grid '0:1:x'"),
                        ("0:1:1/0", "bad grid '0:1:1/0'"),
                        ("0:1:0", "grid step must be positive")):
        with pytest.raises(ContractViolation, match=named):
            _parse_grid(text)


def test_sweep_rejects_an_oversized_grid(capsys):
    import time
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "sweep", "--case", "C43",
                             "--lambda-grid", "0:1:1/100000000")
    assert (code, out) == (2, "")
    assert "100000001 points" in err
    assert time.perf_counter() - start < 1


def test_negative_value_after_any_option(capsys):
    spaced = run_cli(capsys, "sweep", "--case", "C43",
                     "--lambda-grid", "-1:1:1/8")
    joined = run_cli(capsys, "sweep", "--case", "C43",
                     "--lambda-grid=-1:1:1/8")
    assert spaced[0] == 0
    assert spaced == joined
    code, _, err = run_cli(capsys, "series", "--case", "C165", "--N", "-5")
    assert code == 2
    assert "N must be >= 5" in err


def test_reports_carry_provenance(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--C", "-2")
    assert code == 0
    prov = json.loads(out)["provenance"]
    assert prov["tool"] == "painleve-hh"
    assert prov["precision_bits"] >= 64
    assert "config" in prov


def test_roundtrip_residual_within_factor_two(capsys, tmp_path):
    path = tmp_path / "sol.json"
    code, _, _ = run_cli(capsys, "--output", str(path), "series",
                         "--case", "C165", "--lambda", "1/9",
                         "--branch", "plus", "--N", "25")
    assert code == 0
    payload = json.loads(path.read_text())
    recorded = mpmath.mpf(payload["residual_max"]["re"])

    from painleve_hh import Scalar
    from painleve_hh.jsonio import decode_scalar, decode_series
    from painleve_hh.model import build_henon_heiles, residual_of_series
    solution = payload["solution"]
    assert solution["case"] == "C165"
    system = build_henon_heiles(Scalar.exact(-16, 5),
                                decode_scalar(solution["branch"]["lambda"]))
    rx, ry = residual_of_series(system, decode_series(solution["x"]),
                                decode_series(solution["y"]))
    recomputed = max(c.mag() for c in list(rx.coeffs) + list(ry.coeffs))
    assert recomputed <= 2 * max(recorded, mpmath.mpf("1e-77")) \
        or recomputed <= mpmath.mpf("1e-60")


def test_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "series", "--case", "C43",
                             "--lambda", "1/3", "--branch", "minus", "--N", "12")
    code2, out2, _ = run_cli(capsys, "series", "--case", "C43",
                             "--lambda", "1/3", "--branch", "minus", "--N", "12")
    assert code1 == code2 == 0
    assert out1 == out2


def test_precision_override(capsys):
    code, out, _ = run_cli(capsys, "--precision-bits", "320", "series",
                           "--case", "C165", "--lambda", "1/9",
                           "--branch", "plus", "--N", "10")
    assert code == 0
    assert json.loads(out)["provenance"]["precision_bits"] == 320


def test_precision_floor_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(capsys, "--precision-bits", "32", "analyze", "--C", "-1")
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ("--precision-bits", "512", "analyze", "--C", "-1"),
    ("analyze", "--C", "-1", "--precision-bits", "512"),
    ("--precision-bits", "512", "series", "--case", "C165", "--N", "3"),
])
def test_precision_flag_holds_for_one_run(capsys, argv):
    before = default_precision()
    code, out, _ = run_cli(capsys, *argv)
    if code == 0:
        assert json.loads(out)["provenance"]["precision_bits"] == 512
    assert default_precision() == before


def test_environment_precision_holds_for_one_run(capsys, monkeypatch):
    monkeypatch.setenv("PAINLEVE_PRECISION_BITS", "192")
    before = default_precision()
    code, out, _ = run_cli(capsys, "analyze", "--C", "-1")
    assert code == 0
    assert json.loads(out)["provenance"]["precision_bits"] == 192
    assert default_precision() == before


@pytest.mark.parametrize("argv", [
    ("--seed", "3", "analyze", "--C", "-2"),
    ("analyze", "--seed", "3", "--C", "-2"),
])
def test_seed_option_is_gone(capsys, argv):
    with pytest.raises(SystemExit) as err:
        run_cli(capsys, *argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_provenance_config_has_no_seed(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--C", "-2")
    assert code == 0
    assert "seed" not in json.loads(out)["provenance"]["config"]


@pytest.mark.parametrize("option, value, named", [
    ("--epsilon", "-1/10", "must be a"), ("--m-limit", "-1048576", "must be a"),
    ("--m-limit", "0", "must be a"),
    ("--N", "9", "certification needs a series built with N >= 10")],
    ids=["--epsilon--1/10", "--m-limit--1048576", "--m-limit-0", "--N-9"])
def test_certify_rejects_bad_epsilon_and_m_limit(capsys, option, value, named):
    # a negative epsilon would claim a disc of radius 1 + |epsilon|
    code, out, err = run_cli(capsys, "certify", "--case", "C165",
                             "--lambda", "1/9", "--branch", "plus",
                             "--N", "40", option, value)
    assert code == 2
    assert out == ""
    assert named in err


def test_certification_failure_exit_code(capsys):
    # an M-search limit below the coefficient floor cannot certify
    code, out, _ = run_cli(capsys, "certify", "--case", "C165",
                           "--lambda", "1/9", "--branch", "plus",
                           "--N", "40", "--m-limit", "1")
    assert code == 4
    assert json.loads(out)["certificate"]["verdict"] == "not-certified"


@pytest.mark.parametrize("argv", [("--lambda", "1e1000"),
                                  ("--lambda", "1/9", "--p4", "1e5000")])
def test_certify_reports_a_huge_m_over_the_search_limit(capsys, argv):
    # an M past 2**(4*bits) is formed and written rounded, not as a huge int
    import time
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "certify", "--case", "C165", *argv,
                             "--N", "10")
    assert (code, err) == (4, "")
    cert = json.loads(out)["certificate"]
    assert cert["verdict"] == "not-certified"
    assert cert["audit"]["reason"] == "required M exceeds the search limit"
    assert cert["M"]["bits"] == 256
    assert time.perf_counter() - start < 1


def test_certify_reports_a_threshold_beyond_the_scan_cap(capsys):
    # p4 = 100 lifts the prefix to about 3e4, so M = 2**15, and no scanned
    # k up to the scan cap brings both bound factors to 1
    code, out, err = run_cli(capsys, "certify", "--case", "C165",
                             "--lambda", "1/9", "--N", "40", "--p4", "100")
    assert (code, err) == (4, "")
    cert = json.loads(out)["certificate"]
    assert (cert["verdict"], cert["N"]) == ("not-certified", -1)
    assert cert["M"] == {"num": "32768", "den": "1"}
    assert cert["audit"]["reason"] == "induction threshold beyond scan cap"


@pytest.mark.parametrize("module", ["painleve_hh.cli", "painleve_hh"])
def test_environment_precision_variable(module):
    import os
    import subprocess
    import sys as _sys
    env = dict(os.environ, PAINLEVE_PRECISION_BITS="192")
    out = subprocess.run(
        [_sys.executable, "-m", module, "analyze", "--C", "-2"],
        capture_output=True, text=True, env=env, check=True)
    assert json.loads(out.stdout)["provenance"]["precision_bits"] == 192


@pytest.mark.parametrize("argv", [
    ("analyze", "--C", str(3 ** 200 - 2)),
    ("series", "--case", "C43", "--lambda", str(11 ** 40), "--N", "5")])
def test_a_long_exact_value_returns_promptly(argv):
    # exact values of 107 to 499 bits, whose integer roots a 53-bit float
    # first guess undershoots by as much as 7e30
    import subprocess
    import sys as _sys
    out = subprocess.run([_sys.executable, "-m", "painleve_hh.cli", *argv],
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 0, out.stderr


def test_analyze_at_minimum_precision(capsys):
    code, out, _ = run_cli(capsys, "--precision-bits", "64", "analyze",
                           "--C", "-16/5")
    assert code == 0
    assert json.loads(out)["provenance"]["precision_bits"] == 64


@pytest.mark.parametrize("value", ["abc", "8"])
def test_environment_precision_rejected(value):
    import os
    import subprocess
    import sys as _sys
    env = dict(os.environ, PAINLEVE_PRECISION_BITS=value)
    out = subprocess.run(
        [_sys.executable, "-m", "painleve_hh.cli", "analyze", "--C", "-2"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert out.stderr == f"error: precision must be >= 64 bits, got {value}\n"
    # importing the library keeps the built-in default instead of failing
    out = subprocess.run(
        [_sys.executable, "-c",
         "import painleve_hh; print(painleve_hh.default_precision())"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "256"


def test_verify_path_across_shifted_centre_fails_fast(capsys):
    import time
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "verify", "--case", "C165",
                           "--lambda", "1/9", "--t0", "2/5", "--N", "40")
    assert code == 2
    assert "singularity at t=0.4" in err
    assert time.perf_counter() - start < 5


def test_verify_with_shifted_centre_matches_unshifted(capsys):
    base = ["verify", "--case", "C165", "--lambda", "1/9", "--N", "40"]
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    plain = json.loads(out)
    code, out, _ = run_cli(capsys, *base, "--t0", "2/5",
                           "--t-from", "7/10", "--t-to", "9/10")
    assert code == 0
    shifted = json.loads(out)
    assert shifted["residual_max"] == plain["residual_max"]
    a, b = (mpmath.mpf(r["numeric_cross_check"]["max_component_diff"]["re"])
            for r in (plain, shifted))
    assert abs(a - b) <= mpmath.mpf("1e-30") * a


@pytest.mark.parametrize("option, message", [
    ("--tol=0", "positive real"), ("--tol=-1e-20", "positive real"),
    ("--tol=1e-20+1j", "scalar literal"), ("--t-from=abc", "scalar literal")])
def test_verify_rejects_bad_path_input_before_building(capsys, option,
                                                       message):
    import time
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "--precision-bits", "512", "verify",
                           "--case", "C43", "--lambda", "2", "--branch",
                           "minus", "--N", "80", option)
    assert code == 2
    assert message in err
    assert time.perf_counter() - start < 1


def _cli_grid():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_grid.py"
    spec = importlib.util.spec_from_file_location("cli_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_cli_grid_run_parses():
    from painleve_hh.cli import _merge_negative_literals, build_parser
    grid = _cli_grid().GRID
    assert len(grid) >= 71
    assert len({tuple(argv) for argv in grid}) == len(grid)
    parser = build_parser()
    for argv in grid:
        args = parser.parse_args(_merge_negative_literals(argv))
        assert callable(args.func)


def test_main_builds_the_parser_once(capsys, monkeypatch):
    parsers = []
    original = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    assert run_cli(capsys, "analyze", "--C", "-1")[0] == 0
    assert run_cli(capsys, "analyze", "--C", "-6")[0] == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
def test_help_exits_0_on_every_call(capsys, argv):
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: painleve-hh")


@pytest.mark.parametrize("argv, message", [
    (("analyze",), "the following arguments are required: --C"),
    (("series", "--case", "C99"), "invalid choice: 'C99'"),
    (("analyze", "--C", "-1", "--bogus"), "unrecognized arguments: --bogus"),
])
def test_parse_errors_exit_2_on_every_call(capsys, argv, message):
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
    assert run_cli(capsys, "analyze", "--C", "-1")[0] == 0


def test_negative_literals_parse_on_every_call(capsys):
    first = run_cli(capsys, "analyze", "--C", "-16/5", "--lambda", "-1/9")
    grid = run_cli(capsys, "sweep", "--case", "C43",
                   "--lambda-grid", "-1:1:1")
    again = run_cli(capsys, "analyze", "--C", "-16/5", "--lambda", "-1/9")
    assert first[0] == grid[0] == again[0] == 0
    assert first[1] == again[1]
    config = json.loads(first[1])["provenance"]["config"]
    assert (config["C"], config["lam"]) == ("-16/5", "-1/9")
    assert len(json.loads(grid[1])["sweep"]) == 3
