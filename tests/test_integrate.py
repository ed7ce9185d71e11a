import ast
import operator
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp

from painleve_hh import (BranchSpec, ContractViolation, PhaseState, Scalar,
                         SingularityApproach, build_henon_heiles, build_series,
                         energy, integrate_numeric, state_from_series)
from painleve_hh import integrate
from painleve_hh.cli import main
from painleve_hh.integrate import (_quotient, _shifted, _squared,
                                   _taylor_coefficients, tolerance_order)

from conftest import package_imports

P = 564         # 512-bit data plus the integrator's 20 + 32 fixed-point bits


def _sys():
    return build_henon_heiles(Scalar.exact(-6), Scalar.exact(1))


def test_equilibrium_stays_put():
    zero = Scalar.exact(0)
    s0 = PhaseState(zero, zero, zero, zero, Scalar.exact(1))
    end = integrate_numeric(_sys(), s0, Scalar.exact(2), Scalar.from_real("1e-18"))
    for v in (end.x, end.xt, end.y, end.yt):
        assert v.mag() < mpmath.mpf("1e-17")


def test_energy_drift_small_random_data():
    rng = random.Random(2024)
    tol = Scalar.from_real("1e-20")
    sys_ = _sys()
    for _ in range(3):
        s0 = PhaseState(
            Scalar.exact(rng.randint(-100, 100), 1000),
            Scalar.exact(rng.randint(-100, 100), 1000),
            Scalar.exact(rng.randint(-100, 100), 1000),
            Scalar.exact(rng.randint(-100, 100), 1000),
            Scalar.exact(1),
        )
        end = integrate_numeric(sys_, s0, Scalar.exact(3), tol)
        drift = (energy(sys_, end) - energy(sys_, s0)).mag()
        assert drift <= 100 * tol.mag()


def test_series_cross_oracle():
    lam = Scalar.exact(1, 9)
    spec = BranchSpec(case="C165", lam=lam, root_branch="plus")
    sol = build_series(spec, 60)
    s_a = state_from_series(sol.x, sol.y, Scalar.exact(3, 10))
    s_b = state_from_series(sol.x, sol.y, Scalar.exact(1, 2))
    end = integrate_numeric(sol.system(), s_a, Scalar.exact(1, 2),
                            Scalar.from_real("1e-20"))
    diff = max((end.x - s_b.x).mag(), (end.xt - s_b.xt).mag(),
               (end.y - s_b.y).mag(), (end.yt - s_b.yt).mag())
    assert diff < mpmath.mpf("1e-15")


def test_backward_integration():
    lam = Scalar.exact(1, 9)
    spec = BranchSpec(case="C165", lam=lam, root_branch="plus")
    sol = build_series(spec, 50)
    s_a = state_from_series(sol.x, sol.y, Scalar.exact(1, 2))
    s_b = state_from_series(sol.x, sol.y, Scalar.exact(3, 10))
    end = integrate_numeric(sol.system(), s_a, Scalar.exact(3, 10),
                            Scalar.from_real("1e-18"))
    assert (end.y - s_b.y).mag() < mpmath.mpf("1e-14")


def test_singularity_guard():
    zero = Scalar.exact(0)
    s0 = PhaseState(Scalar.exact(1), zero, Scalar.exact(1), zero,
                    Scalar.exact(1, 2))
    with pytest.raises(SingularityApproach):
        # the path [-1/2, 1/2] passes through t = 0
        integrate_numeric(_sys(), s0, Scalar.exact(-1, 2),
                          Scalar.from_real("1e-16"))
    with pytest.raises(SingularityApproach):
        # endpoint closer to zero than tol**(1/4) = 1e-4
        integrate_numeric(_sys(), s0, Scalar.from_real("1e-5"),
                          Scalar.from_real("1e-16"))


def test_singularity_guard_measures_from_centre():
    zero = Scalar.exact(0)
    s0 = PhaseState(Scalar.exact(1), zero, Scalar.exact(1), zero,
                    Scalar.exact(3, 10))
    with pytest.raises(SingularityApproach, match="singularity at t=0.4"):
        integrate_numeric(_sys(), s0, Scalar.exact(1, 2),
                          Scalar.from_real("1e-20"), center=Scalar.exact(2, 5))


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_state_is_rejected(value):
    # the state is rejected where its scalar is made, and so is a tolerance
    zero = Scalar.exact(0)
    for s0 in (lambda: PhaseState(Scalar.from_real(value, 64), zero, zero,
                                  zero, Scalar.exact(1)),
               lambda: PhaseState(zero, zero, Scalar.from_complex(0, value, 64),
                                  zero, Scalar.exact(1))):
        with pytest.raises(ContractViolation,
                           match=f"'{value}' is not a finite number"):
            integrate_numeric(_sys(), s0(), Scalar.exact(2),
                              Scalar.from_real("1e-10"))
    s0 = PhaseState(zero, zero, zero, zero, Scalar.exact(1))
    with pytest.raises(ContractViolation, match="is not a finite number"):
        integrate_numeric(_sys(), s0, Scalar.exact(2), float(value))


def test_order_contract():
    zero = Scalar.exact(0)
    s0 = PhaseState(zero, zero, zero, zero, Scalar.exact(1))
    with pytest.raises(ContractViolation):
        integrate_numeric(_sys(), s0, Scalar.exact(2),
                          Scalar.from_real("1e-10"), order=4)


def test_explicit_order_overrides_tolerance_order(monkeypatch):
    orders = []
    original = integrate._taylor_coefficients

    def spy(*args):
        orders.append(args[-1])
        return original(*args)

    monkeypatch.setattr(integrate, "_taylor_coefficients", spy)
    zero = Scalar.exact(0)
    s0 = PhaseState(zero, zero, zero, zero, Scalar.exact(1))
    integrate_numeric(_sys(), s0, Scalar.exact(2), Scalar.from_real("1e-20"),
                      order=12)
    integrate_numeric(_sys(), s0, Scalar.exact(2), Scalar.from_real("1e-20"))
    assert orders[0] == 12 and orders[-1] == 25


@pytest.mark.parametrize("tol", [Scalar.exact(0), Scalar.from_real("-1e-20"),
                                 Scalar.exact(-1), Scalar.from_complex(
                                     "1e-20", "1e-30")])
def test_tolerance_must_be_positive_real(tol):
    zero = Scalar.exact(0)
    s0 = PhaseState(zero, zero, zero, zero, Scalar.exact(1))
    with pytest.raises(ContractViolation, match="positive real"):
        integrate_numeric(_sys(), s0, Scalar.exact(2), tol)


@pytest.mark.parametrize("tol, order", [("1e-5", 8), ("1e-18", 22),
                                        ("1e-20", 25), ("1e-40", 48)])
def test_tolerance_order(tol, order):
    assert tolerance_order(Scalar.from_real(tol).mag()) == order


def test_tolerance_order_below_float_range():
    # ln(1e-400) = -921.03, so ceil(460.52) + 1
    assert tolerance_order(Scalar.from_real("1e-400").mag()) == 462


mantissas = st.integers(min_value=-2 ** P, max_value=2 ** P)


@given(st.lists(st.tuples(mantissas, mantissas), min_size=1, max_size=30))
def test_halved_square_is_exact(pairs):
    re, im = map(list, zip(*pairs))
    for m in range(len(re)):
        assert _squared([re], m) == [sum(re[i] * re[m - i]
                                         for i in range(m + 1))]
        assert _squared([re, im, list(map(operator.add, re, im))], m) == \
            _full_cauchy([re, im], [re, im], m)


@given(st.integers(min_value=-2 ** 700, max_value=2 ** 700),
       st.integers(min_value=0, max_value=600), st.booleans())
@example(7, 0, False)
@example(-7, 0, False)
@example(2, 1, True)     # (2*2 + 1) / 2 = 2.5 -> 2
@example(-2, 1, True)    # -3 / 2 = -1.5 -> -2
@example(-3, 3, True)    # -5 / 2 = -2.5 -> -2
def test_shift_rounding_is_the_quotient(n, k, tie):
    if tie and k:
        n = (2 * n + 1) << k - 1        # n * 2**-k ends in exactly 1/2
    assert _shifted(n, k) == _quotient(n, 1, -k)


def _parts_product(a, b):
    return [a[0] * b[0]] if len(a) == 1 else \
        [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]


def _full_cauchy(A, B, m):
    """Parts of sum A[i]*B[m-i] over every i = 0..m."""
    terms = [_parts_product([p[i] for p in A], [q[m - i] for q in B])
             for i in range(m + 1)]
    return [sum(t[j] for t in terms) for j in range(len(A))]


def _cauchy_block(lam, C, x0, xt0, y0, yt0, P, e, order):
    """The Taylor block from full Cauchy sums X*Y, X*X and Y*Y, with -a - 2*b
    in the x numerator, each coefficient rounded once as in the integrator."""
    X = [[a, b] for a, b in zip(x0, xt0)]
    Y = [[a, b] for a, b in zip(y0, yt0)]
    for m in range(order - 1):
        k = (m + 1) * (m + 2)
        lx = _parts_product(lam, [p[m] for p in X])
        cy = _parts_product(C, _full_cauchy(Y, Y, m))
        for Xp, Yp, a, b, c, d in zip(X, Y, lx, _full_cauchy(X, Y, m),
                                      _full_cauchy(X, X, m), cy):
            Xp.append(_quotient(-a - 2 * b, k, 2 * e - P))
            Yp.append(_quotient((((-Yp[m] << P) - c) << P) + d, k,
                                2 * e - 2 * P))
    return X, Y


@given(st.booleans(), st.lists(mantissas, min_size=12, max_size=12),
       st.integers(min_value=-8, max_value=-2),
       st.integers(min_value=8, max_value=30))
def test_block_from_squares_is_the_full_cauchy_block(complex_values, data, e,
                                                     order):
    # every numerator is the same exact int, so every coefficient is too
    parts = [data[2 * i:2 * i + 1 + complex_values] for i in range(6)]
    X, Y = _taylor_coefficients(*parts, P, e, order)
    assert (X, Y) == _cauchy_block(*parts, P, e, order)


def test_integrator_shares_no_code_with_the_series_kernels():
    # the oracle must not read scalars.cauchy_sum, series.combine or laurent
    tree = ast.parse(Path(integrate.__file__).read_text())
    imports = list(package_imports(tree))
    assert ("scalars", "Scalar") in imports
    for module, name in imports:
        assert module not in ("series", "laurent"), (module, name)
        assert module != "scalars" or name in ("Scalar", "as_scalar"), name


def _full_recurrence(lam, C, x0, xt0, y0, yt0, order):
    """The recurrence with every Cauchy product summed over all i."""
    X, Y = [x0, xt0], [y0, yt0]
    for m in range(order - 1):
        cx = -lam * X[m] - 2 * mp.fdot(X, Y[m::-1])
        cy = -Y[m] - mp.fdot(X, X[m::-1]) + C * mp.fdot(Y, Y[m::-1])
        X.append(cx / ((m + 1) * (m + 2)))
        Y.append(cy / ((m + 1) * (m + 2)))
    return X, Y


# every scaled coefficient is within this many units of 2**-P of the exact
# one: it is rounded once (1/2 unit), and the roundings of the coefficients
# it reads enter damped by sigma**2/((m+1)(m+2)) <= 1/32
BLOCK_ULPS = 1


@given(st.booleans(), st.lists(mantissas, min_size=12, max_size=12),
       st.integers(min_value=-8, max_value=-2),
       st.integers(min_value=8, max_value=30))
def test_scaled_block_matches_full_recurrence(complex_values, data, e, order):
    # lam, C, x, xt*2**e, y, yt*2**e as ints at 2**-P, values in [-1, 1]
    parts = [data[2 * i:2 * i + 1 + complex_values] for i in range(6)]
    X, Y = _taylor_coefficients(*parts, P, e, order)
    assert all(len(p) == order + 1 for p in X + Y)
    assert len(X) == len(Y) == 1 + complex_values
    with mp.workprec(2 * P):
        values = [mpmath.mpc(*p) * mpmath.mpf(2) ** -P for p in parts]
        values[3] /= mpmath.mpf(2) ** e
        values[5] /= mpmath.mpf(2) ** e
        for got, want in zip((X, Y), _full_recurrence(*values, order)):
            for m, w in enumerate(want):
                w *= mpmath.mpf(2) ** (P + e * m)
                for p, part in enumerate((w.real, w.imag)[:len(got)]):
                    assert abs(got[p][m] - part) <= BLOCK_ULPS


def _mpmath_stepper(sys_, s0, t_end, tol):
    """The reference stepper: the same steps on mpmath.mpc at bits + 20,
    each Cauchy sum one fdot rounded once."""
    bits = max(v.precision for v in (s0.x, s0.xt, s0.y, s0.yt, s0.t, tol))
    with mp.workprec(bits + 20):
        lam, C = sys_.lam.mpc(bits), sys_.C.mpc(bits)
        t, te = s0.t.mpc(bits).real, t_end.mpc(bits).real
        tolv = tol.mag()
        order = tolerance_order(tolv)
        state = [v.mpc(bits) for v in (s0.x, s0.xt, s0.y, s0.yt)]
        direction = 1 if te >= t else -1
        while (te - t) * direction > 0:
            X, Y = _full_recurrence(lam, C, *state, order)
            top = max(abs(X[-1]), abs(Y[-1]), mpmath.mpf(2) ** (-4 * bits))
            h_est = (tolv / top) ** (mpmath.mpf(1) / order)
            h_abs = min(abs(te - t), h_est * mpmath.mpf("0.8"))
            while (abs(X[-1]) + abs(Y[-1])) * h_abs ** order \
                    + (abs(X[-2]) + abs(Y[-2])) * h_abs ** (order - 1) > tolv:
                h_abs = h_abs / 2
            h = direction * h_abs
            state = []
            for Z in (X, Y):
                state.append(mpmath.polyval(Z[::-1], h))
                state.append(mpmath.polyval(
                    [m * z for m, z in enumerate(Z)][:0:-1], h))
            t = t + h
        return [Scalar.from_mpc(v, bits) for v in state]


def _assert_matches_mpmath_stepper(sys_, s0, t_end, tol):
    """Every component within 2**-(bits - 16) of the largest one."""
    end = integrate_numeric(sys_, s0, t_end, tol)
    got = [end.x, end.xt, end.y, end.yt]
    want = _mpmath_stepper(sys_, s0, t_end, tol)
    bits = max(v.precision for v in want)
    scale = max(w.mag() for w in want)
    for g, w in zip(got, want):
        assert g.precision == bits
        assert (g - w).mag() <= scale * mpmath.mpf(2) ** (16 - bits)
    return end


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_tiny_state_keeps_its_bits(bits):
    # a state of size 1e-100 carries its own bits, not those of size 1
    v = [Scalar.from_real(f"{c}e-100", bits) for c in ("3", "-2", "1.5", "7")]
    s0 = PhaseState(*v, Scalar.exact(1, 1, bits))
    end = _assert_matches_mpmath_stepper(
        _sys(), s0, Scalar.exact(3, 2, bits), Scalar.from_real("1e-20", bits))
    assert end.y.mag() > mpmath.mpf("1e-101")


def test_complex_run_matches_mpmath_stepper():
    spec = BranchSpec(case="C43", lam=Scalar.exact(2, 1, 512),
                      root_branch="minus",
                      free_params=(Scalar.exact(1, 3), Scalar.exact(-2, 5)))
    sol = build_series(spec, 40)
    s_a = state_from_series(sol.x, sol.y, Scalar.from_real("0.3", 512))
    _assert_matches_mpmath_stepper(sol.system(), s_a,
                                   Scalar.from_real("0.4", 512),
                                   Scalar.from_real("1e-30", 512))


def test_step_longer_than_sigma_redoes_the_block():
    # zeroing the last two coefficients of the second block makes its step
    # run to the end of the path, far past sigma: the block must be redone
    # at a sigma that covers the step, from the same state
    original = integrate._taylor_coefficients
    calls = []

    def spy(*args):
        X, Y = original(*args)
        calls.append(args)
        if len(calls) == 2:
            for p in X + Y:
                p[-2:] = [0, 0]
        return X, Y

    s0 = PhaseState(Scalar.from_real("0.1", 256), Scalar.from_real("0.2", 256),
                    Scalar.from_real("0.3", 256),
                    Scalar.from_real("-0.2", 256), Scalar.exact(1, 1, 256))
    args = (_sys(), s0, Scalar.exact(3, 1, 256), Scalar.from_real("1e-20"))
    with mock.patch.object(integrate, "_taylor_coefficients", spy):
        _assert_matches_mpmath_stepper(*args)
    (*_, P2, e2, _), (*_, P3, e3, _) = calls[1:3]
    assert e3 > e2
    for i in (2, 4):        # x and y: one state, at 2**-P2 and at 2**-P3
        assert abs(calls[1][i][0] * 2 ** P3 - calls[2][i][0] * 2 ** P2) \
            <= 2 ** max(P2, P3)


dyadics = st.sampled_from([Fraction(1, 2), Fraction(3, 8), Fraction(-1, 4),
                           Fraction(0), Fraction(5, 16), Fraction(-3, 32)])
state_values = st.one_of(
    dyadics.map(Scalar.exact),
    st.fractions(min_value=-1, max_value=1, max_denominator=50).map(
        Scalar.exact),
    st.floats(min_value=-0.5, max_value=0.5).map(
        lambda v: Scalar.from_real(v, 64)))


def _run_or_error(*args):
    try:
        return integrate_numeric(*args)
    except SingularityApproach as exc:
        return str(exc)


@given(st.lists(state_values, min_size=4, max_size=4),
       st.sampled_from(["1e-8", "1e-12"]))
@example([Scalar.exact(Fraction(1, 2))] * 4, "1e-8")
@example([Scalar.exact(Fraction(1, 2)), Scalar.exact(Fraction(3, 8))] * 2,
         "1e-8")
def test_mirror_x_gives_exact_mirror(values, tol):
    x, xt, y, yt = values
    args = (Scalar.exact(5, 4, 64), Scalar.from_real(tol, 64))
    original = integrate._taylor_coefficients
    blocks = []

    def spy(*data):
        blocks.append(original(*data))
        return blocks[-1]

    with mock.patch.object(integrate, "_taylor_coefficients", spy):
        one = _run_or_error(_sys(), PhaseState(x, xt, y, yt, Scalar.exact(1)),
                            *args)
        n = len(blocks)
        two = _run_or_error(_sys(), PhaseState(-x, -xt, y, yt,
                                               Scalar.exact(1)), *args)
    # every coefficient is the exact mirror, the rounding ties included
    assert len(blocks) == 2 * n
    for (X1, Y1), (X2, Y2) in zip(blocks[:n], blocks[n:]):
        assert X2 == [[-v for v in p] for p in X1] and Y2 == Y1
    if isinstance(one, str):
        assert one == two
        return
    assert (two.x.mpc(), two.xt.mpc()) == ((-one.x).mpc(), (-one.xt).mpc())
    assert (two.y.mpc(), two.yt.mpc(), two.t.mpc()) == \
        (one.y.mpc(), one.yt.mpc(), one.t.mpc())


def test_verify_complex_step_count(monkeypatch):
    calls = []
    original = integrate._taylor_coefficients

    def counting(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(integrate, "_taylor_coefficients", counting)
    spec = BranchSpec(case="C43", lam=Scalar.exact(2, 1, 512),
                      root_branch="minus",
                      free_params=(Scalar.exact(1, 3), Scalar.exact(-2, 5)))
    sol = build_series(spec, 80)
    assert sol.precision == 512
    t_a, t_b = Scalar.from_real("0.3", 512), Scalar.from_real("0.5", 512)
    s_a = state_from_series(sol.x, sol.y, t_a)
    s_b = state_from_series(sol.x, sol.y, t_b)
    end = integrate_numeric(sol.system(), s_a, t_b,
                            Scalar.from_real("1e-40", 512))
    assert len(calls) <= 12 and set(calls) == {48}
    diff = max((end.x - s_b.x).mag(), (end.xt - s_b.xt).mag(),
               (end.y - s_b.y).mag(), (end.yt - s_b.yt).mag())
    assert diff < mpmath.mpf("1e-30")


def test_step_budget_ends_the_run(monkeypatch, capsys):
    # the verify-complex path takes about 6 steps; a budget of 2 stops it,
    # and through verify that is a configuration error, exit 2
    monkeypatch.setattr(integrate, "MAX_STEPS", 2)
    spec = BranchSpec(case="C43", lam=Scalar.exact(2, 1, 512),
                      root_branch="minus",
                      free_params=(Scalar.exact(1, 3), Scalar.exact(-2, 5)))
    sol = build_series(spec, 80)
    s_a = state_from_series(sol.x, sol.y, Scalar.from_real("0.3", 512))
    with pytest.raises(SingularityApproach, match="step budget exhausted"):
        integrate_numeric(sol.system(), s_a, Scalar.from_real("0.5", 512),
                          Scalar.from_real("1e-40", 512))
    assert main(["--precision-bits", "512", "verify", "--case", "C43",
                 "--lambda", "2", "--branch", "minus", "--p2", "1/3",
                 "--p4", "-2/5", "--N", "80", "--tol", "1e-40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "step budget exhausted" in captured.err


def test_working_precision_covers_every_state_component():
    # y carries 1024 bits, everything else 64: the run must keep all of
    # them, to 2**-(1024 - 16) of the mpmath stepper
    s0 = PhaseState(Scalar.from_real("0.1", 64), Scalar.from_real("0.2", 64),
                    Scalar.from_complex("0.3", "0.1", 1024),
                    Scalar.from_real("-0.2", 64), Scalar.exact(1, 1, 64))
    end = _assert_matches_mpmath_stepper(
        _sys(), s0, Scalar.exact(6, 5, 64), Scalar.from_real("1e-15", 64))
    for name in ("x", "xt", "y", "yt", "t"):
        assert getattr(end, name).precision == 1024
