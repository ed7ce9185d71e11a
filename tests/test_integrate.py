import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from painleve_hh import (BranchSpec, ContractViolation, PhaseState, Scalar,
                         SingularityApproach, build_henon_heiles, build_series,
                         energy, integrate_numeric, state_from_series)
from painleve_hh import integrate
from painleve_hh.integrate import (_cauchy_square, _taylor_coefficients,
                                   tolerance_order)

BITS = 532      # 512-bit data plus the integrator's 20 guard bits


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
    s_a = state_from_series(sol.x, sol.y, Scalar.exact(3, 10), 256)
    s_b = state_from_series(sol.x, sol.y, Scalar.exact(1, 2), 256)
    end = integrate_numeric(sol.system(), s_a, Scalar.exact(1, 2),
                            Scalar.from_real("1e-20"))
    diff = max((end.x - s_b.x).mag(), (end.xt - s_b.xt).mag(),
               (end.y - s_b.y).mag(), (end.yt - s_b.yt).mag())
    assert diff < mpmath.mpf("1e-15")


def test_backward_integration():
    lam = Scalar.exact(1, 9)
    spec = BranchSpec(case="C165", lam=lam, root_branch="plus")
    sol = build_series(spec, 50)
    s_a = state_from_series(sol.x, sol.y, Scalar.exact(1, 2), 256)
    s_b = state_from_series(sol.x, sol.y, Scalar.exact(3, 10), 256)
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


mantissas = st.integers(min_value=-2 ** 512, max_value=2 ** 512)


def _mpf(n):
    return mpmath.mpf(n) / 2 ** 500


@st.composite
def coefficient_lists(draw, complex_values):
    n = draw(st.integers(min_value=1, max_value=30))
    re = draw(st.lists(mantissas, min_size=n, max_size=n))
    if not complex_values:
        return [_mpf(a) for a in re]
    im = draw(st.lists(mantissas, min_size=n, max_size=n))
    return [mpmath.mpc(_mpf(a), _mpf(b)) for a, b in zip(re, im)]


@settings(max_examples=60, deadline=None)
@given(st.booleans().flatmap(coefficient_lists))
def test_halved_square_is_bit_identical(X):
    with mp.workprec(BITS):
        X2 = [2 * v for v in X]
        for m in range(len(X)):
            assert _cauchy_square(X, X2, m) == mp.fdot(X, X[m::-1])


def _full_recurrence(lam, C, x0, xt0, y0, yt0, order):
    """The recurrence with every Cauchy product summed over all i."""
    X, Y = [x0, xt0], [y0, yt0]
    for m in range(order - 1):
        cx = -lam * X[m] - 2 * mp.fdot(X, Y[m::-1])
        cy = -Y[m] - mp.fdot(X, X[m::-1]) + C * mp.fdot(Y, Y[m::-1])
        X.append(cx / ((m + 1) * (m + 2)))
        Y.append(cy / ((m + 1) * (m + 2)))
    return X, Y


@settings(max_examples=25, deadline=None)
@given(st.lists(mantissas, min_size=12, max_size=12),
       st.integers(min_value=8, max_value=30))
def test_complex_run_matches_full_recurrence(data, order):
    with mp.workprec(BITS):
        state = [mpmath.mpc(_mpf(a), _mpf(b))
                 for a, b in zip(data[::2], data[1::2])]
        got = _taylor_coefficients(*state, order)
        want = _full_recurrence(*state, order)
    assert got == want


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
    s_a = state_from_series(sol.x, sol.y, t_a, 512)
    s_b = state_from_series(sol.x, sol.y, t_b, 512)
    end = integrate_numeric(sol.system(), s_a, t_b,
                            Scalar.from_real("1e-40", 512))
    assert len(calls) <= 12 and set(calls) == {48}
    diff = max((end.x - s_b.x).mag(), (end.xt - s_b.xt).mag(),
               (end.y - s_b.y).mag(), (end.yt - s_b.yt).mag())
    assert diff < mpmath.mpf("1e-30")


def test_working_precision_covers_every_state_component(monkeypatch):
    # y carries 1024 bits, everything else 64: the run must keep all of
    # them, so the halved squares still equal the full Cauchy sums
    s0 = PhaseState(Scalar.from_real("0.1", 64), Scalar.from_real("0.2", 64),
                    Scalar.from_complex("0.3", "0.1", 1024),
                    Scalar.from_real("-0.2", 64), Scalar.exact(1, 1, 64))
    args = (_sys(), s0, Scalar.exact(6, 5, 64), Scalar.from_real("1e-15", 64))
    original = integrate._taylor_coefficients
    coefficients = []

    def spy(*data):
        coefficients.append(original(*data))
        return coefficients[-1]

    monkeypatch.setattr(integrate, "_taylor_coefficients", spy)
    halved = integrate_numeric(*args)
    n = len(coefficients)
    monkeypatch.setattr(integrate, "_cauchy_square",
                        lambda X, X2, m: mp.fdot(X, X[m::-1]))
    full = integrate_numeric(*args)
    assert coefficients[:n] == coefficients[n:]
    for name in ("x", "xt", "y", "yt", "t"):
        assert getattr(halved, name).precision == 1024
        assert getattr(halved, name).mpc() == getattr(full, name).mpc()
