from fractions import Fraction

import pytest

from painleve_hh import (ContractViolation, DenseMatrix, PhaseState,
                         PuiseuxSeries, Scalar, build_henon_heiles, energy,
                         energy_series, reduce_to_fourth_order,
                         residual_of_series, solve_linear)
from painleve_hh.model import potential, power_product


def test_rhs_examples():
    sys1 = build_henon_heiles(Scalar.exact(-1), Scalar.exact(1))
    r1, r2 = sys1.rhs(Scalar.exact(1), Scalar.exact(1))
    assert r1.fraction() == -3
    assert r2.fraction() == -3

    sys2 = build_henon_heiles(Scalar.exact(-16, 5), Scalar.exact(1, 9))
    r1, r2 = sys2.rhs(Scalar.exact(0), Scalar.exact(1))
    assert r1.fraction() == 0
    assert r2.fraction() == Fraction(-21, 5)


def test_rhs_origin_is_equilibrium():
    sys_ = build_henon_heiles(Scalar.exact(7, 3), Scalar.exact(-2, 5))
    r1, r2 = sys_.rhs(Scalar.exact(0), Scalar.exact(0))
    assert r1.is_zero() and r2.is_zero()


def test_energy_examples():
    sys_ = build_henon_heiles(Scalar.exact(-6), Scalar.exact(1))
    zero = Scalar.exact(0)
    assert energy(sys_, PhaseState(zero, zero, zero, zero, zero)).is_zero()
    s = PhaseState(zero, zero, Scalar.exact(1), zero, zero)
    assert energy(sys_, s).fraction() == Fraction(5, 2)


def test_energy_even_in_x():
    sys_ = build_henon_heiles(Scalar.exact(-4, 3), Scalar.exact(2, 7))
    a = PhaseState(Scalar.exact(3, 2), Scalar.exact(1), Scalar.exact(-2),
                   Scalar.exact(1, 3), Scalar.exact(0))
    b = PhaseState(-a.x, a.xt, a.y, a.yt, a.t)
    assert (energy(sys_, a) - energy(sys_, b)).is_zero()


def test_rhs_is_negative_potential_gradient():
    # exact symbolic check on the polynomial coefficients
    sys_ = build_henon_heiles(Scalar.exact(-16, 5), Scalar.exact(3, 11))
    V = potential(sys_)
    gx, gy = V.partial("x"), V.partial("y")
    for (i, j), c in gx.terms.items():
        assert (sys_.rhs1.terms.get((i, j), Scalar.exact(0)) + c).is_zero()
    for (i, j), c in gy.terms.items():
        assert (sys_.rhs2.terms.get((i, j), Scalar.exact(0)) + c).is_zero()
    assert set(sys_.rhs1.terms) == set(gx.terms)
    assert set(sys_.rhs2.terms) == set(gy.terms)


def test_fourth_order_coefficients():
    f1 = reduce_to_fourth_order(
        build_henon_heiles(Scalar.exact(-4, 3), Scalar.exact(1)), Scalar.exact(0))
    assert f1.coeff_ytt_y.fraction() == Fraction(-32, 3)
    f2 = reduce_to_fourth_order(
        build_henon_heiles(Scalar.exact(-16, 5), Scalar.exact(1)), Scalar.exact(0))
    assert f2.coeff_y3.fraction() == Fraction(-64, 3)
    f3 = reduce_to_fourth_order(
        build_henon_heiles(Scalar.exact(-1), Scalar.exact(1)), Scalar.exact(0))
    assert f3.coeff_yt2.is_zero()


def test_residual_of_zero_series():
    sys_ = build_henon_heiles(Scalar.exact(-6), Scalar.exact(1))
    z = PuiseuxSeries.zero()
    rx, ry = residual_of_series(sys_, z, z)
    assert all(c.is_zero() for c in rx.coeffs)
    assert all(c.is_zero() for c in ry.coeffs)


def _exact_x_zero_solution(C: Scalar, n: int):
    """Exact Laurent solution with x == 0: y'' = -y + C*y**2.

    Stepping the scalar recurrence through the exact linear solver; the
    resonance at k = 4 leaves one free constant, set to 0 here.  All
    coefficients are exact rationals for rational C.
    """
    f = {-2: Scalar.exact(6) / C}
    for k in range(-1, n + 1):
        lhs = Scalar.exact(k * (k - 1) - 12)
        rhs = -f.get(k - 2, Scalar.exact(0))
        acc = Scalar.exact(0)
        for j in range(-1, k):
            acc = acc + f[j] * f[k - j - 2]
        rhs = rhs + C * acc
        sol = solve_linear(DenseMatrix.from_rows([[lhs]]), [rhs])
        if sol.kind == "unique":
            f[k] = sol.solution[0]
        else:
            assert sol.kind == "parametrized" and k == 4
            f[k] = Scalar.exact(0)
    return PuiseuxSeries(-2, 1, [f[k] for k in range(-2, n + 1)])


def test_exact_backend_full_construction_zero_residual():
    # engineered fully-rational scenario: the x == 0 reduction is an exact
    # local solution of the complete system; every residual coefficient
    # must be the exact rational zero, not a rounded one
    C = Scalar.exact(-16, 5)
    ys = _exact_x_zero_solution(C, 15)
    assert all(c.is_exact for c in ys.coeffs)
    assert ys.coefficient(0).fraction() == Fraction(-5, 32)
    sys_ = build_henon_heiles(C, Scalar.exact(1))
    rx, ry = residual_of_series(sys_, PuiseuxSeries.zero(), ys)
    assert all(c.is_exact and c.is_zero() for c in ry.coeffs)
    assert all(c.is_exact and c.is_zero() for c in rx.coeffs)
    es = energy_series(sys_, PuiseuxSeries.zero(), ys)
    for e, c in zip(es.exponents(), es.coeffs):
        if e != 0:
            assert c.is_exact and c.is_zero()


def test_fourth_order_residual_on_exact_solution():
    C = Scalar.exact(-16, 5)
    lam = Scalar.exact(1)
    ys = _exact_x_zero_solution(C, 15)
    sys_ = build_henon_heiles(C, lam)
    es = energy_series(sys_, PuiseuxSeries.zero(), ys)
    form = reduce_to_fourth_order(sys_, es.coefficient(0))
    resid = form.residual_of_series(ys)
    for c in resid.coeffs:
        assert c.is_exact and c.is_zero()


def test_residual_detects_corruption():
    C = Scalar.exact(-16, 5)
    ys = _exact_x_zero_solution(C, 12)
    coeffs = list(ys.coeffs)
    coeffs[5] = coeffs[5] + 1  # corrupt f_3
    bad = PuiseuxSeries(-2, 1, coeffs)
    sys_ = build_henon_heiles(C, Scalar.exact(1))
    _, ry = residual_of_series(sys_, PuiseuxSeries.zero(), bad)
    assert any(not c.is_zero() for c in ry.coeffs)


def test_x_negation_maps_solutions_to_solutions():
    # negating any x-series negates the x-residual and fixes the y-residual
    C = Scalar.exact(-4, 3)
    sys_ = build_henon_heiles(C, Scalar.exact(2, 5))
    xs = PuiseuxSeries(-2, 1, [Scalar.exact(v) for v in (3, 1, 0, 2, -1)])
    ys = PuiseuxSeries(-2, 1, [Scalar.exact(v) for v in (-3, 2, 1, 0, 4)])
    rx, ry = residual_of_series(sys_, xs, ys)
    rx_n, ry_n = residual_of_series(sys_, -xs, ys)
    for a, b in zip(rx.coeffs, rx_n.coeffs):
        assert (a + b).is_zero()
    for a, b in zip(ry.coeffs, ry_n.coeffs):
        assert (a - b).is_zero()


def test_center_mismatch_contract():
    sys_ = build_henon_heiles(Scalar.exact(-6), Scalar.exact(1))
    a = PuiseuxSeries(0, 1, [Scalar.exact(1)])
    b = PuiseuxSeries(0, 1, [Scalar.exact(1)], center=Scalar.exact(2))
    with pytest.raises(ContractViolation):
        residual_of_series(sys_, a, b)
    with pytest.raises(ContractViolation):
        energy_series(sys_, a, b)


def test_energy_series_of_zero_series_is_zero():
    sys_ = build_henon_heiles(Scalar.exact(-4, 3), Scalar.exact(1))
    es = energy_series(sys_, PuiseuxSeries.zero(), PuiseuxSeries.zero())
    assert all(c.is_zero() for c in es.coeffs)


def test_power_product_skips_the_constant_one(monkeypatch):
    xs = PuiseuxSeries(Fraction(-3, 2), Fraction(1, 2),
                       [Scalar.exact(v) for v in (2, -1, 3, 5)])
    ys = PuiseuxSeries(-2, 1, [Scalar.exact(-3), Scalar.exact(0),
                               Scalar.from_real("0.7")])
    assert power_product(xs, ys, 3, 0) is xs.pow_int(3)
    assert power_product(xs, ys, 0, 2) is ys.pow_int(2)
    mul = PuiseuxSeries.__mul__
    count = []

    def counted(a, b):
        count.append(1)
        return mul(a, b)
    monkeypatch.setattr(PuiseuxSeries, "__mul__", counted)
    mixed = power_product(xs, ys, 1, 1)
    assert len(count) == 1
    assert mixed.lead == xs.lead + ys.lead
    assert mixed.coeffs == mul(xs, ys).coeffs
