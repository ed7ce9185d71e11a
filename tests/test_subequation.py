import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath.libmp import from_rational, fzero, round_nearest

from painleve_hh import (BranchSpec, ContractViolation, PuiseuxSeries,
                         QuarticForm, Scalar, build_series, enumerate_branches,
                         fit, mobius_squared_series, residue_pairing,
                         set_default_precision, transform_quartic,
                         weierstrass_p_series)
from painleve_hh import subequation
from painleve_hh.scalars import half_precision_tol
from painleve_hh.subequation import (SubequationAnsatz, _series_divide,
                                     ansatz_indices)

from conftest import residual_series

LAM9 = Scalar.exact(1, 9)


def test_ansatz_index_set():
    idx = ansatz_indices(2)
    assert len(idx) == 9
    assert (4, 0) in idx and (0, 2) in idx and (2, 1) in idx
    assert (3, 1) not in idx  # j <= 2m - 2k


def test_fixture_t_minus_two():
    fixture = PuiseuxSeries(-2, 1, (1,), complete=True)
    result = fit(fixture, 2, 10)
    assert result.nullspace_dim == 1
    h = result.basis[0].nonzero()
    assert set(h) == {(3, 0), (0, 2)}
    ratio = h[(0, 2)] / h[(3, 0)]
    assert ratio.fraction() == Fraction(-1, 4)   # y'^2 = 4 y^3


def test_ansatz_needs_a_positive_degree():
    with pytest.raises(ContractViolation):
        ansatz_indices(0)


def test_normalizing_an_empty_ansatz_keeps_it():
    ans = SubequationAnsatz(m=1, h={})
    assert ans.normalized() is ans


def test_weierstrass_series_satisfies_its_ode():
    g2, g3 = Scalar.exact(4), Scalar.exact(1)
    p = weierstrass_p_series(g2, g3, 18)
    pp = p.differentiate()
    resid = pp * pp - p.pow_int(3).scale(Scalar.exact(4)) \
        + p.scale(g2) + PuiseuxSeries.constant(g3)
    for c in resid.coeffs:
        assert c.is_exact and c.is_zero()


def test_weierstrass_fit_recovers_invariants():
    p = weierstrass_p_series(Scalar.exact(4), Scalar.exact(1), 20)
    result = fit(p, 2, 25)
    assert result.nullspace_dim == 1
    ans = result.basis[0]
    # normalize onto h_{0,2} = 1: expect y'^2 - 4y^3 + 4y + 1 = 0
    pivot = ans.coefficient(0, 2)
    assert not pivot.is_zero()
    expected = {(0, 2): Fraction(1), (3, 0): Fraction(-4),
                (1, 0): Fraction(4), (0, 0): Fraction(1)}
    for (j, k) in ansatz_indices(2):
        got = ans.coefficient(j, k) / pivot
        want = expected.get((j, k), Fraction(0))
        assert (got - Scalar.exact(want)).mag() < mpmath.mpf("1e-25")


@pytest.mark.parametrize("m, match_order", [(2, 25), (3, 35)])
@pytest.mark.parametrize("g2, g3", [
    (Scalar.exact(1, 3), Scalar.exact(-2, 5)),
    (Scalar.from_real("0.3", 256), Scalar.from_real("-0.7", 256)),
], ids=["exact", "rounded"])
def test_fit_basis_passes_reference_residual(m, match_order, g2, g3):
    # fit sums its own columns; the reference expands each candidate afresh
    p = weierstrass_p_series(g2, g3, 30, 256)
    result = fit(p, m, match_order)
    assert result.nullspace_dim >= 1
    yp = p.differentiate()
    columns = [p.pow_int(j) * yp.pow_int(k) for j, k in ansatz_indices(m)]
    scale = 1 + max(c.mag() for col in columns for c in col.coeffs)
    tol = mpmath.mpf(2) ** -128 * scale
    for ans, order in zip(result.basis, result.residual_orders):
        resid = residual_series(ans, p)
        # exact rows have an exact nullspace: every matched coefficient,
        # through match_order, is then an exact zero
        checked = [c for e, c in zip(resid.exponents(), resid.coeffs)
                   if e <= (match_order if g2.is_exact else order)]
        assert checked or resid.complete
        for c in checked:
            if g2.is_exact:
                assert c.is_exact and c.is_zero()
            else:
                assert c.mag() <= tol
    if not g2.is_exact:
        # the rounding noise in each candidate's residual fails a tolerance
        # far below it, so the residual is really formed from the candidate
        assert fit(p, m, match_order, tol=mpmath.mpf(2) ** -1024).basis == ()


@pytest.mark.parametrize("m, match_order, products", [(2, 25, 6), (3, 35, 13)])
def test_fit_expands_each_column_once(monkeypatch, m, match_order, products):
    # y^2..y^(2m), y'^2..y'^m and one product per column y^j * y'^k with
    # j, k >= 1; no product by the constant 1, no second expansion
    p = weierstrass_p_series(Scalar.exact(1, 3), Scalar.exact(-2, 5), 30)
    mul = PuiseuxSeries.__mul__
    count = []

    def counted(a, b):
        if isinstance(b, PuiseuxSeries):
            count.append(1)
        return mul(a, b)
    monkeypatch.setattr(PuiseuxSeries, "__mul__", counted)
    assert fit(p, m, match_order).nullspace_dim >= 1
    assert len(count) == products


@pytest.mark.parametrize("y, m, match_order", [
    (weierstrass_p_series(Scalar.exact(1, 3), Scalar.exact(-2, 5), 30), 3, 35),
    # g2 and g3 rounded at 64 bits, with exact zeros between its terms; its
    # coefficients come out at 256 bits, the precision of the exact 1/20
    # and 1/28 that form c_2 and c_3
    (weierstrass_p_series(Scalar.from_real("0.3", 64),
                          Scalar.from_real("-0.7", 64), 30, 64), 2, 25),
    # a half-integer lead on the integer grid: odd powers lie off the rows'
    # grid, and coefficient() reads exact zeros there
    (PuiseuxSeries(Fraction(-1, 2), 1,
                   [Scalar.exact(k + 1, 7) for k in range(30)]), 2, 12),
], ids=["exact", "rounded-64", "off-grid"])
def test_fit_rows_hold_the_coefficients_of_each_column(monkeypatch, y, m,
                                                       match_order):
    # the rows must be the Scalars coefficient() returns, exact zeros
    # included, at their precisions, since fit's default tolerance reads
    # them: y^j * y'^k, a lone power without a product by the constant 1
    systems = []
    solve_linear = subequation.solve_linear

    def captured(system, b):
        systems.append(system)
        return solve_linear(system, b)

    monkeypatch.setattr(subequation, "solve_linear", captured)
    fit(y, m, match_order)
    (system,) = systems
    yp = y.differentiate()
    columns = [y.pow_int(j) * yp.pow_int(k) if j and k else
               y.pow_int(j) if j else yp.pow_int(k)
               for j, k in ansatz_indices(m)]
    lead = min(t.lead for t in columns)
    assert system.cols == len(columns)
    assert system.rows == math.floor(match_order - lead) + 1
    for i in range(system.rows):
        for j, column in enumerate(columns):
            want, got = column.coefficient(lead + i), system[i, j]
            assert (got.is_exact, got.precision) == (want.is_exact,
                                                     want.precision)
            assert got == want


def test_fit_scale_normalization():
    p = weierstrass_p_series(Scalar.exact(3, 2), Scalar.exact(2, 7), 20)
    result = fit(p, 2, 25)
    assert result.nullspace_dim == 1
    mags = [c.mag() for c in result.basis[0].h.values()]
    assert max(mags) <= 1 + mpmath.mpf("1e-50")
    assert any(abs(m - 1) < mpmath.mpf("1e-50") for m in mags)


def test_fit_on_affine_weierstrass_family():
    # y = a*p(b*t) + c solves y'^2 = (4b^2/a)(y-c)^3 - a b^2 g2 (y-c)
    #                               - a^2 b^2 g3;
    # regenerating the series through the p-recurrence and fitting must
    # return a nullspace containing exactly that ansatz
    rng = random.Random(12)
    for _ in range(3):
        a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        g2 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        g3 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = weierstrass_p_series(Scalar.exact(g2), Scalar.exact(g3), 22)
        scaled = [
            coeff * Scalar.exact(b ** e.numerator) if e.denominator == 1
            else coeff
            for e, coeff in zip(p.exponents(), p.coeffs)
        ]
        y = PuiseuxSeries(-2, 1, scaled).scale(Scalar.exact(a)) \
            + PuiseuxSeries.constant(Scalar.exact(c))
        result = fit(y, 2, 22)
        assert result.nullspace_dim == 1
        ans = result.basis[0]
        resid = residual_series(ans, y)
        for e, coeff in zip(resid.exponents(), resid.coeffs):
            if e <= 18:
                assert coeff.mag() < mpmath.mpf("1e-25")
        # containment: normalize onto h_{0,2} and compare with the cubic
        c3 = Fraction(4) * b * b / a
        expand = {
            (0, 2): Fraction(1),
            (3, 0): -c3,
            (2, 0): 3 * c3 * c,
            (1, 0): -3 * c3 * c * c + a * b * b * g2,
            (0, 0): c3 * c ** 3 - a * b * b * g2 * c + a * a * b * b * g3,
        }
        pivot = ans.coefficient(0, 2)
        for jk in ansatz_indices(2):
            got = ans.coefficient(*jk) / pivot
            want = Scalar.exact(expand.get(jk, Fraction(0)))
            assert (got - want).mag() < mpmath.mpf("1e-25"), (jk, a, b, c)


def test_fit_rejects_half_integer_step():
    sol = build_series(BranchSpec(case="C165", lam=LAM9, root_branch="plus"), 12)
    with pytest.raises(ContractViolation):
        fit(sol.x, 2, 20)


def test_fit_match_order_too_small():
    fixture = PuiseuxSeries(-2, 1, (1,), complete=True)
    with pytest.raises(ContractViolation):
        fit(fixture, 2, -1)


def test_fit_series_too_short():
    p = weierstrass_p_series(Scalar.exact(4), Scalar.exact(1), 6)
    with pytest.raises(ContractViolation):
        fit(p, 2, 40)


@pytest.mark.parametrize("y", [
    PuiseuxSeries.zero(), PuiseuxSeries(-2, 1, [0], complete=True),
    PuiseuxSeries(-2, 1, [0] * 40), PuiseuxSeries.constant(3),
    PuiseuxSeries(0, 1, [3] + [0] * 40),
    PuiseuxSeries(0, 1, [Scalar.from_real(3, 256)]
                  + [Scalar.from_real(0, 256)] * 40),
], ids=["zero", "complete-zero", "truncated-zeros", "constant",
        "truncated-constant", "rounded-constant"])
def test_fit_refuses_a_constant_y(y):
    # y' == 0 (exact or rounded zeros) leaves the coefficient of every
    # term with a factor y' free: there is no first-order form to fit
    with pytest.raises(ContractViolation, match="y is constant"):
        fit(y, 1, 5)


@pytest.mark.parametrize("m, known", [(200, -738), (10 ** 6, -3999938)])
def test_fit_rejects_a_short_series_before_forming_a_column(monkeypatch, m,
                                                            known):
    # (m + 1)**2 columns; the window check reads y alone, before any column
    # or the index list is formed
    p = weierstrass_p_series(Scalar.exact(1, 3), Scalar.exact(-2, 5), 30)

    def refused(*args):
        raise AssertionError("a column or the index list was formed")
    monkeypatch.setattr(PuiseuxSeries, "__mul__", refused)
    monkeypatch.setattr(subequation, "ansatz_indices", refused)
    with pytest.raises(ContractViolation, match=rf"series too short: ansatz "
                       rf"terms known only through t\^{known}, match_order 25"):
        fit(p, m, 25)


@pytest.mark.parametrize("y", [
    weierstrass_p_series(Scalar.exact(1, 3), Scalar.exact(-2, 5), 30),
    build_series(BranchSpec(case="C43", lam=LAM9, root_branch="plus"), 20).y,
    PuiseuxSeries(Fraction(-1, 2), 1, [Scalar.exact(k + 1, 7)
                                       for k in range(12)]),
    PuiseuxSeries(-2, 1, (1,), complete=True),
], ids=["p", "C43", "off-grid", "complete"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_column_window_is_the_formed_columns_window(y, m):
    yp = y.differentiate()
    columns = [y.pow_int(j) * yp.pow_int(k) for j, k in ansatz_indices(m)]
    caps = [t.max_exp for t in columns if t.max_exp is not None]
    assert subequation._column_window(y, yp, m) == (
        min(t.lead for t in columns), min(caps) if caps else None)


def test_exploratory_fit_of_c43_zero_branch_at_lambda_one():
    # at lam = 1 the zero branch exists; with these generic free parameters
    # the m = 2 fit finds nothing.  A nonzero dimension would mean this
    # series satisfies a degree-2 first-order form through order 24: a
    # special solution the zero branch is not known to have, or a fit that
    # accepts a form the series does not satisfy
    spec = BranchSpec(case="C43", lam=Scalar.exact(1), root_branch="zero",
                      free_params=(Scalar.exact(1, 3), Scalar.exact(1, 5)))
    sol = build_series(spec, 30)
    result = fit(sol.y, 2, 24)
    assert result.nullspace_dim == 0


def test_mobius_squared_series_construction():
    # the expansion must satisfy (c p + d) * ratio = (a p + b) termwise;
    # verified here via the reconstructed product, then an exploratory fit
    # (the order-4 elliptic shape need not admit a low-m polynomial
    # first-order form, and with these constants it admits none)
    a, b, c, d = 2, 1, 1, 1   # ad - bc = 1
    P0 = Scalar.exact(1, 4)
    g2, g3 = Scalar.exact(4), Scalar.exact(1)
    y = mobius_squared_series(a, b, c, d, P0, g2, g3, 20)
    p = weierstrass_p_series(g2, g3, 24)
    num = p.scale(Scalar.exact(a)) + PuiseuxSeries.constant(Scalar.exact(b))
    den = p.scale(Scalar.exact(c)) + PuiseuxSeries.constant(Scalar.exact(d))
    ratio = _series_divide(num, den, 18)
    back = den * ratio - num
    for e, coeff in zip(back.exponents(), back.coeffs):
        if e <= 16:
            assert coeff.mag() < mpmath.mpf("1e-40")
    recon = ratio * ratio + PuiseuxSeries.constant(P0)
    for e in range(0, 14):
        assert (y.coefficient(e) - recon.coefficient(e)).mag() \
            < mpmath.mpf("1e-40")
    result = fit(y, 2, 14)
    # a nonzero dimension would mean the squared Mobius shape satisfies a
    # degree-2 first-order form through order 14, or that the fit accepts
    # a form it does not satisfy
    assert result.nullspace_dim == 0


def _long_division(num, den, order_cap):
    """num/den by the remainder loop: subtract den * q t**e from the
    remainder for each quotient term q t**e."""
    den, num = den.normalized(), num.normalized()
    inv_lead = Scalar.exact(1) / den.coeffs[0]
    lead, out, rem = num.lead - den.lead, [], num
    e = lead
    while e <= order_cap:
        c0 = rem.coefficient(e + den.lead)
        if c0 is None:
            break
        out.append(c0 * inv_lead)
        rem = rem - den * PuiseuxSeries(e, 1, (out[-1],), complete=True)
        e += den.step
    return PuiseuxSeries(lead, den.step, out)


nonzero = st.builds(Fraction, st.integers(min_value=1, max_value=9)
                    | st.integers(min_value=-9, max_value=-1),
                    st.integers(min_value=1, max_value=4))
division_coeffs = st.lists(st.just(Fraction(0)) | nonzero, max_size=6)


@st.composite
def division_operands(draw):
    """(num, den, order_cap) as Fractions: den on a grid of step 1 or 1/2,
    num on the same grid or one twice as coarse, den_0 nonzero."""
    step = draw(st.sampled_from([Fraction(1), Fraction(1, 2)]))
    num = draw(division_coeffs.filter(any))
    den = [draw(nonzero)] + draw(division_coeffs)
    num_lead, den_lead = (Fraction(draw(st.integers(-4, 2)), 2)
                          for _ in range(2))
    num_step = step * draw(st.sampled_from([1, 2]))
    order_cap = draw(st.integers(-3, 6))
    complete = draw(st.booleans()), draw(st.booleans())
    return ((num_lead, num_step, num, complete[0]),
            (den_lead, step, den, complete[1]), order_cap)


def _series_of(operand, scalar=Scalar.exact):
    lead, step, coeffs, complete = operand
    return PuiseuxSeries(lead, step, [scalar(q) for q in coeffs],
                         complete=complete)


@given(division_operands())
def test_series_divide_matches_long_division_on_exact_input(operands):
    num_op, den_op, order_cap = operands
    num, den = _series_of(num_op), _series_of(den_op)
    q = _series_divide(num, den, order_cap)
    ref = _long_division(num, den, order_cap)
    assert (q.lead, q.step, q.complete) == (ref.lead, ref.step, False)
    assert [c.fraction() for c in q.coeffs] == \
        [c.fraction() for c in ref.coeffs]
    assert all(c.is_exact for c in q.coeffs)


@given(division_operands())
def test_series_divide_rounded_input_multiplies_back(operands):
    num_op, den_op, order_cap = operands
    bits = 128

    def rounded(q):
        # structural zeros stay exact, as in every series of the package
        return Scalar.exact(0) if q == 0 else \
            Scalar.from_real(mpmath.mpf(q.numerator) / q.denominator, bits)

    num, den = _series_of(num_op, rounded), _series_of(den_op, rounded)
    q = _series_divide(num, den, order_cap)
    exact = _series_divide(_series_of(num_op), _series_of(den_op), order_cap)
    # the window is read from the operand lengths, whatever the values
    assert (q.lead, q.step, len(q.coeffs)) == \
        (exact.lead, exact.step, len(exact.coeffs))
    if not q.coeffs:
        return
    back = den * q - num
    scale = 1
    for s in (num, den, q):
        scale *= 1 + max(c.mag() for c in s.coeffs)
    assert back.max_exp >= q.max_exp + den.lead
    for e, c in zip(back.exponents(), back.coeffs):
        if e <= q.max_exp + den.lead:
            assert c.mag() <= mpmath.mpf(2) ** (16 - bits) * scale


def _dyadic(c):
    """The exact value of a real Scalar: a rounded one's dyadic value."""
    return c.fraction() if c.is_exact else c._rational()


def _rounded_once(q, bits):
    """The Fraction q rounded once, to nearest, at bits, as a raw mpc."""
    return from_rational(q.numerator, q.denominator, bits, round_nearest), fzero


def _rounded(q, bits):
    """q rounded at bits; an exact zero stays one, as in every series."""
    return Scalar.exact(0) if q == 0 else \
        Scalar.from_mpc(mpmath.mp.make_mpc(_rounded_once(q, bits)), bits)


rationals = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 3))


@given(rationals, rationals, st.sampled_from([64, 256, 1024]))
def test_weierstrass_coefficients_are_rounded_once(g2, g3, bits):
    # c_k for k >= 4 is its recurrence on the stored c_i as Fractions,
    # rounded once at the series' bits
    g2, g3 = (Scalar.from_mpc(Scalar.exact(q).mpc(bits), bits)
              for q in (g2, g3))
    c = weierstrass_p_series(g2, g3, 24, bits).coeffs[4::2]  # c_2, c_3, ...
    prec = c[0].precision
    for k in range(4, len(c) + 2):
        want = Fraction(3, (2 * k + 1) * (k - 3)) * sum(
            _dyadic(c[i - 2]) * _dyadic(c[k - i - 2]) for i in range(2, k - 1))
        got = c[k - 2]
        assert (got.is_exact, got.precision) == (False, prec), k
        assert got.mpc()._mpc_ == _rounded_once(want, prec), k


def _division_numerators(num, den, q):
    """num_n - sum_{j<n} q_j den_(n-j) for each coefficient q_n of q =
    num/den, as Fractions on the stored q_j."""
    num, den = num.normalized(), den.normalized()
    a = [_dyadic(c) for c in num._on_grid(num.lead, den.step)]
    d, qs = [_dyadic(c) for c in den.coeffs], [_dyadic(c) for c in q.coeffs]
    return [(a[n] if n < len(a) else 0) - sum(
        qs[j] * d[n - j] for j in range(max(0, n - len(d) + 1), n))
        for n in range(len(qs))]


@given(division_operands())
# q_1 = (1 - q_0*d_1)/d_0: rounding q_0*d_1 before the subtraction is off
@example(((Fraction(0), Fraction(1), [Fraction(1, 3), Fraction(1)], False),
          (Fraction(0), Fraction(1), [Fraction(1), Fraction(1, 3)], False), 1))
def test_series_divide_rounds_each_coefficient_once(operands):
    # with an exact den_0 each q_n is its exact formula rounded once; with
    # a rounded den_0 the numerator is rounded once, then divided
    num_op, den_op, order_cap = operands
    bits = 128
    num = _series_of(num_op, lambda q: _rounded(q, bits))
    lead, step, coeffs, complete = den_op
    for d0 in (Scalar.exact(coeffs[0]), _rounded(coeffs[0], bits)):
        den = PuiseuxSeries(lead, step, [d0] + [_rounded(v, bits)
                                                for v in coeffs[1:]],
                            complete=complete)
        q = _series_divide(num, den, order_cap)
        for got, top in zip(q.coeffs, _division_numerators(num, den, q)):
            if got.is_exact:
                # no rounded input entered: an exact zero numerator
                assert top == 0 and got.is_zero()
            elif d0.is_exact:
                assert got.precision == bits
                assert got.mpc()._mpc_ == \
                    _rounded_once(top / d0.fraction(), bits)
            else:
                want = Scalar.from_mpc(mpmath.mp.make_mpc(
                    _rounded_once(top, bits)), bits) / d0
                assert got.precision == want.precision == bits
                assert got.mpc()._mpc_ == want.mpc()._mpc_


@pytest.mark.parametrize("num_step, den_step", [
    (Fraction(1, 2), 1), (1, Fraction(2, 3)), (Fraction(1, 3), Fraction(1, 2))])
def test_series_divide_rejects_num_off_the_den_grid(num_step, den_step):
    num = PuiseuxSeries(0, num_step, [Scalar.exact(v) for v in (1, 2, 3)])
    den = PuiseuxSeries(0, den_step, [Scalar.exact(v) for v in (1, 1, 1)])
    with pytest.raises(ContractViolation):
        _series_divide(num, den, 4)


def test_series_divide_rejects_a_zero_denominator():
    num = PuiseuxSeries(0, 1, [Scalar.exact(1)])
    for den in (PuiseuxSeries.zero(), PuiseuxSeries(0, 1, [Scalar.exact(0)])):
        with pytest.raises(ZeroDivisionError):
            _series_divide(num, den, 4)


def test_weierstrass_and_mobius_contract_checks():
    g2, g3 = Scalar.exact(4), Scalar.exact(1)
    with pytest.raises(ContractViolation, match="at least 3 terms"):
        weierstrass_p_series(g2, g3, 2)
    # ad - bc = 2
    with pytest.raises(ContractViolation, match="ad - bc = 1"):
        mobius_squared_series(2, 1, 0, 1, Scalar.exact(0), g2, g3, 10)


def test_series_divide_rejects_different_centers():
    num = PuiseuxSeries(0, 1, [Scalar.exact(1)], center=Scalar.exact(1))
    den = PuiseuxSeries(0, 1, [Scalar.exact(1)])
    with pytest.raises(ContractViolation):
        _series_divide(num, den, 4)


def test_transform_quartic_pure_a():
    rep = transform_quartic(QuarticForm.make(A=4))
    h = rep.polynomial.nonzero()
    assert set(h) == {(0, 2), (3, 0)}
    assert h[(0, 2)].fraction() == 1
    assert h[(3, 0)].fraction() == -4    # y'^2 = 4 y^3
    assert rep.remainder == {}


def test_transform_quartic_zero():
    rep = transform_quartic(QuarticForm.make())
    assert rep.identically_zero


def test_transform_quartic_half_power_remainder():
    rep = transform_quartic(QuarticForm.make(A=1, G=2, E=Fraction(1, 2)))
    assert "(y-P0)^(5/2)" in rep.remainder
    assert "(y-P0)^(3/2)" in rep.remainder


def test_transform_quartic_shift_inverse():
    p0 = Scalar.exact(3, 7)
    shifted = transform_quartic(
        QuarticForm.make(A=2, B=Fraction(1, 3), C=5, P0=Fraction(3, 7)))
    base = transform_quartic(QuarticForm.make(A=2, B=Fraction(1, 3), C=5))
    # substitute y -> y + p0 into the shifted polynomial part; the result
    # must reproduce the P0 = 0 coefficients
    got = {}
    for (j, k), coeff in shifted.polynomial.h.items():
        if k == 2:
            got[(0, 2)] = got.get((0, 2), Scalar.exact(0)) + coeff
            continue
        for i in range(j + 1):
            from math import comb
            term = coeff * Scalar.exact(comb(j, i)) * p0 ** (j - i)
            got[(i, 0)] = got.get((i, 0), Scalar.exact(0)) + term
    for jk, coeff in base.polynomial.h.items():
        assert (got.get(jk, Scalar.exact(0)) - coeff).is_zero()
    for jk, coeff in got.items():
        if jk not in base.polynomial.h:
            assert coeff.is_zero()


def test_transform_quartic_matches_series_expansion():
    # independent chain-rule oracle: build rho from rho'^2 = quartic via the
    # p-function (A=4, B=-g2, C=-g3 scaled), then check the induced
    # polynomial annihilates y = rho^2 + P0
    g2, g3 = Fraction(1, 2), Fraction(1, 7)
    rho = weierstrass_p_series(Scalar.exact(g2), Scalar.exact(g3), 18)
    # rho'^2 = 4 rho^3 - g2 rho - g3 corresponds to quartic coefficients
    # A=0? no: here use y = rho^2 + P0 with rho = p, so the quartic reads
    # 4*rho'^2 = 16 rho^3 - 4 g2 rho - 4 g3: G=16, E=-4g2, C=-4g3, A=B=0
    q = QuarticForm.make(G=16, E=-4 * g2, C=-4 * g3, P0=Fraction(2, 3))
    rep = transform_quartic(q)
    y = rho * rho + PuiseuxSeries.constant(Scalar.exact(2, 3))
    resid = residual_series(rep.polynomial, y)
    # the G-half-power remainder is nonzero here, so the polynomial part
    # alone must NOT annihilate y
    assert rep.remainder
    assert any(c.mag() > mpmath.mpf("1e-10") for c in resid.coeffs)
    # with G = E = 0 the polynomial part is the whole story
    q2 = QuarticForm.make(A=4, B=Fraction(-1, 2), C=Fraction(2, 5),
                          P0=Fraction(1, 9))
    rep2 = transform_quartic(q2)
    # solve rho'^2 = (4 rho^4 + B rho^2 + C)/4 ... no closed generator here;
    # verify instead via the defining relation on a symbolic sample series:
    # pick rho = p-series of some cubic and check only the algebraic
    # identity y'^2 = (y-P0)*(A*(y-P0)^2 + B*(y-P0) + C) after substituting
    # rho'^2 manually.
    rho2 = weierstrass_p_series(Scalar.exact(3), Scalar.exact(1, 3), 18)
    y2 = rho2 * rho2 + PuiseuxSeries.constant(Scalar.exact(1, 9))
    yp = y2.differentiate()
    lhs = yp * yp
    # y'^2 = 4 rho^2 rho'^2 with rho'^2 = 4rho^3 - 3 rho - 1/3
    rp2 = rho2.pow_int(3).scale(Scalar.exact(4)) - rho2.scale(Scalar.exact(3)) \
        - PuiseuxSeries.constant(Scalar.exact(1, 3))
    rhs = (rho2 * rho2 * rp2).scale(Scalar.exact(4))
    diff = lhs - rhs
    for c in diff.coeffs:
        assert c.is_exact and c.is_zero()


def test_residue_pairing_partition():
    specs = enumerate_branches("C43", LAM9)
    built = []
    for s in specs:
        mode = "force" if s.compatible is False else "raise"
        built.append((s, build_series(s, 8, on_incompatible=mode).y))
    pairs = residue_pairing(built)
    seen = [i for p in pairs for i in p.members]
    assert sorted(seen) == [0, 1, 2, 3, 4]
    kinds = sorted(p.kind for p in pairs)
    assert kinds == ["negative-pair", "negative-pair", "self-zero"]


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_residue_pairing_partition_at_every_precision(bits):
    set_default_precision(bits)
    specs = enumerate_branches("C43", Scalar.exact(1, 9, bits))
    built = []
    for s in specs:
        mode = "force" if s.compatible is False else "raise"
        built.append((s, build_series(s, 8, on_incompatible=mode).y))
    assert {ys.coefficient(-1).precision for _, ys in built} == {bits}
    kinds = sorted(p.kind for p in residue_pairing(built))
    assert kinds == ["negative-pair", "negative-pair", "self-zero"]


def test_residue_pairing_tolerance_scales_with_precision():
    spec = enumerate_branches("C43", LAM9)[0]
    r = Scalar.from_real("0.7", 1024)

    def kinds(a, b):
        pairs = residue_pairing([(spec, PuiseuxSeries(-1, 1, [a])),
                                 (spec, PuiseuxSeries(-1, 1, [b]))])
        return [p.kind for p in pairs]

    assert kinds(r, -r) == ["negative-pair"]
    # 1e-30 is below the old absolute 1e-25 but far above 2**-512
    assert kinds(r, -r + Scalar.from_real("1e-30", 1024)) == \
        ["unpaired", "unpaired"]


def test_residue_pairing_c165_reports_values():
    specs = enumerate_branches("C165", LAM9)
    built = [(s, build_series(s, 8).y) for s in specs]
    pairs = residue_pairing(built)
    assert sorted(i for p in pairs for i in p.members) == [0, 1, 2, 3]
    # b_{-1} = c1^2/10 is x_sign-even: residues come in equal (not
    # negated) pairs per root branch, so no negative pairs arise here
    for p in pairs:
        for s_idx, r in zip(p.members, p.residues):
            expected = built[s_idx][0]
            assert (r - (build_series(expected, 8).c1 ** 2 / 10)).mag() \
                < mpmath.mpf("1e-60")


def _reference_pairing(residues, tol):
    """The pairing as a plain loop over indices with a set of used ones."""
    used, out = set(), []
    for i, r in enumerate(residues):
        if i in used:
            continue
        used.add(i)
        if r.mag() <= tol:
            out.append(((i,), "self-zero"))
            continue
        j = next((j for j in range(i + 1, len(residues))
                  if j not in used and (r + residues[j]).mag() <= tol), None)
        if j is None:
            out.append(((i,), "unpaired"))
        else:
            used.add(j)
            out.append(((i, j), "negative-pair"))
    return out


@given(st.lists(st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])),
                max_size=9),
       st.sampled_from([None, 0, 2 ** -3, 2 ** -1]))
def test_residue_pairing_is_a_partition_matching_a_reference_loop(values, tol):
    residues = [Scalar.exact(q) for q in values]
    pairs = residue_pairing([(None, PuiseuxSeries(-1, 1, [r])) for r in residues],
                            tol=tol)
    members = [i for p in pairs for i in p.members]
    assert sorted(members) == list(range(len(residues)))
    bound = half_precision_tol(256) if tol is None else tol
    for p in pairs:
        assert p.residues == tuple(residues[i] for i in p.members)
        if p.kind == "self-zero":
            assert p.residues[0].mag() <= bound
        elif p.kind == "negative-pair":
            assert (p.residues[0] + p.residues[1]).mag() <= bound
        else:
            assert p.kind == "unpaired" and p.residues[0].mag() > bound
    assert [(p.members, p.kind) for p in pairs] == \
        _reference_pairing(residues, bound)


def test_residue_pairing_requires_residue_window():
    # a truncated window that ends below t**-1 has an unknown residue
    unknown = PuiseuxSeries(-5, 1, [])
    spec = enumerate_branches("C43", LAM9)[0]
    with pytest.raises(ContractViolation):
        residue_pairing([(spec, unknown)])


def test_ansatz_rejects_out_of_range_indices():
    with pytest.raises(ContractViolation):
        SubequationAnsatz(m=1, h={(3, 1): Scalar.exact(1)})
