import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import from_rational, mpf_shift, round_nearest

from painleve_hh import (BranchSpec, ContractViolation, DenseMatrix,
                         PhaseState, PuiseuxSeries, Scalar, build_henon_heiles,
                         build_series, energy, energy_series,
                         reduce_to_fourth_order, residual_of_series,
                         set_default_precision, solve_linear)
from painleve_hh.series import combine


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
    # exact check at rational points: the potential V is energy at rest, and
    # rhs = -grad V.  V is quadratic in x, so a central difference is its
    # x-derivative; cubic in y, so Richardson's (4*D(h/2) - D(h))/3 of the
    # central difference D is its y-derivative
    sys_ = build_henon_heiles(Scalar.exact(-16, 5), Scalar.exact(3, 11))
    zero = Scalar.exact(0)

    def V(x, y):
        return energy(sys_, PhaseState(x, zero, y, zero, zero))

    def D(f, h):
        return (f(h) - f(-h)) / (2 * h)

    h = Scalar.exact(1, 7)
    for x, y in ((Scalar.exact(2, 3), Scalar.exact(-5, 4)),
                 (Scalar.exact(-7, 2), Scalar.exact(1, 9)),
                 (zero, Scalar.exact(3))):
        r1, r2 = sys_.rhs(x, y)
        dx = D(lambda u: V(x + u, y), h)
        dy = (4 * D(lambda u: V(x, y + u), h / 2)
              - D(lambda u: V(x, y + u), h)) / 3
        assert r1.is_exact and r1.fraction() == -dx.fraction()
        assert r2.is_exact and r2.fraction() == -dy.fraction()


def test_fourth_order_coefficients():
    # every coefficient read off exact residuals: y = t leaves -2(C+1) + 4H,
    # 4 lam, -(4 C lam - 6) and -20C/3 at t**0..t**3; y = t**2 adds
    # 2(4 lam + 1) + 4H at t**0 and -(2(2C-8) + 8(C+1) - 4 lam) at t**2
    def nonzero(terms):
        return {e: c for e, c in terms if c}

    for C, lam, H in ((Fraction(-4, 3), 1, 0), (Fraction(-16, 5), 1, 0),
                      (-1, 1, 0), (Fraction(-16, 5), Fraction(1, 9),
                                   Fraction(3, 7))):
        form = reduce_to_fourth_order(build_henon_heiles(
            Scalar.exact(C), Scalar.exact(lam)), Scalar.exact(H))

        def residual(n):
            r = form.residual_of_series(
                PuiseuxSeries(n, 1, [Scalar.exact(1)], complete=True))
            return nonzero((e, c.fraction())
                           for e, c in zip(r.exponents(), r.coeffs))

        assert residual(1) == nonzero([
            (0, -2 * (C + 1) + 4 * H), (1, 4 * lam),
            (2, -(4 * C * lam - 6)), (3, -Fraction(20, 3) * C)])
        assert residual(2) == nonzero([
            (0, 2 * (4 * lam + 1) + 4 * H),
            (2, -(2 * (2 * C - 8) + 8 * (C + 1) - 4 * lam)),
            (4, -(4 * C * lam - 6)), (6, -Fraction(20, 3) * C)])


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


def test_model_series_form_no_product_beyond_x2_and_y2(monkeypatch):
    # the residual is x'', y'' and products of x and y; the energy adds
    # x**2 and y**2, its only series products, and reuses them
    xs = PuiseuxSeries(Fraction(-3, 2), Fraction(1, 2),
                       [Scalar.exact(v) for v in (2, -1, 3, 5)])
    ys = PuiseuxSeries(-2, 1, [Scalar.exact(-3), Scalar.exact(0),
                               Scalar.from_real("0.7")])
    sys_ = build_henon_heiles(Scalar.exact(-4, 3), Scalar.from_real("0.3"))
    mul, products = PuiseuxSeries.__mul__, []

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)
    monkeypatch.setattr(PuiseuxSeries, "__mul__", counted)
    residual_of_series(sys_, xs, ys)
    assert products == []
    energy_series(sys_, xs, ys)
    assert products == [(xs, xs), (ys, ys)]
    energy_series(sys_, xs, ys)
    assert len(products) == 2


# -- each coefficient is its formula, rounded once -------------------------------


def _dyadic(s: Scalar):
    """s as (re, im, e, q): s == (re + i*im) * 2**e / q with ints re, im
    and q > 0, read from the stored bits (no Fraction of a wide spread)."""
    if s.is_exact:
        return s.fraction().numerator, 0, 0, s.fraction().denominator
    parts = [(-m if sign else m, x) for sign, m, x, _ in s.mpc()._mpc_]
    e = min(x for m, x in parts if m) if any(m for m, _ in parts) else 0
    return (*(m << x - e if m else 0 for m, x in parts), e, 1)


def _times(u, v):
    """The exact product of two _dyadic values."""
    (a, b, e, q), (c, d, f, r) = u, v
    return a * c - b * d, a * d + b * c, e + f, q * r


def _live(contributions):
    """The (q, factors) contributions that enter: q != 0 and no factor an
    exact zero."""
    return [(q, fs) for q, fs in contributions
            if q and not any(f.is_exact and f.is_zero() for f in fs)]


def _rounded_once(contributions):
    """(value, bits): the exact sum of q * prod(factors) over the (q,
    factors) contributions rounded once, as raw mpf parts, at bits, the
    highest precision of the factors that enter; a Fraction when none of
    them is rounded; None when none enters."""
    live = _live(contributions)
    if not live:
        return None
    values = []
    for q, fs in live:
        v = (q.numerator, 0, 0, q.denominator)
        for f in fs:
            v = _times(v, _dyadic(f))
        values.append(v)
    den = math.lcm(*(q for *_, q in values))
    low = min(e for _, _, e, _ in values)
    re, im = (sum(v[i] * (den // v[3]) << v[2] - low for v in values)
              for i in (0, 1))
    bits = max(f.precision for _, fs in live for f in fs)
    if all(f.is_exact for _, fs in live for f in fs):
        return Fraction(re * 2 ** max(low, 0), den * 2 ** max(-low, 0)), bits
    # shift the trailing zeros out first: libmp strips them 8 bits a step
    return tuple(mpf_shift(from_rational(n >> _zeros(n), den, bits,
                                         round_nearest), low + _zeros(n))
                 for n in (re, im)), bits


def _zeros(n: int) -> int:
    """The number of trailing zero bits of n; 0 for n == 0."""
    return (n & -n).bit_length() - 1 if n else 0


def _term_contributions(c, a, b):
    """(lead, cap or None, {exponent: [(q, factors)]}) of the term c*a*b
    (b a series) or c times the b-th derivative of a, the way + and *
    window them; None when the term is identically zero."""
    q, fs = (c.fraction(), ()) if isinstance(c, Scalar) and c.is_exact \
        else (Fraction(1), (c,)) if isinstance(c, Scalar) else (Fraction(c), ())
    if not q:
        return None
    out = {}
    if isinstance(b, PuiseuxSeries):
        if a.is_identically_zero() or b.is_identically_zero():
            return None
        lead = a.lead + b.lead
        caps = [s.max_exp + o.lead for s, o in ((a, b), (b, a))
                if s.max_exp is not None]
        for ea, ca in zip(a.exponents(), a.coeffs):
            for eb, cb in zip(b.exponents(), b.coeffs):
                out.setdefault(ea + eb, []).append((q, fs + (ca, cb)))
        cap = min(caps) if caps else None
    else:
        lead, cap = a.lead - b, None if a.complete else a.max_exp - b
        for e, ca in zip(a.exponents(), a.coeffs):
            f = math.prod(e - i for i in range(b))
            out.setdefault(e - b, []).append((q * f, fs + (ca,)))
        if cap is None and not _live([t for ts in out.values() for t in ts]):
            return None
    return lead, cap, out


def _assert_formula_rounded_once(got, terms):
    """Every coefficient of the series got is the exact sum of its terms
    (c, a, b) on their stored inputs, rounded once; its window is the
    one + and * give."""
    parts = [p for p in (_term_contributions(*t) for t in terms) if p]
    caps = [cap for _, cap, _ in parts if cap is not None]
    assert got.complete == (not caps)
    if caps:
        assert got.max_exp == min(caps)
    if got.coeffs:
        assert got.lead == min(lead for lead, _, _ in parts)
    for e, c in zip(got.exponents(), got.coeffs):
        want = _rounded_once([t for _, _, out in parts
                              for t in out.get(e, [])])
        if want is None:
            assert c.is_exact and c.is_zero()
            continue
        value, bits = want
        assert c.precision == bits
        if isinstance(value, Fraction):
            assert c.is_exact and c.fraction() == value
        else:
            assert not c.is_exact and c.mpc()._mpc_ == value
    # nothing that enters below the cap is left out of the window
    for _, _, out in parts:
        for e, ts in out.items():
            if (not caps or e <= min(caps)) and _live(ts):
                assert got.coefficient(e) is not None


@st.composite
def coefficients(draw, bits, spread):
    """An exact zero, an exact rational, or a real or complex value (a
    zero included) rounded at bits, scaled by 2**k with |k| <= spread."""
    kind = draw(st.sampled_from(["zero", "exact", "real", "complex",
                                 "rounded-zero"]))
    q = draw(st.fractions(min_value=-9, max_value=9, max_denominator=20))
    k = draw(st.integers(-spread, spread))
    if kind == "zero":
        return Scalar.exact(0, 1, bits)
    if kind == "exact":
        return Scalar.exact(q * Fraction(2) ** k, 1, bits)
    if kind == "rounded-zero":
        return Scalar.from_real(0, bits)
    parts = [q, draw(st.fractions(-9, 9, max_denominator=20))
             if kind == "complex" else 0]
    with mpmath.workprec(bits):
        return Scalar.from_complex(*(mpmath.ldexp(mpmath.mpf(p.numerator)
                                                  / p.denominator, k)
                                     for p in parts), bits)


@st.composite
def series_pairs(draw):
    """(x, y) on the C165 grid (x on half-integer exponents) or the C43
    one, each at 64, 256 or 1024 bits, truncated or complete."""
    grid = draw(st.sampled_from(["C165", "C43"]))
    spread = draw(st.sampled_from([0, 300, 3000]))
    out = []
    for lead, step in (((Fraction(-3, 2), Fraction(1, 2)) if grid == "C165"
                        else (-2, 1)), (-2, 1)):
        bits = draw(st.sampled_from([64, 256, 1024]))
        coeffs = draw(st.lists(coefficients(bits, spread), min_size=1,
                               max_size=7))
        out.append(PuiseuxSeries(lead, step, coeffs,
                                 complete=draw(st.booleans())))
    return out


def _parameters(draw, bits):
    """lambda, C and H: exact, or rounded at bits."""
    with mpmath.workprec(bits):
        return [draw(st.sampled_from([Scalar.exact(v), Scalar.from_real(
            mpmath.mpf(v.numerator) / v.denominator, bits)]))
            for v in (Fraction(1, 9), Fraction(-16, 5), Fraction(3, 7))]


def _check_every_kernel(xs, ys, lam, C, H):
    sys_ = build_henon_heiles(C, lam)
    rx, ry = residual_of_series(sys_, xs, ys)
    _assert_formula_rounded_once(rx, [(1, xs, 2), (lam, xs, 0), (2, xs, ys)])
    _assert_formula_rounded_once(ry, [(1, ys, 2), (1, ys, 0), (1, xs, xs),
                                      (-C, ys, ys)])
    x1, y1, x2, y2 = (xs.differentiate(), ys.differentiate(), xs.pow_int(2),
                      ys.pow_int(2))
    _assert_formula_rounded_once(energy_series(sys_, xs, ys), [
        (Fraction(1, 2), x1, x1), (Fraction(1, 2), y1, y1),
        (Scalar.exact(1, 2) * lam, xs, xs), (Fraction(1, 2), ys, ys),
        (1, x2, ys), (-Scalar.exact(1, 3) * C, y2, ys)])
    ytt = combine([(1, ys, 2)], ys.center)
    _assert_formula_rounded_once(ytt, [(1, ys, 2)])
    _assert_formula_rounded_once(
        reduce_to_fourth_order(sys_, H).residual_of_series(ys), [
            (1, ys, 4), (-(2 * C - 8), ytt, ys), (4 * lam + 1, ys, 2),
            (-2 * (C + 1), y1, y1), (-(Scalar.exact(20, 3) * C), y2, ys),
            (-(4 * C * lam - 6), ys, ys), (4 * lam, ys, 0),
            (4 * H, PuiseuxSeries.constant(1), 0)])
    _assert_formula_rounded_once(xs + ys, [(1, xs, 0), (1, ys, 0)])
    _assert_formula_rounded_once(xs - ys, [(1, xs, 0), (-1, ys, 0)])
    _assert_formula_rounded_once(ys + lam, [
        (1, ys, 0), (1, PuiseuxSeries.constant(lam), 0)])
    for c in (lam, C, H):
        _assert_formula_rounded_once(xs.scale(c), [(c, xs, 0)])


@given(series_pairs(), st.sampled_from([64, 256, 1024]), st.data())
def test_every_series_kernel_is_its_formula_rounded_once(pair, bits, data):
    # residual, energy, fourth-order residual, + and scale: every
    # coefficient equals the Fraction evaluation of its formula on the
    # stored inputs (x, y, x', y', x**2, y**2, y'' and the stored
    # coefficients of the model), rounded once
    _check_every_kernel(*pair, *_parameters(data.draw, bits))


def test_a_term_far_below_enters_every_kernel():
    # 1e-100000000 next to O(1) terms: in x, in the energy H and squared
    tiny = Scalar.from_real("1e-100000000", 256)
    xs = PuiseuxSeries(Fraction(-3, 2), Fraction(1, 2), [
        Scalar.from_complex("0.25", "-1.5", 256), tiny])
    ys = PuiseuxSeries(-2, 1, [Scalar.exact(-15, 8),
                               Scalar.from_real("3.1", 1024)])
    _check_every_kernel(xs, ys, Scalar.from_real("0.3", 256),
                        Scalar.exact(-16, 5), tiny)


def test_c43_lowest_residual_is_the_stored_lead_squared_minus_6():
    # t**-4 of y'' + y + x**2 - C*y**2 is 6*y0 + x0**2 + (4/3)*y0**2 =
    # x0**2 - 6, with y0 = -3 and x0 the stored, rounded sqrt(6): one
    # rounding of that exact value, which a rounded x0**2 used to hide
    for bits in (64, 256, 1024):
        set_default_precision(bits)
        sol = build_series(BranchSpec(case="C43", lam=Scalar.exact(1, 9),
                                      root_branch="plus"), 10)
        x0, y0 = sol.x.coeffs[0], sol.y.coeffs[0]
        _, ry = residual_of_series(sol.system(), sol.x, sol.y)
        got = ry.coefficient(-4)
        value, want_bits = _rounded_once([
            (Fraction(1), (x0, x0)), (Fraction(6), (y0,)),
            (Fraction(4, 3), (y0, y0))])
        assert got.precision == want_bits == bits
        assert got.mpc()._mpc_ == value and not got.is_zero()
        assert -bits - 2 < math.log2(abs(got.mpc().real)) < -bits + 8
