from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest, to_rational

from painleve_hh import (ContractViolation, PuiseuxSeries, Scalar,
                         set_default_precision)

from conftest import cauchy

small_coeffs = st.lists(
    st.builds(Fraction, st.integers(min_value=-9, max_value=9),
              st.integers(min_value=1, max_value=4)),
    min_size=1, max_size=5,
)


def _dot(a, b):
    """sum_i a[i]*b[i]: coefficient len(a) - 1 of the product of a and b
    reversed."""
    return cauchy(a, b[::-1], len(a) - 1)


def S(lead, coeffs, step=1, complete=False):
    return PuiseuxSeries(lead, step, [Scalar.exact(c) for c in coeffs],
                         complete=complete)


@given(small_coeffs, small_coeffs, small_coeffs)
def test_ring_identities_on_complete_series(a, b, c):
    A = S(-2, a, complete=True)
    B = S(0, b, complete=True)
    C = S(1, c, complete=True)
    lhs = (A + B) * C
    rhs = A * C + B * C
    for e in set(lhs.exponents()) | set(rhs.exponents()):
        le, re = lhs.coefficient(e), rhs.coefficient(e)
        assert le is not None and re is not None
        assert (le - re).is_zero()


def test_truncation_window_of_product():
    # 10 known coefficients starting at t^-2, times itself
    A = S(-2, range(1, 11))
    assert A.max_exp == 7
    P = A * A
    assert P.lead == Fraction(-4)
    assert P.max_exp == 5  # -2 + 7
    # the coefficient beyond the window is unknown, not zero
    assert P.coefficient(6) is None
    assert P.coefficient(5) is not None


def test_mixed_step_arithmetic():
    half = S(Fraction(-3, 2), [1, 0, 2], step=Fraction(1, 2))
    whole = S(-2, [1, 1, 1])
    prod = half * whole
    assert prod.step == Fraction(1, 2)
    assert prod.lead == Fraction(-7, 2)
    total = half + whole
    assert total.coefficient(-2).fraction() == 1
    assert total.coefficient(Fraction(-3, 2)).fraction() == 1


def test_complete_flag_semantics():
    fixture = PuiseuxSeries(-2, 1, (1,), complete=True)
    assert fixture.complete
    cube = fixture.pow_int(3)
    assert cube.complete
    assert cube.coefficient(-6).fraction() == 1
    assert cube.coefficient(0).is_zero()  # exact zero, not unknown
    truncated = S(-2, [1, 2, 3])
    mixed = fixture * truncated
    assert not mixed.complete
    assert mixed.max_exp == truncated.max_exp + Fraction(-2)


def test_differentiate():
    a = S(-2, [3, 0, 5])  # 3 t^-2 + 5
    d = a.differentiate()
    assert d.coefficient(-3).fraction() == -6
    assert d.coefficient(-1).fraction() == 0
    half = S(Fraction(-3, 2), [2], step=Fraction(1, 2))
    dh = half.differentiate()
    assert dh.coefficient(Fraction(-5, 2)).fraction() == -3


def test_differentiate_keeps_exactness_at_zero_exponent():
    a = S(0, [7, 1])
    d = a.differentiate()
    c = d.coefficient(-1)
    assert c.is_exact and c.is_zero()


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_differentiate_carries_exact_zeros_at_the_precision_of_the_product(bits):
    # each product n/d*c is formed exactly and rounded once at c's own
    # precision, an exact c staying exact at its label; an exact zero puts
    # no bits into the sum, so it comes out as the exact zero of the
    # default precision, whatever label it carried
    set_default_precision(bits)
    coeffs = [Scalar.exact(0, 1, 64), Scalar.exact(3), Scalar.exact(0),
              Scalar.exact(0, 1, 512), Scalar.from_real(0, 128),
              Scalar.exact(0, 1, 2048), Scalar.from_real("0.25", 64)]
    s = PuiseuxSeries(Fraction(-3, 2), Fraction(1, 2), coeffs)
    set_default_precision(256)
    want = [Scalar.exact(0), Scalar.exact(-3, 1, bits), Scalar.exact(0),
            Scalar.exact(0), Scalar.from_real(0, 128), Scalar.exact(0),
            Scalar.from_real("0.375", 64)]
    got = s.differentiate().coeffs
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_scalar(g, w)


def _entry(kind, q: Fraction, bits: int) -> Scalar:
    """q as an entry of the given kind at bits; a rounded one carries all
    of its bits, so that n/d times it needs a rounding."""
    if kind == "exact":
        return Scalar.exact(q, 1, bits)
    if kind == "rounded zero":
        return Scalar.from_real(0, bits)
    with mpmath.workprec(bits):
        re = mpmath.mpf(q.numerator) / q.denominator
        im = mpmath.mpf(q.denominator) / 7 if kind == "complex" else 0
    return Scalar.from_complex(re, im, bits)


@given(st.lists(st.tuples(st.sampled_from(["exact", "real", "complex",
                                           "rounded zero"]),
                          st.builds(Fraction, st.integers(-9, 9),
                                    st.integers(1, 4))),
                min_size=1, max_size=7),
       st.sampled_from([64, 256, 1024]),
       st.sampled_from([-2, Fraction(-3, 2), -1, 0]),
       st.sampled_from([1, Fraction(1, 2)]), st.booleans())
def test_differentiate_rounds_each_coefficient_once_at_its_own_precision(
        entries, bits, lead, step, complete):
    # each coefficient is the exact n/d*c rounded once at c's precision,
    # under the 256-bit default; an exact c or an exact zero stays exact
    coeffs = [_entry(kind, q, bits) for kind, q in entries]
    s = PuiseuxSeries(lead, step, coeffs, complete=complete)
    d = s.differentiate()
    assert d.complete == s.complete
    assert d.max_exp == (None if complete else s.max_exp - 1)
    for e, c in zip(s.exponents(), coeffs):
        got = d.coefficient(e - 1)
        if e == 0 or c.is_exact and c.is_zero():
            assert got.is_exact and got.is_zero()
        elif c.is_exact:
            _same_scalar(got, Scalar.exact(e * c.fraction(), 1, bits))
        else:
            _same_scalar(got, Scalar.from_complex(*(
                mpmath.mp.make_mpf(from_rational(q.numerator, q.denominator,
                                                 bits, round_nearest))
                for q in (e * Fraction(*to_rational(p))
                          for p in c.mpc()._mpc_)), bits))


def test_evaluate_against_direct_sum():
    s = S(-2, [Fraction(1), Fraction(-3, 2), Fraction(2, 7)])
    t = Scalar.exact(1, 3)
    direct = (Scalar.exact(9) - Scalar.exact(3, 2) * 3
              + Scalar.exact(2, 7))
    got = s.evaluate(t)
    assert (got - direct).mag() < mpmath.mpf(2) ** (-200)


def test_evaluate_half_integer_grid():
    s = PuiseuxSeries(Fraction(-3, 2), Fraction(1, 2),
                      [Scalar.exact(1), Scalar.exact(0), Scalar.exact(2)])
    t = Scalar.exact(1, 4)
    # t^(-3/2) + 2 t^(-1/2) = 8 + 4
    assert (s.evaluate(t) - Scalar.exact(12)).mag() < mpmath.mpf(2) ** (-200)


def test_evaluate_at_center_rejected():
    s = S(-2, [1])
    with pytest.raises(ContractViolation):
        s.evaluate(Scalar.exact(0))


def test_an_empty_series_evaluates_to_an_exact_zero():
    v = PuiseuxSeries(Fraction(-3, 2), 1, ()).evaluate(Scalar.exact(1, 4))
    assert v.is_exact and v.is_zero()


@pytest.mark.parametrize("lead, step", [(0.5, 1), (0, 0), (0, Fraction(-1, 2))])
def test_exponents_must_be_rational_and_the_step_positive(lead, step):
    with pytest.raises(ContractViolation):
        PuiseuxSeries(lead, step, [1])


def test_center_mismatch_rejected():
    a = S(0, [1])
    b = PuiseuxSeries(0, 1, [Scalar.exact(1)], center=Scalar.exact(1))
    with pytest.raises(ContractViolation):
        a + b


def test_zero_series_behavior():
    z = PuiseuxSeries.zero()
    assert z.is_identically_zero()
    a = S(-1, [2, 3])
    assert (a + z).coefficient(-1).fraction() == 2
    assert (a * z).is_identically_zero()
    c = PuiseuxSeries.constant(0)
    assert (c.coeffs, c.complete) == ((), True)


def test_a_complete_series_of_rounded_zeros_is_not_identically_zero():
    # a rounded zero may stand for a nonzero value below its rounding, so it
    # neither annihilates a product nor drops out of a sum
    z = PuiseuxSeries(0, 1, [Scalar.from_real("0.0")], complete=True)
    assert not z.is_identically_zero()
    assert not PuiseuxSeries.constant(Scalar.from_real(0)).is_identically_zero()
    p = PuiseuxSeries(-2, 1, [1, 2]) * z
    assert (p.lead, p.step, p.complete, p.max_exp) == (-2, 1, False, -1)
    assert all(c.is_zero() and not c.is_exact for c in p.coeffs)
    assert len(p.coeffs) == 2
    s = PuiseuxSeries(0, 1, [1, 2]) + z
    assert (s.lead, s.complete, s.max_exp) == (0, False, 1)
    assert not s.coeffs[0].is_exact and s.coeffs[0] == 1
    assert s.coeffs[1].is_exact and s.coeffs[1].fraction() == 2


def test_sum_keeps_no_coefficient_when_a_window_ends_below_the_lead():
    # an empty step-1 window at 0 is known through -1, below the 1/2 grid's
    # lead 0
    empty = PuiseuxSeries(0, 1, ())
    s = empty + PuiseuxSeries(0, Fraction(1, 2), [1, 2])
    assert s.coeffs == () and not s.complete


def test_an_empty_sum_claims_only_the_window_it_knows():
    empty = PuiseuxSeries(0, 1, ())
    s = empty + PuiseuxSeries(0, Fraction(1, 2), [1, 2])
    assert s.max_exp == -1
    assert s.coefficient(Fraction(-1, 2)) is None
    c = s.coefficient(-1)
    assert c.is_exact and c.is_zero()
    # the empty sum adds onto any grid, and still caps what follows
    t = s + S(-3, [1, 2, 3, 4])
    assert (t.lead, t.max_exp) == (-3, -1) and t.coefficient(0) is None
    assert [t.coefficient(e).fraction() for e in (-3, -2, -1)] == [1, 2, 3]


def test_normalized_drops_exact_leading_zeros():
    s = S(-2, [0, 0, 5, 1])
    n = s.normalized()
    assert n.lead == 0
    assert n.coefficient(0).fraction() == 5
    # all exact zeros: the zero series when complete, else an empty window
    # that ends where the zeros did
    z = S(-2, [0, 0], complete=True).normalized()
    assert (z.lead, z.coeffs, z.complete) == (0, (), True)
    w = S(-2, [0, 0]).normalized()
    assert (w.lead, w.coeffs, w.complete, w.max_exp) == (0, (), False, -1)


def test_a_product_with_an_empty_window_knows_nothing_past_it():
    a = PuiseuxSeries(0, 1, [1, 2])
    p = a.truncate(-1) * a
    assert (p.lead, p.coeffs, p.complete, p.max_exp) == (0, (), False, -1)


def test_truncate():
    s = S(-2, range(10))
    t = s.truncate(2)
    assert t.max_exp == 2
    assert not t.complete


def test_coefficient_off_grid_inside_window():
    s = S(-2, [1, 2], step=1)
    c = s.coefficient(Fraction(-3, 2))
    assert c is not None and c.is_zero()


def _scalar_of(kind, q: Fraction, bits=128):
    if kind == "exact":
        return Scalar.exact(q)
    if kind == "real":
        return Scalar.from_real(mpmath.mpf(q.numerator) / q.denominator, bits)
    return Scalar.from_complex(mpmath.mpf(q.numerator) / q.denominator,
                               mpmath.mpf(q.denominator) / 7, bits)


def _same_scalar(x, y):
    assert (x.is_exact, x.precision) == (y.is_exact, y.precision)
    assert x == y
    if not x.is_exact:
        assert x.mpc() == y.mpc()


def _same_coefficients(a, b):
    assert (a.lead, a.step, a.complete, a.max_exp) == \
        (b.lead, b.step, b.complete, b.max_exp)
    assert len(a.coeffs) == len(b.coeffs)
    for x, y in zip(a.coeffs, b.coeffs):
        _same_scalar(x, y)


def _exact_dot(us, vs):
    """sum u*v over the terms with no exact-zero factor: the exact Fraction
    sum, or that sum rounded once by mpmath at their highest precision."""
    kept = [(u, v) for u, v in zip(us, vs) if not (
        u.is_exact and u.is_zero() or v.is_exact and v.is_zero())]
    if not kept:
        return Scalar.exact(0)
    bits = max(max(u.precision, v.precision) for u, v in kept)
    if all(u.is_exact and v.is_exact for u, v in kept):
        return Scalar.exact(sum(u.fraction() * v.fraction() for u, v in kept),
                            1, bits)
    total = [Fraction(0), Fraction(0)]
    for u, v in kept:
        (ur, ui), (vr, vi) = ((w.fraction(), 0) if w.is_exact else
                              [Fraction(*to_rational(p)) for p in w.mpc()._mpc_]
                              for w in (u, v))
        total[0] += ur * vr - ui * vi
        total[1] += ur * vi + ui * vr
    return Scalar.from_complex(*(mpmath.mp.make_mpf(from_rational(
        q.numerator, q.denominator, bits, round_nearest)) for q in total), bits)


def _pairwise_product(a, b):
    """(exponent -> coefficient, known window cap or None) of a*b by the
    double loop: the exact sum over the explicit pairs adding up to each
    exponent, rounded once."""
    caps = [s.max_exp + o.lead for s, o in ((a, b), (b, a))
            if s.max_exp is not None]
    cap = min(caps) if caps else None
    pairs = {}
    for ea, ca in zip(a.exponents(), a.coeffs):
        for eb, cb in zip(b.exponents(), b.coeffs):
            e = ea + eb
            if cap is None or e <= cap:
                us, vs = pairs.setdefault(e, ([], []))
                us.append(ca)
                vs.append(cb)
    return {e: _exact_dot(us, vs) for e, (us, vs) in pairs.items()}, cap


zero_rich_coeffs = st.lists(
    st.one_of(st.just(Fraction(0)),
              st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                        st.integers(min_value=1, max_value=4))),
    min_size=1, max_size=6,
)
kinds = st.sampled_from(["exact", "real", "complex"])


@given(zero_rich_coeffs, zero_rich_coeffs, kinds, kinds,
       st.sampled_from([1, Fraction(1, 2)]), st.sampled_from([1, Fraction(1, 2)]),
       st.booleans(), st.booleans())
def test_product_matches_double_loop(a, b, kind_a, kind_b, step_a, step_b,
                                     complete_a, complete_b):
    A = PuiseuxSeries(Fraction(-3, 2), step_a,
                      [_scalar_of(kind_a, q) for q in a], complete=complete_a)
    B = PuiseuxSeries(-2, step_b, [_scalar_of(kind_b, q) for q in b],
                      complete=complete_b)
    if A.is_identically_zero() or B.is_identically_zero():
        return
    P = A * B
    ref, cap = _pairwise_product(A, B)
    assert P.max_exp == cap
    for e in set(P.exponents()) | set(ref):
        _same_scalar(P.coefficient(e), ref.get(e, Scalar.exact(0)))


def _spread(qs, kind, g, off_stride_rounded_zero):
    """qs at every g-th slot with exact zeros between (and after the last),
    slot 1 a rounded zero when asked."""
    coeffs = [Scalar.exact(0)] * (g * len(qs))
    coeffs[::g] = [_scalar_of(kind, q) for q in qs]
    if off_stride_rounded_zero:
        coeffs[1] = Scalar.from_real(0, 64)
    return coeffs


def _last_nonzero_exponent(s):
    return max(e for e, c in zip(s.exponents(), s.coeffs)
               if not (c.is_exact and c.is_zero()))


@given(zero_rich_coeffs, zero_rich_coeffs, kinds, kinds,
       st.sampled_from([2, 3]), st.sampled_from([2, 3]),
       st.sampled_from([1, Fraction(1, 2)]), st.sampled_from([1, Fraction(1, 2)]),
       st.booleans(), st.booleans(), st.sampled_from([None, "a", "b"]))
def test_strided_product_matches_double_loop(a, b, kind_a, kind_b, g_a, g_b,
                                             step_a, step_b, complete_a,
                                             complete_b, rounded_zero_in):
    # terms that are not exact zeros sit on a stride, except a rounded zero
    # off it, which must not be skipped
    A = PuiseuxSeries(Fraction(-3, 2), step_a,
                      _spread(a, kind_a, g_a, rounded_zero_in == "a"),
                      complete=complete_a)
    B = PuiseuxSeries(-2, step_b, _spread(b, kind_b, g_b, rounded_zero_in == "b"),
                      complete=complete_b)
    if A.is_identically_zero() or B.is_identically_zero():
        return
    P = A * B
    ref, cap = _pairwise_product(A, B)
    step = min(step_a, step_b)
    last = cap if cap is not None else \
        _last_nonzero_exponent(A) + _last_nonzero_exponent(B)
    assert (P.lead, P.step, P.complete, P.max_exp) == \
        (A.lead + B.lead, step, cap is None, cap)
    assert len(P.coeffs) == (last - P.lead) / step + 1
    for e, c in zip(P.exponents(), P.coeffs):
        _same_scalar(c, ref.get(e, Scalar.exact(0)))
    for e in set(ref) - set(P.exponents()):
        assert ref[e].is_exact and ref[e].is_zero()
    # a square folds its pairs: the same bits as the product with a copy
    copy = PuiseuxSeries(A.lead, A.step, A.coeffs, complete=A.complete)
    _same_coefficients(A * A, A * copy)


def test_rounded_zero_off_the_stride_is_not_skipped():
    exact = [Scalar.exact(1), Scalar.exact(0), Scalar.exact(3)]
    rounded = [exact[0], Scalar.from_real(0, 64), exact[2]]
    a, b, c = (PuiseuxSeries(-2, 1, u, complete=True)
               for u in (exact, rounded, exact))
    for p, odd_exact in ((a * b, False), (a * c, True), (a * a, True)):
        # the rounded zero enters the odd slots 1*0.0 and 3*0.0; at slot 2
        # its partner is an exact zero, so 0*0.0 is skipped
        assert [c.is_exact for c in p.coeffs] == [True, odd_exact] * 2 + [True]
        assert [c == v for c, v in zip(p.coeffs, (1, 0, 6, 0, 9))] == [True] * 5


def test_zeros_between_strided_slots_carry_the_working_precision():
    # the exact zeros a dense product would sum have the default precision
    # of the moment, not that of import time
    set_default_precision(128)
    p = S(-2, [1, 0, 3], complete=True) * S(0, [2, 0, 5], complete=True)
    assert [c.precision for c in p.coeffs] == [128] * 5
    assert [c.fraction() for c in p.coeffs] == [2, 0, 11, 0, 15]

@given(zero_rich_coeffs, zero_rich_coeffs, kinds, kinds)
def test_cauchy_is_dot_over_the_pairs_present(a, b, kind_a, kind_b):
    a = [_scalar_of(kind_a, q) for q in a]
    b = [_scalar_of(kind_b, q) for q in b]
    for n in range(-2, len(a) + len(b) + 1):
        js = [j for j in range(len(a)) if 0 <= n - j < len(b)]
        _same_scalar(cauchy(a, b, n),
                     _dot([a[j] for j in js], [b[n - j] for j in js]))


@pytest.mark.parametrize("kind", ["exact", "real", "complex"])
def test_cauchy_at_the_edges_of_each_list(kind):
    a = [_scalar_of(kind, Fraction(v)) for v in (1, 2, 3)]
    b = [_scalar_of(kind, Fraction(v)) for v in (5, 7, 11, 13, 17)]
    # past both lists, and below them, there is no pair: an exact zero
    for n in (-3, -1, 7, 8, 100):
        for u, v in ((a, b), (b, a)):
            c = cauchy(u, v, n)
            assert c.is_exact and c.is_zero()
    # first of each, last of a, last of b, last of both
    for n, pairs in ((0, [(0, 0)]), (2, [(0, 2), (1, 1), (2, 0)]),
                     (4, [(0, 4), (1, 3), (2, 2)]), (6, [(2, 4)])):
        expected = _dot([a[i] for i, _ in pairs], [b[j] for _, j in pairs])
        _same_scalar(cauchy(a, b, n), expected)
        _same_scalar(cauchy(b, a, n), expected)


@given(zero_rich_coeffs, kinds, st.sampled_from([1, Fraction(1, 2)]),
       st.booleans(),
       st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=4))
def test_memoized_powers_match_iterated_products(coeffs, kind, step, complete,
                                                 requests):
    s = PuiseuxSeries(Fraction(-3, 2), step,
                      [_scalar_of(kind, q) for q in coeffs], complete=complete)
    # ask in a random order, so later powers build on whatever is stored
    for n in requests + [6]:
        expected = PuiseuxSeries.constant(1) if n == 0 else s
        for _ in range(n - 1):
            expected = expected * s
        _same_coefficients(s.pow_int(n), expected)


def test_powers_and_derivative_are_formed_once():
    s = S(-2, [1, 0, Fraction(1, 3), 2])
    assert s.pow_int(1) is s
    for n in (2, 3, 5):
        assert s.pow_int(n) is s.pow_int(n)
    assert s.differentiate() is s.differentiate()
    assert s.differentiate().differentiate() is s.differentiate().differentiate()


def test_negative_power_rejected():
    with pytest.raises(ContractViolation):
        S(-2, [1]).pow_int(-1)


def test_high_power_builds_without_recursion():
    s = PuiseuxSeries(1, 1, (Scalar.exact(1),), complete=True)
    p = s.pow_int(1500)
    assert p.lead == 1500 and p.complete
    assert [c.fraction() for c in p.coeffs] == [1]
    assert s.pow_int(1499).lead == 1499


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_a_non_finite_coefficient_is_rejected_by_the_product(value):
    # the coefficient is rejected where it is made, before a series holds it
    good = S(-2, [1, 2, 3])
    for bad in (lambda: Scalar.from_complex(2, value),
                lambda: Scalar.from_real(value)):
        with pytest.raises(ContractViolation,
                           match=f"'{value}' is not a finite number"):
            good * PuiseuxSeries(-2, 1, [Scalar.from_real(1), Scalar.exact(0),
                                         bad()])
