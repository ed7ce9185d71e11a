import math
import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath.libmp import from_rational, fzero, round_nearest, to_rational

from painleve_hh import ContractViolation, Scalar, as_scalar, nth_root
from painleve_hh.jsonio import decode_scalar
from painleve_hh.scalars import (ScaledInts, exact_combination,
                                 half_precision_tol)

from conftest import cauchy

rationals = st.builds(
    Fraction,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=20),
)


def sc(q):
    return Scalar.exact(q)


@given(rationals, rationals, rationals)
def test_field_axioms_exact(a, b, c):
    A, B, C = sc(a), sc(b), sc(c)
    assert ((A + B) + C).fraction() == (A + (B + C)).fraction()
    assert (A * (B + C)).fraction() == (A * B + A * C).fraction()
    assert (A + B).fraction() == (B + A).fraction()
    assert (A * B).fraction() == a * b
    if b != 0:
        assert (A / B * B).fraction() == a


@given(rationals, rationals)
def test_exact_arithmetic_stays_exact(a, b):
    A, B = sc(a), sc(b)
    for value in (A + B, A - B, A * B):
        assert value.is_exact
    if b != 0:
        assert (A / B).is_exact


def test_float_contamination_is_sticky():
    a = Scalar.from_real("0.5")
    b = sc(Fraction(1, 2))
    assert not (a + b).is_exact
    assert not (a * b).is_exact


def test_exact_zero_annihilates_floats():
    z = sc(0)
    f = Scalar.from_real("3.25")
    assert (z * f).is_exact and (z * f).is_zero()
    assert (z / f).is_exact
    # addition with exact zero keeps the other operand untouched
    assert (z + f).mpc() == f.mpc()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        sc(1) / sc(0)


def test_precision_floor():
    with pytest.raises(ContractViolation):
        Scalar.exact(1).with_precision(32)


def test_nth_root_exact_perfect_power():
    r = nth_root(sc(16), 4, 0)
    assert r.is_exact and r.fraction() == 2
    r = nth_root(sc(Fraction(27, 8)), 3, 0)
    assert r.is_exact and r.fraction() == Fraction(3, 2)


def test_nth_root_branch_rotation():
    r = nth_root(sc(16), 4, 1)
    v = r.mpc()
    assert abs(v - mpmath.mpc(0, 2)) < mpmath.mpf("1e-70")


def test_nth_root_negative_rational_is_imaginary():
    x = sc(Fraction(-2, 11))
    r = nth_root(x, 2, 0)
    v = r.mpc()
    assert v.real == 0 or abs(v.real) < mpmath.mpf("1e-70")
    check = r * r - x
    assert check.mag() <= mpmath.mpf(2) ** (-128) * (1 + x.mag())


def test_nth_root_of_zero_any_branch():
    for branch in range(5):
        assert nth_root(sc(0), 5, branch).is_zero()


@given(rationals, st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=4))
def test_nth_root_inverts(q, n, branch):
    if branch >= n:
        branch %= n
    x = sc(q)
    r = nth_root(x, n, branch)
    err = (r ** n - x).mag()
    assert err <= mpmath.mpf(2) ** (-128) * (1 + x.mag())


def test_nth_root_contract_violations():
    with pytest.raises(ContractViolation):
        nth_root(sc(2), 0, 0)
    with pytest.raises(ContractViolation):
        nth_root(sc(2), 3, 3)


def test_principal_branch_argument():
    # principal cube root of -8 has argument pi/3, not pi
    r = nth_root(sc(-8), 3, 0)
    v = r.mpc()
    assert v.imag > 0
    with mpmath.mp.workprec(256):
        ref = mpmath.mpc(1, mpmath.sqrt(3))
        assert abs(v - ref) < mpmath.mpf("1e-70")


def test_high_precision_multiplication_round_trip():
    # regression: operations must not round at the ambient 53-bit context
    c = nth_root(sc(Fraction(625, 128)), 4, 0)
    err = (c * c - c ** 2).mag()
    assert err <= mpmath.mpf(2) ** (-240)
    err = (-(-c) - c).mag()
    assert err == 0


def test_as_scalar_coercions():
    assert as_scalar(3).fraction() == 3
    assert as_scalar(Fraction(2, 7)).fraction() == Fraction(2, 7)
    assert not as_scalar(0.25).is_exact
    with pytest.raises(ContractViolation):
        as_scalar(object())


def test_operators_coerce_numbers_like_as_scalar_and_refuse_strings():
    one = Scalar.exact(1)
    assert (one + 2) == as_scalar(3) and (one + 2).is_exact
    assert (Fraction(1, 2) * one).fraction() == Fraction(1, 2)
    assert one + 0.25 == as_scalar(1.25) and not (one + 0.25).is_exact
    # as_scalar parses strings, but an operand never is one
    with pytest.raises(TypeError):
        one + "1"
    with pytest.raises(TypeError):
        "1" * one


def test_magnitude_and_parts():
    z = Scalar.from_complex("3", "-4")
    assert abs(z.magnitude().mpc().real - 5) < mpmath.mpf("1e-70")


# -- the dot-product kernel ---------------------------------------------------


def _dot(a, b):
    """sum_i a[i]*b[i]: coefficient len(a) - 1 of the product of a and b
    reversed."""
    return cauchy(a, b[::-1], len(a) - 1)


@st.composite
def kernel_scalars(draw):
    """Exact (zero included), real-rounded and complex-rounded values."""
    kind = draw(st.sampled_from(["zero", "exact", "real", "complex",
                                 "rounded-zero"]))
    if kind == "zero":
        return sc(0)
    if kind == "exact":
        return sc(draw(rationals))
    if kind == "rounded-zero":
        return Scalar.from_real(0)
    re = draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    if kind == "real":
        return Scalar.from_real(re) / 3
    im = draw(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    return Scalar.from_complex(re, im) / 7


term_lists = st.lists(st.tuples(kernel_scalars(), kernel_scalars()),
                      max_size=12)


def _naive_dot(pairs):
    acc = sc(0)
    for x, y in pairs:
        acc = acc + x * y
    return acc


@given(term_lists)
def test_dot_matches_naive_fold(pairs):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    got, ref = _dot(a, b), _naive_dot(pairs)
    assert got.is_exact == ref.is_exact
    if ref.is_exact:
        assert got.fraction() == ref.fraction()
        return
    # the fold rounds each term and each partial sum: allow 8 ulps of
    # sum |x*y| per term
    scale = sum((x.mag() * y.mag() for x, y in pairs), mpmath.mpf(0))
    assert (got - ref).mag() <= 8 * len(pairs) * scale * mpmath.mpf(2) ** -256
    assert got.precision == ref.precision


@st.composite
def wide_scalars(draw):
    """kernel_scalars at 64 or 256 bits scaled by 2**k, |k| <= 2000, so that
    the exponents of a sum spread far wider than twice the precision."""
    x = draw(kernel_scalars()).with_precision(draw(st.sampled_from([64, 256])))
    return x * sc(Fraction(2) ** draw(st.integers(min_value=-2000, max_value=2000)))


@st.composite
def wide_term_lists(draw):
    """Lists of wide_scalars pairs, half of them with two more terms that
    cancel exactly, so that the sum can be far below its largest terms."""
    pairs = draw(st.lists(st.tuples(wide_scalars(), wide_scalars()),
                          max_size=12))
    if draw(st.booleans()):
        x, y = draw(wide_scalars()), draw(wide_scalars())
        for term in ((x, y), (-x, y)):
            pairs.insert(draw(st.integers(0, len(pairs))), term)
    return pairs


def _exact_value(s):
    """(re, im) of a Scalar as exact Fractions."""
    if s.is_exact:
        return s.fraction(), Fraction(0)
    return tuple(Fraction(*to_rational(v)) for v in s.mpc()._mpc_)


@given(st.one_of(term_lists, wide_term_lists()))
def test_dot_rounds_the_exact_sum_once(pairs):
    # the result is the exact sum: a Fraction when every term with no
    # exact-zero factor is exact, else rounded once to nearest at the
    # highest precision of those factors, in each component
    got = _dot([x for x, _ in pairs], [y for _, y in pairs])
    kept = [(x, y) for x, y in pairs
            if not (x.is_exact and x.is_zero() or y.is_exact and y.is_zero())]
    exact_re = exact_im = Fraction(0)
    for x, y in kept:
        (xr, xi), (yr, yi) = _exact_value(x), _exact_value(y)
        exact_re += xr * yr - xi * yi
        exact_im += xr * yi + xi * yr
    if all(x.is_exact and y.is_exact for x, y in kept):
        assert got.is_exact and got.fraction() == exact_re
        return
    bits = max(max(x.precision, y.precision) for x, y in kept)
    assert not got.is_exact and got.precision == bits
    assert got.mpc()._mpc_ == tuple(
        from_rational(q.numerator, q.denominator, bits, round_nearest)
        for q in (exact_re, exact_im))


@pytest.mark.parametrize("second", ["exact", "rounded"])
def test_dot_keeps_a_term_far_below_a_cancelling_pair(second):
    first = [Scalar.from_real(v, 64) for v in ("1e-300", "1e300", "1e300")]
    factor = (lambda q: Scalar.exact(q, 1, 64)) if second == "exact" else (
        lambda q: Scalar.from_real(q, 64))
    got = _dot(first, [factor(1), factor(1), factor(-1)])
    assert got.mpc()._mpc_ == first[0].mpc()._mpc_


def test_dot_rounds_an_exact_tie_once():
    # 1 + 2**-64 lies halfway between two 64-bit neighbours; the exact
    # sum ties to even, so no exact factor may be rounded on the way
    exact = [Scalar.exact(q, 1, 64) for q in
             (1, Fraction(1, 2 ** 64), Fraction(1, 3), Fraction(1, 5))]
    other = [Scalar.exact(1, 1, 64), Scalar.exact(1, 1, 64),
             Scalar.from_real(3 * 2.0 ** -100, 64),
             Scalar.from_real(-5 * 2.0 ** -100, 64)]
    got = _dot(exact, other)
    assert not got.is_exact and got == 1


@pytest.mark.parametrize("sign", [1, -1])
def test_dot_breaks_a_tie_by_a_term_far_below(sign):
    # 1 + 2**-64 is a 64-bit tie; a term 2**-5000 decides it, under a
    # pair of terms at 2**3000 that cancel
    exact = [Scalar.exact(q, 1, 64) for q in (2 ** 3000, 2 ** 3000, 1,
                                               Fraction(1, 2 ** 64),
                                               sign * Fraction(1, 2 ** 5000))]
    rounded = [Scalar.from_real(v, 64) for v in (1, -1, 1, 1, 1)]
    assert _dot(exact, rounded) == (1 + Fraction(1, 2 ** 63) if sign > 0 else 1)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_dot_rejects_a_non_finite_factor(value):
    # the factor is rejected where it is made, before a list holds it
    for bad in (lambda: Scalar.from_real(value),
                lambda: Scalar.from_complex(1, value)):
        for other in (sc(2), Scalar.from_real(2), Scalar.from_complex(1, 1)):
            with pytest.raises(ContractViolation,
                               match=f"'{value}' is not a finite number"):
                _dot([sc(1), other], [sc(1), bad()])


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_every_way_in_rejects_a_non_finite_number(value):
    number = float(value)
    makers = [lambda: Scalar.from_real(value), lambda: Scalar.from_real(number),
              lambda: Scalar.from_complex(value, 0),
              lambda: Scalar.from_complex(0, value, 64),
              lambda: Scalar.from_mpc(mpmath.mpc(number, 0), 64),
              lambda: Scalar.from_mpc(mpmath.mpc(1, number), 64),
              lambda: as_scalar(number), lambda: as_scalar(value),
              lambda: Scalar.exact(1) + number,
              lambda: Scalar.from_real(1) * number,
              lambda: decode_scalar({"re": value, "im": "0"}),
              lambda: decode_scalar({"re": "1", "im": value, "bits": 64})]
    for make in makers:
        with pytest.raises(ContractViolation, match="is not a finite number"):
            make()


def test_dot_exact_zero_when_every_term_has_an_exact_zero_factor():
    f = Scalar.from_complex("1.5", "2")
    out = _dot([sc(0), f, sc(3)], [f, sc(0), sc(0)])
    assert out.is_exact and out.is_zero()
    assert _dot([], []).is_exact
    # a rounded zero factor still makes the sum rounded, as x*y does
    assert not _dot([Scalar.from_real(0)], [sc(2)]).is_exact


# -- squares: each distinct product once, doubled -------------------------------


def _same_bits(x, y):
    """Same exactness, precision and value: the Fraction, or the raw mpc."""
    assert (x.is_exact, x.precision) == (y.is_exact, y.precision)
    if x.is_exact:
        assert x.fraction() == y.fraction()
    else:
        assert x.mpc()._mpc_ == y.mpc()._mpc_


square_lists = st.lists(
    st.tuples(st.one_of(kernel_scalars(), wide_scalars()),
              st.sampled_from([64, 128, 256])).map(
        lambda pair: pair[0].with_precision(pair[1])),
    max_size=10)


@given(square_lists)
def test_square_folds_to_the_bits_of_the_two_list_sum(a):
    # cauchy(a, a, n) sums each pair j < n - j once and doubles it; a copy
    # of a as the second list makes every pair a term of its own
    for n in range(-1, 2 * len(a) + 1):
        _same_bits(cauchy(a, a, n), cauchy(a, list(a), n))


def test_exact_square_doubles_the_numerator():
    a = [sc(Fraction(1, 3)), sc(Fraction(2, 5))]
    got = cauchy(a, a, 1)
    assert got.is_exact and got.fraction() == Fraction(4, 15)
    # an exact term doubled inside a rounded sum: 2*(1/3)*0.5 + (2/5)**2
    b = a + [Scalar.from_real("0.5")]
    # is 1/3 + 4/25 rounded once
    _same_bits(cauchy(b, b, 2), _dot(a, [Scalar.from_real("1.0"), a[1]]))


# -- the scaled-int kernel against exact sums -------------------------------------


def _kept_pairs(a, b, n):
    return [(a[j], b[n - j]) for j in range(len(a)) if 0 <= n - j < len(b)
            and not (a[j].is_exact and a[j].is_zero())
            and not (b[n - j].is_exact and b[n - j].is_zero())]


def _assert_exact_sum(got, a, b, n):
    """got is coefficient n of a*b: the exact Fraction sum over the pairs
    with no exact-zero factor, or that sum rounded once by mpmath at the
    highest precision of their factors; an exact zero with none."""
    kept = _kept_pairs(a, b, n)
    if not kept:
        assert got.is_exact and got.is_zero()
        assert got.precision == sc(0).precision
        return
    re = im = Fraction(0)
    for x, y in kept:
        (xr, xi), (yr, yi) = _exact_value(x), _exact_value(y)
        re += xr * yr - xi * yi
        im += xr * yi + xi * yr
    bits = max(max(x.precision, y.precision) for x, y in kept)
    assert got.precision == bits
    if all(x.is_exact and y.is_exact for x, y in kept):
        assert got.is_exact and got.fraction() == re
        return
    assert not got.is_exact
    assert got.mpc()._mpc_ == tuple(
        from_rational(q.numerator, q.denominator, bits, round_nearest)
        for q in (re, im))


@st.composite
def phased_lists(draw):
    """Entries i**(a + b*j) * r_j with real r_j: all real or all imaginary
    (b = 0), or real and imaginary in turn (b = 1) as in the C43 minus
    series, each list at 64, 256 or 512 bits.  Now and then an entry is an
    exact zero, a rounded zero, an exact rational where the phase is real,
    2**+-3000 times its value (a spread past 4*bits), or (v + i)/3, which
    breaks the pattern unless v = 0 happens to fit it."""
    a, b = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    bits = draw(st.sampled_from([64, 256, 512]))
    out = []
    for j, v in enumerate(draw(st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            max_size=9))):
        kind = draw(st.sampled_from(["phase"] * 4 + [
            "zero", "rounded-zero", "exact", "wide", "break"]))
        odd = (a + b * j) % 2
        if kind == "zero":
            out.append(sc(0))
        elif kind == "rounded-zero":
            out.append(Scalar.from_real(0, bits))
        elif kind == "exact" and not odd:
            out.append(sc(draw(rationals)))
        elif kind == "break":
            out.append(Scalar.from_complex(v, 1, bits) / 3)
        else:
            v = v * mpmath.mpf(2) ** (draw(st.sampled_from([-3000, 3000]))
                                      if kind == "wide" else 0)
            out.append(Scalar.from_complex(*((0, v) if odd else (v, 0)),
                                           bits) / 3)
    return out


def _broken(a):
    """Whether no i**(p + q*j), p and q in {0, 1}, puts every nonzero
    entry j of a on its real line: i**even * r has no imaginary part,
    i**odd * r no real part."""
    return not any(all(not _exact_value(c)[(p + q * j + 1) % 2]
                       for j, c in enumerate(a))
                   for p in (0, 1) for q in (0, 1))


kernel_lists = st.one_of(
    st.lists(st.tuples(st.one_of(kernel_scalars(), wide_scalars()),
                       st.sampled_from([64, 256, 512])).map(
        lambda pair: pair[0].with_precision(pair[1])), max_size=9),
    phased_lists())


@given(kernel_lists, kernel_lists)
def test_cauchy_is_the_exact_sum_rounded_once(a, b):
    # plain lists, fresh conversions on one slope, and a conversion grown
    # entry by entry, which rescales as it goes
    sa = ScaledInts(a)
    sb = ScaledInts(b, sa.slope)
    grown = ScaledInts([], sa.slope)
    for c in b:
        grown.append(c)
    for n in range(-1, len(a) + len(b)):
        for got in (cauchy(a, b, n), cauchy(sa, sb, n), cauchy(sa, grown, n)):
            _assert_exact_sum(got, a, b, n)
        for got in (cauchy(a, a, n), cauchy(sa, sa, n)):
            _assert_exact_sum(got, a, a, n)


def _entries(s):
    """The exact (re, im) of each entry of a ScaledInts, from its dense
    view."""
    re, im = s.dense()
    return [tuple(Fraction(v, s.den) * Fraction(2) ** (
        s.xs[j] if s.xs is not None else s.exp + s.slope * j) for v in parts)
        for j, parts in enumerate(zip(re, im or [0] * len(re)))]


@given(kernel_lists)
def test_a_grown_conversion_matches_a_fresh_one(a):
    # entry by entry: a grown twisted list keeps the phase a fresh
    # conversion finds, before and after an append breaks the pattern
    fresh = ScaledInts(a)
    grown = ScaledInts([], fresh.slope)
    for j, c in enumerate(a):
        grown.append(c)
        head = ScaledInts(a[:j + 1], fresh.slope)
        assert (grown.phase, grown.im is None) == (head.phase, head.im is None)
        assert _entries(grown) == _entries(head)
    assert grown.coeffs == a
    assert _entries(grown) == _entries(fresh) == [_exact_value(c) for c in a]
    for n in range(2 * len(a)):
        _same_bits(cauchy(grown, grown, n), cauchy(fresh, fresh, n))


@given(phased_lists())
@example([Scalar.from_complex(0, 1), sc(0), Scalar.from_complex(0, 3)])
@example([Scalar.from_complex(1, 0, 256) / 3, Scalar.from_real(0, 256),
          Scalar.from_complex(0, 1, 256) / 3])
def test_a_phased_list_is_held_twisted(a):
    # i**(a + b*j) * r_j keeps only r, in re, with b = 0 where it fits, so
    # that a real or an imaginary list meets real lists on one sum; a list
    # no such phase fits, as one with an entry with both parts nonzero,
    # stays dense
    s = ScaledInts(a)
    assert (s.phase is None) == (s.im is not None) == _broken(a)
    if not _broken(a) and len({bool(i) for r, i in map(_exact_value, a)
                               if r or i}) < 2:
        assert s.phase[1] == 0
    re, im = s.dense()
    assert _entries(s) == [_exact_value(c) for c in a]
    if s.phase is not None:
        p, q = s.phase
        assert [((v, 0), (0, v), (-v, 0), (0, -v))[(p + q * j) % 4]
                for j, v in enumerate(s.re)] == list(
            zip(re, im or [0] * len(re)))


def test_a_grown_conversion_rebases_in_place():
    # slope 0 from a first entry at 2**0: 0.5 falls below the base, 1/3
    # brings a denominator, 2**-300 falls 300 bits below, and each converts
    # the list again onto the new base; 2**-3000 is more than 4*bits off
    # and makes the list keep per-entry exponents
    a = [Scalar.from_real(1), Scalar.from_real("0.5"), sc(Fraction(1, 3)),
         Scalar.from_real(mpmath.mpf(2) ** -300),
         Scalar.from_real(mpmath.mpf(2) ** -3000)]
    grown = ScaledInts(a[:1], 0)
    seen = []
    for c in a[1:]:
        grown.append(c)
        seen.append((grown.exp, grown.den, grown.xs is None))
    assert seen[:3] == [(-1, 1, True), (-1, 3, True), (-300, 3, True)]
    assert grown.xs is not None
    assert _entries(grown) == [_exact_value(c) for c in a]
    fresh = ScaledInts(a, 0)
    for n in range(2 * len(a)):
        _same_bits(cauchy(grown, grown, n), cauchy(fresh, fresh, n))
        _assert_exact_sum(cauchy(grown, grown, n), a, a, n)


@pytest.mark.parametrize("lead", [Scalar.from_real(mpmath.sqrt(6), 256), sc(-3)],
                         ids=["rounded-lead", "exact-lead"])
def test_a_rounding_below_the_base_leaves_room_for_the_next(monkeypatch, lead):
    # the first coefficients of a recurrence on a slope-0 list: roundings
    # of falling size at the lead's precision; the first below the base
    # converts the list again, with room for the rest under it
    rest = [sc(0)] + [Scalar.from_real(mpmath.sqrt(k) / 2 ** k, 256)
                      for k in (2, 3, 5, 7)]
    grown = ScaledInts([lead], 0)
    conversions = []
    init = ScaledInts.__init__

    def counted(self, *args):
        conversions.append(len(args[0]))
        init(self, *args)

    monkeypatch.setattr(ScaledInts, "__init__", counted)
    for c in rest:
        grown.append(c)
    monkeypatch.undo()
    assert conversions == [3]
    a = [lead] + rest
    fresh = ScaledInts(a, 0)
    # a fresh conversion keeps its base at the lowest entry exponent
    assert fresh.exp == min(_lowest_exponent(c) for c in a if not c.is_zero())
    assert grown.exp < fresh.exp
    assert _entries(grown) == _entries(fresh) == [_exact_value(c) for c in a]
    for n in range(2 * len(a)):
        _same_bits(cauchy(grown, grown, n), cauchy(fresh, fresh, n))


def test_a_list_with_a_slope_takes_no_room():
    # its slope carries the fall: a rounding below the base converts the
    # list again onto the lowest exponent, as narrow as a fresh conversion
    a = [Scalar.from_real(mpmath.sqrt(6), 256),
         Scalar.from_real(mpmath.sqrt(2) / 8, 256)]
    grown = ScaledInts(a[:1], -1)
    grown.append(a[1])
    fresh = ScaledInts(a, -1)
    assert _lowest_exponent(a[1]) + 1 < _lowest_exponent(a[0])
    assert (grown.exp, grown.re) == (fresh.exp, fresh.re)
    assert grown.exp == _lowest_exponent(a[1]) + 1


def _lowest_exponent(c):
    """x with c == odd / odd * 2**x, for a nonzero real c."""
    q = _exact_value(c)[0]
    return (q.numerator & -q.numerator).bit_length() \
        - (q.denominator & -q.denominator).bit_length()


def test_result_precision_is_the_highest_of_the_kept_factors():
    # a 512-bit entry whose only partner is an exact zero does not count;
    # exact zeros held at 64 bits do not lower the precision either
    zero = Scalar.exact(0, 1, 64)
    a = [Scalar.from_real("0.3", 512), Scalar.from_real("0.7", 256), zero]
    b = [Scalar.from_real("1.1", 256), zero, Scalar.from_real("1.3", 512)]
    assert cauchy(a, b, 1).precision == 256
    assert cauchy(a, b, 0).precision == 512
    assert cauchy(a, b, 3).precision == 512
    assert cauchy(a, b, 4).is_exact and cauchy(a, b, 4).precision == 256
    for n in range(5):
        _assert_exact_sum(cauchy(a, b, n), a, b, n)
        _assert_exact_sum(cauchy(a, a, n), a, a, n)


def test_an_exact_window_stays_a_fraction_before_rounded_entries():
    a = [sc(Fraction(1, 3)), sc(Fraction(2, 5)), Scalar.from_real("0.1")]
    b = [sc(Fraction(1, 7)), sc(3), Scalar.from_complex("0.2", "0.5")]
    sa = ScaledInts(a)
    sb = ScaledInts(b, sa.slope)
    for got in (cauchy(sa, sb, 0), cauchy(a, b, 0)):
        assert got.is_exact and got.fraction() == Fraction(1, 21)
    got = cauchy(sa, sb, 1)
    assert got.is_exact and got.fraction() == Fraction(1) + Fraction(2, 35)
    assert cauchy(sa, sa, 1).fraction() == Fraction(4, 15)
    assert not cauchy(sa, sb, 2).is_exact
    for n in range(5):
        _assert_exact_sum(cauchy(sa, sb, n), a, b, n)


def test_cauchy_rejects_lists_of_two_slopes():
    a = [Scalar.from_real(1), Scalar.from_real("0.001")]
    with pytest.raises(ContractViolation, match="slopes"):
        cauchy(ScaledInts(a, 0), ScaledInts(a, -10), 1)


# -- equality and hashing by exact value ----------------------------------------

dyadic_or_thirds = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.sampled_from([1, 2, 4, 3]),
)


@st.composite
def valued_scalars(draw):
    """Exact, real-rounded and complex-rounded values at 64 or 256 bits,
    drawn from a small pool so that equal values across kinds are common."""
    kind = draw(st.sampled_from(["exact", "real", "complex"]))
    bits = draw(st.sampled_from([64, 256]))
    re = draw(dyadic_or_thirds)
    if kind == "exact":
        return Scalar.exact(re, bits=bits)
    im = draw(dyadic_or_thirds) if kind == "complex" else Fraction(0)
    with mpmath.workprec(bits):
        value = mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                           mpmath.mpf(im.numerator) / im.denominator)
    return Scalar.from_mpc(value, bits)


@given(valued_scalars(), valued_scalars())
def test_equal_scalars_hash_equal(a, b):
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        assert len({a, b}) == 2


def test_exact_and_rounded_one_are_one_set_element():
    one, rounded = Scalar.exact(1), Scalar.from_real(1)
    assert one == rounded and hash(one) == hash(rounded)
    assert len({one, rounded}) == 1
    # equality is by exact value: 1/3 is not its 256-bit rounding
    assert Scalar.exact(1, 3) != Scalar.exact(1, 3) * Scalar.from_real(1)
    assert Scalar.from_real(1, 64) == Scalar.from_real(1, 256)
    for v in (-1, 2 ** 61 - 1):
        assert hash(Scalar.from_real(v)) == hash(Scalar.exact(v)) == hash(v)


@pytest.mark.parametrize("bits", [64, 129, 256, 512])
def test_half_precision_tol_is_an_exact_power_of_two(bits):
    # thresholds scale it by factors, so it must be exactly 2**-(bits//2)
    with mpmath.workprec(53):
        tol = half_precision_tol(bits)
    man, exp = tol.man_exp
    assert (man, exp) == (1, -(bits // 2))


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_exact_mpc_honours_bits_outside_a_precision_context(bits):
    z = Scalar.exact(1, 3).mpc(bits)
    assert mpmath.mp.prec == 53
    with mpmath.mp.workprec(bits):
        expected = mpmath.mpf(1) / 3
    assert z.real == expected and z.imag == 0
    assert z.real.man.bit_length() >= bits - 1
    # mag() rounds |q| at the scalar's own precision, too
    assert Scalar.exact(-1, 3, bits).mag() == expected



# -- rounded arithmetic is libmp at the scalar's own bits ------------------------

# The reference is the arithmetic as mpmath's number types did it inside
# ``mp.workprec(bits)``, written out operation by operation.  Exact
# numerators stay below 64 bits, so the reference's mpf(n)/d rounds only
# once, like the conversion under test.
_numerators = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
_denominators = st.integers(min_value=1, max_value=2 ** 20)
_BITS = st.sampled_from([64, 256, 512])


@st.composite
def mixed_scalars(draw):
    """Exact, real and complex scalars at 64, 256 or 512 bits; a rounded one
    may store more bits than its precision (narrowed by ``with_precision``)."""
    kind = draw(st.sampled_from(["exact", "real", "complex"]))
    bits = draw(_BITS)
    re = Fraction(draw(_numerators), draw(_denominators))
    if kind == "exact":
        return Scalar.exact(re, bits=bits)
    im = Fraction(draw(_numerators), draw(_denominators)) if kind == "complex" else 0
    stored = max(bits, draw(_BITS))
    with mpmath.workprec(stored):
        value = mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                           mpmath.mpf(im.numerator) / im.denominator)
    return Scalar.from_mpc(value, stored).with_precision(bits)


def _old_value(s, bits):
    """The operand as mpmath saw it: an exact value is mpf(n)/d at bits."""
    if s.is_exact:
        q = s.fraction()
        with mpmath.workprec(bits):
            return mpmath.mpc(mpmath.mpf(q.numerator) / q.denominator)
    return s.mpc()


def _old_unary(exact_op, op):
    def run(a, b):
        if a.is_exact:
            return Scalar.exact(exact_op(a.fraction()), bits=a.precision)
        with mpmath.workprec(a.precision):
            return Scalar.from_mpc(op(a.mpc()), a.precision)
    return run


def _old_binary(op, zero_if):
    """zero_if(a, b) names the operands whose exact zero short-cuts the
    result to an exact zero, as the operator does before any rounding."""
    def run(a, b):
        bits = max(a.precision, b.precision)
        if any(s.is_exact and s.fraction() == 0 for s in zero_if(a, b)):
            return Scalar.exact(0, bits=bits)
        if a.is_exact and b.is_exact:
            return Scalar.exact(op(a.fraction(), b.fraction()), bits=bits)
        with mpmath.workprec(bits):
            return Scalar.from_mpc(op(_old_value(a, bits), _old_value(b, bits)), bits)
    return run


def _old_add(a, b):
    if a.is_exact and a.fraction() == 0:
        return b
    if b.is_exact and b.fraction() == 0:
        return a
    return _old_binary(operator.add, lambda a, b: ())(a, b)


def _old_mag(a, b):
    with mpmath.workprec(a.precision):
        if a.is_exact:
            q = abs(a.fraction())
            return mpmath.mpf(q.numerator) / q.denominator
        return abs(a.mpc())


_old_neg = _old_unary(operator.neg, operator.neg)

# name -> (operation under test, reference)
_OPS = {
    "add": (operator.add, _old_add),
    "sub": (operator.sub, lambda a, b: _old_add(a, _old_neg(b, None))),
    "mul": (operator.mul, _old_binary(operator.mul, lambda a, b: (a, b))),
    "div": (operator.truediv, _old_binary(operator.truediv, lambda a, b: (a,))),
    "neg": (lambda a, b: -a, _old_neg),
    "magnitude": (lambda a, b: a.magnitude(),
                  _old_unary(abs, lambda v: mpmath.mpc(abs(v), 0))),
    "mag": (lambda a, b: a.mag(), _old_mag),
}


def _bits_of(value):
    """Everything that identifies a result: kind, exact value or raw tuple,
    and precision."""
    if isinstance(value, mpmath.mpf):
        return "mpf", value._mpf_
    if value.is_exact:
        return "exact", value.fraction(), value.precision
    return "rounded", value.mpc()._mpc_, value.precision


@given(mixed_scalars(), mixed_scalars(), st.integers(min_value=-4, max_value=5))
def test_rounded_ops_match_mpmath_in_workprec_bit_for_bit(a, b, n):
    ops = dict(_OPS)
    ops["pow"] = (lambda a, b: a ** n,
                  _old_unary(lambda q: q ** n, lambda v: v ** n))
    if b.is_zero():
        del ops["div"]
    if n < 0 and a.is_zero():
        del ops["pow"]
    want = {name: _bits_of(old(a, b)) for name, (_, old) in ops.items()}
    # the ambient precision must not reach any result
    for ambient in (53, 2000):
        with mpmath.workprec(ambient):
            got = {name: _bits_of(new(a, b)) for name, (new, _) in ops.items()}
        assert got == want


def test_wide_numerator_is_rounded_once():
    # mpf(n)/d at 64 bits rounds n first and then the quotient, and lands
    # one ulp off for this numerator; the conversion rounds n/d once
    q = Fraction(1145853876439395080251763, 3)
    assert q.numerator.bit_length() > 64
    once = from_rational(q.numerator, q.denominator, 64, round_nearest)
    assert Scalar.exact(q, bits=64).mpc().real._mpf_ == once
    assert Scalar.exact(q, bits=64).mag()._mpf_ == once
    assert (Scalar.exact(q, bits=64) * Scalar.from_real(1, 64)).mpc()._mpc_ == (once, fzero)
    with mpmath.workprec(64):
        twice = (mpmath.mpf(q.numerator) / q.denominator)._mpf_
    assert twice != once


# -- the rounding constructors -----------------------------------------------

_real_inputs = st.one_of(
    st.integers(min_value=-(2 ** 600), max_value=2 ** 600),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda q: f"{q.numerator / q.denominator!r}", rationals),
    st.builds(lambda m, e: f"{m}e{e}", st.integers(-10 ** 30, 10 ** 30),
              st.integers(-400, 400)))


@given(_real_inputs, _real_inputs, _BITS)
def test_constructors_match_mpmath_in_workprec_bit_for_bit(re, im, bits):
    # value as mpmath itself held it, built at 2000 bits so from_mpc rounds
    with mpmath.workprec(2000):
        wide = mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))
    with mpmath.workprec(bits):
        want_real = mpmath.mpc(mpmath.mpf(re), 0)._mpc_
        want_complex = mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im))._mpc_
        want_mpc = mpmath.mpc(wide)._mpc_
    for ambient in (53, 2000):
        with mpmath.workprec(ambient):
            real = Scalar.from_real(re, bits)
            assert real.mpc()._mpc_ == want_real
            assert Scalar.from_complex(re, 0, bits).mpc()._mpc_ == want_real
            assert Scalar.from_complex(re, im, bits).mpc()._mpc_ == want_complex
            assert Scalar.from_mpc(wide, bits).mpc()._mpc_ == want_mpc
        assert real.precision == bits
        assert real == Scalar.from_complex(re, 0, bits)
        assert hash(real) == hash(Scalar.from_complex(re, 0, bits))
        # the same value held exactly is equal and hashes equal
        exact = Scalar.exact(Fraction(*to_rational(want_real[0])))
        assert real == exact and hash(real) == hash(exact)


def test_rounded_nan_is_rejected_and_equality_ignores_precision():
    for nan in (lambda: Scalar.from_real("nan"),
                lambda: Scalar.from_complex(1, "nan"),
                lambda: Scalar.from_mpc(mpmath.mpc(0, mpmath.nan), 64)):
        with pytest.raises(ContractViolation, match="is not a finite number"):
            nan()
    one = Scalar.from_complex(1, 2, 64)
    assert one == Scalar.from_complex(1, 2, 512)
    assert hash(one) == hash(Scalar.from_complex(1, 2, 512))


# -- exact combinations -------------------------------------------------------


def _combination_by_passes(pairs, div=1):
    """exact_combination written as separate passes over the live pairs and
    the scaled terms: the tuple the one-pass form must return."""
    live = [(c, u) for c, u in pairs if c and u is not None]
    if not live:
        return None
    den = 1
    for c, u in live:
        den = math.lcm(den, c.denominator * u[1])
    sign = -div.denominator if div < 0 else div.denominator
    terms = []
    for c, (t, d, _, _) in live:
        f = sign * c.numerator * (den // (c.denominator * d))
        terms += [(e, a * f, b * f) for e, a, b in t]
    bits = max(u[2] for _, u in live)
    if len(terms) > 1:
        lo = min(e for e, _, _ in terms)
        if max(e for e, _, _ in terms) - lo <= 4 * bits:
            terms = [(lo, sum(a << e - lo for e, a, _ in terms),
                      sum(b << e - lo for e, _, b in terms))]
    return (terms, den * abs(div.numerator), bits,
            any(u[3] for _, u in live))


_weights = st.one_of(st.integers(-5, 5),
                     st.fractions(min_value=-5, max_value=5,
                                  max_denominator=12))
_parts = st.one_of(st.just(0), st.integers(-2 ** 80, 2 ** 80))
# exponents 0 apart, close, and just inside and outside 4*bits of each other
_exponents = st.one_of(st.integers(-40, 40),
                       st.sampled_from([255, 256, 257, 1023, 1024, 1025, 4095,
                                        4096, 4097, -4097, 10 ** 8]))
# an exact sum: rounded as cauchy_sum's int mask or a bool; no terms for a
# rounded zero
_sums = st.tuples(st.lists(st.tuples(_exponents, _parts, _parts), max_size=3),
                  st.integers(1, 30), st.sampled_from([64, 256, 1024]),
                  st.sampled_from([False, True, 0, 6]))


@given(st.lists(st.tuples(_weights, st.one_of(st.none(), _sums)), max_size=5),
       st.one_of(st.integers(1, 9), st.integers(-9, -1),
                 st.fractions(min_value=-9, max_value=9,
                              max_denominator=7).filter(bool)))
@example([(1, ([(0, 3, 0)], 1, 64, 0)), (-2, ([(256, 5, 7)], 3, 64, 6))], 1)
@example([(1, ([(0, 3, 0)], 1, 64, 0)), (-2, ([(257, 5, 7)], 3, 64, 6))], 1)
@example([(Fraction(1, 3), ([(-4096, 1, -1)], 5, 1024, True)),
          (2, ([], 1, 64, True))], Fraction(-3, 7))
def test_exact_combination_is_its_passes_in_one(pairs, div):
    got = exact_combination(pairs, div)
    want = _combination_by_passes(pairs, div)
    assert got == want
    assert got is None or got[3] is want[3]       # a bool, not a mask
