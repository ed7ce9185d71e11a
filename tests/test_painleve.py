import ast
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

from painleve_hh import (ContractViolation, Scalar, UnsupportedParameter,
                         candidate_C_values, classify, find_dominant_balances,
                         resonances, set_default_precision)
from painleve_hh import painleve
from painleve_hh.scalars import ScaledInts

from conftest import cauchy, package_imports


def _balances_by_case(C):
    out = {"Case1": [], "Case2": []}
    for b in find_dominant_balances(C):
        out[b.case_tag].append(b)
    return out


def _resonance_fractions(rset):
    vals = []
    for v in rset.values:
        assert v.is_exact, f"expected exact resonance, got {v!r}"
        vals.append(v.fraction())
    return sorted(vals)


def test_case1_balance_values():
    C = Scalar.exact(-4, 3)
    case1 = _balances_by_case(C)["Case1"]
    assert len(case1) == 2
    for b in case1:
        assert b.alpha.fraction() == -2 and b.beta.fraction() == -2
        assert b.b_beta.fraction() == -3
        # a = +-sqrt(6): check the square
        assert ((b.a_alpha ** 2) - Scalar.exact(6)).mag() < mpmath.mpf("1e-70")
    signs = {b.sign_choices["a"] for b in case1}
    assert signs == {"+", "-"}


def test_case2_balance_values():
    C = Scalar.exact(-16, 5)
    case2 = _balances_by_case(C)["Case2"]
    assert len(case2) == 2
    alphas = sorted(b.alpha.fraction() for b in case2)
    assert alphas == [Fraction(-3, 2), Fraction(5, 2)]
    for b in case2:
        assert b.a_alpha is None       # the arbitrary c1 of Case 2
        assert b.b_beta.fraction() == Fraction(-15, 8)


def test_logarithmic_degeneracy_at_minus_two():
    C = Scalar.exact(-2)
    case1 = _balances_by_case(C)["Case1"]
    assert len(case1) == 1
    assert case1[0].logarithmic
    assert case1[0].a_alpha.is_zero()


def test_resonance_table_values():
    # C = -1, Case 1: {-1, 2, 3, 6}
    C = Scalar.exact(-1)
    b = _balances_by_case(C)["Case1"][0]
    assert _resonance_fractions(resonances(b, C)) == [-1, 2, 3, 6]
    # C = -4/3, Case 1: {-1, 1, 4, 6}
    C = Scalar.exact(-4, 3)
    b = _balances_by_case(C)["Case1"][0]
    r = resonances(b, C)
    assert _resonance_fractions(r) == [-1, 1, 4, 6]
    assert r.all_integer and not r.has_extra_negative
    # C = -16/5, Case 2 with alpha = -3/2: {-1, 0, 4, 6}
    C = Scalar.exact(-16, 5)
    b = next(x for x in _balances_by_case(C)["Case2"]
             if x.alpha.fraction() == Fraction(-3, 2))
    assert _resonance_fractions(resonances(b, C)) == [-1, 0, 4, 6]
    # the other alpha branch carries the negative companion resonance
    b2 = next(x for x in _balances_by_case(C)["Case2"]
              if x.alpha.fraction() == Fraction(5, 2))
    r2 = resonances(b2, C)
    assert _resonance_fractions(r2) == [-4, -1, 0, 6]
    assert r2.has_extra_negative


def test_case2_always_contains_minus1_0_6():
    for c in (Fraction(-7, 2), Fraction(-5), Fraction(-22, 7)):
        C = Scalar.exact(c)
        for b in _balances_by_case(C)["Case2"]:
            vals = resonances(b, C).values
            fr = [v.fraction() if v.is_exact else None for v in vals]
            for expected in (-1, 0, 6):
                assert Fraction(expected) in fr


def test_case1_pair_sums_to_five():
    # the table lists (-1, 6, 5/2 - d, 5/2 + d): the last two sum to 5
    for c in (Fraction(-4, 3), Fraction(-9, 7), Fraction(3, 5), Fraction(-11)):
        C = Scalar.exact(c)
        balances = _balances_by_case(C)["Case1"]
        vals = resonances(balances[0], C).values
        total = vals[2] + vals[3]
        if total.is_exact:
            assert total.fraction() == 5
        else:
            assert (total - Scalar.exact(5)).mag() < mpmath.mpf("1e-70")


nonzero_rational_C = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=1000),
    # exact Case-1 table: 1 - 24*(1 + C) = d^2
    st.fractions(min_value=0, max_value=20, max_denominator=50).map(
        lambda d: (1 - d * d) / 24 - 1),
    # exact Case-2 table: 1 - 48/C = s^2
    st.fractions(min_value=0, max_value=20, max_denominator=50).filter(
        lambda s: s != 1).map(lambda s: 48 / (1 - s * s)),
).filter(lambda c: c != 0)


def _root_product(values):
    """prod(r - v) over values, ascending in r, on Fractions or Scalars:
    coefficient n of p(r) * (r - v) is p[n-1] - v*p[n]."""
    product = [1]
    for v in values:
        product = [a - v * b for a, b in zip([0] + product, product + [0])]
    return product


def _exact_value(v):
    """The exact value of a real Scalar (a rounded one's dyadic value), so
    that a nudged table fails on the identity itself."""
    return v.fraction() if v.is_exact else v._rational()


def _kowalevski_rows(balance, C):
    """The x and y rows of the linearization (ascending in r), each entry as
    the terms that sum to it, and the coupling subtracted at r^0."""
    b = balance.b_beta
    # q(r) = (r-2)(r-3): the y-row second-derivative factor at beta = -2
    q0, q1, q2 = [Scalar.exact(6)], [Scalar.exact(-5)], [Scalar.exact(1)]
    row_y = [q0 + [-2 * C * b], q1, q2]
    if balance.case_tag == "Case1":
        # coupling 4*a^2 with a^2 = 9*(2+C) kept exact
        return [q0 + [2 * b], q1, q2], row_y, 4 * (Scalar.exact(9) * (C + 2))
    # Case 2: x-row (alpha+r)(alpha+r-1) + 2b, y-row decoupled at leading order
    alpha = balance.alpha
    return ([[alpha * (alpha - 1), 2 * b], [2 * alpha - 1], q2], row_y,
            Scalar.exact(0))


def _kowalevski_polynomial(balance, C):
    """Coefficients (ascending in r) of the linearization determinant.

    Perturbing the leading behavior by eps*t^(alpha+r) / eps*t^(beta+r) and
    keeping the dominant orders of both equations gives a 2x2 system in the
    perturbation amplitudes; its determinant (sum row_x) * (sum row_y) -
    coupling is a quartic in r whose roots are the resonances.
    """
    row_x, row_y, coupling = _kowalevski_rows(balance, C)
    sx = ScaledInts([sum(e) for e in row_x])
    sy = ScaledInts([sum(e) for e in row_y], sx.slope)
    prod = [cauchy(sx, sy, n) for n in range(len(row_x) + len(row_y) - 1)]
    prod[0] = prod[0] - coupling
    return prod


def _identity_sides(balance, C):
    """prod(r - r_i) over the table and the Kowalevski quartic of a balance,
    as exact values ascending in r, and whether every value is exact."""
    table = painleve._table_resonances(balance, C)
    quartic = _kowalevski_polynomial(balance, C)
    sides = (_root_product([_exact_value(v) for v in table]),
             [_exact_value(q) for q in quartic])
    assert len(sides[0]) == len(sides[1]) == 5
    return sides, all(v.is_exact for v in table + quartic)


def _degree(points, values):
    """The degree of the polynomial through (points, values): the highest
    order with a nonzero divided difference, -1 when every value is 0."""
    degree = 0 if any(values) else -1
    for order in range(1, len(points)):
        values = [(b - a) / (points[i + order] - points[i])
                  for i, (a, b) in enumerate(zip(values, values[1:]))]
        if any(values):
            degree = order
    return degree


# The identity prod(r - r_i) = quartic, proven for every C.  Case 1: the
# table is -1, 6, 5/2 -+ d/2 with d = sqrt(1 - 24*(1 + C)), so each
# coefficient of prod(r - r_i) is a polynomial of degree <= 2 in d; the
# quartic's coefficients are affine in C = (1 - d^2)/24 - 1, degree <= 2 in
# d.  Case 2: b = 6/C = (1 - s^2)/8 and alpha = (1 -+ s)/2 with
# s = sqrt(1 - 48/C), so both sides are polynomials of degree <= 2 in s on
# each alpha branch.  Two polynomials of degree <= 2 that agree at three
# distinct points are equal, whatever root of d^2 or s^2 a C takes.  Six
# points each leave three to check the degree bound with.
RESONANCE_PROOF = [
    # (case tag, C of the parameter t, the distinct rational points t >= 0)
    ("Case1", lambda d: (1 - d * d) / 24 - 1,
     [Fraction(0), Fraction(1), Fraction(3), Fraction(5), Fraction(7, 2),
      Fraction(11)]),
    ("Case2", lambda s: 48 / (1 - s * s),
     [Fraction(0), Fraction(1, 2), Fraction(2), Fraction(3), Fraction(4),
      Fraction(7)]),
]
PROOF_DEGREE = 2


def _prove_resonance_table():
    """Raise AssertionError unless painleve's table is the root set of the
    Kowalevski quartic for every C (RESONANCE_PROOF)."""
    for tag, c_of, points in RESONANCE_PROOF:
        assert len(set(points)) > PROOF_DEGREE + 1
        curves = {}         # the alpha branch (None in Case 1) -> sides per t
        rounded = set()     # the t where a table value or coefficient is rounded
        for t in points:
            C = Scalar.exact(c_of(t))
            at_t = {}
            for balance in find_dominant_balances(C):
                if balance.case_tag != tag:
                    continue
                sides, exact = _identity_sides(balance, C)
                # Case 1: the sign of a enters neither the table nor the rows
                key = balance.sign_choices.get("alpha")
                assert at_t.setdefault(key, sides) == sides, (tag, t)
                if not exact:
                    rounded.add(t)
            for key, sides in at_t.items():
                curves.setdefault(key, []).append(sides)
        assert set(curves) == ({None} if tag == "Case1" else {"-", "+"})
        for key, curve in curves.items():
            assert len(curve) == len(points), (tag, key)
            for n in range(5):
                product, quartic = ([side[n] for side in sides]
                                    for sides in zip(*curve))
                for t, got, want in zip(points, product, quartic):
                    assert got == want, \
                        f"{tag} {key}: r^{n} coefficient at t = {t}: {got} != {want}"
                assert _degree(points, product) <= PROOF_DEGREE, (tag, key, n)
                assert _degree(points, quartic) <= PROOF_DEGREE, (tag, key, n)
        assert not rounded, f"{tag}: rounded table or quartic at t in {rounded}"


def test_resonance_table_is_the_kowalevski_root_set_for_every_C():
    _prove_resonance_table()


def test_the_degree_check_sees_a_higher_degree():
    points = [Fraction(t) for t in range(6)]
    assert _degree(points, [t * t - 3 for t in points]) == 2
    assert _degree(points, [t ** 3 for t in points]) == 3
    assert _degree(points, [Fraction(0)] * 6) == -1


@given(nonzero_rational_C)
@example(Fraction(-23, 24))   # Case 1 double root r = 5/2
@example(Fraction(48))        # Case 2 double root r = 0
@example(Fraction(-13, 4))
@example(Fraction(-8, 3))
@example(Fraction(-21, 5))
@example(Fraction(-1, 2))
@example(Fraction(7, 9))
def test_kowalevski_cross_check_random_rational_C(c):
    # a spot check of the proven identity: an all-exact table reproduces
    # the quartic's coefficients as Fractions at any rational C
    C = Scalar.exact(c)
    for b in find_dominant_balances(C):
        values = resonances(b, C).values
        if not all(v.is_exact for v in values):
            continue
        (product, quartic), exact = _identity_sides(b, C)
        assert exact and product == quartic


def _reference_flags(balance, c: Fraction, bits: int):
    """(all_integer, has_extra_negative) of a balance at C = c, from the
    closed forms evaluated in mpmath at 2*bits: an integer is a real value
    within 2**-(bits//2) * max(1, |v|) of one, a negative one is real and
    below 0."""
    with mp.workprec(2 * bits):
        C = mpmath.mpf(c.numerator) / c.denominator
        if balance.case_tag == "Case1":
            d = mpmath.sqrt(mpmath.mpc(1 - 24 * (1 + C)))
            values = [-1, 6, mpmath.mpf(5) / 2 - d / 2, mpmath.mpf(5) / 2 + d / 2]
        else:
            s = mpmath.sqrt(mpmath.mpc(1 - 48 / C))
            values = [-1, 0, 6, s if balance.sign_choices["alpha"] == "-" else -s]
        values = [mpmath.mpc(v) for v in values]
        real = [v.real for v in values if v.imag == 0]
        tol = mpmath.ldexp(1, -(bits // 2))
        all_integer = len(real) == 4 and all(
            abs(x - mpmath.nint(x)) <= tol * max(1, abs(x)) for x in real)
        return all_integer, sum(x < 0 for x in real) > 1


@given(nonzero_rational_C)
@example(Fraction(-23, 24))
@example(Fraction(48))
@example(Fraction(-2))
@example(Fraction(-16, 5))
@example(Fraction(7, 9))
def test_resonance_flags_match_the_closed_forms_in_mpmath(c):
    C = Scalar.exact(c)
    for balance in find_dominant_balances(C):
        got = resonances(balance, C)
        want = _reference_flags(balance, c, C.precision)
        assert (got.all_integer, got.has_extra_negative) == want, (c, balance)


def test_kowalevski_polynomial_is_quartic_with_exact_case1_coeffs():
    C = Scalar.exact(-4, 3)
    b = _balances_by_case(C)["Case1"][0]
    poly = _kowalevski_polynomial(b, C)
    assert len(poly) == 5
    assert all(c.is_exact for c in poly)


def test_classification_table():
    cases = [
        ((-1, 1), "integrable-candidate"),
        ((-6, Fraction(7, 3)), "integrable-candidate"),
        ((-6, 2), "integrable-candidate"),
        ((-16, Fraction(1, 16)), "integrable-candidate"),
        ((-16, 1), "generic"),
        ((-1, 2), "generic"),
        ((Fraction(-16, 5), Fraction(1, 9)), "three-parameter-candidate"),
        ((Fraction(-16, 5), 5), "three-parameter-candidate"),
        ((Fraction(-4, 3), 1), "three-parameter-candidate"),
        ((-2, 1), "logarithmic"),
        ((-5, 1), "generic"),
        ((3, 1), "generic"),
    ]
    for (c, lam), expected in cases:
        verdict = classify(Scalar.exact(c), Scalar.exact(lam))
        assert verdict.label == expected, (c, lam, verdict.label)


def test_integrable_candidates_have_all_integer_resonances():
    for c, lam in ((-1, 1), (-6, 5), (-16, Fraction(1, 16))):
        verdict = classify(Scalar.exact(c), Scalar.exact(lam))
        assert verdict.label == "integrable-candidate"
        assert any(r.all_integer for _, r in verdict.balances)


def test_candidate_C_values():
    cands = candidate_C_values()
    assert len(cands) == 6
    values = [c.value.fraction() for c in cands]
    assert set(values) == {Fraction(-1), Fraction(-4, 3), Fraction(-16, 5),
                           Fraction(-6), Fraction(-16), Fraction(-2)}
    by_value = {c.value.fraction(): c for c in cands}
    assert by_value[Fraction(-16, 5)].case_tag == "Case2"
    assert "1 - sqrt(1 - 48/C)" in by_value[Fraction(-16, 5)].note
    assert "coincide" in by_value[Fraction(-2)].note


@pytest.mark.parametrize("c, lam, label, detail", [
    (Fraction(-1), 1, "integrable-candidate",
     "C=-1 with lambda=1: passes the full test"),
    (Fraction(-1), 2, "generic", "resonances leave no single-valued candidate"),
    (Fraction(-4, 3), 1, "three-parameter-candidate",
     "C=-4/3 (Case 1): single-valued three-parameter local solutions exist "
     "for any lambda"),
    (Fraction(-16, 5), 1, "three-parameter-candidate",
     "C=-16/5 (Case 2, alpha=-3/2): single-valued three-parameter local "
     "solutions exist for any lambda"),
    (Fraction(-6), 1, "integrable-candidate",
     "C=-6 with lambda=arbitrary: passes the full test"),
    (Fraction(-16), Fraction(1, 16), "integrable-candidate",
     "C=-16 with lambda=1/16: passes the full test"),
    (Fraction(-16), Fraction(1, 8), "generic",
     "resonances leave no single-valued candidate"),
    (Fraction(-2), 1, "logarithmic",
     "C=-2: the two singular behaviors coincide and the dominant term "
     "carries a logarithm"),
])
def test_classification_label_and_detail(c, lam, label, detail):
    verdict = classify(Scalar.exact(c), Scalar.exact(lam))
    assert (verdict.label, verdict.detail) == (label, detail)


def test_candidate_C_values_listing():
    assert [(c.value.fraction(), c.case_tag, c.note)
            for c in candidate_C_values()] == [
        (Fraction(-1), "Case1", "integrable with lambda = 1"),
        (Fraction(-4, 3), "Case1", "three-parameter solutions, any lambda"),
        (Fraction(-16, 5), "Case2", "alpha = (1 - sqrt(1 - 48/C))/2 = -3/2; "
         "three-parameter solutions, any lambda"),
        (Fraction(-6), "Case2", "integrable for arbitrary lambda"),
        (Fraction(-16), "Case2", "integrable with lambda = 1/16"),
        (Fraction(-2), "coincident", "two types of singular behaviour "
         "coincide; dominant term includes a logarithm"),
    ]


# the exact C of the CLI grid (tools/cli_grid.py) except C = 0
GRID_EXACT_C = [Fraction(-16, 5), Fraction(-4, 3), Fraction(-1), Fraction(-6),
                Fraction(-16), Fraction(-2), Fraction(-13, 4), Fraction(7, 9),
                Fraction(-23, 24), Fraction(48)]
# and its rounded C
GRID_ROUNDED_C = ["-3.2", "0.7", "1e-30", "-1e-30", "-1e200", "47.9"]
# the classify label of a grid C at lambda = 1/9, 1 and 0.3: the table's
# entry where it holds, else generic
GRID_LABELS = {Fraction(-16, 5): ("three-parameter-candidate",) * 3,
               Fraction(-4, 3): ("three-parameter-candidate",) * 3,
               Fraction(-1): ("generic", "integrable-candidate", "generic"),
               Fraction(-6): ("integrable-candidate",) * 3,
               Fraction(-2): ("logarithmic",) * 3}


def test_classify_forms_no_kowalevski_determinant():
    # the table is proven (test_resonance_table_is_the_kowalevski_root_set_
    # for_every_C), so painleve reads no series kernel and forms no product
    tree = ast.parse(Path(painleve.__file__).read_text())
    imports = list(package_imports(tree))
    assert ("scalars", "Scalar") in imports
    for module, name in imports:
        assert module not in ("series", "laurent"), (module, name)
        assert module != "scalars" or name in (
            "Scalar", "as_scalar", "half_precision_tol", "nth_root"), name


def test_classify_labels_the_grid_at_every_precision():
    lams = [Scalar.exact(1, 9), Scalar.exact(1), Scalar.from_real("0.3")]
    for c, (_, _, lam, label, _) in painleve._CANDIDATES.items():
        lam = Scalar.exact(lam if lam is not None else Fraction(1, 9))
        assert classify(Scalar.exact(c), lam).label == label, c
    for bits in (64, 256, 1024):
        set_default_precision(bits)
        for c in GRID_EXACT_C + GRID_ROUNDED_C:
            C = Scalar.exact(c) if isinstance(c, Fraction) \
                else Scalar.from_real(c, bits)
            labels = GRID_LABELS.get(c, ("generic",) * 3)
            for lam, label in zip(lams, labels):
                verdict = classify(C, lam)
                assert verdict.label == label, (c, bits, lam)
                assert all(len(r.values) == 4 for _, r in verdict.balances)


def test_C_zero_unsupported():
    with pytest.raises(UnsupportedParameter):
        find_dominant_balances(Scalar.exact(0))
    with pytest.raises(UnsupportedParameter):
        classify(Scalar.exact(0), Scalar.exact(1))


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_candidate_C_values_cross_check_at_every_precision(bits):
    lam = Scalar.exact(1, 9)
    expected = {c.value.fraction(): classify(c.value, lam).label
                for c in candidate_C_values()}
    set_default_precision(bits)
    for cand in candidate_C_values():
        assert cand.value.precision == bits
        # the rounded resonances at bits give the same label
        assert classify(cand.value, lam).label == \
            expected[cand.value.fraction()]


def _nudged(index, nudge):
    """painleve's table with nudge added to value index."""
    table = painleve._table_resonances

    def perturbed(b, c):
        values = table(b, c)
        return values[:index] + [values[index] + nudge] + values[index + 1:]
    return perturbed


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_perturbed_table_resonance_rejected(monkeypatch, bits):
    # a rounded nudge of 2**-(bits/2 - 16) (2**-112 at 256 bits) on the last
    # value: far below 1e-20, yet the proof's exact identity fails on it
    set_default_precision(bits)
    nudge = Scalar.from_real(mpmath.mpf(2) ** -(bits // 2 - 16), bits)
    monkeypatch.setattr(painleve, "_table_resonances", _nudged(3, nudge))
    with pytest.raises(AssertionError, match="Case1 None: r\\^0 coefficient"):
        _prove_resonance_table()


@pytest.mark.parametrize("bits", [64, 256])
def test_exactly_nudged_table_resonance_rejected(monkeypatch, bits):
    # an exact nudge of 2**-300, far below any rounding tolerance, breaks
    # the exact identity at every point, from its r^0 coefficient on
    set_default_precision(bits)
    nudge = Scalar.exact(Fraction(1, 2 ** 300))
    monkeypatch.setattr(painleve, "_table_resonances", _nudged(3, nudge))
    with pytest.raises(AssertionError, match="Case1 None: r\\^0 coefficient "
                                             "at t = 0"):
        _prove_resonance_table()


def _convolved_root_product(values):
    """prod(r - v) by one convolution per factor, on the package's kernel:
    a check on the proof's linear-factor product."""
    product = [Scalar.exact(1)]
    for v in values:
        factor = [-v, Scalar.exact(1)]
        product = [cauchy(product, factor, n) for n in range(len(product) + 1)]
    return product


@pytest.mark.parametrize("c", GRID_EXACT_C, ids=str)
@pytest.mark.parametrize("bits", [64, 256])
def test_root_product_matches_the_convolution_exactly(c, bits):
    # the proof's _root_product, on the all-exact tables of the grid C
    set_default_precision(bits)
    C = Scalar.exact(c)
    exact_tables = 0
    for balance in find_dominant_balances(C):
        table = painleve._table_resonances(balance, C)
        if not all(v.is_exact for v in table):
            continue
        exact_tables += 1
        got = _root_product(table)
        want = _convolved_root_product(table)
        assert all(g.is_exact for g in got)
        assert [g.fraction() for g in got] == [w.fraction() for w in want]
        assert _root_product([v.fraction() for v in table]) == got
    # every grid C but -13/4 and 7/9 has a balance with an all-exact table
    assert exact_tables or c in (Fraction(-13, 4), Fraction(7, 9))


@pytest.mark.parametrize("c", ["-3.2", "0.7", "-16/5", "7/9", "48", "1e-30"])
@pytest.mark.parametrize("bits", [64, 256])
def test_root_product_on_rounded_tables_within_an_ulp_of_the_term_sizes(c, bits):
    # on rounded values each linear factor rounds twice where the
    # convolution rounds once; the two differ by less than
    # 2**(1 - bits) * S_n, S_n the coefficient of prod(r + |r_i|)
    set_default_precision(bits)
    C = Scalar.exact(Fraction(c)) if "/" in c or c == "48" \
        else Scalar.from_real(c, bits)
    rounded_tables = 0
    for balance in find_dominant_balances(C):
        table = painleve._table_resonances(balance, C)
        if all(v.is_exact for v in table):
            continue
        rounded_tables += 1
        sizes = _convolved_root_product([-v.magnitude() for v in table])
        for got, want, size in zip(_root_product(table),
                                   _convolved_root_product(table), sizes):
            assert (got - want).mag() <= mpmath.mpf(2) ** (1 - bits) * size.mag()
    assert rounded_tables


@pytest.mark.parametrize("c", ["-3.2", "0.7", "-16/5"])
@pytest.mark.parametrize("index", range(4))
def test_table_value_nudged_by_2_to_the_minus_100_rejected(monkeypatch, c, index):
    # resonances reports whatever the table gives, so at C = c the nudged
    # value is reported; the proof fails on it at 256 bits
    C = Scalar.exact(Fraction(c)) if "/" in c else Scalar.from_real(c)
    nudge = Scalar.from_real(mpmath.mpf(2) ** -100)
    balances = find_dominant_balances(C)
    before = [resonances(balance, C).values for balance in balances]
    monkeypatch.setattr(painleve, "_table_resonances", _nudged(index, nudge))
    for balance, values in zip(balances, before):
        got = resonances(balance, C).values
        assert got[index] == values[index] + nudge and got[index] != values[index]
    with pytest.raises(AssertionError, match="r\\^[0-3] coefficient"):
        _prove_resonance_table()


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("c", ["-1e200", "-1e1000"])
def test_large_negative_C_table_matched_within_the_product_rounding(c, bits):
    # the Case-1 values 5/2 +- d/2, d near sqrt(24*|C|), cancel in
    # prod(r - r_i), whose rounded coefficients once failed a run-time
    # comparison with the quartic; the table is now read as it is
    C = Scalar.from_real(c, bits)
    for balance in find_dominant_balances(C):
        values = resonances(balance, C).values
        assert len(values) == 4
        if balance.case_tag == "Case1":
            assert (values[2] + values[3] - 5).mag() <= \
                mpmath.mpf(2) ** (8 - bits) * values[3].mag()
    assert classify(C, Scalar.exact(1)).label == "generic"


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("n", [0, 3, -7, 2 ** 20])
def test_is_integer_at_the_edge_of_its_tolerance(bits, n):
    # three ulps either side of n +- 2**-(p//2) * max(1, |n|), against the
    # test written out in mpmath at a precision that makes it exact
    half = bits // 2
    outcomes = set()
    for sign in (1, -1):
        edge = n + sign * Fraction(max(1, abs(n)), 2 ** half)
        _, man, exp, bc = from_rational(edge.numerator, edge.denominator, bits,
                                        round_nearest)
        ulp = Fraction(2) ** (exp + bc - bits)
        for j in range(-3, 4):
            q = edge + j * ulp
            v = Scalar.from_real(mp.make_mpf(from_rational(
                q.numerator, q.denominator, bits, round_nearest)), bits)
            with mp.workprec(4 * bits):
                x = v.mpc().real
                want = abs(x - mpmath.nint(x)) \
                    <= mpmath.ldexp(1, -half) * max(1, abs(x))
            assert painleve._is_integer(v) == want, (q, bits)
            outcomes.add(want)
    assert outcomes == {True, False}


def test_is_integer_on_exact_complex_and_non_finite_values():
    assert painleve._is_integer(Scalar.exact(6))
    assert not painleve._is_integer(Scalar.exact(13, 2))
    assert painleve._is_integer(Scalar.from_real(6, 256))
    assert not painleve._is_integer(Scalar.from_complex(6, "1e-60", 256))
    for value in ("nan", "inf", "-inf"):
        # a non-finite resonance cannot be made to test
        with pytest.raises(ContractViolation, match="is not a finite number"):
            painleve._is_integer(Scalar.from_real(value, 256))


def test_is_integer_reads_a_wide_whole_value_from_its_exponent(monkeypatch):
    # 1e30000000 at 256 bits is man * 2**exp with exp near 10**8, whole; a
    # Fraction of it would be a 12 MB int
    wide = Scalar.from_real("1e30000000", 256)
    monkeypatch.setattr(Scalar, "_rational", None)
    assert painleve._is_integer(wide) and painleve._is_integer(-wide)
