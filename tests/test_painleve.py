from fractions import Fraction

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
from painleve_hh.painleve import kowalevski_polynomial
from painleve_hh.scalars import cauchy


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
        assert b.a_is_free
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


@given(nonzero_rational_C)
@example(Fraction(-23, 24))   # Case 1 double root r = 5/2
@example(Fraction(48))        # Case 2 double root r = 0
@example(Fraction(-13, 4))
@example(Fraction(-8, 3))
@example(Fraction(-21, 5))
@example(Fraction(-1, 2))
@example(Fraction(7, 9))
def test_kowalevski_cross_check_random_rational_C(c):
    # resonances() raises unless the table matches the Kowalevski quartic;
    # an all-exact table must reproduce its coefficients as Fractions
    C = Scalar.exact(c)
    for b in find_dominant_balances(C):
        values = resonances(b, C).values
        if not all(v.is_exact for v in values):
            continue
        product = [Fraction(1)]
        for v in values:
            shifted = [Fraction(0)] + product
            product = [s - v.fraction() * p
                       for s, p in zip(shifted, product + [Fraction(0)])]
        quartic = kowalevski_polynomial(b, C)
        assert all(q.is_exact for q in quartic)
        assert product == [q.fraction() for q in quartic]


def test_kowalevski_polynomial_is_quartic_with_exact_case1_coeffs():
    C = Scalar.exact(-4, 3)
    b = _balances_by_case(C)["Case1"][0]
    poly = kowalevski_polynomial(b, C)
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


def test_resonances_expand_the_rows_once(monkeypatch):
    # C = -16/5 has a rounded Case-1 pair, whose allowance needs term sizes
    C = Scalar.exact(-16, 5)
    rows = painleve._kowalevski_rows
    calls = []

    def counted(balance, c):
        calls.append(balance)
        return rows(balance, c)

    monkeypatch.setattr(painleve, "_kowalevski_rows", counted)
    for balance in find_dominant_balances(C):
        calls.clear()
        resonances(balance, C)
        assert len(calls) == 1, balance


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
        # classify runs the Kowalevski cross-check on every balance
        assert classify(cand.value, lam).label == \
            expected[cand.value.fraction()]


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_perturbed_table_resonance_rejected(monkeypatch, bits):
    # -16/5 Case 1 has two irrational resonances; at 256 bits the nudge
    # (2**-112) is far below 1e-20, yet far above the rounding floor
    set_default_precision(bits)
    C = Scalar.exact(-16, 5)
    balance = _balances_by_case(C)["Case1"][0]
    resonances(balance, C)
    table = painleve._table_resonances
    nudge = Scalar.from_real(mpmath.mpf(2) ** -(bits // 2 - 16), bits)

    def perturbed(b, c):
        values = table(b, c)
        return values[:-1] + [values[-1] + nudge]

    monkeypatch.setattr(painleve, "_table_resonances", perturbed)
    with pytest.raises(RuntimeError, match="not matched by Kowalevski root"):
        resonances(balance, C)


@pytest.mark.parametrize("bits", [64, 256])
def test_exactly_nudged_table_resonance_rejected(monkeypatch, bits):
    # C = -4/3 Case 1 has the exact table {-1, 6, 1, 4}: an exact nudge far
    # below any rounding tolerance still breaks the exact identity
    set_default_precision(bits)
    C = Scalar.exact(-4, 3)
    balance = _balances_by_case(C)["Case1"][0]
    table = painleve._table_resonances
    assert all(v.is_exact for v in table(balance, C))
    nudge = Scalar.exact(Fraction(1, 2 ** 300))

    def perturbed(b, c):
        values = table(b, c)
        return values[:-1] + [values[-1] + nudge]

    monkeypatch.setattr(painleve, "_table_resonances", perturbed)
    with pytest.raises(RuntimeError, match="not matched by Kowalevski root"
                                           ".*r\\^0 coefficient"):
        resonances(balance, C)


def _convolved_root_product(values):
    """prod(r - v) by one convolution per factor: the product the linear
    factors replaced (painleve's polynomial product over cauchy)."""
    product = [Scalar.exact(1)]
    for v in values:
        factor = [-v, Scalar.exact(1)]
        product = [cauchy(product, factor, n) for n in range(len(product) + 1)]
    return product


# the exact C of the CLI grid (tools/cli_grid.py) except C = 0
GRID_EXACT_C = [Fraction(-16, 5), Fraction(-4, 3), Fraction(-1), Fraction(-6),
                Fraction(-16), Fraction(-2), Fraction(-13, 4), Fraction(7, 9),
                Fraction(-23, 24), Fraction(48)]


@pytest.mark.parametrize("c", GRID_EXACT_C, ids=str)
@pytest.mark.parametrize("bits", [64, 256])
def test_root_product_matches_the_convolution_exactly(c, bits):
    set_default_precision(bits)
    C = Scalar.exact(c)
    exact_tables = 0
    for balance in find_dominant_balances(C):
        table = painleve._table_resonances(balance, C)
        if not all(v.is_exact for v in table):
            continue
        exact_tables += 1
        got = painleve._root_product(table)
        want = _convolved_root_product(table)
        assert all(g.is_exact for g in got)
        assert [g.fraction() for g in got] == [w.fraction() for w in want]
    # every grid C but -13/4 and 7/9 has a balance with an all-exact table
    assert exact_tables or c in (Fraction(-13, 4), Fraction(7, 9))


@pytest.mark.parametrize("c", ["-3.2", "0.7", "-16/5", "7/9", "48", "1e-30"])
@pytest.mark.parametrize("bits", [64, 256])
def test_root_product_on_rounded_tables_within_an_ulp_of_the_term_sizes(c, bits):
    # each linear factor rounds twice where the convolution rounds once; the
    # two differ by less than 2**(1 - bits) * S_n, S_n the coefficient of
    # prod(r + |r_i|) (between one and two units in the last place of S_n)
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
        for got, want, size in zip(painleve._root_product(table),
                                   _convolved_root_product(table), sizes):
            assert (got - want).mag() <= mpmath.mpf(2) ** (1 - bits) * size.mag()
    assert rounded_tables


@pytest.mark.parametrize("c", ["-3.2", "0.7", "-16/5"])
@pytest.mark.parametrize("index", range(4))
def test_table_value_nudged_by_2_to_the_minus_100_rejected(monkeypatch, c, index):
    # at 256 bits the allowance is about 2**-128 * (1 + S), far below 2**-100
    C = Scalar.exact(Fraction(c)) if "/" in c else Scalar.from_real(c)
    table = painleve._table_resonances
    nudge = Scalar.from_real(mpmath.mpf(2) ** -100)

    def perturbed(b, c):
        values = table(b, c)
        return values[:index] + [values[index] + nudge] + values[index + 1:]

    balances = find_dominant_balances(C)
    for balance in balances:
        resonances(balance, C)
    monkeypatch.setattr(painleve, "_table_resonances", perturbed)
    for balance in balances:
        with pytest.raises(RuntimeError, match="not matched by Kowalevski root"):
            resonances(balance, C)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("c", ["-1e200", "-1e1000"])
def test_large_negative_C_table_matched_within_the_product_rounding(c, bits):
    # the Case-1 values 5/2 +- d/2, d near sqrt(24*|C|), cancel in
    # prod(r - r_i): its coefficients round at the size of prod(r + |r_i|),
    # where the Kowalevski terms forming the r^3 coefficient stay near 10
    C = Scalar.from_real(c, bits)
    for balance in find_dominant_balances(C):
        assert len(resonances(balance, C).values) == 4
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
