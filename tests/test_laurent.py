import math
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest, to_rational

from painleve_hh import (BranchSpec, CompatibilityViolation, ContractViolation,
                         Scalar, branch_residue, build_series, c1_fourth_power,
                         compatibility_defect, enumerate_branches,
                         f_minus1_squared, leading_x_coefficient,
                         recurrence_determinant, residual_of_series,
                         energy_series, set_default_precision,
                         singular_step_indices, step_recurrence)
from painleve_hh import laurent, series
from painleve_hh.laurent import _CASES, _lead_and_residue, _Recurrence
from painleve_hh.scalars import ScaledInts

from conftest import cauchy

LAM9 = Scalar.exact(1, 9)
TINY = mpmath.mpf("1e-70")


# -- closed forms -----------------------------------------------------------------


def test_c1_fourth_power_exact_at_lambda_one_ninth():
    # the radicand is a perfect rational square at lambda = 1/9, so the
    # exact fast path must deliver exact rationals
    plus = c1_fourth_power(LAM9, "plus")
    minus = c1_fourth_power(LAM9, "minus")
    assert plus.is_exact and plus.fraction() == Fraction(625, 128)
    assert minus.is_exact and minus.fraction() == Fraction(-8125, 23936)


def test_c1_radicand_vertex_value():
    # minimum of 2048 lam^2 - 1280 lam + 387 sits at lam = 5/16 with value 187
    lam = Scalar.exact(5, 16)
    quad = Scalar.exact(2048) * lam * lam - Scalar.exact(1280) * lam + 387
    assert quad.fraction() == 187
    assert (Scalar.exact(35) * quad).fraction() == 6545


def test_f_minus1_squared_values():
    assert f_minus1_squared(LAM9, "plus").fraction() == Fraction(2, 5)
    assert f_minus1_squared(LAM9, "minus").fraction() == Fraction(32, 495)
    assert f_minus1_squared(Scalar.exact(1), "plus").fraction() == 0
    assert f_minus1_squared(Scalar.exact(1), "minus").fraction() == Fraction(-2, 11)
    assert f_minus1_squared(Scalar.exact(17, 3), "zero").is_zero()
    # lam = 1/2 kills the minus root (the other merge point)
    assert f_minus1_squared(Scalar.exact(1, 2), "minus").fraction() == 0


def test_closed_form_branch_argument_validation():
    with pytest.raises(ContractViolation):
        c1_fourth_power(LAM9, "zero")
    with pytest.raises(ContractViolation):
        f_minus1_squared(LAM9, "up")


# -- determinant structure ----------------------------------------------------------


def test_determinant_zero_indices_exact():
    assert singular_step_indices("C165", -1, 50) == [2, 4]
    assert singular_step_indices("C43", -1, 50) == [-1, 2, 4]
    for k in range(-1, 51):
        d165 = recurrence_determinant("C165", k)
        d43 = recurrence_determinant("C43", k)
        assert d165.is_exact and d43.is_exact
        assert d165.is_zero() == (k in (2, 4))
        assert d43.is_zero() == (k in (-1, 2, 4))


def test_determinant_example_k3():
    assert recurrence_determinant("C165", 3).fraction() == -30


def test_determinant_matches_positive_resonances_shifted():
    # positive resonances r map to singular steps k = r - 2
    assert {r - 2 for r in (4, 6)} == set(singular_step_indices("C165", -1, 50))
    assert {r - 2 for r in (1, 4, 6)} == set(singular_step_indices("C43", -1, 50))


# -- stepping ------------------------------------------------------------------------


def test_exact_prefix_with_rational_trial_c1():
    # with rational (lam, c1) every pre-resonance step stays exact
    spec = BranchSpec(case="C165", lam=Scalar.exact(1), root_branch="plus")
    # a free lead's recurrence derives y_{-1} and never reads the residue
    eng = _Recurrence(spec, 256, Scalar.exact(1), None)
    # the tables are lists: index k sits at offset k + 2
    for k in range(-1, 2):
        eng.step(k)
        assert eng.x[k + 2].is_exact and eng.y[k + 2].is_exact
    assert eng.x[1].fraction() == Fraction(1, 15)   # c1^3/15
    assert eng.y[1].fraction() == Fraction(1, 10)   # c1^2/10
    step2 = eng.step(2)
    assert step2.defect.is_exact and not step2.defect.is_zero()


def _exact(c):
    """(re, im) of a Scalar as exact Fractions."""
    if c.is_exact:
        return c.fraction(), Fraction(0)
    return tuple(Fraction(*to_rational(v)) for v in c.mpc()._mpc_)


def _evaluated(terms):
    """The Fraction evaluation of sum(coef * prod(factors)) over the
    (coef, factors) terms: (re, im, bits, rounded) over the terms that
    enter (coef != 0, no exact-zero factor), or None when none does."""
    live = [(q, fs) for q, fs in terms
            if q and not any(f.is_exact and f.is_zero() for f in fs)]
    if not live:
        return None
    re = im = Fraction(0)
    for q, fs in live:
        v = (Fraction(q), 0)
        for f in fs:
            a, b = _exact(f)
            v = (v[0] * a - v[1] * b, v[0] * b + v[1] * a) if b or v[1] \
                else (v[0] * a, 0)
        re, im = re + v[0], im + v[1]
    factors = [f for _, fs in live for f in fs]
    return (re, im, max(f.precision for f in factors),
            any(not f.is_exact for f in factors))


def _assert_rounded_once(got, terms):
    """got is the evaluation of terms rounded once, to nearest, at the
    highest precision of the factors that enter, and exact when none of
    them is rounded; an exact zero when no term enters."""
    value = _evaluated(terms)
    if value is None:
        assert got.is_exact and got.is_zero()
        return
    re, im, bits, rounded = value
    assert got.precision == bits
    if not rounded:
        assert got.is_exact and got.fraction() == re and im == 0
        return
    assert not got.is_exact
    assert got.mpc()._mpc_ == tuple(
        from_rational(q.numerator, q.denominator, bits, round_nearest)
        for q in (re, im))


def _times(q, factors, terms):
    """q * prod(factors) * terms."""
    return [(q * c, (*factors, *fs)) for c, fs in terms]


def _step_formulas(eng, k, lam):
    """The right-hand sides of step k as terms over eng's stored
    coefficients (x[i], y[i] hold index i - 2) and lam, the recurrence's
    lambda."""
    case, x, y = eng.case, eng.x, eng.y

    def conv(a, b, n):
        # the entries known before the step: indices below k
        return [(1, (a[j], b[n - j])) for j in range(n + 1)
                if j < k + 2 and n - j < k + 2]

    r1 = _times(-2, (), conv(x, y, k + 2))
    r2 = _times(-1, (), conv(x, x, k + 3 + case.xx_lo)) \
        + _times(case.C, (), conv(y, y, k + 2))
    if k >= 0:
        r1.append((-1, (lam, x[k])))
        r2.append((-1, (y[k],)))
    return r1, r2


def _matrix_terms(eng, k):
    """The step matrix at k as (coef, factors) entries."""
    case, lead = eng.case, (eng.x[0],)
    coupling = (0 if case.lead_free else 2, lead)
    return (((case.x_diag(k), ()), (2, lead)),
            (coupling, (case.y_diag(k), ())))


def _product(entry, terms, sign=1):
    """sign * the matrix entry * terms."""
    return _times(sign * entry[0], entry[1], terms)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def step_inputs(draw, bits):
    """A value at bits: an exact rational, or one rounded at bits."""
    q = draw(rationals)
    if draw(st.booleans()):
        return Scalar.exact(q.numerator, q.denominator, bits)
    with mpmath.workprec(bits):
        return Scalar.from_real(mpmath.mpf(q.numerator) / q.denominator
                                + mpmath.mpf(2) ** -70, bits)


@given(st.sampled_from(["C165", "C43"]), st.sampled_from([1, -1]),
       st.sampled_from([64, 256, 1024]), st.data())
@example("C165", 1, 256, None)
def test_each_step_is_its_formula_rounded_once(case, x_sign, bits, data):
    # every solution, defect and rhs (kept at the steps with a defect)
    # equals the Fraction evaluation of its formula on the stored
    # coefficients, rounded once; exact inputs (a rational trial lead,
    # lambda and free values) stay exact
    table = _CASES[case]
    if data is None:
        lam, lead, residue = (Scalar.exact(v, 1, bits) for v in (1, 1, 2))
        free = (Scalar.exact(1, 3), Scalar.exact(-2, 5))
    else:
        lam, residue = data.draw(step_inputs(bits)), data.draw(step_inputs(bits))
        free = tuple(data.draw(step_inputs(b)) for b in (bits, 256))
        lead = data.draw(st.one_of(step_inputs(bits), st.just(None)))
    spec = BranchSpec(case=case, lam=lam, root_branch="plus", x_sign=x_sign,
                      free_params=free)
    if lead is None or lead.is_zero():
        lead = leading_x_coefficient(spec)
    else:
        lead = x_sign * lead
    eng = _Recurrence(spec, bits, lead, residue)
    steps = [eng.step(k) for k in range(-1, 9)]
    for step in steps:
        k = step.k
        r = _step_formulas(eng, k, lam.with_precision(bits))
        m = _matrix_terms(eng, k)
        # the rhs is rounded only where defect_acceptable reads it
        assert (step.rhs is None) == (step.defect is None)
        for got, terms in zip(step.rhs or (), r):
            _assert_rounded_once(got, terms)
        det = table.det(k)
        assert step.det.fraction() == det
        if det:
            # Cramer over the closed-form det
            assert step.defect is None
            for c, got in enumerate(step.solution):
                o = 1 - c
                _assert_rounded_once(got, _times(
                    Fraction(1) / det, (),
                    _product(m[o][o], r[c]) + _product(m[c][o], r[o], -1)))
            continue
        f, source, _, _ = table.resonances[k]
        b = 1 - f
        value = residue if source == "residue" else free[source]
        assert step.solution[f] is value
        _assert_rounded_once(step.solution[b], _times(
            Fraction(1) / m[b][b][0], (),
            r[b] + _product(m[b][f], [(1, (value,))], -1)))
        _assert_rounded_once(step.defect, _product(m[b][b], r[f])
                             + _product(m[f][b], r[b], -1))
    if all(v.is_exact for v in (lam, lead, residue, *free)):
        assert all(c.is_exact for c in eng.x + eng.y)


def _half_ulp(c):
    """Half an ulp of a real Scalar at its precision; 0 when it is exact
    or zero."""
    if c.is_exact or c.is_zero():
        return Fraction(0)
    _, man, exp, bc = c.mpc()._mpc_[0]
    return Fraction(2) ** (exp + bc - c.precision - 1)


def _real_sum(terms, scaled, D):
    """sum(coef * prod(factors)) over real terms of at most two factors,
    as a Fraction formed on ints: scaled[id(f)] is f * D, an int."""
    L = math.lcm(*(Fraction(q).denominator for q, _ in terms))
    total = 0
    for q, fs in terms:
        n = Fraction(q).numerator * (L // Fraction(q).denominator)
        for f in fs:
            n *= scaled[id(f)]
        total += n * D ** (2 - len(fs))
    return Fraction(total, L * D * D)


@pytest.mark.parametrize("case", ["C165", "C43"])
def test_grid_series_rows_hold_to_one_rounding(case):
    # the real series runs of the CLI grid (N = 40, both roots, with and
    # without free values, 64/256/1024 bits): each step row, over the
    # stored coefficients, misses its exact rhs by no more than one
    # rounding of each unknown, |M_i0|*ulp(x_k)/2 + |M_i1|*ulp(y_k)/2; C43
    # divides by the closed-form det, whose 4*lead_sq = 24 differs from
    # the stored (2*x0)**2, which adds |r_i*(24 - (2*x0)**2)/det|
    table, checked = _CASES[case], 0
    for lam, root, free, bits in product(("1/9", "0.3", "2"), ("plus", "minus"),
                                         (False, True), (64, 256, 1024)):
        set_default_precision(bits)
        value = Scalar.from_real(lam, bits) if lam == "0.3" \
            else Scalar.exact(Fraction(lam))
        params = (Scalar.exact(1, 3), Scalar.exact(-2, 5)) if free \
            else (Scalar.exact(0), Scalar.exact(0))
        spec = BranchSpec(case=case, lam=value, root_branch=root,
                          free_params=params)
        lead, residue = _lead_and_residue(spec)
        if not (lead.is_real() and residue.is_real()):
            continue
        eng = _Recurrence(spec, bits, lead, residue)
        steps = [eng.step(k) for k in range(-1, 41)]
        checked += 1
        lam_b = value.with_precision(bits)
        stored = eng.x + eng.y + [lam_b]
        exact = {id(c): _exact(c)[0] for c in stored}
        D = math.lcm(*(q.denominator for q in exact.values()))
        scaled = {i: int(q * D) for i, q in exact.items()}
        x0 = exact[id(eng.x[0])]
        m = ((None, 2 * x0), (0 if table.lead_free else 2 * x0, None))
        for step in steps:
            k = step.k
            m = ((table.x_diag(k), m[0][1]), (m[1][0], table.y_diag(k)))
            r = [_real_sum(terms, scaled, D)
                 for terms in _step_formulas(eng, k, lam_b)]
            sol = [exact[id(c)] for c in step.solution]
            ulp = [_half_ulp(c) for c in step.solution]
            det = table.det(k)
            rows = (0, 1) if det else (1 - table.resonances[k][0],)
            for i in rows:
                miss = abs(m[i][0] * sol[0] + m[i][1] * sol[1] - r[i])
                bound = abs(m[i][0]) * ulp[0] + abs(m[i][1]) * ulp[1]
                if det:
                    bound += abs(r[i] * (det + m[0][1] * m[1][0]
                                         - m[0][0] * m[1][1]) / det)
                assert miss <= bound, (lam, root, free, bits, k, i)
    # C165 is real on the plus root at lambda 1/9 and 0.3; C43 on both
    # roots at 1/9 and 2 and on neither at 0.3
    assert checked == {"C165": 12, "C43": 24}[case]


@pytest.mark.parametrize("case", ["C165", "C43"])
@pytest.mark.parametrize("free, extra", [
    (("0.3", "-0.7"), []),
    # an exact free value with a new odd denominator converts its list
    # once more: C165's a2 sits at x[4] and b4 at y[6], C43's f2 at y[4]
    # and f4 at y[6]
    ((Fraction(1, 3), Fraction(-2, 5)), [5, 7])], ids=["rounded", "thirds"])
def test_a_recurrence_converts_at_start_and_at_the_slope(monkeypatch, case,
                                                         free, extra):
    # each lone lead is converted with room for the roundings that follow,
    # so no append converts again before _SLOPE_AT
    params = tuple(Scalar.from_real(v) if isinstance(v, str)
                   else Scalar.exact(v) for v in free)
    spec = BranchSpec(case=case, lam=LAM9, root_branch="plus",
                      free_params=params)
    lead, residue = _lead_and_residue(spec)
    conversions = []
    init = ScaledInts.__init__

    def counted(self, coeffs=(), *args):
        conversions.append(len(coeffs))
        init(self, coeffs, *args)

    monkeypatch.setattr(ScaledInts, "__init__", counted)
    eng = _Recurrence(spec, 256, lead, residue)
    for k in range(-1, 12):
        eng.step(k)
    seen = len(conversions)
    # the room changes no sum: cauchy is bit-identical on fresh lists
    fx = ScaledInts(eng.x, eng.xs.slope)
    fy = ScaledInts(eng.y, fx.slope)
    assert eng.xs.exp < fx.exp and eng.ys.exp < fy.exp
    for n in range(2 * len(eng.x)):
        for got, fresh in ((cauchy(eng.xs, eng.ys, n), cauchy(fx, fy, n)),
                           (cauchy(eng.xs, eng.xs, n), cauchy(fx, fx, n)),
                           (cauchy(eng.ys, eng.ys, n), cauchy(fy, fy, n))):
            assert got.precision == fresh.precision
            assert got.is_exact == fresh.is_exact and got == fresh
            assert got.is_exact or got.mpc()._mpc_ == fresh.mpc()._mpc_
    del conversions[seen:]
    for k in range(12, 16):
        eng.step(k)
    monkeypatch.undo()
    assert conversions == [1, 1] + extra + [16, 16]


def _recurrence_coefficients(sol):
    """(x-coeffs, y-coeffs) of sol keyed by recurrence index, leads
    included."""
    stride = int(1 / _CASES[sol.spec.case].x_step)
    return ({i - 2: c for i, c in enumerate(sol.x.coeffs[::stride])},
            {i - 2: c for i, c in enumerate(sol.y.coeffs)})


def test_step_recurrence_unique_and_singular():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    sol = build_series(spec, 6)
    xs, ys = _recurrence_coefficients(sol)
    prior = ({k: v for k, v in xs.items() if k < 3},
             {k: v for k, v in ys.items() if k < 3})
    step3 = step_recurrence(spec, 3, prior)
    assert step3.resolution == "unique"
    assert step3.det.fraction() == -30
    assert (step3.solution[0] - xs[3]).mag() < TINY


def test_step_recurrence_rejects_indices_below_the_first_step():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    with pytest.raises(ContractViolation):
        step_recurrence(spec, -2, ({}, {}))
    with pytest.raises(ContractViolation):
        step_recurrence(spec, 1, ({-2: Scalar.exact(1)}, {-2: Scalar.exact(1)}))


def test_step_recurrence_rejects_an_incompatible_step():
    # the C43 zero branch fails its k = 2 compatibility at lambda = 1/9; the
    # forced build supplies the prior the single step starts from
    spec = BranchSpec(case="C43", lam=LAM9, root_branch="zero")
    xs, ys = _recurrence_coefficients(
        build_series(spec, 6, on_incompatible="force"))
    prior = ({k: v for k, v in xs.items() if k < 2},
             {k: v for k, v in ys.items() if k < 2})
    with pytest.raises(CompatibilityViolation) as err:
        step_recurrence(spec, 2, prior)
    assert err.value.k == 2 and err.value.defect.mag() > 1


def test_step_resolutions_and_freed_parameters():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    sol = build_series(spec, 6)
    by_k = {s.k: s for s in sol.steps}
    assert by_k[2].resolution == "compatibility-constrained"
    assert by_k[2].freed == "a2"
    assert by_k[4].resolution == "freed-parameter"
    assert by_k[4].freed == "b4"
    assert all(s.resolution == "unique" for k, s in by_k.items()
               if k not in (2, 4))

    spec43 = BranchSpec(case="C43", lam=LAM9, root_branch="plus")
    sol43 = build_series(spec43, 6)
    by_k = {s.k: s for s in sol43.steps}
    assert by_k[-1].resolution == "freed-parameter" and by_k[-1].freed == "f-1"
    assert by_k[2].resolution == "compatibility-constrained"
    assert by_k[4].resolution == "freed-parameter" and by_k[4].freed == "f4"


def test_compatibility_violation_on_tampered_branch():
    # a wrong leading c1 must trip the k = 2 compatibility check
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    eng = _Recurrence(spec, 256, Scalar.from_real("1.5"), None)
    for k in range(-1, 2):
        eng.step(k)
    step = eng.step(2)
    assert not eng.defect_acceptable(step)


# -- built series -----------------------------------------------------------------


def _residual_max(sol):
    rx, ry = residual_of_series(sol.system(), sol.x, sol.y)
    mags = [c.mag() for c in rx.coeffs] + [c.mag() for c in ry.coeffs]
    return max(mags)


def test_build_series_residuals_c165():
    for root in ("plus", "minus"):
        spec = BranchSpec(case="C165", lam=LAM9, root_branch=root)
        sol = build_series(spec, 20)
        assert _residual_max(sol) < mpmath.mpf("1e-25")


def test_build_series_residuals_c43():
    for root, rs in (("plus", 1), ("plus", -1), ("minus", 1), ("minus", -1)):
        spec = BranchSpec(case="C43", lam=LAM9, root_branch=root,
                          residue_sign=rs)
        sol = build_series(spec, 20)
        assert _residual_max(sol) < mpmath.mpf("1e-25")
        assert (sol.residue() - branch_residue(spec)).mag() < TINY


@pytest.mark.parametrize("bits", [128, 256, 512])
@pytest.mark.parametrize("case, lam", [("C165", "1/9"), ("C43", "2")])
def test_residual_floor_tracks_the_working_precision(case, lam, bits):
    # the residual of a compatible branch sits a few bits above 2**-bits
    set_default_precision(bits)
    spec = BranchSpec(case=case, lam=Scalar.exact(Fraction(lam)),
                      root_branch="plus")
    sol = build_series(spec, 40)
    assert sol.precision == bits
    residual = _residual_max(sol)
    assert residual == 0 or -mpmath.log(residual, 2) >= bits - 8


def test_zero_branch_at_special_lambdas():
    # f_{-1} = 0 satisfies the k=2 compatibility exactly at lam = 1/2, 1
    for lam_val in (Fraction(1), Fraction(1, 2)):
        spec = BranchSpec(case="C43", lam=Scalar.exact(lam_val),
                          root_branch="zero")
        sol = build_series(spec, 16)
        assert _residual_max(sol) < mpmath.mpf("1e-25")
        assert sol.residue().is_zero()
        # only even-index coefficients survive on the zero branch
        for e, c in zip(sol.y.exponents(), sol.y.coeffs):
            if e % 2 != 0:
                assert c.mag() < TINY


def test_zero_branch_generic_lambda_is_incompatible():
    # the product of the two admissible f_{-1}^2 values is proportional
    # to (2*lam-1)*(lam-1), so f_{-1} = 0 fails the k=2 compatibility at
    # generic lam
    spec = BranchSpec(case="C43", lam=LAM9, root_branch="zero")
    with pytest.raises(CompatibilityViolation) as err:
        build_series(spec, 12)
    assert err.value.k == 2
    # the defect equals kappa * rho_plus * rho_minus with the quartic's
    # scale kappa recovered from an independent sample point
    rho_p = f_minus1_squared(LAM9, "plus")
    rho_m = f_minus1_squared(LAM9, "minus")
    w = Scalar.exact(3, 7)
    sample = compatibility_defect("C43", LAM9, w)
    kappa = sample / ((w * w - rho_p) * (w * w - rho_m))
    predicted = kappa * rho_p * rho_m
    assert (err.value.defect - predicted).mag() < mpmath.mpf("1e-60")


def test_forced_build_keeps_defect_visible():
    spec = BranchSpec(case="C43", lam=LAM9, root_branch="zero")
    sol = build_series(spec, 12, on_incompatible="force")
    step2 = next(s for s in sol.steps if s.k == 2)
    assert step2.defect.mag() > 1
    # the residual of the forced series shows the inconsistency at t^0
    _, ry = residual_of_series(sol.system(), sol.x, sol.y)
    assert ry.coefficient(0).mag() > mpmath.mpf("0.1")
    assert sol.residue().is_zero()


def test_compatibility_defect_is_even_in_the_free_value():
    w = Scalar.exact(2, 5)
    d1 = compatibility_defect("C43", LAM9, w)
    d2 = compatibility_defect("C43", LAM9, -w)
    assert (d1 - d2).mag() < TINY


small_rationals = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                            st.integers(min_value=1, max_value=8))


@given(st.sampled_from([("C165", "plus", 1), ("C165", "minus", 1),
                        ("C43", "plus", 1), ("C43", "minus", -1),
                        ("C43", "zero", 1)]),
       small_rationals, small_rationals, small_rationals)
@example(("C165", "plus", 1), Fraction(1, 9), Fraction(0), Fraction(0))
@example(("C165", "minus", 1), Fraction(1, 9), Fraction(0), Fraction(0))
@example(("C43", "plus", 1), Fraction(1, 9), Fraction(0), Fraction(0))
def test_x_sign_flip_symmetry(branch, lam, p2, p4):
    # the image of a family under x -> -x has every x coefficient negated,
    # including C165's free a2; C43's f2, f4 and f_{-1} are y coefficients
    case, root, rs = branch
    image_p2 = -p2 if case == "C165" else p2

    def build(x_sign, free):
        spec = BranchSpec(case=case, lam=Scalar.exact(lam), root_branch=root,
                          residue_sign=rs, x_sign=x_sign,
                          free_params=tuple(Scalar.exact(v) for v in free))
        return build_series(spec, 12, on_incompatible="force")

    plus, minus = build(1, (p2, p4)), build(-1, (image_p2, p4))
    assert all(a == -b for a, b in zip(plus.x.coeffs, minus.x.coeffs))
    assert all(a == b for a, b in zip(plus.y.coeffs, minus.y.coeffs))
    assert plus.H == minus.H


def test_resonance_table_matches_determinant_zeros():
    for case, table in _CASES.items():
        assert sorted(table.resonances) == singular_step_indices(case, -1, 50)


def test_free_parameters_enter_only_at_their_index():
    base = build_series(
        BranchSpec(case="C165", lam=LAM9, root_branch="plus"), 10)
    moved = build_series(
        BranchSpec(case="C165", lam=LAM9, root_branch="plus",
                   free_params=(Scalar.exact(1, 3), Scalar.exact(0))), 10)
    bx, by = _recurrence_coefficients(base)
    mx, my = _recurrence_coefficients(moved)
    for k in range(-2, 2):
        assert (bx[k] - mx[k]).mag() < TINY
        assert (by[k] - my[k]).mag() < TINY
    assert (bx[2] - mx[2]).mag() > mpmath.mpf("0.3")
    # b_2 is slaved at k = 2, not freed
    assert (by[2] - my[2]).mag() < TINY


def test_free_parameter_b4():
    base = build_series(
        BranchSpec(case="C165", lam=LAM9, root_branch="plus"), 8)
    moved = build_series(
        BranchSpec(case="C165", lam=LAM9, root_branch="plus",
                   free_params=(Scalar.exact(0), Scalar.exact(2))), 8)
    bx, by = _recurrence_coefficients(base)
    mx, my = _recurrence_coefficients(moved)
    for k in range(-2, 4):
        assert (by[k] - my[k]).mag() < TINY
    assert (by[4] - my[4]).mag() > 1


def test_energy_series_constant_for_built_branches():
    spec = BranchSpec(case="C43", lam=LAM9, root_branch="minus",
                      residue_sign=-1)
    sol = build_series(spec, 20)
    es = energy_series(sol.system(), sol.x, sol.y)
    for e, c in zip(es.exponents(), es.coeffs):
        if e != 0:
            assert c.mag() < mpmath.mpf("1e-25")
    assert (es.coefficient(0) - sol.H).is_zero()


def test_energy_constant_stable_under_refinement():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    h1 = build_series(spec, 20).H
    h2 = build_series(spec, 25).H
    assert (h1 - h2).mag() < mpmath.mpf("1e-20")


def test_build_series_contract_checks():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    with pytest.raises(ContractViolation):
        build_series(spec, 3)
    with pytest.raises(ContractViolation):
        build_series(spec, 10, on_incompatible="ignore")


def test_half_integer_structure_of_c165_x_series():
    sol = build_series(BranchSpec(case="C165", lam=LAM9, root_branch="plus"), 8)
    assert sol.x.step == Fraction(1, 2)
    assert sol.x.lead == Fraction(-3, 2)
    # integer-exponent slots of the sqrt(t)-sector series stay exactly zero
    for e, c in zip(sol.x.exponents(), sol.x.coeffs):
        if e.denominator == 1:
            assert c.is_exact and c.is_zero()
    assert sol.y.step == 1 and sol.y.lead == -2


@given(st.sampled_from(["C165", "C43"]),
       st.fractions(min_value=-2, max_value=2, max_denominator=64),
       st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
                    max_denominator=64).filter(bool))
def test_recenter_at_t0(case, t0, u):
    sol = build_series(BranchSpec(case=case, lam=LAM9, root_branch="plus",
                                  t0=Scalar.exact(t0)), 12)
    base = build_series(BranchSpec(case=case, lam=LAM9, root_branch="plus"),
                        12)
    # the coefficients do not depend on t0; the shift lives in evaluation,
    # so the series at t0 evaluated at t0 + u is the series at 0 at u
    for shifted, series in ((sol.x, base.x), (sol.y, base.y)):
        assert shifted.coeffs == series.coeffs
        at = shifted.evaluate(Scalar.exact(t0 + u))
        ref = series.evaluate(Scalar.exact(u))
        assert at == ref and at.mpc() == ref.mpc()


# -- enumeration ---------------------------------------------------------------------


def test_enumerate_counts():
    assert len(enumerate_branches("C165", LAM9)) == 4
    assert len(enumerate_branches("C43", LAM9)) == 5
    assert len(enumerate_branches("C165", LAM9, include_complex=True)) == 8


def test_enumerate_c43_residue_structure():
    specs = enumerate_branches("C43", LAM9)
    residues = [branch_residue(s) for s in specs]
    assert residues[0].is_zero()
    nonzero = residues[1:]
    mags = sorted(r.mag() for r in nonzero)
    assert mags[0] == mags[1] and mags[2] == mags[3]
    assert (nonzero[0] + nonzero[1]).mag() < TINY
    assert (nonzero[2] + nonzero[3]).mag() < TINY


def test_enumerate_flags_zero_branch_compatibility():
    specs = {s.label(): s for s in enumerate_branches("C43", LAM9)}
    assert specs["C43:zero:x+"].compatible is False
    assert all(s.compatible for label, s in specs.items() if "zero" not in label)
    at_one = {s.label(): s for s in enumerate_branches("C43", Scalar.exact(1))}
    assert at_one["C43:zero:x+"].compatible is True


def test_residuals_across_sampled_lambdas():
    # every enumerated branch solves the system at several lambda values
    for lam_val in (Fraction(0), Fraction(1, 3), Fraction(7, 4)):
        lam = Scalar.exact(lam_val)
        for case in ("C165", "C43"):
            for spec in enumerate_branches(case, lam):
                if spec.compatible is False:
                    continue
                sol = build_series(spec, 12)
                assert _residual_max(sol) < mpmath.mpf("1e-25"), \
                    (lam_val, spec.label())


def test_plus_branch_equals_zero_branch_at_lambda_one():
    # f_{-1}^2(plus) vanishes at lambda = 1, so the plus branches collapse
    # onto the zero branch coefficientwise
    lam = Scalar.exact(1)
    zero = build_series(BranchSpec(case="C43", lam=lam, root_branch="zero"), 12)
    for rs in (1, -1):
        plus = build_series(BranchSpec(case="C43", lam=lam, root_branch="plus",
                                       residue_sign=rs), 12)
        for a, b in zip(zero.y.coeffs, plus.y.coeffs):
            assert (a - b).mag() < TINY
        for a, b in zip(zero.x.coeffs, plus.x.coeffs):
            assert (a - b).mag() < TINY


def test_enumerate_dedup_merges_at_lambda_one():
    distinct = enumerate_branches("C43", Scalar.exact(1), dedup=True)
    assert len(distinct) == 3
    merged = [s for s in distinct if s.merged_with]
    assert len(merged) == 1
    assert "plus" in merged[0].merged_with
    # no merges at generic lambda
    assert len(enumerate_branches("C43", LAM9, dedup=True)) == 5
    assert len(enumerate_branches("C165", LAM9, dedup=True)) == 4


def test_enumerated_complex_branch_builds():
    spec = next(s for s in enumerate_branches("C165", LAM9, include_complex=True)
                if s.imaginary_rotation)
    sol = build_series(spec, 12)
    assert _residual_max(sol) < mpmath.mpf("1e-25")
    c1 = leading_x_coefficient(spec)
    assert abs(c1.mpc().imag) > 0


_C165_REAL = ["C165:plus:x+", "C165:plus:x-", "C165:minus:x+", "C165:minus:x-"]
_C43_ALL = ["C43:zero:x+", "C43:plus:x+:res+", "C43:plus:x+:res-",
            "C43:minus:x+:res+", "C43:minus:x+:res-"]


@pytest.mark.parametrize("case, lam, include_complex, labels, compatible", [
    ("C165", LAM9, False, _C165_REAL, [True] * 4),
    ("C165", LAM9, True, _C165_REAL + [s + ":i" for s in _C165_REAL],
     [True] * 8),
    ("C165", Scalar.exact(1), False, _C165_REAL, [True] * 4),
    ("C165", Scalar.exact(1), True, _C165_REAL + [s + ":i" for s in _C165_REAL],
     [True] * 8),
    ("C43", LAM9, False, _C43_ALL, [False, True, True, True, True]),
    ("C43", LAM9, True, _C43_ALL, [False, True, True, True, True]),
    ("C43", Scalar.exact(1), False, _C43_ALL, [True] * 5),
    ("C43", Scalar.exact(1), True, _C43_ALL, [True] * 5),
])
def test_enumerate_listing_is_pinned(case, lam, include_complex, labels,
                                     compatible):
    specs = enumerate_branches(case, lam, include_complex=include_complex)
    assert [s.label() for s in specs] == labels
    assert [s.compatible for s in specs] == compatible


@pytest.mark.parametrize("case, branch", [("C165", "plus"), ("C43", "minus")])
def test_lead_and_residue_take_the_precision_of_lambda(case, branch):
    # the default stays at 256 bits; a 512-bit lambda carries the branch
    spec = BranchSpec(case=case, lam=Scalar.from_real("0.7", 512),
                      root_branch=branch)
    sol = build_series(spec, 10)
    lead, residue = leading_x_coefficient(spec), branch_residue(spec)
    assert sol.precision == lead.precision == residue.precision == 512
    assert lead.mpc()._mpc_ == sol.c1.mpc()._mpc_
    assert residue.mpc()._mpc_ == sol.residue().mpc()._mpc_


def test_branch_spec_validation():
    with pytest.raises(ContractViolation):
        BranchSpec(case="C165", lam=LAM9, root_branch="zero")
    with pytest.raises(ContractViolation):
        BranchSpec(case="C43", lam=LAM9, root_branch="plus",
                   imaginary_rotation=True)
    with pytest.raises(ContractViolation):
        BranchSpec(case="C99", lam=LAM9, root_branch="plus")
    for signs in ({"x_sign": 2}, {"residue_sign": 0}):
        with pytest.raises(ContractViolation):
            BranchSpec(case="C165", lam=LAM9, root_branch="plus", **signs)


@pytest.mark.parametrize("case, branch, bits", [("C165", "plus", 256),
                                                ("C43", "minus", 512)])
def test_energy_constant_window_is_bit_identical(case, branch, bits):
    set_default_precision(bits)
    spec = BranchSpec(case=case, lam=LAM9, root_branch=branch,
                      free_params=(Scalar.exact(1, 3), Scalar.exact(-2, 5)))
    sol = build_series(spec, 40)
    full = energy_series(sol.system(), sol.x, sol.y).coefficient(0)
    assert not sol.H.is_exact and sol.H.precision == full.precision == bits
    assert sol.H.mpc()._mpc_ == full.mpc()._mpc_


@given(st.fractions(min_value=-50, max_value=50, max_denominator=1000),
       st.sampled_from(["plus", "minus"]))
def test_c1_fourth_power_real_for_real_lambda(lam, branch):
    # 2048 lam^2 - 1280 lam + 387 has its minimum 187 at lam = 5/16
    assert 35 * (2048 * lam * lam - 1280 * lam + 387) >= 6545
    assert c1_fourth_power(Scalar.exact(lam), branch).is_real()


THIRDS = (Scalar.exact(1, 3), Scalar.exact(-2, 5))


@pytest.mark.parametrize("case, lam, branch, rotated, free, bits, N, phase", [
    # x real and imaginary in turn, y the same after its exact lead
    ("C43", Scalar.exact(2), "minus", False, THIRDS, 512, 80, (0, 1)),
    # every x imaginary, every y real (a real a2 would break the x pattern)
    ("C165", LAM9, "plus", True, (Scalar.exact(0),) * 2, 256, 40, (1, 0)),
    # c1 carries an eighth-root phase: no list fits i**(a + b*j)
    ("C165", Scalar.from_real("0.3"), "minus", False, THIRDS, 256, 40, None)],
    ids=["C43-minus-512", "C165-plus-i", "C165-minus"])
def test_complex_series_products_take_one_real_convolution(
        monkeypatch, case, lam, branch, rotated, free, bits, N, phase):
    # a product that fell back to the four-product sums would keep every
    # bit and lose only time: record the phases of the lists cauchy_sum
    # sees and the dense views it reads (an append that breaks a pattern
    # reads one too), in the recurrence's xs and ys and in the residual's
    # products
    set_default_precision(bits)
    spec = BranchSpec(case=case, lam=lam.with_precision(bits),
                      root_branch=branch, imaginary_rotation=rotated,
                      free_params=free)
    phases, dense, views = [], [], []
    kernel, view = laurent.cauchy_sum, ScaledInts.dense

    def recorded(a, b, n):
        phases.append((a.phase, b.phase))
        del views[:]
        out = kernel(a, b, n)
        dense.extend(views)
        return out

    monkeypatch.setattr(laurent, "cauchy_sum", recorded)
    monkeypatch.setattr(series, "cauchy_sum", recorded)
    monkeypatch.setattr(ScaledInts, "dense",
                        lambda s: views.append(s.phase) or view(s))
    sol = build_series(spec, N)
    for stage in ("recurrence", "residual"):
        if stage == "residual":
            del phases[:], dense[:]
            residual_of_series(sol.system(), sol.x, sol.y)
        seen = {p for pair in phases for p in pair}
        if phase is None:
            assert None in seen and dense, stage
        else:
            assert phase in seen and None not in seen and not dense, stage
