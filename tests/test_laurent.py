from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from painleve_hh import (BranchSpec, CompatibilityViolation, ContractViolation,
                         Scalar, branch_residue, build_series, c1_fourth_power,
                         compatibility_defect, enumerate_branches,
                         f_minus1_squared, leading_x_coefficient,
                         recurrence_determinant, residual_of_series,
                         energy_series, set_default_precision,
                         singular_step_indices, step_recurrence)
from painleve_hh.laurent import _CASES, _Recurrence

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


def test_step_recurrence_unique_and_singular():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    sol = build_series(spec, 6)
    xs, ys = sol.recurrence_coefficients()
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
    bx, by = base.recurrence_coefficients()
    mx, my = moved.recurrence_coefficients()
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
    bx, by = base.recurrence_coefficients()
    mx, my = moved.recurrence_coefficients()
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
