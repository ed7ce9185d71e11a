"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run pytest with -s to see them).

Criterion 5 carries a documented caveat: the f_{-1} = 0 branch of the
C = -4/3 family fails its k = 2 compatibility at every lambda outside
{1/2, 1} (the product of the two closed-form roots for f_{-1}**2 is
proportional to (2*lambda-1)*(lambda-1), so 0 is not among the admissible
residues at generic lambda).  The strict all-branches form of the
criterion is therefore recorded as a strict xfail, and the main test
asserts the mathematically attainable statement: every compatible branch
meets the tolerance and the zero branch fails for exactly the predicted
reason, with the predicted defect.
"""

import time
from fractions import Fraction

import mpmath
import pytest

from painleve_hh import (BranchSpec, CompatibilityViolation, PuiseuxSeries,
                         Scalar, build_series,
                         c1_fourth_power, candidate_C_values, certify, classify,
                         compatibility_defect, energy_series, enumerate_branches,
                         f_minus1_squared, find_dominant_balances, fit,
                         integrate_numeric, nth_root, residual_of_series,
                         residue_pairing, resonances, singular_step_indices,
                         state_from_series, weierstrass_p_series)
from painleve_hh.convergence import geometric_tail_bound
from painleve_hh.linalg import DenseMatrix, solve_linear
from painleve_hh.subequation import ansatz_indices

from conftest import residual_series

LAM9 = Scalar.exact(1, 9)
TOL25 = mpmath.mpf("1e-25")
TOL30 = mpmath.mpf("1e-30")


def _report(n, name, detail=""):
    print(f"ACCEPTANCE {n} {name}: PASS {detail}".rstrip())


def _exact_sorted(rset):
    out = []
    for v in rset.values:
        assert v.is_exact, f"resonance {v!r} not exact"
        out.append(v.fraction())
    return sorted(out)


def _balance(C, case, alpha=None):
    for b in find_dominant_balances(C):
        if b.case_tag != case:
            continue
        if alpha is None or (b.alpha.is_exact and b.alpha.fraction() == alpha):
            return b
    raise AssertionError("balance not found")


def test_criterion_1_resonance_table():
    start = time.perf_counter()
    # integer resonances matched exactly; the table's Kowalevski identity
    # is proven for every C in tests/test_painleve.py
    C = Scalar.exact(-1)
    assert _exact_sorted(resonances(_balance(C, "Case1"), C)) == [-1, 2, 3, 6]
    C = Scalar.exact(-4, 3)
    assert _exact_sorted(resonances(_balance(C, "Case1"), C)) == [-1, 1, 4, 6]
    C = Scalar.exact(-16, 5)
    b = _balance(C, "Case2", Fraction(-3, 2))
    assert _exact_sorted(resonances(b, C)) == [-1, 0, 4, 6]
    for generic in (Fraction(-7, 2), Fraction(-9), Fraction(-13, 4)):
        Cg = Scalar.exact(generic)
        for bal in find_dominant_balances(Cg):
            if bal.case_tag != "Case2":
                continue
            vals = resonances(bal, Cg).values
            fr = [v.fraction() if v.is_exact else None for v in vals]
            assert all(Fraction(e) in fr for e in (-1, 0, 6))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "resonance table", f"({elapsed:.2f}s)")


def test_criterion_2_classification():
    integrable = [(-1, Fraction(1)), (-6, Fraction(3, 7)), (-6, Fraction(2)),
                  (-16, Fraction(1, 16))]
    for c, lam in integrable:
        assert classify(Scalar.exact(c), Scalar.exact(lam)).label \
            == "integrable-candidate"
    not_integrable = [(-1, Fraction(2)), (-16, Fraction(1, 8))]
    for c, lam in not_integrable:
        assert classify(Scalar.exact(c), Scalar.exact(lam)).label == "generic"
    for c in (Fraction(-16, 5), Fraction(-4, 3)):
        for lam in (Fraction(0), Fraction(1, 9), Fraction(5)):
            assert classify(Scalar.exact(c), Scalar.exact(lam)).label \
                == "three-parameter-candidate"
    assert classify(Scalar.exact(-2), Scalar.exact(3)).label == "logarithmic"
    assert classify(Scalar.exact(-5), Scalar.exact(1)).label == "generic"
    values = {c.value.fraction() for c in candidate_C_values()}
    assert values == {Fraction(-1), Fraction(-4, 3), Fraction(-16, 5),
                      Fraction(-6), Fraction(-16), Fraction(-2)}
    assert len(candidate_C_values()) == 6
    _report(2, "classification")


def test_criterion_3_determinant_zero_structure():
    assert singular_step_indices("C165", -1, 50) == [2, 4]
    assert singular_step_indices("C43", -1, 50) == [-1, 2, 4]
    # indices = positive resonances shifted by the leading exponent (-2)
    C = Scalar.exact(-16, 5)
    r165 = _exact_sorted(resonances(_balance(C, "Case2", Fraction(-3, 2)), C))
    assert [r - 2 for r in r165 if r > 0] == [2, 4]
    C = Scalar.exact(-4, 3)
    r43 = _exact_sorted(resonances(_balance(C, "Case1"), C))
    assert [r - 2 for r in r43 if r > 0] == [-1, 2, 4]
    _report(3, "determinant-zero structure")


def _eliminate_b2_from_k2_system(lam: Fraction):
    """Oracle for c1**4: eliminate b2 between the two k=2 compatibility
    equations and solve the resulting quadratic in c1**4."""
    A1, B1_lam, B1_const = 557056, 15552000, -4860000
    C1_b2 = 864000000
    D1 = (108000000 * lam ** 2 - 67500000 * lam
          + Fraction(10546875))
    A2, B2_lam, B2_const = 818176, 15660000, Fraction(-4893750)
    C2_b2 = -810000000
    D2 = Fraction(-6328125)
    # b2 = -(A2 u^2 + (B2_lam lam + B2_const) u + D2) / C2_b2
    # substitute into the first equation (already divided by c1)
    ratio = Fraction(C1_b2, -C2_b2)
    qa = Fraction(A1) + ratio * A2
    qb = (B1_lam * lam + B1_const) + ratio * (B2_lam * lam + B2_const)
    qc = D1 + ratio * D2
    disc = Scalar.exact(qb * qb - 4 * qa * qc)
    root = nth_root(disc, 2, 0)
    two_a = Scalar.exact(2 * qa)
    return ((Scalar.exact(-qb) + root) / two_a,
            (Scalar.exact(-qb) - root) / two_a)


def _interpolated_k2_quartic_roots(lam: Scalar):
    """Oracle for f_{-1}**2: sample the k=2 consistency defect of the
    C = -4/3 recurrence at trial residues, interpolate the even
    quartic, and return its roots in f_{-1}**2."""
    samples = [Scalar.exact(i, 4) for i in (1, 2, 3)]
    rows, rhs = [], []
    for w in samples:
        v = w * w
        rows.append([Scalar.exact(1), v, v * v])
        rhs.append(compatibility_defect("C43", lam, w))
    sol = solve_linear(DenseMatrix.from_rows(rows), rhs)
    assert sol.kind == "unique"
    q0, q1, q2 = sol.solution
    # verify the interpolation at two held-out points, one negated
    for w in (Scalar.exact(1), Scalar.exact(-5, 4)):
        v = w * w
        predicted = q0 + q1 * v + q2 * v * v
        actual = compatibility_defect("C43", lam, w)
        assert (predicted - actual).mag() < mpmath.mpf("1e-55")
    disc = nth_root(q1 * q1 - 4 * q2 * q0, 2, 0)
    return ((-q1 + disc) / (2 * q2), (-q1 - disc) / (2 * q2))


def test_criterion_4_compatibility_closed_forms():
    start = time.perf_counter()
    for lam in (Fraction(0), Fraction(1, 9), Fraction(1, 2), Fraction(1),
                Fraction(2)):
        lam_s = Scalar.exact(lam)
        got = _eliminate_b2_from_k2_system(lam)
        want = (c1_fourth_power(lam_s, "plus"), c1_fourth_power(lam_s, "minus"))
        for w in want:
            best = min((g - w).mag() for g in got)
            assert best < TOL30, (lam, "c1^4")
        roots = _interpolated_k2_quartic_roots(lam_s)
        expect = (f_minus1_squared(lam_s, "plus"),
                  f_minus1_squared(lam_s, "minus"))
        for w in expect:
            best = min((r - w).mag() for r in roots)
            assert best < TOL30, (lam, "f_-1^2")
    # the closed-form lambda = 1 values
    assert f_minus1_squared(Scalar.exact(1), "plus").fraction() == 0
    assert f_minus1_squared(Scalar.exact(1), "minus").fraction() \
        == Fraction(-2, 11)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, "compatibility closed forms", f"({elapsed:.2f}s)")


def _residual_and_energy_max(sol):
    rx, ry = residual_of_series(sol.system(), sol.x, sol.y)
    r = max(c.mag() for c in list(rx.coeffs) + list(ry.coeffs))
    es = energy_series(sol.system(), sol.x, sol.y)
    e = max((c.mag() for ex, c in zip(es.exponents(), es.coeffs) if ex != 0),
            default=mpmath.mpf(0))
    return r, e


def test_criterion_5_series_validity():
    start = time.perf_counter()
    branches = enumerate_branches("C165", LAM9) + enumerate_branches("C43", LAM9)
    assert len(branches) == 9
    checked = 0
    for spec in branches:
        if spec.compatible is False:
            # the f_{-1} = 0 branch: provably incompatible at lambda = 1/9;
            # assert it fails for exactly the predicted reason
            with pytest.raises(CompatibilityViolation) as err:
                build_series(spec, 40)
            assert err.value.k == 2
            rho_p = f_minus1_squared(LAM9, "plus")
            rho_m = f_minus1_squared(LAM9, "minus")
            w = Scalar.exact(3, 7)
            kappa = compatibility_defect("C43", LAM9, w) \
                / ((w * w - rho_p) * (w * w - rho_m))
            predicted = kappa * rho_p * rho_m
            assert (err.value.defect - predicted).mag() < mpmath.mpf("1e-55")
            continue
        sol = build_series(spec, 40)
        r, e = _residual_and_energy_max(sol)
        assert r <= TOL25, spec.label()
        assert e <= TOL25, spec.label()
        checked += 1
    assert checked == 8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, "series validity",
            f"(8/9 branches at 1e-25; zero branch incompatible as "
            f"predicted; {elapsed:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="the f_{-1}=0 branch cannot satisfy the k=2 compatibility at "
           "lambda=1/9: the product of the two admissible residue squares "
           "is proportional to (2*lambda-1)*(lambda-1), which excludes 0")
def test_criterion_5_zero_branch_as_stated():
    spec = next(s for s in enumerate_branches("C43", LAM9)
                if s.root_branch == "zero")
    sol = build_series(spec, 40)          # raises CompatibilityViolation
    r, e = _residual_and_energy_max(sol)
    assert r <= TOL25 and e <= TOL25


def test_criterion_6_branch_counts():
    assert len(enumerate_branches("C165", LAM9)) == 4
    assert len(enumerate_branches("C43", LAM9)) == 5
    assert len(enumerate_branches("C43", Scalar.exact(17, 8))) == 5
    merged = enumerate_branches("C43", Scalar.exact(1), dedup=True)
    assert len(merged) == 3
    assert any(s.merged_with and "plus" in s.merged_with for s in merged)
    _report(6, "branch counts", "(4 and 5; merge flagged at lambda=1)")


def test_criterion_7_x_sign_symmetry():
    for case, root, rs in (("C165", "plus", 1), ("C165", "minus", 1),
                           ("C43", "plus", 1), ("C43", "minus", -1)):
        pos = build_series(BranchSpec(case=case, lam=LAM9, root_branch=root,
                                      residue_sign=rs, x_sign=1), 15)
        neg = build_series(BranchSpec(case=case, lam=LAM9, root_branch=root,
                                      residue_sign=rs, x_sign=-1), 15)
        for a, b in zip(pos.x.coeffs, neg.x.coeffs):
            assert (a + b).mag() < TOL30
        for a, b in zip(pos.y.coeffs, neg.y.coeffs):
            assert (a - b).mag() < TOL30
    _report(7, "x -> -x symmetry")


def test_criterion_8_convergence_certificate():
    start = time.perf_counter()
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    sol40 = build_series(spec, 40)
    cert = certify(sol40, Scalar.from_real("0.1"))
    assert cert.certified
    assert cert.M.mag() < mpmath.inf and cert.N >= 5
    # geometric-tail partial-sum check at |t| = 0.9
    sol80 = build_series(spec, 80)
    t = Scalar.from_real("0.9")
    bound = geometric_tail_bound(cert.M, cert.epsilon, 40).mag()
    for series in (sol80.x, sol80.y):
        s_n = series.truncate(40).evaluate(t)
        s_2n = series.truncate(80).evaluate(t)
        assert (s_2n - s_n).mag() <= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(8, "convergence certificate",
            f"(M={cert.M.fraction()}, N={cert.N}; {elapsed:.1f}s)")


def test_criterion_9_numeric_cross_oracle():
    start = time.perf_counter()
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    sol = build_series(spec, 80)
    s_a = state_from_series(sol.x, sol.y, Scalar.exact(3, 10))
    s_b = state_from_series(sol.x, sol.y, Scalar.exact(1, 2))
    end = integrate_numeric(sol.system(), s_a, Scalar.exact(1, 2),
                            Scalar.from_real("1e-20"))
    diff = max((end.x - s_b.x).mag(), (end.xt - s_b.xt).mag(),
               (end.y - s_b.y).mag(), (end.yt - s_b.yt).mag())
    assert diff <= mpmath.mpf("1e-15")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(9, "numeric cross-oracle",
            f"(max diff {mpmath.nstr(diff, 3)}; {elapsed:.1f}s)")


def test_criterion_10_subequation_fitter():
    fixture = PuiseuxSeries(-2, 1, (1,), complete=True)
    res = fit(fixture, 2, 10)
    assert res.nullspace_dim == 1
    ans = res.basis[0]
    pivot = ans.coefficient(0, 2)
    expected_fixture = {(0, 2): Fraction(1), (3, 0): Fraction(-4)}
    for jk in ansatz_indices(2):
        got = ans.coefficient(*jk) / pivot
        want = Scalar.exact(expected_fixture.get(jk, Fraction(0)))
        assert (got - want).mag() <= TOL25

    p = weierstrass_p_series(Scalar.exact(4), Scalar.exact(1), 20)
    res = fit(p, 2, 25)
    assert res.nullspace_dim == 1
    ans = res.basis[0]
    pivot = ans.coefficient(0, 2)
    expected = {(0, 2): Fraction(1), (3, 0): Fraction(-4),
                (1, 0): Fraction(4), (0, 0): Fraction(1)}
    for jk in ansatz_indices(2):
        got = ans.coefficient(*jk) / pivot
        want = Scalar.exact(expected.get(jk, Fraction(0)))
        assert (got - want).mag() <= TOL25
    # independent residual re-verification on the reported basis
    resid = residual_series(ans, p)
    assert all(c.mag() < TOL25 for c in resid.coeffs)
    _report(10, "subequation fitter",
            "(y'^2 = 4y^3 and y'^2 = 4y^3 - 4y - 1 recovered)")


def test_criterion_11_residue_pairing():
    specs = enumerate_branches("C43", LAM9)
    built = []
    for s in specs:
        mode = "force" if s.compatible is False else "raise"
        built.append((s, build_series(s, 10, on_incompatible=mode).y))
    pairs = residue_pairing(built, tol=TOL25)
    assert sorted(i for p in pairs for i in p.members) == [0, 1, 2, 3, 4]
    kinds = sorted(p.kind for p in pairs)
    assert kinds == ["negative-pair", "negative-pair", "self-zero"]
    zero_pair = next(p for p in pairs if p.kind == "self-zero")
    assert built[zero_pair.members[0]][0].root_branch == "zero"
    for p in pairs:
        if p.kind == "negative-pair":
            assert (p.residues[0] + p.residues[1]).mag() <= TOL25
    _report(11, "residue pairing", "(two exact-negative pairs + self-paired zero)")
