import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

from painleve_hh import (BranchSpec, ContractViolation, InsufficientPrefix,
                         Scalar, bound_step, build_series, certify)
from painleve_hh.convergence import geometric_tail_bound
from painleve_hh.jsonio import encode_certificate
from painleve_hh.laurent import SeriesSolution

LAM9 = Scalar.exact(1, 9)


def _with_y_coefficient(sol: SeriesSolution, index: int, value: Scalar):
    """sol with y's coefficient list entry `index` replaced by value."""
    ycoeffs = list(sol.y.coeffs)
    ycoeffs[index] = value
    return SeriesSolution(
        spec=sol.spec, x=sol.x,
        y=type(sol.y)(sol.y.lead, sol.y.step, ycoeffs, center=sol.y.center),
        steps=sol.steps, trunc_order=sol.trunc_order,
        precision=sol.precision)


def test_bound_step_reference_values():
    b1, b2 = bound_step(10, Scalar.exact(1), Scalar.exact(0),
                        Scalar.exact(0), "C165")
    assert b1.fraction() == Fraction(22, 96)
    assert b2.fraction() == Fraction(241, 390)


def test_bound_step_includes_lambda_and_c1():
    b1, _ = bound_step(10, Scalar.exact(1), Scalar.exact(1, 9),
                       Scalar.exact(3, 2), "C165")
    assert b1.fraction() == Fraction(22 + Fraction(1, 9) + 3, 96)


def test_bounds_vanish_at_large_k():
    M, lam, c1 = Scalar.exact(2), Scalar.exact(1, 9), Scalar.exact(3, 2)
    for case in ("C165", "C43"):
        b1a, b2a = bound_step(50, M, lam, c1, case)
        b1b, b2b = bound_step(5000, M, lam, c1, case)
        assert b1b.mag() < b1a.mag() and b2b.mag() < b2a.mag()
        assert b1b.mag() < mpmath.mpf("0.01") and b2b.mag() < mpmath.mpf("0.01")


def test_bounds_monotone_in_M():
    for case in ("C165", "C43"):
        small = bound_step(12, Scalar.exact(1), LAM9, Scalar.exact(1), case)
        large = bound_step(12, Scalar.exact(3), LAM9, Scalar.exact(1), case)
        assert large[0].mag() > small[0].mag()
        assert large[1].mag() > small[1].mag()


def _bits(s: Scalar):
    return (s.precision, s.fraction() if s.is_exact else s.mpc()._mpc_)


@given(st.integers(0, 12), st.integers(5, 5000),
       st.one_of(st.fractions(-5, 5, max_denominator=100).map(Scalar.exact),
                 st.floats(-5, 5).map(Scalar.from_real)),
       st.floats(0.01, 4).map(Scalar.from_real),
       st.sampled_from(["C165", "C43"]))
def test_bound_step_is_bit_identical_to_the_closed_forms(j, k, lam, c1_abs,
                                                         case):
    # the module docstring's two pairs, written out; certify passes M = 2**j
    M, lam_abs = Scalar.exact(2) ** j, lam.magnitude()
    if case == "C165":
        want = ((2 * M * (k + 1) + lam_abs + 2 * c1_abs) / abs(k * k - 4) * M,
                (21 * M * k + 26 * M + 5) / (5 * abs(k * k - k - 12)) * M)
    else:
        u = k * (k - 1)
        D = abs((u - 2) * (u - 12))
        p = lam_abs * M + 2 * (k + 1) * M * M
        q = M + Scalar.exact(7, 3) * (k + 1) * M * M
        two_s = 2 * Scalar.exact(6).sqrt()
        want = ((abs(u - 8) * p + two_s * q) / D,
                (abs(u - 6) * q + two_s * p) / D)
    got = bound_step(k, M, lam, c1_abs, case)
    assert [_bits(b) for b in got] == [_bits(b) for b in want]


def test_bound_step_denominator_guards():
    with pytest.raises(ContractViolation):
        bound_step(2, Scalar.exact(1), LAM9, Scalar.exact(1), "C165")
    with pytest.raises(ContractViolation):
        bound_step(4, Scalar.exact(1), LAM9, Scalar.exact(1), "C43")


def test_certify_c165_lambda_one_ninth():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    sol = build_series(spec, 40)
    cert = certify(sol, Scalar.from_real("0.1"))
    assert cert.certified
    assert cert.M.fraction() == 2        # must dominate |c1| ~ 1.487
    assert 5 <= cert.N <= 40
    assert cert.checked_prefix == 40
    # induction closes at N: both factors at N are <= 1
    b1, b2 = bound_step(cert.N, cert.M, LAM9, sol.c1.magnitude(), "C165")
    assert b1.mag() <= cert.M.mag() and b2.mag() <= cert.M.mag()


def test_certify_c43_branch():
    spec = BranchSpec(case="C43", lam=LAM9, root_branch="plus")
    sol = build_series(spec, 40)
    cert = certify(sol, Scalar.from_real("0.05"))
    assert cert.certified
    assert cert.audit["c43_derived_constants"] is not None


def test_geometric_tail_check():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    long = build_series(spec, 80)
    cert = certify(build_series(spec, 40), Scalar.from_real("0.1"))
    t = Scalar.from_real("0.9")
    for series in (long.x, long.y):
        s_n = series.truncate(40).evaluate(t)
        s_2n = series.truncate(80).evaluate(t)
        bound = geometric_tail_bound(cert.M, cert.epsilon, 40)
        assert (s_2n - s_n).mag() <= bound.mag()


def test_certificate_monotone_in_epsilon():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    sol = build_series(spec, 40)
    c_small = certify(sol, Scalar.from_real("0.05"))
    c_large = certify(sol, Scalar.from_real("0.3"))
    # the bound data is epsilon-independent; certification transfers verbatim
    assert c_small.certified and c_large.certified
    assert c_small.M.fraction() == c_large.M.fraction()
    assert c_small.N == c_large.N


def test_injected_large_coefficient_not_certified():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    # recurrence index 30
    tampered = _with_y_coefficient(build_series(spec, 40), 32,
                                   Scalar.from_real("1e6"))
    cert = certify(tampered, Scalar.from_real("0.1"), m_search_limit=2 ** 12)
    assert not cert.certified


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_prefix_coefficient_rejected(value):
    # the coefficient is rejected where it is made, before a prefix holds it;
    # so is a non-finite epsilon or search limit
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    sol = build_series(spec, 40)
    with pytest.raises(ContractViolation,
                       match=f"'{value}' is not a finite number"):
        certify(_with_y_coefficient(sol, 32, Scalar.from_real(value)),
                Scalar.from_real("0.1"))
    for eps, limit in ((float(value), 2 ** 20), ("0.1", float(value))):
        with pytest.raises(ContractViolation, match="is not a finite number"):
            certify(sol, eps, limit)


def test_range_checks_build_no_fraction_of_a_rounded_value(monkeypatch):
    # a Fraction of a rounded 1e-300000000 has a billion-bit denominator
    sol = build_series(BranchSpec(case="C165", lam=LAM9, root_branch="plus"), 40)
    rational = Scalar._rational

    def exact_only(self):
        if not self.is_exact:
            raise AssertionError(f"a Fraction of the rounded {self!r}")
        return rational(self)

    monkeypatch.setattr(Scalar, "_rational", exact_only)
    assert certify(sol, "1e-300000000").certified
    assert certify(sol, Fraction(1, 10), "1e300000000").certified
    assert not certify(sol, "0.1", "1e-300000000").certified
    for eps, limit in (("1", 2 ** 20), ("-1e-300000000", 2 ** 20),
                       (Scalar.from_complex("0.1", "1e-300000000"), 2 ** 20),
                       (Fraction(1, 10), "-1e300000000"),
                       ("0.1", Scalar.from_complex(2 ** 20, 1)),
                       (Fraction(11, 10), 2 ** 20), ("0.1", 0)):
        with pytest.raises(ContractViolation):
            certify(sol, eps, limit)


def test_prefix_maximum_one_ulp_above_a_power_of_two_takes_the_next_one():
    # 2**10 + 2**-245 is one ulp above 2**10 at 256 bits; its log2 rounded
    # at 256 bits reads exactly 10, and M = 2**10 would not dominate it
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    big = Scalar.from_real(mp.make_mpf(from_man_exp(2 ** 255 + 1, -245)), 256)
    assert big.mag() > 2 ** 10
    tampered = _with_y_coefficient(build_series(spec, 40), 32, big)
    cert = certify(tampered, Scalar.from_real("0.1"), m_search_limit=2 ** 10)
    assert cert.M.fraction() == 2 ** 11 and cert.M.mag() >= big.mag()
    assert not cert.certified
    assert cert.audit["reason"] == "required M exceeds the search limit"


@pytest.mark.parametrize("case", ["C165", "C43"])
def test_certificate_report_reads_no_ambient_precision(case):
    sol = build_series(BranchSpec(case=case, lam=LAM9, root_branch="plus"), 40)
    epsilon = Scalar.from_real("0.1")
    reports = []
    for ambient in (mp.workprec(53), mp.workprec(300), mp.workdps(50)):
        with ambient:
            cert = certify(sol, epsilon)
            reports.append(json.dumps(encode_certificate(cert)))
    assert reports[0] == reports[1] == reports[2]
    # the audit holds the largest magnitude from index -1 on, every bit of it
    audit = cert.audit["max_prefix_coefficient"]
    assert audit.precision == sol.precision
    assert audit.mpc()._mpc_[0] == max(
        c.mag() for c in sol.x.coeffs[1:] + sol.y.coeffs[1:])._mpf_


def test_insufficient_prefix_error():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    sol = build_series(spec, 11)
    with pytest.raises(InsufficientPrefix) as err:
        certify(sol, Scalar.from_real("0.1"))
    assert err.value.required > 11


def test_certify_epsilon_validation():
    spec = BranchSpec(case="C165", lam=LAM9, root_branch="plus")
    sol = build_series(spec, 40)
    with pytest.raises(ContractViolation):
        certify(sol, Scalar.exact(0))
    with pytest.raises(ContractViolation):
        certify(sol, Scalar.exact(2))
    # |0.1 + 0.1i| lies in (0, 1), but a disc radius needs a real epsilon
    with pytest.raises(ContractViolation):
        certify(sol, Scalar.from_complex("0.1", "0.1"))
