"""Convergence certification via the coefficient-bound induction.

If every computed coefficient up to some index N is bounded by M, and for
every k > N the recurrence maps coefficient bounds [0, M]^2 into
themselves, then |a_n|, |b_n| <= M for all n and the series converge on
the punctured disc 0 < |t| <= 1 - eps for any eps > 0.

One template bounds the right-hand sides of the step system in both
cases, from the k+1 x*y pairs and from the x*x and y*y pairs (xx_lo and C
from the recurrence's case table):

    |P_k| <= |lam|*M + 2*(k+1)*M**2
    |Q_k| <= M + ((k - xx_lo) + |C|*(k+1))*M**2

Only the last step differs.  The C = -16/5 step matrix is triangular, and
with xx_lo = -2 the bounds read

    |a_k| <= (2*M*(k+1) + |lam| + 2*|c1|) / |k**2 - 4| * M
    |b_k| <= (21*M*k + 26*M + 5) / (5*|k**2 - k - 12|) * M

(the second absorbs the two c1-endpoint terms of the x**2 convolution
under |c1| <= M, which certification therefore also requires).  For
C = -4/3, xx_lo = -1 gives |Q_k| <= M + (7/3)*(k+1)*M**2, and Cramer's
rule with u = k*(k-1) and D = |(u-2)*(u-12)| gives

    |d_k| <= (|u-8|*|P_k| + 2*sqrt(6)*|Q_k|) / D
    |f_k| <= (|u-6|*|Q_k| + 2*sqrt(6)*|P_k|) / D.

For C165 the bound factors are linear over quadratic in k, for C43 cubic
over quartic.  N is scanned, not proven: the first k >= 5 with both
factors <= 1 (as rounded magnitudes) at k, k+1 and k+2, stepping by k//8
above k = 4096 and giving up beyond 10**5.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath.libmp import to_str

from .errors import ContractViolation, InsufficientPrefix
from .laurent import SeriesSolution, _case
from .scalars import Scalar, as_scalar

_RESONANCE_CEILING = 5   # first admissible induction index (above k = 4)
_SCAN_CAP = 10 ** 5      # the threshold scan gives up beyond this k


@dataclass(frozen=True)
class ConvergenceCertificate:
    M: Scalar
    N: int
    epsilon: Scalar
    checked_prefix: int
    verdict: str                # "certified" | "not-certified"
    case: str
    audit: dict

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def bound_step(k: int, M, lam, c1_abs, case: str):
    """The two step bounds at index k for prefix bound M.

    P and Q bound the right-hand sides the same way in both cases; the
    triangular C165 matrix then bounds each unknown by its own row, and
    C43 takes Cramer's rule.  The diagonals, determinant, xx_lo and C come
    from the recurrence's per-case table; k must avoid the determinant
    zeros (the resonance indices of the respective case).
    """
    M, lam, c1_abs = as_scalar(M), as_scalar(lam), as_scalar(c1_abs)
    table = _case(case)
    d1, d2, D = table.x_diag(k), table.y_diag(k), Scalar.exact(abs(table.det(k)))
    if D.is_zero():
        raise ContractViolation(f"bound denominators vanish at k={k}")
    p = lam.magnitude() * M + 2 * (k + 1) * M * M
    q = M + ((k - table.xx_lo) + abs(table.C) * (k + 1)) * M * M
    if table.lead_free:
        return (p + 2 * c1_abs * M) / abs(d1), q / abs(d2)
    two_s = 2 * Scalar.exact(table.lead_sq).sqrt()
    return (abs(d2) * p + two_s * q) / D, (abs(d1) * q + two_s * p) / D


def _induction_threshold(M: Scalar, lam: Scalar, c1_abs: Scalar,
                         case: str) -> int | None:
    """The first scanned k >= 5 with both bound factors <= 1 at k, k+1, k+2.

    The scan steps by 1 up to 4096 and by k//8 above; None past _SCAN_CAP.
    The local check at k+1 and k+2 does not prove the factors stay <= 1.
    """
    def ok(k: int) -> bool:
        b1, b2 = bound_step(k, M, lam, c1_abs, case)
        return b1.mag() <= M.mag() and b2.mag() <= M.mag()

    k = _RESONANCE_CEILING
    while k <= _SCAN_CAP:
        if ok(k):
            # the factors are eventually monotone; confirm locally
            if ok(k + 1) and ok(k + 2):
                return k
        k += 1 if k < 4096 else k // 8
    return None


def certify(solution: SeriesSolution, epsilon, m_search_limit=2 ** 20) -> ConvergenceCertificate:
    """Certify convergence with M the least power of two >= 1 covering every
    computed coefficient magnitude from index -1 on (and |c1| for C165,
    which the second bound absorbs under |c1| <= M); an M over the search
    limit is not certified.  The induction threshold must lie inside the
    computed prefix; otherwise InsufficientPrefix reports how many
    coefficients are needed.
    """
    epsilon, limit = as_scalar(epsilon), as_scalar(m_search_limit)
    if solution.trunc_order < 10:
        raise ContractViolation("certification needs a series built with N >= 10")
    # an exact value as its Fraction, a rounded one as its stored mpf: a
    # Fraction of a rounded 1e-300000000 has a billion-bit denominator
    eps, lim = (v.fraction() if v.is_exact else v.mpc().real
                for v in (epsilon, limit))
    if not epsilon.is_real() or not 0 < eps < 1:
        raise ContractViolation("epsilon must be a real number in (0, 1)")
    if not limit.is_real() or not lim > 0:
        raise ContractViolation("the M search limit must be a positive real")
    bits = solution.precision
    case = solution.spec.case
    lead_free = _case(case).lead_free
    lam = solution.spec.lam
    # from index -1 on; the x slots between C165's exponents are exact zeros
    mags = [v.mag() for v in solution.x.coeffs[1:] + solution.y.coeffs[1:]]
    c1_abs = solution.c1.magnitude() if lead_free else Scalar.exact(0)
    # M = 2**exponent, the least exponent >= 0 with M >= the largest, man * 2**exp
    _, man, exp, _ = max(mags + [c1_abs.mag()])._mpf_
    exponent = max(0, (man - 1).bit_length() + exp) if man else 0
    limit = limit.mag()
    audit = {
        "max_prefix_coefficient": Scalar.from_real(max(mags), bits),
        "c1_abs": c1_abs,
        "prefix_bound_indices": "[-1, %d]" % solution.trunc_order,
        "c43_derived_constants": None if lead_free else {
            "p_terms": "|lam|*M + 2*(k+1)*M^2",
            "q_terms": "M + (7/3)*(k+1)*M^2",
            "coupling": "2*sqrt(6)",
            "denominator": "|(u-2)*(u-12)|, u = k*(k-1)",
        },
    }
    # Enlarging M past the coefficient floor only raises the induction
    # threshold (the bound factors grow with M), so the first power of two
    # covering the prefix is the only candidate worth checking; past
    # 4*bits bits (one exact sum's spread) M is rounded, not a huge int.
    M = (Scalar.exact(2) if exponent <= 4 * bits
         else Scalar.from_real(2, bits)) ** exponent
    over_limit = M.mag() > limit
    n_ind = None if over_limit else _induction_threshold(M, lam, c1_abs, case)
    if n_ind is None:
        return ConvergenceCertificate(
            M=M, N=-1, epsilon=epsilon, checked_prefix=solution.trunc_order,
            verdict="not-certified", case=case,
            audit={**audit, "reason": "required M exceeds the search limit"
                   if over_limit else "induction threshold beyond scan cap"},
        )
    if n_ind > solution.trunc_order:
        raise InsufficientPrefix(required=n_ind, available=solution.trunc_order)
    audit_entry = {
        **audit,
        "bound_factors_at_N": tuple(
            to_str(b.mag()._mpf_, 15)
            for b in bound_step(n_ind, M, lam, c1_abs, case)),
    }
    return ConvergenceCertificate(
        M=M, N=n_ind, epsilon=epsilon, checked_prefix=solution.trunc_order,
        verdict="certified", case=case, audit=audit_entry,
    )


def geometric_tail_bound(M, epsilon, n: int):
    """M * (1-eps)**n / eps: bound on the tail past n at |t| = 1 - eps."""
    M, epsilon = as_scalar(M), as_scalar(epsilon)
    one_minus = Scalar.exact(1) - epsilon
    return M * one_minus ** n / epsilon
