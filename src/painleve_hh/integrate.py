"""High-precision adaptive integration of the model equations.

The right-hand sides are polynomial, so each step expands the local
solution in a Taylor series whose coefficients follow from the Cauchy
product recurrences

    X[m+2] = (-lam*X[m] - 2*sum X[i]*Y[m-i]) / ((m+1)(m+2))
    Y[m+2] = (-Y[m] - sum X[i]*X[m-i] + C*sum Y[i]*Y[m-i]) / ((m+1)(m+2)).

The order is matched to the tolerance: p = max(8, ceil(-ln(tol)/2) + 1)
unless given.  The step is h = 0.8*(tol/|T_p|)**(1/p), with |T_p| the
largest last coefficient, halved until the last two terms times h**p and
h**(p-1) sum below tol.  With this order the step is about rho/e**2 for a
convergence radius rho (Jorba & Zou, Exp. Math. 14 (2005) 99-117), so the
number of steps no longer grows like tol**(-1/p) as it does at a fixed
order.  The squares sum X[i]*X[m-i] and sum Y[i]*Y[m-i] are formed from
their distinct products; this gives the same bits as the full sums, since
mpmath.fdot forms every product exactly and rounds the sum once.
This stepper is deliberately independent of the Laurent-series machinery
and of scalars.dot: it works on plain coefficient lists around regular
points and serves as the numeric cross-oracle for series evaluation.
"""

from __future__ import annotations

import mpmath
from mpmath import mp

from .errors import ContractViolation, SingularityApproach
from .model import PhaseState, PolynomialODESystem
from .scalars import Scalar, as_scalar

MIN_ORDER = 8
MAX_STEPS = 100000   # step budget of one integrate_numeric call


def check_tolerance(tol) -> Scalar:
    """tol as a Scalar; ContractViolation unless it is a finite real > 0."""
    tol = as_scalar(tol)
    value = tol.mpc().real
    if not tol.is_real() or not 0 < value < mpmath.inf:
        raise ContractViolation(
            f"tolerance must be a positive real number, got {tol!r}")
    return tol


def tolerance_order(tolv) -> int:
    """Taylor order max(8, ceil(-ln(tol)/2) + 1) for a tolerance tol > 0.

    Evaluated in mpmath, so tolerances below the float range work."""
    return max(MIN_ORDER, int(mpmath.ceil(-mpmath.log(tolv) / 2)) + 1)


def _cauchy_square(X, X2, m):
    """sum X[i]*X[m-i] over i = 0..m from its floor(m/2)+1 distinct products.

    X2[i] is 2*X[i], the weight of each off-diagonal pair; doubling is
    exact while X[i] carries no more bits than the working precision.  One
    fdot rounds the exact sum once, so this equals mp.fdot(X, X[m::-1]).
    """
    n = (m + 1) // 2            # off-diagonal pairs i < m - i
    a, b = X2[:n], X[m:m - n:-1]
    if m % 2 == 0:
        a.append(X[n])
        b.append(X[n])
    return mp.fdot(a, b)


def _taylor_coefficients(lam, C, x0, xt0, y0, yt0, order):
    """Taylor coefficients X[0..order], Y[0..order] of the local solution."""
    X = [x0, xt0]
    Y = [y0, yt0]
    X2 = [2 * x0, 2 * xt0]
    Y2 = [2 * y0, 2 * yt0]
    for m in range(order - 1):
        # Y[m::-1] is Y[m], ..., Y[0], the Cauchy partner of X[0], ..., X[m];
        # fdot stops at the shorter list
        cx = -lam * X[m] - 2 * mp.fdot(X, Y[m::-1])
        cy = -Y[m] - _cauchy_square(X, X2, m) + C * _cauchy_square(Y, Y2, m)
        denom = (m + 1) * (m + 2)
        X.append(cx / denom)
        Y.append(cy / denom)
        X2.append(2 * X[-1])
        Y2.append(2 * Y[-1])
    return X, Y


def _horner_pair(coeffs, h):
    """Value and first derivative of sum_m coeffs[m] * h^m at h."""
    value = mpmath.mpc(0)
    for m in range(len(coeffs) - 1, -1, -1):
        value = value * h + coeffs[m]
    deriv = mpmath.mpc(0)
    for m in range(len(coeffs) - 1, 0, -1):
        deriv = deriv * h + m * coeffs[m]
    return value, deriv


def integrate_numeric(sys: PolynomialODESystem, s0: PhaseState, t_end,
                      tol, order: int | None = None, center=0) -> PhaseState:
    """Integrate from s0.t to t_end along the real axis.

    The path must keep |t - center| >= tol**(1/4) away from the movable
    singularity at t = center (the expansion centre t0 of the series the
    state came from); violating that, or a collapsing step size, raises
    SingularityApproach.  Local error per step is held below tol, which
    must be a positive real.  The Taylor order defaults to
    tolerance_order(tol).
    """
    t_end = as_scalar(t_end)
    tol = check_tolerance(tol)
    center = as_scalar(center)
    if order is not None and order < MIN_ORDER:
        raise ContractViolation(f"integrator order must be >= {MIN_ORDER}")
    bits = max(v.precision for v in (s0.x, s0.xt, s0.y, s0.yt, s0.t, tol))
    with mp.workprec(bits + 20):
        lam = sys.lam.mpc(bits)
        C = sys.C.mpc(bits)
        t = s0.t.mpc(bits).real
        te = t_end.mpc(bits).real
        tolv = tol.mag()
        if order is None:
            order = tolerance_order(tolv)
        margin = tolv ** mpmath.mpf(0.25)
        tc = center.mpc(bits).real
        lo, hi = (t, te) if t <= te else (te, t)
        if lo < tc + margin and hi > tc - margin:
            raise SingularityApproach(
                f"path [{mpmath.nstr(lo, 8)}, {mpmath.nstr(hi, 8)}] comes within "
                f"tol**(1/4)={mpmath.nstr(margin, 8)} of the singularity at "
                f"t={mpmath.nstr(tc, 8)}"
            )
        x, xt = s0.x.mpc(bits), s0.xt.mpc(bits)
        y, yt = s0.y.mpc(bits), s0.yt.mpc(bits)
        direction = 1 if te >= t else -1
        steps = 0
        while (te - t) * direction > 0:
            if steps >= MAX_STEPS:
                raise SingularityApproach("step budget exhausted")
            steps += 1
            X, Y = _taylor_coefficients(lam, C, x, xt, y, yt, order)
            top = max(abs(X[-1]), abs(Y[-1]), mpmath.mpf(2) ** (-4 * bits))
            h_cap = abs(te - t)
            h_est = (tolv / top) ** (mpmath.mpf(1) / order)
            h_abs = min(h_cap, h_est * mpmath.mpf("0.8"))
            while True:
                err = (abs(X[-1]) + abs(Y[-1])) * h_abs ** order \
                    + (abs(X[-2]) + abs(Y[-2])) * h_abs ** (order - 1)
                if err <= tolv:
                    break
                h_abs = h_abs / 2
                if h_abs < mpmath.mpf(2) ** (-bits) * (1 + abs(t)):
                    raise SingularityApproach("step size underflow")
            h = direction * h_abs
            x, xt = _horner_pair(X, h)
            y, yt = _horner_pair(Y, h)
            t = t + h
        return PhaseState(
            x=Scalar.from_mpc(x, bits), xt=Scalar.from_mpc(xt, bits),
            y=Scalar.from_mpc(y, bits), yt=Scalar.from_mpc(yt, bits),
            t=Scalar.from_mpc(mpmath.mpc(t, 0), bits),
        )
