"""High-precision adaptive integration of the model equations.

The right-hand sides are polynomial, so each step expands the local
solution in a Taylor series whose coefficients follow from the Cauchy
product recurrences

    X[m+2] = (-lam*X[m] - 2*sum X[i]*Y[m-i]) / ((m+1)(m+2))
    Y[m+2] = (-Y[m] - sum X[i]*X[m-i] + C*sum Y[i]*Y[m-i]) / ((m+1)(m+2)).

A fixed order (default 20) with step-size control on the last retained
terms gives local errors below the requested tolerance at full working
precision.  This stepper is deliberately independent of the Laurent-series
machinery: it works on plain coefficient lists around regular points and
serves as the numeric cross-oracle for series evaluation.
"""

from __future__ import annotations

import mpmath
from mpmath import mp

from .errors import ContractViolation, SingularityApproach
from .model import PhaseState, PolynomialODESystem
from .scalars import Scalar, as_scalar

TAYLOR_ORDER = 20


def _taylor_coefficients(lam, C, x0, xt0, y0, yt0, order):
    X = [x0, xt0]
    Y = [y0, yt0]
    for m in range(order - 1):
        # X[m::-1] is X[m], ..., X[0], the Cauchy partner of X[0], ..., X[m];
        # fdot stops at the shorter list
        cx = -lam * X[m] - 2 * mp.fdot(X, Y[m::-1])
        cy = -Y[m] - mp.fdot(X, X[m::-1]) + C * mp.fdot(Y, Y[m::-1])
        denom = (m + 1) * (m + 2)
        X.append(cx / denom)
        Y.append(cy / denom)
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
                      tol, order: int = TAYLOR_ORDER,
                      max_steps: int = 100000, center=0) -> PhaseState:
    """Integrate from s0.t to t_end along the real axis.

    The path must keep |t - center| >= tol**(1/4) away from the movable
    singularity at t = center (the expansion centre t0 of the series the
    state came from); violating that, or a collapsing step size, raises
    SingularityApproach.  Local error per step is held below tol.
    """
    t_end = as_scalar(t_end)
    tol = as_scalar(tol)
    center = as_scalar(center)
    if order < 8:
        raise ContractViolation("integrator order must be >= 8")
    bits = max(s0.x.precision, s0.t.precision, tol.precision)
    with mp.workprec(bits + 20):
        lam = sys.lam.mpc(bits)
        C = sys.C.mpc(bits)
        t = s0.t.mpc(bits).real
        te = t_end.mpc(bits).real
        tolv = tol.mag()
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
            if steps >= max_steps:
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
