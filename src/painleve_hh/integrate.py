"""High-precision adaptive integration of the model equations.

The right-hand sides are polynomial, so each step expands the local
solution in a Taylor series whose coefficients follow from the Cauchy
product recurrences

    X[m+2] = (-lam*X[m] - 2*sum X[i]*Y[m-i]) / ((m+1)(m+2))
    Y[m+2] = (-Y[m] - sum X[i]*X[m-i] + C*sum Y[i]*Y[m-i]) / ((m+1)(m+2)).

The order is p = max(8, ceil(-ln(tol)/2) + 1) unless given.  The step is
h = 0.8*(tol/|T_p|)**(1/p), with |T_p| the largest last coefficient,
halved until the last two terms times h**p and h**(p-1) sum below tol:
about rho/e**2 for a convergence radius rho (Jorba & Zou, Exp. Math. 14
(2005) 99-117).  As they do, a step scales the Taylor variable by sigma =
2**e, the least power of two >= min(distance left, twice the last step),
and redoes the block at a larger sigma if the step exceeds it, so
X[m]*sigma**m stays O(1) and |h/sigma| <= 1.  The real and imaginary
parts of X[m]*sigma**m and Y[m]*sigma**m are Python ints at 2**-P, with
P = bits + 20 + 32 guard bits above the step's largest component (x, y,
xt*sigma, yt*sigma), so a state of size 1e-100 keeps its bits; real data
carries no imaginary parts.  Each Cauchy sum is exact, a square from its
distinct products: 2*X*Y = (X + Y)**2 - X**2 - Y**2 (polarization), and a
complex square's 2*re*im = (re + im)**2 - re**2 - im**2 (Gauss's
three-product complex multiplication, Knuth, TAOCP vol. 2, 4.6.4).  The
divide by (m+1)(m+2) and the scale is each coefficient's only rounding, a
Horner product's is a shift: to nearest, ties to even, so symmetric in
sign.  The step is chosen from the last two coefficients read as mpf at
bits + 20, and the end state is rounded to the data's bits.  This stepper
is deliberately independent of the Laurent-series machinery
(scalars.cauchy_sum and series.combine): it is the numeric cross-oracle for
series evaluation.
"""

from __future__ import annotations

from operator import add, mul

import mpmath
from mpmath import mp

from .errors import ContractViolation, SingularityApproach
from .model import PhaseState, PolynomialODESystem
from .scalars import Scalar, as_scalar

MIN_ORDER = 8
MAX_STEPS = 100000   # step budget of one integrate_numeric call
GUARD_BITS = 32      # fixed-point bits beyond the working bits + 20


def check_tolerance(tol) -> Scalar:
    """tol as a Scalar; ContractViolation unless it is a real > 0."""
    tol = as_scalar(tol)
    if not tol.is_real() or not tol.mpc().real > 0:
        raise ContractViolation(
            f"tolerance must be a positive real number, got {tol!r}")
    return tol


def tolerance_order(tolv) -> int:
    """Taylor order max(8, ceil(-ln(tol)/2) + 1) for a tolerance tol > 0.

    Evaluated in mpmath, so tolerances below the float range work."""
    return max(MIN_ORDER, int(mpmath.ceil(-mpmath.log(tolv) / 2)) + 1)


def _quotient(n, k, s):
    """n * 2**s / k rounded to the nearest int, ties to even (k > 0)."""
    n, k = (n << s, k) if s >= 0 else (n, k << -s)
    q, r = divmod(n, k)
    return q + 1 if 2 * r > k or (2 * r == k and q & 1) else q


def _shifted(n, k):
    """_quotient(n, 1, -k) for k >= 0, the divide by 2**k done by shifts."""
    return (n + (1 << k - 1) - 1 + (n >> k & 1)) >> k if k else n


def _squared(z, m):
    """Parts of sum z[i]*z[m-i] for parts [re] or [re, im, re + im], each
    square from its floor(m/2)+1 distinct products; the imaginary part
    2*sum re[i]*im[m-i] is (re + im)**2 - re**2 - im**2."""
    n = (m + 1) // 2            # off-diagonal pairs i < m - i
    sq = [(sum(map(mul, p[:n], p[m:m - n:-1])) << 1)
          + (p[n] * p[n] if m % 2 == 0 else 0) for p in z]
    return sq if len(sq) == 1 else [sq[0] - sq[1], sq[2] - sq[0] - sq[1]]


def _times(a, b):
    """Parts of a*b for numbers given as parts [re] or [re, im]."""
    if len(a) == 1:
        return [a[0] * b[0]]
    return [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]


def _taylor_coefficients(lam, C, x0, xt0, y0, yt0, P, e, order):
    """Taylor coefficients of the local solution in the variable scaled by
    2**e: X[p][m] is part p (re, im) of X[m]*2**(e*m), an int at 2**-P.
    Each argument is a list of parts at 2**-P; xt0 and yt0 come scaled."""
    X = [list(p) for p in zip(x0, xt0)]
    Y = [list(p) for p in zip(y0, yt0)]
    for Z in (X, Y) if len(X) == 2 else ():     # complex: re + im as well
        Z.append(list(map(add, *Z)))
    S = [list(map(add, p, q)) for p, q in zip(X, Y)]           # X + Y
    for m in range(order - 1):
        k = (m + 1) * (m + 2)
        xx, yy, ss = _squared(X, m), _squared(Y, m), _squared(S, m)
        # numerators at 2**-2P and 2**-3P, one rounded quotient each; the
        # x one is -lam*X[m] - 2*X*Y with 2*X*Y = S*S - X*X - Y*Y
        x = [_quotient(c + d - a - s, k, 2 * e - P) for a, s, c, d
             in zip(_times(lam, [p[m] for p in X]), ss, xx, yy)]
        y = [_quotient((((-p[m] << P) - c) << P) + d, k, 2 * e - 2 * P)
             for p, c, d in zip(Y, xx, _times(C, yy))]
        for Z, v in ((X, x), (Y, y), (S, list(map(add, x, y)))):
            for p, c in zip(Z, v + [sum(v)]):   # re + im: complex data only
                p.append(c)
    return X[:len(x0)], Y[:len(y0)]


def _horner(a, U, k):
    """Value and derivative of sum a[m]*u**m at u = U*2**-k, each product
    rounded to the scale of a."""
    value, deriv = a[-1], 0
    for m in range(len(a) - 1, 0, -1):
        deriv = _shifted(deriv * U, k) + m * a[m]
        value = _shifted(value * U, k) + a[m - 1]
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
        values = (sys.lam, sys.C, s0.x, s0.xt, s0.y, s0.yt)
        parts = 1 if all(v.is_real() for v in values) else 2
        # every number as exact dyadic parts (n, exp), each n * 2**exp
        lam, C, *state = [[(-man if sign else man, exp)
                           for sign, man, exp, _ in v.mpc(bits)._mpc_[:parts]]
                          for v in values]
        direction = 1 if te >= t else -1
        steps, h_prev = 0, None
        while (te - t) * direction > 0:
            if steps >= MAX_STEPS:
                raise SingularityApproach("step budget exhausted")
            steps += 1
            h_cap = abs(te - t)
            h_abs, sigma = min(h_cap, 2 * (h_prev or h_cap)), 0
            while h_abs > sigma:
                frac, e = mpmath.frexp(h_abs)
                e -= frac == 0.5        # the least 2**e >= h_abs
                sigma = mpmath.ldexp(1, e)
                # x, xt*sigma, y, yt*sigma at 2**-P: P against the largest
                scaled = [[(n, exp + e * (i % 2)) for n, exp in v]
                          for i, v in enumerate(state)]
                P = max(bits + 20 + GUARD_BITS - max(
                    (n.bit_length() + exp for v in scaled for n, exp in v
                     if n), default=0), 0)
                X, Y = _taylor_coefficients(*(
                    [_quotient(n, 1, exp + P) for n, exp in v]
                    for v in (lam, C, *scaled)), P, e, order)
                last, prev = ([abs(mpmath.mpc(*(mpmath.ldexp(p[m], -P - e * m)
                                                for p in Z))) for Z in (X, Y)]
                              for m in (order, order - 1))
                top = max(*last, mpmath.mpf(2) ** (-4 * bits))
                h_est = (tolv / top) ** (mpmath.mpf(1) / order)
                h_abs = min(h_cap, h_est * mpmath.mpf("0.8"))
                while sum(last) * h_abs ** order \
                        + sum(prev) * h_abs ** (order - 1) > tolv:
                    h_abs = h_abs / 2
                    if h_abs < mpmath.mpf(2) ** (-bits) * (1 + abs(t)):
                        raise SingularityApproach("step size underflow")
            # u = direction * h_abs / sigma = U * 2**-k, |u| <= 1
            _, man, exp, _ = h_abs._mpf_
            U, k = direction * man << max(exp - e, 0), max(e - exp, 0)
            state = [[(v[i], -P - e * i) for v in z] for z in
                     ([_horner(p, U, k) for p in Z] for Z in (X, Y))
                     for i in (0, 1)]
            t = t + direction * h_abs
            h_prev = h_abs
        x, xt, y, yt = (Scalar.from_mpc(mpmath.mpc(*(
            mpmath.ldexp(n, exp) for n, exp in v)), bits) for v in state)
        return PhaseState(x=x, xt=xt, y=y, yt=yt,
                          t=Scalar.from_mpc(mpmath.mpc(t, 0), bits))
