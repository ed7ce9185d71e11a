"""The generalized Henon-Heiles system and residual checks on series.

The canonical model is

    x_tt = -lambda*x - 2*x*y
    y_tt = -y - x**2 + C*y**2

with energy

    H = (x_t**2 + y_t**2 + lambda*x**2 + y**2)/2 + x**2*y - (C/3)*y**3.

The fourth-order reduction in y alone,

    y_tttt = (2C-8)*y_tt*y - (4*lambda+1)*y_tt + 2*(C+1)*y_t**2
             + (20C/3)*y**3 + (4*C*lambda-6)*y**2 - 4*lambda*y - 4*H,

is carried only as a residual-verification target for y-series.  A
system is formed from (C, lambda) alone, right-hand sides included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Scalar, as_scalar
from .series import PuiseuxSeries, combine


class BivariatePoly:
    """Sparse bivariate polynomial in (x, y) with Scalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {
            (int(i), int(j)): as_scalar(c)
            for (i, j), c in dict(terms).items()
            if not (as_scalar(c).is_exact and as_scalar(c).is_zero())
        }

    def evaluate(self, x, y) -> Scalar:
        x, y = as_scalar(x), as_scalar(y)
        acc = Scalar.exact(0)
        for (i, j), c in self.terms.items():
            acc = acc + c * x ** i * y ** j
        return acc

    def series_terms(self, xs: PuiseuxSeries, ys: PuiseuxSeries,
                     sign: int = 1) -> list:
        """combine's terms for sign times self at (xs, ys): x^i*y^j as the
        product of two powers, a lone power p >= 2 of v as v^(p-1)*v, so
        that one product enters unrounded (and x*x, y*y share their sums)."""
        out = []
        for (i, j), c in self.terms.items():
            p, v = (i, xs) if i else (j, ys)
            a, b = (xs.pow_int(i), ys.pow_int(j)) if i and j else \
                (v.pow_int(p - 1), v) if p > 1 else (v.pow_int(p), 0)
            out.append((c if sign > 0 else -c, a, b))
        return out

    def __repr__(self):
        return "BivariatePoly(" + ", ".join(
            f"x^{i} y^{j}: {c!r}" for (i, j), c in sorted(self.terms.items())
        ) + ")"


@dataclass(frozen=True)
class PhaseState:
    x: Scalar
    xt: Scalar
    y: Scalar
    yt: Scalar
    t: Scalar


class PolynomialODESystem:
    """The model at (lambda, C), its right-hand sides formed from them."""

    __slots__ = ("lam", "C", "rhs1", "rhs2")

    def __init__(self, lam: Scalar, C: Scalar):
        self.lam = lam
        self.C = C
        self.rhs1 = BivariatePoly({(1, 0): -lam, (1, 1): Scalar.exact(-2)})
        self.rhs2 = BivariatePoly({(0, 1): Scalar.exact(-1),
                                   (2, 0): Scalar.exact(-1), (0, 2): C})

    def rhs(self, x, y):
        return self.rhs1.evaluate(x, y), self.rhs2.evaluate(x, y)


def build_henon_heiles(C, lam) -> PolynomialODESystem:
    """Canonical system: rhs1 = -lam*x - 2*x*y, rhs2 = -y - x^2 + C*y^2."""
    return PolynomialODESystem(as_scalar(lam), as_scalar(C))


def potential(sys: PolynomialODESystem) -> BivariatePoly:
    """V(x, y) with rhs = -grad V; used by the gradient-form check."""
    half = Scalar.exact(1, 2)
    third = Scalar.exact(1, 3)
    return BivariatePoly({
        (2, 0): half * sys.lam,
        (0, 2): half,
        (2, 1): Scalar.exact(1),
        (0, 3): -third * sys.C,
    })


def energy(sys: PolynomialODESystem, s: PhaseState) -> Scalar:
    """H = (x_t^2 + y_t^2 + lam x^2 + y^2)/2 + x^2 y - (C/3) y^3."""
    half = Scalar.exact(1, 2)
    kinetic = half * (s.xt * s.xt + s.yt * s.yt)
    return kinetic + potential(sys).evaluate(s.x, s.y)


@dataclass(frozen=True)
class FourthOrderForm:
    """Coefficient carrier for the scalar fourth-order reduction."""

    C: Scalar
    lam: Scalar
    H: Scalar

    @property
    def coeff_ytt_y(self) -> Scalar:
        return Scalar.exact(2) * self.C - 8

    @property
    def coeff_ytt(self) -> Scalar:
        return -(Scalar.exact(4) * self.lam + 1)

    @property
    def coeff_yt2(self) -> Scalar:
        return Scalar.exact(2) * (self.C + 1)

    @property
    def coeff_y3(self) -> Scalar:
        return Scalar.exact(20, 3) * self.C

    @property
    def coeff_y2(self) -> Scalar:
        return Scalar.exact(4) * self.C * self.lam - 6

    @property
    def coeff_y(self) -> Scalar:
        return Scalar.exact(-4) * self.lam

    @property
    def coeff_const(self) -> Scalar:
        return Scalar.exact(-4) * self.H

    def residual_of_series(self, ys: PuiseuxSeries) -> PuiseuxSeries:
        """y_tttt minus the right-hand side, as a truncated series: y_tttt
        and y_tt from y's exponent factors, y_tt*y from y_tt rounded once."""
        y1, center = ys.differentiate(), ys.center
        y2 = combine([(1, ys, 2)], center)
        return combine([
            (1, ys, 4), (-self.coeff_ytt_y, y2, ys), (-self.coeff_ytt, ys, 2),
            (-self.coeff_yt2, y1, y1), (-self.coeff_y3, ys.pow_int(2), ys),
            (-self.coeff_y2, ys, ys), (-self.coeff_y, ys, 0),
            (-self.coeff_const, PuiseuxSeries.constant(1, center), 0)], center)


def reduce_to_fourth_order(sys: PolynomialODESystem, H) -> FourthOrderForm:
    return FourthOrderForm(C=sys.C, lam=sys.lam, H=as_scalar(H))


def residual_of_series(sys: PolynomialODESystem, xs: PuiseuxSeries,
                       ys: PuiseuxSeries):
    """(x_tt - rhs1(x, y), y_tt - rhs2(x, y)) as truncated series.

    The returned series carry the guaranteed windows of the truncated
    arithmetic; a genuine local solution has every known coefficient of
    both residuals at the rounding floor, each one exact sum rounded once.
    """
    rx = combine([(1, xs, 2)] + sys.rhs1.series_terms(xs, ys, -1), xs.center)
    ry = combine([(1, ys, 2)] + sys.rhs2.series_terms(xs, ys, -1), xs.center)
    return rx, ry


def energy_series(sys: PolynomialODESystem, xs: PuiseuxSeries,
                  ys: PuiseuxSeries) -> PuiseuxSeries:
    """Formal expansion of H(x(t), y(t)).

    For a true solution every nonconstant coefficient vanishes (to the
    rounding floor) and the constant term is the solution's energy; each
    coefficient is one exact sum over x, y, x', y', x**2, y**2, rounded once.
    """
    xt, yt = xs.differentiate(), ys.differentiate()
    half = Scalar.exact(1, 2)
    return combine([(half, xt, xt), (half, yt, yt)]
                   + potential(sys).series_terms(xs, ys), xs.center)


def state_from_series(xs: PuiseuxSeries, ys: PuiseuxSeries, t,
                      bits: int | None = None) -> PhaseState:
    """Evaluate a series pair and its derivatives into a phase state."""
    t = as_scalar(t)
    return PhaseState(
        x=xs.evaluate(t, bits),
        xt=xs.differentiate().evaluate(t, bits),
        y=ys.evaluate(t, bits),
        yt=ys.differentiate().evaluate(t, bits),
        t=t,
    )
