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
system is (C, lambda) alone; each function below writes out its formula.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Scalar, as_scalar
from .series import PuiseuxSeries, combine


@dataclass(frozen=True)
class PhaseState:
    x: Scalar
    xt: Scalar
    y: Scalar
    yt: Scalar
    t: Scalar


class PolynomialODESystem:
    """The model at (lambda, C)."""

    __slots__ = ("lam", "C")

    def __init__(self, lam: Scalar, C: Scalar):
        self.lam = lam
        self.C = C

    def rhs(self, x, y):
        """(x_tt, y_tt) = (-lam*x - 2*x*y, -y - x**2 + C*y**2)."""
        return -self.lam * x - 2 * x * y, -y - x ** 2 + self.C * y ** 2


def build_henon_heiles(C, lam) -> PolynomialODESystem:
    return PolynomialODESystem(as_scalar(lam), as_scalar(C))


def energy(sys: PolynomialODESystem, s: PhaseState) -> Scalar:
    """H = (x_t^2 + y_t^2 + lam x^2 + y^2)/2 + x^2 y - (C/3) y^3."""
    half = Scalar.exact(1, 2)
    return half * (s.xt * s.xt + s.yt * s.yt) + (
        half * sys.lam * s.x ** 2 + half * s.y ** 2 + s.x ** 2 * s.y
        - Scalar.exact(1, 3) * sys.C * s.y ** 3)


@dataclass(frozen=True)
class FourthOrderForm:
    """The scalar fourth-order reduction at (C, lambda, H)."""

    C: Scalar
    lam: Scalar
    H: Scalar

    def residual_of_series(self, ys: PuiseuxSeries) -> PuiseuxSeries:
        """y_tttt minus the right-hand side, as a truncated series: y_tttt
        and y_tt from y's exponent factors, y_tt*y from y_tt rounded once."""
        C, lam, y1, center = self.C, self.lam, ys.differentiate(), ys.center
        y2 = combine([(1, ys, 2)], center)
        return combine([
            (1, ys, 4), (-(2 * C - 8), y2, ys), (4 * lam + 1, ys, 2),
            (-2 * (C + 1), y1, y1),
            (-(Scalar.exact(20, 3) * C), ys.pow_int(2), ys),
            (-(4 * C * lam - 6), ys, ys), (4 * lam, ys, 0),
            (4 * self.H, PuiseuxSeries.constant(1, center), 0)], center)


def reduce_to_fourth_order(sys: PolynomialODESystem, H) -> FourthOrderForm:
    return FourthOrderForm(C=sys.C, lam=sys.lam, H=as_scalar(H))


def residual_of_series(sys: PolynomialODESystem, xs: PuiseuxSeries,
                       ys: PuiseuxSeries):
    """(x_tt + lam*x + 2*x*y, y_tt + y + x**2 - C*y**2) as truncated series.

    The returned series carry the guaranteed windows of the truncated
    arithmetic; a genuine local solution has every known coefficient of
    both residuals at the rounding floor, each one exact sum rounded once.
    """
    rx = combine([(1, xs, 2), (sys.lam, xs, 0), (2, xs, ys)], xs.center)
    ry = combine([(1, ys, 2), (1, ys, 0), (1, xs, xs), (-sys.C, ys, ys)],
                 xs.center)
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
    return combine([(half, xt, xt), (half, yt, yt), (half * sys.lam, xs, xs),
                    (half, ys, ys), (1, xs.pow_int(2), ys),
                    (-Scalar.exact(1, 3) * sys.C, ys.pow_int(2), ys)],
                   xs.center)


def state_from_series(xs: PuiseuxSeries, ys: PuiseuxSeries, t) -> PhaseState:
    """Evaluate a series pair and its derivatives into a phase state."""
    t = as_scalar(t)
    return PhaseState(
        x=xs.evaluate(t),
        xt=xs.differentiate().evaluate(t),
        y=ys.evaluate(t),
        yt=ys.differentiate().evaluate(t),
        t=t,
    )
