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
from .series import PuiseuxSeries


def power_product(xs: PuiseuxSeries, ys: PuiseuxSeries, i, j):
    """xs^i * ys^j; a pure power is not multiplied by the constant 1."""
    if i == 0:
        return ys.pow_int(j)
    if j == 0:
        return xs.pow_int(i)
    return xs.pow_int(i) * ys.pow_int(j)


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

    def evaluate_series(self, xs: PuiseuxSeries, ys: PuiseuxSeries) -> PuiseuxSeries:
        acc = PuiseuxSeries.zero(xs.center)
        for (i, j), c in sorted(self.terms.items()):
            acc = acc + power_product(xs, ys, i, j).scale(c)
        return acc

    def partial(self, var: str) -> "BivariatePoly":
        out = {}
        for (i, j), c in self.terms.items():
            if var == "x" and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), Scalar.exact(0)) + c * i
            elif var == "y" and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), Scalar.exact(0)) + c * j
        return BivariatePoly(out)

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
        """y_tttt minus the right-hand side, as a truncated series."""
        y1 = ys.differentiate()
        y2 = y1.differentiate()
        y4 = y2.differentiate().differentiate()
        rhs = (
            (y2 * ys).scale(self.coeff_ytt_y)
            + y2.scale(self.coeff_ytt)
            + y1.pow_int(2).scale(self.coeff_yt2)
            + ys.pow_int(3).scale(self.coeff_y3)
            + ys.pow_int(2).scale(self.coeff_y2)
            + ys.scale(self.coeff_y)
            + PuiseuxSeries.constant(self.coeff_const, ys.center)
        )
        return y4 - rhs


def reduce_to_fourth_order(sys: PolynomialODESystem, H) -> FourthOrderForm:
    return FourthOrderForm(C=sys.C, lam=sys.lam, H=as_scalar(H))


def residual_of_series(sys: PolynomialODESystem, xs: PuiseuxSeries,
                       ys: PuiseuxSeries):
    """(x_tt - rhs1(x, y), y_tt - rhs2(x, y)) as truncated series.

    The returned series carry the guaranteed windows of the truncated
    arithmetic; a genuine local solution has every known coefficient of
    both residuals at the rounding floor.
    """
    rx = xs.differentiate().differentiate() - sys.rhs1.evaluate_series(xs, ys)
    ry = ys.differentiate().differentiate() - sys.rhs2.evaluate_series(xs, ys)
    return rx, ry


def energy_series(sys: PolynomialODESystem, xs: PuiseuxSeries,
                  ys: PuiseuxSeries) -> PuiseuxSeries:
    """Formal expansion of H(x(t), y(t)).

    For a true solution every nonconstant coefficient vanishes (to the
    rounding floor) and the constant term is the solution's energy.
    """
    half = Scalar.exact(1, 2)
    xt = xs.differentiate()
    yt = ys.differentiate()
    kinetic = (xt * xt + yt * yt).scale(half)
    return kinetic + potential(sys).evaluate_series(xs, ys)


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
