"""Truncated Puiseux/Laurent series with half-integer-capable exponents.

A series is a finite coefficient window on the exponent grid
``lead + i*step`` (step 1 or 1/2 in this package), centred at ``t0``.
Coefficients beyond the window are *unknown* unless the series is flagged
``complete``, in which case they are exactly zero (polynomial data such as
the t**-2 fixture).  Arithmetic tracks the guaranteed window: a product of
truncated series is only known through ``min(a.max + b.lead, b.max +
a.lead)``, sums through the smaller window, and so on.  That bookkeeping is
what lets residual checks state exactly which orders they verified.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat, zip_longest
from math import gcd, lcm, prod

from .errors import ContractViolation
from .scalars import (Scalar, ScaledInts, as_scalar, cauchy_sum,
                      exact_combination, exact_product, exact_value, nth_root,
                      rounded_sum)

_ZERO = Scalar.exact(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ContractViolation(f"exponent must be rational, got {type(x).__name__}")


def _gcd_frac(*fs: Fraction) -> Fraction:
    den = lcm(*(f.denominator for f in fs))
    return Fraction(gcd(*(f.numerator * (den // f.denominator) for f in fs)),
                    den)


class PuiseuxSeries:
    """Immutable truncated series sum_i coeffs[i] * (t - center)**(lead + i*step).

    Being immutable, a series keeps the powers and the derivative (one
    combine term) it forms, so a caller that asks for y**2 or y' again gets
    the same object, and the exact sums of its square, shared with combine.
    """

    __slots__ = ("lead", "step", "coeffs", "center", "complete", "_powers",
                 "_derivative", "_square")

    def __init__(self, lead, step, coeffs, center=None, complete=False):
        self.lead = _frac(lead)
        self.step = _frac(step)
        if self.step <= 0:
            raise ContractViolation("step must be positive")
        self.coeffs = tuple(as_scalar(c) for c in coeffs)
        self.center = as_scalar(center) if center is not None else _ZERO
        self.complete = bool(complete)
        self._powers = []           # _powers[i] is self**(i + 2)
        self._derivative = self._square = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(center=None) -> "PuiseuxSeries":
        return PuiseuxSeries(0, 1, (), center=center, complete=True)

    @staticmethod
    def constant(value, center=None) -> "PuiseuxSeries":
        value = as_scalar(value)
        if value.is_exact and value.is_zero():
            return PuiseuxSeries.zero(center)
        return PuiseuxSeries(0, 1, (value,), center=center, complete=True)

    # -- structure ------------------------------------------------------------

    @property
    def max_exp(self) -> Fraction | None:
        """Largest exponent with a known coefficient; None when complete."""
        if self.complete:
            return None
        return self.lead + (len(self.coeffs) - 1) * self.step

    def is_identically_zero(self) -> bool:
        """Complete with only exact zeros: a rounded zero may stand for a
        nonzero value below its rounding."""
        return self.complete and all(c.is_exact and c.is_zero()
                                     for c in self.coeffs)

    def _exponent_numerators(self):
        """(numerators, d): exponent i is numerators[i] / d, on ints."""
        d = lcm(self.lead.denominator, self.step.denominator)
        lead, step = int(self.lead * d), int(self.step * d)
        return range(lead, lead + len(self.coeffs) * step, step), d

    def exponents(self):
        nums, d = self._exponent_numerators()
        return [Fraction(n, d) for n in nums]

    def coefficient(self, exponent) -> Scalar | None:
        """Coefficient at an exponent; exact 0 off the grid inside the
        window, None when the exponent lies beyond the known window."""
        e = _frac(exponent)
        if self.coeffs:
            offset = (e - self.lead) / self.step
            if offset.denominator == 1 and 0 <= offset.numerator < len(self.coeffs):
                return self.coeffs[offset.numerator]
        if self.complete:
            return _ZERO
        me = self.max_exp
        if me is not None and e <= me:
            return _ZERO
        return None

    def normalized(self) -> "PuiseuxSeries":
        """Drop exact-zero leading coefficients (adjusting the lead)."""
        i = 0
        while i < len(self.coeffs) and self.coeffs[i].is_exact and self.coeffs[i].is_zero():
            i += 1
        if i == 0:
            return self
        if i == len(self.coeffs):
            if self.complete:
                return PuiseuxSeries.zero(self.center)
            return PuiseuxSeries(self.lead + i * self.step, self.step, (),
                                 center=self.center, complete=False)
        return PuiseuxSeries(self.lead + i * self.step, self.step,
                             self.coeffs[i:], center=self.center,
                             complete=self.complete)

    def truncate(self, max_exponent) -> "PuiseuxSeries":
        keep = max(0, (_frac(max_exponent) - self.lead) // self.step + 1)
        return PuiseuxSeries(self.lead, self.step, self.coeffs[:keep],
                             center=self.center, complete=False)

    # -- grid plumbing ----------------------------------------------------------

    def _check_center(self, center: Scalar):
        if not (self.center - center).is_zero():
            raise ContractViolation("series have different centers")

    def _on_grid(self, lead: Fraction, step: Fraction) -> list:
        """Coefficients on a finer/compatible grid ``lead + i*step``, exact
        zeros filling the grid points this series does not have."""
        return _placed(self.coeffs, self.lead, self.step, lead, step, _ZERO)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other, sign: int = 1):
        if isinstance(other, (int, Fraction, Scalar)):
            other = PuiseuxSeries.constant(other, self.center)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return combine([(1, self, 0), (sign, other, 0)], self.center)

    __radd__ = __add__

    def __neg__(self):
        return combine([(-1, self, 0)], self.center)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, scalar) -> "PuiseuxSeries":
        return combine([(as_scalar(scalar), self, 0)], self.center)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        lead, step, sums, complete = self._product(other)
        return PuiseuxSeries(lead, step, map(rounded_sum, sums),
                             center=self.center, complete=complete)

    __rmul__ = __mul__

    def _product(self, other: "PuiseuxSeries"):
        """(lead, step, sums, complete) of self*other: its window and the
        exact cauchy_sum of each coefficient in it, None for an exact zero."""
        if other is self and self._square is not None:
            return self._square
        self._check_center(other.center)
        if self.is_identically_zero() or other.is_identically_zero():
            return 0, 1, [], True
        lead = self.lead + other.lead
        if not self.coeffs or not other.coeffs:
            # a known-empty truncated window: nothing is known of the product
            return lead, 1, [], False
        step = _gcd_frac(self.step, other.step)
        cap = min((s.max_exp + o.lead for s, o in ((self, other), (other, self))
                   if s.max_exp is not None), default=None)
        a = self._on_grid(self.lead, step)
        b = a if other is self else other._on_grid(other.lead, step)
        # when both hold their terms that are not exact zeros only at
        # multiples of g, so does the product: convolve every g-th slot
        g = gcd(*(i for c in (a, b) for i, x in enumerate(c)
                  if not (x.is_exact and x.is_zero()))) or 1
        sa = ScaledInts(a[::g])
        sb = sa if b is a else ScaledInts(b[::g], sa.slope)
        if cap is None:
            # complete product: through the last term with no exact-zero
            # factor, the top set bits of the masks
            n = g * (sa.nz.bit_length() + sb.nz.bit_length() - 2)
        else:
            n = int((cap - lead) / step)
        sums = [None] * (n + 1)
        sums[::g] = [cauchy_sum(sa, sb, i) for i in range(n // g + 1)]
        if other is self:
            self._square = lead, step, sums, cap is None
        return lead, step, sums, cap is None

    def pow_int(self, exponent: int) -> "PuiseuxSeries":
        if exponent < 0:
            raise ContractViolation("negative powers not supported")
        if exponent == 0:
            return PuiseuxSeries.constant(1, self.center)
        if exponent == 1:
            return self
        powers = self._powers
        while len(powers) < exponent - 1:
            powers.append((powers[-1] if powers else self) * self)
        return powers[exponent - 2]

    def differentiate(self) -> "PuiseuxSeries":
        if self._derivative is None:
            self._derivative = combine([(1, self, 1)], self.center)
        return self._derivative

    # -- evaluation -----------------------------------------------------------------

    def evaluate(self, t, bits: int | None = None) -> Scalar:
        """Numeric value at t (principal branch for fractional powers)."""
        t = as_scalar(t)
        if not self.coeffs:
            return Scalar.exact(0)
        bits = bits or max(t.precision, max(c.precision for c in self.coeffs))
        u = t - self.center
        if u.is_zero():
            raise ContractViolation("evaluation at the expansion center")
        s = nth_root_power(u, self.step, bits)
        acc = Scalar.exact(0)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc * nth_root_power(u, self.lead, bits)

    def __repr__(self):
        parts = []
        for e, c in list(zip(self.exponents(), self.coeffs))[:6]:
            if not (c.is_exact and c.is_zero()):
                parts.append(f"{c!r}*t^{e}")
        tail = "" if len(self.coeffs) <= 6 else " + ..."
        status = "complete" if self.complete else f"O(t^{self.max_exp})"
        return f"PuiseuxSeries({' + '.join(parts) or '0'}{tail}; {status})"


def _placed(items, at: Fraction, step: Fraction, lead: Fraction,
            grid: Fraction, fill) -> list:
    """items, which sit at at + i*step, on the grid lead + j*grid, fill
    between them."""
    if not items:
        return []
    shift, ratio = (at - lead) / grid, step / grid
    if shift.denominator != 1 or ratio.denominator != 1:
        raise ContractViolation("incompatible exponent grids")
    shift, ratio = shift.numerator, ratio.numerator
    out = [fill] * (shift + (len(items) - 1) * ratio + 1)
    out[shift::ratio] = items
    return out


def combine(terms, center) -> PuiseuxSeries:
    """The sum of c*a*b over the terms (c, a, b), each coefficient one
    exact sum (exact_combination) rounded once (rounded_sum).  b is a
    series, whose product with a enters as its exact Cauchy sums, or an
    int d: c times the d-th derivative of a, exact exponent factors and
    all.  c is an int, a Fraction or a Scalar; a rounded c is an input,
    whose precision counts as the series coefficients' do.  The window
    is the one + and * give."""
    parts = []
    for c, a, b in terms:
        a._check_center(center)
        v = exact_value(c) if isinstance(c, Scalar) and not c.is_exact else None
        c = 1 if v else c.fraction() if isinstance(c, Scalar) else c
        if not c:
            continue
        if isinstance(b, PuiseuxSeries):
            lead, step, sums, complete = a._product(b)
            weights = repeat(c)
        else:
            nums, d = a._exponent_numerators()
            lead, step, complete = a.lead - b, a.step, a.complete
            # c times the exponent factors, an int for an int c (int weights
            # are cheaper); their denominator d**b joins each exact sum
            c = c.numerator if c.denominator == 1 else c
            sums = [u and (u[0], u[1] * d ** b, u[2], u[3])
                    for u in map(exact_value, a.coeffs)]
            weights = (c * prod(range(n, n - b * d, -d)) for n in nums) \
                if b else repeat(c)
        pairs = [(w, u if v is None else exact_product(v, u))
                 for w, u in zip(weights, sums)]
        if complete and not any(w and u is not None for w, u in pairs):
            continue            # identically zero: no say in the window
        parts.append((lead, step, pairs, complete))
    if not parts:
        return PuiseuxSeries.zero(center)
    step = _gcd_frac(*(p[1] for p in parts))
    lead = min(p[0] for p in parts)
    cols = list(zip_longest(*(_placed(pairs, at, s, lead, step, (0, None))
                              for at, s, pairs, _ in parts), fillvalue=(0, None)))
    caps = [at + (len(p) - 1) * s for at, s, p, complete in parts if not complete]
    if caps:
        del cols[max(0, (min(caps) - lead) // step + 1):]
        if not cols:
            # an empty window still ends at the cap: max_exp == lead - step
            lead = min(caps) + step
    return PuiseuxSeries(lead, step,
                         [rounded_sum(exact_combination(p)) for p in cols],
                         center=center, complete=not caps)


def nth_root_power(u: Scalar, exponent: Fraction, bits: int) -> Scalar:
    """u**exponent on the principal branch, exact for integer exponents on
    exact input."""
    exponent = _frac(exponent)
    if exponent.denominator == 1:
        return u ** exponent.numerator
    root = nth_root(u, exponent.denominator, 0)
    return root ** exponent.numerator
