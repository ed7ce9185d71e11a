"""Arbitrary-precision scalars with an exact-rational fast path.

Every coefficient, parameter and matrix entry in this package is a
:class:`Scalar`.  A Scalar is either

* an *exact* real rational, stored as a ``fractions.Fraction`` in lowest
  terms with positive denominator, or
* a *rounded* complex big-float, stored as the raw ``mpmath.libmp`` mpc
  tuple ``(re_mpf, im_mpf)`` together with the working precision in bits
  at which it was produced.  :meth:`Scalar.mpc` wraps it for mpmath.

Arithmetic between two exact values stays exact.  As soon as a rounded
value enters, or an inexact function is applied (a root of a non-perfect
power, say), the result is rounded at the working precision.  Multiplying
by an exact zero annihilates to an exact zero, which keeps structurally
zero matrix entries exact even next to big-float data.

Sums of products go through :func:`dot`, which keeps an all-exact sum
exact and otherwise rounds the exact sum once; every coefficient of a
series convolution is one :func:`cauchy` call on top of it, which sums
each distinct product of a square once.
No arithmetic operation of a Scalar reads or sets mpmath's global
precision: each one calls ``mpmath.libmp`` on the raw tuples with its own
bits and round-to-nearest, so the ambient ``mp.prec`` never changes a
result.

Working precision is at least 64 bits and defaults to 256; the default can
be overridden through the ``PAINLEVE_PRECISION_BITS`` environment variable
or :func:`set_default_precision`.
"""

from __future__ import annotations

import math
import operator
import os
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import (fzero, from_rational, mpc_abs, mpc_add, mpc_div,
                          mpc_mul, mpc_neg, mpc_pow_int, mpf_neg, mpf_pos,
                          mpf_shift, round_nearest, to_rational)

from .errors import ContractViolation

MIN_PRECISION = 64
_DEFAULT_PRECISION = 256


def _checked_precision(bits) -> int:
    """bits as an int, or ContractViolation if it is not one >= MIN_PRECISION."""
    try:
        value = int(bits)
    except ValueError:
        value = None
    if value is None or value < MIN_PRECISION:
        raise ContractViolation(f"precision must be >= {MIN_PRECISION} bits, got {bits}")
    return value


def env_precision() -> int | None:
    """PAINLEVE_PRECISION_BITS as validated bits; None when unset or empty."""
    raw = os.environ.get("PAINLEVE_PRECISION_BITS")
    return _checked_precision(raw) if raw else None


def _initial_precision() -> int:
    # importing the library never fails on a bad setting: it keeps the
    # built-in default, and the command line rejects the setting
    try:
        return env_precision() or _DEFAULT_PRECISION
    except ContractViolation:
        return _DEFAULT_PRECISION


_default_precision = _initial_precision()


def default_precision() -> int:
    """Current default working precision in bits."""
    return _default_precision


def set_default_precision(bits: int) -> int:
    """Set the default working precision; returns the previous value."""
    global _default_precision
    previous = _default_precision
    _default_precision = _checked_precision(bits)
    return previous


def _fraction_to_mpf(q: Fraction, bits: int):
    """q as a raw mpf, rounded once, to nearest, at bits."""
    return from_rational(q.numerator, q.denominator, bits, round_nearest)


def _int_nth_root(n: int, k: int):
    """Floor k-th root of a nonnegative int, plus an exactness flag."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return n, True
    r = int(round(n ** (1.0 / k))) if n.bit_length() < 500 else 1 << (n.bit_length() // k + 1)
    # Newton refinement on integers; converges in a handful of steps.
    r = max(r, 1)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r, r ** k == n


class Scalar:
    """Immutable exact-rational / rounded-complex number."""

    __slots__ = ("_frac", "_val", "_prec")

    def __init__(self, frac, val, prec):
        self._frac = frac      # Fraction | None
        self._val = val        # raw libmp mpc tuple | None
        self._prec = prec      # int, bits

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(numerator, denominator=1, bits: int | None = None) -> "Scalar":
        return Scalar(Fraction(numerator, denominator), None,
                      max(bits or _default_precision, MIN_PRECISION))

    def with_precision(self, bits: int) -> "Scalar":
        if bits < MIN_PRECISION:
            raise ContractViolation(f"precision must be >= {MIN_PRECISION} bits")
        if self._frac is not None:
            return Scalar(self._frac, None, bits)
        return Scalar(None, self._val, bits)

    @staticmethod
    def from_complex(re, im, bits: int | None = None) -> "Scalar":
        """Rounded scalar re + i*im, each part an int, float, string or mpf
        rounded to nearest at bits."""
        bits = max(bits or _default_precision, MIN_PRECISION)
        with mp.workprec(bits):
            return Scalar(None, (mpmath.mpf(re)._mpf_, mpmath.mpf(im)._mpf_), bits)

    @staticmethod
    def from_real(value, bits: int | None = None) -> "Scalar":
        """Rounded real scalar from an int, float, string or mpf."""
        return Scalar.from_complex(value, 0, bits)

    @staticmethod
    def from_mpc(value, bits: int) -> "Scalar":
        return Scalar.from_complex(value.real, value.imag, bits)

    # -- basic predicates ---------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._frac is not None

    @property
    def precision(self) -> int:
        return self._prec

    def is_zero(self) -> bool:
        """Literal zero test (no tolerance; callers own thresholds)."""
        if self._frac is not None:
            return self._frac == 0
        return self._val == (fzero, fzero)

    def is_real(self) -> bool:
        return self._frac is not None or self._val[1] == fzero

    # -- accessors -----------------------------------------------------------

    def fraction(self) -> Fraction:
        if self._frac is None:
            raise ContractViolation("scalar is not an exact rational")
        return self._frac

    def mpc(self, bits: int | None = None):
        """Value as an mpmath.mpc.  An exact value is rounded at ``bits``
        (default: own precision); a rounded value wraps the stored tuple."""
        return mp.make_mpc(self._raw(bits or self._prec))

    def _raw(self, bits: int):
        """Value as a raw mpc tuple; only an exact value is rounded, at bits."""
        if self._frac is not None:
            return _fraction_to_mpf(self._frac, bits), fzero
        return self._val

    def real(self) -> "Scalar":
        if self._frac is not None:
            return self
        return Scalar(None, (mpf_pos(self._val[0], self._prec, round_nearest),
                             fzero), self._prec)

    def imag(self) -> "Scalar":
        if self._frac is not None:
            return Scalar(Fraction(0), None, self._prec)
        return Scalar(None, (mpf_pos(self._val[1], self._prec, round_nearest),
                             fzero), self._prec)

    def conjugate(self) -> "Scalar":
        if self._frac is not None:
            return self
        re, im = self._val
        return Scalar(None, (mpf_pos(re, self._prec, round_nearest),
                             mpf_neg(im, self._prec, round_nearest)), self._prec)

    def magnitude(self) -> "Scalar":
        """|self| as a Scalar (exact for exact input)."""
        if self._frac is not None:
            return Scalar(abs(self._frac), None, self._prec)
        return Scalar(None, (mpc_abs(self._val, self._prec, round_nearest),
                             fzero), self._prec)

    def mag(self):
        """|self| as an mpf at own precision (for thresholds and sorting)."""
        if self._frac is not None:
            return mp.make_mpf(_fraction_to_mpf(abs(self._frac), self._prec))
        return mp.make_mpf(mpc_abs(self._val, self._prec, round_nearest))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, (Scalar, int, Fraction, float)):
            return as_scalar(other)
        return NotImplemented

    def _binary(self, other, exact_op, rounded_op):
        """exact_op on two Fractions, else the libmpc rounded_op at the wider
        precision (other is already coerced)."""
        bits = self._prec if self._prec > other._prec else other._prec
        if self._frac is not None and other._frac is not None:
            return Scalar(exact_op(self._frac, other._frac), None, bits)
        return Scalar(None, rounded_op(self._raw(bits), other._raw(bits), bits,
                                       round_nearest), bits)

    def __add__(self, other):
        s = Scalar._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        if self._frac == 0 and self._frac is not None:
            return s
        if s._frac == 0 and s._frac is not None:
            return self
        return self._binary(s, operator.add, mpc_add)

    __radd__ = __add__

    def __sub__(self, other):
        s = Scalar._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        return self + (-s)

    def __rsub__(self, other):
        s = Scalar._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        return s + (-self)

    def __mul__(self, other):
        s = Scalar._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        # exact zero annihilates: keeps structural zeros exact next to floats
        if (self._frac is not None and self._frac == 0) or (
            s._frac is not None and s._frac == 0
        ):
            return Scalar(Fraction(0), None, max(self._prec, s._prec))
        return self._binary(s, operator.mul, mpc_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        s = Scalar._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        if s.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self._frac is not None and self._frac == 0:
            return Scalar(Fraction(0), None, max(self._prec, s._prec))
        return self._binary(s, operator.truediv, mpc_div)

    def __rtruediv__(self, other):
        s = Scalar._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        return s / self

    def __neg__(self):
        if self._frac is not None:
            return Scalar(-self._frac, None, self._prec)
        return Scalar(None, mpc_neg(self._val, self._prec, round_nearest),
                      self._prec)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if self._frac is not None:
            if exponent < 0 and self._frac == 0:
                raise ZeroDivisionError("0 ** negative")
            return Scalar(self._frac ** exponent, None, self._prec)
        return Scalar(None, mpc_pow_int(self._val, exponent, self._prec,
                                        round_nearest), self._prec)

    def __abs__(self):
        return self.magnitude()

    def __eq__(self, other):
        s = Scalar._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        if self._frac is None and s._frac is None:
            # mpmath's value semantics: nan != nan
            return mp.make_mpc(self._val) == mp.make_mpc(s._val)
        # an exact scalar equals a rounded one only at the same dyadic value
        return self._rational() == s._rational()

    def _rational(self):
        """The exact value as a Fraction, or None if it is not a finite real."""
        if self._frac is not None:
            return self._frac
        re, im = self._val
        if im != fzero or not re[1] and re != fzero:      # complex or non-finite
            return None
        return Fraction(*to_rational(re))

    def __hash__(self):
        # Python's numeric hash of the exact value (hash(mpc) differs from
        # it, e.g. at -1); non-real values hash their normalised mpf parts
        q = self._rational()
        return hash(q) if q is not None else hash(self._val)

    def __repr__(self):
        if self._frac is not None:
            return f"Scalar({self._frac})"
        with mp.workprec(min(self._prec, 64)):
            return f"Scalar({mpmath.nstr(self.mpc(), 12)}@{self._prec}b)"

    # -- roots ---------------------------------------------------------------

    def sqrt(self) -> "Scalar":
        return nth_root(self, 2, 0)


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions, floats, strings and Scalars to Scalar."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(Fraction(value), None, _default_precision)
    if isinstance(value, (float, str)) or isinstance(value, mpmath.mpf):
        return Scalar.from_real(value)
    if isinstance(value, mpmath.mpc):
        return Scalar.from_mpc(value, _default_precision)
    raise ContractViolation(f"cannot coerce {type(value).__name__} to Scalar")


def nth_root(x, n: int, branch: int = 0) -> Scalar:
    """Return r with r**n == x to working precision.

    Branch 0 is the principal root (argument in (-pi/n, pi/n]); branch k
    multiplies the principal root by the k-th n-th root of unity.  The root
    of an exact nonnegative rational that is a perfect n-th power stays
    exact on branch 0; nth_root(0, n, b) == 0 for every branch.
    """
    x = as_scalar(x)
    if n < 1:
        raise ContractViolation(f"root order must be >= 1, got {n}")
    if not 0 <= branch < n:
        raise ContractViolation(f"branch must be in [0, {n}), got {branch}")
    if x.is_zero():
        return Scalar(Fraction(0), None, x.precision)
    if x.is_exact:
        q = x.fraction()
        if q > 0:
            rn, exact_n = _int_nth_root(q.numerator, n)
            rd, exact_d = _int_nth_root(q.denominator, n)
            if exact_n and exact_d and branch == 0:
                return Scalar(Fraction(rn, rd), None, x.precision)
    bits = x.precision
    with mp.workprec(bits):
        principal = x.mpc(bits) ** (mpmath.mpf(1) / n)
        if branch:
            # cospi/sinpi hit exact values at quarter turns
            rot = mpmath.mpc(mpmath.cospi(mpmath.mpf(2 * branch) / n),
                             mpmath.sinpi(mpmath.mpf(2 * branch) / n))
            principal = principal * rot
        if principal.imag == 0 and x.is_real():
            principal = mpmath.mpc(principal.real, 0)
    return Scalar(None, principal._mpc_, bits)


def _rounded_sum(terms, bits: int):
    """The (numerator, denominator, exponent) terms' exact sum, rounded
    once to nearest at bits, as a raw mpf."""
    den = math.lcm(*{d for _, d, _ in terms})
    exps = [e for _, _, e in terms]
    low = min(exps)
    if max(exps) - low > 4 * bits:      # exact * rounded products reach 2*bits
        # Sum down the exponents in groups, each starting gap bits under the
        # nonzero sum of the one before: all after the first group stays
        # under half an ulp of the result, so only its sign can count.
        terms = sorted(((e, n * (den // d)) for n, d, e in terms), reverse=True)
        gap = (bits + den.bit_length() + len(terms).bit_length() + 2
               + max(m.bit_length() for _, m in terms))
        first, num = None, 0
        for e, m in terms:
            if num and e < low - gap:
                if first:
                    break
                first, num = (num, low), 0
            num, low = ((num << (low - e)) + m, e) if num else (m, e)
        if first:
            num, low = (first[0] << gap) + (num > 0) - (num < 0), first[1] - gap
    elif den == 1:
        num = sum(n << (e - low) for n, _, e in terms)
    else:
        num = sum(n * (den // d) << (e - low) for n, d, e in terms)
    return mpf_shift(from_rational(num, den, bits, round_nearest), low)


def dot(a, b) -> Scalar:
    """sum_i a[i]*b[i] over two equal-length sequences of Scalars.

    Terms with an exact-zero factor are skipped, so a sum with no other
    term is an exact zero.  Every other product is formed exactly, as
    integers n * 2**e / d.  When every remaining term is exact the result
    is their exact Fraction sum; otherwise it is the exact sum rounded
    once, to nearest, at the highest precision of the remaining factors,
    however far apart the exponents of the terms are.  Imaginary parts are
    only carried when some factor has a nonzero one.  A non-finite factor
    raises ContractViolation.
    """
    return _dot(((a, b, 0),))


def _dot(groups) -> Scalar:
    """dot of the sum of 2**twice * a[i] * b[i] over the (a, b, twice)
    groups; a doubled term is formed as one term, not two."""
    re, im = [], []      # (numerator, denominator, exponent) terms
    bits, rounded = 0, False
    for a, b, twice in groups:
        for x, y in zip(a, b):
            if x._frac is None and y._frac is not None:
                x, y = y, x
            q, r = x._frac, y._frac
            if q is not None:
                if not q or r is not None and not r:
                    continue
                if r is not None:
                    # the all-exact sum ignores the exponent: double the numerator
                    re.append((q.numerator * r.numerator << twice,
                               q.denominator * r.denominator, 0))
                else:
                    rounded = True
                    n, d = q.numerator, q.denominator
                    for u, terms in zip(y._val, (re, im)):
                        if u[1]:
                            terms.append((-n * u[1] if u[0] else n * u[1], d,
                                          u[2] + twice))
                        elif u[3] < 0:
                            raise ContractViolation("dot of a non-finite scalar")
            else:
                rounded = True
                xr, xi = x._val
                yr, yi = y._val
                if xi[3] or yi[3]:
                    # (xr + i xi)(yr + i yi); the i*i part enters negated
                    for u, v, terms, neg in ((xr, yr, re, 0), (xi, yi, re, 1),
                                             (xr, yi, im, 0), (xi, yr, im, 0)):
                        m = u[1] * v[1]
                        if m:
                            terms.append((-m if u[0] ^ v[0] ^ neg else m, 1,
                                          u[2] + v[2] + twice))
                        elif u[3] < 0 or v[3] < 0:
                            raise ContractViolation("dot of a non-finite scalar")
                else:
                    m = xr[1] * yr[1]
                    if m:
                        re.append((-m if xr[0] ^ yr[0] else m, 1,
                                   xr[2] + yr[2] + twice))
                    elif xr[3] < 0 or yr[3] < 0:
                        raise ContractViolation("dot of a non-finite scalar")
            p = x._prec if x._prec > y._prec else y._prec
            if p > bits:
                bits = p
    if not rounded:
        den = math.lcm(*{d for _, d, _ in re})
        # bits is still 0 when no term was left
        return Scalar(Fraction(sum(n * (den // d) for n, d, _ in re), den),
                      None, bits or _default_precision)
    return Scalar(None, (_rounded_sum(re, bits) if re else fzero,
                         _rounded_sum(im, bits) if im else fzero), bits)


def cauchy(a, b, n: int) -> Scalar:
    """Coefficient n of the product of the coefficient lists a and b: the
    dot of a[j] and b[n - j] over every j where both exist, an exact zero
    when there is none.  A square (a is b) takes each pair j < n - j once
    and doubles its term inside the sum, then adds the middle term.  dot
    rounds the exact sum once, so the bits depend neither on the order of
    the terms nor on the folding."""
    lo, hi = max(0, n - len(b) + 1), min(n, len(a) - 1)
    if hi < lo:
        return Scalar.exact(0)
    if a is not b:
        return dot(a[lo:hi + 1], reversed(b[n - hi:n - lo + 1]))
    half = (n + 1) // 2
    mid = a[half:n - half + 1]      # a[n // 2] when n is even, else empty
    return _dot(((a[lo:half], reversed(a[n - half + 1:n - lo + 1]), 1),
                 (mid, mid, 0)))


def half_precision_tol(bits: int) -> "mpmath.mpf":
    """2**-(bits//2), the agreement tolerance for values carrying ``bits``
    bits.  Half the precision leaves room for rounding in the inputs and for
    the square-root conditioning of a double root; callers scale it."""
    return mpmath.mpf(2) ** (-(bits // 2))
