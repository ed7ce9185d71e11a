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

Every coefficient of a series convolution is one :func:`cauchy_sum`.
Its operands are :class:`ScaledInts`: each coefficient list is converted
once, by the code that owns it, into ints N_j with value_j = N_j / D *
2**(e + r*j), where D is the lcm of the exact entries' denominators and
the whole slope r flattens the geometric growth of a series, so the ints
stay near the working precision wide; a list of entries i**(a + b*j)
times reals keeps just the reals.  A product coefficient is then one exact
C-level int sum, ``sum(map(operator.mul, ...))`` (a square sums each
distinct pair once; two such lists of one b take one real sum times
i**k), times a power of two over D_a*D_b.  Pairs with an
exact-zero factor are skipped.  Every caller (the Laurent recurrence
step, series.combine, the Weierstrass and division recurrences) combines
its sums and stored coefficients exactly (exact_combination) and rounds
the result once (rounded_sum): an all-exact sum stays an exact Fraction,
any other is rounded once, to nearest, at the highest precision of the
inputs that count, so the bits do not depend on the order or the
grouping of the terms.  Lists whose exponents spread too far for one
scale add their terms in groups instead, to the same bits.
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
from mpmath.libmp import (fzero, mpc_abs, mpc_add, mpc_div, mpc_mul, mpc_neg,
                          mpc_pow_int, normalize, round_nearest, to_rational)

from .errors import ContractViolation

MIN_PRECISION = 64
_DEFAULT_PRECISION = 256
_FRACTION_ZERO = Fraction(0)


def _checked_precision(bits) -> int:
    """bits as an int, or ContractViolation if it is not one >= MIN_PRECISION;
    a number int() would change (64.7, inf) is not one, a string of digits is."""
    try:
        value = int(bits)
    except (ValueError, OverflowError):
        value = None
    if value is None or value < MIN_PRECISION or (
            not isinstance(bits, str) and value != bits):
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


def _int_nth_root(n: int, k: int):
    """Floor k-th root of a positive int, plus an exactness flag."""
    # Newton's integer iteration falls strictly while above the root and
    # never below its floor, so from 2**ceil(bits/k) > n**(1/k) it stops
    # exactly there
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            return r, r ** k == n
        r = nxt


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
        rounded to nearest at bits; ContractViolation for inf, -inf or nan.
        Every rounded Scalar is made here or by libmp on finite tuples."""
        bits = max(bits or _default_precision, MIN_PRECISION)
        with mp.workprec(bits):
            val = mpmath.mpf(re)._mpf_, mpmath.mpf(im)._mpf_
        for part, (_, man, _, bc) in zip((re, im), val):
            if not man and bc:          # the special values inf, -inf, nan
                raise ContractViolation(f"{part!r} is not a finite number")
        return Scalar(None, val, bits)

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
        q = self._frac
        if q is not None:
            return _rounded_mpf(q.numerator, q.denominator, 0, bits), fzero
        return self._val

    def magnitude(self) -> "Scalar":
        """|self| as a Scalar (exact for exact input)."""
        if self._frac is not None:
            return Scalar(abs(self._frac), None, self._prec)
        return Scalar(None, (mpc_abs(self._val, self._prec, round_nearest),
                             fzero), self._prec)

    def mag(self):
        """|self| as an mpf at own precision (for thresholds and sorting)."""
        return mp.make_mpf(self.magnitude()._raw(self._prec)[0])

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if type(other) is Scalar:
            return other
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

    def __eq__(self, other):
        s = Scalar._coerce(other)
        if s is NotImplemented:
            return NotImplemented
        if self._frac is None and s._frac is None:
            return self._val == s._val          # normalised tuples
        # an exact scalar equals a rounded one only at the same dyadic value
        return self._rational() == s._rational()

    def _rational(self):
        """The exact value as a Fraction, or None if it is complex."""
        if self._frac is not None:
            return self._frac
        re, im = self._val
        return None if im != fzero else Fraction(*to_rational(re))

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


def _parts(c: Scalar):
    """c as (re, im, x, q, rounded): c == (re + i*im) / q * 2**x with ints
    re and im, an odd q > 0, and x None when c is zero."""
    if c._frac is not None:
        n, d = c._frac.numerator, c._frac.denominator
        s = (d & -d).bit_length() - 1
        return n, 0, -s if n else None, d >> s, False
    (rs, rm, rx, _), (js, jm, jx, _) = c._val
    x = min(rx if rm else jx, jx if jm else rx)
    return ((-rm if rs else rm) << rx - x if rm else 0,
            (-jm if js else jm) << jx - x if jm else 0,
            x if rm or jm else None, 1, True)


def _twisted(re, im):
    """(r, None, (a, b)): re[j] + i*im[j] == i**(a + b*j) * r[j], b lowest;
    else (re, im, None).  im None stands for zeros."""
    for b in () if im is None or any(map(all, zip(re, im))) else (0, 1):
        a = {(bool(i) - b * j) % 2 for j, i in enumerate(im) if re[j] or i}
        if len(a) == 1:
            a = a.pop()
            return [(r or i) if (a + b * j) % 4 < 2 else -(r or i)
                    for j, (r, i) in enumerate(zip(re, im))], None, (a, b)
    return re, im, None if im else (0, 0)


class ScaledInts:
    """A list of Scalars, coeffs, with its scaled-int form.

    Entry j is i**(a + b*j) * re[j] / den * 2**(exp + slope*j) exactly,
    with ints re[j], im None and phase (a, b) in {0, 1}**2, b as low as
    fits ((0, 0): real); with phase None, as no (a, b) fits, it is
    (re[j] + i*im[j]) / den * 2**(...), the dense view dense() gives of
    both forms.  den is the lcm of the odd parts of the exact entries'
    denominators, and a whole slope in bits per index flattens the
    geometric growth of a series, so that the ints stay near the precision
    wide.  Where they would spread over more than 4*bits bits, xs holds
    each entry's own exponent instead of exp + slope*j.  Bit j of nz is set
    when entry j is not an exact zero, of rd when it is rounded; rnz and
    rrd hold those bits reversed (bit len - 1 - j).  bits is the highest
    precision of the entries that are not exact zeros; mixed tells whether
    theirs differ.  exp is the lower of floor and the least x - slope*j.
    """

    __slots__ = ("coeffs", "slope", "den", "exp", "xs", "re", "im", "phase",
                 "bits", "mixed", "nz", "rd", "rnz", "rrd")

    def __init__(self, coeffs=(), slope: int | None = None,
                 floor: int | None = None):
        parts = [_parts(c) for c in coeffs]
        lows, tops, precs = [], [], set()
        den = 1
        nz = rd = 0
        for j, (re, im, x, q, rounded) in enumerate(parts):
            if q != 1:
                den = math.lcm(den, q)
            if x is not None:
                lows.append((j, x))
                if rounded:
                    tops.append((j, x + max(re.bit_length(), im.bit_length())))
            if x is not None or rounded:
                nz |= 1 << j
                rd |= rounded << j
                precs.add(coeffs[j]._prec)
        if slope is None:
            # from the first to the last rounded nonzero entry, rounded down
            slope = ((tops[-1][1] - tops[0][1]) // (tops[-1][0] - tops[0][0])
                     if len(tops) > 1 else 0)
        lows = [x - slope * j for j, x in lows]
        exp, bits = min(lows, default=0), max(precs, default=0)
        wide = lows and max(lows) - exp > 4 * bits
        if floor is not None:
            exp = min(exp, floor)
        self.xs = [0 if p[2] is None else p[2] for p in parts] if wide else None
        self.re, self.im, self.phase = _twisted([0 if x is None else r * (
            den // q) << (0 if wide else x - exp - slope * j)
            for j, (r, _, x, q, _) in enumerate(parts)], [
            0 if x is None else i * (den // q) << (
                0 if wide else x - exp - slope * j)
            for j, (_, i, x, q, _) in enumerate(parts)]
            if any(p[1] for p in parts) else None)
        self.coeffs, self.slope, self.den, self.exp = coeffs, slope, den, exp
        self.bits, self.mixed, self.nz, self.rd = bits, len(precs) > 1, nz, rd
        # the same bits reversed: the binary digits of nz read from bit 0
        self.rnz, self.rrd = (int(bin(m)[:1:-1].ljust(len(parts), "0"), 2)
                              for m in (nz, rd))

    def append(self, c: Scalar) -> None:
        """Append c to coeffs, a list, and convert it.  A new denominator,
        a value below the base or one more than 4*bits bits above it
        converts coeffs again.  On a list without a slope, where nothing
        yet carries the fall of a series, that keeps the base, and a
        rounded value below it leaves as many bits of room under it as its
        mantissa has, less one, so that the smaller roundings a recurrence
        appends next fit."""
        self.coeffs.append(c)
        re, im, x, q, rounded = _parts(c)
        j = len(self.re)
        shift = 0 if x is None or self.xs is not None else \
            x - self.exp - self.slope * j
        if not 0 <= shift <= 4 * c._prec or self.den % q:
            room = max(re.bit_length(), im.bit_length()) - 1
            self.__init__(self.coeffs, self.slope, None if self.slope else
                          x - room if shift < 0 and rounded else self.exp)
            return
        if x is not None:
            f = self.den // q
            re, im = re * f << shift, im * f << shift
        k = self.phase and (self.phase[0] + self.phase[1] * j) % 4
        if k is not None and not (re if k % 2 else im):
            self.re.append((re or im) if k < 2 else -(re or im))
        else:   # dense, or off the phase: find the phase again
            dense = self.dense()
            dense[0].append(re)
            dense[1].append(im)
            self.re, self.im, self.phase = _twisted(*dense)
        if self.xs is not None:
            self.xs.append(0 if x is None else x)
        live = x is not None or rounded
        self.nz, self.rnz = self.nz | live << j, self.rnz << 1 | live
        self.rd, self.rrd = self.rd | rounded << j, self.rrd << 1 | rounded
        if live and c._prec != self.bits:
            self.mixed |= bool(self.bits)
            self.bits = max(self.bits, c._prec)

    def dense(self):
        """The dense view: the (re, im) int lists of the entries."""
        if self.phase in (None, (0, 0)):
            return self.re, self.im or [0] * len(self.re)
        a, b = self.phase
        return tuple([(r, 0, -r, 0)[(a + b * j - s) % 4]
                      for j, r in enumerate(self.re)] for s in (0, 1))


def _summed(terms, gap):
    """(num, low): num * 2**low is the sum of the (e, m) terms m * 2**e.

    With a gap the terms are added down the exponents in groups, each
    starting gap bits under the nonzero sum of the one before: all after
    the first group then stays under half an ulp of a sum rounded at the
    bits the gap was sized for, so only its sign is kept.  That keeps any
    exponent spread cheap."""
    first, num, low = None, 0, 0
    for e, m in sorted(terms, reverse=True):
        if gap and num and e < low - gap:
            if first:
                break
            first, num = (num, low), 0
        num, low = ((num << (low - e)) + m, e) if num else (m, e)
    if first:
        num, low = (first[0] << gap) + (num > 0) - (num < 0), first[1] - gap
    return num, low


def _folded(v, lo: int, n: int):
    """sum_j v[j]*v[n - j] over j >= lo, each pair j < n - j summed once
    and doubled, then the middle term."""
    half = (n + 1) // 2
    pairs = 2 * sum(map(operator.mul, v[lo:half], v[n - lo:n - half:-1]))
    return pairs + v[n // 2] ** 2 if n % 2 == 0 and n // 2 < len(v) else pairs


def cauchy_sum(a, b, n: int):
    """Coefficient n of the product of the coefficient lists a and b, as
    an exact sum: one term, or on the per-entry exponent path one per
    nonzero product part, which rounded_sum adds in groups.

    a and b are ScaledInts of one slope, each converted by the caller
    that owns the list.  Pairs (j, n - j) with an exact-zero factor are
    skipped, and with no other pair the sum is None, an exact zero.  The
    rest is one exact int sum, sum(map(operator.mul, ...)), times
    2**(exp_a + exp_b + slope*n) / (den_a*den_b); a square (a is b) sums
    each pair j < n - j once and doubles it.  Its bits are the highest
    precision of the remaining factors.
    """
    if a.slope != b.slope:
        raise ContractViolation("cauchy_sum of lists with different slopes")
    la, lb = len(a.re), len(b.re)
    s = lb - 1 - n
    pairs = a.nz & (b.rnz >> s if s >= 0 else b.rnz << -s)
    if not pairs:
        return None
    lo, hi = n - lb + 1 if n >= lb else 0, n if n < la else la - 1
    rounded = a.rd & pairs or a.nz & (b.rrd >> s if s >= 0 else b.rrd << -s)
    if a.mixed or b.mixed:
        bits = max(max(a.coeffs[j]._prec, b.coeffs[n - j]._prec)
                   for j in range(lo, hi + 1) if pairs >> j & 1)
    else:
        bits = a.bits if a.bits > b.bits else b.bits
    den = a.den * b.den
    stop = n - hi - 1 if n > hi else None
    if a.xs is not None or b.xs is not None:
        (ar, ai), (br, bi) = a.dense(), b.dense()
        xa, xb = (u.xs or [u.exp + u.slope * j for j in range(len(u.re))]
                  for u in (a, b))
        terms = []
        for j in range(lo, hi + 1):
            e = xa[j] + xb[n - j]
            re = ar[j] * br[n - j] - ai[j] * bi[n - j]
            im = ar[j] * bi[n - j] + ai[j] * br[n - j]
            if re:
                terms.append((e, re, 0))
            if im:
                terms.append((e, 0, im))
        return terms, den, bits, rounded
    if a.phase and b.phase and a.phase[1] == b.phase[1]:
        s = _folded(a.re, lo, n) if a is b else sum(
            map(operator.mul, a.re[lo:hi + 1], b.re[n - lo:stop:-1]))
        k = a.phase[0] + b.phase[0] + a.phase[1] * n
        re, im = (0, -s if k & 2 else s) if k & 1 else (-s if k & 2 else s, 0)
    elif a is b:
        re = _folded(a.re, lo, n) - _folded(a.im, lo, n)
        im = 2 * sum(map(operator.mul, a.re[lo:hi + 1], a.im[n - lo:stop:-1]))
    else:
        (ar, ai), (br, bi) = a.dense(), b.dense()
        ar, ai, br, bi = (ar[lo:hi + 1], ai[lo:hi + 1],
                          br[n - lo:stop:-1], bi[n - lo:stop:-1])
        re = sum(map(operator.mul, ar, br)) - sum(map(operator.mul, ai, bi))
        im = sum(map(operator.mul, ar, bi)) + sum(map(operator.mul, ai, br))
    return [(a.exp + b.exp + a.slope * n, re, im)], den, bits, rounded


# An exact sum is (terms, den, bits, rounded): the sum of (re + i*im)*2**e
# over its (e, re, im) terms, over den, with bits the highest precision of
# the inputs that entered it and rounded whether one of them is rounded.
# None stands for a sum no input entered, an exact zero.


def exact_value(c: Scalar):
    """c as an exact sum; None for an exact zero."""
    re, im, x, q, rounded = _parts(c)
    if x is None and not rounded:
        return None
    return [(x, re, im)] if x is not None else [], q, c._prec, rounded


def exact_product(u, v):
    """The exact sum u*v; None when either is None."""
    if u is None or v is None:
        return None
    return ([(e + f, a * c - b * d, a * d + b * c)
             for e, a, b in u[0] for f, c, d in v[0]],
            u[1] * v[1], max(u[2], v[2]), u[3] or v[3])


def exact_combination(pairs, div=1):
    """The exact sum of c*u over the (c, u) pairs, divided by div, with c
    and div ints or Fractions and div nonzero; pairs with c == 0 or u None
    do not enter.  None when no pair enters.  Terms within 4*bits bits of
    each other are added into one."""
    live, exps, den, bits, rounded = [], [], 1, 0, False
    for c, u in pairs:
        if c and u is not None:
            live.append((c, u))
            exps += [e for e, _, _ in u[0]]
            den = math.lcm(den, c.denominator * u[1])
            bits, rounded = max(bits, u[2]), rounded or bool(u[3])
    if not live:
        return None
    sign = -div.denominator if div < 0 else div.denominator
    lo = min(exps, default=0)
    merged = exps and max(exps) - lo <= 4 * bits
    terms, re, im = [], 0, 0
    for c, (t, d, _, _) in live:
        f = sign * c.numerator * (den // (c.denominator * d))
        if not merged:
            terms += [(e, a * f, b * f) for e, a, b in t]
            continue
        for e, a, b in t:
            re += a * f << e - lo
            if b:
                im += b * f << e - lo
    return ([(lo, re, im)] if merged else terms, den * abs(div.numerator),
            bits, rounded)


def rounded_sum(s) -> Scalar:
    """The exact sum s as a Scalar: an exact Fraction when no input is
    rounded, else rounded once, to nearest, at its bits; an exact zero
    for None.  Several terms are added in groups (_summed), with a gap
    that keeps the bits."""
    if s is None:
        return Scalar(_FRACTION_ZERO, None, _default_precision)
    terms, den, bits, rounded = s
    if len(terms) == 1:
        (k, re, im), ki = terms[0], terms[0][0]
    else:
        (re, k), (im, ki) = (
            _summed(t, rounded and bits + den.bit_length()
                    + len(t).bit_length() + 2
                    + max(m.bit_length() for _, m in t))
            if t else (0, 0)
            for t in ([(e, a) for e, a, _ in terms if a],
                      [(e, b) for e, _, b in terms if b]))
    if not rounded:
        return Scalar(Fraction(re << k, den) if k >= 0
                      else Fraction(re, den << -k), None, bits)
    return Scalar(None, (_rounded_mpf(re, den, k, bits),
                         _rounded_mpf(im, den, ki, bits)), bits)


def _rounded_mpf(num: int, den: int, e: int, bits: int):
    """num/den * 2**e as a raw mpf rounded once, to nearest, at bits: the
    tuple libmp's from_rational(num, den, bits) shifted by e gives, formed
    as its mpf_div forms it (a quotient with a sticky bit), from ints."""
    if not num:
        return fzero
    man = -num if num < 0 else num
    if den != 1:
        extra = max(bits - man.bit_length() + den.bit_length() + 5, 5)
        man, rem = divmod(man << extra, den)
        e -= extra
        if rem:
            man, e = man << 1 | 1, e - 1
    return normalize(int(num < 0), man, e, man.bit_length(), bits,
                     round_nearest)


def half_precision_tol(bits: int) -> "mpmath.mpf":
    """2**-(bits//2), the agreement tolerance for values carrying ``bits``
    bits.  Half the precision leaves room for rounding in the inputs and for
    the square-root conditioning of a double root; callers scale it."""
    return mpmath.mpf(2) ** (-(bits // 2))
