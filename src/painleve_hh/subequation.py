"""First-order polynomial subequation fitting (Conte-Musette style).

A single-valued solution of an autonomous polynomial first-order ODE must
satisfy an equation of the form

    sum_{k=0}^{m} sum_{j=0}^{2m-2k} h_jk * y^j * (y')^k = 0.

Substituting a truncated Laurent series for y turns this into a linear
system in the h_jk: one equation per matched power of t.  The nullspace of
that (deliberately overdetermined) system collects candidate subequations;
every candidate is re-verified by residual substitution (the sum of its
coefficients times the fitted columns) before it is reported, which filters
spurious vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolation
from .linalg import DenseMatrix, solve_linear
from .scalars import (Scalar, ScaledInts, as_scalar, cauchy_sum,
                      default_precision, exact_combination, exact_value,
                      half_precision_tol, rounded_sum)
from .series import _ZERO, PuiseuxSeries, combine


def ansatz_indices(m: int) -> list[tuple[int, int]]:
    """(j, k) index set of the degree-m first-order form."""
    if m < 1:
        raise ContractViolation("m must be a positive integer")
    return [(j, k) for k in range(m + 1) for j in range(2 * m - 2 * k + 1)]


@dataclass(frozen=True)
class SubequationAnsatz:
    """Coefficient map h[(j, k)] of sum h_jk y^j (y')^k = 0."""

    m: int
    h: dict

    def __post_init__(self):
        allowed = set(ansatz_indices(self.m))
        extra = set(self.h) - allowed
        if extra:
            raise ContractViolation(f"indices {sorted(extra)} outside the ansatz")

    def coefficient(self, j: int, k: int) -> Scalar:
        return self.h.get((j, k), Scalar.exact(0))

    def nonzero(self) -> dict:
        return {jk: c for jk, c in self.h.items() if not c.is_zero()}

    def normalized(self) -> "SubequationAnsatz":
        """Scale so the largest-magnitude coefficient equals 1."""
        best_jk, best_mag = None, 0
        for jk, c in self.h.items():
            mag = c.mag()
            if mag > best_mag:
                best_jk, best_mag = jk, mag
        if best_jk is None:
            return self
        pivot = self.h[best_jk]
        return SubequationAnsatz(
            m=self.m, h={jk: c / pivot for jk, c in self.h.items()})


@dataclass(frozen=True)
class FitResult:
    nullspace_dim: int
    basis: tuple            # of SubequationAnsatz, normalized
    residual_orders: tuple  # highest verified vanishing exponent per element


def fit(y_series: PuiseuxSeries, m: int, match_order: int,
        tol=None) -> FitResult:
    """Fit the degree-m first-order form to a y-series.

    The series must live on an integer exponent grid (fit in the
    square-root variable first for half-integer series).  match_order is
    the highest power of t matched; it must leave at least two more
    equations than unknowns, and the series must be long enough for every
    ansatz term to be known through it.  Each column y^j * (y')^k is expanded
    once; a nullspace candidate's residual is the sum of its coefficients
    times those fitted columns, checked through match_order.
    """
    if y_series.step != 1:
        raise ContractViolation(
            "fit needs an integer-step series; substitute x = sqrt(t)*u "
            "or fit the y-series of the reduction instead")
    if m < 1:
        raise ContractViolation("m must be a positive integer")
    unknowns = (m + 1) ** 2             # len(ansatz_indices(m))
    yp = y_series.differentiate()
    if all(c.is_zero() for c in yp.coeffs):
        raise ContractViolation("y is constant: every coefficient of y' is 0")
    lead, window_cap = _column_window(y_series, yp, m)
    if window_cap is not None and match_order > window_cap:
        raise ContractViolation(
            f"series too short: ansatz terms known only through t^{window_cap}, "
            f"match_order {match_order} requested")
    n = max(math.floor(match_order - lead) + 1, 0)   # t^lead .. t^match_order
    if n < unknowns + 2:
        raise ContractViolation(
            f"match_order {match_order} gives {n} equations for "
            f"{unknowns} unknowns; need at least {unknowns + 2}")
    indices = ansatz_indices(m)
    # the columns y^j * y'^k, each formed once, none times the constant 1
    terms = {(j, k): y_series.pow_int(j) * yp.pow_int(k) if j and k
             else y_series.pow_int(j) if j else yp.pow_int(k)
             for j, k in indices}
    # coefficient(lead + i) of every column, read off its list: the window
    # check above leaves no unknown one, and off the grid it is exact zero
    cols = []
    for t in (terms[jk] for jk in indices):
        on_grid = t._on_grid(lead, 1) if (t.lead - lead).denominator == 1 else []
        cols.append((on_grid + [_ZERO] * n)[:n])
    rows = list(zip(*cols))
    system = DenseMatrix.from_rows(rows)
    sol = solve_linear(system, [Scalar.exact(0)] * n)
    if sol.kind == "unique":
        return FitResult(nullspace_dim=0, basis=(), residual_orders=())
    bits = max((c.precision for r in rows for c in r), default=default_precision())
    if tol is None:
        tol = half_precision_tol(bits)
    # exact rows have an exact nullspace: each matched residual coefficient
    # is then an exact zero
    bound = 0 if system.is_exact() else tol * (1 + max(
        (c.mag() for t in terms.values() for c in t.coeffs), default=0))
    basis, orders = [], []
    for vec in sol.nullspace:
        ans = SubequationAnsatz(m=m, h=dict(zip(indices, vec))).normalized()
        resid = combine([(c, terms[jk], 0) for jk, c in ans.nonzero().items()],
                        y_series.center)
        verified = None
        ok = True
        for e, c in zip(resid.exponents(), resid.coeffs):
            if e > match_order:
                break
            if c.mag() > bound:
                ok = False
                break
            verified = e
        if ok and resid.complete:
            # residual vanishes identically within the ansatz window
            verified = Fraction(match_order)
        if ok and verified is not None:
            basis.append(ans)
            orders.append(verified)
    return FitResult(nullspace_dim=len(basis), basis=tuple(basis),
                     residual_orders=tuple(orders))


def _column_window(y: PuiseuxSeries, yp: PuiseuxSeries, m: int):
    """(lead, cap) of the degree-m columns y^j * y'^k, from y and its
    derivative yp alone: column (j, k) starts at j*lead(y) + k*lead(yp),
    least at a corner of the index triangle or next to (0, 0), and each
    but the complete constant 1 is known as far past its start as y is."""
    a, b = y.lead, yp.lead
    cap = None if y.complete else \
        min(a, b, 2 * m * a, m * b) + y.max_exp - y.lead
    return min(0, 2 * m * a, m * b), cap


# -- reference series generators ------------------------------------------------


def weierstrass_p_series(g2, g3, n_terms: int, bits: int | None = None) -> PuiseuxSeries:
    """Laurent series of the Weierstrass elliptic function at its pole.

    p(t) = t**-2 + sum_{k>=2} c_k t**(2k-2) with c_2 = g2/20, c_3 = g3/28
    and the classical recurrence
    c_k = 3/((2k+1)(k-3)) * sum_{i=2}^{k-2} c_i c_{k-i} for k >= 4.
    """
    bits = bits or default_precision()
    g2 = as_scalar(g2).with_precision(bits)
    g3 = as_scalar(g3).with_precision(bits)
    if n_terms < 3:
        raise ContractViolation("need at least 3 terms")
    c = ScaledInts([g2 / 20, g3 / 28])    # c.coeffs[i] = c_{i+2}
    for k in range(4, n_terms + 2):
        c.append(rounded_sum(exact_combination(
            ((Fraction(3, (2 * k + 1) * (k - 3)), cauchy_sum(c, c, k - 4)),))))
    # t**-2, then c_k at t**(2k-2) with exact zeros between
    coeffs = [Scalar.exact(1)] + [Scalar.exact(0)] * (2 * n_terms + 2)
    coeffs[4::2] = c.coeffs
    return PuiseuxSeries(-2, 1, coeffs)


def mobius_squared_series(a, b, c, d, P0, g2, g3, n_terms: int) -> PuiseuxSeries:
    """Series of y = ((a*p + b)/(c*p + d))**2 + P0 with ad - bc = 1.

    Verification target only: expands the known two-parameter elliptic
    solution shape so a fit can be confirmed against it.
    """
    bits = default_precision()
    a, b, c, d, P0 = (as_scalar(v).with_precision(bits) for v in (a, b, c, d, P0))
    det = a * d - b * c
    if not (det - 1).is_zero() and (det - 1).mag() > half_precision_tol(bits):
        raise ContractViolation("Mobius constants must satisfy ad - bc = 1")
    p = weierstrass_p_series(g2, g3, n_terms + 4, bits)
    num = p.scale(a) + PuiseuxSeries.constant(b)
    den = p.scale(c) + PuiseuxSeries.constant(d)
    ratio = _series_divide(num, den, n_terms)
    return ratio * ratio + PuiseuxSeries.constant(P0)


def _series_divide(num: PuiseuxSeries, den: PuiseuxSeries,
                   order_cap: int) -> PuiseuxSeries:
    """num/den on den's grid through the exponent order_cap, and as far as
    num and den are known: q_n = (num_n - sum_{j<n} q_j den_{n-j}) / den_0.
    The numerator is one exact sum, rounded once together with the
    division by an exact den_0, or rounded once and then divided by a
    rounded one.  num must lie on den's grid."""
    num._check_center(den.center)
    den = den.normalized()
    num = num.normalized()
    if not den.coeffs:
        raise ZeroDivisionError("series division by zero")
    lead = num.lead - den.lead
    d = den.coeffs
    a = num._on_grid(num.lead, den.step)
    top = math.floor((order_cap - lead) / den.step)
    if not num.complete:
        top = min(top, len(a) - 1)
    if not den.complete:
        top = min(top, len(d) - 1)
    a += [Scalar.exact(0)] * (top + 1 - len(a))
    sd = ScaledInts(d)
    q = ScaledInts([], sd.slope)
    div = d[0].fraction() if d[0].is_exact else 1
    for n in range(top + 1):
        c = rounded_sum(exact_combination(
            ((1, exact_value(a[n])), (-1, cauchy_sum(q, sd, n))), div))
        q.append(c if d[0].is_exact else c / d[0])
    return PuiseuxSeries(lead, den.step, q.coeffs, center=num.center)


# -- the rho-quartic transform ----------------------------------------------------


@dataclass(frozen=True)
class QuarticForm:
    """rho_t**2 = (A*rho**4 + G*rho**3 + B*rho**2 + E*rho + C)/4, y = rho**2 + P0."""

    A: Scalar
    G: Scalar
    B: Scalar
    E: Scalar
    C: Scalar
    P0: Scalar

    @staticmethod
    def make(A=0, G=0, B=0, E=0, C=0, P0=0) -> "QuarticForm":
        return QuarticForm(*(as_scalar(v) for v in (A, G, B, E, C, P0)))


@dataclass(frozen=True)
class QuarticTransformReport:
    """First-order relation induced on y = rho**2 + P0.

    polynomial holds the (16)-layout part y'**2 - A*(y-P0)**3 - B*(y-P0)**2
    - C*(y-P0) = 0 expanded in y; the half-power remainder
    G*(y-P0)**(5/2) + E*(y-P0)**(3/2) is reported separately and is empty
    exactly when G = E = 0.
    """

    polynomial: SubequationAnsatz
    remainder: dict
    identically_zero: bool


def transform_quartic(q: QuarticForm) -> QuarticTransformReport:
    """Push the rho-quartic through y = rho**2 + P0.

    From y' = 2*rho*rho': y'**2 = rho**2 * (4*rho'**2)
    = (y-P0)*(A*(y-P0)**2 + B*(y-P0) + C) + G*(y-P0)**(5/2) + E*(y-P0)**(3/2).
    """
    A, G, B, E, C, P0 = q.A, q.G, q.B, q.E, q.C, q.P0
    if all(v.is_zero() for v in (A, G, B, E, C)):
        return QuarticTransformReport(
            polynomial=SubequationAnsatz(m=2, h={}),
            remainder={}, identically_zero=True)
    # expand A*(y-P0)^3 + B*(y-P0)^2 + C*(y-P0) and move it across
    h = {
        (0, 2): Scalar.exact(1),
        (3, 0): -A,
        (2, 0): 3 * A * P0 - B,
        (1, 0): -3 * A * P0 * P0 + 2 * B * P0 - C,
        (0, 0): A * P0 ** 3 - B * P0 * P0 + C * P0,
    }
    h = {jk: c for jk, c in h.items() if not c.is_zero()}
    remainder = {}
    if not G.is_zero():
        remainder["(y-P0)^(5/2)"] = G
    if not E.is_zero():
        remainder["(y-P0)^(3/2)"] = E
    if not P0.is_zero() and remainder:
        remainder["P0"] = P0
    return QuarticTransformReport(
        polynomial=SubequationAnsatz(m=2, h=h),
        remainder=remainder, identically_zero=False)


# -- residue pairing ---------------------------------------------------------------


@dataclass(frozen=True)
class ResiduePair:
    members: tuple          # indices into the input list
    residues: tuple
    kind: str               # "negative-pair" | "self-zero" | "unpaired"


def residue_pairing(branches, tol=None) -> list[ResiduePair]:
    """Pair branches whose y-series residues are exact negatives.

    branches is a list of (BranchSpec, y_series).  The residue is the
    coefficient of 1/t.  Sum of residues over a period parallelogram of an
    elliptic function vanishes, so local solutions with opposite residues
    belong to one global elliptic candidate; zero-residue branches pair
    with themselves.  Every input index appears in exactly one pair.  The
    default tol is 2**-(p//2), p the lowest precision among the residues.
    """
    items = []
    for idx, (spec, ys) in enumerate(branches):
        res = ys.coefficient(-1)
        if res is None:
            raise ContractViolation("series window does not include t**-1")
        items.append((idx, res))
    if tol is None:
        bits = min((r.precision for _, r in items), default=default_precision())
        tol = half_precision_tol(bits)
    pairs = []
    while items:
        idx, res = items.pop(0)
        if res.mag() <= tol:
            pairs.append(ResiduePair((idx,), (res,), "self-zero"))
            continue
        j = next((j for j, (_, other) in enumerate(items)
                  if (res + other).mag() <= tol), None)
        if j is None:
            pairs.append(ResiduePair((idx,), (res,), "unpaired"))
        else:
            jdx, other = items.pop(j)
            pairs.append(ResiduePair((idx, jdx), (res, other), "negative-pair"))
    return pairs
