"""Three-parameter Puiseux/Laurent solutions in the two special cases.

Case C = -16/5 ("C165").  With t0 = 0 the ansatz is

    x = sqrt(t) * (c1*t**-2 + sum_{j>=-1} a_j t**j),
    y = -(15/8)*t**-2 + sum_{j>=-1} b_j t**j,

and substituting into the motion equations yields, at each k, the linear
system (writing u = (k-1)*k)

    (k**2 - 4)*a_k + 2*c1*b_k = -lam*a_{k-2} - 2*sum_{j=-1}^{k-1} a_j b_{k-j-2}
    (u - 12)*b_k              = -b_{k-2} - sum_{j=-2}^{k-1} a_j a_{k-j-3}
                                 - (16/5)*sum_{j=-1}^{k-1} b_j b_{k-j-2}

with a_{-2} = c1 and b_{-2} = -15/8.  The determinant vanishes at k = 2
(compatibility fixes c1**4; a_2 is a new free constant) and k = 4 (the
system collapses to one equation; b_4 is free).

Case C = -4/3 ("C43").  The ansatz

    x = s*sqrt(6)*t**-2 + sum d_k t**k,   y = -3*t**-2 + sum f_k t**k

(s = +-1 the x -> -x image) gives

    (u - 6)*d_k + 2*s*sqrt(6)*f_k = -lam*d_{k-2} - 2*sum_{j=-1}^{k-1} d_j f_{k-j-2}
    2*s*sqrt(6)*d_k + (u - 8)*f_k = -f_{k-2} - sum_{j=-1}^{k-1} d_j d_{k-j-2}
                                     - (4/3)*sum_{j=-1}^{k-1} f_j f_{k-j-2}

singular at k = -1 (f_{-1} free), k = 2 (compatibility constrains f_{-1};
f_2 free) and k = 4 (one equation; f_4 free).

One stepper serves both cases; the frozen per-case table ``_CASES`` holds
everything that differs: the step matrix, the resonances, whether the lead
is the free c1, the closed form below and the roots the branch listing
runs over.  At a resonance with free column f (value v) and bound column
b, x_b = (r_b - M_bf*v)/M_bb and the defect is the left-null combination
M_bb*r_f - M_fb*r_b of the right-hand side, which must vanish.
For C165 that is -10*(r_1 - 2*c1*b_2) at k = 2 and 12*r_2 at k = 4.

Compatibility closed forms, one shape s*(a - b*lam +- c*sqrt(d*(e*lam**2 -
f*lam + g)))/n evaluated from the table:

    c1**4   = 1125*(525 - 1680*lam +- 4*sqrt(35*(2048*lam**2 - 1280*lam + 387)))/167552
    f. -1^2 = (105 - 140*lam +- sqrt(7*(1216*lam**2 - 1824*lam + 783)))/385

A note on the f_{-1} = 0 choice: the product of the two closed-form roots
is proportional to (2*lam - 1)*(lam - 1), so f_{-1} = 0 satisfies the k=2
compatibility only at lam = 1/2 and lam = 1.  The zero branch is still
enumerated (it is the classical even/Weierstrass-type specialization and
merges with a nonzero branch exactly at those lambda); build_series
reports the violation honestly everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable

from .errors import CompatibilityViolation, ContractViolation
from .model import build_henon_heiles, energy_series
from .scalars import (Scalar, ScaledInts, as_scalar, cauchy_sum,
                      default_precision, exact_combination, exact_product,
                      exact_value, half_precision_tol, nth_root, rounded_sum)
from .series import PuiseuxSeries

CASE_C165 = "C165"
CASE_C43 = "C43"

# Highest exponent of x and y kept when reading the energy constant.
_H_WINDOW = 6


@dataclass(frozen=True)
class _Case:
    """One case: the step matrix at k is [[x_diag(k), 2*s], [2*s or 0,
    y_diag(k)]] with s the x lead.  lead_sq is s**2 when the leading
    balance fixes s, which also puts x_k into the y row (C43: 6); it is
    None when s is the free c1 (C165).  The x*x sum runs from j = xx_lo
    over pairs adding to k + xx_lo - 1, and resonances map k -> (free
    column, value source: a free_params index or "residue", resolution,
    freed name).  closed_form holds (s, a, b, c, d, e, f, g, n) of the
    compatibility closed form: c1**4 where the lead is free, f_{-1}**2
    otherwise, and exactly 0 on the root "zero"."""

    C: Fraction
    y_lead: Fraction
    xx_lo: int
    x_lead: Fraction
    x_step: Fraction
    x_diag: Callable[[int], int]
    y_diag: Callable[[int], int]
    lead_sq: Fraction | None
    roots: tuple
    resonances: dict
    closed_form: tuple

    @property
    def lead_free(self) -> bool:
        """Whether the x lead is the free c1, not fixed by the balance."""
        return self.lead_sq is None

    def det(self, k: int) -> Fraction:
        """Closed-form determinant of the step matrix at k."""
        coupling = 0 if self.lead_free else 4 * self.lead_sq
        return self.x_diag(k) * self.y_diag(k) - coupling


_CASES = {
    CASE_C165: _Case(
        C=Fraction(-16, 5), y_lead=Fraction(-15, 8), xx_lo=-2,
        x_lead=Fraction(-3, 2), x_step=Fraction(1, 2),
        x_diag=lambda k: k * k - 4, y_diag=lambda k: (k - 1) * k - 12,
        lead_sq=None, roots=("plus", "minus"),
        resonances={2: (0, 0, "compatibility-constrained", "a2"),
                    4: (1, 1, "freed-parameter", "b4")},
        closed_form=(Fraction(1125, 167552), 525, 1680, 4, 35,
                     2048, 1280, 387, 1)),
    CASE_C43: _Case(
        C=Fraction(-4, 3), y_lead=Fraction(-3), xx_lo=-1,
        x_lead=Fraction(-2), x_step=Fraction(1),
        x_diag=lambda k: (k - 1) * k - 6, y_diag=lambda k: (k - 1) * k - 8,
        lead_sq=Fraction(6), roots=("zero", "plus", "minus"),
        resonances={-1: (1, "residue", "freed-parameter", "f-1"),
                    2: (1, 0, "compatibility-constrained", "f2"),
                    4: (1, 1, "freed-parameter", "f4")},
        closed_form=(1, 105, 140, 1, 7, 1216, 1824, 783, 385)),
}


def _case(case: str) -> _Case:
    if case not in _CASES:
        raise ContractViolation(
            f"unknown case {case!r}; expected {' or '.join(_CASES)}")
    return _CASES[case]


def _branch_bits(lam: Scalar) -> int:
    """A branch's working precision: that of lam, at least the default."""
    return max(lam.precision, default_precision())


@dataclass(frozen=True)
class BranchSpec:
    """One local-solution family: discrete choices plus free parameters.

    root_branch picks the sign inside the c1**4 / f_{-1}**2 closed forms
    ("zero" is the f_{-1} = 0 choice, C43 only).  x_sign = -1 selects the
    x -> -x image (negates every x-coefficient, fixes every
    y-coefficient).  residue_sign picks the sign of f_{-1} itself (C43);
    imaginary_rotation multiplies c1 by i (C165, non-real branch).
    free_params holds (a2, b4) for C165 and (f2, f4) for C43.
    """

    case: str
    lam: Scalar
    root_branch: str
    x_sign: int = 1
    residue_sign: int = 1
    imaginary_rotation: bool = False
    free_params: tuple = (Scalar.exact(0), Scalar.exact(0))
    t0: Scalar = Scalar.exact(0)
    compatible: bool | None = None
    merged_with: str | None = None

    def __post_init__(self):
        if self.root_branch not in _case(self.case).roots:
            raise ContractViolation(
                f"root_branch {self.root_branch!r} invalid for {self.case}"
            )
        if self.x_sign not in (1, -1) or self.residue_sign not in (1, -1):
            raise ContractViolation("signs must be +1 or -1")
        if self.imaginary_rotation and not _CASES[self.case].lead_free:
            raise ContractViolation("imaginary rotation needs a free lead c1")

    def label(self) -> str:
        bits = [self.case, self.root_branch]
        bits.append("x+" if self.x_sign > 0 else "x-")
        if not _CASES[self.case].lead_free and self.root_branch != "zero":
            bits.append("res+" if self.residue_sign > 0 else "res-")
        if self.imaginary_rotation:
            bits.append("i")
        return ":".join(bits)


@dataclass(frozen=True)
class RecurrenceStep:
    """Record of one linear step of the recurrence."""

    k: int
    rhs: tuple | None            # the rounded rhs, only at a step with a defect
    det: Scalar                  # exact closed-form determinant of the step
    resolution: str              # unique | freed-parameter | compatibility-constrained
    solution: tuple              # (x-coefficient, y-coefficient) adopted at k
    defect: Scalar | None = None
    freed: str | None = None


def recurrence_determinant(case: str, k: int) -> Scalar:
    """Exact determinant of the step matrix at index k."""
    return Scalar.exact(_case(case).det(k))


def singular_step_indices(case: str, k_min: int = -1, k_max: int = 50) -> list[int]:
    return [k for k in range(k_min, k_max + 1)
            if recurrence_determinant(case, k).is_zero()]


def _closed_form(case: str, lam, branch: str) -> Scalar:
    """The compatibility closed form of case at lam on the root branch."""
    table = _case(case)
    if branch not in table.roots:
        raise ContractViolation(
            f"branch must be one of {', '.join(table.roots)} for {case}")
    lam = as_scalar(lam)
    bits = _branch_bits(lam)
    lam = lam.with_precision(bits)
    if branch == "zero":
        return Scalar.exact(0, 1, bits)
    s, a, b, c, d, e, f, g, n = (Scalar.exact(v, 1, bits)
                                 for v in table.closed_form)
    # both quadratics have negative discriminants (C165's has its minimum
    # 187 at lam = 5/16), so for real lam the square root is real
    root = nth_root(d * (e * lam * lam - f * lam + g), 2, 0)
    sign = Scalar.exact(1 if branch == "plus" else -1)
    return s * (a - b * lam + sign * c * root) / n


def c1_fourth_power(lam, branch: str) -> Scalar:
    """Closed form for c1**4 in the C = -16/5 compatibility condition; the
    minus branch may be negative, making c1 complex."""
    return _closed_form(CASE_C165, lam, branch)


def f_minus1_squared(lam, branch: str) -> Scalar:
    """Closed form for f_{-1}**2 in the C = -4/3 compatibility condition."""
    return _closed_form(CASE_C43, lam, branch)


def _lead_and_residue(spec: BranchSpec) -> tuple:
    """(x lead, y residue) of spec; its closed form is evaluated once."""
    table = _CASES[spec.case]
    bits = _branch_bits(spec.lam)
    value = _closed_form(spec.case, spec.lam, spec.root_branch)
    if not table.lead_free:
        lead = nth_root(Scalar.exact(table.lead_sq, 1, bits), 2, 0)
        return spec.x_sign * lead, spec.residue_sign * nth_root(value, 2, 0)
    c1 = nth_root(value, 4, 0)
    if spec.imaginary_rotation:
        c1 = c1 * Scalar.from_complex(0, 1, bits)
    # the k = -1 y row reads y_diag(-1)*y_{-1} = -c1**2
    return spec.x_sign * c1, c1 * c1 / -table.y_diag(-1)


def leading_x_coefficient(spec: BranchSpec) -> Scalar:
    """c1 (C165) or the +-sqrt(6) leading coefficient (C43)."""
    return _lead_and_residue(spec)[0]


def branch_residue(spec: BranchSpec) -> Scalar:
    """Residue of the y-series (coefficient of 1/t)."""
    return _lead_and_residue(spec)[1]


class _Recurrence:
    """Stateful stepper for one branch; x[i] and y[i] hold index i - 2, so
    the Cauchy sum of total index s is cauchy_sum(., ., s + 4).  lead is x_{-2};
    a "residue" resonance (C43's f_{-1}) adopts residue, which a free
    lead's recurrence (C165) never reads.  prior, when given, holds the
    (x, y) coefficient lists to continue from.  xs and ys convert x and y
    once, coefficient by coefficient (ScaledInts of one slope); the slope
    is estimated from x once _SLOPE_AT coefficients are known.  A lone
    lead is converted with room under it for roundings down to 2**bits
    below it, so that the coefficients before _SLOPE_AT fit."""

    _SLOPE_AT = 16

    def __init__(self, spec: BranchSpec, bits: int, lead: Scalar,
                 residue: Scalar | None, prior=None):
        self.spec = spec
        self.bits = bits
        self._lam = exact_value(spec.lam.with_precision(bits))
        self.case = _CASES[spec.case]
        self.residue = residue
        self.x, self.y = prior or ([lead], [Scalar.exact(self.case.y_lead, 1, bits)])
        self._lead = exact_value(self.x[0])
        self._convert(0 if prior else 2 * bits)

    def _convert(self, room: int = 0):
        """Convert x and y; with room, each list's base sits room bits
        under the top of its first entry."""
        floors = [None, None]
        for i, c in enumerate((self.x[0], self.y[0]) if room else ()):
            lead = exact_value(c)
            if lead and lead[0]:
                ((e, re, im),) = lead[0]
                floors[i] = e + max(re.bit_length(), im.bit_length()) - room
        self.xs = ScaledInts(self.x, None, floors[0])
        self.ys = ScaledInts(self.y, self.xs.slope, floors[1])

    def _times(self, i: int, j: int, k: int, u, sign: int = 1):
        """(c, v): c*v is sign times the step matrix entry (i, j) at k
        times the exact sum u."""
        if i == j:
            return sign * (self.case.x_diag(k) if i == 0
                           else self.case.y_diag(k)), u
        if i and self.case.lead_free:
            return 0, None
        return 2 * sign, exact_product(self._lead, u)

    def step(self, k: int) -> RecurrenceStep:
        """Solve (or resolve) the step at index k and record it.  The
        right-hand side, the solution and the defect are each formed
        exactly from cauchy_sum's sums and the stored coefficients and
        rounded once; exact inputs give exact values."""
        case, xs, ys, m = self.case, self.xs, self.ys, self._times
        x2, y2 = (exact_value(self.x[k]), exact_value(self.y[k])) \
            if k >= 0 else (None, None)
        r = (exact_combination(((-1, exact_product(self._lam, x2)),
                                (-2, cauchy_sum(xs, ys, k + 2)))),
             exact_combination(((-1, y2),
                                (-1, cauchy_sum(xs, xs, k + 3 + case.xx_lo)),
                                (case.C, cauchy_sum(ys, ys, k + 2)))))
        det = case.det(k)
        if det:
            # Cramer on the 2x2 step system, over the closed-form det
            rows = ((m(1, 1, k, r[0]), m(0, 1, k, r[1], -1)),
                    (m(0, 0, k, r[1]), m(1, 0, k, r[0], -1)))
            solution = [rounded_sum(exact_combination(p, det)) for p in rows]
            resolution = freed = defect = None
        else:
            # Fredholm alternative: the free column f takes its value, the
            # bound column b follows from row b, and the left-null
            # combination of the rhs is the defect
            f, source, resolution, freed = case.resonances[k]
            b = 1 - f
            solution = [None, None]
            solution[f] = self.residue if source == "residue" \
                else self.spec.free_params[source]
            solution[b] = rounded_sum(exact_combination(
                ((1, r[b]), m(b, f, k, exact_value(solution[f]), -1)),
                m(b, b, k, None)[0]))
            defect = rounded_sum(exact_combination(
                (m(b, b, k, r[f]), m(f, b, k, r[b], -1))))
        out = RecurrenceStep(k=k, rhs=None if defect is None
                             else tuple(map(rounded_sum, r)),
                             det=Scalar.exact(det),
                             resolution=resolution or "unique",
                             solution=tuple(solution), defect=defect,
                             freed=freed)
        self.xs.append(out.solution[0])
        self.ys.append(out.solution[1])
        if len(self.x) == self._SLOPE_AT:
            self._convert()
        return out

    def defect_acceptable(self, step: RecurrenceStep) -> bool:
        """Exact defects must vanish; rounded ones must be below
        2**-(bits/2) relative to the step's right-hand side."""
        defect = step.defect
        if defect is None:
            return True
        if defect.is_exact:
            return defect.is_zero()
        scale = 1 + max(v.mag() for v in step.rhs)
        return defect.mag() <= half_precision_tol(self.bits) * scale


def step_recurrence(spec: BranchSpec, k: int, prior) -> RecurrenceStep:
    """Single-step entry point: prior is a pair of dicts (x-coeffs, y-coeffs)
    indexed from -2 with every index below k present."""
    if k < -1:
        raise ContractViolation(f"steps start at k = -1, got {k}")
    for j in range(-2, k):
        if j not in prior[0] or j not in prior[1]:
            raise ContractViolation(f"prior coefficients missing index {j}")
    # the prior holds the residue from k = 0 on; k = -1 adopts the spec's
    residue = prior[1][-1] if k > -1 else branch_residue(spec)
    eng = _Recurrence(spec, _branch_bits(spec.lam), prior[0][-2], residue,
                      [[p[j] for j in range(-2, k)] for p in prior])
    step = eng.step(k)
    if not eng.defect_acceptable(step):
        raise CompatibilityViolation(k, step.defect)
    return step


@dataclass(frozen=True)
class SeriesSolution:
    """A built branch: the series pair, its energy and the step log."""

    spec: BranchSpec
    x: PuiseuxSeries
    y: PuiseuxSeries
    steps: tuple
    trunc_order: int
    precision: int

    def system(self):
        return _system(self.spec)

    @cached_property
    def H(self) -> Scalar:
        """The t**0 energy coefficient, from x and y through t**6 only."""
        return energy_series(self.system(), self.x.truncate(_H_WINDOW),
                             self.y.truncate(_H_WINDOW)).coefficient(0)

    @property
    def c1(self) -> Scalar:
        return self.x.coeffs[0]

    def residue(self) -> Scalar:
        return self.y.coeffs[1]


def _system(spec: BranchSpec):
    return build_henon_heiles(Scalar.exact(_CASES[spec.case].C), spec.lam)


def build_series(spec: BranchSpec, N: int,
                 on_incompatible: str = "raise") -> SeriesSolution:
    """Run the recurrence through index N and assemble the series pair.

    The precision is that of spec.lam, at least the default.
    on_incompatible: "raise" aborts with CompatibilityViolation at an
    inconsistent zero-determinant step; "force" keeps stepping (satisfying
    the solvable row) and leaves the defect visible in the step log and the
    residual.
    """
    if N < 5:
        raise ContractViolation(f"N must be >= 5 to pass every resonance, got {N}")
    if on_incompatible not in ("raise", "force"):
        raise ContractViolation("on_incompatible must be 'raise' or 'force'")
    eng = _Recurrence(spec, _branch_bits(spec.lam), *_lead_and_residue(spec))
    steps = []
    for k in range(-1, N + 1):
        step = eng.step(k)
        steps.append(step)
        if on_incompatible == "raise" and not eng.defect_acceptable(step):
            raise CompatibilityViolation(k, step.defect)
    # the x coefficient of index k sits at exponent k + x_lead + 2; the
    # slots between them (C165's integer exponents) are exact zeros
    case = eng.case
    stride = int(1 / case.x_step)
    xcoeffs = [Scalar.exact(0)] * (stride * (N + 2) + 1)
    xcoeffs[::stride] = eng.x
    xs = PuiseuxSeries(case.x_lead, case.x_step, xcoeffs, center=spec.t0)
    ys = PuiseuxSeries(-2, 1, eng.y, center=spec.t0)
    return SeriesSolution(spec=spec, x=xs, y=ys, steps=tuple(steps),
                          trunc_order=N, precision=eng.bits)


def _compatibility_step(eng: _Recurrence) -> RecurrenceStep:
    """Step eng through k = 2, the compatibility resonance of both cases."""
    for k in range(-1, 2):
        eng.step(k)
    return eng.step(2)


def compatibility_defect(case: str, lam, free_value) -> Scalar:
    """k=2 consistency defect as a function of the leading free value.

    For C165 the free value is a trial c1, for C43 a trial f_{-1}.  The
    zeros of this function (in c1**4 resp. f_{-1}**2) are exactly the
    compatibility closed forms, which makes it the numeric elimination
    oracle for them.
    """
    lam = as_scalar(lam)
    table = _case(case)
    probe = BranchSpec(case=case, lam=lam, root_branch=table.roots[0])
    bits = _branch_bits(lam)
    value = as_scalar(free_value).with_precision(bits)
    # the trial value is the lead c1 where it is free (C165), and the free
    # residue f_{-1} otherwise (C43)
    eng = _Recurrence(probe, bits, value, None) if table.lead_free \
        else _Recurrence(probe, bits, leading_x_coefficient(probe), value)
    return _compatibility_step(eng).defect


def _branch_listing(case: str, lam, include_complex: bool = False) -> list:
    """enumerate_branches' nominal listing as (spec, lead, residue)."""
    table = _case(case)
    lam = as_scalar(lam)
    rotations = (False, True) if include_complex and table.lead_free \
        else (False,)
    bits = _branch_bits(lam)
    flip = "x_sign" if table.lead_free else "residue_sign"
    listing = []
    for rot in rotations:
        for root in table.roots:
            for sign in (1,) if root == "zero" else (1, -1):
                spec = BranchSpec(case=case, lam=lam, root_branch=root,
                                  imaginary_rotation=rot, **{flip: sign})
                lead, residue = _lead_and_residue(spec)
                # a free c1's closed form is its k = 2 compatibility condition
                ok = table.lead_free
                if not ok:
                    eng = _Recurrence(spec, bits, lead, residue)
                    ok = eng.defect_acceptable(_compatibility_step(eng))
                listing.append((replace(spec, compatible=ok), lead, residue))
    return listing


def enumerate_branches(case: str, lam, include_complex: bool = False,
                       dedup: bool = False) -> list[BranchSpec]:
    """The nominal local-solution families at (case, lam).

    One listing over rotations x roots x signs: C165 yields 4 specs
    ({plus,minus} roots x the x -> -x image); with include_complex the four
    i-rotated c1 branches join.  C43 yields 5 specs (zero, then
    {plus,minus} roots x the residue sign).  Each spec's ``compatible``
    flag records whether its k=2 compatibility actually holds at this
    lambda; dedup=True collapses specs whose series coincide (branch
    merges, e.g. the C43 plus pair onto the zero branch at lam = 1),
    annotating survivors with ``merged_with``.
    """
    listing = _branch_listing(case, lam, include_complex)
    return _merge_coincident(listing) if dedup \
        else [spec for spec, _, _ in listing]


def _merge_coincident(listing: list) -> list[BranchSpec]:
    """The distinct specs of a (spec, lead, residue) listing; a spec whose
    lead and residue match an earlier one's joins that one's merged_with."""
    kept, keys = [], []
    tol = half_precision_tol(_branch_bits(listing[0][0].lam)) * 8
    for spec, *key in listing:
        idx = next((i for i, seen in enumerate(keys)
                    if all((a - b).mag() <= tol for a, b in zip(key, seen))),
                   None)
        if idx is None:
            kept.append(spec)
            keys.append(key)
        else:
            match = kept[idx]
            merged = (match.merged_with + "," if match.merged_with else "") \
                + spec.label()
            kept[idx] = replace(match, merged_with=merged)
    return kept
