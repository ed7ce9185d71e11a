"""Dominant balances, resonances and the (C, lambda) classification.

Near a movable singularity t0, leading behaviors x ~ a*(t-t0)^alpha,
y ~ b*(t-t0)^beta of the model come in two flavors:

* Case 1: alpha = beta = -2, a = +-3*sqrt(2+C), b = -3, with resonances
  {-1, 6, 5/2 +- sqrt(1 - 24*(1+C))/2};
* Case 2 (y dominates): alpha = (1 +- sqrt(1 - 48/C))/2, beta = -2,
  b = 6/C, a arbitrary, with resonances {-1, 0, 6, -+sqrt(1 - 48/C)}
  where the alpha branch taking the minus sign carries the plus
  resonance.

The resonances are the roots of the linearized (Kowalevski) 2x2
determinant, a quartic in r:

* Case 1: the quartic is (r^2 - 5r - 6)(r^2 - 5r + 6C + 12);
* Case 2: it is r(r + 2*alpha - 1)(r^2 - 5r - 6), because
  alpha*(alpha - 1) = -12/C.

The table is that root set for every C, not only for the C of a call:
prod(r - r_i) and the quartic are polynomials of degree <= 2 in
d = sqrt(1 - 24*(1 + C)) (Case 1) or s = sqrt(1 - 48/C) (Case 2).  The
test suite forms the quartic and proves their identity from exact values
at more than three rational d and s; resonances therefore reads the table
alone.

``_CANDIDATES`` holds the six candidate C values once, in report order,
each with its case tag, ``--candidates`` note, the lambda its label needs
(None for any), its label and its ``classify`` detail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import UnsupportedParameter
from .scalars import Scalar, as_scalar, half_precision_tol, nth_root


@dataclass(frozen=True)
class DominantBalance:
    case_tag: str                 # "Case1" | "Case2"
    alpha: Scalar
    beta: Scalar
    a_alpha: Scalar | None        # None marks the arbitrary c1 of Case 2
    b_beta: Scalar
    sign_choices: dict = field(default_factory=dict)
    logarithmic: bool = False


@dataclass(frozen=True)
class ResonanceSet:
    values: tuple
    all_integer: bool
    has_extra_negative: bool


@dataclass(frozen=True)
class ClassificationVerdict:
    label: str                    # integrable-candidate | three-parameter-candidate
    detail: str                   # | logarithmic | generic
    balances: tuple               # of (DominantBalance, ResonanceSet)


def _require_nonzero_C(C: Scalar):
    if C.is_zero():
        raise UnsupportedParameter(
            "C = 0 is outside the family: the y-dominant balance divides by C"
        )


def find_dominant_balances(C) -> list[DominantBalance]:
    """All leading behaviors for the given C (C != 0).

    Both Case-1 sign branches are returned, except at C = -2 where the
    Case-1 leading coefficient a vanishes and the true dominant term is
    logarithmic; that degenerate balance is returned once, flagged.
    """
    C = as_scalar(C)
    _require_nonzero_C(C)
    minus2 = Scalar.exact(-2)
    balances = []
    a_sq = C + 2
    if a_sq.is_zero():
        balances.append(DominantBalance(
            case_tag="Case1", alpha=minus2, beta=minus2,
            a_alpha=Scalar.exact(0), b_beta=Scalar.exact(-3),
            sign_choices={"a": "degenerate"}, logarithmic=True,
        ))
    else:
        root = nth_root(a_sq, 2, 0) * 3
        for sign, val in (("+", root), ("-", -root)):
            balances.append(DominantBalance(
                case_tag="Case1", alpha=minus2, beta=minus2,
                a_alpha=val, b_beta=Scalar.exact(-3),
                sign_choices={"a": sign},
            ))
    s = nth_root(Scalar.exact(1) - Scalar.exact(48) / C, 2, 0)
    half = Scalar.exact(1, 2)
    for sign, alpha in (("-", (Scalar.exact(1) - s) * half),
                        ("+", (Scalar.exact(1) + s) * half)):
        balances.append(DominantBalance(
            case_tag="Case2", alpha=alpha, beta=minus2,
            a_alpha=None, b_beta=Scalar.exact(6) / C,
            sign_choices={"alpha": sign},
        ))
    return balances


def _table_resonances(balance: DominantBalance, C: Scalar) -> list[Scalar]:
    minus_one = Scalar.exact(-1)
    six = Scalar.exact(6)
    if balance.case_tag == "Case1":
        d = nth_root(Scalar.exact(1) - Scalar.exact(24) * (C + 1), 2, 0)
        half = Scalar.exact(1, 2)
        base = Scalar.exact(5, 2)
        return [minus_one, six, base - d * half, base + d * half]
    # r = 1 - 2*alpha pairs the minus-alpha branch with the plus resonance
    r4 = Scalar.exact(1) - 2 * balance.alpha
    return [minus_one, Scalar.exact(0), six, r4]


def _is_integer(v: Scalar) -> bool:
    """An exact integer, or a rounded real within 2**-(p//2)*max(1, |v|) of one."""
    if v.is_exact:
        return v.fraction().denominator == 1
    if v.is_real() and v._raw(v.precision)[0][2] >= 0:
        return True        # man * 2**exp, whole: no 2**exp-wide Fraction of it
    q = v._rational()      # None unless v is real
    return q is not None and \
        abs(q - round(q)) * 2 ** (v.precision // 2) <= max(1, abs(q))


def resonances(balance: DominantBalance, C) -> ResonanceSet:
    """Resonance exponents of a balance, from the closed-form table (the
    roots of the Kowalevski quartic for every C; see the module docstring),
    with whether all are integers and whether more than one is negative."""
    C = as_scalar(C)
    _require_nonzero_C(C)
    values = tuple(_table_resonances(balance, C))
    all_integer = all(_is_integer(v) for v in values)
    negatives = 0
    for v in values:
        if v.is_exact and v.fraction() < 0:
            negatives += 1
        elif not v.is_exact and v.is_real() \
                and v.mpc().real < -half_precision_tol(v.precision):
            negatives += 1
    return ResonanceSet(values=values, all_integer=all_integer,
                        has_extra_negative=negatives > 1)


_CANDIDATES = {
    Fraction(-1): ("Case1", "integrable with lambda = 1", Fraction(1),
                   "integrable-candidate",
                   "C=-1 with lambda=1: passes the full test"),
    Fraction(-4, 3): ("Case1", "three-parameter solutions, any lambda", None,
                      "three-parameter-candidate",
                      "C=-4/3 (Case 1): single-valued three-parameter local "
                      "solutions exist for any lambda"),
    Fraction(-16, 5): ("Case2", "alpha = (1 - sqrt(1 - 48/C))/2 = -3/2; "
                       "three-parameter solutions, any lambda", None,
                       "three-parameter-candidate",
                       "C=-16/5 (Case 2, alpha=-3/2): single-valued "
                       "three-parameter local solutions exist for any lambda"),
    Fraction(-6): ("Case2", "integrable for arbitrary lambda", None,
                   "integrable-candidate",
                   "C=-6 with lambda=arbitrary: passes the full test"),
    Fraction(-16): ("Case2", "integrable with lambda = 1/16", Fraction(1, 16),
                    "integrable-candidate",
                    "C=-16 with lambda=1/16: passes the full test"),
    Fraction(-2): ("coincident", "two types of singular behaviour coincide; "
                   "dominant term includes a logarithm", None, "logarithmic",
                   "C=-2: the two singular behaviors coincide and the "
                   "dominant term carries a logarithm"),
}


def classify(C, lam) -> ClassificationVerdict:
    """Place (C, lambda) in the integrability landscape: an exact C in
    _CANDIDATES takes its entry's label and detail where the entry needs
    no lambda or this one; anything else is generic."""
    C, lam = as_scalar(C), as_scalar(lam)
    _require_nonzero_C(C)
    balances = tuple(
        (b, resonances(b, C)) for b in find_dominant_balances(C)
    )
    entry = _CANDIDATES.get(C.fraction()) if C.is_exact else None
    lf = lam.fraction() if lam.is_exact else None
    label, detail = "generic", "resonances leave no single-valued candidate"
    if entry is not None and entry[2] in (None, lf):
        label, detail = entry[3:]
    return ClassificationVerdict(label=label, detail=detail, balances=balances)


@dataclass(frozen=True)
class CandidateC:
    value: Scalar
    case_tag: str
    note: str


def candidate_C_values() -> list[CandidateC]:
    """The six C values admitting (near-)integer resonance ladders."""
    return [CandidateC(Scalar.exact(c), tag, note)
            for c, (tag, note, *_) in _CANDIDATES.items()]
