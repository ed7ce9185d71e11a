"""JSON encoding/decoding for every report-facing type.

Scalars serialize as {"num": "...", "den": "..."} decimal strings when
exact and as {"re": "...", "im": "...", "bits": n} otherwise, with enough
digits to round-trip at the stated precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.libmp import to_str

from .convergence import ConvergenceCertificate
from .errors import ContractViolation
from .laurent import BranchSpec, SeriesSolution
from .model import PhaseState
from .painleve import ClassificationVerdict, DominantBalance, ResonanceSet
from .scalars import Scalar, _checked_precision, default_precision
from .series import PuiseuxSeries
from .subequation import FitResult, SubequationAnsatz


def encode_scalar(s: Scalar) -> dict:
    if s.is_exact:
        q = s.fraction()
        return {"num": str(q.numerator), "den": str(q.denominator)}
    bits = s.precision
    digits = math.ceil(bits * math.log10(2)) + 3     # round-trips at bits
    re, im = s._raw(bits)
    return {"re": to_str(re, digits, strip_zeros=False),
            "im": to_str(im, digits, strip_zeros=False), "bits": bits}


def _field(obj, key: str, what: str, convert):
    """convert(obj[key]), or a ContractViolation naming the bad field."""
    if not isinstance(obj, dict):
        raise ContractViolation(f"{what} JSON must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise ContractViolation(f"{what} JSON lacks the field {key!r}")
    try:
        return convert(obj[key])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ContractViolation(f"bad {what} field {key!r}: {exc}") from None


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def decode_scalar(obj) -> Scalar:
    if isinstance(obj, dict) and "num" in obj:
        return Scalar.exact(_field(obj, "num", "scalar", int) * _field(
            obj, "den", "scalar", lambda den: Fraction(1, int(den))))
    bits = _field(obj, "bits", "scalar", _checked_precision) \
        if isinstance(obj, dict) and "bits" in obj else default_precision()
    # each part parsed once, at bits; from_real rejects inf and nan
    re, im = (_field(obj, key, "scalar", lambda part: Scalar.from_real(
        part, bits)._val[0]) for key in ("re", "im"))
    return Scalar(None, (re, im), bits)


def encode_series(s: PuiseuxSeries) -> dict:
    return {
        "step": str(s.step),
        "lead": str(s.lead),
        "center": encode_scalar(s.center),
        "coeffs": [encode_scalar(c) for c in s.coeffs],
        "complete": s.complete,
    }


def decode_series(obj) -> PuiseuxSeries:
    return PuiseuxSeries(
        _field(obj, "lead", "series", Fraction),
        _field(obj, "step", "series", Fraction),
        [decode_scalar(c) for c in _field(obj, "coeffs", "series", list)],
        center=decode_scalar(obj["center"]) if "center" in obj else None,
        complete=_field(obj, "complete", "series", _boolean)
        if "complete" in obj else False,
    )


def encode_branch(spec: BranchSpec) -> dict:
    return {
        "case": spec.case,
        "lambda": encode_scalar(spec.lam),
        "root_branch": spec.root_branch,
        "x_sign": spec.x_sign,
        "residue_sign": spec.residue_sign,
        "imaginary_rotation": spec.imaginary_rotation,
        "free_params": [encode_scalar(v) for v in spec.free_params],
        "t0": encode_scalar(spec.t0),
        "compatible": spec.compatible,
        "merged_with": spec.merged_with,
    }


def encode_solution(sol: SeriesSolution) -> dict:
    return {
        "step": str(sol.x.step),
        "lead": str(sol.x.lead),
        "case": sol.spec.case,
        "branch": encode_branch(sol.spec),
        "N": sol.trunc_order,
        "H": encode_scalar(sol.H),
        "x": encode_series(sol.x),
        "y": encode_series(sol.y),
        "precision_bits": sol.precision,
        "steps": [
            {
                "k": st.k,
                "det": encode_scalar(st.det),
                "resolution": st.resolution,
                "freed": st.freed,
                "defect": None if st.defect is None else encode_scalar(st.defect),
            }
            for st in sol.steps
        ],
    }


def encode_state(s: PhaseState) -> dict:
    return {"x": encode_scalar(s.x), "xt": encode_scalar(s.xt),
            "y": encode_scalar(s.y), "yt": encode_scalar(s.yt),
            "t": encode_scalar(s.t)}


def encode_balance(b: DominantBalance) -> dict:
    return {
        "case": b.case_tag,
        "alpha": encode_scalar(b.alpha),
        "beta": encode_scalar(b.beta),
        "a_alpha": "free" if b.a_alpha is None else encode_scalar(b.a_alpha),
        "b_beta": encode_scalar(b.b_beta),
        "sign_choices": dict(b.sign_choices),
        "logarithmic": b.logarithmic,
    }


def encode_resonances(r: ResonanceSet) -> dict:
    return {
        "values": [encode_scalar(v) for v in r.values],
        "all_integer": r.all_integer,
        "has_extra_negative": r.has_extra_negative,
    }


def encode_verdict(v: ClassificationVerdict) -> dict:
    return {
        "label": v.label,
        "detail": v.detail,
        "balances": [
            {"balance": encode_balance(b), "resonances": encode_resonances(r)}
            for b, r in v.balances
        ],
    }


def encode_certificate(c: ConvergenceCertificate) -> dict:
    audit = {}
    for key, val in c.audit.items():
        if isinstance(val, Scalar):
            audit[key] = encode_scalar(val)
        else:
            audit[key] = val
    return {
        "M": encode_scalar(c.M),
        "N": c.N,
        "epsilon": encode_scalar(c.epsilon),
        "checked_prefix": c.checked_prefix,
        "verdict": c.verdict,
        "case": c.case,
        "audit": audit,
    }


def encode_ansatz(a: SubequationAnsatz) -> dict:
    return {"m": a.m,
            "h": {f"{j},{k}": encode_scalar(c)
                  for (j, k), c in a.nonzero().items()}}


def encode_fit_result(r: FitResult) -> dict:
    return {
        "nullspace_dim": r.nullspace_dim,
        "basis": [
            {**encode_ansatz(a), "residual_order": str(o)}
            for a, o in zip(r.basis, r.residual_orders)
        ],
    }
