import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

from painleve_hh import (BranchSpec, ContractViolation, PhaseState, Scalar,
                         build_series, certify, classify, fit, nth_root,
                         set_default_precision, weierstrass_p_series)
from painleve_hh.cli import parse_scalar
from painleve_hh.jsonio import (decode_scalar, decode_series, encode_branch,
                                encode_certificate, encode_fit_result,
                                encode_scalar, encode_series, encode_solution,
                                encode_state, encode_verdict)


def _roundtrip(obj, enc, dec):
    return dec(json.loads(json.dumps(enc(obj))))


def test_scalar_exact_roundtrip():
    s = Scalar.exact(-22, 7)
    out = _roundtrip(s, encode_scalar, decode_scalar)
    assert out.is_exact and out.fraction() == Fraction(-22, 7)
    payload = encode_scalar(s)
    assert payload == {"num": "-22", "den": "7"}


def test_scalar_float_roundtrip_at_precision():
    s = nth_root(Scalar.exact(2), 2, 0)
    out = _roundtrip(s, encode_scalar, decode_scalar)
    assert not out.is_exact
    assert (out - s).mag() <= mpmath.mpf(2) ** (-250)


def test_scalar_complex_roundtrip():
    s = nth_root(Scalar.exact(-7, 3), 2, 0)
    out = _roundtrip(s, encode_scalar, decode_scalar)
    assert (out - s).mag() <= mpmath.mpf(2) ** (-250)


@st.composite
def rounded_scalars(draw):
    """A rounded Scalar at 64-1,024 bits whose parts are zero or a signed
    mantissa of at most that many bits times 2**exp, tiny to huge."""
    bits = draw(st.integers(64, 1024))
    part = st.one_of(
        st.just(mpmath.mpf(0)),
        st.builds(lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
                  st.integers(-(2 ** bits) + 1, 2 ** bits - 1),
                  st.integers(-4000, 4000)))
    return Scalar.from_complex(draw(part), draw(part), bits)


@given(rounded_scalars(), st.sampled_from([53, 2000]))
def test_encode_scalar_matches_nstr_and_decodes_bit_for_bit(s, ambient):
    # the reference: mpmath.nstr of each part under workprec(bits + 8)
    bits = s.precision
    digits = math.ceil(bits * math.log10(2)) + 3
    with mp.workprec(bits + 8):
        v = s.mpc()
        want = {"re": mpmath.nstr(v.real, digits, strip_zeros=False),
                "im": mpmath.nstr(v.imag, digits, strip_zeros=False),
                "bits": bits}
    with mp.workprec(ambient):
        payload = encode_scalar(s)
        back = decode_scalar(json.loads(json.dumps(payload)))
    assert payload == want
    assert back.precision == bits and back.mpc()._mpc_ == s.mpc()._mpc_


def test_series_roundtrip():
    p = weierstrass_p_series(Scalar.exact(4), Scalar.exact(1), 10)
    out = _roundtrip(p, encode_series, decode_series)
    assert out.lead == p.lead and out.step == p.step
    for a, b in zip(out.coeffs, p.coeffs):
        assert (a - b).is_zero()


def test_branch_and_solution_roundtrip():
    spec = BranchSpec(case="C43", lam=Scalar.exact(1, 9), root_branch="minus",
                      residue_sign=-1,
                      free_params=(Scalar.exact(1, 3), Scalar.exact(0)))
    payload = json.loads(json.dumps(encode_branch(spec)))
    assert payload["case"] == "C43" and payload["residue_sign"] == -1
    assert decode_scalar(payload["free_params"][0]).fraction() == Fraction(1, 3)

    sol = build_series(spec, 8)
    payload = json.loads(json.dumps(encode_solution(sol)))
    assert payload["N"] == 8
    assert (decode_scalar(payload["H"]) - sol.H).mag() <= mpmath.mpf(2) ** (-245)
    y = decode_series(payload["y"])
    for a, b in zip(y.coeffs, sol.y.coeffs):
        assert (a - b).mag() <= mpmath.mpf(2) ** (-245)


def test_missing_bits_take_the_working_precision():
    set_default_precision(512)
    scalar = decode_scalar({"re": "0.3", "im": "0"})
    assert scalar.precision == parse_scalar("0.3").precision == 512


@pytest.mark.parametrize("bits", [0, -5, 32, 63, "x", 64.7, float("inf")])
def test_bits_below_the_floor_are_rejected(bits):
    with pytest.raises(ContractViolation, match="'bits'"):
        decode_scalar({"re": "0.3", "im": "0", "bits": bits})
    assert decode_scalar({"re": "0.3", "im": "0", "bits": 64}).precision == 64


def test_state_and_model_roundtrip():
    s = PhaseState(Scalar.exact(1), Scalar.exact(-2), Scalar.exact(1, 3),
                   nth_root(Scalar.exact(5), 2, 0), Scalar.exact(0))
    payload = json.loads(json.dumps(encode_state(s)))
    assert set(payload) == {"x", "xt", "y", "yt", "t"}
    assert decode_scalar(payload["x"]).fraction() == 1
    assert decode_scalar(payload["y"]).fraction() == Fraction(1, 3)
    assert (decode_scalar(payload["yt"]) - s.yt).mag() <= mpmath.mpf(2) ** (-250)


def test_verdict_encoding():
    v = classify(Scalar.exact(-16, 5), Scalar.exact(1, 9))
    payload = json.loads(json.dumps(encode_verdict(v)))
    assert payload["label"] == "three-parameter-candidate"
    assert len(payload["balances"]) == 4
    assert all("resonances" in b for b in payload["balances"])


def test_certificate_encoding():
    spec = BranchSpec(case="C165", lam=Scalar.exact(1, 9), root_branch="plus")
    cert = certify(build_series(spec, 40), Scalar.from_real("0.1"))
    payload = json.loads(json.dumps(encode_certificate(cert)))
    assert payload["verdict"] == "certified"
    assert payload["M"] == {"num": "2", "den": "1"}
    assert "audit" in payload


def test_fit_result_and_ansatz_roundtrip():
    p = weierstrass_p_series(Scalar.exact(4), Scalar.exact(1), 20)
    result = fit(p, 2, 25)
    payload = json.loads(json.dumps(encode_fit_result(result)))
    assert payload["nullspace_dim"] == 1
    ans = payload["basis"][0]
    assert ans["m"] == 2
    assert not decode_scalar(ans["h"]["0,2"]).is_zero()
