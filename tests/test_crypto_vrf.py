"""Tests for the ECVRF implementation and its protocol-relevant properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import VRFError
from repro.crypto import ed25519, vrf

from tests.test_crypto_ed25519 import on_curve

SK = b"\x11" * 32
PK = ed25519.secret_to_public(SK)
OTHER_SK = b"\x22" * 32
OTHER_PK = ed25519.secret_to_public(OTHER_SK)


class TestProveVerify:
    def test_roundtrip(self):
        pi = vrf.prove(SK, b"alpha")
        beta = vrf.verify(PK, pi, b"alpha")
        assert beta == vrf.proof_to_hash(pi)
        assert len(beta) == vrf.BETA_LEN

    def test_proof_length(self):
        assert len(vrf.prove(SK, b"x")) == vrf.PROOF_LEN

    def test_deterministic(self):
        assert vrf.prove(SK, b"abc") == vrf.prove(SK, b"abc")

    def test_different_inputs_different_outputs(self):
        beta1 = vrf.proof_to_hash(vrf.prove(SK, b"a"))
        beta2 = vrf.proof_to_hash(vrf.prove(SK, b"b"))
        assert beta1 != beta2

    def test_different_keys_different_outputs(self):
        beta1 = vrf.proof_to_hash(vrf.prove(SK, b"a"))
        beta2 = vrf.proof_to_hash(vrf.prove(OTHER_SK, b"a"))
        assert beta1 != beta2


class TestVerifyRejects:
    def test_wrong_input(self):
        pi = vrf.prove(SK, b"alpha")
        with pytest.raises(VRFError):
            vrf.verify(PK, pi, b"beta")

    def test_wrong_key(self):
        pi = vrf.prove(SK, b"alpha")
        with pytest.raises(VRFError):
            vrf.verify(OTHER_PK, pi, b"alpha")

    def test_tampered_gamma(self):
        pi = bytearray(vrf.prove(SK, b"alpha"))
        pi[0] ^= 0x01
        with pytest.raises(VRFError):
            vrf.verify(PK, bytes(pi), b"alpha")

    def test_tampered_challenge(self):
        pi = bytearray(vrf.prove(SK, b"alpha"))
        pi[40] ^= 0x01
        with pytest.raises(VRFError):
            vrf.verify(PK, bytes(pi), b"alpha")

    def test_tampered_scalar(self):
        pi = bytearray(vrf.prove(SK, b"alpha"))
        pi[60] ^= 0x01
        with pytest.raises(VRFError):
            vrf.verify(PK, bytes(pi), b"alpha")

    def test_wrong_length(self):
        with pytest.raises(VRFError):
            vrf.verify(PK, b"\x00" * 79, b"alpha")

    def test_scalar_out_of_range(self):
        pi = vrf.prove(SK, b"alpha")
        bad = pi[:48] + ed25519.Q.to_bytes(32, "little")
        with pytest.raises(VRFError):
            vrf.verify(PK, bad, b"alpha")


class TestUniqueness:
    """The VRF's defining property: one output per (key, input) —
    sortition's unbiasability rests on this."""

    def test_proof_to_hash_ignores_malleable_fields(self):
        # beta depends only on Gamma; c and s only authenticate it. A
        # different (c, s) either fails verification or yields same beta.
        pi = vrf.prove(SK, b"alpha")
        beta = vrf.proof_to_hash(pi)
        forged = pi[:32] + bytes(48)
        assert vrf.proof_to_hash(forged) == beta
        with pytest.raises(VRFError):
            vrf.verify(PK, forged, b"alpha")


class TestEncodeToCurve:
    def test_produces_curve_point(self):
        point = vrf._encode_to_curve(PK, b"some alpha")
        assert on_curve(point)

    def test_distinct_alphas_distinct_points(self):
        p1 = vrf._encode_to_curve(PK, b"a")
        p2 = vrf._encode_to_curve(PK, b"b")
        assert not ed25519.point_equal(p1, p2)


@settings(max_examples=8, deadline=None)
@given(st.binary(max_size=48))
def test_vrf_roundtrip_property(alpha):
    pi = vrf.prove(SK, alpha)
    assert vrf.verify(PK, pi, alpha) == vrf.proof_to_hash(pi)


def test_output_bits_unbiased():
    """Across many inputs the output's first bit is ~50/50 (sanity check
    on pseudorandomness; a catastrophic bias would break the common coin)."""
    ones = sum(
        vrf.proof_to_hash(vrf.prove(SK, bytes([i])))[0] >> 7
        for i in range(40)
    )
    assert 8 <= ones <= 32
