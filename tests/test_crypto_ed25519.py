"""Tests for the pure-Python Ed25519 implementation (RFC 8032)."""

from __future__ import annotations

import binascii

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CryptoError, SignatureError
from repro.crypto import ed25519


def on_curve(point) -> bool:
    """Check -x^2 + y^2 = 1 + d x^2 y^2 (projectively)."""
    x, y, z, t = point
    P, D = ed25519.P, ed25519.D
    return ((-x * x + y * y - z * z - D * t * t) % P == 0
            and (x * y - z * t) % P == 0)

# RFC 8032, section 7.1 test vectors (TEST 1-3).
RFC8032_VECTORS = [
    (
        "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
        "",
        "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
        "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
    ),
    (
        "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
        "72",
        "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
        "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
    ),
    (
        "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
        "af82",
        "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
        "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
    ),
]


class TestRFC8032Vectors:
    @pytest.mark.parametrize("sk_hex, pk_hex, msg_hex, sig_hex",
                             RFC8032_VECTORS)
    def test_public_key_derivation(self, sk_hex, pk_hex, msg_hex, sig_hex):
        sk = binascii.unhexlify(sk_hex)
        assert ed25519.secret_to_public(sk).hex() == pk_hex

    @pytest.mark.parametrize("sk_hex, pk_hex, msg_hex, sig_hex",
                             RFC8032_VECTORS)
    def test_signature(self, sk_hex, pk_hex, msg_hex, sig_hex):
        sk = binascii.unhexlify(sk_hex)
        msg = binascii.unhexlify(msg_hex)
        assert ed25519.sign(sk, msg).hex() == sig_hex

    @pytest.mark.parametrize("sk_hex, pk_hex, msg_hex, sig_hex",
                             RFC8032_VECTORS)
    def test_verify_accepts(self, sk_hex, pk_hex, msg_hex, sig_hex):
        ed25519.verify(binascii.unhexlify(pk_hex),
                       binascii.unhexlify(msg_hex),
                       binascii.unhexlify(sig_hex))


class TestVerifyRejects:
    def setup_method(self):
        self.sk = binascii.unhexlify(RFC8032_VECTORS[0][0])
        self.pk = binascii.unhexlify(RFC8032_VECTORS[0][1])
        self.sig = ed25519.sign(self.sk, b"message")

    def test_wrong_message(self):
        with pytest.raises(SignatureError):
            ed25519.verify(self.pk, b"other message", self.sig)

    def test_flipped_bit_in_signature(self):
        bad = bytearray(self.sig)
        bad[5] ^= 0x01
        with pytest.raises(SignatureError):
            ed25519.verify(self.pk, b"message", bytes(bad))

    def test_wrong_public_key(self):
        other_pk = ed25519.secret_to_public(b"\x07" * 32)
        with pytest.raises(SignatureError):
            ed25519.verify(other_pk, b"message", self.sig)

    def test_bad_signature_length(self):
        with pytest.raises(SignatureError):
            ed25519.verify(self.pk, b"message", b"\x00" * 63)

    def test_scalar_out_of_range(self):
        bad = self.sig[:32] + (ed25519.Q).to_bytes(32, "little")
        with pytest.raises(SignatureError):
            ed25519.verify(self.pk, b"message", bad)

    def test_bad_public_key_length(self):
        with pytest.raises(SignatureError):
            ed25519.verify(b"\x00" * 31, b"message", self.sig)


class TestPointArithmetic:
    def test_base_point_on_curve(self):
        assert on_curve(ed25519.BASE_POINT)

    def test_base_point_has_order_q(self):
        result = ed25519.point_mul(ed25519.Q, ed25519.BASE_POINT)
        assert ed25519.point_equal(result, ed25519.IDENTITY)

    def test_addition_commutes(self):
        p2 = ed25519.point_mul(2, ed25519.BASE_POINT)
        p3 = ed25519.point_mul(3, ed25519.BASE_POINT)
        lhs = ed25519.point_add(p2, p3)
        rhs = ed25519.point_add(p3, p2)
        assert ed25519.point_equal(lhs, rhs)

    def test_scalar_mul_matches_repeated_add(self):
        acc = ed25519.IDENTITY
        for _ in range(7):
            acc = ed25519.point_add(acc, ed25519.BASE_POINT)
        assert ed25519.point_equal(acc,
                                   ed25519.point_mul(7, ed25519.BASE_POINT))

    def test_compress_decompress_roundtrip(self):
        for k in (1, 2, 12345):
            point = ed25519.point_mul(k, ed25519.BASE_POINT)
            recovered = ed25519.point_decompress(
                ed25519.point_compress(point))
            assert ed25519.point_equal(point, recovered)

    def test_decompress_rejects_bad_length(self):
        with pytest.raises(CryptoError):
            ed25519.point_decompress(b"\x01" * 31)

    def test_decompress_rejects_non_curve_point(self):
        # y = 2 has no valid x on the curve with either sign for this
        # encoding; at least reject *some* malformed encodings.
        bad = (2).to_bytes(32, "little")
        try:
            point = ed25519.point_decompress(bad)
        except CryptoError:
            return
        assert on_curve(point)


class TestKeyHandling:
    def test_secret_must_be_32_bytes(self):
        with pytest.raises(CryptoError):
            ed25519.secret_to_public(b"\x01" * 16)

    def test_secret_scalar_is_clamped(self):
        scalar = ed25519.secret_scalar(b"\x42" * 32)
        assert scalar % 8 == 0
        assert (1 << 254) <= scalar < (1 << 255)


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=32, max_size=32), st.binary(max_size=64))
def test_sign_verify_roundtrip_property(seed, message):
    public = ed25519.secret_to_public(seed)
    signature = ed25519.sign(seed, message)
    ed25519.verify(public, message, signature)
    with pytest.raises(SignatureError):
        ed25519.verify(public, message + b"!", signature)
