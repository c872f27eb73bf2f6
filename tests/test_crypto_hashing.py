"""Tests for the hashing helpers."""

from __future__ import annotations

import hashlib

from hypothesis import given, strategies as st

from repro.crypto.hashing import (
    H,
    HASH_DOMAIN,
    HASHLEN_BITS,
    sha512,
)
from repro.sortition.selection import hash_to_fraction


class TestH:
    def test_matches_sha256(self):
        assert H(b"abc") == hashlib.sha256(b"abc").digest()

    def test_multi_part_concatenates(self):
        assert H(b"ab", b"c") == H(b"abc")

    def test_length(self):
        assert len(H(b"x")) * 8 == HASHLEN_BITS

    def test_domain_constant(self):
        assert HASH_DOMAIN == 2 ** HASHLEN_BITS


class TestSha512:
    def test_matches_stdlib(self):
        assert sha512(b"abc") == hashlib.sha512(b"abc").digest()

    def test_multi_part(self):
        assert sha512(b"a", b"bc") == sha512(b"abc")


class TestConversions:
    def test_hash_to_int_range(self):
        value = int.from_bytes(H(b"anything"), "big")
        assert 0 <= value < HASH_DOMAIN

    def test_hash_fraction_range(self):
        assert 0.0 <= hash_to_fraction(H(b"x")) < 1.0

    def test_hash_fraction_extremes(self):
        assert hash_to_fraction(bytes(32)) == 0.0
        assert hash_to_fraction(b"\xff" * 32) < 1.0


@given(st.binary(max_size=64))
def test_h_deterministic_property(data):
    assert H(data) == H(data)
    assert 0.0 <= hash_to_fraction(H(data)) < 1.0
