"""Tests for the canonical encoding codec."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.encoding import MAX_DEPTH, decode, encode


class TestEncodeBasics:
    def test_none(self):
        assert decode(encode(None)) is None

    def test_booleans(self):
        assert decode(encode(True)) is True
        assert decode(encode(False)) is False

    def test_bool_is_not_int_encoding(self):
        # bool is a subclass of int; the codec must not conflate them.
        assert encode(True) != encode(1)
        assert encode(False) != encode(0)

    def test_small_ints(self):
        for value in (0, 1, -1, 127, 128, -128, -129, 255, 256):
            assert decode(encode(value)) == value

    def test_big_ints(self):
        value = 2**300 - 17
        assert decode(encode(value)) == value
        assert decode(encode(-value)) == -value

    def test_floats(self):
        for value in (0.0, -0.0, 1.5, -2.25, 1e300, 5.0):
            assert decode(encode(value)) == value

    def test_bytes_and_str(self):
        assert decode(encode(b"\x00\xff")) == b"\x00\xff"
        assert decode(encode("héllo")) == "héllo"

    def test_nested_list(self):
        value = [1, [b"x", "y"], None, [True, [2]]]
        assert decode(encode(value)) == value

    def test_tuple_encodes_as_list(self):
        assert encode((1, 2)) == encode([1, 2])

    def test_dict_sorted_keys(self):
        assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})
        assert decode(encode({"a": 1})) == {"a": 1}

    def test_dict_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            encode({1: "x"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            encode(object())


def _q(n: int) -> bytes:
    return struct.pack(">Q", n)


class TestGoldenVectors:
    """The canonical bytes are frozen: every hash and signature in every
    chain ever produced depends on them, so they are pinned literally."""

    @pytest.mark.parametrize("value, expected", [
        (None, b"N"), (True, b"T"), (False, b"F"),
        (0, b"I" + _q(1) + b"\x00"),
        (1, b"I" + _q(1) + b"\x01"),
        (-1, b"I" + _q(1) + b"\xff"),
        (127, b"I" + _q(1) + b"\x7f"),
        (128, b"I" + _q(2) + b"\x00\x80"),
        (255, b"I" + _q(2) + b"\x00\xff"),
        (256, b"I" + _q(2) + b"\x01\x00"),
        (-127, b"I" + _q(1) + b"\x81"),
        (-128, b"I" + _q(1) + b"\x80"),
        (-129, b"I" + _q(2) + b"\xff\x7f"),
        (-256, b"I" + _q(2) + b"\xff\x00"),
        (-32768, b"I" + _q(2) + b"\x80\x00"),
        (-32769, b"I" + _q(3) + b"\xff\x7f\xff"),
        (-2**63, b"I" + _q(8) + b"\x80" + b"\x00" * 7),
        (2**63, b"I" + _q(9) + b"\x00\x80" + b"\x00" * 7),
        (2**64 - 1, b"I" + _q(9) + b"\x00" + b"\xff" * 8),
        (1.5, b"f" + struct.pack(">d", 1.5)),
        (-0.0, b"f\x80" + b"\x00" * 7),
        (b"", b"B" + _q(0)),
        (b"\x00\xff", b"B" + _q(2) + b"\x00\xff"),
        (bytearray(b"ab"), b"B" + _q(2) + b"ab"),
        (memoryview(b"ab"), b"B" + _q(2) + b"ab"),
        ("", b"S" + _q(0)),
        ("h\u00e9", b"S" + _q(3) + b"h\xc3\xa9"),
        ([], b"L" + _q(0)),
        ((1, None), b"L" + _q(2) + b"I" + _q(1) + b"\x01N"),
        ([[True], b"x"], b"L" + _q(2) + b"L" + _q(1) + b"T"
         + b"B" + _q(1) + b"x"),
        ({}, b"D" + _q(0)),
        ({"b": 1, "a": {"z": None, "y": False}},
         b"D" + _q(2)
         + b"S" + _q(1) + b"a" + b"D" + _q(2)
         + b"S" + _q(1) + b"y" + b"F" + b"S" + _q(1) + b"z" + b"N"
         + b"S" + _q(1) + b"b" + b"I" + _q(1) + b"\x01"),
    ])
    def test_pinned_bytes(self, value, expected):
        assert encode(value) == expected

    def test_bool_and_int_have_different_tags(self):
        assert encode([True, 1, False, 0]) == (
            b"L" + _q(4) + b"T" + b"I" + _q(1) + b"\x01"
            + b"F" + b"I" + _q(1) + b"\x00")

    def test_a_vote_signing_payload(self):
        """One real hash input, end to end."""
        payload = encode(["vote", 7, "final", b"\x01" * 2])
        assert payload.hex() == (
            "4c0000000000000004"
            "530000000000000004766f7465"
            "49000000000000000107"
            "53000000000000000566696e616c"
            "4200000000000000020101")

    def test_subclasses_encode_as_their_base(self):
        class Key(bytes):
            pass

        class Count(int):
            pass

        assert encode([Key(b"k"), Count(5)]) == encode([b"k", 5])


def _reference_encode(value) -> bytes:
    """The implementation this codec replaced, kept as the oracle."""
    def length(n):
        return struct.pack(">Q", n)

    if value is None:
        return b"N"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big",
                             signed=True) if value else b"\x00"
        while len(raw) > 1 and ((raw[0] == 0x00 and raw[1] < 0x80)
                                or (raw[0] == 0xFF and raw[1] >= 0x80)):
            raw = raw[1:]
        return b"I" + length(len(raw)) + raw
    if isinstance(value, float):
        return b"f" + struct.pack(">d", value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return b"B" + length(len(value)) + bytes(value)
    if isinstance(value, str):
        data = value.encode("utf-8")
        return b"S" + length(len(data)) + data
    if isinstance(value, (list, tuple)):
        return b"L" + length(len(value)) + b"".join(
            _reference_encode(item) for item in value)
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("canonical encoding requires string dict keys")
        return b"D" + length(len(value)) + b"".join(
            _reference_encode(key) + _reference_encode(value[key])
            for key in sorted(value))
    raise TypeError(f"cannot canonically encode {type(value).__name__}")


class TestNestingBound:
    def test_deep_input_is_a_value_error_not_a_recursion_error(self):
        hostile = (b"L" + _q(1)) * 5000 + b"N"
        with pytest.raises(ValueError, match="nested too deeply"):
            decode(hostile)

    def test_both_directions_share_the_bound(self):
        value = None
        for _ in range(MAX_DEPTH):
            value = [value]
        assert decode(encode(value)) == value
        with pytest.raises(ValueError, match="nested too deeply"):
            encode([value])
        with pytest.raises(ValueError, match="nested too deeply"):
            decode(_reference_encode({"k": value}))

    def test_non_string_dict_key_rejected_on_decode(self):
        with pytest.raises(ValueError):
            decode(b"D" + _q(1) + encode(1) + encode(2))

    def test_huge_declared_length_fails_fast(self):
        for tag in (b"B", b"S", b"I", b"L", b"D"):
            with pytest.raises(ValueError):
                decode(tag + _q(2**63) + b"xx")


class TestDecodeErrors:
    def test_truncated(self):
        data = encode([1, 2, 3])
        with pytest.raises(ValueError):
            decode(data[:-1])

    def test_trailing_bytes(self):
        with pytest.raises(ValueError):
            decode(encode(1) + b"x")

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            decode(b"Z")

    def test_empty(self):
        with pytest.raises(ValueError):
            decode(b"")


class TestInjectivity:
    """Distinct values must never share an encoding (consensus depends
    on it: nodes sign and hash these bytes)."""

    def test_int_vs_str(self):
        assert encode(1) != encode("1")

    def test_bytes_vs_str(self):
        assert encode(b"a") != encode("a")

    def test_list_nesting(self):
        assert encode([[1], 2]) != encode([1, [2]])
        assert encode([b"ab"]) != encode([b"a", b"b"])

    def test_concatenation_ambiguity(self):
        # [x, y] as a list differs from separate encodings concatenated.
        assert encode([1, 2]) != encode(1) + encode(2)


_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)


@settings(max_examples=500, deadline=None)
@given(_values | st.integers(-2**70, 2**70)
       | st.integers(0, 80).map(lambda bits: -(2**bits)))
def test_same_function_as_the_reference_walker(value):
    assert encode(value) == _reference_encode(value)


@given(_values)
def test_roundtrip_property(value):
    decoded = decode(encode(value))
    _assert_equivalent(decoded, value)


@given(_values, _values)
def test_injective_property(a, b):
    if encode(a) == encode(b):
        _assert_equivalent(a, b)


def _assert_equivalent(a, b):
    """Equality modulo tuple/list and int/float identity subtleties."""
    if isinstance(a, list) and isinstance(b, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_equivalent(x, y)
    elif isinstance(a, float) and isinstance(b, float):
        assert math.copysign(1, a) == math.copysign(1, b) and a == b
    else:
        assert type(a) is type(b)
        assert a == b
