"""Canonical byte encoding: the consensus-critical format (frozen).

Consensus requires every honest node to hash and sign *identical* byte
strings, so every hash and signature input on both substrates is
serialized through this one deterministic codec: a small,
self-describing, length-prefixed binary encoding (a simplified canonical
CBOR) — one tag byte, then for sized values an 8-byte big-endian length
or element count. The bytes are frozen: changing one changes every
block hash and invalidates every signature. The *transport* format —
what travels between live nodes — is :mod:`repro.network.wire`'s
compiled layouts, which are free to evolve; the two share nothing.

Supported value types: ``None``, ``bool``, ``int`` (signed, arbitrary
precision), ``float``, ``bytes``, ``str``, ``list``/``tuple`` (encoded
identically) and ``dict`` with string keys (encoded with keys sorted
lexicographically). Dispatch is on the exact type (so ``bool`` never
reads as ``int``); a subclass encodes as its nearest supported base.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

#: Deepest container nesting either direction accepts. Protocol values
#: nest three or four deep; the bound turns a hostile ``LLLL…`` prefix
#: into a ``ValueError`` instead of a ``RecursionError``.
MAX_DEPTH = 32

_pack_head = struct.Struct(">cQ").pack  # tag + length/count
_unpack_length = struct.Struct(">Q").unpack_from
_DOUBLE = struct.Struct(">d")
_SUPPORTED = (int, float, bytes, bytearray, memoryview, str, list, tuple,
              dict)


def encode(value: Any) -> bytes:
    """Serialize ``value`` to canonical bytes.

    Raises:
        TypeError: if ``value`` (or a nested element) has an unsupported
            type, or a dict has non-string keys.
        ValueError: if containers nest deeper than :data:`MAX_DEPTH`.
    """
    parts: list[bytes] = []
    _encode_into(value, parts.append, 0)
    return b"".join(parts)


def _encode_into(value: Any, emit: Callable[[bytes], None],
                 depth: int) -> None:
    kind = type(value)
    if kind is bytes:
        emit(_pack_head(b"B", len(value)))
        emit(value)
    elif kind is int:
        # Minimal big-endian two's complement: ``~value`` has the
        # magnitude bits of a negative number (-128 fits one byte).
        magnitude = value if value >= 0 else ~value
        raw = value.to_bytes((magnitude.bit_length() + 8) >> 3, "big",
                             signed=True)
        emit(_pack_head(b"I", len(raw)))
        emit(raw)
    elif kind is str:
        raw = value.encode("utf-8")
        emit(_pack_head(b"S", len(raw)))
        emit(raw)
    elif kind is list or kind is tuple:
        if depth >= MAX_DEPTH:
            raise ValueError("canonical encoding nested too deeply")
        emit(_pack_head(b"L", len(value)))
        depth += 1
        for item in value:
            _encode_into(item, emit, depth)
    elif value is None:
        emit(b"N")
    elif kind is bool:
        emit(b"T" if value else b"F")
    elif kind is float:
        # IEEE-754 big-endian double: one canonical bit pattern per value.
        emit(b"f" + _DOUBLE.pack(value))
    elif kind is dict:
        if depth >= MAX_DEPTH:
            raise ValueError("canonical encoding nested too deeply")
        if not all(isinstance(key, str) for key in value):
            raise TypeError("canonical encoding requires string dict keys")
        emit(_pack_head(b"D", len(value)))
        depth += 1
        for key in sorted(value):
            _encode_into(key, emit, depth)
            _encode_into(value[key], emit, depth)
    elif kind is bytearray or kind is memoryview:
        _encode_into(bytes(value), emit, depth)
    else:
        for base in kind.__mro__[1:]:
            if base in _SUPPORTED:
                _encode_into(base(value), emit, depth)
                return
        raise TypeError(f"cannot canonically encode {kind.__name__}")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`.

    Raises:
        ValueError: if ``data`` is not a complete canonical encoding, or
            nests deeper than :data:`MAX_DEPTH`.
    """
    try:
        value, end = _decode_at(data, 0, 0)
    except (struct.error, IndexError) as exc:
        raise ValueError("truncated canonical encoding") from exc
    if end != len(data):
        raise ValueError("trailing bytes after canonical encoding")
    return value


def _decode_at(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
    """The value starting at ``data[pos]`` and the offset just past it."""
    tag = data[pos]
    pos += 1
    if tag == 0x4E:  # N
        return None, pos
    if tag == 0x54:  # T
        return True, pos
    if tag == 0x46:  # F
        return False, pos
    if tag == 0x66:  # f
        return _DOUBLE.unpack_from(data, pos)[0], pos + 8
    (length,) = _unpack_length(data, pos)
    pos += 8
    if tag == 0x4C or tag == 0x44:  # L, D
        if depth >= MAX_DEPTH:
            raise ValueError("canonical encoding nested too deeply")
        depth += 1
        if tag == 0x4C:
            items = []
            for _ in range(length):
                item, pos = _decode_at(data, pos, depth)
                items.append(item)
            return items, pos
        mapping = {}
        for _ in range(length):
            key, pos = _decode_at(data, pos, depth)
            if type(key) is not str:
                raise ValueError("canonical dict keys must be strings")
            mapping[key], pos = _decode_at(data, pos, depth)
        return mapping, pos
    end = pos + length
    if end > len(data):
        raise ValueError("truncated canonical encoding")
    if tag == 0x42:  # B
        return data[pos:end], end
    if tag == 0x49:  # I
        return int.from_bytes(data[pos:end], "big", signed=True), end
    if tag == 0x53:  # S
        return data[pos:end].decode("utf-8"), end
    raise ValueError(f"unknown encoding tag {bytes((tag,))!r}")
