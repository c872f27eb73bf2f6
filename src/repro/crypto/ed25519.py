"""Pure-Python Ed25519 (RFC 8032).

The paper's prototype signs all gossip messages with keys over Curve25519
(section 9). This module implements the Ed25519 signature scheme from
scratch: field arithmetic modulo ``2**255 - 19``, twisted Edwards point
operations in extended homogeneous coordinates, and the RFC 8032
sign/verify procedures. It is validated against the RFC 8032 test vectors
in the test suite.

This implementation favours clarity over speed; large-scale simulations use
the fast backend in :mod:`repro.crypto.backend` instead (mirroring the
paper's own substitution of verification work in its 500k-user experiment).
"""

from __future__ import annotations

from repro.common.errors import CryptoError, SignatureError
from repro.crypto.hashing import sha512

# --- Field and curve constants (RFC 8032, section 5.1) -------------------

#: Field prime p = 2^255 - 19.
P = 2**255 - 19
#: Group order q (a prime); the base point B has order q.
Q = 2**252 + 27742317777372353535851937790883648493
#: Edwards curve constant d = -121665/121666 mod p.
D = -121665 * pow(121666, P - 2, P) % P
#: sqrt(-1) mod p, used during point decompression.
SQRT_M1 = pow(2, (P - 1) // 4, P)

# Extended homogeneous coordinates: a point is (X, Y, Z, T) with
# x = X/Z, y = Y/Z, x*y = T/Z.
_Point = tuple[int, int, int, int]

#: The neutral element.
IDENTITY: _Point = (0, 1, 1, 0)


def _point_from_affine(x: int, y: int) -> _Point:
    return (x % P, y % P, 1, (x * y) % P)


# Base point B (RFC 8032): y = 4/5, x recovered with even sign.
_BY = 4 * pow(5, P - 2, P) % P


def _recover_x(y: int, sign: int) -> int:
    """Solve x^2 = (y^2 - 1) / (d y^2 + 1) mod p; raise if no root."""
    if y >= P:
        raise CryptoError("y coordinate out of range")
    x2 = (y * y - 1) * pow(D * y * y + 1, P - 2, P) % P
    if x2 == 0:
        if sign:
            raise CryptoError("no square root with requested sign")
        return 0
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P != 0:
        x = x * SQRT_M1 % P
    if (x * x - x2) % P != 0:
        raise CryptoError("point decompression failed: not a square")
    if x & 1 != sign:
        x = P - x
    return x


BASE_POINT: _Point = _point_from_affine(_recover_x(_BY, 0), _BY)


def point_add(p1: _Point, p2: _Point) -> _Point:
    """Add two points (RFC 8032 'add' on extended coordinates)."""
    x1, y1, z1, t1 = p1
    x2, y2, z2, t2 = p2
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * t1 * t2 * D % P
    dd = 2 * z1 * z2 % P
    e = b - a
    f = dd - c
    g = dd + c
    h = b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def point_mul(scalar: int, point: _Point) -> _Point:
    """Scalar multiplication by double-and-add."""
    result = IDENTITY
    addend = point
    while scalar > 0:
        if scalar & 1:
            result = point_add(result, addend)
        addend = point_add(addend, addend)
        scalar >>= 1
    return result


def point_equal(p1: _Point, p2: _Point) -> bool:
    """Compare projective points: X1/Z1 == X2/Z2 and Y1/Z1 == Y2/Z2."""
    x1, y1, z1, _ = p1
    x2, y2, z2, _ = p2
    return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0


def point_compress(point: _Point) -> bytes:
    """Encode a point to 32 bytes (y with the sign of x in the top bit)."""
    x, y, z, _ = point
    zinv = pow(z, P - 2, P)
    x = x * zinv % P
    y = y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def point_decompress(data: bytes) -> _Point:
    """Decode 32 bytes to a point; raise :class:`CryptoError` if invalid."""
    if len(data) != 32:
        raise CryptoError("compressed point must be 32 bytes")
    y = int.from_bytes(data, "little")
    sign = y >> 255
    y &= (1 << 255) - 1
    x = _recover_x(y, sign)
    return _point_from_affine(x, y)


# --- Key generation, signing, verification (RFC 8032, section 5.1.5+) ----


def _secret_expand(secret: bytes) -> tuple[int, bytes]:
    """Expand a 32-byte seed into the clamped scalar and the PRF prefix."""
    if len(secret) != 32:
        raise CryptoError("Ed25519 secret seed must be 32 bytes")
    h = sha512(secret)
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:]


def secret_to_public(secret: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    a, _ = _secret_expand(secret)
    return point_compress(point_mul(a, BASE_POINT))


def secret_scalar(secret: bytes) -> int:
    """The clamped private scalar (needed by the VRF suite)."""
    return _secret_expand(secret)[0]


def sign(secret: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature over ``message``."""
    a, prefix = _secret_expand(secret)
    public = point_compress(point_mul(a, BASE_POINT))
    r = int.from_bytes(sha512(prefix, message), "little") % Q
    r_point = point_compress(point_mul(r, BASE_POINT))
    h = int.from_bytes(sha512(r_point, public, message), "little") % Q
    s = (r + h * a) % Q
    return r_point + s.to_bytes(32, "little")


def verify(public: bytes, message: bytes, signature: bytes) -> None:
    """Verify a signature; raise :class:`SignatureError` on failure."""
    if len(public) != 32:
        raise SignatureError("public key must be 32 bytes")
    if len(signature) != 64:
        raise SignatureError("signature must be 64 bytes")
    try:
        a_point = point_decompress(public)
        r_point = point_decompress(signature[:32])
    except CryptoError as exc:
        raise SignatureError(f"malformed point: {exc}") from exc
    s = int.from_bytes(signature[32:], "little")
    if s >= Q:
        raise SignatureError("signature scalar out of range")
    h = int.from_bytes(sha512(signature[:32], public, message), "little") % Q
    lhs = point_mul(s, BASE_POINT)
    rhs = point_add(r_point, point_mul(h, a_point))
    if not point_equal(lhs, rhs):
        raise SignatureError("signature mismatch")
