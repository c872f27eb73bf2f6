"""Hash functions used throughout the protocol.

The paper uses SHA-256 as its cryptographic hash ``H`` (section 9) and
models it as a random oracle for seed derivation (section 5.2). All
protocol-level hashing goes through :func:`H` so the choice is made in
exactly one place.
"""

from __future__ import annotations

import hashlib

#: Bit length of protocol hashes (``hashlen`` in Algorithms 1, 2 and 9).
HASHLEN_BITS = 256

#: ``2 ** HASHLEN_BITS``; hashes are compared against fractions of this.
HASH_DOMAIN = 1 << HASHLEN_BITS


def H(*parts: bytes) -> bytes:
    """SHA-256 over the concatenation of ``parts``.

    Callers are responsible for unambiguous input framing (the library
    always passes canonically encoded messages, so concatenation is safe).
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.digest()


def hash_state(*parts: bytes) -> "hashlib._Hash":
    """The SHA-256 state after absorbing ``parts``.

    For hashing many messages that share a prefix: ``copy()`` the state
    and ``update`` each suffix, so the prefix is absorbed once.
    ``hash_state(a).copy()`` updated with ``b`` digests to ``H(a, b)``.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest


def sha512(*parts: bytes) -> bytes:
    """SHA-512, used internally by Ed25519 and the VRF suite."""
    digest = hashlib.sha512()
    for part in parts:
        digest.update(part)
    return digest.digest()
