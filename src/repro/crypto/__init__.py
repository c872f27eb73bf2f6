"""Cryptographic substrate: hashing, Ed25519, VRF, pluggable backends."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.crypto.backend import (
        CryptoBackend, Ed25519Backend, FastBackend, KeyPair,
    )
    from repro.crypto.hashing import (
        H, HASHLEN_BITS, hash_fraction, hash_to_int,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.crypto.backend": (
        "CryptoBackend", "Ed25519Backend", "FastBackend", "KeyPair",
    ),
    "repro.crypto.hashing": (
        "H", "HASHLEN_BITS", "hash_fraction", "hash_to_int",
    ),
})

__all__ = [
    "H",
    "HASHLEN_BITS",
    "hash_fraction",
    "hash_to_int",
    "CryptoBackend",
    "Ed25519Backend",
    "FastBackend",
    "KeyPair",
]
