"""Cryptographic substrate: hashing, Ed25519, VRF, pluggable backends."""

from repro.crypto.backend import (
    CachedBackend,
    CryptoBackend,
    Ed25519Backend,
    FastBackend,
    KeyPair,
    default_backend,
)
from repro.crypto.counting import CountingBackend, CryptoOpCounts
from repro.crypto.hashing import H, HASHLEN_BITS, hash_fraction, hash_to_int

__all__ = [
    "H",
    "HASHLEN_BITS",
    "hash_fraction",
    "hash_to_int",
    "CachedBackend",
    "CryptoBackend",
    "Ed25519Backend",
    "FastBackend",
    "KeyPair",
    "default_backend",
    "CountingBackend",
    "CryptoOpCounts",
]
