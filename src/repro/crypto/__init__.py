"""Cryptographic substrate: hashing, Ed25519, VRF, pluggable backends."""

from repro.crypto.backend import (
    CryptoBackend,
    Ed25519Backend,
    FastBackend,
    KeyPair,
)
from repro.crypto.hashing import H, HASHLEN_BITS, hash_fraction, hash_to_int

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
