"""Cryptographic substrate: hashing, Ed25519, VRF, pluggable backends."""
