"""Shared building blocks: parameters, canonical encoding, errors."""
