"""Seed schedule for sortition (sections 5.2 and 5.3).

Every round publishes a fresh seed. The proposer of round ``r``'s block
computes ``(seed_r, pi) = VRF_sk(seed_{r-1} || r)`` and embeds it in the
block; if the round's block is empty or carries an invalid seed, everyone
falls back to ``seed_r = H(seed_{r-1} || r)`` (the hash is modeled as a
random oracle).

Sortition at round ``r`` does not use ``seed_{r-1}`` directly: to limit
seed grinding, the *selection seed* is refreshed only every ``R`` rounds —
round ``r`` uses the seed of round ``r - 1 - (r mod R)``.
"""

from __future__ import annotations

from repro.common.encoding import encode
from repro.common.errors import CryptoError
from repro.crypto.backend import CryptoBackend
from repro.crypto.hashing import H


def seed_input(previous_seed: bytes, round_number: int) -> bytes:
    """The VRF/hash input ``seed_{r-1} || r``."""
    return previous_seed + encode(round_number)


def propose_seed(backend: CryptoBackend, secret: bytes,
                 previous_seed: bytes,
                 round_number: int) -> tuple[bytes, bytes]:
    """Proposer-side seed for round ``round_number``: ``(seed, proof)``."""
    return backend.vrf_prove(secret, seed_input(previous_seed, round_number))


def verify_seed(backend: CryptoBackend, public: bytes, seed: bytes,
                proof: bytes, previous_seed: bytes,
                round_number: int) -> bool:
    """Check a block's embedded seed against its proposer's VRF proof."""
    try:
        expected = backend.vrf_verify(
            public, proof, seed_input(previous_seed, round_number))
    except CryptoError:
        return False
    return expected == seed


def fallback_seed(previous_seed: bytes, round_number: int) -> bytes:
    """Seed used when the round's block is empty or carries a bad seed."""
    return H(seed_input(previous_seed, round_number))


def accepted_seed(backend: CryptoBackend, block, previous_seed: bytes,
                  round_number: int) -> bytes:
    """The seed round ``round_number`` publishes, given its agreed block.

    Section 5.2's acceptance rule: an empty block, or one whose embedded
    seed fails its proposer's VRF proof, publishes the fallback hash;
    otherwise the block's own seed stands. ``block`` is a
    :class:`repro.ledger.block.Block`, which remembers the verdict.
    """
    if block.is_empty or not block.seed_valid(backend, previous_seed,
                                              round_number):
        return fallback_seed(previous_seed, round_number)
    return block.seed


def selection_round(round_number: int, refresh_interval: int) -> int:
    """The round whose seed governs sortition at ``round_number``.

    Implements the paper's ``r - 1 - (r mod R)`` rule; clamped at 0 so the
    genesis seed covers the first rounds.
    """
    if refresh_interval < 1:
        raise ValueError("refresh interval must be >= 1")
    return max(0, round_number - 1 - (round_number % refresh_interval))


class SeedChain:
    """Tracks the per-round seed sequence for one chain of blocks.

    The chain stores ``seed_r`` for every round agreed so far and answers
    ``selection_seed(r)`` queries under the refresh-interval rule.
    """

    def __init__(self, genesis_seed: bytes, refresh_interval: int) -> None:
        if len(genesis_seed) == 0:
            raise ValueError("genesis seed must be non-empty")
        self._seeds: list[bytes] = [genesis_seed]
        self._refresh_interval = refresh_interval

    @property
    def refresh_interval(self) -> int:
        return self._refresh_interval

    def copy(self) -> "SeedChain":
        """Independent clone (seeds are immutable bytes, list is copied)."""
        clone = SeedChain(self._seeds[0], self._refresh_interval)
        clone._seeds = list(self._seeds)
        return clone

    def __len__(self) -> int:
        return len(self._seeds)

    def seed_of_round(self, round_number: int) -> bytes:
        """The published seed of ``round_number`` (0 == genesis)."""
        return self._seeds[round_number]

    def append(self, seed: bytes) -> None:
        """Record the next round's seed (round ``len(self)``)."""
        self._seeds.append(seed)

    def selection_seed(self, round_number: int) -> bytes:
        """Seed to pass to sortition for ``round_number`` (section 5.2)."""
        return self._seeds[
            selection_round(round_number, self._refresh_interval)
        ]
