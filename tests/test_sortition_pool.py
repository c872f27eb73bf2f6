"""Pool sortition vs. the per-user oracle.

The aggregated population stands on one claim: the vectorized screen in
:mod:`repro.sortition.pool` selects *exactly* the accounts the scalar
per-user path selects, with bit-identical proofs and sub-user counts.
These tests hammer that claim on random stake vectors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import SortitionError
from repro.crypto.backend import Ed25519Backend, FastBackend
from repro.crypto.hashing import H
from repro.common.encoding import encode
from repro.sortition.pool import pool_fractions, pool_select
from repro.sortition.selection import (
    hash_to_fraction,
    selection_stats,
    sortition,
)


def make_pool(backend, n, rng, max_weight=5):
    secrets = []
    for i in range(n):
        kp = backend.keypair(H(b"pool-key", encode(int(i))))
        secrets.append(kp.secret)
    weights = rng.integers(0, max_weight + 1, size=n).astype(np.int64)
    return secrets, weights


def oracle_winners(backend, secrets, weights, tau, total, seed, role):
    """The unchanged scalar path, run slot by slot."""
    winners = {}
    for slot, (secret, weight) in enumerate(zip(secrets, weights)):
        if weight == 0:
            continue
        proof = sortition(backend, secret, seed, tau, role,
                          int(weight), total)
        if proof.j > 0:
            winners[slot] = proof
    return winners


def per_slot_fractions(backend, secrets, weights, alpha):
    """The screen's input the way it was computed before the backend
    answered a whole role in one sweep: one VRF hash per staked slot."""
    prefixes = bytearray(8 * len(secrets))
    for slot in np.flatnonzero(weights):
        slot = int(slot)
        prefixes[8 * slot:8 * slot + 8] = backend.vrf_prove(secrets[slot],
                                                            alpha)[0][:8]
    tops = np.frombuffer(bytes(prefixes), dtype=">u8") >> np.uint64(11)
    fractions = tops.astype(np.float64) / float(1 << 53)
    return np.where(weights > 0, fractions, np.nan)


class TestOracleEquivalence:
    @pytest.mark.parametrize("trial", range(8))
    def test_pool_matches_per_user_path(self, trial):
        backend = FastBackend()
        rng = np.random.default_rng(1000 + trial)
        secrets, weights = make_pool(backend, 48, rng)
        total = int(weights.sum())
        if total == 0:
            pytest.skip("degenerate stake draw")
        seed = H(b"seed", encode(trial))
        role = b"role:" + bytes([trial])
        tau = float(rng.integers(1, max(2, total)))
        expected = oracle_winners(backend, secrets, weights, tau, total,
                                  seed, role)
        result = pool_select(backend, secrets, weights, tau, total,
                             seed, role)
        assert set(result.winners) == set(expected)
        for slot, proof in result.winners.items():
            assert proof == expected[slot]  # hash, proof, and exact j

    def test_extreme_tau_selects_all_staked(self):
        backend = FastBackend()
        rng = np.random.default_rng(7)
        secrets, weights = make_pool(backend, 20, rng)
        total = int(weights.sum())
        seed, role = H(b"s"), b"r"
        result = pool_select(backend, secrets, weights, float(total * 2),
                             total, seed, role)
        staked = set(np.flatnonzero(weights).tolist())
        # p >= 1: every staked account is a candidate AND a winner
        # (B(0; w, 1) = 0 so any fraction clears it, j = w).
        assert set(result.winners) == staked
        assert result.candidates == len(staked)
        for slot, proof in result.winners.items():
            assert proof.j == weights[slot]

    def test_zero_weight_slots_never_selected(self):
        backend = FastBackend()
        rng = np.random.default_rng(11)
        secrets, weights = make_pool(backend, 30, rng)
        weights[::2] = 0
        total = int(weights.sum())
        result = pool_select(backend, secrets, weights, 10.0, total,
                             H(b"s"), b"r")
        assert all(weights[slot] > 0 for slot in result.winners)
        assert result.evaluated == int(np.count_nonzero(weights))


class TestFractions:
    def test_fractions_match_scalar_hash_path(self):
        backend = FastBackend()
        rng = np.random.default_rng(3)
        secrets, weights = make_pool(backend, 16, rng)
        alpha = H(b"alpha")
        fractions = pool_fractions(backend, secrets, weights, alpha)
        for slot, secret in enumerate(secrets):
            if weights[slot] == 0:
                assert np.isnan(fractions[slot])
            else:
                vrf_hash, _ = backend.vrf_prove(secret, alpha)
                assert fractions[slot] == hash_to_fraction(vrf_hash)

    @pytest.mark.parametrize("kind", ["fast", "ed25519"])
    def test_one_sweep_is_bit_identical_to_the_per_slot_path(self, kind):
        backend = Ed25519Backend() if kind == "ed25519" else FastBackend()
        secrets, weights = make_pool(backend, 6 if kind == "ed25519" else 40,
                                     np.random.default_rng(17))
        weights[1] = weights[-1] = 0
        assert (weights == 0).sum() >= 2
        alpha = H(b"alpha")
        fractions = pool_fractions(backend, secrets, weights, alpha)
        assert (fractions.tobytes()
                == per_slot_fractions(backend, secrets, weights,
                                      alpha).tobytes())

    def test_length_mismatch_rejected(self):
        backend = FastBackend()
        with pytest.raises(SortitionError):
            pool_fractions(backend, [b"x" * 32], np.ones(2), H(b"a"))


class TestStats:
    def test_pool_counters_advance(self):
        backend = FastBackend()
        rng = np.random.default_rng(5)
        secrets, weights = make_pool(backend, 25, rng)
        total = int(weights.sum())
        result = pool_select(backend, secrets, weights, 8.0, total,
                             H(b"s"), b"r")
        stats = selection_stats(backend)
        assert stats.pool_evaluations == result.evaluated
        assert stats.pool_candidates == result.candidates
        assert stats.pool_selected == len(result.winners)

    def test_invalid_inputs_rejected(self):
        backend = FastBackend()
        secrets, weights = make_pool(backend, 4,
                                     np.random.default_rng(1))
        with pytest.raises(SortitionError):
            pool_select(backend, secrets, weights, 0.0,
                        int(weights.sum()), H(b"s"), b"r")
        with pytest.raises(SortitionError):
            pool_select(backend, secrets, weights, 5.0, 0, H(b"s"), b"r")
