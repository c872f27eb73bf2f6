"""Tests for the seed schedule (sections 5.2 and 5.3) and roles."""

from __future__ import annotations

import pytest

from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.sortition.roles import (
    committee_role,
    fork_proposer_role,
    proposer_role,
)
from repro.sortition.seed import (
    SeedChain,
    fallback_seed,
    propose_seed,
    selection_round,
    verify_seed,
)


class TestRoles:
    def test_roles_distinct(self):
        roles = {
            proposer_role(1),
            proposer_role(2),
            committee_role(1, 1),
            committee_role(1, 2),
            committee_role(2, 1),
            committee_role(1, "final"),
            fork_proposer_role(1, 0),
            fork_proposer_role(1, 1),
        }
        assert len(roles) == 8

    def test_committee_role_step_types(self):
        # int and str step spellings of the same step must coincide,
        # because BinaryBA* steps are stringified step numbers.
        assert committee_role(3, 7) == committee_role(3, "7")

    def test_roles_deterministic(self):
        assert proposer_role(5) == proposer_role(5)


class TestSeedProposal:
    def setup_method(self):
        self.backend = FastBackend()
        self.kp = self.backend.keypair(H(b"proposer"))

    def test_propose_verify_roundtrip(self):
        seed, proof = propose_seed(self.backend, self.kp.secret,
                                   b"prev-seed", 7)
        assert verify_seed(self.backend, self.kp.public, seed, proof,
                           b"prev-seed", 7)

    def test_verify_rejects_wrong_round(self):
        seed, proof = propose_seed(self.backend, self.kp.secret,
                                   b"prev-seed", 7)
        assert not verify_seed(self.backend, self.kp.public, seed, proof,
                               b"prev-seed", 8)

    def test_verify_rejects_wrong_prev_seed(self):
        seed, proof = propose_seed(self.backend, self.kp.secret,
                                   b"prev-seed", 7)
        assert not verify_seed(self.backend, self.kp.public, seed, proof,
                               b"other-seed", 7)

    def test_verify_rejects_substituted_seed(self):
        _, proof = propose_seed(self.backend, self.kp.secret,
                                b"prev-seed", 7)
        assert not verify_seed(self.backend, self.kp.public,
                               H(b"attacker-seed"), proof, b"prev-seed", 7)

    def test_seed_not_proposer_controllable(self):
        """The proposer cannot pick the seed: it is a VRF output fixed by
        (sk, prev seed, round)."""
        seed1, _ = propose_seed(self.backend, self.kp.secret, b"prev", 7)
        seed2, _ = propose_seed(self.backend, self.kp.secret, b"prev", 7)
        assert seed1 == seed2

    def test_fallback_seed_deterministic(self):
        assert fallback_seed(b"prev", 7) == fallback_seed(b"prev", 7)
        assert fallback_seed(b"prev", 7) != fallback_seed(b"prev", 8)


class TestSelectionRound:
    def test_paper_rule(self):
        # r - 1 - (r mod R)
        assert selection_round(10, 1000) == 0  # clamped
        assert selection_round(1500, 1000) == 999
        assert selection_round(2500, 1000) == 1999

    def test_refresh_interval_one(self):
        # R = 1: always the previous round's seed.
        assert selection_round(5, 1) == 4

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            selection_round(5, 0)


class TestSeedChain:
    def test_genesis(self):
        chain = SeedChain(b"genesis", 10)
        assert chain.seed_of_round(0) == b"genesis"
        assert len(chain) == 1

    def test_append_and_select(self):
        chain = SeedChain(b"genesis", 1)
        for r in range(1, 6):
            chain.append(H(b"seed", bytes([r])))
        # R=1: selection seed for round r is seed of round r-1.
        assert chain.selection_seed(3) == chain.seed_of_round(2)

    def test_selection_uses_refresh_interval(self):
        chain = SeedChain(b"genesis", 4)
        for r in range(1, 12):
            chain.append(H(bytes([r])))
        # round 10: 10 - 1 - (10 % 4) = 7
        assert chain.selection_seed(10) == chain.seed_of_round(7)

    def test_empty_genesis_rejected(self):
        with pytest.raises(ValueError):
            SeedChain(b"", 10)
