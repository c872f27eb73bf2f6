"""Tests for the section 5.3 weight look-back (+ nothing-at-stake floor)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.common.params import TEST_PARAMS, ProtocolParams
from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.arraystate import ArrayWeights
from repro.ledger.blockchain import Blockchain
from repro.ledger.block import Block, empty_block
from repro.ledger.transaction import Transaction
from repro.common.errors import LedgerError
from repro.node.agent import sortition_weights
from tests.reference_ledger import AccountState


class TestWeightHistory:
    def test_snapshot_per_round(self):
        chain = Blockchain({b"a" * 32: 10, b"b" * 32: 20}, H(b"g"), 10)
        chain.append(empty_block(1, chain.tip_hash))
        assert chain.weights_at(0) == chain.weights_at(1)
        assert chain.weights_at(1) == {b"a" * 32: 10, b"b" * 32: 20}

    def test_snapshot_frozen_against_later_changes(self):
        from repro.crypto.backend import FastBackend
        from repro.ledger.transaction import make_transaction
        from repro.sortition.seed import propose_seed
        from repro.ledger.block import Block

        backend = FastBackend()
        alice = backend.keypair(H(b"wl-alice"))
        bob = backend.keypair(H(b"wl-bob"))
        chain = Blockchain({alice.public: 30, bob.public: 10}, H(b"g"), 10)
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 25, 0)
        seed, proof = propose_seed(backend, alice.secret,
                                   chain.seed_of_round(0), 1)
        block = Block(round_number=1, prev_hash=chain.tip_hash,
                      timestamp=1.0, seed=seed, seed_proof=proof,
                      proposer=alice.public, proposer_vrf_hash=H(b"v"),
                      proposer_vrf_proof=b"p", proposer_priority=H(b"v"),
                      transactions=(tx,))
        chain.append(block)
        assert chain.weights_at(0)[alice.public] == 30
        assert chain.weights_at(1)[alice.public] == 5
        assert chain.weights_at(1)[bob.public] == 35

    def test_missing_snapshot_raises(self):
        chain = Blockchain({b"a" * 32: 10}, H(b"g"), 10)
        with pytest.raises(LedgerError):
            chain.weights_at(5)


def _lookback_params(take_min: bool = False) -> ProtocolParams:
    return dataclasses.replace(TEST_PARAMS, weight_lookback_rounds=2,
                               lookback_take_min=take_min)


class TestLookbackConsensus:
    def test_rounds_complete_with_lookback(self):
        sim = Simulation(SimulationConfig(
            num_users=16, seed=44, params=_lookback_params()))
        sim.submit_payments(30)
        sim.run_rounds(3)
        assert sim.all_chains_equal()
        for round_number in (1, 2, 3):
            assert len(sim.outcome().agreed_hashes(round_number)) == 1

    def test_lookback_context_uses_old_weights(self):
        sim = Simulation(SimulationConfig(
            num_users=16, seed=44, params=_lookback_params()))
        sim.submit_payments(40)
        sim.run_rounds(3)
        node = sim.nodes[0]
        # Context for round 4 must be the snapshot from round
        # 4 - 1 - 2 = 1, not current state.
        expected = node.chain.weights_at(1)
        assert sortition_weights(node.chain, node.params, 4) == expected
        # And current state has actually drifted (payments committed).
        assert node.chain.state.weights() != expected

    def test_take_min_floors_by_current_balance(self):
        sim = Simulation(SimulationConfig(
            num_users=16, seed=44, params=_lookback_params(take_min=True)))
        sim.submit_payments(40)
        sim.run_rounds(3)
        node = sim.nodes[0]
        weights = sortition_weights(node.chain, node.params, 4)
        snapshot = node.chain.weights_at(1)
        current = node.chain.state.weights()
        for public, value in weights.items():
            assert value == min(snapshot[public], current.get(public, 0))
            assert value > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_take_min_matches_the_dict_oracle(self, seed):
        """The floor is one array minimum; the oracle is the per-key
        dict merge it replaced, over the dict ledger's own tables."""
        rng = np.random.default_rng(seed)
        keys = [H(b"lookback-key", bytes([i])) for i in range(14)]
        genesis = {key: int(rng.integers(1, 9)) for key in keys[:6]}
        chain = Blockchain(genesis, H(b"g"), 10)
        oracle = AccountState(genesis)
        tables = [dict(oracle.weights())]
        params = _lookback_params(take_min=True)
        for round_number in range(1, 9):
            # Rounds 4+ may pay keys 6..13: accounts the older snapshot
            # has never heard of, on slots past its (8-slot) buffer.
            reach = 6 if round_number < 4 else len(keys)
            txs = []
            for _ in range(int(rng.integers(0, 5))):
                funded = [key for key in keys if oracle.balance(key)]
                sender = funded[int(rng.integers(len(funded)))]
                recipient = keys[int(rng.integers(reach))]
                if recipient == sender:
                    continue
                tx = Transaction(
                    sender=sender, recipient=recipient,
                    amount=int(rng.integers(1, oracle.balance(sender) + 1)),
                    nonce=oracle.next_nonce(sender))
                oracle.apply(tx)
                txs.append(tx)
            chain.append(Block(round_number=round_number,
                               prev_hash=chain.tip_hash,
                               timestamp=float(round_number),
                               transactions=tuple(txs)))
            tables.append(dict(oracle.weights()))
            older = tables[max(0, round_number - 2)]
            floored = {key: min(balance, tables[-1].get(key, 0))
                       for key, balance in older.items()}
            expected = {key: b for key, b in floored.items() if b}
            weights = sortition_weights(chain, params, round_number + 1)
            assert isinstance(weights, ArrayWeights) and weights.frozen
            assert weights._index is chain.index
            assert dict(weights) == expected
            assert weights.total == sum(expected.values())
            assert len(weights) == len(expected)
        grown = [key for key in keys[6:] if key in tables[-1]]
        assert grown and len(chain.weights_at(1).array) \
            < len(chain.state.weights().array)

    def test_validation_of_negative_lookback(self):
        with pytest.raises(ValueError):
            ProtocolParams(weight_lookback_rounds=-1)
