"""Tests for blocks, block validation, the blockchain and storage."""

from __future__ import annotations

import pytest

from repro.common.errors import InvalidBlock, LedgerError
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.ledger.arraystate import ArrayState
from repro.ledger.block import (
    Block,
    empty_block,
    empty_block_hash,
    validate_block,
)
from repro.ledger.blockchain import Blockchain
from repro.ledger.storage import ShardedStore, shard_of_key, stores_round
from repro.ledger.transaction import make_transaction
from repro.sortition.seed import propose_seed


@pytest.fixture
def backend():
    return FastBackend()


@pytest.fixture
def alice(backend):
    return backend.keypair(H(b"alice"))


@pytest.fixture
def bob(backend):
    return backend.keypair(H(b"bob"))


def _real_block(backend, proposer, round_number, prev_hash, prev_seed,
                timestamp=10.0, transactions=()):
    seed, seed_proof = propose_seed(backend, proposer.secret, prev_seed,
                                    round_number)
    return Block(
        round_number=round_number, prev_hash=prev_hash,
        timestamp=timestamp, seed=seed, seed_proof=seed_proof,
        proposer=proposer.public, proposer_vrf_hash=H(b"vrf"),
        proposer_vrf_proof=b"proof", proposer_priority=H(b"prio"),
        transactions=tuple(transactions),
    )


class TestEmptyBlock:
    def test_deterministic_across_constructions(self):
        a = empty_block(3, H(b"prev"))
        b = empty_block(3, H(b"prev"))
        assert a.block_hash == b.block_hash
        assert a.block_hash == empty_block_hash(3, H(b"prev"))

    def test_distinct_per_round_and_parent(self):
        assert empty_block_hash(3, H(b"x")) != empty_block_hash(4, H(b"x"))
        assert empty_block_hash(3, H(b"x")) != empty_block_hash(3, H(b"y"))

    def test_is_empty(self):
        assert empty_block(1, H(b"p")).is_empty
        assert empty_block(1, H(b"p")).payload_size == 0


class TestValidateBlock:
    def _state(self, alice):
        return ArrayState({alice.public: 100})

    def test_valid_block_passes(self, backend, alice, bob):
        state = self._state(alice)
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 5, 0)
        block = _real_block(backend, alice, 1, H(b"prev"), b"seed0",
                            transactions=[tx])
        validate_block(block, backend=backend, state=state,
                       prev_hash=H(b"prev"), round_number=1,
                       prev_timestamp=0.0, now=10.0)

    def test_wrong_prev_hash(self, backend, alice):
        block = _real_block(backend, alice, 1, H(b"prev"), b"seed0")
        with pytest.raises(InvalidBlock):
            validate_block(block, backend=backend, state=self._state(alice),
                           prev_hash=H(b"other"), round_number=1,
                           prev_timestamp=0.0, now=10.0)

    def test_wrong_round(self, backend, alice):
        block = _real_block(backend, alice, 1, H(b"prev"), b"seed0")
        with pytest.raises(InvalidBlock):
            validate_block(block, backend=backend, state=self._state(alice),
                           prev_hash=H(b"prev"), round_number=2,
                           prev_timestamp=0.0, now=10.0)

    def test_stale_timestamp(self, backend, alice):
        block = _real_block(backend, alice, 1, H(b"prev"), b"seed0",
                            timestamp=5.0)
        with pytest.raises(InvalidBlock):
            validate_block(block, backend=backend, state=self._state(alice),
                           prev_hash=H(b"prev"), round_number=1,
                           prev_timestamp=7.0, now=10.0)

    def test_future_timestamp(self, backend, alice):
        block = _real_block(backend, alice, 1, H(b"prev"), b"seed0",
                            timestamp=99999.0)
        with pytest.raises(InvalidBlock):
            validate_block(block, backend=backend, state=self._state(alice),
                           prev_hash=H(b"prev"), round_number=1,
                           prev_timestamp=0.0, now=10.0)

    def test_invalid_transactions(self, backend, alice, bob):
        overspend = make_transaction(backend, alice.secret, alice.public,
                                     bob.public, 1000, 0)
        block = _real_block(backend, alice, 1, H(b"prev"), b"seed0",
                            transactions=[overspend])
        with pytest.raises(InvalidBlock):
            validate_block(block, backend=backend, state=self._state(alice),
                           prev_hash=H(b"prev"), round_number=1,
                           prev_timestamp=0.0, now=10.0)

    def test_empty_block_always_valid(self, backend, alice):
        block = empty_block(1, H(b"prev"))
        validate_block(block, backend=backend, state=self._state(alice),
                       prev_hash=H(b"prev"), round_number=1,
                       prev_timestamp=0.0, now=10.0)

    def test_wrong_empty_block_rejected(self, backend, alice):
        block = empty_block(2, H(b"prev"))  # wrong round
        with pytest.raises(InvalidBlock):
            validate_block(block, backend=backend, state=self._state(alice),
                           prev_hash=H(b"prev"), round_number=1,
                           prev_timestamp=0.0, now=10.0)


class TestBlockchain:
    def _chain(self, alice, bob):
        return Blockchain({alice.public: 60, bob.public: 40}, H(b"g"), 10)

    def test_genesis(self, alice, bob):
        chain = self._chain(alice, bob)
        assert chain.height == 0
        assert chain.next_round == 1
        assert chain.state.total_weight == 100

    def test_append_empty_advances_seed(self, alice, bob):
        chain = self._chain(alice, bob)
        tip = chain.tip_hash
        chain.append(empty_block(1, tip))
        assert chain.height == 1
        assert chain.seed_of_round(1) != chain.seed_of_round(0)

    def test_append_real_block_applies_transactions(self, backend, alice,
                                                    bob):
        chain = self._chain(alice, bob)
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 10, 0)
        block = _real_block(backend, alice, 1, chain.tip_hash,
                            chain.seed_of_round(0), transactions=[tx])
        chain.append(block)
        assert chain.state.balance(alice.public) == 50
        assert chain.state.balance(bob.public) == 50
        assert chain.seed_of_round(1) == block.seed

    def test_append_rejects_wrong_round(self, alice, bob):
        chain = self._chain(alice, bob)
        with pytest.raises(LedgerError):
            chain.append(empty_block(5, chain.tip_hash))

    def test_append_rejects_wrong_parent(self, alice, bob):
        chain = self._chain(alice, bob)
        with pytest.raises(LedgerError):
            chain.append(empty_block(1, H(b"not-the-tip")))

    def test_fork_from_rebuilds_state(self, backend, alice, bob):
        chain = self._chain(alice, bob)
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 10, 0)
        block = _real_block(backend, alice, 1, chain.tip_hash,
                            chain.seed_of_round(0), transactions=[tx])
        chain.append(block)
        chain.append(empty_block(2, chain.tip_hash))

        rebuilt = chain.fork_from(chain.blocks[1:])
        assert rebuilt.height == 2
        assert rebuilt.tip_hash == chain.tip_hash
        assert rebuilt.state.balance(bob.public) == 50

    def test_shares_prefix(self, alice, bob):
        a = self._chain(alice, bob)
        b = self._chain(alice, bob)
        a.append(empty_block(1, a.tip_hash))
        b.append(empty_block(1, b.tip_hash))
        assert a.shares_prefix_with(b) == 2  # genesis + round 1


class TestShardedStorage:
    def test_assignment_is_partition(self):
        keys = [H(b"user", bytes([i])) for i in range(10)]
        for round_number in range(20):
            holders = [k for k in keys if stores_round(k, round_number, 5)]
            for key in holders:
                assert round_number % 5 == shard_of_key(key, 5)

    def test_single_shard_stores_everything(self):
        key = H(b"u")
        assert all(stores_round(key, r, 1) for r in range(10))

    def test_storage_accounting(self):
        store = ShardedStore(2)
        key = H(b"user")
        block = empty_block(shard_of_key(key, 2), H(b"prev"))
        assert store.record_block(key, block, certificate_bytes=100)
        account = store.account(key)
        assert account.blocks_stored == 1
        assert account.certificate_bytes == 100
        assert account.total_bytes == block.size + 100

    def test_off_shard_round_not_stored(self):
        store = ShardedStore(2)
        key = H(b"user")
        other_round = 1 - shard_of_key(key, 2)
        assert not store.record_block(key, empty_block(other_round,
                                                       H(b"p")))

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            ShardedStore(0)
