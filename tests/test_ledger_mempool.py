"""Tests for the pending-transaction pool."""

from __future__ import annotations

import pytest

from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.ledger.arraystate import ArrayState
from repro.ledger import mempool as mempool_module
from repro.ledger.mempool import Mempool
from repro.ledger.transaction import make_transaction


@pytest.fixture
def backend():
    return FastBackend()


@pytest.fixture
def users(backend):
    return [backend.keypair(H(b"mp-user", bytes([i]))) for i in range(4)]


def _tx(backend, sender, recipient, amount, nonce, note=b""):
    return make_transaction(backend, sender.secret, sender.public,
                            recipient.public, amount, nonce, note=note)


class TestMempool:
    def test_add_and_contains(self, backend, users):
        pool = Mempool()
        tx = _tx(backend, users[0], users[1], 1, 0)
        assert pool.add(tx)
        assert tx.txid in pool
        assert len(pool) == 1

    def test_duplicate_rejected(self, backend, users):
        pool = Mempool()
        tx = _tx(backend, users[0], users[1], 1, 0)
        assert pool.add(tx)
        assert not pool.add(tx)
        assert len(pool) == 1

    def test_byte_cap(self, backend, users, monkeypatch):
        tx = _tx(backend, users[0], users[1], 1, 0, note=b"\x00" * 100)
        monkeypatch.setattr(mempool_module, "MEMPOOL_MAX_BYTES", tx.size + 10)
        pool = Mempool()
        assert pool.add(tx)
        assert not pool.add(_tx(backend, users[0], users[1], 1, 1,
                                note=b"\x00" * 100))

    def test_assemble_respects_block_size(self, backend, users):
        pool = Mempool()
        state = ArrayState({users[0].public: 100})
        txs = [_tx(backend, users[0], users[1], 1, n, note=b"\x00" * 50)
               for n in range(10)]
        for tx in txs:
            pool.add(tx)
        chosen = pool.assemble(state, max_block_bytes=txs[0].size * 3 + 1)
        assert 1 <= len(chosen) <= 3
        assert sum(t.size for t in chosen) <= txs[0].size * 3 + 1

    def test_assemble_produces_valid_sequence(self, backend, users):
        pool = Mempool()
        state = ArrayState({users[0].public: 5})
        # Only the first few fit the balance.
        for n in range(10):
            pool.add(_tx(backend, users[0], users[1], 1, n))
        chosen = pool.assemble(state, max_block_bytes=10**6)
        assert len(chosen) == 5
        assert state.would_accept(chosen)

    def test_assemble_skips_nonce_gaps(self, backend, users):
        pool = Mempool()
        state = ArrayState({users[0].public: 100})
        pool.add(_tx(backend, users[0], users[1], 1, 3))  # future nonce
        assert pool.assemble(state, 10**6) == []

    def test_prune_committed(self, backend, users):
        pool = Mempool()
        state = ArrayState({users[0].public: 100})
        committed = _tx(backend, users[0], users[1], 1, 0)
        pending = _tx(backend, users[0], users[1], 1, 1)
        pool.add(committed)
        pool.add(pending)
        state.apply(committed)
        pool.prune_committed([committed], state)
        assert committed.txid not in pool
        assert pending.txid in pool

    def test_prune_drops_replayed_nonces(self, backend, users):
        pool = Mempool()
        state = ArrayState({users[0].public: 100})
        # A conflicting tx with the same nonce got committed instead.
        loser = _tx(backend, users[0], users[2], 1, 0)
        winner = _tx(backend, users[0], users[1], 1, 0)
        pool.add(loser)
        state.apply(winner)
        pool.prune_committed([winner], state)
        assert loser.txid not in pool

    def test_size_accounting(self, backend, users, monkeypatch):
        tx = _tx(backend, users[0], users[1], 1, 0)
        other = _tx(backend, users[1], users[0], 1, 0)
        assert other.size == tx.size
        monkeypatch.setattr(mempool_module, "MEMPOOL_MAX_BYTES", tx.size)
        pool = Mempool()
        assert pool.add(tx)
        assert not pool.add(other)  # full: refused, not queued
        assert other.txid not in pool
        pool.remove([tx.txid])
        assert pool.add(other)  # the removal freed its bytes
