"""Array-backed ledger state vs. the dict-backed reference.

``ArrayState`` — the ledger's only account state — must be
observationally identical to the dict oracle it replaced
(``tests/reference_ledger.AccountState``) for every caller: same
accept/reject decisions, same balances, same ``weights()`` mapping
contents — while adding the pool-facing array view and shared immutable
snapshots.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baplus.context import BAContext
from repro.common.encoding import encode
from repro.common.errors import LedgerError
from repro.crypto.hashing import H
from repro.ledger.arraystate import AccountIndex, ArrayState, ArrayWeights
from repro.ledger.blockchain import Blockchain
from repro.ledger.transaction import Transaction, make_transaction
from tests.reference_ledger import AccountState


@pytest.fixture
def users(fast_backend):
    keypairs = [fast_backend.keypair(H(b"arr-key", encode(i)))
                for i in range(6)]
    balances = {kp.public: 10 for kp in keypairs}
    return keypairs, balances


def make_tx(backend, sender, recipient, amount, nonce):
    return make_transaction(backend, sender.secret, sender.public,
                            recipient.public, amount, nonce)


class TestAccountIndex:
    def test_slots_are_stable_and_append_only(self):
        index = AccountIndex([b"a", b"b"])
        assert index.slot_of(b"a") == 0
        assert index.slot_of(b"c") == 2
        assert index.slot_of(b"a") == 0  # unchanged by later growth
        assert index.get(b"missing") is None
        assert len(index) == 3
        assert index.key_of(1) == b"b"


class TestEquivalence:
    def test_random_transaction_streams(self, fast_backend, users):
        keypairs, balances = users
        rng = np.random.default_rng(0)
        reference = AccountState(balances)
        array = ArrayState(balances)
        nonces = {kp.public: 0 for kp in keypairs}
        for _ in range(60):
            s, r = rng.choice(len(keypairs), size=2, replace=False)
            sender, recipient = keypairs[s], keypairs[r]
            amount = int(rng.integers(1, 7))
            tx = make_tx(fast_backend, sender, recipient, amount,
                         nonces[sender.public])
            ref_err = arr_err = None
            try:
                reference.apply(tx)
            except LedgerError as exc:
                ref_err = str(exc)
            try:
                array.apply(tx)
            except LedgerError as exc:
                arr_err = str(exc)
            assert (ref_err is None) == (arr_err is None)
            if ref_err is None:
                nonces[sender.public] += 1
        assert dict(array.weights()) == dict(reference.weights())
        # Iteration *content* is the contract, not order: after an
        # account drains and refills, the dict view re-inserts it at
        # the end while the array view keeps its stable slot. No
        # weights consumer iterates order-sensitively (lookups and
        # sums only), so the views are free to differ here.
        assert (sorted(array.weights())
                == sorted(reference.weights()))
        assert array.total_weight == reference.total_weight
        for kp in keypairs:
            assert array.balance(kp.public) == reference.balance(kp.public)
            assert (array.next_nonce(kp.public)
                    == reference.next_nonce(kp.public))

    def test_would_accept_decides_like_the_reference(self, fast_backend,
                                                     users):
        # Same oracle as the stream test, asked about whole batches:
        # chained nonces, overspends that only the batch's earlier
        # payments cause (or cure), stale nonces, self-payments.
        keypairs, balances = users
        rng = np.random.default_rng(1)
        reference = AccountState(balances)
        array = ArrayState(balances)
        verdicts = set()
        for _ in range(80):
            nonces: dict[bytes, int] = {}
            batch = []
            for _ in range(int(rng.integers(1, 5))):
                s, r = rng.integers(len(keypairs), size=2)
                sender = keypairs[s].public
                nonce = nonces.get(sender, reference.next_nonce(sender))
                nonces[sender] = nonce + 1
                batch.append(Transaction(
                    sender=sender, recipient=keypairs[r].public,
                    amount=int(rng.integers(1, 9)),
                    nonce=nonce + int(rng.integers(8) == 0)))
            buffer = array._balances
            verdict = reference.would_accept(batch)
            assert array.would_accept(batch) == verdict
            assert array._balances is buffer and buffer.flags.writeable
            verdicts.add(verdict)
            if verdict:
                reference.apply_all(batch)
                array.apply_all(batch)
        assert verdicts == {True, False}
        assert dict(array.weights()) == dict(reference.weights())

    def test_drained_accounts_leave_the_mapping(self, fast_backend, users):
        keypairs, _ = users
        a, b = keypairs[0], keypairs[1]
        balances = {a.public: 3, b.public: 10}
        reference = AccountState(balances)
        array = ArrayState(balances)
        tx = make_tx(fast_backend, a, b, 3, 0)
        reference.apply(tx)
        array.apply(tx)
        assert a.public not in array.weights()
        assert dict(array.weights()) == dict(reference.weights())
        assert len(array.weights()) == len(reference.weights()) == 1

    def test_copies_are_independent(self, fast_backend, users):
        keypairs, balances = users
        array = ArrayState(balances)
        clone = array.copy()
        tx = make_tx(fast_backend, keypairs[0], keypairs[1], 4, 0)
        clone.apply(tx)
        assert array.balance(keypairs[0].public) == 10
        assert clone.balance(keypairs[0].public) == 6
        # both resolve through the same shared index
        assert clone.weights()._index is array.weights()._index

    def test_a_copy_shares_the_buffer_until_one_side_writes(
            self, fast_backend, users):
        keypairs, balances = users
        array = ArrayState(balances)
        clone = array.copy()
        assert clone._balances is array._balances
        shared = array._balances
        clone.apply(make_tx(fast_backend, keypairs[0], keypairs[1], 4, 0))
        assert array._balances is shared  # the writer moved, not the rest
        assert not np.shares_memory(clone._balances, shared)
        array.apply(make_tx(fast_backend, keypairs[2], keypairs[3], 1, 0))
        assert not np.shares_memory(array._balances, shared)
        assert [int(b) for b in shared[:4]] == [10, 10, 10, 10]


class TestSnapshots:
    def test_weights_cached_until_mutation(self, fast_backend, users):
        keypairs, balances = users
        for state in (AccountState(balances), ArrayState(balances)):
            first = state.weights()
            assert state.weights() is first  # shared, not rebuilt
            tx = make_tx(fast_backend, keypairs[0], keypairs[1], 1, 0)
            state.apply(tx)
            second = state.weights()
            assert second is not first
            assert first[keypairs[0].public] == 10  # old snapshot intact
            assert second[keypairs[0].public] == 9

    def test_snapshots_are_immutable(self, users):
        _, balances = users
        for state in (AccountState(balances), ArrayState(balances)):
            snapshot = state.weights()
            with pytest.raises((TypeError, KeyError)):
                snapshot[b"nope"] = 1  # type: ignore[index]
        frozen = ArrayState(balances).weights().array
        with pytest.raises(ValueError):
            frozen[0] = 99

    def test_a_snapshot_is_the_frozen_buffer_not_a_copy(self, fast_backend,
                                                        users):
        keypairs, balances = users
        state = ArrayState(balances)
        snapshot = state.weights()
        assert snapshot.array is state._balances
        clone = state.copy()
        assert clone.weights() is snapshot  # the cache is inherited
        state.apply(make_tx(fast_backend, keypairs[0], keypairs[1], 1, 0))
        # one buffer copy for the write; the next snapshot freezes it
        assert not np.shares_memory(state._balances, snapshot.array)
        assert state.weights().array is state._balances
        assert clone.weights() is snapshot
        assert snapshot[keypairs[0].public] == 10

    def test_chain_weight_history_shares_snapshots(self, users):
        _, balances = users
        chain = Blockchain(balances, H(b"genesis"), 1000)
        assert chain.weights_at(0) is chain.weights_at(0)
        assert dict(chain.weights_at(0)) == balances

    def test_bacontext_adopts_frozen_mappings_without_copy(self, users):
        _, balances = users
        for state in (AccountState(balances), ArrayState(balances)):
            weights = state.weights()
            ctx = BAContext.from_weights(H(b"seed"), weights, b"prev")
            assert ctx.weights is weights
            assert ctx.total_weight == sum(balances.values())


class TestArrayWeights:
    def test_mapping_protocol(self):
        index = AccountIndex([b"a", b"b", b"c"])
        weights = ArrayWeights(index,
                               np.array([5, 0, 7], dtype=np.int64))
        assert weights[b"a"] == 5
        assert weights.get(b"b") == 0 and b"b" not in weights
        assert weights.get(b"zzz", -1) == -1
        with pytest.raises(KeyError):
            weights[b"b"]
        assert list(weights) == [b"a", b"c"]
        assert len(weights) == 2
        assert weights.total == 12
        assert weights.frozen


class TestReplica:
    def test_replica_is_cheap_and_independent(self, users):
        _, balances = users
        chain = Blockchain(balances, H(b"genesis"), 1000)
        replica = chain.replica()
        assert replica.height == chain.height
        assert replica.tip_hash == chain.tip_hash
        assert replica.selection_seed(1) == chain.selection_seed(1)
        # same shared immutable history, separate mutable state
        assert replica.weights_at(0) is chain.weights_at(0)
        assert replica.state is not chain.state
        assert (replica.state.weights()._index
                is chain.state.weights()._index)
