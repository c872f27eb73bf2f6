"""Tests for transactions and account state."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import InvalidTransaction
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.ledger.arraystate import ArrayState
from repro.ledger.transaction import Transaction, make_transaction


@pytest.fixture
def backend():
    return FastBackend()


@pytest.fixture
def alice(backend):
    return backend.keypair(H(b"alice"))


@pytest.fixture
def bob(backend):
    return backend.keypair(H(b"bob"))


class TestTransaction:
    def test_make_and_verify(self, backend, alice, bob):
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 5, 0)
        tx.verify_signature(backend)

    def test_tampered_amount_rejected(self, backend, alice, bob):
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 5, 0)
        forged = Transaction(sender=tx.sender, recipient=tx.recipient,
                             amount=50, nonce=tx.nonce,
                             signature=tx.signature)
        with pytest.raises(InvalidTransaction):
            forged.verify_signature(backend)

    def test_wrong_signer_rejected(self, backend, alice, bob):
        tx = make_transaction(backend, bob.secret, alice.public,
                              bob.public, 5, 0)
        with pytest.raises(InvalidTransaction):
            tx.verify_signature(backend)

    def test_signature_verdict_is_a_receipt(self, backend, alice, bob):
        """The backend is asked once per instance; a ``replace`` copy or
        a forged copy asks afresh and gets its own verdict."""
        asked = []
        check = backend.is_valid_signature
        backend.is_valid_signature = lambda *args: (
            asked.append(args) or check(*args))
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 5, 0)
        tx.verify_signature(backend)
        tx.verify_signature(backend)
        assert len(asked) == 1
        copy = dataclasses.replace(tx)
        copy.verify_signature(backend)
        assert len(asked) == 2
        forged = dataclasses.replace(tx, amount=50)
        for _ in range(2):
            with pytest.raises(InvalidTransaction):
                forged.verify_signature(backend)
        assert len(asked) == 3
        # The forgery's verdict stayed on the forgery.
        tx.verify_signature(backend)
        assert len(asked) == 3

    def test_shape_validation(self, backend, alice, bob):
        with pytest.raises(InvalidTransaction):
            make_transaction(backend, alice.secret, alice.public,
                             bob.public, 0, 0)
        with pytest.raises(InvalidTransaction):
            make_transaction(backend, alice.secret, alice.public,
                             bob.public, 5, -1)
        with pytest.raises(InvalidTransaction):
            make_transaction(backend, alice.secret, alice.public,
                             alice.public, 5, 0)

    def test_txid_changes_with_contents(self, backend, alice, bob):
        tx1 = make_transaction(backend, alice.secret, alice.public,
                               bob.public, 5, 0)
        tx2 = make_transaction(backend, alice.secret, alice.public,
                               bob.public, 6, 0)
        assert tx1.txid != tx2.txid

    def test_size_includes_note(self, backend, alice, bob):
        small = make_transaction(backend, alice.secret, alice.public,
                                 bob.public, 5, 0)
        padded = make_transaction(backend, alice.secret, alice.public,
                                  bob.public, 5, 0, note=b"\x00" * 200)
        assert padded.size >= small.size + 200


class TestAccountState:
    def test_initial_balances(self, alice, bob):
        state = ArrayState({alice.public: 10, bob.public: 5})
        assert state.balance(alice.public) == 10
        assert state.balance(b"unknown") == 0
        assert state.total_weight == 15

    def test_negative_initial_balance_rejected(self, alice):
        with pytest.raises(ValueError):
            ArrayState({alice.public: -1})

    def test_apply_moves_money(self, backend, alice, bob):
        state = ArrayState({alice.public: 10})
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 4, 0)
        state.apply(tx)
        assert state.balance(alice.public) == 6
        assert state.balance(bob.public) == 4
        assert state.total_weight == 10  # conservation

    def test_overspend_rejected(self, backend, alice, bob):
        state = ArrayState({alice.public: 3})
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 4, 0)
        with pytest.raises(InvalidTransaction):
            state.apply(tx)

    def test_nonce_replay_rejected(self, backend, alice, bob):
        state = ArrayState({alice.public: 10})
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 1, 0)
        state.apply(tx)
        with pytest.raises(InvalidTransaction):
            state.apply(tx)  # same nonce again

    def test_nonce_gap_rejected(self, backend, alice, bob):
        state = ArrayState({alice.public: 10})
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 1, 5)
        with pytest.raises(InvalidTransaction):
            state.apply(tx)

    def test_zero_balance_account_removed_from_weights(self, backend,
                                                       alice, bob):
        state = ArrayState({alice.public: 4})
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 4, 0)
        state.apply(tx)
        assert alice.public not in state.weights()

    def test_copy_is_independent(self, backend, alice, bob):
        state = ArrayState({alice.public: 10})
        clone = state.copy()
        tx = make_transaction(backend, alice.secret, alice.public,
                              bob.public, 4, 0)
        clone.apply(tx)
        assert state.balance(alice.public) == 10

    def test_would_accept(self, backend, alice, bob):
        state = ArrayState({alice.public: 10})
        good = [
            make_transaction(backend, alice.secret, alice.public,
                             bob.public, 4, 0),
            make_transaction(backend, alice.secret, alice.public,
                             bob.public, 6, 1),
        ]
        assert state.would_accept(good)
        bad = good + [make_transaction(backend, alice.secret, alice.public,
                                       bob.public, 1, 2)]
        assert not state.would_accept(bad)
        # Dry-run must not mutate.
        assert state.balance(alice.public) == 10


@settings(max_examples=30, deadline=None)
@given(amounts=st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                        max_size=10))
def test_total_weight_conserved_property(amounts):
    backend = FastBackend()
    alice = backend.keypair(H(b"p-alice"))
    bob = backend.keypair(H(b"p-bob"))
    state = ArrayState({alice.public: 100, bob.public: 100})
    nonce = 0
    for amount in amounts:
        if state.balance(alice.public) < amount:
            break
        state.apply(make_transaction(backend, alice.secret, alice.public,
                                     bob.public, amount, nonce))
        nonce += 1
    assert state.total_weight == 200
