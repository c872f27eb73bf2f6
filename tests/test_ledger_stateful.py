"""Stateful property tests: the ledger as a random state machine.

Hypothesis drives random sequences of payments, block commits, and fork
rebuilds against :class:`AccountState`/:class:`Blockchain`, checking the
invariants consensus depends on after every step:

* total currency is conserved (the sortition denominator ``W`` is fixed);
* balances never go negative;
* nonces are strictly sequential per sender;
* a chain rebuilt from its own blocks reproduces identical state.

A second machine grows a *tree* of :class:`ArrayState` copies beside a
tree of dict-backed :class:`AccountState` oracles: states that share a
balance buffer until written must never see each other's writes, and a
snapshot handed out must never change.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.common.errors import InvalidTransaction
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.ledger.arraystate import AccountIndex, ArrayState
from repro.ledger.block import Block
from repro.ledger.blockchain import Blockchain
from repro.ledger.transaction import make_transaction
from repro.sortition.seed import propose_seed
from tests.reference_ledger import AccountState

NUM_USERS = 4
INITIAL_BALANCE = 25


class LedgerMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.backend = FastBackend()
        self.users = [self.backend.keypair(H(b"sm", bytes([i])))
                      for i in range(NUM_USERS)]
        self.balances = {kp.public: INITIAL_BALANCE for kp in self.users}
        self.chain = Blockchain(self.balances, H(b"sm-genesis"), 10)
        self.pending = []  # transactions staged for the next block

    # --- rules -----------------------------------------------------------

    @rule(sender=st.integers(0, NUM_USERS - 1),
          recipient=st.integers(0, NUM_USERS - 1),
          amount=st.integers(1, 40))
    def stage_payment(self, sender, recipient, amount):
        if sender == recipient:
            return
        sender_kp = self.users[sender]
        trial = self.chain.state.copy()
        trial.apply_all(self.pending)
        nonce = trial.next_nonce(sender_kp.public)
        tx = make_transaction(self.backend, sender_kp.secret,
                              sender_kp.public,
                              self.users[recipient].public, amount, nonce)
        try:
            trial.apply(tx)
        except InvalidTransaction:
            return  # overspend at current staged state; skip
        self.pending.append(tx)

    @rule()
    def commit_block(self):
        proposer = self.users[0]
        round_number = self.chain.next_round
        seed, proof = propose_seed(
            self.backend, proposer.secret,
            self.chain.seed_of_round(round_number - 1), round_number)
        block = Block(
            round_number=round_number, prev_hash=self.chain.tip_hash,
            timestamp=float(round_number), seed=seed, seed_proof=proof,
            proposer=proposer.public, proposer_vrf_hash=H(b"v"),
            proposer_vrf_proof=b"p", proposer_priority=H(b"v"),
            transactions=tuple(self.pending),
        )
        self.chain.append(block)
        self.pending = []

    @precondition(lambda self: self.chain.height >= 1)
    @rule()
    def rebuild_from_blocks(self):
        rebuilt = self.chain.fork_from(self.chain.blocks[1:])
        assert rebuilt.tip_hash == self.chain.tip_hash
        assert rebuilt.state.weights() == self.chain.state.weights()
        assert rebuilt.height == self.chain.height

    # --- invariants --------------------------------------------------------

    @invariant()
    def total_conserved(self):
        if not hasattr(self, "chain"):
            return
        assert self.chain.state.total_weight == NUM_USERS * INITIAL_BALANCE

    @invariant()
    def no_negative_balances(self):
        if not hasattr(self, "chain"):
            return
        assert all(balance >= 0
                   for balance in self.chain.state.weights().values())

    @invariant()
    def weight_history_consistent(self):
        if not hasattr(self, "chain"):
            return
        # The latest snapshot equals live state.
        assert (self.chain.weights_at(self.chain.height)
                == self.chain.state.weights())

    @invariant()
    def staged_transactions_remain_applicable(self):
        if not hasattr(self, "chain"):
            return
        assert self.chain.state.would_accept(self.pending)


TestLedgerStateMachine = LedgerMachine.TestCase
TestLedgerStateMachine.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None)


# --- the copy-on-write tree ------------------------------------------------

TREE_USERS = 6       # funded at genesis; the initial array capacity is 8
TREE_LATE_USERS = 14  # unfunded, unindexed: paying one grows the index
TREE_BACKEND = FastBackend()
TREE_KEYS = [TREE_BACKEND.keypair(H(b"tree", bytes([i])))
             for i in range(TREE_USERS + TREE_LATE_USERS)]

payments = st.lists(
    st.tuples(st.integers(0, len(TREE_KEYS) - 1),
              st.integers(0, len(TREE_KEYS) - 1),
              st.integers(1, 12),
              st.booleans()),  # a stale nonce instead of the right one
    min_size=1, max_size=4)


class Branch:
    """One :class:`ArrayState` and the dict-backed oracle it must match."""

    def __init__(self, array: ArrayState, oracle: AccountState,
                 snapshot=None, written: bool = False) -> None:
        self.array = array
        self.oracle = oracle
        #: The last ``weights()`` object seen, and whether a write
        #: landed since: the cache must be kept exactly until one does.
        self.snapshot = snapshot
        self.written = written


class StateTreeMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        balances = {kp.public: INITIAL_BALANCE
                    for kp in TREE_KEYS[:TREE_USERS]}
        index = AccountIndex(balances)
        self.branches = [Branch(ArrayState(balances, index=index),
                                AccountState(balances))]
        #: Every snapshot ever handed out, with its contents back then.
        self.handed_out: list[tuple[object, dict]] = []

    def _branch(self, which: int) -> Branch:
        return self.branches[which % len(self.branches)]

    def _transactions(self, branch: Branch, plan) -> list:
        nonces: dict[bytes, int] = {}
        out = []
        for sender, recipient, amount, stale in plan:
            if sender == recipient:
                continue
            payer = TREE_KEYS[sender]
            nonce = nonces.get(payer.public,
                               branch.oracle.next_nonce(payer.public))
            nonces[payer.public] = nonce + 1
            out.append(make_transaction(
                TREE_BACKEND, payer.secret, payer.public,
                TREE_KEYS[recipient].public, amount,
                nonce + 1 if stale else nonce))
        return out

    # --- rules -----------------------------------------------------------

    @rule(which=st.integers(0, 50))
    def copy(self, which):
        source = self._branch(which)
        self.branches.append(Branch(source.array.copy(),
                                    source.oracle.copy(),
                                    source.snapshot, source.written))

    @precondition(lambda self: len(self.branches) > 1)
    @rule(which=st.integers(0, 50))
    def drop(self, which):
        self.branches.remove(self._branch(which))

    @rule(which=st.integers(0, 50), plan=payments)
    def apply(self, which, plan):
        branch = self._branch(which)
        for tx in self._transactions(branch, plan):
            try:
                branch.oracle.apply(tx)
            except InvalidTransaction:
                with pytest.raises(InvalidTransaction):
                    branch.array.apply(tx)
            else:
                branch.array.apply(tx)
                branch.written = True

    @rule(which=st.integers(0, 50), plan=payments)
    def would_accept(self, which, plan):
        branch = self._branch(which)
        txs = self._transactions(branch, plan)
        assert (branch.array.would_accept(txs)
                == branch.oracle.would_accept(txs))

    @rule(which=st.integers(0, 50))
    def weights(self, which):
        branch = self._branch(which)
        snapshot = branch.array.weights()
        assert branch.array.weights() is snapshot
        if branch.written:
            assert snapshot is not branch.snapshot
        elif branch.snapshot is not None:
            assert snapshot is branch.snapshot
        branch.snapshot, branch.written = snapshot, False
        self.handed_out.append((snapshot, dict(branch.oracle.weights())))

    @rule(which=st.integers(0, 50))
    def write_into_a_shared_buffer(self, which):
        branch = self._branch(which)
        frozen = [branch.array.weights().array,
                  branch.array.copy()._balances, branch.array._balances]
        for buffer in frozen:
            with pytest.raises(ValueError):
                buffer[0] = 99

    # --- invariants --------------------------------------------------------

    @invariant()
    def branches_match_their_oracles(self):
        for branch in getattr(self, "branches", ()):
            for kp in TREE_KEYS:
                assert (branch.array.balance(kp.public)
                        == branch.oracle.balance(kp.public))
                assert (branch.array.next_nonce(kp.public)
                        == branch.oracle.next_nonce(kp.public))
            assert (branch.array.total_weight
                    == branch.oracle.total_weight)

    @invariant()
    def snapshots_never_change(self):
        for snapshot, contents in getattr(self, "handed_out", ()):
            assert dict(snapshot) == contents
            assert snapshot.total == sum(contents.values())


TestStateTreeMachine = StateTreeMachine.TestCase
TestStateTreeMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
