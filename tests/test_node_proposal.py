"""Tests for block proposal: priorities, announcements, the tracker."""

from __future__ import annotations

import pytest

from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.block import Block
from repro.network.message import priority_envelope
from repro.node.proposal import (
    PriorityMessage,
    ProposalTracker,
    block_priority,
    make_priority_message,
    priority_of_subuser,
)
from repro.sim.loop import Environment
from repro.sortition.roles import proposer_role
from repro.sortition.selection import sortition


@pytest.fixture
def backend():
    return FastBackend()


def _select_proposer(backend, tau=50, total=100):
    """Find a keypair that sortition selects as proposer for round 1."""
    for i in range(64):
        kp = backend.keypair(H(b"prop", bytes([i])))
        proof = sortition(backend, kp.secret, b"seed", tau,
                          proposer_role(1), total, total)
        if proof.j > 0:
            return kp, proof
    pytest.fail("no proposer selected in 64 tries")


def _block(proposer_pk, round_number=1, tag=b"x"):
    return Block(round_number=round_number, prev_hash=H(b"prev"),
                 timestamp=1.0, seed=H(b"s"), seed_proof=b"p",
                 proposer=proposer_pk, proposer_vrf_hash=H(tag),
                 proposer_vrf_proof=b"pf", proposer_priority=H(tag),
                 transactions=())


class TestPriorities:
    def test_subuser_priorities_distinct(self):
        priorities = {priority_of_subuser(H(b"vrf"), j) for j in range(1, 9)}
        assert len(priorities) == 8

    def test_block_priority_is_max(self):
        vrf_hash = H(b"vrf")
        assert block_priority(vrf_hash, 5) == max(
            priority_of_subuser(vrf_hash, j) for j in range(1, 6))

    def test_block_priority_needs_selection(self):
        with pytest.raises(ValueError):
            block_priority(H(b"vrf"), 0)

    def test_more_subusers_never_lowers_priority(self):
        vrf_hash = H(b"vrf")
        assert block_priority(vrf_hash, 10) >= block_priority(vrf_hash, 2)


class TestPriorityMessage:
    def test_verify_roundtrip(self, backend):
        kp, proof = _select_proposer(backend)
        message = make_priority_message(kp.public, 1, proof)
        assert message.verify(backend, b"seed", 50, 100, 100)

    def test_verify_rejects_inflated_subusers(self, backend):
        kp, proof = _select_proposer(backend)
        message = make_priority_message(kp.public, 1, proof)
        inflated = PriorityMessage(
            proposer=message.proposer, round_number=1,
            vrf_hash=message.vrf_hash, vrf_proof=message.vrf_proof,
            sub_users=message.sub_users + 1, priority=message.priority)
        assert not inflated.verify(backend, b"seed", 50, 100, 100)

    def test_verify_rejects_forged_priority(self, backend):
        kp, proof = _select_proposer(backend)
        message = make_priority_message(kp.public, 1, proof)
        forged = PriorityMessage(
            proposer=message.proposer, round_number=1,
            vrf_hash=message.vrf_hash, vrf_proof=message.vrf_proof,
            sub_users=message.sub_users, priority=b"\xff" * 32)
        assert not forged.verify(backend, b"seed", 50, 100, 100)

    def test_verify_rejects_wrong_round(self, backend):
        kp, proof = _select_proposer(backend)
        message = make_priority_message(kp.public, 1, proof)
        relabeled = PriorityMessage(
            proposer=message.proposer, round_number=2,
            vrf_hash=message.vrf_hash, vrf_proof=message.vrf_proof,
            sub_users=message.sub_users, priority=message.priority)
        assert not relabeled.verify(backend, b"seed", 50, 100, 100)


class TestProposalTracker:
    def _message(self, proposer, priority):
        return PriorityMessage(proposer=proposer, round_number=1,
                               vrf_hash=H(b"v"), vrf_proof=b"p",
                               sub_users=1, priority=priority)

    def test_best_priority_tracking(self):
        env = Environment()
        tracker = ProposalTracker(1)
        low = self._message(b"low", b"\x01" * 32)
        high = self._message(b"high", b"\xfe" * 32)
        assert tracker.observe_priority(low, env)
        assert tracker.observe_priority(high, env)
        assert not tracker.observe_priority(low, env)
        assert tracker.best_priority is high

    def test_best_block_matches_best_priority(self):
        env = Environment()
        tracker = ProposalTracker(1)
        tracker.observe_priority(self._message(b"A", b"\x02" * 32), env)
        tracker.observe_priority(self._message(b"B", b"\xfd" * 32), env)
        block_a = _block(b"A", tag=b"a")
        block_b = _block(b"B", tag=b"b")
        tracker.observe_block(block_a, env)
        tracker.observe_block(block_b, env)
        assert tracker.best_block() is block_b

    def test_relay_only_best_proposer_blocks(self):
        env = Environment()
        tracker = ProposalTracker(1)
        tracker.observe_priority(self._message(b"B", b"\xfd" * 32), env)
        assert not tracker.observe_block(_block(b"A", tag=b"a"), env)
        assert tracker.observe_block(_block(b"B", tag=b"b"), env)

    def test_equivocating_proposer_discarded(self):
        """Two different blocks from one proposer: discard both and
        everything later from that proposer (section 10.4)."""
        env = Environment()
        tracker = ProposalTracker(1)
        tracker.observe_priority(self._message(b"E", b"\xfe" * 32), env)
        first = _block(b"E", tag=b"v1")
        second = _block(b"E", tag=b"v2")
        assert tracker.observe_block(first, env)
        assert not tracker.observe_block(second, env)
        assert b"E" in tracker.equivocators
        assert tracker.best_block() is None
        # Re-sending the first version does not rehabilitate them.
        assert not tracker.observe_block(first, env)

    def test_same_block_twice_is_not_equivocation(self):
        env = Environment()
        tracker = ProposalTracker(1)
        tracker.observe_priority(self._message(b"A", b"\xfe" * 32), env)
        block = _block(b"A")
        tracker.observe_block(block, env)
        tracker.observe_block(block, env)
        assert b"A" not in tracker.equivocators

    def test_signals_pulse_on_new_information(self):
        env = Environment()
        tracker = ProposalTracker(1)
        woken = []

        def wake(arg):
            woken.append((env.now, arg))

        tracker.park(wake, "first")
        env.schedule(1, lambda: tracker.observe_priority(
            self._message(b"A", b"\x80" * 32), env))
        # Not a new best: wakes nobody.
        env.schedule(1.5, lambda: tracker.observe_priority(
            self._message(b"B", b"\x10" * 32), env))
        env.run()
        # On the event loop, once; the block side waits to be unparked.
        assert woken == [(1, "first")]
        assert tracker.on_block == [(wake, "first")]
        tracker.unpark(wake, "first")
        tracker.park(wake, "second")
        env.schedule(1, lambda: tracker.observe_block(_block(b"A"), env))
        env.run()
        assert woken == [(1, "first"), (2.5, "second")]
        assert tracker.on_priority == [(wake, "second")]

    def test_settle_lets_the_best_valid_announcement_lead(self):
        env = Environment()
        tracker = ProposalTracker(1)
        honest = self._message(b"A", b"\x80" * 32)
        forged = self._message(b"F", b"\xff" * 32)
        tracker.observe_priority(honest, env, checked=False)
        tracker.observe_priority(forged, env, checked=False)
        # Before the round, the unchecked best steers block relay.
        assert tracker.best_priority is forged
        assert not tracker.observe_block(_block(b"A"), env)
        asked = []

        def valid(message):
            asked.append(message.proposer)
            return message is not forged

        tracker.settle(valid)
        assert asked == [b"A", b"F"]  # once each, in arrival order
        assert tracker.best_priority is honest
        assert tracker.best_block().proposer == b"A"
        tracker.settle(valid)
        assert asked == [b"A", b"F"] and tracker.heard is None

    def test_settle_trusts_what_was_checked_on_arrival(self):
        env = Environment()
        tracker = ProposalTracker(1)
        best = self._message(b"A", b"\x80" * 32)
        tracker.observe_priority(best, env)
        tracker.settle(lambda message: pytest.fail("checked twice"))
        assert tracker.best_priority is best


class TestForgedFuturePriority:
    """One forged announcement for a later round used to become that
    round's best priority on every node, unverified, and empty it."""

    def test_one_forged_priority_does_not_empty_the_round(self):
        sim = Simulation(SimulationConfig(num_users=20, seed=1))
        sender = sim.nodes[19]
        sender.interface.broadcast(priority_envelope(
            sender.keypair.public, PriorityMessage(
                proposer=sender.keypair.public, round_number=2,
                vrf_hash=bytes(32), vrf_proof=bytes(80), sub_users=1,
                priority=b"\xff" * 32)))
        sim.run_rounds(2)
        assert sim.all_chains_equal()
        assert not any(node.chain.block_at(2).is_empty
                       for node in sim.nodes)
