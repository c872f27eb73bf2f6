"""Unit tests for Node message handling and relay policies (section 8.4).

A vote copy is judged by the node's one message gate (``admission``)
and then handled; :func:`_deliver` takes it the way ``RelayCore``
does.
"""

from __future__ import annotations

import pytest

from repro.baplus.messages import make_vote
from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.transaction import make_transaction
from repro.network.message import Envelope, vote_envelope
from repro.sortition.roles import committee_role
from repro.sortition.selection import sortition

from tests.fixtures import buffered_rounds


@pytest.fixture
def sim():
    return Simulation(SimulationConfig(num_users=8, seed=3))


def _vote_from(sim, node, round_number=1, step="1", value=None):
    """``node``'s vote; a real committee proof for round 1, junk (and so
    undecidable) for later rounds."""
    ctx = node._current_context(1)
    tau = sim.config.params.tau_step
    proof = sortition(sim.backend, node.keypair.secret, ctx.seed, tau,
                      committee_role(1, step),
                      ctx.weight_of(node.keypair.public), ctx.total_weight)
    return make_vote(
        sim.backend, node.keypair.secret, node.keypair.public,
        round_number, step, proof.vrf_hash, proof.vrf_proof,
        node.chain.tip_hash, value if value is not None else H(b"value"),
    )


def _voter(sim):
    """A node other than node 0 that sits on round 1's step-1 committee."""
    for node in sim.nodes[1:]:
        vote = _vote_from(sim, node)
        ctx = sim.nodes[0]._current_context(1)
        if vote.weigh(sim.backend, ctx, sim.config.params.tau_step):
            return node
    raise AssertionError("no committee member at this seed")


def _deliver(node, vote, from_index=1) -> bool | None:
    """One copy of ``vote`` through ``node``'s gate, then its handler."""
    return node.receive(vote_envelope(vote.voter, vote), from_index)


class TestVoteRelay:
    def test_valid_vote_buffered_and_relayed(self, sim):
        node = sim.nodes[0]
        vote = _vote_from(sim, _voter(sim))
        assert _deliver(node, vote)
        assert vote in node.buffer.messages(1, "1")

    def test_duplicate_key_not_relayed(self, sim):
        """At most one relayed message per (pk, round, step) — §8.4."""
        node = sim.nodes[0]
        voter = _voter(sim)
        first = _vote_from(sim, voter, value=H(b"a"))
        second = _vote_from(sim, voter, value=H(b"b"))
        assert _deliver(node, first)
        assert not _deliver(node, second)
        # Second message is not even buffered.
        assert len(node.buffer.messages(1, "1")) == 1

    def test_bad_signature_dropped(self, sim):
        node = sim.nodes[0]
        vote = _vote_from(sim, _voter(sim))
        forged = make_vote(sim.backend, sim.nodes[2].keypair.secret,
                           vote.voter, 1, "1", vote.sorthash,
                           vote.sortproof, vote.prev_hash, vote.value)
        assert not _deliver(node, forged)
        assert not node.buffer.messages(1, "1")

    def test_stale_round_dropped(self, sim):
        node = sim.nodes[0]
        vote = _vote_from(sim, sim.nodes[1], round_number=0)
        assert not _deliver(node, vote)

    def test_future_round_buffered(self, sim):
        """Nodes slightly behind still accept and relay future-round
        votes (steps are not synchronized across users, section 4)."""
        node = sim.nodes[0]
        vote = _vote_from(sim, sim.nodes[1], round_number=3)
        assert _deliver(node, vote)
        assert vote in node.buffer.messages(3, "1")


class TestTransactionRelay:
    def test_valid_transaction_added(self, sim):
        node = sim.nodes[0]
        sender = sim.nodes[1]
        tx = make_transaction(sim.backend, sender.keypair.secret,
                              sender.keypair.public,
                              node.keypair.public, 1, 0)
        envelope = Envelope(origin=b"x", kind="tx", payload=tx,
                            size=tx.size)
        assert node.receive(envelope, 1)
        assert tx.txid in node.mempool
        # Duplicate not relayed again.
        assert not node.receive(envelope, 1)

    def test_malformed_transaction_dropped(self, sim):
        node = sim.nodes[0]
        sender = sim.nodes[1]
        tx = make_transaction(sim.backend, sender.keypair.secret,
                              sender.keypair.public,
                              node.keypair.public, 1, 0)
        forged = type(tx)(sender=tx.sender, recipient=tx.recipient,
                          amount=999, nonce=tx.nonce,
                          signature=tx.signature)
        envelope = Envelope(origin=b"x", kind="tx", payload=forged,
                            size=forged.size)
        assert not node.receive(envelope, 1)
        assert len(node.mempool) == 0


class TestUnknownKinds:
    def test_unknown_kind_not_relayed(self, sim):
        node = sim.nodes[0]
        envelope = Envelope(origin=b"x", kind="mystery", payload=None,
                            size=10)
        assert not node.receive(envelope, 1)

    def test_extra_handler_invoked(self, sim):
        node = sim.nodes[0]
        seen = []
        node.router.register("custom", lambda payload: (
            seen.append(payload) or True))
        envelope = Envelope(origin=b"x", kind="custom", payload="hello",
                            size=10)
        assert node.receive(envelope, 1)
        assert seen == ["hello"]


class TestPruning:
    def test_old_state_pruned_after_round(self, sim):
        sim.run_rounds(2)
        node = sim.nodes[0]
        # Buffers for round 1 are gone; nothing below round 2 remains.
        assert all(r >= 2 for r in buffered_rounds(node.buffer))
        assert all(key[1] >= 2 for key in node.admission._votes)
        assert all(r >= 2 for r in node._trackers)


class TestOwnVotesCounted:
    def test_gossip_vote_self_delivery(self, sim):
        """A committee member counts its own vote without the network
        echoing it back (gossip never loops a message to its origin)."""
        node = sim.nodes[0]
        vote = _vote_from(sim, node)
        node._gossip_vote(vote)
        assert vote in node.buffer.messages(1, "1")
