"""Unit tests for recovery-protocol internals (fork proposals)."""

from __future__ import annotations

import pytest

from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.block import empty_block
from repro.network.message import Envelope
from repro.node.deployment import node_counters
from repro.node.recovery import ForkProposal, RecoverySession
from repro.sortition.roles import fork_proposer_role
from repro.sortition.selection import sortition


@pytest.fixture
def sim():
    sim = Simulation(SimulationConfig(num_users=10, seed=55))
    sim.run_rounds(1)
    return sim


def _proposal_from(sim, node, attempt, ctx):
    proof = sortition(
        sim.backend, node.keypair.secret, ctx.seed,
        node.params.tau_proposer, fork_proposer_role(1, attempt),
        ctx.weight_of(node.keypair.public), ctx.total_weight)
    return ForkProposal(
        proposer=node.keypair.public, attempt=attempt,
        vrf_hash=proof.vrf_hash, vrf_proof=proof.vrf_proof,
        sub_users=proof.j, blocks=node.chain.blocks[1:],
    ), proof


class TestForkProposal:
    def test_properties(self, sim):
        node = sim.nodes[0]
        proposal = ForkProposal(
            proposer=node.keypair.public, attempt=0, vrf_hash=H(b"v"),
            vrf_proof=b"p", sub_users=1, blocks=node.chain.blocks[1:])
        assert proposal.length == 1
        assert proposal.tip_hash == node.chain.tip_hash
        assert proposal.size > 200
        empty = ForkProposal(proposer=b"x", attempt=0, vrf_hash=H(b"v"),
                             vrf_proof=b"p", sub_users=1, blocks=())
        assert empty.tip_hash == b""
        assert empty.length == 0


class TestRecoverySessionValidation:
    def _selected_proposal(self, sim, session, ctx, attempt=0):
        for node in sim.nodes:
            proposal, proof = _proposal_from(sim, node, attempt, ctx)
            if proof.j > 0 and proposal.sub_users == proof.j:
                return proposal
        pytest.skip("no fork proposer selected at this seed")

    def test_valid_proposal_accepted(self, sim):
        session = RecoverySession(sim.nodes[0], pre_fork_round=1)
        ctx = session._recovery_ctx(0)
        proposal = self._selected_proposal(sim, session, ctx)
        assert session._valid(proposal, 0, ctx)

    def test_wrong_attempt_rejected(self, sim):
        session = RecoverySession(sim.nodes[0], pre_fork_round=1)
        ctx = session._recovery_ctx(0)
        proposal = self._selected_proposal(sim, session, ctx)
        assert not session._valid(proposal, 1, ctx)

    def test_unselected_proposer_rejected(self, sim):
        session = RecoverySession(sim.nodes[0], pre_fork_round=1)
        ctx = session._recovery_ctx(0)
        forged = ForkProposal(
            proposer=sim.nodes[1].keypair.public, attempt=0,
            vrf_hash=H(b"not-a-real-vrf"), vrf_proof=b"junk", sub_users=1,
            blocks=sim.nodes[1].chain.blocks[1:])
        assert not session._valid(forged, 0, ctx)

    def test_shorter_fork_rejected(self, sim):
        """Proposals shorter than our own chain are invalid — adopting
        them could drop final blocks."""
        session = RecoverySession(sim.nodes[0], pre_fork_round=1)
        ctx = session._recovery_ctx(0)
        proposal = self._selected_proposal(sim, session, ctx)
        # Grow our chain past the proposal.
        sim.nodes[0].chain.append(
            empty_block(2, sim.nodes[0].chain.tip_hash))
        assert not session._valid(proposal, 0, ctx)

    def test_duplicate_proposal_not_rerelayed(self, sim):
        session = RecoverySession(sim.nodes[0], pre_fork_round=1)
        ctx = session._recovery_ctx(0)
        proposal = self._selected_proposal(sim, session, ctx)
        assert session._handle_proposal(proposal)
        assert not session._handle_proposal(proposal)

    def test_best_proposal_prefers_priority(self, sim):
        session = RecoverySession(sim.nodes[0], pre_fork_round=1)
        ctx = session._recovery_ctx(0)
        valid = []
        for node in sim.nodes:
            proposal, proof = _proposal_from(sim, node, 0, ctx)
            if proof.j > 0:
                session._handle_proposal(proposal)
                valid.append(proposal)
        if len(valid) < 2:
            pytest.skip("need two selected fork proposers at this seed")
        best = session._best_proposal(0, ctx)
        assert best.priority == max(p.priority for p in valid)

    def test_close_unregisters_handler(self, sim):
        node = sim.nodes[0]
        session = RecoverySession(node, pre_fork_round=1)
        unknown = node_counters(node)["router.unknown_kind"]
        session.close()
        fork = Envelope(origin=b"peer", kind="fork", payload=None, size=10)
        assert node.router.dispatch(fork) is False
        assert node_counters(node)["router.unknown_kind"] == unknown + 1

    def test_recovery_ctx_shared_across_nodes(self, sim):
        """All nodes on the same prefix derive identical recovery
        contexts — the precondition for counting each other's votes."""
        contexts = [RecoverySession(node, 1)._recovery_ctx(0)
                    for node in sim.nodes]
        assert len({ctx.seed for ctx in contexts}) == 1
        assert len({ctx.last_block_hash for ctx in contexts}) == 1
        assert len({ctx.total_weight for ctx in contexts}) == 1
