"""Additional adversary-layer unit tests: filter chains, attacker seams."""

from __future__ import annotations

import pytest

from repro.adversary import FilterChain, Partitioner
from repro.chaos import FaultAction
from repro.experiments.harness import (
    RuntimeConfig,
    Simulation,
    SimulationConfig,
)
from repro.network.message import Envelope


class TestFilterChain:
    def test_empty_chain_drops_nothing(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=1))
        chain = FilterChain(sim.network)
        envelope = Envelope(origin=b"o", kind="t", payload=None, size=10)
        assert not chain._evaluate(0, 1, envelope)

    def test_predicates_compose_as_or(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=1))
        chain = FilterChain(sim.network)
        chain.add(lambda s, d, e: s == 0)
        chain.add(lambda s, d, e: d == 3)
        envelope = Envelope(origin=b"o", kind="t", payload=None, size=10)
        assert chain._evaluate(0, 1, envelope)
        assert chain._evaluate(2, 3, envelope)
        assert not chain._evaluate(1, 2, envelope)

    def test_remove_predicate(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=1))
        chain = FilterChain(sim.network)
        predicate = lambda s, d, e: True  # noqa: E731
        chain.add(predicate)
        envelope = Envelope(origin=b"o", kind="t", payload=None, size=10)
        assert chain._evaluate(0, 1, envelope)
        chain.remove(predicate)
        assert not chain._evaluate(0, 1, envelope)

    def test_composes_with_preinstalled_drop_filter(self):
        # Regression: installing a FilterChain used to silently clobber
        # whatever drop_filter was already on the network; it must be
        # absorbed as the chain's first predicate instead.
        sim = Simulation(SimulationConfig(num_users=4, seed=1))
        sim.network.drop_filter = lambda s, d, e: s == 3
        chain = FilterChain(sim.network)
        chain.add(lambda s, d, e: d == 1)
        envelope = Envelope(origin=b"o", kind="t", payload=None, size=10)
        assert sim.network.drop_filter == chain._evaluate
        assert chain._evaluate(3, 0, envelope)  # pre-existing filter
        assert chain._evaluate(0, 1, envelope)  # newly added predicate
        assert not chain._evaluate(0, 2, envelope)


class TestPartitionerMechanics:
    def test_heal_is_idempotent(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=2))
        chain = FilterChain(sim.network)
        partition = Partitioner(chain, [{0, 1}, {2, 3}])
        partition.activate()
        partition.heal()
        partition.heal()  # second heal must be a no-op
        envelope = Envelope(origin=b"o", kind="t", payload=None, size=10)
        assert not chain._evaluate(0, 2, envelope)

    def test_within_group_traffic_flows(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=2))
        chain = FilterChain(sim.network)
        partition = Partitioner(chain, [{0, 1}, {2, 3}])
        partition.activate()
        envelope = Envelope(origin=b"o", kind="t", payload=None, size=10)
        assert not chain._evaluate(0, 1, envelope)
        assert chain._evaluate(0, 2, envelope)

    def test_node_outside_all_groups(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=2))
        chain = FilterChain(sim.network)
        partition = Partitioner(chain, [{0, 1}])
        partition.activate()
        envelope = Envelope(origin=b"o", kind="t", payload=None, size=10)
        # Nodes 2,3 share the implicit "no group" bucket (-1).
        assert not chain._evaluate(2, 3, envelope)
        assert chain._evaluate(0, 2, envelope)


class TestStrategyMechanics:
    def test_equivocator_registers_both_versions(self):
        """Both block versions must be fetchable, or honest nodes that
        agree on one of them could not resolve the hash."""
        sim = Simulation(
            SimulationConfig(num_users=12, seed=2),
            faults=[FaultAction(kind="equivocate", start=0.0,
                                nodes=tuple(range(12)))])
        node = sim.nodes[0]
        ctx = node._current_context(1)
        from repro.sortition.roles import proposer_role
        from repro.sortition.selection import sortition
        proof = sortition(sim.backend, node.keypair.secret, ctx.seed,
                          node.params.tau_proposer, proposer_role(1),
                          ctx.weight_of(node.keypair.public),
                          ctx.total_weight)
        if proof.j == 0:
            pytest.skip("node not selected as proposer at this seed")
        before = len(sim.registry)
        node.propose_block(1, ctx, proof, node._tracker(1))
        assert len(sim.registry) == before + 2  # two versions registered

    def test_double_voter_emits_conflict(self):
        # This test hand-crafts a vote with a fake sortition proof to
        # exercise the strategy mechanics; admission would (correctly)
        # reject it at ingress, so run the pre-admission wiring.
        sim = Simulation(
            SimulationConfig(num_users=12, seed=14,
                             runtime=RuntimeConfig(use_admission=False)),
            faults=[FaultAction(kind="double-vote", start=0.0,
                                nodes=tuple(range(12)))])
        node = sim.nodes[0]
        from repro.baplus.messages import make_vote
        from repro.crypto.hashing import H
        vote = make_vote(sim.backend, node.keypair.secret,
                         node.keypair.public, 1, "1", H(b"s"), b"p",
                         node.chain.tip_hash, H(b"value"))
        node.participant.gossip_vote(vote)
        sim.env.run(until=5.0)
        # Some neighbor received the conflicting second vote.
        received = [
            v
            for other in sim.nodes[1:]
            for v in other.buffer.messages(1, "1")
            if v.voter == node.keypair.public
        ]
        values = {v.value for v in received}
        assert len(values) >= 1
        # Across the whole network both values circulated.
        all_values = {v.value for other in sim.nodes
                      for v in other.buffer.messages(1, "1")}
        assert len(all_values) == 2

    def test_window_takes_the_seams_and_gives_them_back(self):
        """An attacker is an honest node with a seam taken over: inside
        its window, ``silent`` holds both seams; after it, the node's
        own proposal and vote gossip are back."""
        sim = Simulation(
            SimulationConfig(num_users=6, seed=3),
            faults=[FaultAction(kind="silent", start=1.0, end=2.0,
                                nodes=(5,))])
        node = sim.nodes[5]
        honest_vote = node.participant.gossip_vote
        assert "propose_block" not in vars(node)
        sim.env.run(until=1.5)
        assert "propose_block" in vars(node)
        assert node.participant.gossip_vote != honest_vote
        node.participant.gossip_vote(None)  # silent: ignores anything
        sim.env.run(until=2.5)
        assert "propose_block" not in vars(node)
        assert node.participant.gossip_vote == honest_vote
