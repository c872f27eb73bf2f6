"""Tests for passive observers and peer reshuffle."""

from __future__ import annotations

import pytest

from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import NetworkConfig
from repro.experiments.sweep import run_point
from repro.experiments.waiting import waiting_spec


class TestObservers:
    """Section 7: 'any user observing the messages can passively
    participate ... and reach the agreement decision'."""

    @pytest.fixture(scope="class")
    def observed_sim(self):
        sim = Simulation(SimulationConfig(num_users=14, seed=81,
                                          num_observers=3))
        sim.submit_payments(20)
        sim.run_rounds(2)
        return sim

    def test_observers_reach_same_decisions(self, observed_sim):
        sim = observed_sim
        assert len(sim.observers) == 3
        reference = sim.nodes[0].chain
        for observer in sim.observers:
            assert observer.chain.height == 2
            assert observer.chain.tip_hash == reference.tip_hash

    def test_observers_never_vote_or_propose(self, observed_sim):
        """Zero stake means sortition never selects them: their traffic
        is pure relay, no originated votes."""
        for observer in observed_sim.observers:
            own_votes = [
                vote
                for round_number in (1, 2)
                for step in ("1", "reduction_one", "final")
                for vote in observer.buffer.messages(round_number, step)
                if vote.voter == observer.keypair.public
            ]
            assert own_votes == []

    def test_observers_hold_no_stake(self, observed_sim):
        for observer in observed_sim.observers:
            assert observer.chain.state.balance(
                observer.keypair.public) == 0

    def test_observer_metrics_match_participants(self, observed_sim):
        sim = observed_sim
        for round_number in (1, 2):
            kinds = {node.metrics.round_record(round_number).kind
                     for node in sim.nodes}
            assert kinds == {"final"}


class TestPeerReshuffle:
    def test_reshuffle_each_round_changes_topology(self):
        sim = Simulation(SimulationConfig(
            num_users=14, seed=82,
            network=NetworkConfig(reshuffle_peers_each_round=True)))
        before = [tuple(iface.neighbors)
                  for iface in sim.network.interfaces]
        sim.run_rounds(2)
        after = [tuple(iface.neighbors) for iface in sim.network.interfaces]
        assert before != after
        assert sim.all_chains_equal()

    def test_static_topology_by_default(self):
        sim = Simulation(SimulationConfig(num_users=14, seed=82))
        before = [tuple(iface.neighbors)
                  for iface in sim.network.interfaces]
        sim.run_rounds(1)
        after = [tuple(iface.neighbors) for iface in sim.network.interfaces]
        assert before == after


class TestWaitingPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_point(waiting_spec(0.0, 12, 84))

    def test_generous_wait_no_empties(self):
        point = run_point(waiting_spec(2.0, 12, 84, rounds=1)).point
        assert point.empty_fraction == 0.0
        assert point.median_latency > 2.0
