"""Tests for the step-count analysis (§7) and gossip-graph claims (§8.4)."""

from __future__ import annotations

import math

import pytest

from repro.analysis.graph import (
    analyze_topology,
    build_gossip_graph,
    diameter_scaling,
)
from repro.analysis.steps import (
    COMMON_CASE_STEPS,
    expected_binary_steps_worst_case,
    expected_total_steps_worst_case,
    loop_success_probability,
)

import numpy as np


class TestStepAnalysis:
    def test_common_case_is_four_steps(self):
        """'BA* ... terminates precisely in 4 interactive steps'."""
        assert COMMON_CASE_STEPS == 4

    def test_worst_case_matches_paper_eleven_and_thirteen(self):
        """'expected 11 steps' (BinaryBA*) and 'expected 13 steps'
        (total) at the paper's worst-case h -> 2/3."""
        assert expected_binary_steps_worst_case() == pytest.approx(
            11.0, abs=0.01)
        assert expected_total_steps_worst_case() == pytest.approx(
            13.0, abs=0.01)

    def test_deployed_h_is_cheaper(self):
        assert (expected_total_steps_worst_case(0.80)
                < expected_total_steps_worst_case())

    def test_loop_probability(self):
        """'consensus with probability 1/2 * h > 1/3 at each loop'."""
        assert loop_success_probability(0.80) == 0.40
        assert loop_success_probability(2 / 3 + 1e-9) > 1 / 3

    def test_max_steps_150_bounds_the_attack(self):
        """MaxSteps = 150 (Figure 4) makes attack survival negligible —
        the attack must win all of its 50 coin loops."""
        survives = 1.0 - loop_success_probability(0.80)
        assert survives ** (150 // 3) < 1e-11

    def test_validation(self):
        with pytest.raises(ValueError):
            loop_success_probability(0.0)


class TestGossipGraph:
    def test_giant_component_contains_almost_everyone(self):
        """§8.4: 'almost all users will be part of one connected
        component'."""
        for seed in range(5):
            report = analyze_topology(300, peers_per_node=4, seed=seed)
            assert report.giant_component_fraction > 0.99
            assert report.isolated_nodes == 0

    def test_average_degree_is_twice_peer_count(self):
        """'each user connects to 4 random peers ... 8 peers on
        average' (section 9)."""
        report = analyze_topology(400, peers_per_node=4, seed=1)
        assert 7.0 < report.average_degree < 8.5

    def test_diameter_grows_logarithmically(self):
        """§8.4: dissemination grows with the diameter, 'logarithmic in
        the number of users' [45]: a 64x size increase adds only a few
        hops."""
        reports = diameter_scaling([50, 400, 3200], seed=3)
        diameters = [report.diameter for report in reports]
        assert diameters == sorted(diameters)
        assert diameters[-1] <= diameters[0] + 4
        assert diameters[-1] <= 2 * math.log(3200, 8) + 4

    def test_dissemination_hops_small(self):
        """Gossip reaches the giant component in a few hops: the mean
        shortest path of a 500-user graph (section 8.4's flat latency)."""
        import networkx as nx
        graph = build_gossip_graph(500, 4, np.random.default_rng(4))
        giant = graph.subgraph(max(nx.connected_components(graph), key=len))
        assert 1.5 < nx.average_shortest_path_length(giant) < 5.0

    def test_graph_matches_simulator_topology_rule(self):
        """The analysis graph and the live GossipNetwork use the same
        construction, so their degree distributions agree."""
        from repro.network.gossip import GossipNetwork
        from repro.network.latency import UniformLatencyModel
        from repro.sim.loop import Environment

        rng = np.random.default_rng(9)
        graph = build_gossip_graph(60, 4, rng)
        net = GossipNetwork(Environment(), 60,
                            np.random.default_rng(9),
                            UniformLatencyModel(0.01), peers_per_node=4)
        graph_degrees = sorted(d for _, d in graph.degree())
        net_degrees = sorted(len(iface.neighbors)
                             for iface in net.interfaces)
        assert graph_degrees == net_degrees

    def test_too_small_graph_rejected(self):
        with pytest.raises(ValueError):
            build_gossip_graph(1, 4, np.random.default_rng(0))
