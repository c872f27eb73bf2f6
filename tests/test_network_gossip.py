"""Tests for the gossip network and latency models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import NetworkError
from repro.network import latency as latency_module
from repro.network.gossip import GossipNetwork
from repro.network.latency import (
    CITIES,
    JITTER_FRACTION,
    LatencyModel,
    UniformLatencyModel,
    base_latency_matrix,
    great_circle_km,
)
from repro.network.message import Envelope
from repro.sim.loop import Environment
from tests.fixtures import record_received


def _network(num_nodes=20, seed=0, bandwidth=None, latency=0.01,
             peers=4):
    env = Environment()
    rng = np.random.default_rng(seed)
    net = GossipNetwork(env, num_nodes, rng, UniformLatencyModel(latency),
                        peers_per_node=peers, bandwidth_bps=bandwidth)
    return env, net


class TestLatencyModel:
    def test_matrix_shape_and_symmetry(self):
        matrix = base_latency_matrix()
        n = len(CITIES)
        assert matrix.shape == (n, n)
        assert np.allclose(matrix, matrix.T)

    def test_same_city_is_fast(self):
        matrix = base_latency_matrix()
        assert all(matrix[i, i] < 0.005 for i in range(len(CITIES)))

    def test_intercontinental_is_slow(self):
        # London (5) to Sydney (16): one-way should exceed 80 ms.
        matrix = base_latency_matrix()
        assert matrix[5, 16] > 0.08
        # and below half a second.
        assert matrix.max() < 0.5

    def test_great_circle_known_distance(self):
        # New York to London ~5570 km.
        km = great_circle_km(40.71, -74.01, 51.51, -0.13)
        assert 5300 < km < 5800

    def test_user_latency_positive_with_jitter(self):
        model = LatencyModel(50, np.random.default_rng(0))
        for _ in range(20):
            assert model.latency(3, 17) > 0

    def test_uniform_model(self):
        model = UniformLatencyModel(0.05)
        assert model.latency(0, 1) == 0.05
        assert model.latencies(0, [1, 2, 3]) == [0.05, 0.05, 0.05]
        with pytest.raises(ValueError):
            UniformLatencyModel(-1)

    @pytest.mark.parametrize("jitter", [0.0, JITTER_FRACTION])
    def test_vectorised_latencies_are_bit_identical(self, jitter,
                                                    monkeypatch):
        """``latencies`` is the egress batch's one-draw form of
        ``latency``: same floats to the last bit (compared as hex, so
        -0.0/NaN tricks cannot hide a slip) and the same RNG state
        afterwards, so mixing the two never forks a seeded run. Both
        work on Python floats; the elementwise numpy expression they
        replaced is the reference, at every batch size egress uses."""
        monkeypatch.setattr(latency_module, "JITTER_FRACTION", jitter)
        scalar = LatencyModel(60, np.random.default_rng(7))
        vector = LatencyModel(60, np.random.default_rng(7))
        reference_rng = np.random.default_rng(7)
        cities = reference_rng.integers(0, len(CITIES), size=60)
        matrix = base_latency_matrix()
        picker = np.random.default_rng(99)
        for size in list(range(1, 31)) * 10:
            src = int(picker.integers(60))
            dsts = [int(d) for d in picker.integers(60, size=size)]
            one_by_one = [scalar.latency(src, dst) for dst in dsts]
            at_once = vector.latencies(src, dsts)
            reference = matrix[cities[src]][cities[dsts]] * np.maximum(
                0.25, 1.0 + jitter * reference_rng.standard_normal(size))
            assert all(type(value) is float for value in at_once)
            assert all(type(value) is float for value in one_by_one)
            assert ([value.hex() for value in at_once]
                    == [value.hex() for value in one_by_one]
                    == [value.hex() for value in reference.tolist()])
        assert (scalar._rng.bit_generator.state
                == vector._rng.bit_generator.state
                == reference_rng.bit_generator.state)


class TestTopology:
    def test_every_node_has_neighbors(self):
        _, net = _network(30)
        for iface in net.interfaces:
            assert len(iface.neighbors) >= net.peers_per_node
            assert iface.index not in iface.neighbors

    def test_links_are_bidirectional(self):
        _, net = _network(30)
        for iface in net.interfaces:
            for neighbor in iface.neighbors:
                assert iface.index in net.interfaces[neighbor].neighbors

    def test_reshuffle_changes_graph(self):
        _, net = _network(30)
        before = [tuple(i.neighbors) for i in net.interfaces]
        net.reshuffle_peers()
        after = [tuple(i.neighbors) for i in net.interfaces]
        assert before != after

    def test_too_few_nodes_rejected(self):
        env = Environment()
        with pytest.raises(NetworkError):
            GossipNetwork(env, 1, np.random.default_rng(0),
                          UniformLatencyModel(0.01), 4, None)


class TestFlooding:
    def test_broadcast_reaches_everyone(self):
        env, net = _network(40)
        received = record_received(net)
        net.interfaces[0].broadcast(
            Envelope(origin=b"o", kind="t", payload=None, size=100))
        env.run()
        assert sum(1 for log in received[1:] if log) == 39

    def test_duplicates_suppressed(self):
        env, net = _network(20)
        received = record_received(net)
        envelope = Envelope(origin=b"o", kind="t", payload=None, size=100)
        net.interfaces[0].broadcast(envelope)
        env.run()
        # Each node sees the message exactly once despite flooding.
        assert all(log == [envelope] for log in received[1:])

    def test_relay_policy_false_stops_forwarding(self):
        env, net = _network(30)
        received = record_received(net, relay=False)
        net.interfaces[0].broadcast(
            Envelope(origin=b"o", kind="t", payload=None, size=100))
        env.run()
        # Only direct neighbors receive it.
        reached = {index for index, log in enumerate(received) if log}
        assert reached == set(net.interfaces[0].neighbors)

    def test_latency_bounds_propagation_time(self):
        env, net = _network(40, latency=0.05, bandwidth=None)
        net.interfaces[0].broadcast(
            Envelope(origin=b"o", kind="t", payload=None, size=100))
        env.run()
        # Diameter of a 40-node random graph with ~8 neighbors is <= 4.
        assert env.now <= 0.05 * 6

    def test_bandwidth_slows_large_messages(self):
        env_small, net_small = _network(20, bandwidth=1e6)
        net_small.interfaces[0].broadcast(
            Envelope(origin=b"o", kind="t", payload=None, size=100))
        env_small.run()
        t_small = env_small.now

        env_big, net_big = _network(20, bandwidth=1e6)
        net_big.interfaces[0].broadcast(
            Envelope(origin=b"o", kind="t", payload=None, size=100_000))
        env_big.run()
        assert env_big.now > t_small * 5

    def test_disconnected_node_neither_sends_nor_receives(self):
        env, net = _network(20)
        received = record_received(net)
        net.interfaces[5].disconnected = True
        net.interfaces[0].broadcast(
            Envelope(origin=b"o", kind="t", payload=None, size=100))
        env.run()
        assert not received[5]

    def test_drop_filter_partitions_network(self):
        env, net = _network(30)
        left = set(range(15))

        def drop(src, dst, envelope):
            return (src in left) != (dst in left)

        net.drop_filter = drop
        received = record_received(net)
        net.interfaces[0].broadcast(
            Envelope(origin=b"o", kind="t", payload=None, size=100))
        env.run()
        reached = {index for index, log in enumerate(received) if log}
        assert reached <= left

    def test_bytes_accounting(self):
        env, net = _network(10)
        net.interfaces[0].broadcast(
            Envelope(origin=b"o", kind="t", payload=None, size=500))
        env.run()
        assert net.total_bytes_sent % 500 == 0
        assert net.total_bytes_sent >= 500 * len(
            net.interfaces[0].neighbors)


class TestEnvelope:
    def test_unique_ids(self):
        a = Envelope(origin=b"o", kind="t", payload=None, size=1)
        b = Envelope(origin=b"o", kind="t", payload=None, size=1)
        assert a.msg_id != b.msg_id

    def test_size_validated(self):
        with pytest.raises(ValueError):
            Envelope(origin=b"o", kind="t", payload=None, size=0)


def _end_round(net) -> None:
    """A round boundary at every node (each rolls its own dedup store)."""
    for iface in net.interfaces:
        iface.end_round()


class TestSeenPruning:
    def test_seen_bounded_by_horizon(self):
        env, net = _network(10)
        rounds = []
        for _ in range(4):
            rounds.append([Envelope(origin=b"o", kind="t", payload=None,
                                    size=50) for _ in range(3)])
            for envelope in rounds[-1]:
                net.interfaces[0].broadcast(envelope)
            env.run()
            _end_round(net)
        # With a 2-round horizon only the last two rounds' ids survive.
        for iface in net.interfaces:
            held = [[iface.holds(envelope.msg_id) for envelope in batch]
                    for batch in rounds]
            assert held == [[False] * 3] * 2 + [[True] * 3] * 2

    def test_prune_keeps_recent_ids(self):
        env, net = _network(10)
        envelope = Envelope(origin=b"o", kind="t", payload=None, size=50)
        net.interfaces[0].broadcast(envelope)
        env.run()
        _end_round(net)
        _end_round(net)
        _end_round(net)  # envelope now beyond the 2-round horizon
        for iface in net.interfaces:
            assert not iface.holds(envelope.msg_id)
        # A pruned duplicate is re-accepted once instead of crashing.
        net.interfaces[0].broadcast(envelope)
        env.run()
        assert net.interfaces[1].holds(envelope.msg_id)
