"""Edge-case tests for remaining uncovered branches."""

from __future__ import annotations

import pytest

from repro.common.errors import LedgerError, NetworkError
from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.block import empty_block
from repro.node.metrics import NodeMetrics, RoundRecord
from repro.node.proposal import ProposalTracker
from repro.node.registry import BlockRegistry


class TestBlockRegistry:
    def test_fetch_unknown_hash_raises(self):
        registry = BlockRegistry()
        with pytest.raises(LedgerError):
            registry.fetch(H(b"never-built"))

    def test_fetch_counts_slow_path(self):
        registry = BlockRegistry()
        block = empty_block(1, H(b"p"))
        registry.register(block)
        assert block.block_hash in registry
        assert registry.fetch(block.block_hash) is block
        assert registry.fetches == 1
        assert len(registry) == 1


class TestProposalTrackerEdges:
    def test_best_block_without_any_priority(self):
        tracker = ProposalTracker(1)
        assert tracker.best_block() is None

    def test_observe_block_without_proposer(self):
        from repro.sim.loop import Environment
        tracker = ProposalTracker(1)
        assert not tracker.observe_block(empty_block(1, H(b"p")),
                                         Environment())


class TestMetricsEdges:
    def test_finalize_kind_unknown_round_is_noop(self):
        metrics = NodeMetrics()
        metrics.finalize_kind(7, "final")  # must not raise
        assert metrics.rounds == []

    def test_finalize_kind_updates_in_place(self):
        metrics = NodeMetrics()
        metrics.record_round(RoundRecord(
            round_number=1, start_time=0, proposal_done_time=1,
            ba_done_time=2, end_time=3, kind="tentative", block_hash=b"h",
            is_empty=False, payload_bytes=0, binary_steps=1))
        metrics.finalize_kind(1, "final")
        assert metrics.round_record(1).kind == "final"
        # Other fields preserved.
        assert metrics.round_record(1).end_time == 3


class TestGossipSendToEdges:
    def test_send_to_non_neighbor_rejected(self):
        # 30 nodes with ~8 neighbors each: strangers are guaranteed.
        sim = Simulation(SimulationConfig(num_users=30, seed=5))
        iface = sim.network.interfaces[0]
        stranger = next(i for i in range(30)
                        if i != 0 and i not in iface.neighbors)
        from repro.network.message import Envelope
        with pytest.raises(NetworkError):
            iface.send_to(Envelope(origin=b"o", kind="t", payload=None,
                                   size=10), [stranger])

    def test_send_to_while_disconnected_is_noop(self):
        sim = Simulation(SimulationConfig(num_users=6, seed=5))
        iface = sim.network.interfaces[0]
        iface.disconnected = True
        from repro.network.message import Envelope
        iface.send_to(Envelope(origin=b"o", kind="t", payload=None,
                               size=10), list(iface.neighbors))
        sim.env.run(until=1.0)
        assert iface.bytes_sent == 0


class TestHarnessEdges:
    def test_no_observers_property_empty(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=6))
        assert sim.observers == []

    def test_round_latencies_before_any_round(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=6))
        assert sim.outcome().round_latencies(1) == []

    def test_agreed_hashes_partial_progress(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=6))
        assert sim.outcome().agreed_hashes(1) == set()


class TestScaledParams:
    def test_zero_weight_context_rejected(self):
        from repro.baplus.context import BAContext
        from repro.common.errors import SortitionError
        with pytest.raises(SortitionError):
            BAContext(seed=H(b"s"), weights={}, total_weight=0,
                      last_block_hash=H(b"t"))

    def test_context_weights_frozen(self):
        from repro.baplus.context import BAContext
        ctx = BAContext.from_weights(H(b"s"), {b"k" * 32: 5}, H(b"t"))
        with pytest.raises(TypeError):
            ctx.weights[b"x" * 32] = 10  # type: ignore[index]
