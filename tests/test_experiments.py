"""Tests for the experiment harness, metrics, and figure runners.

Runner tests use deliberately tiny deployments — they validate plumbing
and result shapes; the benchmarks exercise the real sweeps.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.chaos.scenario import FaultAction
from repro.common.errors import NoSamplesError, SpecError
from repro.common.params import PAPER_PARAMS
from repro.experiments.__main__ import _summary_row
from repro.experiments.costs import (
    costs_spec,
    cpu_seconds,
    expected_certificate_bytes,
    measure_costs,
)
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import NetworkConfig
from repro.experiments.adversarial import adversarial_spec
from repro.experiments.latency import flatness, latency_spec
from repro.experiments.metrics import LatencySummary
from repro.experiments.sweep import run_point
from repro.experiments.throughput import (
    block_size_spec,
    paper_scale_projection,
    throughput_table,
)
from repro.experiments.timeouts import measure_priority_gossip
from repro.obs.report import format_table


class TestLatencySummary:
    def test_percentiles(self):
        summary = LatencySummary.from_samples([1, 2, 3, 4, 5])
        assert summary.minimum == 1
        assert summary.median == 3
        assert summary.maximum == 5
        assert summary.count == 5

    def test_empty_rejected(self):
        with pytest.raises(NoSamplesError):
            LatencySummary.from_samples([])

    def test_empty_is_still_a_value_error(self):
        # pre-existing callers catch ValueError; the typed error must
        # remain compatible with that contract
        with pytest.raises(ValueError):
            LatencySummary.from_samples([])

    def test_empty_placeholder(self):
        summary = LatencySummary.empty()
        assert summary.count == 0
        assert math.isnan(summary.median)
        assert math.isnan(summary.minimum) and math.isnan(summary.maximum)

    def test_row_rounding(self):
        """The fig5/fig6 table rounds to 2 places; no median is 'nan'."""
        summary = LatencySummary.from_samples([1.23456])
        row = _summary_row({"summary": dataclasses.asdict(summary)})
        assert row[2] == 1.23
        blank = dict(dataclasses.asdict(summary), median=None)
        assert _summary_row({"summary": blank})[2] == "nan"


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["a", "bee"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "333" in lines[3]
        assert len(lines) == 4


class TestSimulationConfig:
    def test_balance_override_validated(self):
        config = SimulationConfig(num_users=3, balances=[1, 2])
        with pytest.raises(ValueError):
            config.make_balances()

    def test_unknown_latency_model(self):
        with pytest.raises(ValueError):
            Simulation(SimulationConfig(
                num_users=4, network=NetworkConfig(latency_model="quantum")))


class TestRunners:
    def test_latency_point_shape(self):
        point = run_point(latency_spec(10, 1, rounds=1)).point
        assert point.num_users == 10
        assert point.summary.count == 10
        assert point.summary.minimum > 0

    def test_flatness_of_identical_points(self):
        point = run_point(latency_spec(10, 1, rounds=1)).point
        median = point.summary.median
        assert flatness([median, median]) == 1.0
        assert flatness([None, median, 2 * median]) == 2.0
        assert math.isnan(flatness([None]))

    def test_block_size_point_segments_positive(self):
        point = run_point(block_size_spec(5_000, 10, 2)).point
        assert point.proposal_time > 0
        assert point.ba_time >= 0
        assert point.final_step_time >= 0
        assert point.total > 0

    def test_throughput_table_structure(self):
        point = run_point(block_size_spec(5_000, 10, 2)).point
        rows = throughput_table([point])
        assert rows[0].system == "bitcoin"
        assert rows[1].system == "algorand"
        assert rows[1].ratio_vs_bitcoin == pytest.approx(
            rows[1].bytes_per_hour / rows[0].bytes_per_hour)

    def test_pipelining_final_step_increases_throughput(self):
        point = run_point(block_size_spec(5_000, 10, 2)).point
        plain = throughput_table([point])[1]
        pipelined = throughput_table([point], pipeline_final_step=True)[1]
        assert pipelined.bytes_per_hour >= plain.bytes_per_hour

    def test_adversarial_point_bounds(self):
        point = run_point(adversarial_spec(0.2, 10, 3, rounds=1)).point
        assert point.malicious_users == 2
        assert point.malicious_fraction == 0.2
        assert point.agreed
        with pytest.raises(ValueError):
            adversarial_spec(0.5, 20, 0)

    def test_a_delayed_victim_stays_honest(self):
        """Only attacker kinds make a node malicious: the node a delay
        slows down is a victim, and its latency is an honest sample."""
        spec = adversarial_spec(0.2, 10, 3, rounds=1)
        spec = dataclasses.replace(spec, faults=spec.faults + (
            FaultAction(kind="delay", start=0.0, end=30.0, nodes=(0,),
                        extra_delay=0.01),))
        point = run_point(spec).point
        assert point.malicious_users == 2
        assert point.malicious_fraction == 0.2
        assert point.summary.count == 8  # every honest node, victim too

    def test_costs_report_consistency(self):
        report = run_point(costs_spec(10, seed=4, rounds=1,
                                      payload_bytes=2_000)).point
        assert report.mean_bytes_sent_per_user > 0
        assert report.certificate_votes > 0
        assert report.certificate_overhead > 0
        assert (report.storage_per_round_unsharded
                > report.storage_per_round_sharded_10)
        assert report.verifications_per_user_round > 0
        assert report.cpu_seconds_per_user_round > 0

    def test_costs_need_the_crypto_counters(self):
        """A run whose snapshot carries no backend counts has no CPU
        proxy: the measure says so instead of reporting zero crypto
        work."""
        spec = costs_spec(4, seed=4, rounds=1, payload_bytes=1_000)
        outcome = Simulation(spec.config).outcome()
        assert outcome.snapshot["crypto.verifies"] == 0
        outcome = dataclasses.replace(outcome, snapshot={
            name: value for name, value in outcome.snapshot.items()
            if not name.startswith("crypto.")})
        with pytest.raises(SpecError, match="crypto.verifies"):
            measure_costs(outcome, spec)

    def test_cpu_estimate_scales_with_ops(self):
        def counts(verifies: int) -> dict:
            return {"crypto.signs": 0, "crypto.verifies": verifies,
                    "crypto.vrf_proves": 0, "crypto.vrf_verifies": 0}

        assert cpu_seconds(counts(1000)) == pytest.approx(
            100 * cpu_seconds(counts(10)))

    def test_priority_gossip_fast(self):
        assert measure_priority_gossip(20, seed=5) < 2.0


class TestPaperConstants:
    def test_certificate_size_near_paper_300kb(self):
        assert 250e3 < expected_certificate_bytes(PAPER_PARAMS) < 400e3

    def test_projection_matches_paper_750mb_hour(self):
        assert 600e6 < paper_scale_projection() < 900e6


class TestDeterministicHarness:
    def test_submit_payments_deterministic(self):
        def run():
            sim = Simulation(SimulationConfig(num_users=8, seed=6))
            sim.submit_payments(10)
            sim.run_rounds(1)
            return sim.nodes[0].chain.tip_hash

        assert run() == run()

    def test_timeout_error_when_rounds_cannot_finish(self):
        sim = Simulation(SimulationConfig(num_users=8, seed=7))
        # Freeze the network entirely: no round can complete.
        sim.network.drop_filter = lambda src, dst, envelope: True
        with pytest.raises(TimeoutError):
            sim.run_rounds(1, time_limit=5.0)
