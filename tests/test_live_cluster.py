"""End-to-end live cluster smoke test (marked slow; run with -m slow).

Spawns five real node processes over Unix domain sockets, commits three
rounds of BA*, and checks the acceptance bar for the live substrate:
byte-identical chains on every process and a merged trace the reference
state machine accepts with zero violations.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.conformance.monitor import ConformanceMonitor
from repro.experiments.harness import Simulation
from repro.live.cluster import LiveCluster
from repro.node.config import SubstrateConfig
from repro.obs import TraceBus
from repro.obs.report import render_report
from repro.obs.sink import read_trace
from tests.fixtures import live_config

pytestmark = pytest.mark.slow

NODES = 5
ROUNDS = 3


#: Registry names only the sim has: its population, its network's
#: delivery and elision tallies and its egress lanes.
SIM_ONLY = ("population.", "network.", "gossip.dup_elided",
            "admission.egress_")
#: The runtime families a node stack carries on either substrate.
SHARED = ("crypto.", "sortition.", "router.unknown_kind", "admission.",
          "damping.", "simloop.")


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    runtime_dir = tmp_path_factory.mktemp("live-cluster")
    config = live_config(NODES, seed=7,
                                 runtime_dir=str(runtime_dir))
    cluster = LiveCluster(config)
    cluster.submit_payments(20)
    cluster.run_rounds(ROUNDS)
    return cluster


@pytest.fixture(scope="module")
def four_rounds(tmp_path_factory):
    """The same deployment, four rounds and no payments."""
    cluster = LiveCluster(live_config(
        NODES, seed=7, runtime_dir=str(tmp_path_factory.mktemp("live-4"))))
    cluster.run_rounds(4)
    return cluster


@pytest.fixture(scope="module")
def sim_snapshot(cluster):
    """The same config's run on the sim substrate, traced."""
    bus = TraceBus()
    sim = Simulation(dataclasses.replace(
        cluster.config, substrate=SubstrateConfig()), obs=bus)
    sim.submit_payments(20)
    sim.run_rounds(ROUNDS)
    return bus.snapshot()


def _names(snapshot: dict, prefixes: tuple[str, ...]) -> set[str]:
    return {name for section in ("counters", "gauges")
            for name in snapshot[section] if name.startswith(prefixes)}


class TestLiveCluster:
    def test_every_process_reaches_target_height(self, cluster):
        assert sorted(cluster.results) == list(range(NODES))
        for result in cluster.results.values():
            assert result["height"] == ROUNDS
            assert not result["halted"]

    def test_chains_byte_identical(self, cluster):
        assert cluster.all_chains_equal()
        tips = {result["tip"] for result in cluster.results.values()}
        assert len(tips) == 1

    def test_decoded_chains_agree_per_round(self, cluster):
        reference = cluster.chains[0]
        assert len(reference) == ROUNDS
        for index in range(1, NODES):
            chain = cluster.chains[index]
            for left, right in zip(reference, chain):
                assert left.block_hash == right.block_hash

    def test_payments_actually_committed(self, cluster):
        total_txs = sum(len(block.transactions)
                        for block in cluster.chains[0])
        assert total_txs > 0

    def test_merged_trace_conforms_with_zero_violations(self, cluster):
        events, snapshot = read_trace(cluster.merged_trace_path)
        assert events, "merged trace must carry protocol events"
        assert snapshot is not None
        monitor = ConformanceMonitor()
        monitor.feed(events)
        verdict = monitor.verdict()
        assert verdict.ok, verdict.violations
        assert verdict.nodes == NODES
        assert len(monitor.violations) == 0

    def test_no_transport_loss_on_loopback(self, cluster):
        summary = cluster.summary()
        assert summary["live.rx_dropped"] == 0
        assert summary["live.garbage_frames"] == 0
        assert summary["conformance_ok"]
        assert summary["conformance.violations"] == 0

    def test_socket_writes_are_harvested_and_carry_frames(self, cluster):
        # One write per link per clock turn: never more writes than
        # frames, and the merged trace's report shows the ratio.
        summary = cluster.summary()
        assert 0 < summary["live.socket_writes"] <= summary[
            "live.messages_sent"]
        _, snapshot = read_trace(cluster.merged_trace_path)
        assert "frames per write" in render_report([], snapshot)

    def test_node_snapshot_carries_the_relay_cores_counter_families(
            self, cluster, sim_snapshot):
        """Same names from either substrate: the core emits them."""
        _, live = read_trace(cluster.results[0]["trace"])
        families = ("sent.", "sent_bytes.", "recv.", "recv_bytes.",
                    "relayed.", "dup_dropped", "pruned_ids", "prune_passes")
        for snapshot in (live, sim_snapshot):
            names = [name for name in snapshot["counters"]
                     if name.startswith("gossip.")]
            for family in families:
                assert any(name.startswith("gossip." + family)
                           for name in names), (family, names)

    def test_node_snapshot_carries_the_sims_runtime_names(
            self, cluster, sim_snapshot):
        """One harvest: a node stack's runtime counters have the same
        names on either substrate, bar the sim-only ones."""
        rejected = ("admission.rejected.",)
        sim = _names(sim_snapshot, SHARED) - _names(sim_snapshot, SIM_ONLY)
        assert _names(sim_snapshot, SIM_ONLY)
        for index in range(NODES):
            _, live = read_trace(cluster.results[index]["trace"])
            names = _names(live, SHARED)
            assert not _names(live, SIM_ONLY)
            assert (names - _names(live, rejected)
                    == sim - _names(sim_snapshot, rejected))
            assert live["counters"]["crypto.verifies"] > 0
            assert live["gauges"]["admission.buffer_high_water"] > 0
        outcome = cluster.outcome()
        assert outcome.snapshot["damping.observed"] == sum(
            run.counters["damping.observed"]
            for run in outcome.runs.values())

    def test_report_on_the_merged_trace_has_the_runtime_table(
            self, cluster):
        events, snapshot = read_trace(cluster.merged_trace_path)
        report = render_report(events, snapshot)
        table = report.split("== Runtime counters ==")[1]
        for row in ("crypto", "sortition", "admission",
                    "ingress buffers"):
            assert f"\n{row} " in table, (row, table)
        assert snapshot["counters"]["crypto.verifies"] == sum(
            read_trace(result["trace"])[1]["counters"]["crypto.verifies"]
            for result in cluster.results.values())

    def test_summary_reports_each_nodes_startup(self, cluster):
        """"Why did setup take that long" is answerable from summary():
        each node's split, the node server's import, paid once, and what
        the coordinator had loaded when it spawned the server."""
        summary = cluster.summary()
        startup = summary["startup"]
        assert sorted(startup) == list(range(NODES))
        server = summary["node_server"]
        assert server["import_s"] > 0.0 and server["cpu_s"] > 0.0
        assert server["rss_mb"] > 0.0
        # A process that has loaded scipy has > 1,000 modules.
        assert 0 < server["modules_loaded"] < 600
        # The coordinator's side at the spawn. This coordinator is the
        # test process, which loaded the node stack long before; that a
        # fresh one spawns first is tests/test_import_budget.py's check.
        assert server["coordinator_cpu_s"] > 0.0
        assert server["coordinator_modules"] > 0
        for report in startup.values():
            # Spawn request -> the fork running: the server's import at
            # most (if the request waited on it), plus the fork.
            assert 0.0 < report["import_s"] <= report["ready_s"]
            assert report["import_s"] < server["import_s"] + 1.0
            assert 0.0 < report["build_s"] <= report["ready_s"]
            assert report["rss_mb"] > 0.0
            assert 0 < report["modules_loaded"] < 600
        # Only a request sent while the server still imported waits.
        assert min(report["import_s"] for report in startup.values()) \
            < server["import_s"]


class TestOneRead:
    """A node's counters are read once, at its closing snapshot: the
    outcome, the summary and the merged trace show one fold."""

    def test_the_three_reads_are_one_fold(self, four_rounds):
        outcome, summary = four_rounds.outcome(), four_rounds.summary()
        _, merged = read_trace(four_rounds.merged_trace_path)
        numbers = {**merged["counters"], **merged["gauges"]}
        assert numbers and set(outcome.snapshot) == set(numbers)
        for name, value in numbers.items():
            assert outcome.snapshot[name] == summary[name] == value, name

    def test_each_run_holds_its_own_closing_snapshot(self, four_rounds):
        outcome, summary = four_rounds.outcome(), four_rounds.summary()
        assert sorted(outcome.runs) == list(range(NODES))
        for index, run in outcome.runs.items():
            _, own = read_trace(four_rounds.results[index]["trace"])
            assert run.counters == {**own["counters"], **own["gauges"]}
            assert summary["per_node"][index] == run.counters

    def test_a_clean_stop_redials_nobody(self, four_rounds):
        """Read where it is written last, after every peer stopped."""
        for index, result in four_rounds.results.items():
            _, own = read_trace(result["trace"])
            numbers = {**own["counters"], **own["gauges"]}
            assert numbers["live.reconnect_attempts"] == 0, index
