"""Live fault-plane tests: real SIGKILLs, severed links, gossip catch-up.

The tier-1 tests here run **3-process** clusters over Unix domain
sockets with stakes ``[80, 80, 40]`` — the calibrated committee design
point (W = 200) with the victim holding the small stake, so killing or
severing it leaves 160/200 = 80% of the stake online and BA* quorums
keep forming throughout. Each test drives :class:`LiveCluster` directly
with a :class:`FaultAction` (the declarative layer the chaos engine
compiles onto the live substrate) and checks the full recovery story:
the victim rejoins, catches up via certificate-verified replay, chains
end byte-identical, and the merged trace satisfies the reference state
machine.

The 5-process scripted scenario sweep (the ``kill-partition`` builtin
via :func:`run_live_scenario`) is marked ``slow``; run with
``-m slow``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos.scenario import FaultAction, kill_partition_scenario
from repro.conformance.monitor import ConformanceMonitor
from repro.node.deployment import SimulationConfig, SubstrateConfig
from repro.live.cluster import LiveCluster
from repro.obs.sink import read_trace

NODES = 3
ROUNDS = 6
#: Stakes summing to the calibrated W = 200; the 40-stake victim can
#: vanish without stalling the surviving quorum.
BALANCES = [80, 80, 40]
VICTIM = 2


def _chaos_params():
    """LIVE_CHAOS_PARAMS with the step budget tightened further.

    ``max_steps=6`` bounds how long a quorum-less node spins before the
    ConsensusHalted -> catch-up path fires, keeping these tests tier-1
    fast; healthy loopback rounds never need more than a few steps.
    """
    from repro.chaos.live import LIVE_CHAOS_PARAMS
    return dataclasses.replace(LIVE_CHAOS_PARAMS, max_steps=6)


def _config(runtime_dir, seed: int = 7) -> SimulationConfig:
    return SimulationConfig(
        num_users=NODES,
        seed=seed,
        balances=list(BALANCES),
        params=_chaos_params(),
        substrate=SubstrateConfig(kind="live", transport="uds",
                                  runtime_dir=str(runtime_dir)),
    )


def _run(runtime_dir, faults, *, seed: int = 7,
         node_overrides=None) -> LiveCluster:
    cluster = LiveCluster(_config(runtime_dir, seed=seed), faults=faults,
                          node_overrides=node_overrides)
    cluster.submit_payments(6)
    cluster.run_rounds(ROUNDS, time_limit=120.0)
    return cluster


def _merged_events(cluster) -> list[dict]:
    events, _ = read_trace(cluster.merged_trace_path)
    return events


@pytest.fixture(scope="module")
def killed_cluster(tmp_path_factory):
    """SIGKILL the 40-stake node mid-run; respawn it 1.5s later."""
    return _run(tmp_path_factory.mktemp("live-kill"),
                [FaultAction(kind="crash", start=1.0, end=2.5,
                             nodes=(VICTIM,))])


@pytest.fixture(scope="module")
def partitioned_cluster(tmp_path_factory):
    """Sever every link of the 40-stake node for 1.5s, then heal."""
    return _run(tmp_path_factory.mktemp("live-partition"),
                [FaultAction(kind="partition", start=1.0, end=2.5,
                             groups=((0, 1), (VICTIM,)))])


class TestKilledNodeCatchesUp:
    def test_every_process_reaches_target_height(self, killed_cluster):
        assert sorted(killed_cluster.results) == list(range(NODES))
        for result in killed_cluster.results.values():
            assert result["height"] == ROUNDS

    def test_chains_byte_identical(self, killed_cluster):
        assert killed_cluster.all_chains_equal()
        tips = {r["tip"] for r in killed_cluster.results.values()}
        assert len(tips) == 1

    def test_kill_was_real_and_respawn_reported(self, killed_cluster):
        assert [k["node"] for k in killed_cluster.kill_log] == [VICTIM]
        assert killed_cluster.results[VICTIM]["incarnation"] == 1

    def test_victim_rebuilt_chain_via_catchup(self, killed_cluster):
        stats = killed_cluster.results[VICTIM]["stats"]
        assert stats["catchup_adopted"] >= 1
        served = sum(killed_cluster.results[i]["stats"]["catchup_served"]
                     for i in range(NODES) if i != VICTIM)
        assert served >= 1

    def test_merged_trace_tells_the_crash_story(self, killed_cluster):
        kinds = [e["kind"] for e in _merged_events(killed_cluster)]
        for kind in ("node_crashed", "node_restarted", "catchup_adopted",
                     "fault_applied", "fault_cleared"):
            assert kind in kinds, f"missing {kind} in merged trace"

    def test_merged_trace_conforms(self, killed_cluster):
        monitor = ConformanceMonitor()
        monitor.feed(_merged_events(killed_cluster))
        verdict = monitor.verdict()
        assert verdict.ok, verdict.violations
        assert verdict.nodes == NODES

    def test_summary_carries_fault_plane_stats(self, killed_cluster):
        summary = killed_cluster.summary()
        assert summary["kills"] and summary["kills"][0]["node"] == VICTIM
        assert summary["catchup_adopted"] >= 1
        assert summary["catchup_served"] >= 1
        assert summary["chains_equal"]
        assert set(summary["per_node"]) == set(range(NODES))
        for stats in summary["per_node"].values():
            assert "reconnect_attempts" in stats
            assert "fault_dropped_frames" in stats


class TestPartitionedNodeCatchesUp:
    def test_every_process_reaches_target_height(self, partitioned_cluster):
        assert sorted(partitioned_cluster.results) == list(range(NODES))
        for result in partitioned_cluster.results.values():
            assert result["height"] == ROUNDS

    def test_chains_byte_identical(self, partitioned_cluster):
        assert partitioned_cluster.all_chains_equal()

    def test_partition_actually_dropped_frames(self, partitioned_cluster):
        summary = partitioned_cluster.summary()
        assert summary["fault_dropped_frames"] >= 1

    def test_severed_links_reconnected(self, partitioned_cluster):
        summary = partitioned_cluster.summary()
        assert summary["reconnects"] >= 1

    def test_merged_trace_conforms(self, partitioned_cluster):
        monitor = ConformanceMonitor()
        monitor.feed(_merged_events(partitioned_cluster))
        verdict = monitor.verdict()
        assert verdict.ok, verdict.violations


class TestFailFastOrchestration:
    def test_node_dying_at_startup_aborts_with_log_tail(self, tmp_path):
        cluster = LiveCluster(
            _config(tmp_path),
            node_overrides={1: {"exit_at_start": True}})
        with pytest.raises(RuntimeError) as excinfo:
            cluster.run_rounds(2, time_limit=30.0)
        message = str(excinfo.value)
        assert "node 1" in message
        # The abort must attach the victim's log tail, not just the rc.
        assert "exit_at_start" in message

    def test_scripted_permanent_crash_is_not_an_abort(self, tmp_path):
        cluster = LiveCluster(
            _config(tmp_path),
            faults=[FaultAction(kind="crash", start=0.5, end=None,
                                nodes=(VICTIM,))])
        # A permanent crash IS scripted: this must NOT abort, and the
        # two survivors must still converge (the victim is excluded).
        cluster.submit_payments(2)
        cluster.run_rounds(3, time_limit=60.0)
        assert sorted(cluster.results) == [0, 1]
        for result in cluster.results.values():
            assert result["height"] == 3
        assert cluster.summary()["missing_nodes"] == [VICTIM]


@pytest.mark.slow
class TestKillPartitionScenarioSweep:
    """The full 5-process scripted scenario, swept over seeds."""

    @pytest.mark.parametrize("seed", [11, 29])
    def test_builtin_scenario_green(self, tmp_path, seed):
        from repro.chaos.live import run_live_scenario

        script = kill_partition_scenario(seed=seed)
        verdict = run_live_scenario(
            script, runtime_dir=str(tmp_path / f"seed-{seed}"))
        assert verdict.ok, verdict.violations
        assert verdict.converged
        assert verdict.heights == [script.rounds] * script.num_users
        assert verdict.conformance["ok"]
        assert verdict.cluster.all_chains_equal()
        events = [e for e in _merged_events(verdict.cluster)]
        kinds = [e["kind"] for e in events]
        assert "node_crashed" in kinds
        assert "node_restarted" in kinds
        assert "catchup_adopted" in kinds
