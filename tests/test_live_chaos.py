"""Live chaos tests: real SIGKILLs, cut links, an attacker process.

The tier-1 tests here run **3-process** clusters over Unix domain
sockets with stakes ``[80, 80, 40]`` — the calibrated committee design
point (W = 200) with the victim (or attacker) holding the small stake,
so killing, cutting off or quarantining it leaves 160/200 = 80% of the
stake online and BA* quorums keep forming throughout. Each test drives
:class:`LiveCluster` directly with :class:`FaultAction` windows (the
declarative layer the one ``FaultInjector`` compiles onto either
substrate) and checks the full recovery story: the victim rejoins,
catches up via certificate-verified replay, chains end byte-identical,
and the merged trace satisfies the reference state machine.

The 5-process scripted scenario sweep (the ``kill-partition`` builtin
via :func:`run_live_scenario`) is marked ``slow``; run with
``-m slow``.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

from repro.chaos.scenario import (
    FAULT_KINDS,
    FaultAction,
    kill_partition_scenario,
)
from repro.conformance.monitor import ConformanceMonitor
from repro.node.deployment import (
    RuntimeConfig,
    SimulationConfig,
    SubstrateConfig,
)
from repro.live.cluster import LiveCluster
from repro.obs.sink import read_trace
from repro.runtime.admission import AdmissionConfig

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


def _config(runtime_dir, seed: int = 7, **groups) -> SimulationConfig:
    return SimulationConfig(
        num_users=NODES,
        seed=seed,
        balances=list(BALANCES),
        params=_chaos_params(),
        substrate=SubstrateConfig(kind="live", transport="uds",
                                  runtime_dir=str(runtime_dir)),
        **groups,
    )


def _run(runtime_dir, faults, *, seed: int = 7, node_overrides=None,
         rounds: int = ROUNDS, **groups) -> LiveCluster:
    cluster = LiveCluster(_config(runtime_dir, seed=seed, **groups),
                          faults=faults, node_overrides=node_overrides)
    cluster.submit_payments(6)
    cluster.run_rounds(rounds, time_limit=120.0)
    return cluster


def _merged_events(cluster) -> list[dict]:
    events, _ = read_trace(cluster.merged_trace_path)
    return events


def _counters(cluster, index: int) -> dict:
    """The metric counters node ``index`` wrote into its own trace."""
    _, snapshot = read_trace(cluster.results[index]["trace"])
    return snapshot["counters"]


@pytest.fixture(scope="module")
def killed_cluster(tmp_path_factory):
    """SIGKILL the 40-stake node mid-run; respawn it 1.5s later."""
    return _run(tmp_path_factory.mktemp("live-kill"),
                [FaultAction(kind="crash", start=1.0, end=2.5,
                             nodes=(VICTIM,))])


@pytest.fixture(scope="module")
def partitioned_cluster(tmp_path_factory):
    """Cut every link of the 40-stake node for 1.5s, then heal — while
    every link in the cluster delivers each frame twice."""
    return _run(tmp_path_factory.mktemp("live-partition"),
                [FaultAction(kind="partition", start=1.0, end=2.5,
                             groups=((0, 1), (VICTIM,))),
                 FaultAction(kind="duplicate", start=0.0, end=60.0,
                             rate=1.0)])


#: Small enough that one burst of far-future votes would overflow it
#: were the bound not enforced.
SPAM_BUFFER_BUDGET = 96
#: Nobody has to catch up here, so three rounds tell the whole story.
SPAM_ROUNDS = 3


@pytest.fixture(scope="module")
def spammed_cluster(tmp_path_factory):
    """The 40-stake process spams validly signed far-future votes."""
    return _run(tmp_path_factory.mktemp("live-spam"),
                [FaultAction(kind="spam", start=0.0, end=60.0,
                             nodes=(VICTIM,), rate=600.0)],
                rounds=SPAM_ROUNDS,
                runtime=RuntimeConfig(admission=AdmissionConfig(
                    vote_buffer_budget=SPAM_BUFFER_BUDGET)))


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

    def test_respawned_victim_redialed_its_links(self, killed_cluster):
        # The victim is the highest index, i.e. the dialer of both its
        # links: its respawn goes through the backoff redial path.
        stats = killed_cluster.results[VICTIM]["stats"]
        assert stats["reconnects"] >= 1
        assert killed_cluster.summary()["reconnects"] >= 1

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

    def test_the_cut_left_the_sockets_open(self, partitioned_cluster):
        # A partition is frames vanishing at both senders; nobody gets a
        # FIN, so there is nothing to redial when it heals.
        assert partitioned_cluster.summary()["reconnects"] == 0

    def test_duplicate_window_doubled_deliveries(self, partitioned_cluster):
        sent_late = dups = received = 0
        for index in range(NODES):
            stats = partitioned_cluster.results[index]["stats"]
            sent_late += stats["fault_delayed_frames"]
            counters = _counters(partitioned_cluster, index)
            dups += counters["gossip.dup_dropped"]
            received += sum(count for name, count in counters.items()
                            if name.startswith("gossip.recv."))
        assert sent_late >= 1  # second copies ride the clock, 50 ms late
        # A 3-node mesh alone hands a node at most one spare copy of a
        # message (the other peer's relay); doubling every link beats it.
        assert dups > received

    def test_merged_trace_conforms(self, partitioned_cluster):
        monitor = ConformanceMonitor()
        monitor.feed(_merged_events(partitioned_cluster))
        verdict = monitor.verdict()
        assert verdict.ok, verdict.violations


class TestSpammingProcessIsContained:
    """ROADMAP item 4's undecidable-vote spammer, on real sockets."""

    def test_cluster_converges_with_the_attacker_inside(self,
                                                        spammed_cluster):
        assert sorted(spammed_cluster.results) == list(range(NODES))
        for result in spammed_cluster.results.values():
            assert result["height"] == SPAM_ROUNDS
        assert spammed_cluster.all_chains_equal()

    def test_spam_reached_the_honest_nodes(self, spammed_cluster):
        for index in (0, 1):
            counters = _counters(spammed_cluster, index)
            # Far-future votes are undecidable: admitted, buffered, and
            # past the per-origin budget scored as flooding.
            assert counters["gossip.recv.vote"] > SPAM_BUFFER_BUDGET
        kinds = [(event["kind"], event.get("peer"))
                 for event in _merged_events(spammed_cluster)]
        assert ("peer_quarantined", VICTIM) in kinds

    def test_honest_vote_buffers_stayed_inside_budget(self,
                                                      spammed_cluster):
        from repro.chaos.live import _audit_ingress

        for index in (0, 1):
            stats = spammed_cluster.results[index]["stats"]
            assert stats["vote_buffer_budget"] == SPAM_BUFFER_BUDGET
            assert 0 < stats["vote_buffer_high_water"] <= SPAM_BUFFER_BUDGET
        assert _audit_ingress(spammed_cluster, now=0.0,
                              skip=frozenset({VICTIM})) == []

    def test_merged_trace_conforms(self, spammed_cluster):
        monitor = ConformanceMonitor()
        monitor.feed(_merged_events(spammed_cluster))
        verdict = monitor.verdict()
        assert verdict.ok, verdict.violations


class TestOneVocabulary:
    def test_every_fault_kind_is_accepted_live(self, tmp_path):
        extra = {"partition": {"groups": ((0, 1), (2,))},
                 "delay": {"extra_delay": 0.1},
                 "loss": {"rate": 0.5}, "duplicate": {"rate": 0.5},
                 "reorder": {"jitter": 0.1},
                 "crash": {"nodes": (2,)}, "dos": {"nodes": (2,)},
                 "flood": {"nodes": (2,), "rate": 10.0},
                 "spam": {"nodes": (2,), "rate": 10.0}}
        assert set(extra) == set(FAULT_KINDS)
        for kind in FAULT_KINDS:
            LiveCluster(_config(tmp_path), faults=[
                FaultAction(kind=kind, start=0.0, end=1.0, **extra[kind])])

    def test_live_runner_raises_the_sims_ingress_bounds_violation(self):
        from repro.chaos.live import _audit_ingress
        from repro.chaos.monitor import audit_ingress

        def stats(high_water: int) -> dict:
            return {"stats": {"vote_buffer_high_water": high_water,
                              "vote_buffer_budget": 64}}

        cluster = SimpleNamespace(
            results={0: stats(64), 1: stats(65), 2: stats(9000)})
        (breach,) = _audit_ingress(cluster, now=3.0, skip=frozenset({2}))
        # The sim's audit, over node objects with the same numbers.
        nodes = [SimpleNamespace(index=index, buffer=SimpleNamespace(
                     high_water=result["stats"]["vote_buffer_high_water"],
                     budget_messages=64))
                 for index, result in cluster.results.items()]
        (sim_breach,) = audit_ingress(
            nodes, SimpleNamespace(interfaces=[]), now=3.0,
            skip=frozenset({2}))
        assert breach == sim_breach
        assert breach.invariant == "ingress-bounds"
        assert "node 1" in breach.detail and "65" in breach.detail


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
