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

Each cluster carries a :class:`TraceBus`, as a traced sim does: the
merged trace is replayed through it, so ``cluster.conformance`` is the
reference machines' verdict over every process.

A finished cluster is read through its ``RunOutcome``, as a sim is: the
chain audits run on ``result`` records (synthetic ones, built from a sim
of the same deployment, need no processes), and a latency
``ExperimentSpec`` whose config names the live substrate runs through
``run_point`` unchanged.

The 5-process scripted scenario sweep (the ``kill-partition`` builtin
through :func:`run_point`), the 5-process cluster with a dishonest
process (Figure 8's adversary), the 5-process ``targeted-dos`` run and
the 5-process latency point are marked ``slow``; run with ``-m slow``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.chaos import kill_partition_scenario
from repro.chaos.monitor import audit_ingress, findings
from repro.chaos.scenario import (
    FAULT_KINDS,
    LIVE_CHAOS_PARAMS,
    FaultAction,
    figure8_adversary,
)
from repro.common.params import LIVE_SMOKE_PARAMS
from repro.conformance.__main__ import main as conformance_main
from repro.conformance.monitor import ConformanceMonitor
from repro.experiments.harness import Simulation
from repro.experiments.latency import LatencyPoint, latency_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import run_point
from repro.node.config import RuntimeConfig, SimulationConfig, SubstrateConfig
from repro.node.deployment import NodeRun
from repro.live.cluster import LiveCluster
from repro.live.control import CONNECT_TIMEOUT
from repro.obs.bus import TraceBus
from repro.obs.sink import JsonlTraceSink, read_trace
from tests.fixtures import forged_commit, live_config, run_chaos

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


def _run(runtime_dir, faults, *, seed: int = 7, rounds: int = ROUNDS,
         **groups) -> LiveCluster:
    cluster = LiveCluster(_config(runtime_dir, seed=seed, **groups),
                          faults=faults, obs=TraceBus())
    cluster.submit_payments(6)
    cluster.run_rounds(rounds, time_limit=120.0)
    return cluster


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
                runtime=RuntimeConfig(vote_buffer_budget=SPAM_BUFFER_BUDGET))


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
        metrics = killed_cluster.results[VICTIM]["metrics"]
        assert metrics["live.catchup_adopted"] >= 1
        served = sum(
            killed_cluster.results[i]["metrics"]["live.catchup_served"]
            for i in range(NODES) if i != VICTIM)
        assert served >= 1

    def test_merged_trace_tells_the_crash_story(self, killed_cluster):
        kinds = [e["kind"] for e in killed_cluster.obs.events]
        for kind in ("node_crashed", "node_restarted", "catchup_adopted",
                     "fault_applied", "fault_cleared"):
            assert kind in kinds, f"missing {kind} in merged trace"

    def test_merged_trace_conforms(self, killed_cluster):
        verdict = killed_cluster.conformance.verdict()
        assert verdict.ok, verdict.violations
        assert verdict.nodes == NODES

    def test_the_bus_replays_the_merged_file(self, killed_cluster):
        events, _ = read_trace(killed_cluster.merged_trace_path)
        assert killed_cluster.obs.events == events
        assert killed_cluster.conformance.events_seen == len(events)

    def test_respawned_victim_redialed_its_links(self, killed_cluster):
        # The victim is the highest index, i.e. the dialer of both its
        # links: its respawn goes through the backoff redial path.
        metrics = killed_cluster.results[VICTIM]["metrics"]
        assert metrics["live.reconnects"] >= 1
        assert killed_cluster.summary()["live.reconnects"] >= 1

    def test_summary_carries_fault_plane_stats(self, killed_cluster):
        summary = killed_cluster.summary()
        assert summary["kills"] and summary["kills"][0]["node"] == VICTIM
        assert summary["live.catchup_adopted"] >= 1
        assert summary["live.catchup_served"] >= 1
        assert summary["chains_equal"]
        assert set(summary["per_node"]) == set(range(NODES))
        for metrics in summary["per_node"].values():
            assert "live.reconnect_attempts" in metrics
            assert "live.fault_dropped_frames" in metrics


class TestPartitionedNodeCatchesUp:
    def test_every_process_reaches_target_height(self, partitioned_cluster):
        assert sorted(partitioned_cluster.results) == list(range(NODES))
        for result in partitioned_cluster.results.values():
            assert result["height"] == ROUNDS

    def test_chains_byte_identical(self, partitioned_cluster):
        assert partitioned_cluster.all_chains_equal()

    def test_partition_actually_dropped_frames(self, partitioned_cluster):
        summary = partitioned_cluster.summary()
        assert summary["live.fault_dropped_frames"] >= 1

    def test_link_tx_tables_agreed_through_the_faults(self,
                                                      partitioned_cluster):
        # A dropped frame reaches neither end's tx table, a doubled one
        # both, twice: every block frame naming carried payments resolved.
        summary = partitioned_cluster.summary()
        assert summary["live.block_tx_refs"] > 0
        assert summary["live.garbage_frames"] == 0

    def test_the_cut_left_the_sockets_open(self, partitioned_cluster):
        # A partition is frames vanishing at both senders; nobody gets a
        # FIN, so there is nothing to redial when it heals.
        assert partitioned_cluster.summary()["live.reconnects"] == 0

    def test_duplicate_window_doubled_deliveries(self, partitioned_cluster):
        sent_late = dups = received = 0
        for index in range(NODES):
            metrics = partitioned_cluster.results[index]["metrics"]
            sent_late += metrics["live.fault_delayed_frames"]
            counters = _counters(partitioned_cluster, index)
            dups += counters["gossip.dup_dropped"]
            received += sum(count for name, count in counters.items()
                            if name.startswith("gossip.recv."))
        assert sent_late >= 1  # second copies ride the clock, 50 ms late
        # A 3-node mesh alone hands a node at most one spare copy of a
        # message (the other peer's relay); doubling every link beats it.
        assert dups > received

    def test_merged_trace_conforms(self, partitioned_cluster):
        verdict = partitioned_cluster.conformance.verdict()
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
                 for event in spammed_cluster.obs.events]
        assert ("peer_quarantined", VICTIM) in kinds

    def test_honest_vote_buffers_stayed_inside_budget(self,
                                                      spammed_cluster):
        assert (spammed_cluster.config.runtime.vote_buffer_budget
                == SPAM_BUFFER_BUDGET)
        for index in (0, 1):
            metrics = spammed_cluster.results[index]["metrics"]
            assert (0 < metrics["admission.buffer_high_water"]
                    <= SPAM_BUFFER_BUDGET)
        spec = ExperimentSpec("chaos", spammed_cluster.config,
                              rounds=SPAM_ROUNDS,
                              faults=spammed_cluster.faults)
        assert findings(spammed_cluster.outcome(), spec)["audits"] == []

    def test_merged_trace_conforms(self, spammed_cluster):
        verdict = spammed_cluster.conformance.verdict()
        assert verdict.ok, verdict.violations


class TestOneVocabulary:
    def test_every_fault_kind_is_accepted_live(self, tmp_path):
        extra = {"partition": {"groups": ((0, 1), (2,))},
                 "delay": {"extra_delay": 0.1},
                 "loss": {"rate": 0.5}, "duplicate": {"rate": 0.5},
                 "reorder": {"jitter": 0.1},
                 "crash": {"nodes": (2,)}, "dos": {"nodes": (2,)},
                 "targeted-dos": {"nodes": (2,), "extra_delay": 0.5},
                 "flood": {"nodes": (2,), "rate": 10.0},
                 "spam": {"nodes": (2,), "rate": 10.0},
                 "equivocate": {"nodes": (2,)},
                 "double-vote": {"nodes": (2,)}, "silent": {"nodes": (2,)}}
        assert set(extra) == set(FAULT_KINDS)
        for kind in FAULT_KINDS:
            LiveCluster(_config(tmp_path), faults=[
                FaultAction(kind=kind, start=0.0, end=1.0, **extra[kind])])

    def test_live_runner_raises_the_sims_ingress_bounds_violation(
            self, tmp_path):
        config = dataclasses.replace(
            _config(tmp_path), runtime=RuntimeConfig(vote_buffer_budget=64))
        cluster = LiveCluster(config)
        cluster.results = {
            index: NodeRun(index=index, blocks=(), seeds=(b"genesis",),
                           certified=(), rounds=(), step_durations=(),
                           counters={"admission.buffer_high_water":
                                     high_water}).to_record()
            for index, high_water in enumerate((64, 65, 9000))}
        cluster.ended_at = 3.0
        spec = ExperimentSpec(
            "chaos", config, rounds=1,
            faults=(FaultAction(kind="spam", start=0.0, end=1.0,
                                nodes=(2,), rate=10.0),))
        (breach,) = findings(cluster.outcome(), spec)["audits"]
        # The sim's audit, over its nodes' marks under the same names.
        (sim_breach,) = audit_ingress(
            {index: {"admission.buffer_high_water": high_water}
             for index, high_water in enumerate((64, 65, 9000))},
            config, now=3.0, skip=frozenset({2}))
        assert breach == sim_breach
        assert breach.invariant == "ingress-bounds"
        assert "node 1" in breach.detail and "65" in breach.detail


class TestTraceMerge:
    def test_a_malformed_node_trace_fails_the_run(self, tmp_path):
        """Garbage before a trace's last line is no truncated write: the
        merge fails naming the file instead of merging that node as if
        it had traced nothing. A node that wrote no file is still
        merged as empty."""
        event = {"t": 0.5, "kind": "note", "node": 0}
        record = json.dumps({"type": "event", **event})
        good, bad = tmp_path / "node-0.jsonl", tmp_path / "node-1.jsonl"
        good.write_text(record + "\n")
        bad.write_text(record + "\nnot json\n" + record + "\n")
        missing = str(tmp_path / "node-2.jsonl")
        cluster = LiveCluster(_config(tmp_path))
        cluster.runtime_dir = tmp_path
        cluster._trace_paths = {0: [str(good)], 1: [str(bad)],
                                2: [missing]}
        with pytest.raises(ValueError, match="node-1.jsonl:2"):
            cluster._merge_traces()
        cluster._trace_paths = {0: [str(good)], 2: [missing]}
        events, _ = read_trace(cluster._merge_traces())
        assert events == [event]

    def test_only_a_killed_incarnation_may_end_mid_record(self, tmp_path):
        """A SIGKILL can cut a trace's last line; a node that exited on
        its own closed its file, so a cut line there fails the merge."""
        event = {"t": 0.5, "kind": "note", "node": 0}
        cut = tmp_path / "node-0.jsonl"
        cut.write_text(json.dumps({"type": "event", **event})
                       + '\n{"type": "snap')
        cluster = LiveCluster(_config(tmp_path))
        cluster.runtime_dir = tmp_path
        cluster._trace_paths = {0: [str(cut)]}
        with pytest.raises(ValueError, match="node-0.jsonl:2"):
            cluster._merge_traces()
        cluster.kill_log = [{"node": 0, "t": 1.0}]
        events, _ = read_trace(cluster._merge_traces())
        assert event in events
        assert any(record["kind"] == "node_crashed" for record in events)


@pytest.fixture(scope="module")
def reported(tmp_path_factory):
    """The live config and the ``result`` records its three processes
    would send: the runs of the same deployment on the sim."""
    config = _config(tmp_path_factory.mktemp("live-reported"))
    sim = Simulation(dataclasses.replace(config, substrate=SubstrateConfig()))
    sim.run_rounds(3)
    return config, {index: run.to_record()
                    for index, run in sim.outcome().runs.items()}


class TestOneChainAudit:
    """A live outcome gets the sim's three chain audits: the seed chain
    and the certificate binding, not only the committed block bytes."""

    def _audits(self, config, results) -> list:
        cluster = LiveCluster(config)
        cluster.results = results
        spec = ExperimentSpec("chaos", config, rounds=3)
        return findings(cluster.outcome(), spec)["audits"]

    def test_honest_results_pass_every_audit(self, reported):
        config, results = reported
        assert self._audits(config, results) == []

    def test_an_altered_stored_seed_breaks_the_seed_chain(self, reported):
        config, results = reported
        record = copy.deepcopy(results[1])
        record["seeds"][2] = bytes(32)
        (breach,) = self._audits(config, {**results, 1: record})
        assert breach.invariant == "seed-chain"
        assert "node 1 round 2" in breach.detail

    def test_an_altered_certificate_breaks_the_binding(self, reported):
        config, results = reported
        record = copy.deepcopy(results[2])
        assert record["certified"][0][0] is not None
        record["certified"][0][0] = bytes(32)
        (breach,) = self._audits(config, {**results, 2: record})
        assert breach.invariant == "certificate-binding"
        assert "node 2 round 1" in breach.detail


class TestOneMeasureOnBothSubstrates:
    def test_latency_point_on_three_processes(self, tmp_path):
        spec = ExperimentSpec("latency", _config(tmp_path), rounds=2)
        point = run_point(spec).point
        assert isinstance(point, LatencyPoint)
        assert point.num_users == NODES
        assert point.summary.count == NODES


class TestFailFastOrchestration:
    def test_node_dying_at_startup_aborts_with_log_tail(
            self, tmp_path, monkeypatch):
        # Node 1 is told a control address that does not exist, so it
        # dies before its hello.
        missing = str(tmp_path / "no-such-control.sock")
        node_config = LiveCluster._node_config

        def misdirect(self, index, control, **kwargs):
            cfg = node_config(self, index, control, **kwargs)
            if index == 1:
                cfg["control"] = missing
            return cfg

        monkeypatch.setattr(LiveCluster, "_node_config", misdirect)
        cluster = LiveCluster(_config(tmp_path))
        with pytest.raises(RuntimeError) as excinfo:
            cluster.run_rounds(2, time_limit=30.0)
        message = str(excinfo.value)
        assert "node 1" in message
        # The abort must attach the victim's log tail, not just the rc.
        assert missing in message

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


#: Put on a cluster's PYTHONPATH: every interpreter that starts says so
#: on stderr, and every process that leaves through the interpreter's
#: normal exit drops ``<pid>.exit`` -- the contract the benchmark's
#: start-up hook (``bench/hooks/sitecustomize.py``) counts marks by.
EXIT_HOOK = """\
import atexit, os, sys
if os.environ.get("EXIT_MARK_DIR"):
    print("interpreter started by the exit hook", file=sys.stderr,
          flush=True)
    atexit.register(lambda: open(os.path.join(
        os.environ["EXIT_MARK_DIR"], f"{os.getpid()}.exit"), "w").close())
"""


def _hooked(tmp_path, monkeypatch) -> Path:
    """Install :data:`EXIT_HOOK` for clusters this test starts; returns
    the directory the exit marks land in."""
    hooks, marks = tmp_path / "hooks", tmp_path / "marks"
    hooks.mkdir()
    marks.mkdir()
    (hooks / "sitecustomize.py").write_text(EXIT_HOOK, encoding="utf-8")
    monkeypatch.setenv("PYTHONPATH", str(hooks))
    monkeypatch.setenv("EXIT_MARK_DIR", str(marks))
    return marks


def _gone(pid: int, wait: float = 2.0) -> bool:
    """Whether ``pid`` stops running within ``wait`` seconds: no such
    process, or a zombie an orphan's new parent has yet to reap."""
    deadline = time.monotonic() + wait
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            return True
        if stat.rsplit(")", 1)[1].split()[0] in ("Z", "X"):
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


class TestNodeServer:
    """Every node process is a fork of the run's one node server."""

    def test_nodes_and_only_nodes_leave_through_a_normal_exit(
            self, tmp_path, monkeypatch):
        marks = _hooked(tmp_path, monkeypatch)
        cluster = LiveCluster(_config(tmp_path))
        cluster.submit_payments(2)
        cluster.run_rounds(2, time_limit=60.0)
        assert cluster.all_chains_equal()
        pids = set(cluster._node_server.nodes)
        assert len(pids) == NODES
        # The server's atexit hooks never run: no mark of its own.
        assert {int(path.stem) for path in marks.glob("*.exit")} == pids
        server = cluster.summary()["node_server"]
        assert server["import_s"] > 0.0 and server["cpu_s"] > 0.0
        assert server["rss_mb"] > 0.0

    @pytest.mark.parametrize("when", ["before-spawn", "mid-run"])
    def test_a_dead_server_aborts_the_run_and_takes_its_nodes(
            self, tmp_path, monkeypatch, when):
        _hooked(tmp_path, monkeypatch)
        cluster = LiveCluster(_config(tmp_path))
        killed_at: list[float] = []

        def kill_server() -> None:
            killed_at.append(time.monotonic())
            os.kill(cluster._node_server.proc.pid, signal.SIGKILL)

        if when == "before-spawn":
            spawn = LiveCluster._spawn

            async def spawn_then_kill(self, index, control, **kwargs):
                proc = await spawn(self, index, control, **kwargs)
                if index == 0:
                    kill_server()
                return proc

            monkeypatch.setattr(LiveCluster, "_spawn", spawn_then_kill)
        else:
            def kill_once_ready() -> None:
                deadline = time.monotonic() + 60.0
                while (len(cluster.startup) < NODES
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                kill_server()

            threading.Thread(target=kill_once_ready, daemon=True).start()
        cluster.submit_payments(2)
        with pytest.raises(RuntimeError) as excinfo:
            # Rounds enough that no node would finish on its own in the
            # seconds ``_gone`` waits: the coordinator must kill them.
            cluster.run_rounds(30, time_limit=120.0)
        aborted_after = time.monotonic() - killed_at[0]
        message = str(excinfo.value)
        assert (f"node server (pid {cluster._node_server.proc.pid})"
                in message)
        assert "interpreter started by the exit hook" in message
        assert aborted_after < CONNECT_TIMEOUT
        pids = list(cluster._node_server.nodes)
        assert len(pids) == (1 if when == "before-spawn" else NODES)
        assert all(_gone(pid) for pid in pids), pids


class TestTracedCluster:
    """The merged trace: checked by the run's one monitor, and replayed
    through ``LiveCluster(obs=)``'s bus when one is given."""

    def _merge(self, tmp_path, bus) -> LiveCluster:
        node_trace = tmp_path / "trace-0.jsonl"
        node_trace.write_text("\n".join(json.dumps(record) for record in [
            {"type": "event", "t": 0.5, "kind": "round_start", "node": 0,
             "round": 1},
            {"type": "event", "t": 0.2, "kind": "gossip_sent", "node": 0},
            {"type": "snapshot", "metrics": {}},
        ]) + "\n", encoding="utf-8")
        cluster = LiveCluster(_config(tmp_path), obs=bus)
        cluster.runtime_dir = tmp_path
        cluster._trace_paths = {0: [str(node_trace)]}
        cluster._merge_traces()
        return cluster

    def test_records_keep_their_own_time(self, tmp_path):
        bus = TraceBus()
        cluster = self._merge(tmp_path, bus)
        assert [(e["t"], e["kind"]) for e in bus.events] == [
            (0.2, "gossip_sent"), (0.5, "round_start")]
        assert cluster.conformance.events_seen == 2

    def test_the_replayed_trace_is_complete(self, tmp_path):
        """A bus that replays the merged trace writes every record it
        was handed and closes with its snapshot."""
        bus = TraceBus()
        out = tmp_path / "replayed.jsonl"
        bus.add_sink(JsonlTraceSink(out))
        self._merge(tmp_path, bus)
        bus.close()
        assert conformance_main([str(out), "--require-complete",
                                 "--quiet"]) == 0

    def test_the_bus_snapshot_carries_the_nodes_numbers(self, tmp_path):
        """What ``merged.jsonl`` ends with is what the bus publishes:
        counts summed, peaks maxed, each in its own section."""
        for node, (hits, lag) in enumerate([(3, 0.5), (4, 0.25)]):
            (tmp_path / f"trace-{node}.jsonl").write_text(json.dumps(
                {"type": "snapshot", "metrics": {
                    "counters": {"crypto.verifies": hits},
                    "gauges": {"live.max_lag_s": lag}}}) + "\n",
                encoding="utf-8")
        bus = TraceBus()
        cluster = LiveCluster(_config(tmp_path), obs=bus)
        cluster.runtime_dir = tmp_path
        cluster._trace_paths = {node: [str(tmp_path / f"trace-{node}.jsonl")]
                                for node in (0, 1)}
        merged = cluster._merge_traces()
        snapshot = bus.close()
        assert snapshot["counters"]["crypto.verifies"] == 7
        assert snapshot["gauges"]["live.max_lag_s"] == 0.5
        assert "conformance.events_checked" in snapshot["counters"]
        _, written = read_trace(merged)
        for section in ("counters", "gauges"):
            assert written[section].items() <= snapshot[section].items()

    def test_no_bus_still_one_monitor(self, tmp_path):
        cluster = LiveCluster(_config(tmp_path))
        assert cluster.obs is None
        assert isinstance(cluster.conformance, ConformanceMonitor)
        assert cluster.outcome().conformance is cluster.conformance

    def test_nodes_committing_different_blocks_fail_the_run(self,
                                                           tmp_path):
        """Each node's own trace is consistent; only a checker that sees
        both can tell that round 1 committed two blocks."""
        for node, block in ((0, "aa"), (1, "bb")):
            (tmp_path / f"trace-{node}.jsonl").write_text(json.dumps(
                {"type": "event",
                 **forged_commit(node, 1, block * 16, 1.0 + node)})
                + "\n", encoding="utf-8")
        cluster = LiveCluster(_config(tmp_path))
        cluster.runtime_dir = tmp_path
        cluster._trace_paths = {node: [str(tmp_path / f"trace-{node}.jsonl")]
                                for node in (0, 1)}
        cluster._merge_traces()
        summary = cluster.summary()
        assert summary["conformance_ok"] is False
        assert summary["conformance.violation.unique-certificate"] == 1


@pytest.mark.slow
class TestKillPartitionScenarioSweep:
    """The full 5-process scripted scenario, swept over seeds."""

    @pytest.mark.parametrize("seed", [11, 29])
    def test_builtin_scenario_green(self, tmp_path, seed):
        spec = kill_partition_scenario(seed=seed)
        spec = dataclasses.replace(spec, config=dataclasses.replace(
            spec.config, params=LIVE_CHAOS_PARAMS,
            substrate=SubstrateConfig(
                kind="live", runtime_dir=str(tmp_path / f"seed-{seed}"))))
        verdict, cluster = run_chaos(spec)
        assert verdict.ok, verdict.violations
        assert verdict.converged
        assert verdict.heights == [spec.rounds] * spec.config.num_users
        assert verdict.conformance["ok"]
        assert cluster.all_chains_equal()
        kinds = [e["kind"] for e in cluster.obs.events]
        assert "node_crashed" in kinds
        assert "node_restarted" in kinds
        assert "catchup_adopted" in kinds


@pytest.mark.slow
class TestByzantineProcess:
    """A dishonest process on real sockets: node 4 of 5 equivocates and
    double-votes for the whole run, applied by its own injector."""

    def test_honest_processes_commit_equal_chains(self, tmp_path):
        cluster = LiveCluster(
            live_config(5, runtime_dir=str(tmp_path)),
            faults=figure8_adversary([4]), obs=TraceBus())
        cluster.submit_payments(10)
        cluster.run_rounds(3)
        honest = [cluster.results[index] for index in range(4)]
        assert [result["height"] for result in honest] == [3] * 4
        assert all(result["blocks"] == honest[0]["blocks"]
                   for result in honest)
        # The attack was real: honest peers caught the conflicting votes
        # and cut the attacker off, and nobody else.
        blamed = {(event["peer"], event["offense"])
                  for event in cluster.obs.events
                  if event["kind"] == "peer_quarantined"}
        assert (4, "equivocation") in blamed
        assert {peer for peer, _ in blamed} == {4}
        verdict = cluster.conformance.verdict()
        assert verdict.ok, verdict.violations


@pytest.mark.slow
class TestProposerDoSProcess:
    """Section 10.4's proposer DoS from scenario data on real sockets:
    node 4's own injector cuts it off once it announces a priority and
    lets it go when the window ends."""

    def test_struck_proposer_rejoins_equal_chains(self, tmp_path):
        cluster = LiveCluster(
            live_config(5, runtime_dir=str(tmp_path)),
            faults=[FaultAction(kind="targeted-dos", start=0.0, end=3.0,
                                nodes=(4,), extra_delay=0.2)],
            obs=TraceBus())
        cluster.submit_payments(10)
        cluster.run_rounds(4)
        assert [result["height"] for result in
                cluster.results.values()] == [4] * 5
        assert cluster.all_chains_equal()
        # The watch had something to strike: node 4 proposed in the
        # window, early enough for the strike to land inside it.
        assert any(event["node"] == 4 and event["t"] < 2.8
                   for event in cluster.obs.events_of_kind(
                       "block_proposed"))
        verdict = cluster.conformance.verdict()
        assert verdict.ok, verdict.violations


@pytest.mark.slow
class TestLatencyOnFiveProcesses:
    """Figure 5's measure, unchanged, on five node processes (at the
    live smoke scale: its lambdas and 40 units a user)."""

    def test_latency_spec_runs_live(self, tmp_path):
        spec = latency_spec(5, 7, params=LIVE_SMOKE_PARAMS)
        spec = dataclasses.replace(spec, config=dataclasses.replace(
            spec.config, initial_balance=40,
            substrate=SubstrateConfig(kind="live",
                                      runtime_dir=str(tmp_path))))
        point = run_point(spec).point
        assert isinstance(point, LatencyPoint)
        assert point.num_users == 5
        assert point.summary.count == 5
