"""Conformance harness tests: clean runs conform, mutations are caught.

Five angles on :mod:`repro.conformance`:

* clean seeded deployments (full and aggregated populations) produce
  zero violations, online and through the offline CLI round-trip;
* hand-mutated traces trip exactly the named rule the mutation breaks
  (skipped step, commit without quorum, vote after halt);
* forged outcomes MUST go red: a fork across nodes, a rolled-back
  commit and a stalled clock trip ``unique-certificate``,
  ``monotonic-rounds`` and ``liveness`` — online, and through the
  offline CLI, which reads the same machines;
* the crash path closes every open step interval with an explicit
  ``interrupted`` step_exit (the stalling-committee regression);
* the event catalogue is authoritative: every literal emit site in
  ``src/`` uses a registered kind, and ``validate_record`` rejects
  malformed records while accepting every record of a whole
  simulation's trace.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.chaos import generate_scenario
from repro.conformance import machine as specification
from repro.conformance.machine import (
    OUTCOME_RULES,
    ClusterMachine,
    NodeMachine,
)
from repro.conformance.monitor import ConformanceMonitor
from repro.conformance.__main__ import main as conformance_main
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import PopulationConfig, RuntimeConfig
from repro.experiments.sweep import run_point
from repro.obs import (
    EVENT_KINDS,
    EventSchemaError,
    JsonlTraceSink,
    TraceBus,
    read_trace,
    validate_record,
)
from repro.obs.report import main as report_main
from repro.obs.report import render_report, step_timings

from repro.sortition import roles

from tests.fixtures import events_of, forged_commit, run_sim, run_traced

USERS = 10
ROUNDS = 3
SEED = 7


@pytest.fixture(scope="module")
def clean_run():
    return run_traced(ROUNDS, payments=12, num_users=USERS, seed=SEED)


@pytest.fixture(scope="module")
def clean_events(clean_run):
    _, bus = clean_run
    return bus.events


def _check(events) -> ConformanceMonitor:
    monitor = ConformanceMonitor()
    monitor.feed(events)
    return monitor


def _rules(monitor: ConformanceMonitor) -> set[str]:
    return {violation.rule for violation in monitor.violations}


def _write_trace(path: Path, events) -> Path:
    sink = JsonlTraceSink(path)
    for event in events:
        sink.write_event(event)
    sink.write_snapshot({"counters": {}, "gauges": {}})
    sink.close()
    return path


class TestCleanTraces:
    def test_seeded_sim_conforms_online(self, clean_run):
        sim, _ = clean_run
        verdict = sim.conformance.verdict()
        assert verdict.ok, verdict.violations
        assert verdict.events_checked > 0
        assert verdict.nodes == USERS
        summary = sim.summary()
        assert summary["conformance"]["ok"]
        assert summary["conformance.violations"] == 0

    def test_conformance_counters_in_snapshot(self, clean_run):
        _, bus = clean_run
        snapshot = bus.snapshot()
        assert snapshot["counters"]["conformance.events_checked"] > 0
        assert snapshot["counters"].get("conformance.violations", 0) == 0
        assert snapshot["gauges"]["conformance.nodes"] == USERS

    def test_aggregated_population_conforms(self):
        # Small core + dormant stake: real materialize/retire churn, so
        # the machine's RETIRED phase and self-retirement commit grace
        # are actually exercised (mirrors test_population's dormancy
        # configuration).
        from repro.common.params import TEST_PARAMS
        sim, bus = run_traced(
            2, num_users=150, initial_balance=1, seed=2,
            params=TEST_PARAMS.scaled(0.1),
            population=PopulationConfig(mode="aggregated",
                                        always_on_core=8, steps_ahead=6))
        verdict = sim.conformance.verdict()
        assert verdict.ok, verdict.violations
        # Retirement events flow through the machine's grace path.
        assert events_of(bus, "agent_retired")

    def test_offline_cli_round_trip(self, clean_events, tmp_path, capsys):
        trace = _write_trace(tmp_path / "trace.jsonl", clean_events)
        verdict_path = tmp_path / "verdict.json"
        code = conformance_main([str(trace), "--verdict",
                                 str(verdict_path), "--require-complete"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CONFORMS" in out
        verdict = json.loads(verdict_path.read_text())
        assert verdict["ok"] is True
        assert verdict["violations"] == []
        assert verdict["trace_complete"] is True

    def test_offline_cli_missing_file(self, tmp_path):
        assert conformance_main([str(tmp_path / "absent.jsonl")]) == 2

    def test_monitor_is_pure_observer(self):
        # A traced run is a checked run; a bus that stores nothing
        # checks without keeping the events.
        def chain(obs):
            sim = run_sim(2, payments=8, obs=obs, num_users=8, seed=3)
            return sim, [sim.nodes[0].chain.block_at(r).block_hash
                         for r in range(1, 3)]

        bus = TraceBus(max_events=0)
        checked, checked_chain = chain(bus)
        unchecked, unchecked_chain = chain(None)
        assert checked_chain == unchecked_chain
        verdict = checked.conformance.verdict()
        assert verdict.ok and verdict.events_checked > 0
        assert bus.events == []
        assert unchecked.conformance is None
        assert "conformance" not in unchecked.summary()

    def test_conformance_is_not_a_knob(self):
        with pytest.raises(TypeError):
            RuntimeConfig(conformance=False)
        # Two admission budgets, relay damping: the gate has no switch.
        assert [field.name for field in dataclasses.fields(RuntimeConfig)] \
            == ["vote_buffer_budget", "flood_budget_per_round",
                "relay_damping"]


class TestNegativeTraces:
    """Each mutation trips the specific rule it breaks — not a generic
    failure, the *named* violation from the transition tables."""

    def _node_round(self, events, node=0, round_number=1):
        return [e for e in events
                if e.get("node") == node and e.get("round") == round_number]

    def test_skipped_step_is_caught(self, clean_events):
        mutated = [e for e in clean_events
                   if not (e.get("node") == 0 and e.get("round") == 1
                           and e.get("step") == "reduction_one"
                           and e["kind"] in ("step_enter", "step_exit"))]
        monitor = _check(mutated)
        assert "commit-skipped-step" in _rules(monitor)

    def test_commit_without_quorum_is_caught(self, clean_events):
        commit = next(e for e in clean_events
                      if e["kind"] == "round_commit"
                      and e["node"] == 0 and e["round"] == 1)
        deciding = str(commit["binary_steps"])
        mutated = []
        for event in clean_events:
            if (event["kind"] == "step_exit" and event["node"] == 0
                    and event["round"] == 1
                    and event["step"] == deciding):
                event = dict(event, timed_out=True)
            mutated.append(event)
        monitor = _check(mutated)
        assert "commit-without-quorum" in _rules(monitor)

    def test_vote_after_halt_is_caught(self):
        machine = NodeMachine(0)
        violations = []
        for event in [
            {"kind": "round_start", "t": 0.0, "node": 0, "round": 1},
            {"kind": "proposal_resolved", "t": 1.0, "node": 0, "round": 1},
            {"kind": "consensus_halted", "t": 2.0, "node": 0, "round": 1},
            {"kind": "vote_cast", "t": 3.0, "node": 0, "round": 1,
             "step": "1"},
        ]:
            violations.extend(machine.feed(event))
        assert [v.rule for v in violations] == ["vote-phase"]

    def test_second_recovery_vote_in_a_step_is_caught(self):
        """A recovery round's votes are checked on their own lane, in
        any phase: a step's first vote_cast is legal, a second is not."""
        machine = NodeMachine(0)
        vote = {"kind": "vote_cast", "t": 1.0, "node": 0,
                "round": roles.RECOVERY_ROUND_BASE + 1, "step": "1"}
        assert machine.feed(vote) == []
        assert [v.rule for v in machine.feed(dict(vote, t=2.0))] == [
            "duplicate-vote"]

    def test_duplicate_commit_is_caught(self, clean_events):
        mutated = list(clean_events)
        commit_at = next(i for i, e in enumerate(mutated)
                         if e["kind"] == "round_commit" and e["node"] == 0)
        mutated.insert(commit_at + 1, dict(mutated[commit_at]))
        monitor = _check(mutated)
        assert "commit-phase" in _rules(monitor)

    def test_out_of_order_steps_are_caught(self):
        machine = NodeMachine(0)
        violations = []
        for event in [
            {"kind": "round_start", "t": 0.0, "node": 0, "round": 1},
            {"kind": "proposal_resolved", "t": 1.0, "node": 0, "round": 1},
            {"kind": "step_enter", "t": 2.0, "node": 0, "round": 1,
             "step": "reduction_two", "deadline_s": 3.0},
        ]:
            violations.extend(machine.feed(event))
        assert [v.rule for v in violations] == ["step-order"]

    def test_violation_context_is_complete(self, clean_events):
        mutated = [e for e in clean_events
                   if not (e.get("node") == 0 and e.get("round") == 1
                           and e.get("step") == "reduction_one"
                           and e["kind"] in ("step_enter", "step_exit"))]
        monitor = _check(mutated)
        breach = next(v for v in monitor.violations
                      if v.rule == "commit-skipped-step")
        assert breach.node == 0
        assert breach.round == 1
        assert breach.kind == "round_commit"
        assert "reduction_one" in breach.detail

    def test_verdict_caps_violations(self, clean_events):
        # Feed the mutated trace into a tiny-capped monitor: recording
        # stops, checking does not, and the verdict says so.
        mutated = [e for e in clean_events if e["kind"] != "step_exit"]
        monitor = ConformanceMonitor(max_violations=2)
        monitor.feed(mutated)
        verdict = monitor.verdict()
        assert not verdict.ok
        assert verdict.violations[-1]["rule"] == "violations-truncated"


def _legal_round(node: int, round_number: int, t: float,
                 block_hash: str = "aa" * 16) -> list[dict]:
    """The shortest legal round: reduction, one binary step, commit."""
    events = [{"kind": "round_start"},
              {"kind": "proposal_resolved", "empty": False}]
    for step in ("reduction_one", "reduction_two", "1"):
        events += [{"kind": "step_enter", "step": step},
                   {"kind": "step_exit", "step": step, "timed_out": False}]
    events.append({"kind": "round_commit", "consensus": "tentative",
                   "binary_steps": 1, "block_hash": block_hash})
    return [{"t": t + 0.1 * i, "node": node, "round": round_number,
             **event} for i, event in enumerate(events)]


class TestOutcomeRulesNegative:
    """Forged violations MUST go red — no false green.

    A checker that never fires is indistinguishable from one that
    works, so the machines are fed forged conflicting certificates, a
    rollback and a stalled clock and must name the rule each breaks.
    """

    def test_conflicting_certificates_flagged(self):
        cluster = ClusterMachine()
        violations = (cluster.feed(forged_commit(0, 1, "aa" * 16, 1.0))
                      + cluster.feed(forged_commit(1, 1, "bb" * 16, 1.2))
                      + cluster.liveness(2.0, 0.0, 100.0))
        assert [v.rule for v in violations] == ["unique-certificate"]
        assert "round 1" in violations[0].detail
        assert (violations[0].node, violations[0].t) == (1, 1.2)

    def test_rollback_commit_flagged(self):
        # Bare commits are out of phase for the node machine as well
        # (test_rollback_behind_catchup_flagged is the all-legal twin);
        # of the outcome rules, exactly the rollback is named.
        monitor = _check([forged_commit(0, 1, "aa" * 16, 1.0),
                          forged_commit(0, 2, "bb" * 16, 2.0),
                          forged_commit(0, 1, "aa" * 16, 3.0)])
        monitor.check_liveness(4.0, heal_time=0.0, bound=100.0)
        assert [v.rule for v in monitor.violations
                if v.rule in OUTCOME_RULES] == ["monotonic-rounds"]
        assert _rules(monitor) == {"monotonic-rounds", "commit-phase"}

    def test_rollback_behind_catchup_flagged(self):
        # Every event legal for its phase, and catchup_adopted lifts the
        # round-sequence expectation: only the outcome rule can see that
        # round 3 was committed after round 5.
        machine = NodeMachine(0)
        violations = []
        for event in (_legal_round(0, 5, 1.0)
                      + [{"t": 2.0, "kind": "catchup_adopted", "node": 0,
                          "round": 3, "from_height": 5, "to_height": 6}]
                      + _legal_round(0, 3, 3.0)):
            violations.extend(machine.feed(event))
        assert [v.rule for v in violations] == ["monotonic-rounds"]
        assert "round 3 after already committing round 5" in \
            violations[0].detail

    def test_stalled_clock_after_heal_flagged(self):
        cluster = ClusterMachine()
        # The only commit happened before the heal; the post-heal window
        # is empty and the clock ran past the deadline.
        assert cluster.feed(forged_commit(0, 1, "aa" * 16, 40.0)) == []
        violations = cluster.liveness(300.0, 50.0, 100.0)
        assert [v.rule for v in violations] == ["liveness"]
        assert "heal" in violations[0].detail

    def test_fault_free_stall_flagged(self):
        violations = ClusterMachine().liveness(200.0, 0.0, 100.0)
        assert [v.rule for v in violations] == ["liveness"]

    def test_clean_trace_stays_green(self):
        cluster = ClusterMachine()
        for node in range(4):
            assert cluster.feed(
                forged_commit(node, 1, "aa" * 16, 60.0 + node * 0.1)) == []
        assert cluster.liveness(400.0, 50.0, 100.0) == []

    def test_commit_before_deadline_not_penalized_early(self):
        # The run ended before the liveness deadline: no verdict either
        # way yet, so no violation.
        assert ClusterMachine().liveness(80.0, 50.0, 100.0) == []

    def test_non_commit_events_ignored(self):
        monitor = _check([{"t": 1.0, "kind": "gossip_sent", "node": 0}])
        assert monitor.events_seen == 1
        assert monitor.events_checked == 0
        assert monitor.violations == []

    def test_forked_trace_fails_the_offline_checker(self, clean_events,
                                                    tmp_path, capsys):
        # One node's round-1 commit rewritten to another block: every
        # per-node stream is still legal, only the cluster rule sees it.
        forked = [dict(e, block_hash="f0" * 32)
                  if (e["kind"] == "round_commit" and e["node"] == 4
                      and e["round"] == 1) else e
                  for e in clean_events]
        assert forked != clean_events
        trace = _write_trace(tmp_path / "forked.jsonl", forked)
        code = conformance_main([str(trace), "--require-complete",
                                 "--quiet"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATIONS" in out and "unique-certificate" in out
        assert _rules(_check(forked)) == {"unique-certificate"}

    def test_specification_constants_equal_the_implementation(self):
        # machine.py may not import the tree it specifies, so its copies
        # are by value; nothing else would notice one side moving.
        for name in ("REDUCTION_ONE", "REDUCTION_TWO", "FINAL_STEP",
                     "RECOVERY_ROUND_BASE"):
            assert (getattr(specification, name)
                    == getattr(roles, name)), name


class TestCrashClosesSteps:
    """Satellite (c): every step-termination path emits step_exit.

    The regression this pins: a node crashed mid-committee-wait used to
    leave its ``step_enter`` dangling forever, so per-step timing
    aggregations silently undercounted and a stalled committee was
    indistinguishable from a trace artifact.
    """

    def _crash_mid_step(self):
        bus = TraceBus()
        sim = Simulation(SimulationConfig(num_users=8, seed=9), obs=bus)
        for node in sim.nodes:
            node.start(2)
        sim.env.run(until=2.0)  # node 1 is inside reduction_one (seeded)
        monitor = _check(bus.events)
        assert monitor.open_steps().get("1"), \
            "fixture drift: node 1 must be mid-step at t=2.0"
        sim.nodes[1].crash()
        return sim, bus

    def test_crash_emits_interrupted_step_exit(self):
        _, bus = self._crash_mid_step()
        closing = [e for e in bus.events
                   if e["kind"] == "step_exit" and e["node"] == 1
                   and e.get("interrupted")]
        assert closing, "crash left the open step without a step_exit"
        assert all(e["timed_out"] is False for e in closing)

    def test_every_enter_has_an_exit_after_crash(self):
        _, bus = self._crash_mid_step()
        enters = [(e["round"], e["step"]) for e in bus.events
                  if e["kind"] == "step_enter" and e["node"] == 1]
        exits = [(e["round"], e["step"]) for e in bus.events
                 if e["kind"] == "step_exit" and e["node"] == 1]
        assert sorted(enters) == sorted(exits)

    def test_crashed_trace_conforms(self):
        _, bus = self._crash_mid_step()
        monitor = _check(bus.events)
        assert monitor.ok, [v.to_dict() for v in monitor.violations]
        assert not monitor.open_steps().get("1")

    def test_interrupted_exits_counted_separately_in_report(self):
        _, bus = self._crash_mid_step()
        rows = {r["step"]: r for r in step_timings(bus.events)}
        interrupted = sum(r["interrupted"] for r in rows.values())
        assert interrupted >= 1
        for row in rows.values():
            assert (row["threshold_reached"] + row["timeouts"]
                    + row["interrupted"]) == row["samples"]


class TestEventCatalogue:
    """Satellite (a): the catalogue is the single source of truth."""

    def test_every_emit_site_uses_a_registered_kind(self):
        src = Path(__file__).resolve().parent.parent / "src"
        pattern = re.compile(r'\.emit\(\s*"([^"]+)"')
        unregistered = []
        for path in sorted(src.rglob("*.py")):
            for match in pattern.finditer(path.read_text()):
                kind = match.group(1)
                if kind not in EVENT_KINDS:
                    unregistered.append((str(path), kind))
        # chaos.faults._emit passes its kind through a variable; it is
        # covered by the fault_applied/fault_cleared catalogue entries
        # and by the validated simulation test below.
        assert not unregistered, unregistered

    def test_fault_kinds_are_registered_for_the_indirect_site(self):
        assert "fault_applied" in EVENT_KINDS
        assert "fault_cleared" in EVENT_KINDS

    @staticmethod
    def _validate(bus: TraceBus) -> None:
        """The catalogue's check, over every record the bus kept."""
        for record in bus.events:
            validate_record(record)

    def test_validating_bus_rejects_unknown_kind(self):
        bus = TraceBus()
        bus.emit("no_such_kind", node=0)
        with pytest.raises(EventSchemaError, match="unregistered"):
            self._validate(bus)

    def test_validating_bus_rejects_missing_fields(self):
        bus = TraceBus()
        bus.emit("round_start", node=0)
        with pytest.raises(EventSchemaError, match="round"):
            self._validate(bus)

    def test_validating_bus_accepts_extras(self):
        bus = TraceBus()
        bus.emit("round_start", node=0, round=1, note="extra ok")
        self._validate(bus)
        assert bus.events[-1]["note"] == "extra ok"

    def test_default_bus_does_not_validate(self):
        bus = TraceBus()
        bus.emit("ad_hoc_test_kind", whatever=1)  # must not raise
        assert bus.events[-1]["kind"] == "ad_hoc_test_kind"

    def test_full_simulation_passes_validation(self):
        # Every record a real deployment emits satisfies its schema —
        # this also covers the non-literal chaos emit site.
        bus = TraceBus()
        sim = Simulation(SimulationConfig(num_users=8, seed=3), obs=bus)
        sim.submit_payments(8)
        sim.run_rounds(2)
        assert bus.events and not bus.dropped_events
        self._validate(bus)

    def test_chaos_run_passes_validation(self):
        from repro.chaos import FaultAction
        bus = TraceBus()
        sim = Simulation(SimulationConfig(num_users=8, seed=4),
                         faults=[FaultAction(kind="loss", start=0.5,
                                             end=2.0, rate=0.1)],
                         obs=bus)
        sim.run_rounds(1)
        self._validate(bus)
        kinds = {e["kind"] for e in bus.events}
        assert "fault_applied" in kinds


class TestSinkOverflow:
    """A trace is what its sinks wrote: bounding the bus's in-memory
    list loses nothing from the file, and the one loss a file can have
    is its missing closing snapshot."""

    def test_a_storeless_bus_writes_a_complete_trace(self, tmp_path,
                                                     capsys):
        # The bus that checks without storing: every event overflows the
        # in-memory list, and every one still reaches the sink.
        bus = TraceBus(max_events=0)
        path = tmp_path / "t.jsonl"
        bus.add_sink(JsonlTraceSink(path))
        run_sim(2, payments=20, num_users=10, seed=3, obs=bus)
        bus.close()
        events, snapshot = read_trace(path)
        assert bus.events == []
        assert len(events) == bus.dropped_events > 0
        assert snapshot is not None
        assert conformance_main([str(path), "--require-complete"]) == 0
        assert "INCOMPLETE" not in capsys.readouterr().out
        assert report_main([str(path)]) == 0
        assert "INCOMPLETE" not in capsys.readouterr().out

    def test_report_silent_on_complete_trace(self, clean_events, clean_run):
        _, bus = clean_run
        report = render_report(clean_events, bus.snapshot())
        assert "INCOMPLETE TRACE" not in report

    def test_offline_checker_flags_incomplete(self, clean_events, tmp_path,
                                              capsys):
        # A writer killed before ``bus.close()`` leaves no snapshot line.
        trace = _write_trace(tmp_path / "t.jsonl", clean_events)
        lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[-1].startswith('{"type":"snapshot"')
        trace.write_text("".join(lines[:-1]), encoding="utf-8")
        verdict_path = tmp_path / "verdict.json"
        code = conformance_main([str(trace), "--require-complete",
                                 "--verdict", str(verdict_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "CONFORMS" in out and "INCOMPLETE" in out
        assert json.loads(verdict_path.read_text())["trace_complete"] is False
        assert conformance_main([str(trace), "--quiet"]) == 0
        assert "INCOMPLETE" in capsys.readouterr().out
        # Killed mid-write: half the snapshot line is still incomplete.
        trace.write_text("".join(lines[:-1]) + lines[-1][:40],
                         encoding="utf-8")
        assert conformance_main([str(trace), "--require-complete",
                                 "--quiet"]) == 1
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_a_cut_traces_verdict_says_so(self, clean_events, tmp_path):
        # ``head -n -1``: the closing snapshot line is gone.
        trace = _write_trace(tmp_path / "t.jsonl", clean_events)
        lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
        trace.write_text("".join(lines[:-1]), encoding="utf-8")
        verdict_path = tmp_path / "verdict.json"
        for flags, code, ok in (([], 0, True),
                                (["--require-complete"], 1, False)):
            assert conformance_main([str(trace), "--quiet", "--verdict",
                                     str(verdict_path), *flags]) == code
            verdict = json.loads(verdict_path.read_text(encoding="utf-8"))
            assert verdict["trace_complete"] is False
            assert verdict["violations"] == []
            assert verdict["ok"] is ok

    @pytest.mark.parametrize("garbage", ["{not json", "[1, 2]"])
    def test_a_malformed_trace_is_a_usage_error(self, clean_events,
                                                tmp_path, capsys, garbage):
        trace = _write_trace(tmp_path / "t.jsonl", clean_events)
        lines = trace.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = garbage + "\n"
        trace.write_text("".join(lines), encoding="utf-8")
        assert conformance_main([str(trace)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("error: ")
        assert f"{trace}:3:" in out[0]


class TestChaosConformance:
    """Satellite (d): the chaos engine gates on conformance too."""

    def test_generated_scenarios_carry_conformance_section(self,
                                                           chaos_seeds):
        for seed in chaos_seeds[:3]:
            verdict = run_point(generate_scenario(seed)).point
            assert verdict.conformance is not None
            assert verdict.conformance["ok"], verdict.violations
            assert verdict.conformance["violations"] == 0
            assert verdict.conformance["events_checked"] > 0
            assert "conformance" in json.loads(verdict.to_json())

    @pytest.mark.slow
    def test_twenty_seed_sweep_is_conformant(self, chaos_seeds):
        assert len(chaos_seeds) >= 20
        failures = []
        for seed in chaos_seeds:
            verdict = run_point(generate_scenario(seed)).point
            if (verdict.conformance is None
                    or not verdict.conformance["ok"]):
                failures.append((seed, verdict.violations))
        assert not failures, failures
