"""Chaos engine unit tests: scripts, shapers, the monitor, and the CLI.

The negative monitor tests are the load-bearing ones: a checker that
never fires is indistinguishable from a checker that works, so we feed
it forged conflicting certificates and a stalled clock and require red.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.chaos import (FaultAction, InvariantMonitor, ScenarioError,
                         ScenarioScript, ShaperChain,
                         flood_recovery_scenario, generate_scenario,
                         partition_heal_scenario, run_scenario)
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.faults import _WindowedLinkEffect
from repro.experiments.harness import Simulation, SimulationConfig
from repro.network.message import Envelope


def _envelope() -> Envelope:
    return Envelope(origin=b"o", kind="t", payload=None, size=10)


class TestScenarioScript:
    def test_json_round_trip_is_lossless(self):
        script = generate_scenario(7)
        assert ScenarioScript.from_json(script.to_json()) == script

    def test_builtin_partition_heal_validates(self):
        script = partition_heal_scenario()
        script.validate()
        assert script.last_heal_time() == 50.0
        assert script.permanently_crashed() == frozenset()

    def test_with_seed_changes_only_the_seed(self):
        script = partition_heal_scenario()
        reseeded = script.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.actions == script.actions

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fault kind"):
            FaultAction(kind="meteor", start=0.0, end=1.0).validate(8)

    def test_window_must_be_ordered(self):
        with pytest.raises(ScenarioError, match="end after it starts"):
            FaultAction(kind="delay", start=5.0, end=5.0,
                        extra_delay=1.0).validate(8)

    def test_only_crash_may_be_permanent(self):
        with pytest.raises(ScenarioError, match="permanent"):
            FaultAction(kind="dos", start=0.0, end=None,
                        nodes=(1,)).validate(8)

    def test_partition_needs_disjoint_groups(self):
        with pytest.raises(ScenarioError, match="two groups"):
            FaultAction(kind="partition", start=0.0, end=1.0,
                        groups=((0, 1), (1, 2))).validate(8)

    def test_permanent_crash_quorum_guard(self):
        script = ScenarioScript(
            name="too-many", num_users=6,
            actions=(FaultAction(kind="crash", start=0.0, end=None,
                                 nodes=(1, 2)),))
        with pytest.raises(ScenarioError, match="1/3"):
            script.validate()

    def test_generated_scenarios_are_seed_deterministic(self):
        assert generate_scenario(42) == generate_scenario(42)
        assert generate_scenario(42) != generate_scenario(43)


class TestLinkEffects:
    def _effect(self, **kwargs) -> _WindowedLinkEffect:
        effect = _WindowedLinkEffect(FaultAction(**kwargs),
                                     np.random.default_rng(0))
        effect.activate()
        return effect

    def test_delay_adds_constant(self):
        effect = self._effect(kind="delay", start=0.0, end=1.0,
                              extra_delay=0.5)
        assert effect(0, 1, _envelope(), [0.1]) == [0.6]

    def test_inactive_effect_is_identity(self):
        effect = self._effect(kind="delay", start=0.0, end=1.0,
                              extra_delay=0.5)
        effect.deactivate()
        assert effect(0, 1, _envelope(), [0.1]) == [0.1]

    def test_node_filter_limits_scope(self):
        effect = self._effect(kind="delay", start=0.0, end=1.0,
                              extra_delay=0.5, nodes=(3,))
        assert effect(0, 1, _envelope(), [0.1]) == [0.1]
        assert effect(3, 1, _envelope(), [0.1]) == [0.6]
        assert effect(0, 3, _envelope(), [0.1]) == [0.6]

    def test_loss_rate_one_drops_everything(self):
        # Loss is a drop decision: the injector installs it as a
        # drop_filter predicate, not as a shaper effect.
        effect = self._effect(kind="loss", start=0.0, end=1.0, rate=1.0,
                              nodes=(3,))
        assert effect.drops(0, 3, _envelope())
        assert not effect.drops(0, 1, _envelope())  # out of scope
        effect.deactivate()
        assert not effect.drops(0, 3, _envelope())

    def test_duplicate_rate_one_doubles_delivery(self):
        effect = self._effect(kind="duplicate", start=0.0, end=1.0,
                              rate=1.0, jitter=0.2)
        out = effect(0, 1, _envelope(), [0.1])
        assert len(out) == 2 and out[0] == 0.1
        assert out[1] == pytest.approx(0.3)

    def test_reorder_jitter_bounded(self):
        effect = self._effect(kind="reorder", start=0.0, end=1.0,
                              jitter=0.4)
        for _ in range(50):
            (shaped,) = effect(0, 1, _envelope(), [1.0])
            assert 1.0 <= shaped < 1.4

    def test_shaper_chain_absorbs_existing_shaper(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=1))
        sim.network.link_shaper = (
            lambda src, dst, env, delay: [delay + 1.0])
        chain = ShaperChain(sim.network)
        chain.add(lambda src, dst, env, delays:
                  [delay * 2 for delay in delays])
        assert sim.network.link_shaper == chain._shape
        # Pre-existing shaper applies first (+1.0), then the new one (*2).
        assert chain._shape(0, 1, _envelope(), 0.5) == [3.0]

    def test_shaper_chain_empty_means_drop(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=1))
        chain = ShaperChain(sim.network)
        chain.add(lambda src, dst, env, delays: [])
        assert chain._shape(0, 1, _envelope(), 0.5) == []


class TestSimVerdictsPinned:
    """The sim must not move under injector refactors.

    ``sha256(run_scenario(script).to_json())`` — violations, heights,
    ``sim_seconds``, ``events_seen`` and the conformance summary, byte
    for byte — recorded before the sim and live injectors were merged
    (PR 18's parent) and stable across ``PYTHONHASHSEED``. Together the
    five scripts arm all nine fault kinds, so hook order, the loss
    coins' place in the filter chain and the shared fault RNG stream
    are all under the hash.
    """

    GOLDEN = [
        (partition_heal_scenario, {"partition"},
         "4e2ed7cd2ca173e3b625379d4519ab14985a0e7a6f7740887a9bfa876f87bc81"),
        (flood_recovery_scenario, {"flood", "spam"},
         "725381e85f9b6ecf57701c530e8d0b71651b586945c012fa2b9da9845ca2a365"),
        (lambda: generate_scenario(101), {"crash", "delay", "loss"},
         "24d8eb821ff82e85bd280dc51f8e20f0b2467eb3a04731717e34a01b4ef56a30"),
        (lambda: generate_scenario(105),
         {"duplicate", "partition", "reorder"},
         "89aa02454202ba75ec4fa10f56d04a9cfda5033811fb3a94b9f90e71f495b7bc"),
        (lambda: generate_scenario(111), {"delay", "dos", "reorder"},
         "b2364b433db584c0091aa5ae1dddce8877a44f17d20e60ef372f1989c6b0a8fd"),
    ]

    def test_the_five_scripts_cover_every_fault_kind(self):
        from repro.chaos import FAULT_KINDS
        assert set().union(*(kinds for _, kinds, _ in self.GOLDEN)) \
            == set(FAULT_KINDS)

    @pytest.mark.parametrize("make_script,kinds,golden", GOLDEN,
                             ids=["partition-heal", "flood-recovery",
                                  "seed-101", "seed-105", "seed-111"])
    def test_verdict_bytes_unchanged(self, make_script, kinds, golden):
        script = make_script()
        assert {action.kind for action in script.actions} == kinds
        verdict = run_scenario(script)
        assert verdict.ok, verdict.violations
        assert hashlib.sha256(
            verdict.to_json().encode()).hexdigest() == golden


def _commit(node: int, round_number: int, block_hash: str,
            t: float) -> dict:
    return {"t": t, "kind": "round_commit", "node": node,
            "round": round_number, "block_hash": block_hash}


class TestInvariantMonitorNegative:
    """Forged violations MUST go red — no false green."""

    def test_conflicting_certificates_flagged(self):
        monitor = InvariantMonitor(liveness_bound=100.0)
        monitor.feed([_commit(0, 1, "aa" * 16, 1.0),
                      _commit(1, 1, "bb" * 16, 1.2)])
        violations = monitor.finish(now=2.0)
        assert [v.invariant for v in violations] == ["unique-certificate"]
        assert "round 1" in violations[0].detail

    def test_rollback_commit_flagged(self):
        monitor = InvariantMonitor(liveness_bound=100.0)
        monitor.feed([_commit(0, 1, "aa" * 16, 1.0),
                      _commit(0, 2, "bb" * 16, 2.0),
                      _commit(0, 1, "aa" * 16, 3.0)])
        violations = monitor.finish(now=4.0)
        assert [v.invariant for v in violations] == ["monotonic-rounds"]

    def test_stalled_clock_after_heal_flagged(self):
        monitor = InvariantMonitor(liveness_bound=100.0, heal_time=50.0)
        # The only commit happened before the heal; the post-heal window
        # is empty and the clock ran past the deadline.
        monitor.feed([_commit(0, 1, "aa" * 16, 40.0)])
        violations = monitor.finish(now=300.0)
        assert [v.invariant for v in violations] == ["liveness"]
        assert "heal" in violations[0].detail

    def test_fault_free_stall_flagged(self):
        monitor = InvariantMonitor(liveness_bound=100.0)
        violations = monitor.finish(now=200.0)
        assert [v.invariant for v in violations] == ["liveness"]

    def test_clean_trace_stays_green(self):
        monitor = InvariantMonitor(liveness_bound=100.0, heal_time=50.0)
        monitor.feed([_commit(node, 1, "aa" * 16, 60.0 + node * 0.1)
                      for node in range(4)])
        assert monitor.finish(now=400.0) == []

    def test_commit_before_deadline_not_penalized_early(self):
        # The run ended before the liveness deadline: no verdict either
        # way yet, so no violation.
        monitor = InvariantMonitor(liveness_bound=100.0, heal_time=50.0)
        assert monitor.finish(now=80.0) == []

    def test_non_commit_events_ignored(self):
        monitor = InvariantMonitor(liveness_bound=100.0)
        monitor.feed([{"t": 1.0, "kind": "gossip_sent", "node": 0}])
        assert monitor.events_seen == 1
        assert monitor.violations == []


class TestChaosCli:
    def test_scenario_file_run_writes_artifacts(self, tmp_path):
        script = ScenarioScript(name="tiny", seed=3, num_users=6,
                                rounds=1)
        scenario_path = tmp_path / "tiny.json"
        scenario_path.write_text(script.to_json(), encoding="utf-8")
        verdict_path = tmp_path / "verdict.json"
        trace_path = tmp_path / "trace.jsonl"
        rc = chaos_main([str(scenario_path),
                         "--verdict", str(verdict_path),
                         "--trace", str(trace_path)])
        assert rc == 0
        verdict = json.loads(verdict_path.read_text(encoding="utf-8"))
        assert verdict["ok"] is True
        assert verdict["scenario"]["name"] == "tiny"
        assert trace_path.exists()
        assert trace_path.read_text(encoding="utf-8").count("\n") > 10

    def test_exactly_one_source_required(self):
        with pytest.raises(SystemExit):
            chaos_main([])
        with pytest.raises(SystemExit):
            chaos_main(["--seed", "1", "--sweep", "2"])
