"""Chaos engine unit tests: scripts, shapers, verdict rows, and the CLI.

The rules a trace can break are the reference machines' and their
negatives live in ``tests/test_conformance.py``; here we require that a
forged fork, rollback and stall still read, in a verdict, exactly as
they always did.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.chaos import (FaultAction, ScenarioError, ScenarioScript,
                         ShaperChain, Violation, flood_recovery_scenario,
                         generate_scenario, partition_heal_scenario,
                         run_scenario)
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.faults import _WindowedLinkEffect
from repro.chaos.runner import render_verdict
from repro.common.errors import ConfigError
from repro.conformance import ConformanceMonitor
from repro.experiments.harness import (
    PopulationConfig,
    Simulation,
    SimulationConfig,
)
from repro.network.message import Envelope
from repro.obs.bus import TraceBus

from tests.fixtures import forged_commit


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

    @pytest.mark.parametrize("kind", ["flood", "spam", "equivocate",
                                      "double-vote", "silent"])
    def test_attackers_may_last_the_whole_run(self, kind):
        FaultAction(kind=kind, start=0.0, end=None, nodes=(7,),
                    rate=10.0).validate(8)
        with pytest.raises(ScenarioError, match="at least one node"):
            FaultAction(kind=kind, start=0.0, rate=10.0).validate(8)

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


def _byzantine_mix() -> ScenarioScript:
    """Every seam-replacing kind: whole-run and windowed, one seam and
    both."""
    return ScenarioScript(
        name="byzantine-mix", seed=5, num_users=10, rounds=2, payments=10,
        actions=(FaultAction(kind="equivocate", start=0.0, nodes=(8,)),
                 FaultAction(kind="double-vote", start=0.0, nodes=(8, 9)),
                 FaultAction(kind="silent", start=1.0, end=6.0,
                             nodes=(7,))))


class TestSimVerdictsPinned:
    """The sim must not move under injector refactors.

    ``sha256(run_scenario(script).to_json())`` — violations, heights,
    ``sim_seconds``, ``events_seen`` and the conformance summary, byte
    for byte — recorded before the sim and live injectors were merged
    (PR 18's parent) and stable across ``PYTHONHASHSEED``; the sixth,
    for the kinds that replace a node's seams, when those kinds joined
    the vocabulary. Together the scripts arm every fault kind, so hook
    order, the loss coins' place in the filter chain and the shared
    fault RNG stream are all under the hash. Four were re-recorded when
    the faulted sim began catching up over gossip instead of reading
    its peers' chains: those whose nodes then sent a ``chainreq``
    (byzantine-mix: the attackers, still severed by the network-wide
    quarantine when the run ends, which the verdict does not hold to
    the target).
    """

    GOLDEN = [
        (partition_heal_scenario, {"partition"},
         "4e2ed7cd2ca173e3b625379d4519ab14985a0e7a6f7740887a9bfa876f87bc81"),
        (flood_recovery_scenario, {"flood", "spam"},
         "ab0a479ef4a3eb8701a279f3afaebec642a8fb70865dff61f7961e400b3fff1c"),
        (lambda: generate_scenario(101), {"crash", "delay", "loss"},
         "2ab2ddf72d40c73af852560572b6009c1cea603b7f34d1bce24b9a07005fa8aa"),
        (lambda: generate_scenario(105),
         {"duplicate", "partition", "reorder"},
         "89aa02454202ba75ec4fa10f56d04a9cfda5033811fb3a94b9f90e71f495b7bc"),
        (lambda: generate_scenario(111), {"delay", "dos", "reorder"},
         "d57789164796b3820aeb5bc79c6f25b961939cc2047e24fde22bb9dffe9c6ec4"),
        (_byzantine_mix, {"equivocate", "double-vote", "silent"},
         "d1bd7b8f25934217fa8f560ecd1f51206151678ad7ad441a2dfe8e1fdf503844"),
    ]

    def test_the_five_scripts_cover_every_fault_kind(self):
        from repro.chaos import FAULT_KINDS
        assert set().union(*(kinds for _, kinds, _ in self.GOLDEN)) \
            == set(FAULT_KINDS)

    @pytest.mark.parametrize("make_script,kinds,golden", GOLDEN,
                             ids=["partition-heal", "flood-recovery",
                                  "seed-101", "seed-105", "seed-111",
                                  "byzantine-mix"])
    def test_verdict_bytes_unchanged(self, make_script, kinds, golden):
        script = make_script()
        assert {action.kind for action in script.actions} == kinds
        verdict = run_scenario(script)
        assert verdict.ok, verdict.violations
        assert hashlib.sha256(
            verdict.to_json().encode()).hexdigest() == golden


class TestSimulationFaults:
    """``Simulation(config, faults=...)``: the one injector, or none."""

    def test_no_faults_no_injector_no_hooks(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=1))
        assert sim.injector is None
        assert sim.network.drop_filter is None
        assert sim.network.link_shaper is None

    @pytest.mark.parametrize("kind", ["crash", "dos", "flood", "spam",
                                      "equivocate", "double-vote",
                                      "silent"])
    def test_node_fault_on_dormant_stake_is_a_config_error(self, kind):
        """Slot 10 is pool stake behind a 4-agent core: there is no node
        to act on, and the fault must not pass as a silent no-op."""
        script = ScenarioScript(
            name="dormant-attacker", seed=3, num_users=12, rounds=1,
            actions=(FaultAction(kind=kind, start=0.0, end=5.0, nodes=(10,),
                                 rate=50.0),))
        with pytest.raises(ConfigError, match="dormant"):
            run_scenario(script, sim_overrides={
                "population": PopulationConfig(mode="aggregated",
                                               always_on_core=4)})

    def test_link_fault_may_name_dormant_stake(self):
        sim = Simulation(
            SimulationConfig(num_users=12, seed=3, population=PopulationConfig(
                mode="aggregated", always_on_core=4)),
            faults=[FaultAction(kind="delay", start=0.0, end=1.0,
                                nodes=(10,), extra_delay=0.5)])
        assert sim.network.link_shaper is not None

    def test_crash_open_at_construction_holds_until_restart(self):
        """A window open when the injector installs is applied before
        the first event: the victim never starts, and runs from its
        restart on — asking first for what its peers committed."""
        bus = TraceBus()
        sim = Simulation(SimulationConfig(num_users=8, seed=2),
                         faults=[FaultAction(kind="crash", start=0.0,
                                             end=1.0, nodes=(3,))],
                         obs=bus)
        assert sim.nodes[3].crashed
        sim.run_rounds(1)
        assert [event["t"] for event in bus.events_of_kind("node_restarted")
                if event["node"] == 3] == [1.0]
        assert all(event["t"] >= 1.0
                   for event in bus.events_of_kind("round_start")
                   if event["node"] == 3)
        assert sim.nodes[3].chain.height == 1
        assert sim.nodes[3].catchup.requests_sent >= 1

    def test_fault_outside_the_deployment_is_a_config_error(self):
        with pytest.raises(ConfigError, match="out of range"):
            Simulation(SimulationConfig(num_users=4, seed=1),
                       faults=[FaultAction(kind="silent", start=0.0,
                                           nodes=(4,))])


class TestVerdictRows:
    """Machine breaches keep the names chaos verdicts always gave them."""

    def test_outcome_rules_bare_and_first_other_rules_prefixed(self):
        # Forged: node 1 forks round 1, node 0 rolls back to it, and
        # (bare commits) every one of them is out of phase for its node
        # — node 0's two round-1 commits word that identically, and a
        # verdict lists a (rule, detail) pair once.
        monitor = ConformanceMonitor()
        monitor.feed([forged_commit(0, 1, "aa" * 16, 1.0),
                      forged_commit(1, 1, "bb" * 16, 1.2),
                      forged_commit(0, 2, "cc" * 16, 2.0),
                      forged_commit(0, 1, "aa" * 16, 3.0),
                      {"t": 3.5, "kind": "gossip_sent", "node": 0}])
        script = ScenarioScript(name="forged", seed=1, num_users=2,
                                rounds=2, liveness_bound=100.0)
        audit = Violation(invariant="prefix-consistency", t=4.0,
                          detail="forged")
        verdict = render_verdict(script, monitor, [audit],
                                 heights=[2, 1], laggards=[1], now=4.0)
        assert not verdict.ok
        assert [row["invariant"] for row in verdict.violations] == [
            "unique-certificate", "monotonic-rounds",
            "prefix-consistency"] + ["conformance:commit-phase"] * 3 + [
            "convergence"]
        assert verdict.violations[0]["detail"].startswith(
            "round 1: node 1 committed bbbbbbbbbbbbbbbb at t=1.20 but "
            "node 0 committed aaaaaaaaaaaaaaaa")
        assert verdict.events_seen == 5
        assert verdict.conformance == {"ok": False, "events_checked": 4,
                                       "nodes": 2, "violations": 6}

    def test_a_windowed_attacker_left_behind_does_not_converge(self):
        """Only the network-wide quarantine excuses a laggard: a flooder
        whose window closed and whose quarantine ran out, but which
        stayed behind (a ``dos`` holds it off past the run), fails
        convergence."""
        script = ScenarioScript(
            name="flood-then-cut", seed=3, num_users=10, rounds=3,
            actions=(FaultAction(kind="flood", start=0.5, end=1.0,
                                 nodes=(9,), rate=5.0),
                     FaultAction(kind="dos", start=1.0, end=1000.0,
                                 nodes=(9,))))
        verdict = run_scenario(script)
        directory = verdict.sim.quarantine_directory
        assert directory.quarantines == 1 and not directory.quarantined
        assert verdict.heights == [3] * 9 + [0]
        assert not verdict.converged
        assert [row["detail"] for row in verdict.violations
                if row["invariant"] == "convergence"] == [
            f"nodes [9] below target height 3 when the run ended at "
            f"t={verdict.sim_seconds:.2f}"]

    def test_stalled_run_reads_liveness(self):
        script = ScenarioScript(name="stalled", seed=1, num_users=2,
                                rounds=1, liveness_bound=100.0)
        verdict = render_verdict(script, ConformanceMonitor(), [],
                                 heights=[0, 0], laggards=[], now=200.0)
        assert [row["invariant"] for row in verdict.violations] == [
            "liveness"]
        assert verdict.violations[0]["t"] == 200.0
        assert "no commit at all" in verdict.violations[0]["detail"]


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

    def test_builtin_kill_partition_is_green_on_the_sim(self, tmp_path):
        """The CLI runs it at the live runner's stake: at the sim's
        default 10 units a user no step of the 5-user deployment could
        reach quorum."""
        verdict_path = tmp_path / "verdict.json"
        assert chaos_main(["--builtin", "kill-partition",
                           "--verdict", str(verdict_path)]) == 0
        verdict = json.loads(verdict_path.read_text(encoding="utf-8"))
        assert verdict["ok"] and verdict["converged"]

    def test_exactly_one_source_required(self):
        with pytest.raises(SystemExit):
            chaos_main([])
        with pytest.raises(SystemExit):
            chaos_main(["--seed", "1", "--sweep", "2"])
