"""Chaos engine unit tests: scripts, shapers, verdict rows, and the CLI.

The rules a trace can break are the reference machines' and their
negatives live in ``tests/test_conformance.py``; here we require that a
forged fork, rollback and stall still read, in a verdict, exactly as
they always did.
"""

from __future__ import annotations

import functools
import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.chaos import (FaultAction, ScenarioError, ShaperChain,
                         Violation, clean_scenario, flood_recovery_scenario,
                         generate_scenario, kill_partition_scenario,
                         partition_heal_scenario)
from repro.chaos.__main__ import main as chaos_main
from repro.chaos.faults import _WindowedLinkEffect
from repro.chaos.runner import render_verdict
from repro.chaos.scenario import last_heal_time, permanently_crashed
from repro.common.errors import ConfigError
from repro.conformance.monitor import ConformanceMonitor
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import PopulationConfig
from repro.experiments.spec import ExperimentSpec, spec_from_json
from repro.experiments.sweep import run_point
from repro.network.message import Envelope
from repro.obs.bus import TraceBus
from repro.obs.sink import read_trace

from tests.fixtures import forged_commit


def _envelope() -> Envelope:
    return Envelope(origin=b"o", kind="t", payload=None, size=10)


def _chaos(config: SimulationConfig, *faults: FaultAction,
           rounds: int = 2, **fields) -> ExperimentSpec:
    """A chaos spec: ``config`` with ``faults``, run for ``rounds``."""
    return ExperimentSpec("chaos", config, rounds, faults=faults, **fields)


def _spec_file_text(spec: ExperimentSpec) -> str:
    """What a scenario file holds: the spec's JSON."""
    return json.dumps(spec.to_json(), indent=2, sort_keys=True)


class TestScenarioScript:
    def test_json_round_trip_is_lossless(self):
        spec = generate_scenario(7)
        assert spec_from_json(json.loads(_spec_file_text(spec))) == spec

    def test_builtin_partition_heal_validates(self):
        spec = partition_heal_scenario()
        spec.validate()
        assert last_heal_time(spec.faults) == 50.0
        assert permanently_crashed(spec.faults) == frozenset()

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
        spec = _chaos(SimulationConfig(num_users=6),
                      FaultAction(kind="crash", start=0.0, end=None,
                                  nodes=(1, 2)))
        with pytest.raises(ScenarioError, match="1/3"):
            spec.validate()

    @pytest.mark.parametrize("kind", ["silent", "equivocate"])
    def test_whole_run_attackers_count_against_the_honest_majority(
            self, kind):
        """Three of six users attacking for the whole run hold half the
        stake; the same three for a window, or one of them, do not."""
        config = SimulationConfig(num_users=6)
        for end, nodes, fine in ((None, (3, 4, 5), False),
                                 (5.0, (3, 4, 5), True),
                                 (None, (5,), True)):
            spec = _chaos(config, FaultAction(kind, 0.0, end, nodes=nodes))
            if fine:
                spec.validate()
            else:
                with pytest.raises(ScenarioError, match="1/3"):
                    spec.validate()

    def test_the_guard_weighs_stake_not_heads(self):
        """One crashed user of six is a third of the stake when it holds
        a third of the money."""
        spec = _chaos(SimulationConfig(num_users=6,
                                       balances=[10, 10, 10, 10, 10, 25]),
                      FaultAction(kind="crash", start=0.0, nodes=(5,)))
        with pytest.raises(ScenarioError, match="1/3"):
            spec.validate()
        _chaos(spec.config,
               FaultAction(kind="crash", start=0.0, nodes=(0,))).validate()

    def test_fewer_than_four_users_is_no_scenario(self):
        """Any other measure may run three users; a chaos spec may not."""
        config = SimulationConfig(num_users=3)
        ExperimentSpec("latency", config, 1).validate()
        with pytest.raises(ScenarioError, match="at least 4 users"):
            _chaos(config).validate()

    def test_stake_no_step_can_reach_quorum_with_is_no_scenario(self):
        """Five users at the default 10 units hold 50, under an ordinary
        step's T_step * tau_step; the same five at 11 units do not."""
        config = SimulationConfig(num_users=5)
        assert sum(config.make_balances()) <= \
            config.params.step_vote_threshold
        ExperimentSpec("latency", config, 1).validate()
        with pytest.raises(ScenarioError, match="initial_balance"):
            _chaos(config).validate()
        _chaos(replace(config, initial_balance=11)).validate()

    def test_misspelled_scenario_key_is_rejected(self):
        record = partition_heal_scenario().to_json()
        record["num_user"] = 5
        with pytest.raises(ConfigError, match="num_user"):
            spec_from_json(record)

    def test_misspelled_config_key_is_rejected(self):
        record = partition_heal_scenario().to_json()
        record["config"]["num_user"] = 5
        with pytest.raises(ConfigError, match="num_user"):
            spec_from_json(record)

    def test_only_a_nondefault_liveness_bound_is_serialized(self):
        """Every spec written before the bound joined keeps its JSON and
        its fingerprint."""
        assert "liveness_bound" not in partition_heal_scenario().to_json()
        kill = kill_partition_scenario()
        assert kill.to_json()["liveness_bound"] == 30.0
        assert spec_from_json(kill.to_json()).liveness_bound == 30.0
        assert kill.fingerprint() != replace(
            kill, liveness_bound=150.0).fingerprint()

    def test_misspelled_fault_key_is_rejected(self):
        """``node`` for ``nodes`` would leave the filter empty: loss on
        every link instead of node 2's."""
        with pytest.raises(ScenarioError, match="'node'"):
            FaultAction.from_dict({"kind": "loss", "start": 0.0,
                                   "end": 5.0, "rate": 0.3, "node": [2]})

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


def _byzantine_mix() -> ExperimentSpec:
    """Every seam-replacing kind: whole-run and windowed, one seam and
    both."""
    return _chaos(SimulationConfig(num_users=10, seed=5),
                  FaultAction(kind="equivocate", start=0.0, nodes=(8,)),
                  FaultAction(kind="double-vote", start=0.0, nodes=(8, 9)),
                  FaultAction(kind="silent", start=1.0, end=6.0,
                              nodes=(7,)),
                  rounds=2, payments=((10, 0),))


def _proposer_dos() -> ExperimentSpec:
    """Section 10.4's DoS of each proposer once it speaks, over a
    ``dos`` window on one victim: two holds on one node."""
    return _chaos(SimulationConfig(num_users=16, seed=37),
                  FaultAction(kind="targeted-dos", start=0.0, end=20.0,
                              nodes=(12, 13, 14, 15), extra_delay=1.5),
                  FaultAction(kind="dos", start=2.0, end=8.0, nodes=(12,)),
                  rounds=3, payments=((16, 0),))


#: The pinned sim runs by id; together they arm every fault kind.
PINNED = {
    "partition-heal": partition_heal_scenario,
    "flood-recovery": flood_recovery_scenario,
    "seed-101": lambda: generate_scenario(101),
    "seed-105": lambda: generate_scenario(105),
    "seed-111": lambda: generate_scenario(111),
    "byzantine-mix": _byzantine_mix,
    "proposer-dos": _proposer_dos,
}


@functools.lru_cache(maxsize=None)
def _pinned_verdict(name: str) -> str:
    """The verdict JSON of pinned run ``name`` (each runs once)."""
    return run_point(PINNED[name]()).point.to_json()


def _cli_verdict(*argv: str) -> str:
    """The verdict JSON ``python -m repro.chaos ... --verdict`` writes."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "verdict.json"
        chaos_main([*argv, "--verdict", str(path)])
        return path.read_text(encoding="utf-8")


class TestSimVerdictsPinned:
    """The sim must not move under injector refactors.

    ``sha256(run_point(spec).point.to_json())`` — violations, heights,
    ``sim_seconds``, ``events_seen`` and the conformance summary, byte
    for byte — recorded before the sim and live injectors were merged
    (PR 18's parent) and stable across ``PYTHONHASHSEED``; the sixth,
    for the kinds that replace a node's seams, when those kinds joined
    the vocabulary, and the seventh when ``targeted-dos`` did. Together the scripts arm every fault kind, so hook
    order, the loss coins' place in the filter chain and the shared
    fault RNG stream are all under the hash. Four were re-recorded when
    the faulted sim began catching up over gossip instead of reading
    its peers' chains: those whose nodes then sent a ``chainreq``
    (byzantine-mix: the attackers, then still severed by a network-wide
    quarantine when the run ended). All six were re-recorded once more when a script
    became a ``SimulationConfig`` plus faults: only the ``scenario`` key
    moved, which :class:`TestSimOutcomesPinned` checks. And once more
    when the admission gate stopped being optional: each verdict lost
    exactly ``scenario.config.runtime.use_admission`` and
    ``scenario.config.params.lookback_b`` (the unread look-back period),
    and nothing else moved. All seven were re-recorded when a scenario
    became a chaos ``ExperimentSpec``: the ``scenario`` key holds the
    spec's JSON, and the verdict without it is byte-identical (the
    outcome digests below, and proposer-dos's ``854c2f9f…``). The two
    runs with attackers that honest nodes block, flood-recovery and
    byzantine-mix, were re-recorded when the network-wide quarantine
    went and every node came to block offenders at its own gate only:
    nobody is cut out of the topology any more, so both runs end as
    soon as every node, attackers included, reaches the target. All
    seven were re-recorded when the deployment-wide verification cache
    went: each verdict lost exactly its on/off key under
    ``scenario.config.runtime``, and nothing else moved. All seven were
    re-recorded when the settings nobody turned became constants: under
    ``scenario.config`` each verdict lost ``network.seen_horizon_rounds``
    and ``substrate``'s ``connect_timeout``, ``drain_budget`` and
    ``rx_queue_limit``, and ``runtime.admission`` (``null``) gave way to
    ``runtime.vote_buffer_budget`` and ``runtime.flood_budget_per_round``
    at their defaults; nothing else moved.
    """

    GOLDEN = [
        ("partition-heal", {"partition"},
         "51a2d60b0ee50c166d5025977a580c96b71243a3857a0c7880f12075c8e24e7c"),
        ("flood-recovery", {"flood", "spam"},
         "316b1a5b53004622f0afd1af3f1b82f382ffbf8e813e5e5b87c922640ec33136"),
        ("seed-101", {"crash", "delay", "loss"},
         "4c343da4a276609e903427ed85cc578affcd3b50a52ba3394a6a0c5175ef7f60"),
        ("seed-105", {"duplicate", "partition", "reorder"},
         "48faeda3e12c93f617a8bcd8007d840f86b5dcde58d4d58dde5b2bb9f7135695"),
        ("seed-111", {"delay", "dos", "reorder"},
         "99216b3861bea8e844f56226f0fcb65dacca1282d1f6899311568686b6864d76"),
        ("byzantine-mix", {"equivocate", "double-vote", "silent"},
         "8ec660b1bbb36d1f59c7463b4c3660be9b950019b111652fffe14d8b133ee181"),
        ("proposer-dos", {"targeted-dos", "dos"},
         "5abf18edc00b783dace4edee54f2b432a7b4477c6a7d5e163fc223e1876aa007"),
    ]

    def test_the_five_scripts_cover_every_fault_kind(self):
        from repro.chaos import FAULT_KINDS
        assert set().union(*(kinds for _, kinds, _ in self.GOLDEN)) \
            == set(FAULT_KINDS)

    @pytest.mark.parametrize("name,kinds,golden", GOLDEN,
                             ids=[name for name, _, _ in GOLDEN])
    def test_verdict_bytes_unchanged(self, name, kinds, golden):
        assert {action.kind for action in PINNED[name]().faults} == kinds
        verdict = _pinned_verdict(name)
        assert json.loads(verdict)["ok"], verdict
        assert hashlib.sha256(verdict.encode()).hexdigest() == golden


class TestSimOutcomesPinned:
    """What a run *found* does not depend on how its scenario is written.

    ``sha256`` of the verdict without its ``"scenario"`` key: violations,
    heights, ``sim_seconds``, ``events_seen`` and the conformance
    summary. Recorded while a script still re-declared its seed and user
    count, for the six pinned runs and the CLI's simulated
    ``kill-partition`` at its builder's seed; flood-recovery and
    byzantine-mix re-recorded when the network-wide quarantine went
    (see :class:`TestSimVerdictsPinned`).
    """

    OUTCOMES = [
        ("partition-heal", lambda: _pinned_verdict("partition-heal"),
         "31afb0646bbecf3c7e00a854d0bc46d0cc201578d15db56e81a397208d1f2a4c"),
        ("flood-recovery", lambda: _pinned_verdict("flood-recovery"),
         "b66de8859a9d4523ebd9469f0510b8b10403dc0c667e13aa7b9a7a97e06916db"),
        ("seed-101", lambda: _pinned_verdict("seed-101"),
         "7dfec11a1d16f031665c008ba38580777cda9ad117cb31f6774112c507a58bec"),
        ("seed-105", lambda: _pinned_verdict("seed-105"),
         "42903fe663aa9e7ffd356c9200fa4c674f46b9c91964356be4fc42d13cf82281"),
        ("seed-111", lambda: _pinned_verdict("seed-111"),
         "7c954ed7ca70d97099e8b8563a4af021eb2204a5d54cfa55357c1d62ec54a2cd"),
        ("byzantine-mix", lambda: _pinned_verdict("byzantine-mix"),
         "3f00bc3c785034a23aa83f7ae763387b2e3d6edeeac5ef15050dab9d29071dd3"),
        ("kill-partition", lambda: _cli_verdict(
            "--builtin", "kill-partition", "--base-seed", "11"),
         "b20dc2fc59e4d0d32241605c2f288fb315344ab14aaab860f1d089d2da36aee4"),
    ]

    @pytest.mark.parametrize("run,golden",
                             [(run, golden) for _, run, golden in OUTCOMES],
                             ids=[name for name, _, _ in OUTCOMES])
    def test_outcome_unchanged(self, run, golden):
        outcome = json.loads(run())
        del outcome["scenario"]
        assert hashlib.sha256(json.dumps(
            outcome, indent=2, sort_keys=True).encode()).hexdigest() \
            == golden


class TestSimulationFaults:
    """``Simulation(config, faults=...)``: the one injector, or none."""

    def test_no_faults_no_injector_no_hooks(self):
        sim = Simulation(SimulationConfig(num_users=4, seed=1))
        assert sim.injector is None
        assert sim.network.drop_filter is None
        assert sim.network.link_shaper is None

    @pytest.mark.parametrize("kind", ["crash", "dos", "targeted-dos",
                                      "flood", "spam", "equivocate",
                                      "double-vote", "silent"])
    def test_node_fault_on_dormant_stake_is_a_config_error(self, kind):
        """Slot 10 is pool stake behind a 4-agent core: there is no node
        to act on, and the fault must not pass as a silent no-op."""
        spec = _chaos(
            SimulationConfig(num_users=12, seed=3,
                             population=PopulationConfig(
                                 mode="aggregated", always_on_core=4)),
            FaultAction(kind=kind, start=0.0, end=5.0, nodes=(10,),
                        rate=50.0),
            rounds=1)
        with pytest.raises(ConfigError, match="dormant"):
            run_point(spec)

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
        spec = _chaos(SimulationConfig(num_users=2, seed=1),
                      liveness_bound=100.0)
        audit = Violation(invariant="prefix-consistency", t=4.0,
                          detail="forged")
        verdict = render_verdict(spec, monitor, [audit],
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
        """Being an attacker excuses no laggard: a flooder whose window
        closed but which stayed behind (a ``dos`` holds it off past the
        run) fails convergence, as any node held off would."""
        spec = _chaos(SimulationConfig(num_users=10, seed=3),
                      FaultAction(kind="flood", start=0.5, end=1.0,
                                  nodes=(9,), rate=5.0),
                      FaultAction(kind="dos", start=1.0, end=1000.0,
                                  nodes=(9,)),
                      rounds=3)
        verdict = run_point(spec).point
        assert verdict.heights == [3] * 9 + [0]
        assert not verdict.converged
        assert [row["detail"] for row in verdict.violations
                if row["invariant"] == "convergence"] == [
            f"nodes [9] below target height 3 when the run ended at "
            f"t={verdict.sim_seconds:.2f}"]

    def test_stalled_run_reads_liveness(self):
        spec = _chaos(SimulationConfig(num_users=2, seed=1), rounds=1,
                      liveness_bound=100.0)
        verdict = render_verdict(spec, ConformanceMonitor(), [],
                                 heights=[0, 0], laggards=[], now=200.0)
        assert [row["invariant"] for row in verdict.violations] == [
            "liveness"]
        assert verdict.violations[0]["t"] == 200.0
        assert "no commit at all" in verdict.violations[0]["detail"]


class TestChaosCli:
    def test_scenario_file_run_writes_artifacts(self, tmp_path, capsys):
        spec = _chaos(SimulationConfig(num_users=6, seed=3), rounds=1)
        scenario_path = tmp_path / "tiny.json"
        scenario_path.write_text(_spec_file_text(spec), encoding="utf-8")
        verdict_path = tmp_path / "verdict.json"
        trace_path = tmp_path / "trace.jsonl"
        rc = chaos_main([str(scenario_path),
                         "--verdict", str(verdict_path),
                         "--trace", str(trace_path)])
        assert rc == 0
        assert f"[OK] {scenario_path}:" in capsys.readouterr().out
        verdict = json.loads(verdict_path.read_text(encoding="utf-8"))
        assert verdict["ok"] is True
        assert spec_from_json(verdict["scenario"]) == spec
        assert trace_path.exists()
        assert trace_path.read_text(encoding="utf-8").count("\n") > 10

    def test_builtin_kill_partition_is_green_on_the_sim(self, tmp_path):
        """Its config carries the live stake: at the sim's default 10
        units a user no step of the 5-user deployment could reach
        quorum."""
        verdict_path = tmp_path / "verdict.json"
        assert chaos_main(["--builtin", "kill-partition",
                           "--verdict", str(verdict_path)]) == 0
        verdict = json.loads(verdict_path.read_text(encoding="utf-8"))
        assert verdict["ok"] and verdict["converged"]
        assert verdict["scenario"]["config"]["initial_balance"] == 40

    @pytest.mark.parametrize("users", [4, 10])
    def test_builtin_clean_is_green(self, tmp_path, users):
        verdict_path = tmp_path / "verdict.json"
        assert chaos_main(["--builtin", "clean", "--users", str(users),
                           "--verdict", str(verdict_path)]) == 0
        verdict = json.loads(verdict_path.read_text(encoding="utf-8"))
        assert verdict["ok"] and verdict["converged"]
        assert verdict["heights"] == [2] * users
        assert verdict["scenario"]["faults"] == []
        assert verdict["scenario"]["payments"] == [[2 * users, 0]]

    def test_the_written_snapshot_counts_only_the_run(self, tmp_path):
        """The verdict's seed-chain audit verifies VRF proofs after the
        run; none of those checks may reach the trace's ``crypto.*``
        numbers. The run's 308 checks are what the deployment-wide cache
        it once ran under counted as misses (with 106 hits besides)."""
        trace_path = tmp_path / "trace.jsonl"
        assert chaos_main(["--builtin", "clean", "--base-seed", "3",
                           "--trace", str(trace_path)]) == 0
        _, written = read_trace(trace_path)
        spec = clean_scenario(seed=3)
        sim = Simulation(spec.config, obs=TraceBus())
        sim.submit_payments(spec.payments[0][0])
        sim.run_rounds(spec.rounds)
        run = sim.outcome().snapshot
        assert run["crypto.verifies"] + run["crypto.vrf_verifies"] == 308
        for name, value in {**written["counters"],
                            **written["gauges"]}.items():
            if name.startswith("crypto."):
                assert value == run[name], name

    def test_exactly_one_source_required(self):
        with pytest.raises(SystemExit):
            chaos_main([])
        with pytest.raises(SystemExit):
            chaos_main(["--seed", "1", "--sweep", "2"])

    @pytest.mark.parametrize("argv,seed", [
        (["--builtin", "byzantine", "--users", "10"], 5),
        (["--builtin", "byzantine", "--users", "10", "--base-seed", "9"], 9),
    ])
    def test_a_builtin_runs_its_builders_seed(self, tmp_path, argv, seed):
        verdict_path = tmp_path / "verdict.json"
        assert chaos_main([*argv, "--verdict", str(verdict_path)]) == 0
        verdict = json.loads(verdict_path.read_text(encoding="utf-8"))
        assert verdict["scenario"]["config"]["seed"] == seed
        assert verdict["scenario"]["config"]["num_users"] == 10

    @pytest.mark.parametrize("argv", [
        ["SCENARIO", "--users", "5"],
        ["SCENARIO", "--rounds", "3"],
        ["--builtin", "flood", "--rounds", "3"],
        ["--builtin", "flood", "--transport", "tcp"],
        ["--seed", "1", "--runtime-dir", "somewhere"],
    ])
    def test_options_that_would_do_nothing_are_usage_errors(
            self, tmp_path, capsys, argv):
        scenario_path = tmp_path / "tiny.json"
        scenario_path.write_text(_spec_file_text(partition_heal_scenario()),
                                 encoding="utf-8")
        argv = [str(scenario_path) if arg == "SCENARIO" else arg
                for arg in argv]
        with pytest.raises(SystemExit) as exit_:
            chaos_main(argv)
        assert exit_.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,rule", [
        (["--sweep", "0"], "must be >= 1"),
        (["--sweep", "-2"], "must be >= 1"),
        (["--sweep", "1", "--users", "3"], "at least 4 users"),
        (["--builtin", "partition-heal", "--users", "3"],
         "at least 4 users"),
        (["MISSING"], "No such file"),
        (["GARBAGE"], "Expecting value"),
        (["LATENCY"], "measure is 'chaos'"),
        (["--seed", "5", "--base-seed", "9"], "--base-seed"),
        (["SCENARIO", "--base-seed", "9"], "--base-seed"),
        (["--builtin", "clean", "--users", "3"], "at least 4 users"),
        (["--builtin", "partition-heal", "--users", "5"],
         "initial_balance"),
    ])
    def test_bad_input_is_a_usage_error_naming_the_rule(
            self, tmp_path, capsys, argv, rule):
        """Exit 1 means a violation: nothing that runs no scenario may
        leave with it, nor with a traceback."""
        files = {"MISSING": tmp_path / "missing.json",
                 "GARBAGE": tmp_path / "garbage.json",
                 "LATENCY": tmp_path / "latency.json",
                 "SCENARIO": tmp_path / "tiny.json"}
        files["GARBAGE"].write_text("not json", encoding="utf-8")
        files["LATENCY"].write_text(_spec_file_text(ExperimentSpec(
            "latency", SimulationConfig(num_users=6), 1)), encoding="utf-8")
        files["SCENARIO"].write_text(
            _spec_file_text(partition_heal_scenario()), encoding="utf-8")
        argv = [str(files.get(arg, arg)) for arg in argv]
        with pytest.raises(SystemExit) as exit_:
            chaos_main(argv)
        assert exit_.value.code == 2
        error = capsys.readouterr().err
        assert "usage:" in error and rule in error
