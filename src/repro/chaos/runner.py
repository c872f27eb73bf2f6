"""Execute one chaos scenario end to end and render a verdict.

:func:`run_scenario` wires the whole stack: a :class:`~repro.obs.TraceBus`
(plus an optional JSONL trace file) and a deterministic
:class:`~repro.experiments.harness.Simulation`, which checks every event
online against the reference machines (:mod:`repro.conformance`) and
compiles the script's actions onto the sim clock with its
:class:`~repro.chaos.faults.FaultInjector`, and runs it with
:meth:`~repro.experiments.harness.Simulation.run_rounds` — until every
node's run has ended, or the derived time limit, which the verdict then
explains as a liveness or convergence violation.

Verdicts are deterministic: the simulation is seeded, the fault RNG is
seeded, and :meth:`ChaosVerdict.to_json` serializes with sorted keys —
re-running the same script yields byte-identical JSON (tested).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.chaos.monitor import Violation, audit_chains, audit_ingress
from repro.chaos.scenario import ScenarioScript
from repro.common.params import ProtocolParams
from repro.conformance.machine import OUTCOME_RULES
from repro.conformance.monitor import ConformanceMonitor
from repro.experiments.harness import Simulation, SimulationConfig
from repro.obs.bus import TraceBus
from repro.obs.sink import JsonlTraceSink


@dataclass
class ChaosVerdict:
    """The outcome of one scenario run: green or red, with receipts."""

    scenario: dict
    ok: bool
    violations: list[dict]
    #: Final chain height per node (index-ordered).
    heights: list[int]
    converged: bool
    sim_seconds: float
    events_seen: int
    #: Summary of the reference-machine check (repro.conformance) — its
    #: violations are merged into ``violations`` (the outcome rules
    #: under their own names, the rest prefixed ``conformance:``) and
    #: gate ``ok`` like any invariant.
    conformance: dict | None = None
    #: The live simulation, for tests and post-mortems; never serialized.
    sim: Simulation | None = field(default=None, repr=False, compare=False)
    #: The :class:`repro.live.cluster.LiveCluster` behind a live-substrate
    #: verdict (see :mod:`repro.chaos.live`); never serialized.
    cluster: object | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "violations": self.violations,
            "heights": self.heights,
            "converged": self.converged,
            "sim_seconds": self.sim_seconds,
            "events_seen": self.events_seen,
            "conformance": self.conformance,
        }

    def to_json(self) -> str:
        """Stable serialization: same scenario, same bytes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def derive_time_limit(script: ScenarioScript,
                      params: ProtocolParams) -> float:
    """A generous ceiling: per-round worst case + fault tail + liveness."""
    return (params.round_budget * (script.rounds + 1)
            + script.last_heal_time() + script.liveness_bound)


def render_verdict(script: ScenarioScript, monitor: ConformanceMonitor,
                   audits: list[Violation], *,
                   heights: list, laggards: Sequence[int],
                   missing: Sequence[int] = (), now: float,
                   sim: Simulation | None = None,
                   cluster: object | None = None) -> ChaosVerdict:
    """Fold a run's findings into its verdict — one rule, both substrates.

    ``monitor`` has seen the run's whole trace (online, or offline from
    a merged file); the liveness question is put to it here, with the
    script's bound. Its outcome-rule breaches lead the verdict under
    their bare names, the post-run ``audits`` of stored state follow,
    then every other machine rule as ``conformance:<rule>`` and
    ``missing``/``laggards`` nodes as ``convergence``; duplicates are
    dropped in first-seen order (liveness and convergence can name one
    stall twice).
    """
    monitor.check_liveness(now, heal_time=script.last_heal_time(),
                           bound=script.liveness_bound)
    conformance = monitor.verdict()
    violations: list[Violation] = []
    stepwise: list[Violation] = []
    for breach in conformance.violations:
        if breach["rule"] in OUTCOME_RULES:
            violations.append(Violation(
                invariant=breach["rule"], t=breach["t"],
                detail=breach["detail"]))
        else:
            stepwise.append(Violation(
                invariant="conformance:" + breach["rule"],
                t=breach["t"],
                detail=(f"node {breach['node']} round {breach['round']} "
                        f"step {breach['step']} ({breach['kind']} in "
                        f"phase {breach['phase']}): {breach['detail']}")))
    violations += audits + stepwise
    for index in missing:
        violations.append(Violation(
            invariant="convergence", t=now,
            detail=(f"node {index} delivered no result although it was "
                    f"not permanently crashed")))
    if laggards:
        ellipsis = "..." if len(laggards) > 5 else ""
        violations.append(Violation(
            invariant="convergence", t=now,
            detail=(f"nodes {list(laggards[:5])}{ellipsis} below target "
                    f"height {script.rounds} when the run ended at "
                    f"t={now:.2f}")))
    seen: set[tuple] = set()
    unique = []
    for violation in violations:
        key = (violation.invariant, violation.detail)
        if key not in seen:
            seen.add(key)
            unique.append(violation)
    return ChaosVerdict(
        scenario=script.to_dict(),
        ok=not unique,
        violations=[violation.to_dict() for violation in unique],
        heights=heights,
        converged=not laggards and not missing,
        sim_seconds=now,
        events_seen=monitor.events_seen,
        conformance={
            "ok": conformance.ok,
            "events_checked": conformance.events_checked,
            "nodes": conformance.nodes,
            "violations": len(conformance.violations),
        },
        sim=sim,
        cluster=cluster,
    )


def run_scenario(script: ScenarioScript, *,
                 trace_path: str | None = None,
                 sim_overrides: dict | None = None) -> ChaosVerdict:
    """Run ``script`` and return its verdict (never raises on red).

    ``sim_overrides`` replaces fields of the derived
    :class:`SimulationConfig` (e.g. ``{"runtime":
    RuntimeConfig(relay_damping=False)}``) — the damping-equivalence
    suite runs the same scenario under several deployments this way.
    Scenario fields (``num_users``, ``seed``) stay script-owned.
    """
    script.validate()
    bus = TraceBus()
    if trace_path is not None:
        bus.add_sink(JsonlTraceSink(trace_path))

    config = SimulationConfig(num_users=script.num_users,
                              seed=script.seed)
    if sim_overrides:
        config = dataclasses.replace(config, **sim_overrides)
    sim = Simulation(config, faults=script.actions, obs=bus)
    if script.payments:
        sim.submit_payments(script.payments)
    limit = (script.time_limit if script.time_limit is not None
             else derive_time_limit(script, config.params))
    try:
        sim.run_rounds(script.rounds, time_limit=limit)
    except TimeoutError:
        pass  # the verdict names who fell short, and why
    now = sim.env.now
    # Crashed with no scheduled restart: excluded from convergence and
    # liveness accounting.
    skip = script.permanently_crashed()

    audits = audit_chains(sim.nodes, backend=sim.backend, now=now,
                          skip=skip)
    unjudged = skip
    if sim.quarantine_directory is not None:
        # Bounded-buffer invariant: honest high-water marks must have
        # stayed inside their budgets (attackers audit nothing — their
        # buffers are not part of the robustness claim).
        audits.extend(audit_ingress(
            sim.nodes, sim.network, now=now,
            skip=skip | script.attacker_nodes()))
        # Still severed by the network-wide quarantine: catch-up runs
        # over gossip, so it cannot have learned what it missed.
        unjudged = skip | sim.quarantine_directory.quarantined
    verdict = render_verdict(
        script, sim.conformance, audits,
        heights=[node.chain.height for node in sim.nodes],
        laggards=[node.index for node in sim.nodes
                  if node.index not in unjudged
                  and node.chain.height < script.rounds],
        now=now, sim=sim)
    bus.close()
    return verdict
