"""Execute one chaos scenario end to end and render a verdict.

:func:`run_scenario` wires the whole stack: a :class:`~repro.obs.TraceBus`
with the :class:`~repro.chaos.monitor.InvariantMonitor` attached as an
online sink (plus an optional JSONL trace file), a deterministic
:class:`~repro.experiments.harness.Simulation`, and a
:class:`~repro.chaos.faults.FaultInjector` compiling the script onto the
sim clock. The run stops when every node that is not permanently crashed
has committed the scenario's target rounds — or when the derived time
limit expires, which the verdict then explains as a liveness or
convergence violation rather than a silent timeout.

Verdicts are deterministic: the simulation is seeded, the fault RNG is
seeded, and :meth:`ChaosVerdict.to_json` serializes with sorted keys —
re-running the same script yields byte-identical JSON (tested).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Sequence

from numpy.random import default_rng

from repro.chaos.faults import FaultInjector
from repro.chaos.monitor import (
    InvariantMonitor,
    Violation,
    audit_chains,
    audit_ingress,
)
from repro.chaos.scenario import FAULT_RNG_TAG, ScenarioScript
from repro.common.params import ProtocolParams
from repro.conformance.monitor import ConformanceVerdict
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.catchup import resync_from_peers
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
    #: Summary of the online reference-machine check (repro.conformance)
    #: — its violations are merged into ``violations`` (prefixed
    #: ``conformance:``) and gate ``ok`` like any invariant.
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


def render_verdict(script: ScenarioScript, violations: list[Violation],
                   conformance: ConformanceVerdict | None, *,
                   heights: list, laggards: Sequence[int],
                   missing: Sequence[int] = (), now: float,
                   events_seen: int, sim: Simulation | None = None,
                   cluster: object | None = None) -> ChaosVerdict:
    """Fold a run's findings into its verdict — one rule, both substrates.

    ``violations`` are the invariant breaches the runner collected its
    own way (online, or offline from a merged trace). Reference-machine
    breaches join them as ``conformance:<rule>``, ``missing`` and
    ``laggards`` nodes as ``convergence``; duplicates are dropped in
    first-seen order (liveness and convergence can name one stall twice).
    """
    violations = list(violations)
    conformance_section = None
    if conformance is not None:
        conformance_section = {
            "ok": conformance.ok,
            "events_checked": conformance.events_checked,
            "nodes": conformance.nodes,
            "violations": len(conformance.violations),
        }
        for breach in conformance.violations:
            violations.append(Violation(
                invariant="conformance:" + breach["rule"],
                t=breach["t"],
                detail=(f"node {breach['node']} round {breach['round']} "
                        f"step {breach['step']} ({breach['kind']} in "
                        f"phase {breach['phase']}): {breach['detail']}")))
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
        events_seen=events_seen,
        conformance=conformance_section,
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
    monitor = InvariantMonitor(liveness_bound=script.liveness_bound,
                               heal_time=script.last_heal_time())
    bus.add_sink(monitor)
    if trace_path is not None:
        bus.add_sink(JsonlTraceSink(trace_path))

    config = SimulationConfig(num_users=script.num_users,
                              seed=script.seed)
    if sim_overrides:
        config = dataclasses.replace(config, **sim_overrides)
    sim = Simulation(config, obs=bus)
    for node in sim.nodes:
        # Crash-rejoin catch-up (and late-round resync for everyone):
        # adopt the longest valid peer chain at round boundaries.
        node.resync = lambda n=node: resync_from_peers(n, sim.nodes)
    FaultInjector(
        sim.env, sim.network, {node.index: node for node in sim.nodes},
        script.actions, rng=default_rng([script.seed, FAULT_RNG_TAG]),
        obs=bus, rounds=script.rounds).install()
    if script.payments:
        sim.submit_payments(script.payments)

    for node in sim.nodes:
        node.start(script.rounds)
    # Crashed with no scheduled restart: excluded from convergence and
    # liveness accounting.
    skip = script.permanently_crashed()
    survivors = [node for node in sim.nodes if node.index not in skip]

    def finished() -> bool:
        return all(node.chain.height >= script.rounds
                   for node in survivors)

    limit = (script.time_limit if script.time_limit is not None
             else derive_time_limit(script, config.params))
    sim.env.run(until=limit, stop_when=finished)
    now = sim.env.now

    violations: list[Violation] = []
    violations.extend(monitor.finish(now))
    violations.extend(audit_chains(sim.nodes, backend=sim.backend,
                                   now=now, skip=skip))
    if sim.quarantine_directory is not None:
        # Bounded-buffer invariant: honest high-water marks must have
        # stayed inside their budgets (attackers audit nothing — their
        # buffers are not part of the robustness claim).
        violations.extend(audit_ingress(
            sim.nodes, sim.network, now=now,
            skip=skip | script.attacker_nodes()))
    # The harness auto-attached a ConformanceMonitor (obs bus present):
    # reference-machine breaches are scenario violations like any other.
    verdict = render_verdict(
        script, violations,
        sim.conformance.verdict() if sim.conformance is not None else None,
        heights=[node.chain.height for node in sim.nodes],
        laggards=[node.index for node in survivors
                  if node.chain.height < script.rounds],
        now=now, events_seen=monitor.events_seen, sim=sim)
    bus.close()
    return verdict
