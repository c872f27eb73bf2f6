"""Execute one chaos scenario end to end and render a verdict.

:func:`run_scenario` runs a script on whichever substrate its config
names: a :class:`~repro.obs.TraceBus` (plus an optional JSONL trace
file), the deployment :func:`~repro.node.deployment.deploy` builds with
the script's faults and that bus — a deterministic
:class:`~repro.experiments.harness.Simulation`, which checks every event
online against the reference machines (:mod:`repro.conformance`), or a
:class:`~repro.live.cluster.LiveCluster`, whose processes take real
SIGKILLs and cut links and whose merged trace the same bus replays once
they are done — then the script's payments and ``run_rounds`` until
every node's run has ended, or the derived time limit, which the
verdict then explains as a liveness or convergence violation.

Sim verdicts are deterministic: the simulation is seeded, the fault RNG
is seeded, and :meth:`ChaosVerdict.to_json` serializes with sorted keys
— re-running the same script yields byte-identical JSON (tested). On a
live cluster the wall-clock timings (``sim_seconds``, violation
timestamps) vary run to run, but the *judgments* — which invariants
held, whether chains matched — are stable for a healthy host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from repro.chaos.monitor import Violation, live_findings, sim_findings
from repro.chaos.scenario import ScenarioScript
from repro.conformance.machine import OUTCOME_RULES
from repro.conformance.monitor import ConformanceMonitor
from repro.node.deployment import deploy
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
    #: The run's :class:`~repro.experiments.harness.Simulation` or
    #: :class:`~repro.live.cluster.LiveCluster`, for tests and
    #: post-mortems; never serialized.
    deployment: object | None = field(default=None, repr=False,
                                      compare=False)

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


def derive_time_limit(script: ScenarioScript) -> float:
    """The script's ``time_limit``, or a generous ceiling: per-round
    worst case + fault tail + liveness."""
    if script.time_limit is not None:
        return script.time_limit
    return (script.config.params.round_budget * (script.rounds + 1)
            + script.last_heal_time() + script.liveness_bound)


def render_verdict(script: ScenarioScript, monitor: ConformanceMonitor,
                   audits: list[Violation], *,
                   heights: list, laggards: Sequence[int],
                   missing: Sequence[int] = (), now: float,
                   deployment: object | None = None) -> ChaosVerdict:
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
        deployment=deployment,
    )


def run_scenario(script: ScenarioScript, *,
                 trace_path: str | None = None) -> ChaosVerdict:
    """Run ``script`` on the substrate its config names and return its
    verdict (never raises on red).

    Orchestration failures on a live cluster (a node dying when not
    scripted to, a control-protocol breach) *do* raise — a broken
    harness is not a red verdict, it is no verdict.
    """
    script.validate()
    bus = TraceBus()
    if trace_path is not None:
        bus.add_sink(JsonlTraceSink(trace_path))
    deployment = deploy(script.config, faults=script.actions, obs=bus)
    if script.payments:
        deployment.submit_payments(script.payments)
    try:
        deployment.run_rounds(script.rounds,
                              time_limit=derive_time_limit(script))
    except TimeoutError:
        pass  # the verdict names who fell short, and why
    findings = (live_findings if script.config.substrate.kind == "live"
                else sim_findings)
    verdict = render_verdict(script, deployment.conformance,
                             deployment=deployment,
                             **findings(deployment, script))
    bus.close()
    return verdict
