"""The chaos measure: fold a finished run into a verdict.

A chaos run is an :class:`~repro.experiments.spec.ExperimentSpec` with
measure ``"chaos"``, run by :func:`repro.experiments.sweep.run_point`
under a checking :class:`~repro.obs.TraceBus` on whichever substrate its
config names — a :class:`~repro.experiments.harness.Simulation` checks
every event online against the reference machines
(:mod:`repro.conformance`), a :class:`~repro.live.cluster.LiveCluster`
replays its merged trace through the same bus once its processes are
done. :func:`measure_chaos` reads the run's
:class:`~repro.node.deployment.RunOutcome`; a run that stalled is
judged, its verdict naming the stall a liveness or convergence
violation.

Sim verdicts are deterministic: the simulation is seeded, the fault RNG
is seeded, and :meth:`ChaosVerdict.to_json` serializes with sorted keys
— re-running the same spec yields byte-identical JSON (tested). On a
live cluster the wall-clock timings (``sim_seconds``, violation
timestamps) vary run to run, but the *judgments* — which invariants
held, whether chains matched — are stable for a healthy host.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from repro.chaos.monitor import Violation, findings
from repro.chaos.scenario import last_heal_time
from repro.conformance.machine import OUTCOME_RULES
from repro.conformance.monitor import ConformanceMonitor


@dataclass
class ChaosVerdict:
    """The outcome of one scenario run: green or red, with receipts."""

    #: The run's spec, as its JSON.
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

    def to_json(self) -> str:
        """Stable serialization: same scenario, same bytes."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def render_verdict(spec, monitor: ConformanceMonitor,
                   audits: list[Violation], *,
                   heights: list, laggards: Sequence[int],
                   missing: Sequence[int] = (), now: float) -> ChaosVerdict:
    """Fold a run's findings into its verdict — one rule, both substrates.

    ``monitor`` has seen the run's whole trace (online, or offline from
    a merged file); the liveness question is put to it here, with the
    spec's bound. Its outcome-rule breaches lead the verdict under
    their bare names, the post-run ``audits`` of stored state follow,
    then every other machine rule as ``conformance:<rule>`` and
    ``missing``/``laggards`` nodes as ``convergence``; duplicates are
    dropped in first-seen order (liveness and convergence can name one
    stall twice).
    """
    monitor.check_liveness(now, heal_time=last_heal_time(spec.faults),
                           bound=spec.liveness_bound)
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
                    f"height {spec.rounds} when the run ended at "
                    f"t={now:.2f}")))
    seen: set[tuple] = set()
    unique = []
    for violation in violations:
        key = (violation.invariant, violation.detail)
        if key not in seen:
            seen.add(key)
            unique.append(violation)
    return ChaosVerdict(
        scenario=spec.to_json(),
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
    )


def measure_chaos(outcome, spec) -> ChaosVerdict:
    """The ``"chaos"`` measure: the verdict on a finished run, from its
    :class:`~repro.node.deployment.RunOutcome` — the stored-state
    audits of :func:`~repro.chaos.monitor.findings` and the checking
    monitor that saw its trace (never raises on red)."""
    return render_verdict(spec, outcome.conformance,
                          **findings(outcome, spec))
