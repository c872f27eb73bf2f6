"""Run a chaos scenario on the live substrate and render a verdict.

:func:`run_live_scenario` is the live twin of
:func:`repro.chaos.runner.run_scenario`: the same declarative
:class:`~repro.chaos.scenario.ScenarioScript`, the same
:class:`ChaosVerdict` out — but the faults are *real*. ``crash`` is a
SIGKILL delivered by the coordinator and a respawned process rejoining
over gossip catch-up; every other kind is armed inside each node
process by the same :class:`~repro.chaos.faults.FaultInjector` the sim
runner uses, on that node's socket transport
(:class:`~repro.live.cluster.LiveCluster` carries the schedule in its
``start`` broadcast).

Where the sim runner's trace is checked online, this runner checks it
*offline*: the cluster's merged trace replayed through the same
:class:`~repro.conformance.monitor.ConformanceMonitor` — which is what
sees two *processes* disagree — plus a byte-level chain audit over the
encoded blocks each process reported (the live analogue of
:func:`~repro.chaos.monitor.audit_chains`'s prefix-consistency check:
on this substrate "no fork" literally means identical bytes).

Verdict determinism is necessarily weaker than the sim's: wall-clock
timings (``sim_seconds``, violation timestamps) vary run to run, but
the *judgments* — which invariants held, whether chains matched — are
stable for a healthy host.
"""

from __future__ import annotations

import dataclasses

from repro.chaos.monitor import Violation, ingress_breach
from repro.chaos.runner import ChaosVerdict, derive_time_limit, render_verdict
from repro.chaos.scenario import LIVE_INITIAL_BALANCE, ScenarioScript
from repro.conformance.monitor import ConformanceMonitor
from repro.node.deployment import SimulationConfig, SubstrateConfig
from repro.live.cluster import LIVE_SMOKE_PARAMS, LiveCluster
from repro.obs.sink import read_trace

#: The live smoke parameters with the step budget tightened: a node
#: stuck in a quorum-less round (its peers crashed or severed) burns
#: through its steps in ~9 wall seconds and reaches the
#: ConsensusHalted -> catch-up wait instead of spinning for the
#: sim-scale 30 steps. Committee sizes are untouched (W = 200 with the
#: 5 x 40 design point).
LIVE_CHAOS_PARAMS = dataclasses.replace(LIVE_SMOKE_PARAMS, max_steps=12)


def _audit_block_bytes(cluster: LiveCluster, now: float) -> list[Violation]:
    """Byte-prefix consistency across every reporting node's chain."""
    violations: list[Violation] = []
    results = cluster.results
    if not results:
        return violations
    reference_index = max(results, key=lambda i: results[i]["height"])
    reference = results[reference_index]["blocks"]
    for index in sorted(results):
        blocks = results[index]["blocks"]
        common = min(len(blocks), len(reference))
        for round_number in range(common):
            if blocks[round_number] != reference[round_number]:
                violations.append(Violation(
                    invariant="prefix-consistency", t=now,
                    detail=(f"node {index} round {round_number + 1}: "
                            f"committed block bytes differ from node "
                            f"{reference_index}'s")))
                break
    return violations


def _audit_ingress(cluster: LiveCluster, now: float,
                   skip: frozenset[int]) -> list[Violation]:
    """The sim's ``ingress-bounds`` audit, over reported vote buffers.

    ``skip`` names the attackers: their own buffers are not part of the
    robustness claim.
    """
    violations: list[Violation] = []
    for index, result in sorted(cluster.results.items()):
        if index not in skip:
            stats = result["stats"]
            violations += ingress_breach(
                index, "vote-buffer", stats["vote_buffer_high_water"],
                stats["vote_buffer_budget"], now)
    return violations


def run_live_scenario(script: ScenarioScript, *,
                      runtime_dir: str | None = None,
                      transport: str = "uds") -> ChaosVerdict:
    """Run ``script`` on a real process cluster; never raises on red.

    Orchestration failures (a node dying when not scripted to, a
    control-protocol breach) *do* raise — a broken harness is not a
    red verdict, it is no verdict.
    """
    script.validate()
    config = SimulationConfig(
        num_users=script.num_users,
        seed=script.seed,
        initial_balance=LIVE_INITIAL_BALANCE,
        params=LIVE_CHAOS_PARAMS,
        substrate=SubstrateConfig(kind="live", transport=transport,
                                  runtime_dir=runtime_dir),
    )
    cluster = LiveCluster(config, faults=script.actions)
    if script.payments:
        cluster.submit_payments(script.payments)
    limit = (script.time_limit if script.time_limit is not None
             else derive_time_limit(script, config.params))
    cluster.run_rounds(script.rounds, time_limit=limit)

    events, _ = read_trace(cluster.merged_trace_path)
    now = max((float(record.get("t", 0.0)) for record in events),
              default=0.0)
    monitor = ConformanceMonitor()
    monitor.feed(events)
    permanently_gone = script.permanently_crashed()
    return render_verdict(
        script, monitor,
        _audit_block_bytes(cluster, now)
        + _audit_ingress(cluster, now, script.attacker_nodes()),
        heights=[cluster.results[index]["height"]
                 if index in cluster.results else None
                 for index in range(script.num_users)],
        laggards=[index for index, result in sorted(cluster.results.items())
                  if result["height"] < script.rounds],
        missing=[index for index in range(script.num_users)
                 if index not in cluster.results
                 and index not in permanently_gone],
        now=now, cluster=cluster)
