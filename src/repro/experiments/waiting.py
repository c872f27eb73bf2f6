"""The block-proposal waiting trade-off (section 6).

"Waiting a short amount of time will mean no received proposals ...
Algorand will reach consensus on an empty block. On the other hand,
waiting too long ... unnecessarily increase[s] the confirmation latency."

This experiment sweeps the pre-BA* waiting time (the
``lambda_stepvar + lambda_priority`` window in which nodes learn the
highest-priority proposer) and measures both sides of the trade-off:
the fraction of rounds that land on the empty block (wasted rounds) and
the median round latency. The paper resolves the trade-off by measuring
the gossip time of priority messages (~1 s) and padding generously (5 s);
the sweep shows why: a knee below which empty rounds spike, and a linear
latency cost above it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.common.params import TEST_PARAMS
from repro.experiments.harness import NetworkConfig, Simulation, SimulationConfig
from repro.experiments.spec import WaitingSpec, register_runner

#: Wait-window values (seconds) swept by the benchmark, spanning "far too
#: short" to "comfortably padded" for the scaled WAN.
WAIT_SWEEP = [0.02, 0.1, 0.5, 2.0, 4.0]


@dataclass(frozen=True)
class WaitingPoint:
    """One sweep point: proposal-wait window vs what it buys."""

    wait_seconds: float
    empty_fraction: float
    median_latency: float
    rounds: int


@register_runner(WaitingSpec.kind)
def run_spec(spec: WaitingSpec) -> WaitingPoint:
    """Measure one wait-window setting over several rounds."""
    base = spec.params if spec.params is not None else TEST_PARAMS
    num_users, rounds = spec.num_users, spec.rounds
    tuned = dataclasses.replace(
        base,
        lambda_stepvar=spec.wait_seconds / 2,
        lambda_priority=spec.wait_seconds / 2,
    )
    sim = Simulation(SimulationConfig(
        num_users=num_users, params=tuned, seed=spec.seed,
        network=NetworkConfig(latency_model="city"),
    ))
    sim.submit_payments(num_users * 2, note_bytes=16)
    sim.run_rounds(rounds)

    reference = sim.nodes[0].chain
    empty = sum(1 for r in range(1, rounds + 1)
                if reference.block_at(r).is_empty)
    latencies = [
        record.duration
        for node in sim.nodes
        for record in node.metrics.rounds
    ]
    return WaitingPoint(
        wait_seconds=spec.wait_seconds,
        empty_fraction=empty / rounds,
        median_latency=float(np.median(latencies)),
        rounds=rounds,
    )


def waiting_specs(waits: list[float] | None = None, *, seed: int = 0,
                  num_users: int = 20) -> list[WaitingSpec]:
    """The section 6 sweep as sweep-ready specs."""
    sweep = waits if waits is not None else WAIT_SWEEP
    return [WaitingSpec(wait_seconds=w, num_users=num_users, seed=seed + i)
            for i, w in enumerate(sweep)]
