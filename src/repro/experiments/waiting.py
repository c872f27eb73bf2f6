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
from repro.experiments.spec import ExperimentSpec
from repro.node.config import SimulationConfig
from repro.node.deployment import RunOutcome

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


def measure_waiting(outcome: RunOutcome,
                    spec: ExperimentSpec) -> WaitingPoint:
    """Empty-block share and median round latency over the run."""
    runs = list(outcome.runs.values())
    empty = sum(1 for block in runs[0].blocks[:spec.rounds]
                if block.is_empty)
    latencies = [record.duration for run in runs for record in run.rounds]
    params = spec.config.params
    return WaitingPoint(
        wait_seconds=params.lambda_priority + params.lambda_stepvar,
        empty_fraction=empty / spec.rounds,
        median_latency=float(np.median(latencies)),
        rounds=spec.rounds,
    )


def waiting_spec(wait_seconds: float, num_users: int, seed: int, *,
                 rounds: int = 3) -> ExperimentSpec:
    """One point: the wait window split evenly between
    ``lambda_priority`` and ``lambda_stepvar``."""
    tuned = dataclasses.replace(
        TEST_PARAMS,
        lambda_stepvar=wait_seconds / 2,
        lambda_priority=wait_seconds / 2,
    )
    config = SimulationConfig(num_users=num_users, params=tuned, seed=seed)
    return ExperimentSpec("waiting", config, rounds,
                          payments=((num_users * 2, 16),))


def waiting_specs(waits: list[float] | None = None, *, seed: int = 0,
                  num_users: int = 20) -> list[ExperimentSpec]:
    """The section 6 sweep as sweep-ready specs."""
    sweep = waits if waits is not None else WAIT_SWEEP
    return [waiting_spec(w, num_users, seed + i)
            for i, w in enumerate(sweep)]
