"""Latency-scaling experiments: Figures 5 and 6.

**Figure 5** (paper): round-completion latency with 5,000-50,000 users,
1 MByte blocks, 20 Mbit/s per-user bandwidth — the claim is that latency
sits well under a minute and is *near-constant in the number of users*.

**Figure 6** (paper): 50,000-500,000 users by packing 500 users per VM;
per-user bandwidth collapses (a shared 1 Gbit/s NIC), CPU is saturated,
and ``lambda_step`` is raised to 60 s. Latency is ~4x Figure 5's but the
curve stays *flat*, which is the scaling claim.

Our reproduction keeps the committee sizes fixed while the population
grows (exactly the paper's mechanism for flat scaling: all costs depend
on tau, not on N) and scales populations down ~100x; see EXPERIMENTS.md
for the mapping. The Figure 6 variant models the shared-NIC bottleneck by
dividing per-user bandwidth by the users-per-VM packing factor.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common.errors import NoSamplesError
from repro.common.params import ProtocolParams, TEST_PARAMS
from repro.experiments.metrics import LatencySummary
from repro.experiments.spec import ExperimentSpec
from repro.node.config import NetworkConfig, PopulationConfig, SimulationConfig
from repro.node.deployment import RunOutcome

#: Scaled-down populations standing in for the paper's 5K..50K sweep.
FIGURE5_USERS = [40, 80, 160, 320]
#: Scaled-down populations standing in for the paper's 50K..500K sweep.
FIGURE6_USERS = [80, 160, 320]
#: The paper packs 500 users per VM in Figure 6; bandwidth divides by it.
FIGURE6_PACKING = 10


@dataclass(frozen=True)
class LatencyPoint:
    """One x-axis point of a latency figure."""

    num_users: int
    summary: LatencySummary
    empty_rounds: int
    final_rounds: int
    rounds_measured: int


def measure_latency(outcome: RunOutcome,
                    spec: ExperimentSpec) -> LatencyPoint:
    """Summarize the completion latency of the run's last round."""
    last = spec.rounds
    runs = outcome.runs.values()
    empties = sum(1 for run in runs if run.blocks[last - 1].is_empty)
    records = [run.round_record(last) for run in runs]
    finals = sum(1 for record in records
                 if record is not None and record.kind == "final")
    try:
        summary = LatencySummary.from_samples(outcome.round_latencies(last))
    except NoSamplesError:
        summary = LatencySummary.empty()
    return LatencyPoint(
        num_users=spec.config.num_users,
        summary=summary,
        empty_rounds=empties,
        final_rounds=finals,
        rounds_measured=spec.rounds,
    )


def latency_spec(num_users: int, seed: int, *,
                 params: ProtocolParams = TEST_PARAMS,
                 bandwidth_bps: float | None = 20e6,
                 payload_bytes: int = 0, rounds: int = 2,
                 population: PopulationConfig = PopulationConfig(),
                 ) -> ExperimentSpec:
    """One latency point; ``payload_bytes`` is split over up to 200
    senders' payments."""
    senders = min(num_users, 200)
    payments = (((senders, payload_bytes // senders),)
                if payload_bytes else ())
    config = SimulationConfig(
        num_users=num_users, params=params, seed=seed,
        network=NetworkConfig(bandwidth_bps=bandwidth_bps),
        population=population)
    return ExperimentSpec("latency", config, rounds, payments)


def figure5_specs(users: list[int] | None = None, *, seed: int = 0,
                  params: ProtocolParams = TEST_PARAMS,
                  payload_bytes: int = 50_000) -> list[ExperimentSpec]:
    """The Figure 5 grid as sweep-ready specs."""
    return [
        latency_spec(n, seed + i, params=params, payload_bytes=payload_bytes)
        for i, n in enumerate(users if users is not None else FIGURE5_USERS)
    ]


def figure6_specs(users: list[int] | None = None, *, seed: int = 0,
                  params: ProtocolParams = TEST_PARAMS,
                  packing: int = FIGURE6_PACKING) -> list[ExperimentSpec]:
    """The Figure 6 contention grid as sweep-ready specs."""
    contended = dataclasses.replace(params, lambda_step=params.lambda_step * 3)
    return [
        latency_spec(n, seed + i, params=contended,
                     bandwidth_bps=20e6 / packing)
        for i, n in enumerate(users if users is not None else FIGURE6_USERS)
    ]


def flatness(medians: list[float | None]) -> float:
    """Max/min ratio of a sweep's median latencies (1.0 == flat).

    The paper's claim is near-constant latency. A point without a
    median (no round finished) is skipped; with none at all the ratio is
    nan.
    """
    known = [median for median in medians if median is not None]
    return max(known) / min(known) if known else float("nan")
