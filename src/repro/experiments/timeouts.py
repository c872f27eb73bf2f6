"""Timeout-parameter validation (section 10.5).

The paper validates its Figure 4 timeouts empirically:

* BA* steps finish well under ``lambda_step`` (20 s);
* the 25th-75th percentile spread of BA* completion times is under
  ``lambda_stepvar`` (5 s);
* blocks gossip within ``lambda_block`` (1 min);
* priority/proof messages propagate in ~1 s, well under
  ``lambda_priority`` (5 s).

We re-measure the first three from node metrics of one
:func:`timeouts_spec` run (the ``timeouts`` measure), and the last from
a bare gossip fabric, which is not a deployment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.spec import ExperimentSpec
from repro.node.config import NetworkConfig, SimulationConfig
from repro.node.deployment import RunOutcome


@dataclass(frozen=True)
class TimeoutReport:
    """Measured timings vs their configured budgets."""

    step_p99: float
    lambda_step: float
    ba_iqr: float               # 75th - 25th pct of BA* completion
    lambda_stepvar: float
    proposal_p99: float         # time to obtain the winning block
    lambda_block_budget: float  # stepvar + priority + block
    rounds: int


def measure_timeouts(outcome: RunOutcome,
                     spec: ExperimentSpec) -> TimeoutReport:
    """Compare the run's measured timings to its configured budgets."""
    params = spec.config.params
    runs = outcome.runs.values()
    step_durations = [seconds for run in runs
                      for (_, _, seconds) in run.step_durations]
    records = [record for run in runs for record in run.rounds]
    ba_completions = [record.ba_done_time - record.start_time
                      for record in records]
    proposal_durations = [record.proposal_duration for record in records]
    return TimeoutReport(
        step_p99=float(np.percentile(step_durations, 99)),
        lambda_step=params.lambda_step,
        ba_iqr=float(np.percentile(ba_completions, 75)
                     - np.percentile(ba_completions, 25)),
        lambda_stepvar=params.lambda_stepvar,
        proposal_p99=float(np.percentile(proposal_durations, 99)),
        lambda_block_budget=(params.lambda_stepvar + params.lambda_priority
                             + params.lambda_block),
        rounds=spec.rounds,
    )


def timeouts_spec(num_users: int, seed: int, *, rounds: int = 3,
                  payload_bytes: int = 20_000) -> ExperimentSpec:
    """One point: a 20 Mbit/s city-latency deployment, one batch of
    payments per round carrying ``payload_bytes`` of notes."""
    config = SimulationConfig(
        num_users=num_users, seed=seed,
        network=NetworkConfig(bandwidth_bps=20e6, latency_model="city"))
    batch = (min(100, num_users), payload_bytes // 100)
    return ExperimentSpec("timeouts", config, rounds,
                          payments=(batch,) * rounds)


def measure_priority_gossip(num_users: int = 60, *,
                            seed: int = 0) -> float:
    """Seconds for a 200-byte priority message to reach all users.

    The paper measures ~1 s for 1 KB to 90% of Bitcoin's network and sets
    lambda_priority = 5 s; our WAN model should land in the same regime.
    """
    import numpy as np_local
    from repro.network.gossip import GossipNetwork
    from repro.network.latency import LatencyModel
    from repro.network.message import Envelope
    from repro.sim.loop import Environment

    env = Environment()
    rng = np_local.random.default_rng(seed)
    network = GossipNetwork(env, num_users, rng, LatencyModel(num_users, rng),
                            bandwidth_bps=20e6)
    network.interfaces[0].broadcast(
        Envelope(origin=b"measure", kind="priority", payload=None, size=200))
    env.run()
    return env.now
