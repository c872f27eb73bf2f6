"""Misbehaving-users experiment (Figure 8).

The paper forces the highest-priority proposer to equivocate (one block
version to half its peers, another to the rest) while malicious committee
members vote for both versions, then sweeps the malicious stake fraction
from 0 to 20% and plots round latency. The result: "at least empirically
for this particular attack, Algorand is not significantly affected."

Here that adversary is fault data
(:func:`repro.chaos.scenario.figure8_adversary`): the highest user slots
run the ``equivocate`` and ``double-vote`` kinds for the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chaos.scenario import attacker_nodes, figure8_adversary
from repro.common.errors import NoSamplesError, SpecError
from repro.experiments.metrics import LatencySummary
from repro.experiments.spec import ExperimentSpec
from repro.node.config import SimulationConfig
from repro.node.deployment import RunOutcome

#: Malicious-stake fractions swept by Figure 8.
FIGURE8_FRACTIONS = [0.0, 0.05, 0.10, 0.15, 0.20]


@dataclass(frozen=True)
class AdversarialPoint:
    """One x-axis point of Figure 8."""

    malicious_fraction: float
    malicious_users: int
    summary: LatencySummary
    agreed: bool          # safety: one hash per round among honest nodes
    empty_rounds: int     # attack cost: rounds forced to the empty block


def measure_adversarial(outcome: RunOutcome,
                        spec: ExperimentSpec) -> AdversarialPoint:
    """Honest latency, agreement and empty rounds under ``spec.faults``
    (the victims a partition, delay, crash or DoS names are honest)."""
    attackers = attacker_nodes(spec.faults)
    honest = [run for index, run in outcome.runs.items()
              if index not in attackers]
    samples = []
    agreed = True
    empty_rounds = 0
    for round_number in range(1, spec.rounds + 1):
        blocks = [run.blocks[round_number - 1] for run in honest]
        agreed = agreed and len({block.block_hash for block in blocks}) == 1
        for run in honest:
            record = run.round_record(round_number)
            if record is not None:
                samples.append(record.duration)
        if blocks[0].is_empty:
            empty_rounds += 1
    try:
        summary = LatencySummary.from_samples(samples)
    except NoSamplesError:
        summary = LatencySummary.empty()
    return AdversarialPoint(
        malicious_fraction=len(attackers) / spec.config.num_users,
        malicious_users=len(attackers),
        summary=summary,
        agreed=agreed,
        empty_rounds=empty_rounds,
    )


def adversarial_spec(fraction: float, num_users: int, seed: int, *,
                     rounds: int = 2) -> ExperimentSpec:
    """One Figure 8 point: the highest ``fraction`` of the user slots run
    :func:`~repro.chaos.scenario.figure8_adversary` for the whole run."""
    if not 0 <= fraction < 1 / 3:
        raise SpecError(
            f"malicious fraction must be in [0, 1/3), got {fraction}")
    honest_users = num_users - round(fraction * num_users)
    return ExperimentSpec(
        "adversarial", SimulationConfig(num_users=num_users, seed=seed),
        rounds, payments=((num_users, 20),),
        faults=figure8_adversary(range(honest_users, num_users)))


def figure8_specs(fractions: list[float] | None = None, *,
                  num_users: int = 20,
                  seed: int = 0) -> list[ExperimentSpec]:
    """The Figure 8 grid as sweep-ready specs."""
    sweep = fractions if fractions is not None else FIGURE8_FRACTIONS
    return [adversarial_spec(f, num_users, seed + i)
            for i, f in enumerate(sweep)]
