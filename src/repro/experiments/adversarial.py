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

from repro.chaos.scenario import figure8_adversary
from repro.common.errors import NoSamplesError
from repro.common.params import TEST_PARAMS
from repro.experiments.harness import NetworkConfig, Simulation, SimulationConfig
from repro.experiments.metrics import LatencySummary
from repro.experiments.spec import AdversarialSpec, register_runner

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


@register_runner(AdversarialSpec.kind)
def run_spec(spec: AdversarialSpec) -> AdversarialPoint:
    """Deploy ``spec.fraction`` malicious stake; measure honest latency."""
    params = spec.params if spec.params is not None else TEST_PARAMS
    num_users, rounds = spec.num_users, spec.rounds
    malicious_users = round(spec.fraction * num_users)
    honest_users = num_users - malicious_users
    sim = Simulation(
        SimulationConfig(num_users=num_users, params=params, seed=spec.seed,
                         network=NetworkConfig(latency_model="city")),
        faults=figure8_adversary(range(honest_users, num_users)),
    )
    sim.submit_payments(num_users, note_bytes=20)
    sim.run_rounds(rounds)
    honest = sim.nodes[:honest_users]
    samples = []
    agreed = True
    empty_rounds = 0
    for round_number in range(1, rounds + 1):
        hashes = {node.chain.block_at(round_number).block_hash
                  for node in honest}
        agreed = agreed and len(hashes) == 1
        for node in honest:
            record = node.metrics.round_record(round_number)
            if record is not None:
                samples.append(record.duration)
        if honest[0].chain.block_at(round_number).is_empty:
            empty_rounds += 1
    try:
        summary = LatencySummary.from_samples(samples)
    except NoSamplesError:
        summary = LatencySummary.empty()
    return AdversarialPoint(
        malicious_fraction=spec.fraction,
        malicious_users=malicious_users,
        summary=summary,
        agreed=agreed,
        empty_rounds=empty_rounds,
    )


def figure8_specs(fractions: list[float] | None = None, *,
                  num_users: int = 20,
                  seed: int = 0) -> list[AdversarialSpec]:
    """The Figure 8 grid as sweep-ready specs."""
    sweep = fractions if fractions is not None else FIGURE8_FRACTIONS
    return [AdversarialSpec(fraction=f, num_users=num_users, seed=seed + i)
            for i, f in enumerate(sweep)]
