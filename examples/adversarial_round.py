#!/usr/bin/env python3
"""Running consensus under active attack (sections 8.4 and 10.4).

Two attacks from the paper, against one deployment each:

1. **Equivocation + double voting** (Figure 8's strategy): 20% of the
   stake proposes conflicting blocks and votes for both sides in every
   BA* step — the ``equivocate`` and ``double-vote`` fault kinds on the
   four highest user slots, for the whole run. Expected outcome: honest chains never diverge; latency
   barely moves.
2. **Targeted DoS on proposers** (section 8.4): the ``targeted-dos``
   fault kind knocks each user in its reach offline moments after it
   announces a priority, for the rest of the run. Expected outcome:
   rounds keep completing — by the time a proposer is identified, its
   job is done, and every later step uses fresh committee members
   (participant replacement).

Run:  python examples/adversarial_round.py
"""

from __future__ import annotations

from repro import Simulation, SimulationConfig
from repro.chaos import FaultAction, figure8_adversary


def equivocation_attack() -> None:
    print("=" * 60)
    print("Attack 1: equivocating proposers + double-voting committee")
    print("=" * 60)
    sim = Simulation(SimulationConfig(num_users=20, seed=5),
                     faults=figure8_adversary(range(16, 20)))
    sim.submit_payments(40, note_bytes=16)
    sim.run_rounds(3)

    honest = sim.nodes[:16]
    for round_number in range(1, 4):
        hashes = {node.chain.block_at(round_number).block_hash
                  for node in honest}
        record = honest[0].metrics.round_record(round_number)
        block = honest[0].chain.block_at(round_number)
        print(f"  round {round_number}: {len(hashes)} agreed hash(es), "
              f"{record.duration:5.1f}s, {record.kind}, "
              f"{'EMPTY' if block.is_empty else f'{len(block.transactions)} txs'}")
        assert len(hashes) == 1, "fork!"
    print("  -> 20% malicious stake: no forks, bounded slowdown\n")


def targeted_dos_attack() -> None:
    print("=" * 60)
    print("Attack 2: targeted DoS on revealed block proposers")
    print("=" * 60)
    # The attacker reaches six of the twenty users (under 1/3 of the
    # stake) and strikes each 1.5 s after it speaks, until t = 900.
    sim = Simulation(SimulationConfig(num_users=20, seed=6), faults=[
        FaultAction(kind="targeted-dos", start=0.0, end=900.0,
                    nodes=tuple(range(14, 20)), extra_delay=1.5)])
    sim.submit_payments(40, note_bytes=16)
    sim.run_rounds(3, time_limit=900)

    victims = sorted(index for index, holds in sim.injector.holds.items()
                     if holds)
    print(f"  proposers knocked offline: {victims}")
    outcome = sim.outcome()
    for round_number in range(1, 4):
        hashes = outcome.agreed_hashes(round_number)
        print(f"  round {round_number}: {len(hashes)} agreed hash(es)")
        assert len(hashes) == 1
    print("  -> every attacked proposer had already done its job; "
          "consensus unaffected")


def main() -> None:
    equivocation_attack()
    targeted_dos_attack()


if __name__ == "__main__":
    main()
