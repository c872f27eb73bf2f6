#!/usr/bin/env python3
"""Running consensus under active attack (sections 8.4 and 10.4).

Two attacks from the paper, against one deployment each:

1. **Equivocation + double voting** (Figure 8's strategy): 20% of the
   stake proposes conflicting blocks and votes for both sides in every
   BA* step — the ``equivocate`` and ``double-vote`` fault kinds on the
   four highest user slots, for the whole run. Expected outcome: honest chains never diverge; latency
   barely moves.
2. **Targeted DoS on proposers** (section 8.4): the adversary watches for
   priority announcements and knocks each proposer offline moments after
   it speaks. Expected outcome: rounds keep completing — by the time a
   proposer is identified, its job is done, and every later step uses
   fresh committee members (participant replacement).

Run:  python examples/adversarial_round.py
"""

from __future__ import annotations

from repro import Simulation, SimulationConfig
from repro.adversary import FilterChain, TargetedDoS
from repro.chaos import figure8_adversary


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
    sim = Simulation(SimulationConfig(num_users=20, seed=6))
    controls = FilterChain(sim.network)
    dos = TargetedDoS(controls, sim.env, reaction_time=1.5,
                      restore_after=60.0)
    sim.submit_payments(40, note_bytes=16)
    sim.run_rounds(3, time_limit=900)

    print(f"  proposers knocked offline: {sorted(set(dos.victims))}")
    for round_number in range(1, 4):
        hashes = sim.agreed_hashes(round_number)
        print(f"  round {round_number}: {len(hashes)} agreed hash(es)")
        assert len(hashes) == 1
    print("  -> every attacked proposer had already done its job; "
          "consensus unaffected")


def main() -> None:
    equivocation_attack()
    targeted_dos_attack()


if __name__ == "__main__":
    main()
