#!/usr/bin/env python3
"""A tour of the library features beyond the core protocol.

Two capabilities built on top of the round pipeline:

1. **Passive observers** (§7) — zero-stake nodes that reach every
   agreement decision without ever being eligible to speak;
2. **Accountability** (§2's detect-and-punish) — the admission gate of
   every honest node catches the attackers' conflicting votes and block
   versions as they arrive, counts them, and blocks the offenders it
   scores past its threshold — each node on its own, as a live process
   does.

Run:  python examples/extensions_tour.py
"""

from __future__ import annotations

from repro import Simulation, SimulationConfig
from repro.chaos import figure8_adversary


def observers_demo() -> None:
    print("=" * 60)
    print("1. Passive observers (zero stake, full knowledge)")
    print("=" * 60)
    sim = Simulation(SimulationConfig(num_users=14, seed=101,
                                      num_observers=2))
    sim.submit_payments(20)
    sim.run_rounds(2)
    reference = sim.nodes[0].chain
    for observer in sim.observers:
        same = observer.chain.tip_hash == reference.tip_hash
        print(f"  observer {observer.index}: height "
              f"{observer.chain.height}, tip matches participants: {same}")
    print("  -> BA* keeps no secrets: watching the gossip is enough\n")


def accountability_demo() -> None:
    print("=" * 60)
    print("2. Detect-and-punish: equivocation caught at the gate")
    print("=" * 60)
    sim = Simulation(SimulationConfig(num_users=16, seed=103),
                     faults=figure8_adversary((13, 14, 15)))
    sim.run_rounds(1)
    outcome = sim.outcome()
    for index in range(13):
        caught = outcome.runs[index].counters.get(
            "admission.rejected.equivocation", 0)
        blocked = sorted(sim.nodes[index].admission.health.quarantined_until)
        print(f"  honest node {index:2d}: "
              f"admission.rejected.equivocation = {caught}, "
              f"blocks {blocked} at its own gate")


def main() -> None:
    observers_demo()
    accountability_demo()


if __name__ == "__main__":
    main()
