#!/usr/bin/env python3
"""Quickstart: run a small Algorand deployment and confirm transactions.

Builds a 20-user network on the simulated WAN, injects payments, runs
three consensus rounds, and prints what every textbook figure of the
system shows: blocks agreed with *no forks*, in seconds, with final
(irreversible) consensus in the common case.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Simulation, SimulationConfig


def main() -> None:
    # 20 users, equal stake, deterministic seed. TEST_PARAMS scales the
    # paper's committee sizes down to this population (see Figure 4 and
    # repro/common/params.py).
    sim = Simulation(SimulationConfig(num_users=20, seed=7))

    # Everyone gossips some payments; proposers will pick them up.
    sim.submit_payments(count=60, note_bytes=32)

    # Run three rounds of block proposal + BA*.
    sim.run_rounds(3)

    print(f"simulated time: {sim.env.now:.1f} s")
    print(f"all 20 chains identical: {sim.all_chains_equal()}")
    print()
    node = sim.nodes[0]
    print("round  latency  kind       txs  block hash")
    for round_number in range(1, 4):
        record = node.metrics.round_record(round_number)
        block = node.chain.block_at(round_number)
        print(f"{round_number:>5}  {record.duration:>6.2f}s  "
              f"{record.kind:<9}  {len(block.transactions):>3}  "
              f"{block.block_hash.hex()[:16]}…")
    print()

    # Safety check the paper's way: one agreed hash per round, everywhere.
    outcome = sim.outcome()
    for round_number in range(1, 4):
        hashes = outcome.agreed_hashes(round_number)
        assert len(hashes) == 1, "fork detected!"
    print("no forks: every round has exactly one agreed block")

    # Money is conserved and identical on every replica.
    totals = {node.chain.state.total_weight for node in sim.nodes}
    print(f"total stake on every replica: {totals}")


if __name__ == "__main__":
    main()
