"""Ablations of the design choices DESIGN.md calls out.

Each ablation removes (or weakens) one mechanism and checks the shape of
what the paper says that mechanism buys:

* **priority-based proposal filtering** (section 6) — without discarding
  non-highest-priority blocks, every proposer's block floods the network
  and proposal bandwidth multiplies;
* **committee-size safety margin** (section 7.5 / Figure 3) — an
  undersized committee makes step quorums routinely fail, but never
  costs safety;
* **seed refresh interval R** (section 5.2) — R controls how often the
  sortition seed moves; R=1 re-keys committees every round;
* **the common coin** (section 7.4) — without it an adversary who knows
  the deterministic timeout votes can keep honest users split forever;
  with it each 3-step loop ends the split with probability >= h/2.
"""

from __future__ import annotations

import dataclasses

from repro.common.params import PAPER_PARAMS, TEST_PARAMS
from repro.experiments.harness import (
    NetworkConfig,
    Simulation,
    SimulationConfig,
)


def _gossiped_bytes(*, promiscuous: bool) -> int:
    sim = Simulation(SimulationConfig(
        num_users=24, seed=900,
        network=NetworkConfig(bandwidth_bps=None, latency_model="uniform",
                              uniform_latency=0.02)))
    if promiscuous:
        for node in sim.nodes:
            def relay_every_block(block, node=node) -> bool:
                if block.round_number >= node.chain.next_round:
                    node._tracker(block.round_number).observe_block(
                        block, node.env)
                    return True
                return False
            node.router.register("block", relay_every_block, replace=True)
    sim.submit_payments(48, note_bytes=150)
    sim.run_rounds(1)
    return sim.network.total_bytes_sent


def test_priority_filtering_saves_proposal_bandwidth():
    assert (_gossiped_bytes(promiscuous=True)
            > _gossiped_bytes(promiscuous=False))


def test_committee_margin_buys_liveness_not_safety():
    """tau_step with a ~3.6 sigma quorum margin vs a ~0 sigma one: both
    agree on every round; the analytic stall probability differs by
    orders of magnitude (what Figure 3's sizing buys)."""
    from repro.analysis.committee import violation_probability

    undersized = dataclasses.replace(TEST_PARAMS, tau_step=20, tau_final=30)
    for params in (TEST_PARAMS, undersized):
        sim = Simulation(SimulationConfig(num_users=20, seed=901,
                                          params=params))
        sim.run_rounds(4)
        assert all(len(sim.agreed_hashes(r)) == 1 for r in range(1, 5))
    assert (violation_probability(20, TEST_PARAMS.t_step, 1.0)
            > 50 * violation_probability(80, TEST_PARAMS.t_step, 1.0))


def test_seed_refresh_interval():
    """R=1 refreshes the selection seed every round; a large R reuses it."""
    distinct = {}
    for refresh in (1, 1000):
        params = dataclasses.replace(TEST_PARAMS,
                                     seed_refresh_interval=refresh)
        sim = Simulation(SimulationConfig(num_users=16, seed=902,
                                          params=params))
        sim.run_rounds(3)
        chain = sim.nodes[0].chain
        distinct[refresh] = len({chain.selection_seed(r) for r in (1, 2, 3)})
    assert distinct == {1: 3, 1000: 1}


def test_common_coin_ends_the_split_attack():
    """Without the coin the section 7.4 split attack survives every loop
    (BinaryBA* runs to MaxSteps); with it, surviving all MaxSteps / 3
    coin flips is negligible."""
    loops = PAPER_PARAMS.max_steps // 3
    assert (1 - PAPER_PARAMS.honest_fraction / 2) ** loops < 1e-9
