"""Ablations of the design choices DESIGN.md calls out.

Each ablation removes (or weakens) one mechanism and measures what the
paper says that mechanism buys:

* **priority-based proposal filtering** (section 6) — without discarding
  non-highest-priority blocks, every proposer's block floods the network
  and proposal bandwidth multiplies;
* **committee-size safety margin** (section 7.5 / Figure 3) — an
  undersized committee makes step quorums routinely fail, so rounds burn
  timeout after timeout;
* **seed refresh interval R** (section 5.2) — R controls how often the
  sortition seed moves; R=1 re-keys committees every round;
* **the common coin** (section 7.4) — without it an adversary who knows
  the deterministic timeout votes can keep honest users split forever;
  with it each 3-step loop ends the split with probability >= h/2.
"""

from __future__ import annotations

import dataclasses
import math

from conftest import print_table

from repro.common.params import TEST_PARAMS
from repro.experiments.harness import (
    NetworkConfig,
    Simulation,
    SimulationConfig,
)
from repro.experiments.metrics import format_table
from repro.node.agent import Node


class PromiscuousNode(Node):
    """Ablation: relays every proposed block (no priority filtering)."""

    def _handle_block(self, block) -> bool:
        if block.round_number < self.chain.next_round:
            return False
        tracker = self._tracker(block.round_number)
        tracker.observe_block(block, self.env)
        return True  # relay unconditionally


def _proposal_bytes(node_class):
    sim = Simulation(SimulationConfig(
        num_users=24, seed=900,
        network=NetworkConfig(bandwidth_bps=None, latency_model="uniform",
                              uniform_latency=0.02)),
        node_class=node_class)
    sim.submit_payments(48, note_bytes=150)
    sim.run_rounds(1)
    block_bytes = sum(
        iface.bytes_sent for iface in sim.network.interfaces)
    return block_bytes


def test_ablation_priority_filtering(benchmark):
    def run():
        return _proposal_bytes(Node), _proposal_bytes(PromiscuousNode)

    filtered, promiscuous = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: priority-based block filtering",
        format_table(["variant", "total bytes gossiped"],
                     [["filtered (paper)", filtered],
                      ["promiscuous", promiscuous]]))
    assert promiscuous > filtered


def test_ablation_committee_margin(benchmark):
    """tau_step with a ~3.6 sigma quorum margin vs a ~0 sigma one.

    An undersized committee leaves quorum failures common (steps time
    out, rounds slow down, finality is missed); the analytic violation
    probability quantifies it deterministically, and a short simulation
    shows both variants still *agree* — the margin buys liveness, never
    safety.
    """
    from repro.analysis.committee import violation_probability

    small = dataclasses.replace(TEST_PARAMS, tau_step=20, tau_final=30)

    def run():
        measured = {}
        for name, params in (("margined", TEST_PARAMS), ("undersized",
                                                         small)):
            sim = Simulation(SimulationConfig(
                num_users=20, seed=901, params=params))
            sim.run_rounds(4)
            total = sum(max(sim.round_latencies(r)) for r in range(1, 5))
            agreed = all(len(sim.agreed_hashes(r)) == 1
                         for r in range(1, 5))
            measured[name] = (total, agreed)
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    p_small = violation_probability(20, TEST_PARAMS.t_step, 1.0)
    p_large = violation_probability(80, TEST_PARAMS.t_step, 1.0)
    rows = [
        ["margined (tau=80)", f"{measured['margined'][0]:.1f} s",
         measured["margined"][1], f"{p_large:.1e}"],
        ["undersized (tau=20)", f"{measured['undersized'][0]:.1f} s",
         measured["undersized"][1], f"{p_small:.1e}"],
    ]
    print_table("Ablation: committee-size quorum margin",
                format_table(["variant", "4-round latency", "agreed",
                              "P[step stalls]"], rows))
    # Safety holds for both; the stall probability differs by orders of
    # magnitude (this is what Figure 3's sizing buys).
    assert measured["margined"][1] and measured["undersized"][1]
    assert p_small > 50 * p_large


def test_ablation_seed_refresh(benchmark):
    """R=1 refreshes the selection seed every round; a large R reuses it."""
    def run():
        seeds = {}
        for refresh in (1, 1000):
            params = dataclasses.replace(TEST_PARAMS,
                                         seed_refresh_interval=refresh)
            sim = Simulation(SimulationConfig(
                num_users=16, seed=902, params=params))
            sim.run_rounds(3)
            chain = sim.nodes[0].chain
            seeds[refresh] = [chain.selection_seed(r) for r in (1, 2, 3)]
        return seeds

    seeds = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[refresh, len(set(values))]
            for refresh, values in seeds.items()]
    print_table("Ablation: seed refresh interval R (distinct selection "
                "seeds over 3 rounds)",
                format_table(["R", "distinct seeds"], rows))
    assert len(set(seeds[1000])) == 1       # seed reused within R window
    assert len(set(seeds[1])) == 3          # fresh committees every round


def test_ablation_common_coin_analytic(benchmark):
    """Expected extra steps with vs without the common coin.

    Without the coin, the section 7.4 split attack succeeds in every
    3-step loop: the adversary always knows the deterministic timeout
    vote and re-splits the honest users — BinaryBA* runs to MaxSteps.
    With the coin, each loop ends the split with probability >= h/2, so
    the chance of surviving all MaxSteps/3 loops is negligible.
    """
    def run():
        from repro.common.params import PAPER_PARAMS
        h = PAPER_PARAMS.honest_fraction
        loops = PAPER_PARAMS.max_steps // 3  # 50 coin flips before halt
        p_survive_with_coin = (1 - h / 2) ** loops
        return loops, p_survive_with_coin

    loops, p_survive = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: common coin (split-attack survival probability)",
        format_table(
            ["variant", f"P[attack survives {loops} loops]"],
            [["with coin", f"{p_survive:.2e}"],
             ["without coin", "1.0 (deterministic re-split)"]]))
    assert p_survive < 1e-9
    assert math.isfinite(p_survive)
