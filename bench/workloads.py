"""The benchmark's workload catalogue.

Each workload is one deployment shape of the two public harnesses
(``repro.Simulation`` / ``repro.live.cluster.LiveCluster``), chosen to
put a different set of layers on the critical path; ``bench/README.md``
carries the reasoning.  All four are closed-loop: payments are injected
at round boundaries, then a fixed number of rounds runs to completion.
``--seed`` is the only source of randomness (it becomes
``SimulationConfig.seed``).

This module is import-light on purpose: the driver reads names, sizes
and round counts from it without importing ``repro``; only a workload's
``config`` (called inside a worker process) does.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    substrate: str  # "sim" | "live"
    users: int
    smoke_users: int
    #: Reference-container host seconds per round and per deployment
    #: start-up; ``--seconds`` is turned into a round count with them,
    #: so the same ``--seconds`` always means the same inputs.
    round_cost_s: float
    #: ``(seed, users, runtime_dir) -> SimulationConfig``; imports ``repro``.
    config: Callable
    #: ``(rounds, users) -> batches``: ``batches[r]`` is the list of
    #: ``(count, note_bytes)`` injections made just before round ``r + 1``.
    payment_batches: Callable[[int, int], list[list[tuple[int, int]]]]
    fixed_cost_s: float = 0.0
    min_rounds: int = 2

    def rounds_for(self, seconds: float) -> int:
        budget = seconds - self.fixed_cost_s
        return max(self.min_rounds, int(budget / self.round_cost_s))

    def payments(self, rounds: int, users: int) -> int:
        return sum(count for batch in self.payment_batches(rounds, users)
                   for count, _ in batch)


# -- configs ----------------------------------------------------------------

def _sim_full(seed: int, users: int, _runtime_dir=None):
    from repro import SimulationConfig
    # Harness defaults are the workload: TEST_PARAMS, city WAN latency,
    # 20 Mbit/s uplinks, 4 peers, admission + damping + cache on.
    return SimulationConfig(num_users=users, seed=seed)


def _sim_agg(seed: int, users: int, _runtime_dir=None):
    from repro import PopulationConfig, SimulationConfig, TEST_PARAMS
    return SimulationConfig(
        num_users=users, seed=seed, params=TEST_PARAMS.scaled(0.25),
        population=PopulationConfig(mode="aggregated", always_on_core=16,
                                    steps_ahead=8))


BIGBLOCK_BYTES = 250_000
BIGBLOCK_BANDWIDTH_BPS = 12e6
BIGBLOCK_NOTE_BYTES = 6_000


def _sim_bigblock(seed: int, users: int, _runtime_dir=None):
    from repro import NetworkConfig, SimulationConfig, TEST_PARAMS
    per_hop = BIGBLOCK_BYTES * 8.0 / BIGBLOCK_BANDWIDTH_BPS
    params = dataclasses.replace(
        TEST_PARAMS, block_size=BIGBLOCK_BYTES,
        lambda_block=max(TEST_PARAMS.lambda_block, 40.0 * per_hop))
    return SimulationConfig(
        num_users=users, seed=seed, params=params,
        network=NetworkConfig(bandwidth_bps=BIGBLOCK_BANDWIDTH_BPS))


def _live_uds(seed: int, users: int, runtime_dir=None):
    from repro import SimulationConfig, SubstrateConfig
    from repro.live.cluster import LIVE_SMOKE_PARAMS
    return SimulationConfig(
        num_users=users, seed=seed, params=LIVE_SMOKE_PARAMS,
        initial_balance=40,
        substrate=SubstrateConfig(kind="live", transport="uds",
                                  runtime_dir=runtime_dir))


# -- payment plans ----------------------------------------------------------
# A TEST_PARAMS block (10 KB) holds 61 plain payments; round 1's block
# holds only what its proposer submitted itself, because nothing has
# gossiped yet when it is assembled.  Block assembly is one pass in
# arrival order, so a sim sender gets one payment per batch: two from
# the same sender can overtake each other on the WAN and cost a round.

def _pay_full(rounds: int, users: int):
    # One block's worth; a third round is there so the batch still
    # commits when round 2 falls back to the empty block.
    return [[(min(60, users), 0)]]


def _pay_none(rounds: int, users: int):
    return []


def _pay_bigblock(rounds: int, users: int):
    # One block's worth (40 x ~6 KB) before each round, leaving the last
    # two rounds to drain what was still in flight.
    return [[(users, BIGBLOCK_NOTE_BYTES)]
            for _ in range(max(1, rounds - 2))]


def _pay_live(rounds: int, users: int):
    # ~4/5 of the chain's capacity in one opening burst: most blocks are
    # full (61 tx) and a drain tail lets every payment commit.  Stream
    # sockets keep each sender's payments in order.
    return [[(20 + 48 * (rounds - 2), 0)]]


WORKLOADS = [
    Workload(
        name="sim_full_64", substrate="sim", users=64, smoke_users=20,
        round_cost_s=3.6, min_rounds=3,
        config=_sim_full, payment_batches=_pay_full,
        why="64 full agents, small blocks: host time is the vote flood "
            "through sim.loop, gossip, admission and damping"),
    Workload(
        name="sim_agg_10k", substrate="sim", users=10_000, smoke_users=200,
        round_cost_s=7.5, config=_sim_agg, payment_batches=_pay_none,
        why="10k accounts as an aggregated stake pool: adds pool screen, "
            "materialise/retire, ArrayState and batch priming"),
    Workload(
        name="sim_bigblock_40", substrate="sim", users=40, smoke_users=12,
        round_cost_s=1.8, min_rounds=5,
        config=_sim_bigblock, payment_batches=_pay_bigblock,
        why="250 KB blocks of 6 KB payments: same layers moving few "
            "large bulk-lane messages instead of many tiny votes"),
    Workload(
        name="live_uds_5", substrate="live", users=5, smoke_users=3,
        round_cost_s=0.55, fixed_cost_s=4.0,
        config=_live_uds, payment_batches=_pay_live,
        why="5 real node processes over Unix sockets: wire codec, socket "
            "transport, wall-clock timers and process start-up"),
]

BY_NAME = {workload.name: workload for workload in WORKLOADS}

#: ``--smoke`` runs every workload at ``smoke_users`` for this many rounds.
SMOKE_ROUNDS = 2
