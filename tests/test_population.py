"""Aggregated population vs. the classic full-agent harness.

Two bars, matching the representation's two levers:

* **Byte-identical** — with the always-on core covering the whole
  population there is no dormant stake, and the aggregated run must
  commit exactly the chains the full harness commits: same block
  dataclasses (timestamps included), same round records. This pins the
  representation changes (ArrayState, shared snapshots, batch verify
  priming) as semantics-free.
* **Protocol-outcome identical** — with a small core and real dormancy
  (materialize-on-selection, retire-after-round), commit *times* may
  shift with the thinner relay fabric, but the proposer sequence and
  seed chain are VRF-determined and must match the full run exactly.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.common.errors import PopulationError
from repro.common.params import TEST_PARAMS
from repro.experiments.harness import (
    PopulationConfig,
    Simulation,
    SimulationConfig,
)
from repro.ledger.account import AccountState
from repro.ledger.block import Block
from repro.ledger.transaction import make_transaction
from repro.node.agent import Node

from tests.fixtures import (
    assert_chains_byte_identical as assert_byte_identical,
    run_sim,
    run_traced,
)


def aggregated(**knobs) -> PopulationConfig:
    return PopulationConfig(mode="aggregated", **knobs)


class TestRepresentationEquivalence:
    """Aggregated with core == population: byte-identical to full."""

    @pytest.mark.parametrize("n,rounds", [(20, 3), (50, 2)])
    def test_chains_and_round_records_identical(self, n, rounds):
        full = run_sim(rounds, payments=n, num_users=n, seed=11)
        agg = run_sim(rounds, payments=n, num_users=n, seed=11,
                      population=aggregated(always_on_core=n))
        assert_byte_identical(full, agg, rounds)
        # no dormant stake -> the pool pass never ran
        assert agg.summary()["sortition"]["pool_evaluations"] == 0
        assert agg.population.stats()["retired_total"] == 0

    @pytest.mark.slow
    def test_chains_identical_at_100_users(self):
        full = run_sim(2, payments=50, num_users=100, seed=11)
        agg = run_sim(2, payments=50, num_users=100, seed=11,
                      population=aggregated(always_on_core=100))
        assert_byte_identical(full, agg, 2)


DORMANCY_CFG = dict(num_users=150, initial_balance=1,
                    params=TEST_PARAMS.scaled(0.1), seed=2)


class TestDormancy:
    """Small core, real materialization/retirement churn."""

    @pytest.fixture(scope="class")
    def pair(self):
        agg = run_sim(2, population=aggregated(always_on_core=8,
                                               steps_ahead=6),
                      **DORMANCY_CFG)
        full = run_sim(2, **DORMANCY_CFG)
        return full, agg

    def test_lifecycle_actually_churns(self, pair):
        _, agg = pair
        stats = agg.population.stats()
        assert stats["retired_total"] > 0
        assert stats["live"] < stats["accounts"]
        assert stats["materialized_total"] > stats["core"]
        assert agg.summary()["sortition"]["pool_evaluations"] > 0

    def test_protocol_outcomes_match_full_run(self, pair):
        full, agg = pair
        chain_full = full.nodes[0].chain
        chain_agg = agg.nodes[0].chain
        for r in (1, 2):
            block_full = chain_full.block_at(r)
            block_agg = chain_agg.block_at(r)
            assert block_agg.proposer == block_full.proposer
            assert block_agg.seed == block_full.seed
            assert block_agg.transactions == block_full.transactions
        for r in (1, 2, 3):
            assert (chain_agg.selection_seed(r)
                    == chain_full.selection_seed(r))

    def test_core_agrees_internally(self, pair):
        _, agg = pair
        assert agg.all_chains_equal()
        for node in agg.nodes:
            assert not node.halted

    def test_transients_run_with_admission_attached(self, pair):
        _, agg = pair
        for slot, node in agg.population.live.items():
            if slot not in set(agg.population.core):
                assert node.admission is not None

    @pytest.mark.slow
    def test_deep_round_stall_is_loud_and_steps_ahead_fixes_it(self):
        # Seed 1 contains a round that runs deeper than the default
        # covered steps with these tiny committees; the dormant
        # later-step committees then starve the round. The harness must
        # refuse to return a silently short chain.
        cfg = dict(num_users=300, initial_balance=1,
                   params=TEST_PARAMS.scaled(0.1), seed=1)
        with pytest.raises(TimeoutError, match="steps_ahead"):
            run_sim(3, population=aggregated(always_on_core=8), **cfg)
        deep = run_sim(3, population=aggregated(always_on_core=8,
                                                steps_ahead=12), **cfg)
        assert deep.nodes[0].chain.height == 3


class TestValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(PopulationError):
            SimulationConfig(
                population=PopulationConfig(mode="sharded")).validate()

    def test_aggregated_is_honest_only(self):
        with pytest.raises(PopulationError):
            SimulationConfig(population=aggregated(),
                             num_malicious=1).validate()
        with pytest.raises(PopulationError):
            SimulationConfig(population=aggregated(),
                             num_observers=1).validate()

    def test_aggregated_bounds(self):
        with pytest.raises(PopulationError):
            SimulationConfig(
                population=aggregated(always_on_core=0)).validate()
        with pytest.raises(PopulationError):
            SimulationConfig(
                population=aggregated(steps_ahead=0)).validate()


PAYING_CFG = dict(num_users=200, seed=2, params=TEST_PARAMS.scaled(0.1))


class TestPaymentsUnderSharing:
    """What the bench workload never runs: shared buffers, then payments."""

    def test_full_core_stays_byte_identical(self):
        full = run_sim(3, payments=40, **PAYING_CFG)
        agg = run_sim(3, payments=40,
                      population=aggregated(always_on_core=200),
                      **PAYING_CFG)
        assert full.nodes[0].chain.block_at(2).transactions
        assert_byte_identical(full, agg, 3)

    def test_replicas_cloned_after_a_paying_block(self):
        agg, bus = run_traced(
            3, payments=40, population=aggregated(always_on_core=16,
                                                  steps_ahead=8),
            **PAYING_CFG)
        assert agg.all_chains_equal()
        core = agg.nodes[0].chain
        # Blocks 2 and 3 pay: round 3's fresh transients were cloned
        # after the first and then committed the second themselves.
        assert core.block_at(2).transactions
        assert core.block_at(3).transactions
        assert any(event["round"] == 3 and event["fresh"] > 0
                   for event in bus.events_of_kind("population_boundary"))
        oracle = AccountState(core.initial_balances)
        expected = [dict(oracle.weights())]
        for r in (1, 2, 3):
            oracle.apply_all(core.block_at(r).transactions)
            expected.append(dict(oracle.weights()))
        assert expected[1] != expected[2] != expected[3]
        transient_heights = set()
        for slot, node in agg.population.live.items():
            # (a transient may still be mid-round when the core is done)
            if slot >= len(agg.population.core):
                transient_heights.add(node.chain.height)
            for r in range(node.chain.height + 1):
                assert dict(node.chain.weights_at(r)) == expected[r]
        assert 3 in transient_heights

        # A replica answers from the very same snapshots; what it
        # commits afterwards moves only itself.
        replica = core.replica()
        for r in range(4):
            assert replica.weights_at(r) is core.weights_at(r)
        payer, payee = agg.nodes[0].keypair, agg.nodes[1].keypair
        tx = make_transaction(
            agg.backend, payer.secret, payer.public, payee.public, 1,
            replica.state.next_nonce(payer.public))
        replica.append(Block(round_number=4, prev_hash=replica.tip_hash,
                             timestamp=99.0, transactions=(tx,)))
        assert (replica.weights_at(4)[payee.public]
                == expected[3][payee.public] + 1)
        assert core.state.balance(payee.public) == expected[3][payee.public]
        for r, table in enumerate(expected):
            assert dict(core.weights_at(r)) == table
            assert replica.weights_at(r) is core.weights_at(r)


def _distinct_buffers(arrays) -> int:
    """How many separate memory blocks ``arrays`` occupy."""
    blocks: list = []
    for array in arrays:
        if not any(np.shares_memory(array, block) for block in blocks):
            blocks.append(array)
    return len(blocks)


class TestFootprint:
    """Memory follows the committee: what retirement and dormancy free."""

    @pytest.fixture(scope="class")
    def sim(self):
        return run_sim(2, num_users=2000, seed=20,
                       params=TEST_PARAMS.scaled(0.25),
                       population=aggregated(always_on_core=16,
                                             steps_ahead=8))

    def test_a_retired_agent_is_garbage(self, sim):
        population = sim.population
        assert population.stats()["retired_total"] > 0
        gc.collect()
        alive = [o for o in gc.get_objects()
                 if isinstance(o, Node) and o.env is sim.env]
        assert len(alive) == len(population.live)
        assert {id(node) for node in alive} == {
            id(node) for node in population.live.values()}
        retired = [iface for iface in sim.network.interfaces
                   if iface is not None
                   and iface.index not in population.live]
        assert len(retired) > 0
        for iface in retired:
            assert iface.ingress is None
            assert not hasattr(iface.relay_policy, "__self__")

    def test_a_dormant_account_has_no_interface(self, sim):
        built = [iface for iface in sim.network.interfaces
                 if iface is not None]
        assert len(built) <= sim.population.stats()["materialized_total"]
        per_node = sim.network.bytes_sent_per_node()
        assert len(per_node) == 2000
        assert sum(per_node) == sim.network.total_bytes_sent > 0

    def test_live_chains_share_one_balance_buffer(self, sim):
        # No payment was committed: every state and every snapshot of
        # every live chain reads the genesis buffer.
        arrays = []
        for node in sim.population.live.values():
            chain = node.chain
            assert not any(chain.block_at(r).transactions
                           for r in range(1, chain.height + 1))
            arrays.append(chain.state.weights().array)
            arrays.extend(chain.weights_at(r).array
                          for r in range(chain.height + 1))
        assert _distinct_buffers(arrays) <= 2

    def test_dormant_accounts_cost_the_network_bytes_not_kilobytes(self):
        config = SimulationConfig(
            num_users=10_000, seed=20, params=TEST_PARAMS.scaled(0.25),
            population=aggregated(always_on_core=16, steps_ahead=8))
        tracemalloc.start()
        try:
            sim = Simulation(config)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        gossip = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*/network/gossip.py")])
        held = sum(stat.size for stat in gossip.statistics("filename"))
        dormant = 10_000 - len(sim.population.live)
        assert held / dormant <= 400
