"""The population: an everyone-on core, and a small one with dormancy.

Two bars, matching the two things a core size can change:

* **Byte-identical** — with the always-on core covering the whole
  population there is no dormant stake, and the run must commit exactly
  the chains the per-user harness loop with its dict ledger committed
  before ``Population`` built every deployment: the ``(chain_hash,
  events_processed)`` goldens below were recorded there, under
  ``mode="full"``. They pin the representation (ArrayState, shared
  snapshots, batch verify priming) as semantics-free.
* **Protocol-outcome identical** — with a small core and real dormancy
  (materialize-on-selection, retire-after-round), commit *times* may
  shift with the thinner relay fabric, but the proposer sequence and
  seed chain are VRF-determined and must match the everyone-on run
  exactly.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baplus.buffer import VoteBuffer
from repro.common.errors import PopulationError
from repro.common.params import TEST_PARAMS
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import PopulationConfig
from repro.ledger.arraystate import ArrayWeights
from repro.ledger.block import Block
from repro.ledger.transaction import make_transaction
from repro.network.gossip import accept_and_relay
from repro.node.agent import Node
from repro.node.catchup import ChainSync, build_announcement, replay_chain
from repro.node.deployment import fold_snapshots
from repro.runtime.admission import AdmissionControl
from repro.runtime.damping import RelayDamper

from tests.fixtures import (
    chain_hash,
    events_of,
    run_sim,
    run_traced,
    sent_bytes,
)
from tests.reference_ledger import AccountState


def aggregated(**knobs) -> PopulationConfig:
    return PopulationConfig(mode="aggregated", **knobs)


#: ``(num_users, rounds) -> (payments, (chain_hash, events_processed))``
#: at seed 11, recorded under ``mode="full"`` at the last commit that
#: had a second way to build it.
COVERING_CORE_GOLDEN = {
    (20, 3): (20, (
        "fc0d971c67b0a19e64aa024cc043d7cb5fb212073c31e85e02f0bbdde84ccf22",
        34_554)),
    (50, 2): (50, (
        "37e22c81675a0ab839e05f5c797f67fd4f48651ef199e3fbd93a998f195748f2",
        107_491)),
    (100, 2): (50, (
        "15cc32d590f11bc573b4d32c62e1579b702c258a0938e7a2de2cd1e72d2f3adb",
        267_056)),
}


def assert_covering_core(sim: Simulation, golden: tuple[str, int]) -> None:
    """``sim`` (core == population) committed the recorded run."""
    assert (chain_hash(sim), sim.env.events_processed) == golden
    # no dormant stake -> the pool pass never ran, nobody came or went
    assert sim.summary()["sortition.pool_evaluations"] == 0
    stats = sim.population.stats()
    assert stats["retired_total"] == 0
    assert stats["materialized_total"] == sim.config.num_users


class TestRepresentationEquivalence:
    """Aggregated with core == population: byte-identical to full."""

    @pytest.mark.parametrize("n,rounds", [(20, 3), (50, 2)])
    def test_chains_and_round_records_identical(self, n, rounds):
        payments, golden = COVERING_CORE_GOLDEN[n, rounds]
        agg = run_sim(rounds, payments=payments, num_users=n, seed=11,
                      population=aggregated(always_on_core=n))
        assert_covering_core(agg, golden)

    @pytest.mark.slow
    def test_chains_identical_at_100_users(self):
        payments, golden = COVERING_CORE_GOLDEN[100, 2]
        agg = run_sim(2, payments=payments, num_users=100, seed=11,
                      population=aggregated(always_on_core=100))
        assert_covering_core(agg, golden)


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
        assert agg.summary()["sortition.pool_evaluations"] > 0

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

    def test_a_second_run_rounds_materializes_the_skipped_boundary(self):
        # The first call's target skips round 2's boundary pass at round
        # 1's commit; the second call must run it, or round 2's
        # committees stay dormant and the core halts at MaxSteps.
        sim = Simulation(SimulationConfig(
            num_users=200, seed=1, params=TEST_PARAMS.scaled(0.25),
            population=aggregated(always_on_core=16, steps_ahead=8)))
        sim.run_rounds(1)
        sim.run_rounds(2)
        assert [node.chain.height for node in sim.nodes] == [2] * 16
        assert sim.all_chains_equal()

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


class TestCountersOutliveAgents:
    """A retired agent is garbage, but what it counted is not lost: the
    harness's totals cover every agent the population ever built, folded
    by the one rule (counts sum, peaks take the max)."""

    def test_totals_cover_every_agent_ever_built(self, monkeypatch):
        built: dict[type, list] = {AdmissionControl: [], RelayDamper: [],
                                   VoteBuffer: []}
        for cls, instances in built.items():
            def record(self, *args, _init=cls.__init__, _into=instances,
                       **kwargs):
                _init(self, *args, **kwargs)
                _into.append(self)
            monkeypatch.setattr(cls, "__init__", record)
        sim = run_sim(2, population=aggregated(always_on_core=8,
                                               steps_ahead=6),
                      **DORMANCY_CFG)
        admissions, dampers = built[AdmissionControl], built[RelayDamper]
        buffers = built[VoteBuffer]
        stats = sim.population.stats()
        assert stats["retired_total"] > 0
        assert (len(admissions) == len(dampers) == len(buffers)
                == stats["materialized_total"])
        summary = sim.summary()
        admitted = sum(admission.admitted for admission in admissions)
        rejected: Counter = Counter()
        for admission in admissions:
            rejected.update(admission.rejected)
        assert summary["admission.admitted"] == admitted
        assert {name[len("admission.rejected."):]: value
                for name, value in summary.items()
                if name.startswith("admission.rejected.")} == dict(rejected)
        assert summary["admission.buffer_evicted"] == sum(
            buffer.evicted for buffer in buffers)
        assert summary["admission.buffer_high_water"] == max(
            buffer.high_water for buffer in buffers)
        assert summary["damping.suppressed"] == sum(
            damper.suppressed for damper in dampers)
        assert summary["damping.observed"] == sum(
            damper.observed for damper in dampers)
        # The always-on core alone undercounts.
        assert admitted > sum(node.admission.admitted for node in sim.nodes)

    def test_node_snapshots_fold_by_the_same_rule(self):
        one = {"counters": {"crypto.verifies": 3, "admission.admitted": 5},
               "gauges": {"admission.buffer_high_water": 7,
                          "live.max_lag_s": 0.5, "simloop.now": 2.0,
                          "live.wire_bytes_sent": 100}}
        two = {"counters": {"crypto.verifies": 4, "router.unknown_kind": 1},
               "gauges": {"admission.buffer_high_water": 4,
                          "live.max_lag_s": 0.25, "simloop.now": 3.0,
                          "live.wire_bytes_sent": 50}}
        assert fold_snapshots([one, two]) == {
            "counters": {"admission.admitted": 5, "crypto.verifies": 7,
                         "router.unknown_kind": 1},
            "gauges": {"admission.buffer_high_water": 7,
                       "live.max_lag_s": 0.5,
                       "live.wire_bytes_sent": 150, "simloop.now": 3.0}}


class TestValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(PopulationError):
            SimulationConfig(
                population=PopulationConfig(mode="sharded")).validate()

    def test_aggregated_has_no_observers(self):
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
#: 3 rounds, 40 payments, ``mode="full"`` — recorded like the above.
PAYING_FULL_GOLDEN = (
    "2140797703d3e449c64d422312119f4e2a6cdbc0815d321e17365e0fb86066f7",
    174_653)


class TestPaymentsUnderSharing:
    """What the bench workload never runs: shared buffers, then payments."""

    def test_full_core_stays_byte_identical(self):
        agg = run_sim(3, payments=40,
                      population=aggregated(always_on_core=200),
                      **PAYING_CFG)
        assert agg.nodes[0].chain.block_at(2).transactions
        assert_covering_core(agg, PAYING_FULL_GOLDEN)

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
                   for event in events_of(bus, "population_boundary"))
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


class TestCatchUpKeepsTheIndex:
    """A chain adopted by catch-up is array-backed on the deployment's
    index, so the pool reads it like any replica."""

    @pytest.fixture
    def sim(self):
        # One deployment per path: the catch-ups a path attaches stay.
        return run_sim(3, payments=40, population=aggregated(
            always_on_core=16, steps_ahead=8), **PAYING_CFG)

    def _lagging(self, sim: Simulation) -> Node:
        """Core node 1, rolled back to height 1."""
        node = sim.nodes[1]
        node.chain = node.chain.fork_from(node.chain.blocks[1:2])
        return node

    @pytest.mark.parametrize("path", ["announcement", "peers", "replay"])
    def test_adopted_chain_answers_the_pool(self, sim, path):
        population = sim.population
        helper = sim.nodes[0].chain
        untouched = helper.replica()
        assert helper.block_at(2).transactions
        node = self._lagging(sim)
        if path == "announcement":
            sync = ChainSync(node)
            assert sync._on_announcement(build_announcement(helper))
        elif path == "peers":
            for each in sim.nodes:
                ChainSync(each)
            node.catchup.request()
            sim.env.run(until=sim.env.now + 5.0)
        else:
            node.catchup = SimpleNamespace(take_pending=lambda: replay_chain(
                helper.blocks[1:],
                {r: helper.certificate_at(r)
                 for r in range(1, helper.height + 1)},
                initial_balances=node.chain.initial_balances,
                genesis_seed=node.chain.genesis_seed,
                params=node.params, backend=node.backend,
                index=node.chain.index))
        assert node._try_catch_up()
        adopted = node.chain
        assert adopted.height == 3 and adopted.tip_hash == helper.tip_hash
        assert adopted.index is population.index
        assert adopted.initial_balances == helper.initial_balances
        for r in range(4):
            weights = adopted.weights_at(r)
            assert isinstance(weights, ArrayWeights)
            assert weights._index is population.index
            assert np.array_equal(weights.array[:200],
                                  helper.weights_at(r).array[:200])
        assert (population.select_round(4, adopted)
                == population.select_round(4, untouched))


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
            assert iface.on_receive is accept_and_relay

    def test_a_dormant_account_has_no_interface(self, sim):
        built = [iface for iface in sim.network.interfaces
                 if iface is not None]
        assert len(built) <= sim.population.stats()["materialized_total"]
        per_node = sent_bytes(sim.network)
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
