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

import pytest

from repro.common.errors import PopulationError
from repro.common.params import TEST_PARAMS
from repro.experiments.harness import PopulationConfig, SimulationConfig

from tests.fixtures import (
    assert_chains_byte_identical as assert_byte_identical,
    run_sim,
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

