"""Tests for the pipelined final step (section 10.2 optimization)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.params import TEST_PARAMS
from repro.experiments.harness import Simulation, SimulationConfig

PIPELINED = dataclasses.replace(TEST_PARAMS, pipeline_final_step=True)


@pytest.fixture(scope="module")
def pipelined_sim():
    sim = Simulation(SimulationConfig(num_users=16, seed=61,
                                      params=PIPELINED))
    sim.submit_payments(30)
    sim.run_rounds(3)
    # Let outstanding final-vote counters finish.
    sim.env.run(until=sim.env.now + 2 * PIPELINED.lambda_step)
    return sim


class TestPipelinedRounds:
    def test_agreement_unchanged(self, pipelined_sim):
        sim = pipelined_sim
        assert sim.all_chains_equal()
        for round_number in (1, 2, 3):
            assert len(sim.outcome().agreed_hashes(round_number)) == 1

    def test_kinds_eventually_final(self, pipelined_sim):
        """The async final count still designates rounds final."""
        for node in pipelined_sim.nodes:
            for round_number in (1, 2, 3):
                record = node.metrics.round_record(round_number)
                assert record.kind == "final"

    def test_rounds_faster_than_unpipelined(self):
        def total_time(params, seed=61):
            sim = Simulation(SimulationConfig(num_users=16, seed=seed,
                                              params=params))
            sim.run_rounds(3)
            return sim.env.now

        # Same seed, same workload: pipelining saves roughly one final
        # count per round.
        assert total_time(PIPELINED) < total_time(TEST_PARAMS)

    def test_pipelined_run_commits_the_workload(self):
        """Pipelining is a latency optimization only: the submitted
        payments still commit (blocks are not identical across modes —
        proposal timestamps legitimately differ — but the work is)."""
        sim = Simulation(SimulationConfig(num_users=16, seed=62,
                                          params=PIPELINED))
        sim.submit_payments(20)
        sim.run_rounds(2)
        committed = sum(len(block.transactions)
                        for block in sim.nodes[0].chain.blocks[1:])
        assert committed >= 15
        assert sim.all_chains_equal()
