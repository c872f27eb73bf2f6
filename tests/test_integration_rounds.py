"""Integration tests: full deployments running multiple rounds.

These exercise the whole stack — sortition, proposal, gossip (with real
latency and bandwidth), BA*, certificates, chain growth — and check the
paper's safety and liveness goals at small scale.
"""

from __future__ import annotations

import pytest

from repro.baplus.certificate import verify_certificate
from repro.baplus.context import BAContext
from repro.baplus.protocol import FINAL
from repro.common.params import TEST_PARAMS
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import NetworkConfig


@pytest.fixture(scope="module")
def three_round_sim():
    """One shared 20-user, 3-round run (module-scoped: it is the
    expensive fixture that many read-only assertions share)."""
    sim = Simulation(SimulationConfig(num_users=20, seed=42))
    sim.submit_payments(40, note_bytes=20)
    sim.run_rounds(3)
    return sim


class TestSafety:
    def test_no_forks(self, three_round_sim):
        sim = three_round_sim
        for round_number in (1, 2, 3):
            assert len(sim.outcome().agreed_hashes(round_number)) == 1

    def test_all_chains_identical(self, three_round_sim):
        assert three_round_sim.all_chains_equal()

    def test_money_conserved_everywhere(self, three_round_sim):
        sim = three_round_sim
        expected = 20 * sim.config.initial_balance
        for node in sim.nodes:
            assert node.chain.state.total_weight == expected

    def test_balances_agree_across_nodes(self, three_round_sim):
        sim = three_round_sim
        reference = sim.nodes[0].chain.state.weights()
        for node in sim.nodes[1:]:
            assert node.chain.state.weights() == reference


class TestLiveness:
    def test_all_rounds_completed(self, three_round_sim):
        for node in three_round_sim.nodes:
            assert node.chain.height == 3
            assert not node.halted

    def test_transactions_committed(self, three_round_sim):
        sim = three_round_sim
        committed = sum(
            len(block.transactions)
            for block in sim.nodes[0].chain.blocks[1:]
        )
        assert committed >= 30

    def test_rounds_fast_in_common_case(self, three_round_sim):
        """Strong synchrony + honest proposer: rounds complete within a
        couple of lambda_step (well under the timeout budget)."""
        sim = three_round_sim
        for round_number in (2, 3):
            for latency in sim.outcome().round_latencies(round_number):
                assert latency < (TEST_PARAMS.lambda_priority
                                  + TEST_PARAMS.lambda_stepvar
                                  + 3 * TEST_PARAMS.lambda_step)

    def test_final_consensus_in_common_case(self, three_round_sim):
        sim = three_round_sim
        for node in sim.nodes:
            for round_number in (1, 2, 3):
                assert node.metrics.round_record(round_number).kind == FINAL


class TestCertificates:
    def test_every_round_has_verifiable_certificate(self, three_round_sim):
        sim = three_round_sim
        node = sim.nodes[0]
        # Rebuild contexts in order (as a bootstrapping user would) and
        # verify each round's certificate against them.
        from repro.ledger.blockchain import Blockchain
        replay = Blockchain(
            {kp.public: sim.config.initial_balance for kp in sim.keypairs},
            sim.genesis_seed, TEST_PARAMS.seed_refresh_interval)
        for round_number in (1, 2, 3):
            certificate = node.chain.certificate_at(round_number)
            assert certificate is not None
            ctx = BAContext.from_weights(
                replay.selection_seed(round_number),
                replay.state.weights(), replay.tip_hash)
            verify_certificate(certificate, ctx, sim.backend, TEST_PARAMS)
            assert certificate.value == node.chain.block_at(
                round_number).block_hash
            replay.append(node.chain.block_at(round_number),
                          seed_override=node.chain.seed_of_round(
                              round_number))


class TestDeterminism:
    def test_same_seed_same_run(self):
        def run(seed):
            sim = Simulation(SimulationConfig(num_users=12, seed=seed))
            sim.run_rounds(2)
            return (sim.nodes[0].chain.tip_hash, sim.env.now)

        assert run(7) == run(7)

    def test_different_seeds_different_runs(self):
        def run(seed):
            sim = Simulation(SimulationConfig(num_users=12, seed=seed))
            sim.run_rounds(1)
            return sim.nodes[0].chain.tip_hash

        assert run(1) != run(2)


class TestWeightedSortitionIntegration:
    def test_unequal_stake_still_agrees(self):
        """A Zipf-ish stake distribution (whales + minnows) must not break
        agreement; weights just skew committee membership."""
        balances = [100, 50, 25, 12, 6, 3, 2, 2] + [1] * 12
        sim = Simulation(SimulationConfig(
            num_users=20, seed=9, balances=balances))
        sim.run_rounds(2)
        assert sim.all_chains_equal()
        assert len(sim.outcome().agreed_hashes(1)) == 1

    def test_zero_weight_users_cannot_vote(self):
        """Users with zero balance observe but never join committees."""
        balances = [20] * 10 + [0] * 5
        sim = Simulation(SimulationConfig(
            num_users=15, seed=11, balances=balances))
        sim.run_rounds(1)
        assert sim.all_chains_equal()
        zero_nodes = sim.nodes[10:]
        for node in zero_nodes:
            # They still completed the round (passive participation).
            assert node.chain.height == 1
            assert node.interface.bytes_sent >= 0


class TestBandwidthModel:
    def test_larger_blocks_take_longer(self):
        """Block payload size must translate into round latency through
        the bandwidth model (the mechanism behind Figure 7)."""
        import dataclasses
        params = dataclasses.replace(TEST_PARAMS, block_size=500_000)

        def median_latency(note_bytes):
            sim = Simulation(SimulationConfig(
                num_users=15, seed=3, params=params,
                network=NetworkConfig(bandwidth_bps=5e6)))
            sim.submit_payments(120, note_bytes=note_bytes)
            sim.run_rounds(1)
            latencies = sorted(sim.outcome().round_latencies(1))
            return latencies[len(latencies) // 2]

        small = median_latency(10)
        large = median_latency(3500)
        # ~430 KB of payload through 5 Mbit/s uplinks adds whole seconds.
        assert large > small + 0.5
