"""Long-haul soak: many rounds with a live transaction stream.

Earlier integration tests inject all payments up front; real deployments
see transactions arriving *while* consensus runs. This soak drives an
8-round run with payments gossiped mid-flight at random offsets and
checks sustained liveness, safety, and bounded state growth.
"""

from __future__ import annotations

import pytest

from repro.baplus.protocol import FINAL
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.transaction import make_transaction

ROUNDS = 8


@pytest.fixture(scope="module")
def soak_sim():
    sim = Simulation(SimulationConfig(num_users=16, seed=121,
                                      initial_balance=50))

    nonces = {}

    def submit(burst: int) -> None:
        for offset in range(4):
            index = (burst * 4 + offset) % 16
            node = sim.nodes[index]
            public = node.keypair.public
            if node.chain.state.balance(public) < 1:
                continue
            nonce = nonces.get(
                index, node.mempool.next_nonce_for(node.chain.state,
                                                   public))
            recipient = sim.nodes[(index + 7) % 16].keypair.public
            tx = make_transaction(sim.backend, node.keypair.secret,
                                  public, recipient, 1, nonce)
            nonces[index] = nonce + 1
            node.submit_transaction(tx)
        if burst + 1 < ROUNDS * 2:
            sim.env.schedule(1.3, submit, burst + 1)

    sim.env.schedule(1.3, submit, 0)
    sim.run_rounds(ROUNDS)
    return sim


class TestSoak:
    def test_all_rounds_agree(self, soak_sim):
        for round_number in range(1, ROUNDS + 1):
            assert len(soak_sim.outcome().agreed_hashes(round_number)) == 1

    def test_chains_identical(self, soak_sim):
        assert soak_sim.all_chains_equal()

    def test_mostly_final_consensus(self, soak_sim):
        kinds = [soak_sim.nodes[0].metrics.round_record(r).kind
                 for r in range(1, ROUNDS + 1)]
        assert kinds.count(FINAL) >= ROUNDS - 1

    def test_streamed_transactions_committed(self, soak_sim):
        committed = sum(len(block.transactions)
                        for block in soak_sim.nodes[0].chain.blocks[1:])
        assert committed >= 30

    def test_money_conserved(self, soak_sim):
        for node in soak_sim.nodes:
            assert node.chain.state.total_weight == 16 * 50

    def test_latency_stable_over_time(self, soak_sim):
        """No drift: late rounds are no slower than early ones."""
        early = max(soak_sim.outcome().round_latencies(2))
        late = max(soak_sim.outcome().round_latencies(ROUNDS))
        assert late < 3 * early

    def test_state_bounded(self, soak_sim):
        """Pruning keeps per-node round state from accumulating."""
        for node in soak_sim.nodes:
            assert len(node._trackers) <= 3
            assert len(node.buffer.rounds_buffered()) <= 3

    def test_weight_history_full_depth(self, soak_sim):
        """Snapshots exist for every round (look-back support)."""
        node = soak_sim.nodes[0]
        for round_number in range(0, ROUNDS + 1):
            assert node.chain.weights_at(round_number) is not None
