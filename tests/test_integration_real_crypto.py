"""End-to-end round on the *real* crypto backend.

Everything else in the suite runs the fast simulation backend; this test
runs a complete round — sortition, VRF seed proposal, signed votes,
certificate construction — over the pure-Python Ed25519 + ECVRF
implementation (the paper's actual cryptography), proving the two
backends are drop-in interchangeable behind one interface.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baplus.certificate import verify_certificate
from repro.baplus.context import BAContext
from repro.common.params import TEST_PARAMS
from repro.crypto.backend import Ed25519Backend
from repro.experiments.harness import Simulation, SimulationConfig

# Committees sized for 8 users x 10 units (W = 80): expected 30 votes vs
# a ~21-vote quorum.
REAL_PARAMS = dataclasses.replace(TEST_PARAMS, tau_step=30, tau_final=40,
                                  tau_proposer=4)


@pytest.fixture(scope="module")
def real_sim():
    sim = Simulation(
        SimulationConfig(num_users=8, seed=2, params=REAL_PARAMS),
        backend=Ed25519Backend())
    sim.submit_payments(8, note_bytes=8)
    sim.run_rounds(1)
    return sim


class TestRealCryptoRound:
    def test_agreement(self, real_sim):
        assert real_sim.all_chains_equal()
        assert len(real_sim.outcome().agreed_hashes(1)) == 1

    def test_final_consensus(self, real_sim):
        assert real_sim.nodes[0].metrics.round_record(1).kind == "final"

    def test_certificate_verifies_under_real_crypto(self, real_sim):
        node = real_sim.nodes[0]
        certificate = node.chain.certificate_at(1)
        assert certificate is not None
        ctx = BAContext.from_weights(
            real_sim.genesis_seed,
            {kp.public: 10 for kp in real_sim.keypairs},
            node.chain.block_at(0).block_hash)
        verify_certificate(certificate, ctx, real_sim.backend, REAL_PARAMS)

    def test_real_block_carries_real_seed_proof(self, real_sim):
        from repro.sortition.seed import verify_seed
        block = real_sim.nodes[0].chain.block_at(1)
        if block.is_empty:
            pytest.skip("round landed on the empty block")
        assert verify_seed(
            real_sim.backend, block.proposer, block.seed,
            block.seed_proof, real_sim.genesis_seed, 1)
