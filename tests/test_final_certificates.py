"""Tests for final-safety certificates (section 8.3)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.baplus.certificate import Certificate
from repro.common.errors import InvalidCertificate, LedgerError
from repro.common.params import TEST_PARAMS
from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.catchup import verify_final_safety
from repro.sortition.roles import FINAL_STEP


@pytest.fixture(scope="module")
def final_sim():
    sim = Simulation(SimulationConfig(num_users=16, seed=111))
    sim.submit_payments(20)
    sim.run_rounds(3)
    return sim


class TestFinalCertificates:
    def test_final_rounds_carry_final_certificates(self, final_sim):
        node = final_sim.nodes[0]
        for round_number in (1, 2, 3):
            record = node.metrics.round_record(round_number)
            if record.kind == "final":
                certificate = node.chain.final_certificate_at(round_number)
                assert certificate is not None
                assert certificate.step == FINAL_STEP
                assert certificate.value == node.chain.block_at(
                    round_number).block_hash

    def test_latest_final_round(self, final_sim):
        node = final_sim.nodes[0]
        assert node.chain.latest_final_round() == 3

    def test_verify_final_safety(self, final_sim):
        node = final_sim.nodes[0]
        verified_round = verify_final_safety(
            node.chain, backend=final_sim.backend, params=TEST_PARAMS)
        assert verified_round == 3

    def test_no_certificate_returns_none(self, final_sim):
        from repro.ledger.blockchain import Blockchain
        fresh = Blockchain({b"k" * 32: 5}, H(b"g"), 10)
        assert verify_final_safety(fresh, backend=final_sim.backend,
                                   params=TEST_PARAMS) is None

    def test_tampered_final_certificate_rejected(self, final_sim):
        node = final_sim.nodes[1]
        genuine = node.chain.final_certificate_at(3)
        truncated = Certificate(
            round_number=3, step=FINAL_STEP, value=genuine.value,
            votes=genuine.votes[:2])
        chain = node.chain
        chain.set_final_certificate(3, truncated)
        try:
            with pytest.raises(InvalidCertificate):
                verify_final_safety(chain, backend=final_sim.backend,
                                    params=TEST_PARAMS)
        finally:
            chain.set_final_certificate(3, genuine)

    def test_wrong_step_certificate_rejected(self, final_sim):
        node = final_sim.nodes[2]
        deciding = node.chain.certificate_at(3)  # step "1", not final
        chain = node.chain
        genuine = chain.final_certificate_at(3)
        chain.set_final_certificate(3, deciding)
        try:
            with pytest.raises(InvalidCertificate):
                verify_final_safety(chain, backend=final_sim.backend,
                                    params=TEST_PARAMS)
        finally:
            chain.set_final_certificate(3, genuine)

    def test_cannot_certify_future_round(self, final_sim):
        with pytest.raises(LedgerError):
            final_sim.nodes[0].chain.set_final_certificate(99, object())

    def test_pipelined_rounds_also_get_final_certificates(self):
        params = dataclasses.replace(TEST_PARAMS, pipeline_final_step=True)
        sim = Simulation(SimulationConfig(num_users=16, seed=112,
                                          params=params))
        sim.run_rounds(2)
        sim.env.run(until=sim.env.now + 2 * params.lambda_step)
        node = sim.nodes[0]
        assert node.chain.latest_final_round() is not None
        assert verify_final_safety(node.chain, backend=sim.backend,
                                   params=params) is not None
