"""Tests for Reduction, BinaryBA*, BA* and certificates.

These run many participants concurrently on one event loop over an
instant broadcast channel, isolating the protocol logic from gossip.
"""

from __future__ import annotations

import pytest

from repro.baplus.buffer import VoteBuffer
from repro.baplus.certificate import (
    Certificate,
    build_certificate,
    verify_certificate,
    votes_needed,
)
from repro.baplus.context import BAContext
from repro.baplus.protocol import (
    FINAL,
    TENTATIVE,
    ba_star,
    binary_ba_star,
    reduction,
)
from repro.baplus.voting import BAParticipant
from repro.common.errors import InvalidCertificate
from repro.common.params import TEST_PARAMS, ProtocolParams
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.ledger.block import empty_block_hash
from repro.network.message import VOTE_MESSAGE_BYTES
from repro.network.wire import CERT
from repro.node.config import RuntimeConfig
from repro.sim.loop import Environment
from repro.sortition.roles import FINAL_STEP


class ProtocolCluster:
    """Participants over an instant broadcast medium."""

    def __init__(self, n=20, weight=10, params=TEST_PARAMS, seed=b"seed"):
        self.env = Environment()
        self.backend = FastBackend()
        self.params = params
        self.keypairs = [self.backend.keypair(H(b"pc", bytes([i])))
                         for i in range(n)]
        weights = {kp.public: weight for kp in self.keypairs}
        self.ctx = BAContext.from_weights(H(seed), weights, H(b"tip"))
        self.participants = [
            BAParticipant(env=self.env, params=params, backend=self.backend,
                          buffer=VoteBuffer(
                              self.env, RuntimeConfig().vote_buffer_budget),
                          keypair=kp, gossip_vote=self._broadcast)
            for kp in self.keypairs
        ]

    def _broadcast(self, vote):
        for participant in self.participants:
            participant.buffer.add(vote)

    def run_all(self, start):
        """Run ``start(participant, then)`` on every participant and
        collect what each hands its ``then``."""
        results = {}
        for index, participant in enumerate(self.participants):
            start(participant, lambda result, index=index:
                  results.__setitem__(index, result))
        self.env.run()
        return [results[i] for i in range(len(self.participants))]


class TestReduction:
    def test_unanimous_input_wins(self):
        cluster = ProtocolCluster()
        block_hash = H(b"the-block")
        results = cluster.run_all(
            lambda p, then: reduction(p, cluster.ctx, 1, block_hash, then))
        assert set(results) == {block_hash}

    def test_split_inputs_reduce_to_empty(self):
        """With inputs split 50/50 (malicious highest-priority proposer),
        no value crosses the threshold and everyone lands on empty."""
        cluster = ProtocolCluster()
        empty = empty_block_hash(1, cluster.ctx.last_block_hash)

        def start(participant, then):
            index = cluster.participants.index(participant)
            value = H(b"a") if index % 2 == 0 else H(b"b")
            reduction(participant, cluster.ctx, 1, value, then)

        results = cluster.run_all(start)
        assert set(results) == {empty}

    def test_at_most_one_nonempty_output(self):
        """Reduction's contract: never two different non-empty outputs."""
        for split in (0.55, 0.7, 0.9):
            cluster = ProtocolCluster(seed=b"s" + str(split).encode())
            empty = empty_block_hash(1, cluster.ctx.last_block_hash)
            cut = int(len(cluster.participants) * split)

            def start(participant, then, cut=cut, cluster=cluster):
                index = cluster.participants.index(participant)
                value = H(b"major") if index < cut else H(b"minor")
                reduction(participant, cluster.ctx, 1, value, then)

            results = cluster.run_all(start)
            non_empty = {r for r in results if r != empty}
            assert len(non_empty) <= 1


class TestBinaryBAStar:
    def test_unanimous_block_hash_step1(self):
        cluster = ProtocolCluster()
        block_hash = H(b"blk")
        results = cluster.run_all(
            lambda p, then: binary_ba_star(p, cluster.ctx, 1, block_hash, then))
        assert all(r.value == block_hash for r in results)
        assert all(r.deciding_step == 1 for r in results)
        assert all(r.voted_final for r in results)

    def test_unanimous_empty_hash_step2(self):
        cluster = ProtocolCluster()
        empty = empty_block_hash(1, cluster.ctx.last_block_hash)
        results = cluster.run_all(
            lambda p, then: binary_ba_star(p, cluster.ctx, 1, empty, then))
        assert all(r.value == empty for r in results)
        assert all(r.deciding_step == 2 for r in results)
        assert not any(r.voted_final for r in results)

    def test_agreement_under_split_inputs(self):
        """Even when honest users start split, all agree on one value."""
        cluster = ProtocolCluster()
        empty = empty_block_hash(1, cluster.ctx.last_block_hash)
        block_hash = H(b"blk")

        def start(participant, then):
            index = cluster.participants.index(participant)
            value = block_hash if index % 2 == 0 else empty
            binary_ba_star(participant, cluster.ctx, 1, value, then)

        results = cluster.run_all(start)
        values = {r.value for r in results}
        assert len(values) == 1
        assert values <= {block_hash, empty}

    def test_max_steps_halts(self):
        """With no committee ever reaching quorum (zero weight users vs a
        huge total), BinaryBA* must hand ``None`` on, not loop."""
        params = ProtocolParams(
            tau_proposer=5, tau_step=80, tau_final=100,
            lambda_priority=0.1, lambda_block=0.2, lambda_step=0.1,
            lambda_stepvar=0.1, max_steps=6,
        )
        cluster = ProtocolCluster(n=3, weight=1, params=params)
        # 3 users of weight 1 can never reach 0.685*80 votes.
        results = cluster.run_all(
            lambda p, then: binary_ba_star(p, cluster.ctx, 1, H(b"blk"), then))
        assert results == [None] * 3
        # MaxSteps is checked before each step A: 6 steps ran, no more.
        assert cluster.env.now == pytest.approx(6 * params.lambda_step)


class TestBAStar:
    def test_final_consensus_common_case(self):
        cluster = ProtocolCluster()
        block_hash = H(b"blk")
        results = cluster.run_all(
            lambda p, then: ba_star(p, cluster.ctx, 1, block_hash, then))
        assert all(r.kind == FINAL for r in results)
        assert all(r.block_hash == block_hash for r in results)

    def test_tentative_on_empty(self):
        cluster = ProtocolCluster()
        empty = empty_block_hash(1, cluster.ctx.last_block_hash)
        results = cluster.run_all(
            lambda p, then: ba_star(p, cluster.ctx, 1, empty, then))
        assert all(r.kind == TENTATIVE for r in results)
        assert all(r.block_hash == empty for r in results)

    def test_split_inputs_still_agree(self):
        cluster = ProtocolCluster()
        empty = empty_block_hash(1, cluster.ctx.last_block_hash)

        def start(participant, then):
            index = cluster.participants.index(participant)
            value = H(b"a") if index < 7 else H(b"b")
            ba_star(participant, cluster.ctx, 1, value, then)

        results = cluster.run_all(start)
        assert {r.block_hash for r in results} == {empty}


class TestCertificates:
    def _agreed_cluster(self):
        cluster = ProtocolCluster()
        block_hash = H(b"certified")
        cluster.run_all(lambda p, then: ba_star(p, cluster.ctx, 1, block_hash, then))
        return cluster, block_hash

    def test_build_and_verify(self):
        cluster, block_hash = self._agreed_cluster()
        certificate = build_certificate(
            cluster.participants[0].buffer, cluster.ctx, cluster.backend,
            cluster.params, 1, "1", block_hash)
        assert certificate is not None
        verify_certificate(certificate, cluster.ctx, cluster.backend,
                           cluster.params)

    def test_final_certificate(self):
        cluster, block_hash = self._agreed_cluster()
        certificate = build_certificate(
            cluster.participants[0].buffer, cluster.ctx, cluster.backend,
            cluster.params, 1, FINAL_STEP, block_hash)
        assert certificate is not None
        assert certificate.step == FINAL_STEP
        verify_certificate(certificate, cluster.ctx, cluster.backend,
                           cluster.params)

    def test_truncated_certificate_rejected(self):
        cluster, block_hash = self._agreed_cluster()
        certificate = build_certificate(
            cluster.participants[0].buffer, cluster.ctx, cluster.backend,
            cluster.params, 1, "1", block_hash)
        truncated = Certificate(
            round_number=1, step="1", value=block_hash,
            votes=certificate.votes[:len(certificate.votes) // 3])
        with pytest.raises(InvalidCertificate):
            verify_certificate(truncated, cluster.ctx, cluster.backend,
                               cluster.params)

    def test_mixed_value_certificate_rejected(self):
        cluster, block_hash = self._agreed_cluster()
        certificate = build_certificate(
            cluster.participants[0].buffer, cluster.ctx, cluster.backend,
            cluster.params, 1, "1", block_hash)
        tampered = Certificate(
            round_number=1, step="1", value=H(b"other"),
            votes=certificate.votes)
        with pytest.raises(InvalidCertificate):
            verify_certificate(tampered, cluster.ctx, cluster.backend,
                               cluster.params)

    def test_duplicate_votes_rejected(self):
        cluster, block_hash = self._agreed_cluster()
        certificate = build_certificate(
            cluster.participants[0].buffer, cluster.ctx, cluster.backend,
            cluster.params, 1, "1", block_hash)
        padded = Certificate(
            round_number=1, step="1", value=block_hash,
            votes=certificate.votes + (certificate.votes[0],))
        with pytest.raises(InvalidCertificate):
            verify_certificate(padded, cluster.ctx, cluster.backend,
                               cluster.params)

    def test_votes_needed_matches_paper_formula(self):
        assert votes_needed("1", TEST_PARAMS) == int(
            TEST_PARAMS.t_step * TEST_PARAMS.tau_step) + 1
        assert votes_needed(FINAL_STEP, TEST_PARAMS) == int(
            TEST_PARAMS.t_final * TEST_PARAMS.tau_final) + 1

    def test_certificate_size_accounting(self):
        """The cost model's votes x VOTE_MESSAGE_BYTES (what
        ``expected_certificate_bytes`` charges) is within 2x of the
        certificate's real encoding."""
        cluster, block_hash = self._agreed_cluster()
        certificate = build_certificate(
            cluster.participants[0].buffer, cluster.ctx, cluster.backend,
            cluster.params, 1, "1", block_hash)
        charged = len(certificate.votes) * VOTE_MESSAGE_BYTES
        assert charged / 2 <= len(CERT.pack(certificate)) <= charged * 2
