"""Tests for misbehavior detection ('detect and punish', section 2)."""

from __future__ import annotations

import pytest

from repro.chaos import figure8_adversary
from repro.baplus.accountability import (
    DoubleVoteEvidence,
    find_double_votes,
    find_equivocations,
    scan_buffer,
)
from repro.baplus.messages import make_vote
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.block import Block


@pytest.fixture
def backend():
    return FastBackend()


def _vote(backend, kp, value, round_number=1, step="1"):
    return make_vote(backend, kp.secret, kp.public, round_number, step,
                     H(b"sort"), b"proof", H(b"prev"), value)


class TestDoubleVoteDetection:
    def test_conflicting_pair_detected(self, backend):
        kp = backend.keypair(H(b"offender"))
        votes = [_vote(backend, kp, H(b"a")), _vote(backend, kp, H(b"b"))]
        evidence = find_double_votes(votes, backend)
        assert len(evidence) == 1
        assert evidence[0].offender == kp.public
        assert evidence[0].verify(backend)

    def test_consistent_voter_clean(self, backend):
        kp = backend.keypair(H(b"honest"))
        votes = [_vote(backend, kp, H(b"a")), _vote(backend, kp, H(b"a"))]
        assert find_double_votes(votes, backend) == []

    def test_different_steps_not_conflicting(self, backend):
        kp = backend.keypair(H(b"honest"))
        votes = [_vote(backend, kp, H(b"a"), step="1"),
                 _vote(backend, kp, H(b"b"), step="2")]
        assert find_double_votes(votes, backend) == []

    def test_forged_votes_prove_nothing(self, backend):
        """Unsigned claims must never implicate anyone."""
        kp = backend.keypair(H(b"victim"))
        genuine = _vote(backend, kp, H(b"a"))
        forged = make_vote(backend, backend.keypair(H(b"attacker")).secret,
                           kp.public, 1, "1", H(b"sort"), b"proof",
                           H(b"prev"), H(b"b"))
        assert find_double_votes([genuine, forged], backend) == []

    def test_one_report_per_offender_slot(self, backend):
        kp = backend.keypair(H(b"offender"))
        votes = [_vote(backend, kp, H(bytes([i]))) for i in range(4)]
        assert len(find_double_votes(votes, backend)) == 1

    def test_evidence_verify_rejects_mismatch(self, backend):
        kp1 = backend.keypair(H(b"o1"))
        kp2 = backend.keypair(H(b"o2"))
        bogus = DoubleVoteEvidence(
            offender=kp1.public, round_number=1, step="1",
            first=_vote(backend, kp1, H(b"a")),
            second=_vote(backend, kp2, H(b"b")))
        assert not bogus.verify(backend)


class TestEquivocationDetection:
    def _block(self, proposer, tag):
        return Block(round_number=1, prev_hash=H(b"p"), timestamp=1.0,
                     seed=H(b"s"), seed_proof=b"sp", proposer=proposer,
                     proposer_vrf_hash=H(tag), proposer_vrf_proof=b"v",
                     proposer_priority=H(tag), transactions=())

    def test_two_versions_detected(self):
        blocks = [self._block(b"P", b"v1"), self._block(b"P", b"v2")]
        evidence = find_equivocations(blocks)
        assert len(evidence) == 1
        assert evidence[0].conflicting

    def test_same_block_twice_clean(self):
        block = self._block(b"P", b"v1")
        assert find_equivocations([block, block]) == []

    def test_empty_blocks_ignored(self):
        from repro.ledger.block import empty_block
        assert find_equivocations([empty_block(1, H(b"p"))] * 2) == []


class TestLiveAttackForensics:
    def test_figure8_attack_leaves_evidence(self):
        """Running the Figure 8 adversary, pooling a few honest nodes'
        vote buffers yields verifiable double-vote evidence against
        (only) the malicious keys.

        A *single* node cannot see the conflict — the section 8.4 relay
        rule keeps only the first vote per key per step — but different
        nodes keep different halves of the equivocation, so any two
        honest users comparing notes can convict the offenders. This is
        exactly why the paper calls detect-and-punish a straightforward
        extension.
        """
        sim = Simulation(SimulationConfig(num_users=16, seed=97),
                         faults=figure8_adversary((13, 14, 15)))
        for node in sim.nodes:
            node.start(1)
        # Stop before the round completes so buffers are unpruned.
        sim.env.run(until=300.0, stop_when=lambda: not any(
            node.running for node in sim.nodes))

        malicious_keys = {node.keypair.public for node in sim.nodes[13:]}
        steps = ["reduction_one", "reduction_two"] + [
            str(s) for s in range(1, 6)] + ["final"]

        # Single node: the relay dedup hides the conflict.
        single = scan_buffer(sim.nodes[0].buffer, 1, steps, sim.backend)
        assert single == []

        # Pooled honest views: the conflict is exposed and verifiable.
        pooled = [
            vote
            for node in sim.nodes[:13]
            for step in steps
            for vote in node.buffer.messages(1, step)
        ]
        evidence = find_double_votes(pooled, sim.backend)
        offenders = {e.offender for e in evidence}
        assert offenders  # the attack actually left traces
        assert offenders <= malicious_keys
        for item in evidence:
            assert item.verify(sim.backend)
