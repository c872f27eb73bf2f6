"""The section 7.4 weak-synchrony scenario, reproduced step by step.

The paper's safety argument allows an adversary with full network
control to drive *different honest users to different tentative values*
— what it must never allow is two conflicting FINAL designations. This
test constructs exactly the paper's example:

* all step-1 votes are delivered to user 0 only — user 0 crosses the
  quorum and returns consensus on ``block_hash`` (voting ``final``);
* everyone else times out and keeps going with throttled deliveries
  (votes from a 3-user subset only — never a quorum), so their
  deterministic timeout votes and periodic common coins eventually land
  them on ``empty_hash``;
* the two groups have formally diverged — but the ``final`` committee
  never reaches a quorum, so neither value can be certified final, and
  the divergence is recoverable (section 8.2).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.baplus.certificate import build_certificate
from repro.baplus.context import BAContext
from repro.baplus.protocol import binary_ba_star
from repro.baplus.voting import BAParticipant
from repro.baplus.buffer import VoteBuffer
from repro.common.params import TEST_PARAMS
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.ledger.block import empty_block_hash
from repro.node.config import RuntimeConfig
from repro.sim.loop import Environment
from repro.sortition.roles import FINAL_STEP

NUM_USERS = 20
PARAMS = dataclasses.replace(TEST_PARAMS, lambda_step=1.0, max_steps=40)


class AdversarialCluster:
    """Broadcast medium fully scheduled by the adversary."""

    def __init__(self, seed: bytes):
        self.env = Environment()
        self.backend = FastBackend()
        self.keypairs = [self.backend.keypair(H(b"ws", bytes([i])))
                         for i in range(NUM_USERS)]
        weights = {kp.public: 10 for kp in self.keypairs}
        self.ctx = BAContext.from_weights(H(seed), weights, H(b"tip"))
        self.participants = []
        for kp in self.keypairs:
            participant = BAParticipant(
                env=self.env, params=PARAMS, backend=self.backend,
                buffer=VoteBuffer(self.env,
                                  RuntimeConfig().vote_buffer_budget),
                keypair=kp, gossip_vote=None)  # patched below
            self.participants.append(participant)
        self.index_of = {p.keypair.public: i
                         for i, p in enumerate(self.participants)}
        for participant in self.participants:
            participant.gossip_vote = self._adversarial_delivery

    def _adversarial_delivery(self, vote):
        sender = self.index_of[vote.voter]
        step = vote.step
        if step == "1":
            # Step 1: the full quorum is shown to user 0 alone.
            self.participants[0].buffer.add(vote)
            return
        if step == FINAL_STEP:
            # Final votes delivered to everyone (there will be too few).
            for participant in self.participants:
                participant.buffer.add(vote)
            return
        # All later steps: only a 3-user subset's votes circulate —
        # enough to seed the common coin, never enough for a quorum.
        if sender < 3:
            for participant in self.participants:
                participant.buffer.add(vote)


@pytest.fixture(scope="module")
def diverged():
    cluster = AdversarialCluster(seed=b"weak-sync-3")
    block_hash = H(b"the-block")
    results = {}
    for index, participant in enumerate(cluster.participants):
        # ``None``: the participant halted after MaxSteps.
        binary_ba_star(participant, cluster.ctx, 1, block_hash,
                       lambda result, index=index:
                       results.__setitem__(index, result))
    cluster.env.run()
    return cluster, block_hash, results


class TestWeakSynchronyDivergence:
    def test_user_zero_decides_block_in_step_one(self, diverged):
        _, block_hash, results = diverged
        assert results[0] is not None
        assert results[0].value == block_hash
        assert results[0].deciding_step == 1
        assert results[0].voted_final

    def test_other_users_land_elsewhere(self, diverged):
        """The adversary successfully splits tentative outcomes: some
        user reaches a different value than user 0 (or halts)."""
        cluster, block_hash, results = diverged
        empty = empty_block_hash(1, cluster.ctx.last_block_hash)
        other_outcomes = {
            (result.value if result is not None else None)
            for index, result in results.items() if index != 0
        }
        assert other_outcomes - {block_hash}, (
            "adversary failed to split the cluster at this seed")
        assert other_outcomes <= {block_hash, empty, None}

    def test_no_final_certificate_for_either_value(self, diverged):
        """The safety theorem's operative clause: despite divergence, no
        value can gather a final-step quorum, so no conflicting FINAL
        designations exist."""
        cluster, block_hash, results = diverged
        empty = empty_block_hash(1, cluster.ctx.last_block_hash)
        for value in (block_hash, empty):
            for participant in cluster.participants[:3]:
                certificate = build_certificate(
                    participant.buffer, cluster.ctx, cluster.backend,
                    PARAMS, 1, FINAL_STEP, value)
                assert certificate is None

    def test_only_step_one_quorum_was_at_user_zero(self, diverged):
        """Cross-check the construction: only user 0 ever saw the full
        step-1 vote set."""
        cluster, _, _ = diverged
        step1_counts = [len(p.buffer.messages(1, "1"))
                        for p in cluster.participants]
        assert step1_counts[0] > 0
        assert all(count == 0 for count in step1_counts[1:])
