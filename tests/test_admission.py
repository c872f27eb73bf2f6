"""Tests for the resilient-ingress layer: admission, budgets, quarantine.

Covers the :mod:`repro.runtime.admission` building blocks in isolation
(the two budgets' validation, the scoring policy's constants,
peer-health scoring, decay and local quarantine),
the bounded vote buffer's round-proximity eviction, the recovery-round
vote leak regression, the one-message-per-key rule across a fork
adoption, and the end-to-end claims: the budgets do not perturb the
honest peer reshuffle, and on an honest deployment the gate rejects
nothing but stale copies and blocks nobody.
"""

from __future__ import annotations

import pytest

from repro.baplus.buffer import VoteBuffer
from repro.baplus.messages import VoteMessage, make_vote
from repro.common.errors import ConfigError
from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import NetworkConfig, RuntimeConfig
from repro.network.message import priority_envelope, vote_envelope
from repro.node.deployment import node_counters
from repro.node.proposal import PriorityMessage
from repro.node.recovery import RECOVERY_ROUND_BASE, RecoverySession
from repro.runtime.admission import (
    OFFENSE_WEIGHTS,
    QUARANTINE_ROUNDS,
    QUARANTINE_THRESHOLD,
    SCORE_DECAY,
    PeerHealth,
)
from repro.sim.loop import Environment

from tests.fixtures import (
    buffered_rounds, chain_hash, run_sim, signed_vote)
from tests.test_kernel_contract import GOLDEN_20_USERS_2_ROUNDS


class TestAdmissionPolicy:
    def test_default_budgets_validate(self):
        RuntimeConfig().validate()

    @pytest.mark.parametrize("field", [
        "vote_buffer_budget", "flood_budget_per_round"])
    def test_rejects_a_zero_budget(self, field):
        config = RuntimeConfig(**{field: 0})
        with pytest.raises(ConfigError, match=field):
            config.validate()

    def test_flood_weight_hits_threshold_immediately(self):
        # Sub-threshold flood penalties would decay away between rounds
        # and an over-budget flooder would never be quarantined.
        assert OFFENSE_WEIGHTS["flood"] == QUARANTINE_THRESHOLD
        assert PeerHealth().penalize(4, "flood", 1)

    def test_unknown_offense_raises(self):
        with pytest.raises(KeyError):
            PeerHealth().penalize(4, "tardiness", 1)


class TestPeerHealth:
    def test_scores_accumulate_to_quarantine(self):
        # Four invalid signatures (weight 2) reach the threshold (8).
        health = PeerHealth()
        for _ in range(3):
            assert not health.penalize(3, "invalid_signature", 1)
            assert not health.is_blocked(3)
        assert health.penalize(3, "invalid_signature", 1)  # newly blocked
        assert health.is_blocked(3)
        # Further offenses while blocked report nothing new.
        assert not health.penalize(3, "invalid_signature", 1)

    def test_quarantine_expires_after_configured_rounds(self):
        health = PeerHealth()
        assert health.penalize(5, "flood", 1)
        for completed in range(1, 1 + QUARANTINE_ROUNDS):
            health.end_round(completed)
            assert health.is_blocked(5)
        health.end_round(1 + QUARANTINE_ROUNDS)
        assert not health.is_blocked(5)

    def test_decay_forgives_subthreshold_scores(self):
        health = PeerHealth()
        health.penalize(2, "duplicate", 1)
        assert health.scores[2] == OFFENSE_WEIGHTS["duplicate"]
        health.end_round(1)
        assert health.scores[2] == OFFENSE_WEIGHTS["duplicate"] * SCORE_DECAY
        for completed in range(2, 10):
            health.end_round(completed)
        assert 2 not in health.scores  # dropped below the floor

    def test_reset_forgets_everything(self):
        health = PeerHealth()
        assert health.penalize(1, "flood", 1)
        health.reset()
        assert not health.is_blocked(1)
        assert health.scores == {}


def _vote(round_number: int, step: str = "1",
          voter: bytes = b"v") -> VoteMessage:
    return VoteMessage(voter=voter, round_number=round_number, step=step,
                       sorthash=b"h", sortproof=b"p", prev_hash=b"prev",
                       value=b"val", signature=b"sig")


class TestBoundedVoteBuffer:
    def test_budget_evicts_furthest_future_first(self):
        buffer = VoteBuffer(Environment(), budget_messages=3)
        buffer.anchor_round = 1
        buffer.add(_vote(1))
        buffer.add(_vote(5))
        buffer.add(_vote(9))
        assert buffer.add(_vote(2))  # evicts the round-9 vote
        assert buffer.messages(9, "1") == []
        assert len(buffer.messages(2, "1")) == 1
        assert buffer.evicted == 1

    def test_incoming_beyond_furthest_is_rejected(self):
        buffer = VoteBuffer(Environment(), budget_messages=2)
        buffer.anchor_round = 1
        buffer.add(_vote(1))
        buffer.add(_vote(5))
        assert not buffer.add(_vote(9))  # worse than any victim
        assert buffer.rejected == 1
        assert len(buffer) == 2

    def test_anchor_round_votes_are_never_evicted(self):
        buffer = VoteBuffer(Environment(), budget_messages=2)
        buffer.anchor_round = 3
        buffer.add(_vote(3, voter=b"a"))
        buffer.add(_vote(3, voter=b"b"))
        # Everything buffered is anchored: no candidates, reject incoming.
        assert not buffer.add(_vote(7))
        assert len(buffer.messages(3, "1")) == 2

    def test_high_water_tracks_peak_not_current(self):
        buffer = VoteBuffer(Environment())
        for round_number in (1, 2, 3):
            buffer.add(_vote(round_number))
        buffer.prune_before(3)
        assert len(buffer) == 1
        assert buffer.high_water == 3

    def test_eviction_pops_tail_of_live_bucket(self):
        # count_votes iterates the live bucket list by index; eviction
        # must only shorten it from the tail, never reorder or replace.
        buffer = VoteBuffer(Environment(), budget_messages=2)
        buffer.anchor_round = 1
        bucket = buffer.messages(5, "1")
        buffer.add(_vote(5, voter=b"a"))
        buffer.add(_vote(5, voter=b"b"))
        buffer.add(_vote(1))
        assert [v.voter for v in bucket] == [b"a"]

    def test_prune_at_or_above(self):
        buffer = VoteBuffer(Environment())
        buffer.add(_vote(2))
        buffer.add(_vote(RECOVERY_ROUND_BASE))
        buffer.add(_vote(RECOVERY_ROUND_BASE + 1))
        buffer.prune_at_or_above(RECOVERY_ROUND_BASE)
        assert buffered_rounds(buffer) == {2}
        assert len(buffer) == 1


class TestRecoveryVoteLeak:
    def test_close_prunes_recovery_round_buckets(self):
        """Regression: votes buffered at RECOVERY_ROUND_BASE + k survived
        every normal-round prune_before watermark, so each concluded
        recovery leaked its vote buckets for the life of the node."""
        sim = Simulation(SimulationConfig(num_users=4, seed=3))
        node = sim.nodes[0]
        session = RecoverySession(node, pre_fork_round=0)
        for attempt in range(3):
            node.buffer.add(_vote(RECOVERY_ROUND_BASE + attempt))
        assert buffered_rounds(node.buffer) >= {RECOVERY_ROUND_BASE}
        session.close()
        assert all(r < RECOVERY_ROUND_BASE
                   for r in buffered_rounds(node.buffer))

    def test_close_clears_admission_dedup_state(self):
        """After recovery every participant legitimately re-votes rounds
        it already voted in; what the gate accepted before must not frame
        honest peers as equivocators."""
        sim = Simulation(SimulationConfig(num_users=4, seed=3))
        admission = sim.nodes[0].admission
        before = signed_vote(sim, 2, 50, "1", value=H(b"old view"))
        assert admission.admit(vote_envelope(before.voter, before), 2)
        RecoverySession(sim.nodes[0], pre_fork_round=0).close()
        revote = signed_vote(sim, 2, 50, "1", value=H(b"new view"))
        assert not admission.admit(vote_envelope(revote.voter, revote), 2)
        assert admission.rejected == {"duplicate": 1}
        assert admission.health.scores == {}


class TestAdmissionGate:
    """Drive AdmissionControl.admit directly on a live simulation node."""

    def _sim(self, **kwargs):
        return run_sim(0, num_users=6, seed=11, **kwargs)

    def test_invalid_signature_rejected_and_sender_scored(self):
        sim = self._sim()
        admission = sim.nodes[0].admission
        junk = H(b"junk")
        vote = VoteMessage(voter=sim.keypairs[2].public, round_number=1,
                           step="1", sorthash=junk, sortproof=junk,
                           prev_hash=sim.nodes[0].chain.tip_hash,
                           value=junk, signature=junk[:32])
        envelope = vote_envelope(sim.keypairs[2].public, vote)
        assert not admission.admit(envelope, 2)
        assert admission.rejected["invalid_signature"] == 1
        assert admission.health.scores[2] > 0

    def test_current_round_vote_gated_on_sortition(self):
        sim = self._sim()
        node = sim.nodes[0]
        keypair = sim.keypairs[2]
        vote = make_vote(sim.backend, keypair.secret, keypair.public, 1,
                         "1", H(b"forged"), b"not-a-proof",
                         node.chain.tip_hash, H(b"value"))
        assert not node.admission.admit(vote_envelope(keypair.public, vote), 2)
        assert node.admission.rejected["failed_sortition"] == 1

    def test_future_round_vote_admitted_undecided(self):
        # Rejecting future votes would break laggards and recovery (the
        # undecidable-messages liveness trap); they are admitted
        # signature-checked and bounded by the buffer budget instead.
        sim = self._sim()
        node = sim.nodes[0]
        vote = signed_vote(sim, 2, 50, "1")
        assert node.admission.admit(
            vote_envelope(sim.keypairs[2].public, vote), 2)
        assert node.admission.admitted == 1

    def test_stale_vote_rejected_without_penalty(self):
        # A vote below the horizon (round 0 at genesis) is harmless
        # lateness, not an offense: rejected, nobody scored.
        sim = self._sim()
        node = sim.nodes[0]
        stale = signed_vote(sim, 2, 0, "1")
        assert not node.admission.admit(
            vote_envelope(sim.keypairs[2].public, stale), 2)
        assert node.admission.rejected["stale"] == 1
        assert node.admission.health.scores == {}

    def test_spoofed_origin_rejected(self):
        sim = self._sim()
        node = sim.nodes[0]
        keypair = sim.keypairs[2]
        vote = make_vote(sim.backend, keypair.secret, keypair.public, 50,
                         "1", H(b"s"), b"p", node.chain.tip_hash, H(b"v"))
        # Valid signature, but wrapped under a different origin key.
        envelope = vote_envelope(sim.keypairs[3].public, vote)
        assert not node.admission.admit(envelope, 3)
        assert node.admission.rejected["origin_mismatch"] == 1

    def test_equivocation_detected_and_origin_scored(self):
        sim = self._sim()
        node = sim.nodes[0]
        keypair = sim.keypairs[2]
        first = make_vote(sim.backend, keypair.secret, keypair.public, 50,
                          "1", H(b"s"), b"p", node.chain.tip_hash, H(b"v1"))
        second = make_vote(sim.backend, keypair.secret, keypair.public, 50,
                           "1", H(b"s"), b"p", node.chain.tip_hash, H(b"v2"))
        assert node.admission.admit(vote_envelope(keypair.public, first), 4)
        # Relayed by an innocent node 4: blame must land on origin 2.
        assert not node.admission.admit(
            vote_envelope(keypair.public, second), 4)
        assert node.admission.rejected["equivocation"] == 1
        assert node.admission.health.scores.get(4) is None
        assert node.admission.health.scores[2] > 0
        assert node_counters(node)["admission.rejected.equivocation"] == 1

    def test_duplicate_blames_only_the_origin_sender(self):
        sim = self._sim()
        node = sim.nodes[0]
        keypair = sim.keypairs[2]
        vote = make_vote(sim.backend, keypair.secret, keypair.public, 50,
                         "1", H(b"s"), b"p", node.chain.tip_hash, H(b"v"))
        assert node.admission.admit(vote_envelope(keypair.public, vote), 3)
        # An honest relayer (4) losing the race is not penalized...
        assert not node.admission.admit(vote_envelope(keypair.public, vote), 4)
        assert node.admission.health.scores.get(4) is None
        # ...but the origin re-sending its own vote under a fresh id is.
        assert not node.admission.admit(vote_envelope(keypair.public, vote), 2)
        assert node.admission.health.scores[2] > 0

    def test_flood_budget_blocks_origin(self):
        sim = self._sim(runtime=RuntimeConfig(flood_budget_per_round=5))
        node = sim.nodes[0]
        keypair = sim.keypairs[2]
        for k in range(5):
            vote = make_vote(sim.backend, keypair.secret, keypair.public,
                             50 + k, "1", H(b"s"), b"p",
                             node.chain.tip_hash, H(b"v"))
            assert node.admission.admit(vote_envelope(keypair.public, vote), 2)
        over = make_vote(sim.backend, keypair.secret, keypair.public, 99,
                         "1", H(b"s"), b"p", node.chain.tip_hash, H(b"v"))
        assert not node.admission.admit(vote_envelope(keypair.public, over), 2)
        assert node.admission.rejected["flood"] == 1
        assert node.admission.health.is_blocked(2)

    def test_quarantined_sender_rejected_outright(self):
        sim = self._sim()
        node = sim.nodes[0]
        node.admission.health.quarantined_until[2] = 10
        keypair = sim.keypairs[2]
        vote = make_vote(sim.backend, keypair.secret, keypair.public, 50,
                         "1", H(b"s"), b"p", node.chain.tip_hash, H(b"v"))
        assert not node.admission.admit(vote_envelope(keypair.public, vote), 2)
        assert node.admission.rejected["quarantined"] == 1


class TestOneCopyPerKeyAcrossAdoption:
    """The gate's per-key tables are the node's only ones. Before a fork
    adoption a conflicting vote for an accepted key is equivocation;
    after it, the same copy is dropped, not relayed and not scored —
    and so is a second priority announcement per (proposer, round)."""

    @staticmethod
    def _receive(node, envelope, from_index: int = 4) -> bool:
        """Deliver one copy; True if the node forwarded it."""
        forwarded = []
        node.interface._send = lambda sent, targets, raw=None: (
            forwarded.append(sent))
        node.interface.receive(envelope, from_index)
        return forwarded == [envelope]

    def test_conflicting_vote_scored_only_before_adoption(self):
        sim = run_sim(0, num_users=6, seed=11)
        node = sim.nodes[0]
        admission = node.admission
        first = signed_vote(sim, 2, 50, "1", value=H(b"v1"))
        second = signed_vote(sim, 2, 50, "1", value=H(b"v2"))
        assert self._receive(node, vote_envelope(first.voter, first))
        copy = vote_envelope(second.voter, second)
        assert not self._receive(node, copy)
        assert admission.rejected == {"equivocation": 1}
        scores = dict(admission.health.scores)
        assert scores[2] > 0

        admission.on_chain_adopted()
        assert not self._receive(node, copy)
        assert admission.rejected == {"equivocation": 1, "duplicate": 1}
        assert admission.health.scores == scores  # nobody scored
        assert node.buffer.messages(50, "1") == [first]
        # Every other copy of it is as dead: its id is held.
        assert node.interface.holds(copy.msg_id)

    def test_second_priority_dropped_before_and_after_adoption(self):
        sim = run_sim(0, num_users=6, seed=11)
        node = sim.nodes[0]
        admission = node.admission
        proposer = sim.keypairs[2].public

        def announcement(tag: bytes) -> PriorityMessage:
            # A later round than the node's: admitted unverified.
            return PriorityMessage(proposer=proposer, round_number=5,
                                   vrf_hash=H(tag), vrf_proof=b"p",
                                   sub_users=1, priority=H(b"p", tag))

        first = announcement(b"first")
        assert self._receive(node, priority_envelope(proposer, first))
        assert not self._receive(
            node, priority_envelope(proposer, announcement(b"second")))
        admission.on_chain_adopted()
        assert not self._receive(
            node, priority_envelope(proposer, announcement(b"third")))
        assert admission.rejected == {"duplicate": 2}
        assert admission.health.scores == {}
        assert node._tracker(5).best_priority == first


class TestQuarantineTopology:
    def test_rng_path_unchanged_without_quarantine(self):
        """The admission machinery must not perturb the honest topology:
        same seed, same neighbor maps through two rounds of reshuffles,
        whatever the budgets (no node ever blocks a peer)."""
        def neighbor_maps(runtime: RuntimeConfig) -> list:
            sim = Simulation(SimulationConfig(
                num_users=12, seed=9,
                network=NetworkConfig(reshuffle_peers_each_round=True),
                runtime=runtime))
            maps = [[i.neighbors for i in sim.network.interfaces]]
            sim.run_rounds(2)
            maps.append([i.neighbors for i in sim.network.interfaces])
            assert maps[1] != maps[0]  # the reshuffles ran
            assert not any(node.admission.health.quarantined_until
                           for node in sim.nodes)
            return maps

        assert neighbor_maps(RuntimeConfig()) == neighbor_maps(
            RuntimeConfig(vote_buffer_budget=1_000_000,
                          flood_budget_per_round=1_000_000))


class TestHonestDeterminism:
    def test_admission_is_transparent_on_honest_runs(self):
        """On honest runs the gate's only rejections are stale copies,
        no node blocks a peer, and the golden chains hold."""
        runs = [(None, run_sim(2, payments=12, num_users=10, seed=21))]
        runs += [(golden, run_sim(2, payments=10, num_users=20, seed=seed))
                 for seed, golden in sorted(GOLDEN_20_USERS_2_ROUNDS.items())]
        for golden, sim in runs:
            assert sim.all_chains_equal()
            if golden is not None:
                assert chain_hash(sim) == golden
            summary = sim.summary()
            reasons = {name for name in summary
                       if name.startswith("admission.rejected.")}
            assert reasons == {"admission.rejected.stale"}
            assert not any(node.admission.health.scores
                           or node.admission.health.quarantined_until
                           for node in sim.nodes)

    def test_same_seed_same_admission_counters(self):
        def run():
            sim = Simulation(SimulationConfig(num_users=8, seed=33))
            sim.run_rounds(2)
            return {name: value for name, value in sim.summary().items()
                    if name.startswith("admission.")}

        assert run() == run()
