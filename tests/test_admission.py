"""Tests for the resilient-ingress layer: admission, budgets, quarantine.

Covers the :mod:`repro.runtime.admission` building blocks in isolation
(config validation, peer-health scoring and decay, the network-wide
quarantine directory), the bounded vote buffer's round-proximity
eviction, the quarantine-aware peer reshuffle, the recovery-round vote
leak regression, and the end-to-end determinism claim: an honest
deployment commits a byte-identical chain with admission on or off.
"""

from __future__ import annotations

import pytest

from repro.baplus.buffer import VoteBuffer
from repro.baplus.messages import VoteMessage, make_vote
from repro.common.errors import ConfigError
from repro.crypto.hashing import H
from repro.experiments.harness import (
    RuntimeConfig,
    Simulation,
    SimulationConfig,
)
from repro.network.message import vote_envelope
from repro.node.deployment import node_counters
from repro.node.recovery import RECOVERY_ROUND_BASE, RecoverySession
from repro.runtime.admission import (
    AdmissionConfig,
    PeerHealth,
    QuarantineDirectory,
)
from repro.sim.loop import Environment

from tests.fixtures import run_sim, signed_vote


class TestAdmissionConfig:
    def test_defaults_validate(self):
        AdmissionConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("vote_buffer_budget", 0),
        ("egress_lane_budget", 0),
        ("flood_budget_per_round", 0),
        ("quarantine_threshold", 0.0),
        ("quarantine_rounds", 0),
        ("ban_after_quarantines", 0),
        ("decay_factor", 1.0),
        ("network_quarantine_fraction", 0.0),
    ])
    def test_rejects_bad_values(self, field, value):
        config = AdmissionConfig(**{field: value})
        with pytest.raises(ConfigError):
            config.validate()

    def test_flood_weight_hits_threshold_immediately(self):
        # Sub-threshold flood penalties would decay away between rounds
        # and an over-budget flooder would never be quarantined.
        config = AdmissionConfig()
        assert config.weight_of("flood") == config.quarantine_threshold

    def test_unknown_offense_raises(self):
        with pytest.raises(ValueError):
            AdmissionConfig().weight_of("tardiness")


class TestPeerHealth:
    def test_scores_accumulate_to_quarantine(self):
        health = PeerHealth(AdmissionConfig(quarantine_threshold=4.0,
                                            w_invalid_signature=2.0))
        assert not health.penalize(3, "invalid_signature", 1)
        assert not health.is_blocked(3)
        assert health.penalize(3, "invalid_signature", 1)  # newly blocked
        assert health.is_blocked(3)
        # Further offenses while blocked report nothing new.
        assert not health.penalize(3, "invalid_signature", 1)

    def test_quarantine_expires_after_configured_rounds(self):
        health = PeerHealth(AdmissionConfig(quarantine_threshold=2.0,
                                            quarantine_rounds=2))
        health.penalize(5, "invalid_signature", 1)
        health.end_round(1)
        assert health.is_blocked(5)
        health.end_round(2)
        assert health.is_blocked(5)
        health.end_round(3)
        assert not health.is_blocked(5)

    def test_decay_forgives_subthreshold_scores(self):
        health = PeerHealth(AdmissionConfig(decay_factor=0.5))
        health.penalize(2, "duplicate", 1)  # weight 0.5
        assert health.scores[2] == 0.5
        health.end_round(1)
        assert health.scores[2] == 0.25
        for completed in range(2, 10):
            health.end_round(completed)
        assert 2 not in health.scores  # dropped below the floor

    def test_reset_forgets_everything(self):
        health = PeerHealth(AdmissionConfig(quarantine_threshold=1.0))
        health.penalize(1, "equivocation", 1)
        health.reset()
        assert not health.is_blocked(1)
        assert health.scores == {}
        assert health.offense_counts == {}


class _StubNetwork:
    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.calls: list[frozenset[int]] = []

    def set_quarantined(self, indices) -> None:
        self.calls.append(frozenset(indices))


class TestQuarantineDirectory:
    def _directory(self, num_nodes=10, **overrides):
        config = AdmissionConfig(**overrides)
        network = _StubNetwork(num_nodes)
        return QuarantineDirectory(network, config), network

    def test_requires_independent_reporters(self):
        directory, network = self._directory(
            num_nodes=10, network_quarantine_fraction=0.3)
        assert directory.required_reports() == 3
        directory.report(0, 7)
        directory.report(1, 7)
        directory.end_round(1)
        assert 7 not in directory.quarantined
        directory.report(2, 7)
        directory.end_round(2)
        assert 7 in directory.quarantined
        assert network.calls[-1] == frozenset({7})

    def test_duplicate_reports_from_one_node_do_not_count(self):
        directory, _ = self._directory(num_nodes=20)
        for _ in range(10):
            directory.report(0, 5)
        directory.end_round(1)
        assert 5 not in directory.quarantined

    def test_escalation_and_ban(self):
        directory, network = self._directory(
            num_nodes=10, quarantine_rounds=2, ban_after_quarantines=3)
        for strike in (1, 2):
            directory.report(0, 4)
            directory.report(1, 4)
            directory.end_round(strike * 10)
            # Term scales with times served: 2 rounds, then 4.
            assert directory._until[4] == strike * 10 + 2 * strike
            directory.end_round(strike * 10 + 2 * strike)
            assert 4 not in directory.quarantined
        directory.report(0, 4)
        directory.report(1, 4)
        directory.end_round(30)
        assert 4 in directory.banned
        assert 4 in directory.quarantined  # bans never expire
        directory.end_round(99)
        assert 4 in directory.banned
        assert directory.quarantines == 3
        assert network.calls[-1] == frozenset({4})

    def test_reports_against_held_offender_are_dropped(self):
        directory, _ = self._directory(num_nodes=10)
        directory.report(0, 3)
        directory.report(1, 3)
        directory.end_round(1)
        directory.report(2, 3)  # already serving; must not re-accumulate
        assert 3 not in directory._reports


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
        assert buffer.rounds_buffered() == {2}
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
        assert node.buffer.rounds_buffered() >= {RECOVERY_ROUND_BASE}
        session.close()
        assert all(r < RECOVERY_ROUND_BASE
                   for r in node.buffer.rounds_buffered())

    def test_close_clears_admission_dedup_state(self):
        """After recovery every participant legitimately re-votes rounds
        it already voted in; stale dedup entries would frame honest peers
        as equivocators."""
        sim = Simulation(SimulationConfig(num_users=4, seed=3))
        node = sim.nodes[0]
        node.admission._first_vote[(b"k", 1, "1")] = _vote(1)
        session = RecoverySession(node, pre_fork_round=0)
        session.close()
        assert node.admission._first_vote == {}


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
        sim = self._sim(runtime=RuntimeConfig(
            admission=AdmissionConfig(flood_budget_per_round=5)))
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


class TestQuarantineTopology:
    def test_set_quarantined_severs_both_directions(self):
        sim = Simulation(SimulationConfig(num_users=10, seed=7))
        network = sim.network
        victim = 3
        assert network.interfaces[victim].neighbors  # connected before
        network.set_quarantined({victim})
        assert network.interfaces[victim].neighbors == []
        for index, interface in enumerate(network.interfaces):
            assert victim not in interface.neighbors, index

    def test_reshuffle_excludes_quarantined_and_stays_symmetric(self):
        sim = Simulation(SimulationConfig(num_users=10, seed=7))
        network = sim.network
        network.set_quarantined({2, 5})
        network.reshuffle_peers()
        for index, interface in enumerate(network.interfaces):
            assert 2 not in interface.neighbors
            assert 5 not in interface.neighbors
            for neighbor in interface.neighbors:
                assert index in network.interfaces[neighbor].neighbors, (
                    f"{index} -> {neighbor} is one-directional")
        assert network.interfaces[2].neighbors == []
        assert network.interfaces[5].neighbors == []

    def test_release_reconnects_the_freed_peer(self):
        sim = Simulation(SimulationConfig(num_users=10, seed=7))
        network = sim.network
        network.set_quarantined({4})
        network.set_quarantined(frozenset())
        assert network.interfaces[4].neighbors
        for neighbor in network.interfaces[4].neighbors:
            assert 4 in network.interfaces[neighbor].neighbors

    def test_rng_path_unchanged_without_quarantine(self):
        """Enabling the admission machinery must not perturb the honest
        topology: same seed, same neighbor map, admission on or off."""
        with_admission = Simulation(SimulationConfig(num_users=12, seed=9))
        without = Simulation(SimulationConfig(
            num_users=12, seed=9,
            runtime=RuntimeConfig(use_admission=False)))
        assert ([i.neighbors for i in with_admission.network.interfaces]
                == [i.neighbors for i in without.network.interfaces])


class TestHonestDeterminism:
    def test_admission_is_transparent_on_honest_runs(self):
        """Same seed, admission on vs off: byte-identical chains, zero
        rejections (beyond none at all) and no quarantines."""
        tips = {}
        for use_admission in (True, False):
            sim = run_sim(2, payments=12, num_users=10, seed=21,
                          runtime=RuntimeConfig(
                              use_admission=use_admission))
            tips[use_admission] = [node.chain.tip_hash
                                   for node in sim.nodes]
            if use_admission:
                summary = sim.summary()
                assert summary["admission.quarantined_peers"] == 0
                assert summary["admission.quarantines"] == 0
        assert tips[True] == tips[False]

    def test_same_seed_same_admission_counters(self):
        def run():
            sim = Simulation(SimulationConfig(num_users=8, seed=33))
            sim.run_rounds(2)
            return {name: value for name, value in sim.summary().items()
                    if name.startswith("admission.")}

        assert run() == run()
