"""Tests for BA* voting primitives: votes, counting, the common coin."""

from __future__ import annotations

import pytest

from repro.baplus.buffer import VoteBuffer
from repro.baplus.context import BAContext
from repro.baplus.messages import VoteMessage, make_vote
from repro.baplus.voting import (
    BAParticipant,
    TIMEOUT,
    _VoteCount,
    committee_vote,
    common_coin,
    count_votes,
    interrupt_counts,
    process_msg,
)
from repro.common.params import TEST_PARAMS
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.node.config import PopulationConfig
from repro.node.population import Population
from repro.node.recovery import RECOVERY_ROUND_BASE, run_recovery
from repro.sim.loop import Environment, Timer
from tests.fixtures import events_of, run_sim, run_traced


class Cluster:
    """N participants with instant, direct vote delivery (no gossip)."""

    def __init__(self, n=20, weight=10, params=TEST_PARAMS):
        self.env = Environment()
        self.backend = FastBackend()
        self.params = params
        self.keypairs = [self.backend.keypair(H(b"clu", bytes([i])))
                         for i in range(n)]
        weights = {kp.public: weight for kp in self.keypairs}
        self.ctx = BAContext.from_weights(H(b"seed"), weights, H(b"tip"))
        self.participants = []
        for kp in self.keypairs:
            buffer = VoteBuffer(self.env)
            participant = BAParticipant(
                env=self.env, params=params, backend=self.backend,
                buffer=buffer, keypair=kp,
                gossip_vote=self._make_gossip(),
            )
            self.participants.append(participant)
        for participant in self.participants:
            participant.gossip_vote = self._broadcast

    def _make_gossip(self):
        return lambda vote: None  # replaced after construction

    def _broadcast(self, vote: VoteMessage) -> None:
        for participant in self.participants:
            participant.buffer.add(vote)


@pytest.fixture
def cluster():
    return Cluster()


class TestCommitteeVote:
    def test_only_selected_members_send(self, cluster):
        sent = []
        cluster.participants[0].gossip_vote = sent.append
        sum_j = 0
        for participant in cluster.participants:
            participant.gossip_vote = sent.append
            proof = committee_vote(participant, cluster.ctx, 1, "1",
                                   cluster.params.tau_step, H(b"val"))
            sum_j += proof.j
        senders = {v.voter for v in sent}
        assert len(senders) == sum(
            1 for p in cluster.participants
            if committee_vote(p, cluster.ctx, 1, "1",
                              cluster.params.tau_step, H(b"val")).j > 0)
        assert sum_j > 0

    def test_vote_carries_chain_binding(self, cluster):
        sent = []
        for participant in cluster.participants:
            participant.gossip_vote = sent.append
            committee_vote(participant, cluster.ctx, 1, "1",
                           cluster.params.tau_step, H(b"val"))
        assert sent  # tau_step = 80 over 20 users: someone is selected
        assert all(v.prev_hash == H(b"tip") for v in sent)


class TestProcessMsg:
    def _one_vote(self, cluster):
        votes = []
        for participant in cluster.participants:
            participant.gossip_vote = votes.append
            committee_vote(participant, cluster.ctx, 1, "1",
                           cluster.params.tau_step, H(b"val"))
            if votes:
                return votes[0]
        pytest.fail("no committee member selected")

    def test_valid_vote_counts(self, cluster):
        vote = self._one_vote(cluster)
        votes, value, sorthash = process_msg(
            cluster.backend, cluster.ctx, cluster.params.tau_step, vote)
        assert votes > 0
        assert value == H(b"val")
        assert sorthash == vote.sorthash

    def test_bad_signature_rejected(self, cluster):
        vote = self._one_vote(cluster)
        forged = VoteMessage(
            voter=vote.voter, round_number=vote.round_number,
            step=vote.step, sorthash=vote.sorthash,
            sortproof=vote.sortproof, prev_hash=vote.prev_hash,
            value=H(b"other"), signature=vote.signature)
        assert process_msg(cluster.backend, cluster.ctx,
                           cluster.params.tau_step, forged)[0] == 0

    def test_wrong_chain_rejected(self, cluster):
        vote = self._one_vote(cluster)
        other_ctx = BAContext.from_weights(
            cluster.ctx.seed, dict(cluster.ctx.weights), H(b"other-tip"))
        assert process_msg(cluster.backend, other_ctx,
                           cluster.params.tau_step, vote)[0] == 0

    def test_non_member_rejected(self, cluster):
        """A vote whose sortition proof fails (zero weight) is worthless."""
        vote = self._one_vote(cluster)
        outsider_weights = dict(cluster.ctx.weights)
        outsider_weights[vote.voter] = 0
        ctx = BAContext(seed=cluster.ctx.seed, weights=outsider_weights,
                        total_weight=cluster.ctx.total_weight,
                        last_block_hash=cluster.ctx.last_block_hash)
        assert process_msg(cluster.backend, ctx,
                           cluster.params.tau_step, vote)[0] == 0


def _count(cluster, results, lam, participant=None, threshold=None):
    """Start CountVotes on step ``(1, "1")``; its outcome joins
    ``results``, now or from the kernel callback that decides it."""
    outcome = count_votes(
        participant or cluster.participants[0], cluster.ctx, 1, "1",
        threshold or cluster.params.t_step, cluster.params.tau_step, lam,
        results.append)
    if outcome is not None:
        results.append(outcome)


class TestCountVotes:
    def _run(self, cluster, lam, **kwargs):
        results = []
        _count(cluster, results, lam, **kwargs)
        cluster.env.run()
        (result,) = results
        return result

    def test_unanimous_vote_crosses_threshold(self, cluster):
        for participant in cluster.participants:
            committee_vote(participant, cluster.ctx, 1, "1",
                           cluster.params.tau_step, H(b"val"))
        assert self._run(cluster, 5.0) == H(b"val")

    def test_no_votes_times_out(self, cluster):
        assert self._run(cluster, 2.0) is TIMEOUT
        assert cluster.env.now == pytest.approx(2.0)

    def test_split_vote_times_out(self, cluster):
        for i, participant in enumerate(cluster.participants):
            value = H(b"a") if i % 2 == 0 else H(b"b")
            committee_vote(participant, cluster.ctx, 1, "1",
                           cluster.params.tau_step, value)
        assert self._run(cluster, 2.0) is TIMEOUT

    def test_duplicate_voter_counted_once(self, cluster):
        """An equivocating committee member cannot double its weight:
        only its first message per step is counted."""
        target = cluster.participants[0]
        sender = None
        for participant in cluster.participants[1:]:
            sent = []
            participant.gossip_vote = sent.append
            proof = committee_vote(participant, cluster.ctx, 1, "1",
                                   cluster.params.tau_step, H(b"a"))
            if proof.j > 0:
                sender = participant
                first = sent[0]
                break
        assert sender is not None
        # Deliver the same voter twice with different values.
        second = make_vote(cluster.backend, sender.keypair.secret,
                           sender.keypair.public, 1, "1", first.sorthash,
                           first.sortproof, cluster.ctx.last_block_hash,
                           H(b"b"))
        target.buffer.add(first)
        target.buffer.add(second)
        # Count with an absurdly low threshold measured against the first
        # voter's weight alone: value 'b' must never be returned.
        assert self._run(cluster, 1.0, participant=target,
                         threshold=0.0001) == H(b"a")

    def test_late_votes_picked_up_while_waiting(self, cluster):
        cluster.env.schedule(1.0, lambda: _vote_everyone(cluster, H(b"late")))
        assert self._run(cluster, 5.0) == H(b"late")
        assert 1.0 <= cluster.env.now < 1.5


def _vote_everyone(cluster, value):
    for participant in cluster.participants:
        committee_vote(participant, cluster.ctx, 1, "1",
                       cluster.params.tau_step, value)


def _deadline_timers(env, participant=None) -> list[Timer]:
    """Live CountVotes deadline timers in ``env``'s heap."""
    owners = [(handle, getattr(handle.callback, "__self__", None))
              for _, _, handle in env._heap
              if isinstance(handle, Timer) and not handle.cancelled]
    return [handle for handle, owner in owners
            if isinstance(owner, _VoteCount)
            and (participant is None or owner.part is participant)]


def _parked(buffer) -> list:
    return [waiter for waiters in buffer._parked.values()
            for waiter in waiters]


class TestParkedCount:
    """CountVotes parks once: callbacks advance it, one ``then`` ends it."""

    def test_two_counts_on_one_key_both_advance(self, cluster):
        """A pipelined final count and a recount share one bucket."""
        results = []
        _count(cluster, results, 5.0)
        _count(cluster, results, 4.0)
        cluster.env.schedule(1.0, lambda: _vote_everyone(cluster, H(b"late")))
        cluster.env.run(until=1.5)
        assert results == [H(b"late")] * 2
        assert not _parked(cluster.participants[0].buffer)
        assert not _deadline_timers(cluster.env)

    def test_vote_in_the_deadline_instant_is_counted(self, cluster):
        # Scheduled before the count parks, so at t = 2 the votes land
        # first, then the deadline fires — ahead of the wake-up the
        # votes queued, which then finds the count resolved.
        cluster.env.schedule(2.0, lambda: _vote_everyone(cluster, H(b"val")))
        results = []
        _count(cluster, results, 2.0)
        cluster.env.run()
        assert results == [H(b"val")]
        assert cluster.env.now == 2.0

    def test_wake_overtaken_by_a_deadline_wake_is_stale(self, cluster):
        target = cluster.participants[0]
        woken = []
        _count(cluster, woken, 5.0, threshold=1e9)
        (count,) = target.counts
        overtaken = count._timer
        _vote_everyone(cluster, H(b"val"))  # queues a wake for this park
        assert not _parked(target.buffer)
        # A deadline timer that lands early counts, then parks afresh.
        overtaken.cancel()
        count._advance()
        assert count.cursor == len(target.buffer.messages(1, "1")) > 0
        fresh = count._timer
        assert fresh is not overtaken and len(_parked(target.buffer)) == 1
        cluster.env.run(until=1.0)
        # The overtaken wake fired and touched nothing.
        assert count._timer is fresh and not fresh.cancelled
        assert len(_parked(target.buffer)) == 1 and woken == []
        cluster.env.run()
        assert woken == [TIMEOUT] and cluster.env.now == 5.0
        assert count._timer is None and count.then is None
        assert not target.counts

    def test_pruned_bucket_leaves_the_count_to_its_deadline(self, cluster):
        target = cluster.participants[0]
        results = []
        _count(cluster, results, 2.0)
        cluster.env.schedule(1.0, target.buffer.prune_before, 2)
        cluster.env.schedule(1.5, lambda: _vote_everyone(cluster, H(b"blind")))
        cluster.env.run(until=1.75)
        assert not _parked(target.buffer) and results == []
        cluster.env.run()
        assert results == [TIMEOUT] and cluster.env.now == 2.0

    def test_interrupt_unparks_and_cancels_the_deadline(self, cluster):
        results = []
        _count(cluster, results, 5.0)
        cluster.env.run(until=1.0)
        participant = cluster.participants[0]
        buffer = participant.buffer
        assert len(_parked(buffer)) == len(_deadline_timers(cluster.env)) == 1
        interrupt_counts(participant)
        assert not _parked(buffer) and not _deadline_timers(cluster.env)
        assert not participant.counts
        _vote_everyone(cluster, H(b"late"))
        cluster.env.run()
        assert results == [] and cluster.env.now == 1.0


class TestParkedCountLifetime:
    """Nothing that kills a step leaves its count behind."""

    def test_crash_mid_step(self):
        sim, bus = run_traced(0, payments=5, num_users=10, seed=1)
        victim = sim.nodes[3]
        for node in sim.nodes:
            node.start(2)
        sim.env.run(until=60, stop_when=lambda: bool(_parked(victim.buffer)))
        assert _deadline_timers(sim.env, victim.participant)
        (open_step,) = [count.key for count in victim.participant.counts]
        victim.crash()
        assert not _parked(victim.buffer)
        assert not _deadline_timers(sim.env, victim.participant)
        assert not victim.participant.counts
        exits = [event for event in events_of(bus, "step_exit")
                 if event["node"] == victim.index
                 and event.get("interrupted")]
        assert [(e["round"], e["step"]) for e in exits] == [open_step]

    def test_transient_retirement(self, monkeypatch):
        retire = Population._retire
        mid_step = []

        def checked(population, slot):
            node = population.live[slot]
            mid_step.append(bool(_parked(node.buffer)))
            retire(population, slot)
            assert not _parked(node.buffer)
            assert not _deadline_timers(population.env, node.participant)

        monkeypatch.setattr(Population, "_retire", checked)
        run_sim(2, num_users=150, initial_balance=1, seed=2,
                params=TEST_PARAMS.scaled(0.1),
                population=PopulationConfig(
                    mode="aggregated", always_on_core=8, steps_ahead=6))
        assert any(mid_step)

    def test_recovery_close(self):
        sim = run_sim(1, num_users=12, seed=8)
        sessions = run_recovery(sim.nodes, pre_fork_round=1)
        sim.env.run(until=sim.env.now + 600)
        for session in sessions:
            buffer = session.node.buffer
            assert any(key[0] >= RECOVERY_ROUND_BASE
                       for key in buffer._parked)
            session.close()
            assert all(key[0] < RECOVERY_ROUND_BASE
                       for key in buffer._parked)
        assert not _deadline_timers(sim.env)


class TestCommonCoin:
    def test_coin_is_common_across_observers(self, cluster):
        for participant in cluster.participants:
            committee_vote(participant, cluster.ctx, 1, "9",
                           cluster.params.tau_step, H(b"x"))
        coins = {
            common_coin(participant, cluster.ctx, 1, "9",
                        cluster.params.tau_step)
            for participant in cluster.participants
        }
        assert len(coins) == 1
        assert coins.pop() in (0, 1)

    def test_coin_varies_across_steps(self, cluster):
        values = []
        for step in range(3, 30, 3):
            for participant in cluster.participants:
                committee_vote(participant, cluster.ctx, 1, str(step),
                               cluster.params.tau_step, H(b"x"))
            values.append(common_coin(cluster.participants[0], cluster.ctx,
                                      1, str(step),
                                      cluster.params.tau_step))
        assert set(values) == {0, 1}

    def test_no_votes_gives_deterministic_coin(self, cluster):
        # With no messages the coin defaults to (2^hashlen) mod 2 == 0.
        assert common_coin(cluster.participants[0], cluster.ctx, 1, "99",
                           cluster.params.tau_step) == 0
