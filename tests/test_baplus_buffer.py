"""Tests for the vote buffer and node metrics records."""

from __future__ import annotations

from repro.baplus.buffer import VoteBuffer
from repro.baplus.messages import VoteMessage
from repro.node.metrics import NodeMetrics, RoundRecord
from repro.sim.loop import Environment

from tests.fixtures import buffered_rounds


def _vote(round_number: int, step: str, voter: bytes = b"v") -> VoteMessage:
    return VoteMessage(voter=voter, round_number=round_number, step=step,
                       sorthash=b"h", sortproof=b"p", prev_hash=b"prev",
                       value=b"val", signature=b"sig")


class TestVoteBuffer:
    def test_bucket_indexing(self):
        env = Environment()
        buffer = VoteBuffer(env)
        buffer.add(_vote(1, "1"))
        buffer.add(_vote(1, "2"))
        buffer.add(_vote(2, "1"))
        assert len(buffer.messages(1, "1")) == 1
        assert len(buffer.messages(1, "2")) == 1
        assert len(buffer.messages(2, "1")) == 1
        assert buffer.messages(3, "1") == []

    def test_add_wakes_parked_waiters_once_in_park_order(self):
        env = Environment()
        buffer = VoteBuffer(env)
        woken = []

        def wake(tag):
            woken.append((env.now, tag))

        buffer.park((1, "1"), wake, "first")
        buffer.park((1, "1"), wake, "second")
        buffer.park((1, "2"), wake, "other step")

        def two_votes():
            buffer.add(_vote(1, "1", b"a"))
            # Wake-ups go through the event loop, and a park is one-shot:
            # the second vote of the instant finds nobody left to wake.
            assert woken == [] and not buffer._parked[(1, "1")]
            buffer.add(_vote(1, "1", b"b"))

        env.schedule(2, two_votes)
        env.run()
        assert woken == [(2.0, "first"), (2.0, "second")]
        assert env.events_processed == 3
        assert buffer._parked[(1, "2")] == [(wake, "other step")]

    def test_unpark_withdraws_only_an_unscheduled_wake(self):
        env = Environment()
        buffer = VoteBuffer(env)
        woken = []
        buffer.park((1, "1"), woken.append, "withdrawn")
        buffer.park((1, "1"), woken.append, "kept")
        buffer.unpark((1, "1"), woken.append, "withdrawn")
        buffer.unpark((1, "1"), woken.append, "never parked")
        buffer.unpark((9, "9"), woken.append, "no such key")
        buffer.add(_vote(1, "1"))
        buffer.unpark((1, "1"), woken.append, "kept")  # already scheduled
        env.run()
        assert woken == ["kept"]

    def test_pruning_a_key_drops_whoever_parked_on_it(self):
        for prune, survivor in [
                (lambda buffer: buffer.prune_before(2), (2, "1")),
                (lambda buffer: buffer.prune_at_or_above(2), (1, "1")),
                (lambda buffer: buffer.clear(), None)]:
            env = Environment()
            buffer = VoteBuffer(env)
            woken = []
            for key in [(1, "1"), (2, "1")]:
                buffer.messages(*key)  # a count reads its bucket first
                buffer.park(key, woken.append, key)
            prune(buffer)
            assert set(buffer._parked) == ({survivor} if survivor else set())
            buffer.add(_vote(1, "1"))
            buffer.add(_vote(2, "1"))
            env.run()
            assert woken == ([survivor] if survivor else [])

    def test_add_without_signal_waiters_is_fine(self):
        env = Environment()
        buffer = VoteBuffer(env)
        buffer.add(_vote(1, "1"))  # nobody ever parked

    def test_prune_before(self):
        env = Environment()
        buffer = VoteBuffer(env)
        for round_number in (1, 2, 3):
            buffer.add(_vote(round_number, "1"))
        buffer.prune_before(3)
        assert buffered_rounds(buffer) == {3}
        assert buffer.messages(1, "1") == []

    def test_live_bucket_iteration(self):
        """CountVotes indexes into the live list; appends during
        iteration must be visible."""
        env = Environment()
        buffer = VoteBuffer(env)
        bucket = buffer.messages(1, "1")
        buffer.add(_vote(1, "1", b"a"))
        assert len(bucket) == 1
        buffer.add(_vote(1, "1", b"b"))
        assert len(bucket) == 2


class TestRoundRecord:
    def _record(self):
        return RoundRecord(
            round_number=1, start_time=10.0, proposal_done_time=12.0,
            ba_done_time=15.0, end_time=16.0, kind="final",
            block_hash=b"h", is_empty=False, payload_bytes=100,
            binary_steps=1)

    def test_segment_arithmetic(self):
        record = self._record()
        assert record.duration == 6.0
        assert record.proposal_duration == 2.0
        assert record.ba_duration == 3.0
        assert record.final_step_duration == 1.0
        assert (record.proposal_duration + record.ba_duration
                + record.final_step_duration) == record.duration

    def test_metrics_lookup(self):
        metrics = NodeMetrics()
        record = self._record()
        metrics.record_round(record)
        assert metrics.round_record(1) is record
        assert metrics.round_record(2) is None

    def test_step_durations(self):
        metrics = NodeMetrics()
        metrics.record_step(1, "1", 0.5)
        metrics.record_step(1, "final", 0.7)
        assert metrics.step_durations == [(1, "1", 0.5), (1, "final", 0.7)]
