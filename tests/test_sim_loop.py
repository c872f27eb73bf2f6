"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.sim.loop import Environment


class TestScheduling:
    def test_timers_fire_in_order(self):
        env = Environment()
        log = []
        env.schedule(3, lambda: log.append("c"))
        env.schedule(1, lambda: log.append("a"))
        env.schedule(2, lambda: log.append("b"))
        env.run()
        assert log == ["a", "b", "c"]
        assert env.now == 3

    def test_equal_times_fire_in_scheduling_order(self):
        env = Environment()
        log = []
        for name in "abc":
            env.schedule(1.0, lambda n=name: log.append(n))
        env.run()
        assert log == ["a", "b", "c"]

    def test_cancelled_timer_does_not_fire(self):
        env = Environment()
        log = []
        timer = env.schedule(1, lambda: log.append("x"))
        timer.cancel()
        env.run()
        assert log == []

    def test_run_until(self):
        env = Environment()
        log = []
        env.schedule(1, lambda: log.append(1))
        env.schedule(10, lambda: log.append(10))
        env.run(until=5)
        assert log == [1]
        assert env.now == 5

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule(-1, lambda: None)

    def test_max_events_guard(self):
        env = Environment()

        def reschedule():
            env.schedule(1, reschedule)

        env.schedule(1, reschedule)
        with pytest.raises(SimulationError):
            env.run(max_events=100)

    def test_stop_when(self):
        env = Environment()
        count = [0]

        def tick():
            count[0] += 1
            env.schedule(1, tick)

        env.schedule(1, tick)
        env.run(stop_when=lambda: count[0] >= 5)
        assert count[0] == 5


class TestDeadTimers:
    def test_cancel_releases_callback_at_once(self):
        env = Environment()
        timer = env.schedule(100, lambda: None)
        timer.cancel()
        assert timer.cancelled and timer.callback is None
        timer.cancel()  # idempotent

    def test_cancelled_far_future_timeouts_do_not_pile_up(self):
        """10,000 waits each resolve early and cancel their far-future
        deadline: the heap must stay bounded, and the surviving timers
        fire in (time, seq) order exactly as if nothing had ever been
        compacted."""
        env = Environment()
        log = []
        high_water = [0]
        for k in range(50):
            env.schedule(500.0 + (k * 7) % 13, lambda k=k: log.append(k))

        def wait(left: int) -> None:
            deadline = env.schedule(1000.0, lambda: None)
            env.schedule(0.001, resolved, (deadline, left))

        def resolved(state) -> None:
            deadline, left = state
            deadline.cancel()
            high_water[0] = max(high_water[0], len(env._heap))
            if left:
                wait(left - 1)

        wait(10_000)
        env.run()
        # 50 survivors + the next wake-up + the live deadline: dead
        # entries may at most equal the live ones before compaction.
        assert high_water[0] <= 2 * 52 + 2
        assert log == sorted(range(50),
                             key=lambda k: (500.0 + (k * 7) % 13, k))

    def test_compaction_keeps_batches_and_order(self):
        env = Environment()
        log = []
        env.push_batch([(5.0, "b5"), (9.0, "b9")], log.append)
        doomed = [env.schedule(7.0, lambda: log.append("x"))
                  for _ in range(20)]
        env.schedule(6.0, lambda: log.append("t6"))
        for timer in doomed:
            timer.cancel()
        assert len(env._heap) <= 4
        env.run()
        assert log == ["b5", "t6", "b9"]


class TestImmediateQueue:
    def test_schedule_now_interleaves_with_zero_delay_timers(self):
        """Immediates share the (time, seq) key space with heap timers:
        mixing the two paths must preserve exact scheduling order."""
        env = Environment()
        log = []
        env.schedule(0, lambda: log.append("h1"))
        env.schedule_now(lambda: log.append("i1"))
        env.schedule(0, lambda: log.append("h2"))
        env.schedule_now(lambda: log.append("i2"))
        env.run()
        assert log == ["h1", "i1", "h2", "i2"]

    def test_cancelled_immediate_does_not_fire(self):
        env = Environment()
        log = []
        timer = env.schedule_now(lambda: log.append("x"))
        timer.cancel()
        env.schedule_now(lambda: log.append("y"))
        env.run()
        assert log == ["y"]

    def test_immediate_scheduled_mid_run_fires_at_current_time(self):
        env = Environment()
        log = []

        def at_two():
            env.schedule_now(lambda: log.append(env.now))

        env.schedule(2, at_two)
        env.schedule(5, lambda: log.append(env.now))
        env.run()
        assert log == [2.0, 5.0]

    def test_until_respected_for_immediates(self):
        env = Environment()
        log = []

        def at_three():
            env.schedule_now(lambda: log.append("late"))

        env.schedule(3, at_three)
        env.run(until=3)
        # The immediate carries time 3.0 == until, so it still fires.
        assert log == ["late"]
        assert env.now == 3


class TestBatchSchedule:
    def test_delivers_in_time_order(self):
        env = Environment()
        log = []
        env.push_batch([(2.0, "b"), (1.0, "a"), (2.0, "c")],
                       lambda p: log.append((env.now, p)))
        env.run()
        assert log == [(1.0, "a"), (2.0, "b"), (2.0, "c")]

    def test_same_time_payloads_share_one_event(self):
        env = Environment()
        log = []
        env.push_batch([(1.0, i) for i in range(5)], log.append)
        env.run()
        assert log == [0, 1, 2, 3, 4]
        assert env.events_processed == 1

    def test_interleaves_with_plain_timers(self):
        env = Environment()
        log = []
        env.push_batch([(1.0, "batch1"), (3.0, "batch3")], log.append)
        env.schedule(2.0, lambda: log.append("timer2"))
        env.run()
        assert log == ["batch1", "timer2", "batch3"]

    def test_cancel_drops_undelivered(self):
        env = Environment()
        log = []
        batch = env.push_batch([(1.0, "a"), (5.0, "b")], log.append)
        env.run(until=2)
        batch.cancel()
        env.run()
        assert log == ["a"]

    def test_batch_keeps_its_transmit_order_across_rearms(self):
        """One (time, seq) identity per batch: ties resolve as if every
        payload had its own timer, scheduled back to back."""
        def run(schedule):
            env = Environment()
            log = []
            schedule(env, [(2.0, "first@2"), (3.0, "first@3")], log.append)
            schedule(env, [(1.0, "second@1"), (3.0, "second@3")], log.append)
            env.run()
            return log

        def per_payload(env, items, deliver):
            for delay, payload in items:
                env.schedule(delay, deliver, payload)

        batched = run(lambda env, items, deliver:
                      env.push_batch(items, deliver))
        assert batched == run(per_payload)
        # The second batch re-armed first (at t=1), yet still fires last.
        assert batched[-2:] == ["first@3", "second@3"]

    def test_skip_is_asked_as_the_walker_advances(self):
        env = Environment()
        log, asked = [], []
        held = {"b", "c", "e"}

        def skip(payload):
            asked.append((env.now, payload))
            return payload in held

        env.push_batch([(1.0, "a"), (2.0, "b"), (3.0, "c"),
                        (4.0, "d"), (5.0, "e")], log.append, skip=skip)
        env.schedule(3.5, held.add, "d")  # too late: "d" is the armed head
        env.run()
        assert log == ["a", "d"]
        # Never about the first arrival; each later payload exactly once,
        # at the fire before it. A skipped payload is no event at all.
        assert asked == [(1.0, "b"), (1.0, "c"), (1.0, "d"), (4.0, "e")]
        assert env.batch_walks == 2 and env.batch_deliveries == 2
        assert env.events_processed == 3
        assert not env._heap

    def test_batch_does_not_reference_itself(self):
        import gc

        env = Environment()
        batch = env.push_batch([(1.0, "a"), (2.0, "b")], lambda p: None)
        assert not any(referent is batch
                       for referent in gc.get_referents(batch))

    def test_callback_with_argument(self):
        env = Environment()
        log = []
        env.schedule(1, log.append, "timed")
        env.schedule_now(log.append, "now")
        env.schedule(2, log.append, None)
        env.run()
        assert log == ["now", "timed", None]


class TestFailureSurfacing:
    """A callback's exception leaves ``run()`` as raised, on every exit
    path, and no later event fires."""

    @staticmethod
    def _boom() -> None:
        raise RuntimeError("boom")

    def test_stop_when_does_not_swallow_failures(self):
        """Regression: a failure in the very event that makes
        ``stop_when`` true used to be silently swallowed."""
        env = Environment()
        env.schedule_now(self._boom)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(stop_when=lambda: True)

    def test_until_exit_does_not_swallow_failures(self):
        env = Environment()
        env.schedule(1, self._boom)
        env.schedule(10, lambda: None)
        with pytest.raises(RuntimeError, match="boom"):
            env.run(until=5)

    def test_failure_stops_processing_of_later_events(self):
        env = Environment()
        log = []
        env.schedule_now(self._boom)
        env.schedule_now(log.append, "same instant")
        env.schedule(1, log.append, "after")
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert log == [] and env.events_processed == 0
