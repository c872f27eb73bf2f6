"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.common.errors import SimulationError
from repro.sim.loop import AnyOf, Environment, Timeout


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


class TestProcesses:
    def test_timeout_resumes(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(2)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [2.0]

    def test_return_value_via_join(self):
        env = Environment()
        results = []

        def child():
            yield env.timeout(1)
            return "done"

        def parent():
            value = yield env.process(child())
            results.append(value)

        env.process(parent())
        env.run()
        assert results == ["done"]

    def test_event_trigger_delivers_value(self):
        env = Environment()
        event = env.event()
        got = []

        def waiter():
            value = yield event
            got.append(value)

        env.process(waiter())
        env.schedule(3, lambda: event.trigger("payload"))
        env.run()
        assert got == ["payload"]

    def test_event_double_trigger_rejected(self):
        env = Environment()
        event = env.event()
        event.trigger(1)
        with pytest.raises(SimulationError):
            event.trigger(2)

    def test_already_triggered_event_resumes_immediately(self):
        env = Environment()
        event = env.event()
        event.trigger("early")
        got = []

        def waiter():
            value = yield event
            got.append((value, env.now))

        env.process(waiter())
        env.run()
        assert got == [("early", 0.0)]

    def test_process_error_surfaces_in_run(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise RuntimeError("boom")

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_yielding_garbage_is_an_error(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_interrupt_stops_process(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(10)
            log.append("should not happen")

        process = env.process(proc())
        env.schedule(1, process.interrupt)
        env.run()
        assert log == []
        assert process.done


class TestAnyOf:
    def test_first_wins(self):
        env = Environment()
        got = []

        def proc():
            result = yield env.any_of([env.timeout(5, "slow"),
                                       env.timeout(1, "fast")])
            got.append((result, env.now))

        env.process(proc())
        env.run()
        assert got == [((1, "fast"), 1.0)]

    def test_loser_is_disarmed(self):
        """After AnyOf resolves, the losing timeout must not resume the
        process again."""
        env = Environment()
        resumes = []

        def proc():
            yield env.any_of([env.timeout(1), env.timeout(2)])
            resumes.append(env.now)
            yield env.timeout(10)
            resumes.append(env.now)

        env.process(proc())
        env.run()
        assert resumes == [1.0, 11.0]

    def test_event_and_timeout_race(self):
        env = Environment()
        signal = env.signal()
        got = []

        def proc():
            index, value = yield env.any_of([signal.next_event(),
                                             env.timeout(10)])
            got.append((index, value, env.now))

        env.process(proc())
        env.schedule(2, lambda: signal.pulse("hello"))
        env.run()
        assert got == [(0, "hello", 2.0)]

    def test_empty_anyof_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            AnyOf([])

    def test_late_fire_from_losing_child_is_ignored(self):
        """Both events trigger inside one callback: the loser's wake-up
        is already on the event loop when the winner resolves the wait,
        and must not resume the process a second time."""
        env = Environment()
        first, second = env.event(), env.event()
        resumes = []

        def proc():
            result = yield env.any_of([first, second])
            resumes.append(result)
            yield env.timeout(10)
            resumes.append(env.now)

        def trigger_both():
            first.trigger("a")
            second.trigger("b")

        env.process(proc())
        env.schedule(1, trigger_both)
        env.run()
        assert resumes == [(0, "a"), 11.0]

    def test_disarm_is_idempotent_and_noop_after_fire(self):
        env = Environment()
        woken = []

        class Waiter:
            def _wake(self, value):
                woken.append(value)

        signal = env.signal()
        wait = env.any_of([signal.next_event(), env.timeout(5, "late")])
        handle = wait._arm(env, Waiter())
        handle.cancel()
        handle.cancel()
        signal.pulse("ignored")
        env.run()
        assert woken == []

        wait = env.any_of([env.timeout(1, "fast"), env.timeout(5, "slow")])
        handle = wait._arm(env, Waiter())
        env.run(until=2)
        assert woken == [(0, "fast")]
        handle.cancel()  # after fire: nothing left to withdraw
        env.run()
        assert woken == [(0, "fast")]

    def test_interrupt_cancels_every_child(self):
        env = Environment()
        signal = env.signal()
        fired = []

        def proc():
            yield env.any_of([signal.next_event(), env.timeout(3),
                              env.timeout(7)])
            fired.append("resumed")

        process = env.process(proc())
        env.run(until=1)
        event = signal.next_event()
        timers = [entry[2] for entry in env._heap]
        assert len(event._waiters) == 1 and len(timers) == 2
        process.interrupt()
        assert event._waiters == []
        assert all(t.cancelled and t.callback is None for t in timers)
        signal.pulse()
        env.run()
        assert fired == [] and process.done

    def test_resolved_wait_is_freed_without_the_collector(self):
        """No reference cycle survives a resolved wait: with the cyclic
        collector off, everything the losing far-future timeout pinned
        dies the moment the process drops the wait."""
        import gc
        import weakref

        class Marker:
            pass

        env = Environment()
        signal = env.signal()
        refs = []

        def proc():
            marker = Marker()
            refs.append(weakref.ref(marker))
            wait = env.any_of([signal.next_event(),
                               env.timeout(1000.0, marker)])
            del marker
            yield wait
            del wait
            yield env.timeout(1)

        gc.collect()
        gc.disable()
        try:
            env.process(proc())
            env.schedule(0.5, signal.pulse)
            env.run(until=1)
            assert refs[0]() is None
        finally:
            gc.enable()


class TestDeadTimers:
    def test_cancel_releases_callback_at_once(self):
        env = Environment()
        timer = env.schedule(100, lambda: None)
        timer.cancel()
        assert timer.cancelled and timer.callback is None
        timer.cancel()  # idempotent

    def test_cancelled_far_future_timeouts_do_not_pile_up(self):
        """10,000 waits each lose a far-future timeout: the heap must
        stay bounded, and the surviving timers fire in (time, seq)
        order exactly as if nothing had ever been compacted."""
        env = Environment()
        signal = env.signal()
        log = []
        high_water = [0]
        for k in range(50):
            env.schedule(500.0 + (k * 7) % 13, lambda k=k: log.append(k))

        def waiter():
            for _ in range(10_000):
                yield env.any_of([signal.next_event(),
                                  env.timeout(1000.0)])
                high_water[0] = max(high_water[0], len(env._heap))

        def pulser():
            for _ in range(10_000):
                yield env.timeout(0.001)
                signal.pulse()

        env.process(waiter())
        env.process(pulser())
        env.run()
        # 50 survivors + pulser timeout + the live wait: dead entries
        # may at most equal the live ones before compaction strikes.
        assert high_water[0] <= 2 * 52 + 2
        assert log == sorted(range(50),
                             key=lambda k: (500.0 + (k * 7) % 13, k))

    def test_compaction_keeps_batches_and_order(self):
        env = Environment()
        log = []
        env.schedule_batch([(5.0, "b5"), (9.0, "b9")], log.append)
        doomed = [env.schedule(7.0, lambda: log.append("x"))
                  for _ in range(20)]
        env.schedule(6.0, lambda: log.append("t6"))
        for timer in doomed:
            timer.cancel()
        assert len(env._heap) <= 4
        env.run()
        assert log == ["b5", "t6", "b9"]


class TestSignal:
    def test_signal_reusable(self):
        env = Environment()
        signal = env.signal()
        got = []

        def listener():
            for _ in range(3):
                value = yield signal.next_event()
                got.append(value)

        env.process(listener())
        for i, delay in enumerate((1, 2, 3)):
            env.schedule(delay, lambda i=i: signal.pulse(i))
        env.run()
        assert got == [0, 1, 2]

    def test_pulse_without_waiters_is_noop(self):
        env = Environment()
        signal = env.signal()
        signal.pulse("ignored")
        env.run()


class TestTimeoutValidation:
    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-0.5)


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
        env.schedule_batch([(2.0, "b"), (1.0, "a"), (2.0, "c")],
                           lambda p: log.append((env.now, p)))
        env.run()
        assert log == [(1.0, "a"), (2.0, "b"), (2.0, "c")]

    def test_same_time_payloads_share_one_event(self):
        env = Environment()
        log = []
        env.schedule_batch([(1.0, i) for i in range(5)], log.append)
        env.run()
        assert log == [0, 1, 2, 3, 4]
        assert env.events_processed == 1

    def test_interleaves_with_plain_timers(self):
        env = Environment()
        log = []
        env.schedule_batch([(1.0, "batch1"), (3.0, "batch3")],
                           log.append)
        env.schedule(2.0, lambda: log.append("timer2"))
        env.run()
        assert log == ["batch1", "timer2", "batch3"]

    def test_cancel_drops_undelivered(self):
        env = Environment()
        log = []
        batch = env.schedule_batch([(1.0, "a"), (5.0, "b")], log.append)
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
                      env.schedule_batch(items, deliver))
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

        env.schedule_batch([(1.0, "a"), (2.0, "b"), (3.0, "c"),
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

    def test_empty_batch_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule_batch([], lambda p: None)

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.schedule_batch([(1.0, "a"), (-0.5, "b")], lambda p: None)

    def test_batch_does_not_reference_itself(self):
        import gc

        env = Environment()
        batch = env.schedule_batch([(1.0, "a"), (2.0, "b")], lambda p: None)
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
    def test_stop_when_does_not_swallow_failures(self):
        """Regression: a failure recorded by the very event that makes
        ``stop_when`` true used to be silently swallowed."""
        env = Environment()

        def boom():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        env.process(boom(), "boom")
        with pytest.raises(SimulationError):
            env.run(stop_when=lambda: True)

    def test_until_exit_does_not_swallow_failures(self):
        env = Environment()

        def boom():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        env.process(boom(), "boom")
        env.schedule(10, lambda: None)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_failure_stops_processing_of_later_events(self):
        env = Environment()
        log = []

        def boom():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        env.process(boom(), "boom")
        env.schedule(1, lambda: log.append("after"))
        with pytest.raises(SimulationError):
            env.run()
        assert log == []


class TestDoneCallbacks:
    def test_done_callback_fires_synchronously_on_finish(self):
        env = Environment()
        done = []

        def worker():
            yield env.timeout(2)
            return "result"

        process = env.process(worker())
        process.add_done_callback(lambda p: done.append(env.now))
        env.run()
        assert done == [2.0]

    def test_done_callback_on_already_finished_process(self):
        env = Environment()

        def worker():
            yield env.timeout(1)

        process = env.process(worker())
        env.run()
        done = []
        process.add_done_callback(done.append)
        assert done == [process]
