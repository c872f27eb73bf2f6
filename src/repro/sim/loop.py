"""Deterministic discrete-event simulation kernel.

All Algorand nodes in this reproduction run as generator-based processes
over a virtual clock. The kernel is intentionally small (a la SimPy):

* :class:`Environment` owns the clock and the event heap.
* A *process* is a generator that yields *waitables*:
  :class:`Timeout`, :class:`Event`, another :class:`Process` (join), or
  :class:`AnyOf` (first-of-many). The yield expression evaluates to the
  waitable's value; ``AnyOf`` yields ``(index, value)``.

Determinism: events at equal times fire in scheduling order (a
monotonically increasing sequence number breaks ties), so a given seed
always reproduces the same run.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from typing import Any, Callable, Generator, Iterable

from repro.common.errors import SimulationError

_RECORD_TIME = operator.itemgetter(0)

#: ``Timer.arg`` value meaning "call ``callback()`` with no argument".
_NO_ARG: Any = object()


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    Heap entries are ``(time, seq, timer)`` tuples so ordering is decided
    by C-level tuple comparison (``seq`` is unique, so the Timer itself
    is never compared) — this is the event loop's hottest path.

    A timer carries ``(callback, arg)`` rather than a closure: it fires
    ``callback(arg)`` (or ``callback()`` when no ``arg`` was given), so
    waking a waiter costs no lambda and no cells. Both references are
    dropped the moment the timer fires or is cancelled; a cancelled
    timer left in the heap is an empty shell that pins nothing.
    """

    __slots__ = ("time", "seq", "callback", "arg", "cancelled", "_env")

    def __init__(self, time: float, seq: int, callback: Callable[..., None],
                 arg: Any, env: "Environment | None") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.arg = arg
        self.cancelled = False
        #: The owning environment while the timer sits in the *heap*
        #: (``None`` for immediates): tells it a heap entry went dead.
        self._env = env

    def _fire(self) -> None:
        callback, arg = self.callback, self.arg
        self.callback = self.arg = None
        if arg is _NO_ARG:
            callback()
        else:
            callback(arg)

    def cancel(self) -> None:
        if self.callback is None:  # already fired or cancelled
            return
        self.cancelled = True
        self.callback = self.arg = None
        if self._env is not None:
            self._env._heap_entry_died()


class Waitable:
    """Base class for things a process can yield.

    A *waiter* is any object with a ``_wake(value)`` method (a
    :class:`Process`, or one branch of an :class:`AnyOf`).
    """

    __slots__ = ()

    def _arm(self, env: "Environment", waiter: Any) -> Any:
        """Arrange one ``waiter._wake(value)``; return a handle.

        The handle's ``cancel()`` withdraws the wake-up if it has not
        been delivered to the event loop yet, and is a no-op afterwards.
        """
        raise NotImplementedError


class Timeout(Waitable):
    """Fires after ``delay`` simulated seconds with value ``value``."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay
        self.value = value

    def _arm(self, env: "Environment", waiter: Any) -> Timer:
        if self.delay == 0.0:
            return env.schedule_now(waiter._wake, self.value)
        return env.schedule(self.delay, waiter._wake, self.value)


class _EventWait:
    """Handle for one waiter parked on an untriggered :class:`Event`."""

    __slots__ = ("event", "waiter")

    def __init__(self, event: "Event", waiter: Any) -> None:
        self.event = event
        self.waiter = waiter

    def cancel(self) -> None:
        event = self.event
        if event is None:
            return
        # Once the event has triggered, the wake-up is already on the
        # event loop and the waiter itself decides whether it is stale.
        if not event.triggered:
            event._waiters.remove(self.waiter)
        self.event = self.waiter = None


class Event(Waitable):
    """One-shot event carrying a value; may have many waiters."""

    __slots__ = ("_env", "_waiters", "triggered", "value")

    def __init__(self, env: "Environment") -> None:
        self._env = env
        #: Parked waiters; ``None`` once triggered (nobody parks again).
        self._waiters: list[Any] | None = []
        self.triggered = False
        self.value: Any = None

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, None
        schedule_now = self._env.schedule_now
        for waiter in waiters:
            # Deliver on the event loop to keep callback ordering sane.
            schedule_now(waiter._wake, value)

    def _arm(self, env: "Environment", waiter: Any) -> "Timer | _EventWait":
        if self.triggered:
            return env.schedule_now(waiter._wake, self.value)
        self._waiters.append(waiter)
        return _EventWait(self, waiter)


class Signal:
    """Reusable broadcast: each :meth:`next_event` fires on next pulse."""

    __slots__ = ("_env", "_pending")

    def __init__(self, env: "Environment") -> None:
        self._env = env
        self._pending: Event | None = None

    def next_event(self) -> Event:
        """An event that fires at the next :meth:`pulse`."""
        if self._pending is None or self._pending.triggered:
            self._pending = Event(self._env)
        return self._pending

    def pulse(self, value: Any = None) -> None:
        if self._pending is not None and not self._pending.triggered:
            self._pending.trigger(value)


class _Branch:
    """The waiter an armed :class:`AnyOf` parks on one of its children."""

    __slots__ = ("wait", "index", "handle")

    def __init__(self, wait: "AnyOf", index: int) -> None:
        self.wait = wait
        self.index = index
        self.handle: Any = None

    def _wake(self, value: Any) -> None:
        wait = self.wait
        # ``None``: the wait already resolved (another child won, or it
        # was disarmed) — a late fire from a loser is ignored.
        if wait is not None:
            wait._resolve(self.index, value)


class AnyOf(Waitable):
    """Fires when the first of ``children`` fires; value ``(index, value)``.

    Arming parks one :class:`_Branch` on each child. The wait and its
    branches reference each other only while armed: the first child to
    fire — or :meth:`cancel` — unlinks every branch and cancels the
    other children's handles, so reference counting frees the whole
    wait the moment it resolves.
    """

    __slots__ = ("children", "_waiter", "_branches")

    def __init__(self, children: Iterable[Waitable]) -> None:
        self.children = list(children)
        if not self.children:
            raise SimulationError("AnyOf requires at least one waitable")
        self._waiter: Any = None
        self._branches: list[_Branch] | None = None

    def _arm(self, env: "Environment", waiter: Any) -> "AnyOf":
        if self._branches is not None:
            raise SimulationError("AnyOf is already armed")
        self._waiter = waiter
        self._branches = branches = []
        for index, child in enumerate(self.children):
            branch = _Branch(self, index)
            branches.append(branch)
            branch.handle = child._arm(env, branch)
        return self

    def _release(self, winner: int | None) -> None:
        """Unlink every branch; cancel all children but ``winner``."""
        branches = self._branches
        self._waiter = self._branches = None
        for branch in branches:
            handle = branch.handle
            branch.wait = branch.handle = None
            if branch.index != winner:
                handle.cancel()

    def _resolve(self, index: int, value: Any) -> None:
        waiter = self._waiter
        self._release(index)
        waiter._wake((index, value))

    def cancel(self) -> None:
        """Disarm: idempotent, and a no-op once the wait has fired."""
        if self._branches is not None:
            self._release(None)


ProcessGenerator = Generator[Waitable, Any, Any]


class Process(Waitable):
    """Drives a generator; itself waitable (join yields the return value)."""

    __slots__ = ("_env", "_generator", "name", "done", "result", "error",
                 "_done_event", "_finish_callbacks", "_wait")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str = "") -> None:
        self._env = env
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = False
        self.result: Any = None
        self.error: BaseException | None = None
        self._done_event = Event(env)
        self._finish_callbacks: list[Callable[["Process"], None]] = []
        #: Handle of the waitable the generator is blocked on.
        self._wait: Any = None
        env.schedule_now(self._wake, None)

    def _wake(self, value: Any) -> None:
        if self.done:
            return
        self._wait = None
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # propagate at env.run()
            self._finish(None, exc)
            return
        if target is None:
            target = Timeout(0.0)
        if not isinstance(target, Waitable):
            self._finish(None, SimulationError(
                f"process {self.name} yielded non-waitable "
                f"{type(target).__name__}"
            ))
            return
        self._wait = target._arm(self._env, self)

    def _finish(self, result: Any, error: BaseException | None) -> None:
        self.done = True
        self.result = result
        self.error = error
        if error is not None:
            self._env._record_failure(self, error)
        for callback in self._finish_callbacks:
            callback(self)
        self._done_event.trigger(result)

    def add_done_callback(self,
                          callback: Callable[["Process"], None]) -> None:
        """Call ``callback(process)`` synchronously when the process ends.

        Unlike joining the process (which resumes the waiter via the event
        loop), the callback runs inside the very event that finished the
        process — completion trackers see it before the next event fires.
        """
        if self.done:
            callback(self)
        else:
            self._finish_callbacks.append(callback)

    @property
    def running(self) -> bool:
        """True while the generator frame is actually executing.

        A process can observe this about *itself* through a callback
        chain (e.g. a commit hook retiring the committing agent); such
        a process cannot be interrupted — ``generator.close()`` on an
        executing frame raises — and does not need to be, since control
        returns to its own frame when the callback unwinds.
        """
        return self._generator.gi_running

    def interrupt(self) -> None:
        """Stop the process at its current wait point."""
        if self.done:
            return
        wait, self._wait = self._wait, None
        if wait is not None:
            wait.cancel()
        self._generator.close()
        self._finish(None, None)

    def _arm(self, env: "Environment", waiter: Any) -> Any:
        return self._done_event._arm(env, waiter)


class BatchSchedule:
    """One heap entry delivering a whole batch of timed payloads.

    Where ``schedule`` creates one ``Timer`` (plus one heap entry) per
    event, a batch walks a pre-sorted list of ``(time, payload)`` records
    with a single live heap entry that re-arms itself for the next
    distinct time. Payloads sharing an arrival time are delivered by one
    event, in insertion order. The gossip network uses this to schedule
    one event per destination batch instead of one per neighbor.

    A batch keeps **one** ``seq`` for its whole life — the one it drew
    when it was scheduled — so every payload fires exactly where "one
    ``schedule()`` per payload, back to back" would have put it, however
    often the walker re-arms. ``skip``, when given, is asked about each
    payload as the walker advances to it: a payload it answers ``True``
    for is dropped without ever becoming an event (the gossip layer
    skips copies whose receiver already holds the message). Because the
    key is stable, skipping cannot reorder the survivors.

    The event loop dispatches through :meth:`_fire`; the batch never
    stores a reference to itself (or to a bound method of itself), so it
    is freed by reference counting when its last payload is delivered.
    ``items`` are ``(absolute_time, payload)`` records; the batch takes
    the list over and sorts it in place.
    """

    __slots__ = ("time", "seq", "cancelled", "_env", "_items", "_deliver",
                 "_cursor", "_skip")

    def __init__(self, env: "Environment", seq: int,
                 items: list[tuple[float, Any]],
                 deliver: Callable[[Any], None],
                 skip: Callable[[Any], bool] | None = None) -> None:
        self._env = env
        self.seq = seq
        # Stable sort: payloads with equal times keep caller order.
        items.sort(key=_RECORD_TIME)
        self._items = items
        self._deliver = deliver
        self._skip = skip
        self._cursor = 0
        self.cancelled = False
        self.time = items[0][0]

    def _fire(self) -> None:
        items = self._items
        # Off the heap while it fires: a cancel() issued by one of its
        # own deliveries has no heap entry to retire.
        self._items = ()
        deliver = self._deliver
        cursor = start = self._cursor
        time = self.time
        n = len(items)
        while cursor < n and items[cursor][0] == time:
            payload = items[cursor][1]
            cursor += 1
            deliver(payload)
        env = self._env
        env.batch_walks += 1
        env.batch_deliveries += cursor - start
        skip = self._skip
        if skip is not None:
            while cursor < n and skip(items[cursor][1]):
                cursor += 1
        if cursor < n and not self.cancelled:
            self._items = items
            self._cursor = cursor
            self.time = time = items[cursor][0]
            heapq.heappush(env._heap, (time, self.seq, self))

    def cancel(self) -> None:
        """Drop all not-yet-delivered payloads."""
        if self.cancelled:
            return
        self.cancelled = True
        self._deliver = self._skip = None
        if self._items:  # queued in the heap
            self._items = ()
            self._env._heap_entry_died()


class Environment:
    """The event loop: virtual clock plus a timer heap.

    Two fast paths keep the hot loop cheap: delay-0 callbacks go onto a
    FIFO *immediate* queue (no heap traffic), and :meth:`schedule_batch`
    shares one heap entry across a whole batch of timed deliveries.
    Ordering is unchanged in both cases — every entry still carries a
    ``(time, seq)`` pair and fires in exactly the order a heap-only loop
    would have produced.

    Allocation contract: a heap entry is one ``(time, seq, handle)``
    tuple whose handle (:class:`Timer` or :class:`BatchSchedule`) holds
    ``(callback, arg)`` or a record list — never a closure, and never a
    reference to itself. Handles drop what they hold when they fire or
    are cancelled, so a steady-state round leaves nothing for the cyclic
    collector. Each cancel checks whether cancelled heap entries now
    outnumber the live ones and, if so, compacts them away; ``(time,
    seq)`` keys are never touched, so firing order does not depend on
    when compaction happens.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Timer | BatchSchedule]] = []
        self._immediate: deque[Timer] = deque()
        self._seq = 0
        #: Cancelled entries still sitting in :attr:`_heap`.
        self._dead = 0
        self._failures: list[tuple[Process, BaseException]] = []
        #: Total events fired across all :meth:`run` calls (perf metric).
        self.events_processed = 0
        #: Fast-path tallies (observability): how many events took the
        #: delay-0 immediate queue, and how much work BatchSchedule
        #: entries absorbed. Plain ints so the hot loop stays cheap; the
        #: obs layer harvests them into its registry at snapshot time.
        self.immediates_processed = 0
        self.batch_walks = 0
        self.batch_deliveries = 0

    def schedule(self, delay: float, callback: Callable[..., None],
                 arg: Any = _NO_ARG) -> Timer:
        """Fire ``callback()`` — or ``callback(arg)`` — after ``delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past ({delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        timer = Timer(time, seq, callback, arg, self)
        heapq.heappush(self._heap, (time, seq, timer))
        return timer

    def schedule_now(self, callback: Callable[..., None],
                     arg: Any = _NO_ARG) -> Timer:
        """Schedule ``callback`` at the current time without heap traffic.

        Equivalent to ``schedule(0.0, callback, arg)`` — including
        ordering relative to every other timer — but O(1): immediates
        carry the same monotone ``(time, seq)`` keys as heap timers, so
        the run loop can merge the two streams exactly.
        """
        timer = Timer(self.now, self._seq, callback, arg, None)
        self._seq += 1
        self._immediate.append(timer)
        return timer

    def schedule_batch(self, items: Iterable[tuple[float, Any]],
                       deliver: Callable[[Any], None],
                       skip: Callable[[Any], bool] | None = None,
                       ) -> BatchSchedule:
        """Schedule ``deliver(payload)`` for each ``(delay, payload)``.

        One :class:`BatchSchedule` walks the whole batch with a single
        live heap entry; same-time payloads are delivered by one event.
        Delays are relative to :attr:`now` and must be non-negative.
        ``skip(payload)``, when given, is consulted each time the walker
        advances past its first arrival; ``True`` drops that payload.
        """
        now = self.now
        records = []
        for delay, payload in items:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule in the past ({delay})")
            records.append((now + delay, payload))
        if not records:
            raise SimulationError("schedule_batch requires at least one item")
        return self.push_batch(records, deliver, skip)

    def push_batch(self, records: list[tuple[float, Any]],
                   deliver: Callable[[Any], None],
                   skip: Callable[[Any], bool] | None = None,
                   ) -> BatchSchedule:
        """:meth:`schedule_batch` for a caller that built the records.

        ``records`` are ``(absolute_time, payload)`` pairs, at least one,
        none earlier than :attr:`now` — the caller's guarantee, not
        checked again here (gossip egress adds non-negative offsets and
        latencies to ``now``). The batch takes the list over.
        """
        seq = self._seq
        self._seq = seq + 1
        batch = BatchSchedule(self, seq, records, deliver, skip)
        heapq.heappush(self._heap, (batch.time, seq, batch))
        return batch

    def _heap_entry_died(self) -> None:
        """A queued heap entry was cancelled; compact when dead > live."""
        self._dead = dead = self._dead + 1
        heap = self._heap
        if dead * 2 > len(heap):
            # In place: run loops hold an alias to the list.
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._dead = 0

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(delay, value)

    def event(self) -> Event:
        return Event(self)

    def signal(self) -> Signal:
        return Signal(self)

    def any_of(self, children: Iterable[Waitable]) -> AnyOf:
        return AnyOf(children)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        return Process(self, generator, name)

    def _record_failure(self, process: Process,
                        error: BaseException) -> None:
        self._failures.append((process, error))

    def _raise_if_failed(self) -> None:
        """Surface the first recorded process failure, if any."""
        if self._failures:
            process, error = self._failures[0]
            raise SimulationError(
                f"process {process.name!r} failed at t={self.now:.3f}"
            ) from error

    def _pop_due(self, limit: float) -> "Timer | BatchSchedule | None":
        """Pop the next live entry in ``(time, seq)`` order, if due.

        The one step every run loop shares (:meth:`run` here, the
        wall-clock ``LiveClock.run_async``): prune cancelled heads, merge
        the heap and immediate streams exactly, and pop the winner unless
        its time is later than ``limit``. ``None`` means nothing is due —
        the queues are empty or :meth:`_next_time` is past ``limit``.
        """
        heap = self._heap
        immediate = self._immediate
        # Drop cancelled heads so the head comparison sees live timers.
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        while immediate and immediate[0].cancelled:
            immediate.popleft()
        if immediate:
            # Immediates are FIFO with monotone keys, so their head is
            # their minimum.
            timer = immediate[0]
            time = timer.time
            if heap:
                head = heap[0]
                if head[0] < time or (head[0] == time
                                      and head[1] < timer.seq):
                    if head[0] > limit:
                        return None
                    return heapq.heappop(heap)[2]
            if time > limit:
                return None
            immediate.popleft()
            self.immediates_processed += 1
            return timer
        if not heap or heap[0][0] > limit:
            return None
        return heapq.heappop(heap)[2]

    def _next_time(self) -> float | None:
        """Due time of the earliest queued entry, ``None`` if idle.

        Exact right after :meth:`_pop_due` (cancelled heads pruned).
        """
        heap = self._heap
        immediate = self._immediate
        if immediate:
            time = immediate[0].time
            return min(time, heap[0][0]) if heap else time
        return heap[0][0] if heap else None

    def run(self, until: float | None = None,
            max_events: int | None = None,
            stop_when: Callable[[], bool] | None = None) -> None:
        """Run until the queues drain, ``until`` is reached, or cap hit.

        ``stop_when`` is evaluated after each event; returning True ends
        the run early (used to stop once every node process finished,
        without waiting out what is still on the wire).

        Raises the first process failure encountered on *every* exit path
        — including early returns via ``until`` and ``stop_when`` —
        so simulations never silently swallow node crashes.
        """
        events = 0
        limit = math.inf if until is None else until
        failures = self._failures
        pop_due = self._pop_due
        while True:
            if failures:
                self._raise_if_failed()
            handle = pop_due(limit)
            if handle is None:
                break
            self.now = handle.time
            handle._fire()
            events += 1
            self.events_processed += 1
            if stop_when is not None and stop_when():
                self._raise_if_failed()
                return
            if max_events is not None and events >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} (possible livelock)"
                )
        if until is not None:
            self.now = until
