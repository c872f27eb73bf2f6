"""Deterministic discrete-event simulation kernel: callbacks on a timer heap.

All Algorand nodes in this reproduction run over one virtual clock, and
everything they do is a callback the clock fires. :class:`Environment`
owns the clock, the timer heap and a FIFO of same-instant callbacks. A
protocol wait is ``env.schedule(delay, continuation)`` — a node's round
is explicit state that its callbacks advance (``repro.node.agent``), and
a vote count parks on the buffer and on its deadline timer
(``repro.baplus.voting``). Nothing in the kernel suspends a frame.

Determinism: events at equal times fire in scheduling order (a
monotonically increasing sequence number breaks ties), so a given seed
always reproduces the same run. An exception raised by a callback
leaves :meth:`Environment.run` at once, and no later event fires.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import deque
from typing import Any, Callable

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
        # Nothing cancels a batch; the loop reads this off every entry.
        self.cancelled = False
        self.time = items[0][0]

    def _fire(self) -> None:
        items = self._items
        # Off the heap while it fires.
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


class Environment:
    """The event loop: virtual clock plus a timer heap.

    Two fast paths keep the hot loop cheap: delay-0 callbacks go onto a
    FIFO *immediate* queue (no heap traffic), and :meth:`push_batch`
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

    def push_batch(self, records: list[tuple[float, Any]],
                   deliver: Callable[[Any], None],
                   skip: Callable[[Any], bool] | None = None,
                   ) -> BatchSchedule:
        """Schedule ``deliver(payload)`` for each ``(time, payload)``.

        One :class:`BatchSchedule` walks the whole batch with a single
        live heap entry; same-time payloads are delivered by one event.
        ``records`` are ``(absolute_time, payload)`` pairs, at least one,
        none earlier than :attr:`now` — the caller's guarantee, not
        checked here (gossip egress adds non-negative offsets and
        latencies to ``now``). The batch takes the list over.
        ``skip(payload)``, when given, is consulted each time the walker
        advances past its first arrival; ``True`` drops that payload.
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
        the run early (used to stop once every node's run ended, without
        waiting out what is still on the wire). A callback's exception
        propagates out of the event that raised it.
        """
        events = 0
        limit = math.inf if until is None else until
        pop_due = self._pop_due
        while True:
            handle = pop_due(limit)
            if handle is None:
                break
            self.now = handle.time
            handle._fire()
            events += 1
            self.events_processed += 1
            if stop_when is not None and stop_when():
                return
            if max_events is not None and events >= max_events:
                raise SimulationError(
                    f"exceeded max_events={max_events} (possible livelock)"
                )
        if until is not None:
            self.now = until
