"""Wall-clock pacing for the discrete-event kernel.

:class:`LiveClock` subclasses :class:`repro.sim.loop.Environment`, so
the protocol layers' callbacks on its timer heap — ``schedule``,
``schedule_now`` — keep their exact ``(time, seq)`` ordering. The only
change is *when* timers fire: :meth:`run_async` pops the same merged
heap/immediate streams (through the kernel's own ``_pop_due`` step) in
*turns*. A turn reads the wall clock once, fires every entry due at
that instant — immediates the turn itself schedules included — and
then yields to the event loop once, so socket I/O is paid per burst,
not per event. A timer due in the future makes the coroutine actually
sleep (interrupted early by :meth:`kick` when a socket delivers work)
instead of jumping the clock forward. ``now`` is wall-clock seconds
since the run started, so ``lambda_priority = 0.25`` means a quarter
of a real second.
"""

from __future__ import annotations

import asyncio
from typing import Callable

from repro.sim.loop import Environment


def _release(waiter: asyncio.Future) -> None:
    if not waiter.done():
        waiter.set_result(None)


class LiveClock(Environment):
    """The event kernel, paced against ``asyncio``'s wall clock."""

    def __init__(self, tick: float = 0.25) -> None:
        super().__init__()
        #: Longest uninterrupted sleep; bounds how stale a ``stop_when``
        #: or deadline check can get while the queues are idle.
        self.tick = tick
        #: The future an idle :meth:`run_async` is parked on, if any.
        self._waiter: asyncio.Future | None = None
        #: Worst lateness observed between a timer's due time and the
        #: wall instant it actually fired (scheduling jitter + callback
        #: backlog) — the live analogue of sim determinism checks.
        self.max_lag = 0.0

    def kick(self) -> None:
        """Wake :meth:`run_async` early — new work arrived off-loop.

        Called by the transport when a socket reader schedules a drain
        of the envelopes it enqueued; without the kick the loop would
        finish its current sleep first, adding up to ``tick`` seconds
        of delivery latency. A kick while no sleep is parked is moot:
        the next turn sees the work the kicker queued.
        """
        if self._waiter is not None:
            _release(self._waiter)

    async def run_async(self, stop_when: Callable[[], bool] | None = None,
                        deadline: float | None = None) -> None:
        """Drive the timer queues in real time until ``stop_when``.

        Mirrors :meth:`Environment.run`: it pops through the same
        ``_pop_due`` step, ``stop_when`` is asked after every event, and
        a callback's exception propagates out of the event that raised
        it. A turn ends when nothing is due at its wall instant, which
        it reaches because no socket is read mid-turn.
        ``deadline`` is in clock seconds (``now``); exceeding it raises
        :class:`TimeoutError` — a live run that overruns its budget is
        a failure, not a longer wait. Unlike the sim loop, empty queues
        do not end the run (sockets may refill them); only ``stop_when``
        or the deadline do, so every call must pass ``stop_when``.
        """
        if stop_when is None:
            raise ValueError("run_async requires stop_when (live queues "
                             "refill from sockets; drained != done)")
        loop = asyncio.get_running_loop()
        origin = loop.time() - self.now
        pop_due = self._pop_due
        while not stop_when():
            wall = loop.time() - origin
            if deadline is not None and wall >= deadline:
                raise TimeoutError(
                    f"live run exceeded its {deadline:.1f}s deadline "
                    f"(now={self.now:.1f})")
            # Monotone wall time; never rewound to a timer's time, so a
            # late timer's callback still sees honest elapsed time.
            if wall > self.now:
                self.now = wall
            # The kernel's own pop: same pruning, same (time, seq)
            # merge as Environment.run, due against the turn's instant.
            while (timer := pop_due(wall)) is not None:
                lag = wall - timer.time
                if lag > self.max_lag:
                    self.max_lag = lag
                timer._fire()
                self.events_processed += 1
                if stop_when():
                    return
            due = self._next_time()
            wait = self.tick if due is None else min(
                due - (loop.time() - origin), self.tick)
            if wait <= 0:
                # Yield once so socket readers and link flushes run.
                await asyncio.sleep(0)
                continue
            waiter = self._waiter = loop.create_future()
            wakeup = loop.call_later(wait, _release, waiter)
            try:
                await waiter
            finally:
                wakeup.cancel()
                self._waiter = None
