"""Wall-clock pacing for the discrete-event kernel.

:class:`LiveClock` subclasses :class:`repro.sim.loop.Environment`, so
the protocol layers' callbacks on its timer heap — ``schedule``,
``schedule_now`` — keep their exact ``(time, seq)`` ordering. The only
change is *when* timers fire: :meth:`run_async` pops the same merged
heap/immediate streams (through the kernel's own ``_pop_due`` step),
but a timer due in the future makes
the coroutine actually sleep (interrupted early by :meth:`kick` when a
socket delivers work) instead of jumping the clock forward. ``now`` is
wall-clock seconds since the run started, so ``lambda_priority = 0.25``
means a quarter of a real second.
"""

from __future__ import annotations

import asyncio
from typing import Callable

from repro.sim.loop import Environment


class LiveClock(Environment):
    """The event kernel, paced against ``asyncio``'s wall clock."""

    def __init__(self, tick: float = 0.25) -> None:
        super().__init__()
        #: Longest uninterrupted sleep; bounds how stale a ``stop_when``
        #: or deadline check can get while the queues are idle.
        self.tick = tick
        self._wake: asyncio.Event | None = None
        #: Worst lateness observed between a timer's due time and the
        #: wall instant it actually fired (scheduling jitter + callback
        #: backlog) — the live analogue of sim determinism checks.
        self.max_lag = 0.0

    def kick(self) -> None:
        """Wake :meth:`run_async` early — new work arrived off-loop.

        Called by the transport when a socket reader enqueues envelopes
        (and schedules their drain); without the kick the loop would
        finish its current sleep first, adding up to ``tick`` seconds
        of delivery latency.
        """
        if self._wake is not None:
            self._wake.set()

    async def _sleep(self, duration: float) -> None:
        if duration <= 0:
            await asyncio.sleep(0)
            return
        assert self._wake is not None
        try:
            await asyncio.wait_for(self._wake.wait(), timeout=duration)
        except TimeoutError:
            return
        self._wake.clear()

    async def run_async(self, stop_when: Callable[[], bool] | None = None,
                        deadline: float | None = None) -> None:
        """Drive the timer queues in real time until ``stop_when``.

        Mirrors :meth:`Environment.run`: it pops through the same
        ``_pop_due`` step, and a callback's exception propagates out of
        the event that raised it.
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
        self._wake = asyncio.Event()
        origin = loop.time() - self.now
        try:
            while True:
                if stop_when():
                    return
                wall = loop.time() - origin
                if deadline is not None and wall >= deadline:
                    raise TimeoutError(
                        f"live run exceeded its {deadline:.1f}s deadline "
                        f"(now={self.now:.1f})")
                # The kernel's own pop: same pruning, same (time, seq)
                # merge as Environment.run, due against the wall clock.
                timer = self._pop_due(wall)
                if timer is None:
                    due = self._next_time()
                    await self._sleep(self.tick if due is None
                                      else min(due - wall, self.tick))
                    continue
                lag = wall - timer.time
                if lag > self.max_lag:
                    self.max_lag = lag
                # Monotone wall time; never rewound to timer.time, so a
                # late timer's callback still sees honest elapsed time.
                if wall > self.now:
                    self.now = wall
                timer._fire()
                self.events_processed += 1
                # Yield between callbacks so socket reader/writer tasks
                # interleave with protocol work instead of starving.
                await asyncio.sleep(0)
        finally:
            self._wake = None
