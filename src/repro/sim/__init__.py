"""Discrete-event simulation kernel (virtual clock, callbacks, timers)."""

from repro.sim.loop import BatchSchedule, Environment, Timer

__all__ = [
    "Environment",
    "BatchSchedule",
    "Timer",
]
