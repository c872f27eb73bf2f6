"""Discrete-event simulation kernel (virtual clock, callbacks, timers)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.sim.loop import BatchSchedule, Environment, Timer

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.loop": ("BatchSchedule", "Environment", "Timer"),
})

__all__ = [
    "Environment",
    "BatchSchedule",
    "Timer",
]
