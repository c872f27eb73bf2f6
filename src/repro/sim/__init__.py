"""Discrete-event simulation kernel (virtual clock, callbacks, timers)."""
