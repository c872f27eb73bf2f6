"""Substrate API: the seam between protocol code and what carries it.

The node agent, BA*, sortition, admission, damping, and obs layers never
cared whether time is virtual or wall-clock, or whether messages cross a
heap or a socket — they only ever used two object shapes:

* a **clock** exposing the :class:`repro.sim.loop.Environment` scheduling
  API (``now``, ``schedule``, ``schedule_now``: every protocol wait is a
  callback on the timer queue), and
* a **transport** exposing the
  :class:`repro.network.gossip.RelayCore` surface (``broadcast``,
  ``end_round``, ``hold``, ``disconnected``, plus the one
  ``on_receive`` hook the node assigns: an arriving copy goes dedup →
  the node's hook (gate → router) → hold → forward).

:mod:`repro.substrate.api` names that implicit seam as explicit
:class:`typing.Protocol` types — :class:`~repro.substrate.api.Clock` and
:class:`~repro.substrate.api.Transport`, plus
:class:`~repro.substrate.api.Fabric`, the two link hooks fault injection
is written against — so a second execution substrate is a *swap*, not a fork:

========== ============================== ===========================
substrate  clock                          transport
========== ============================== ===========================
``sim``    ``repro.sim.loop.Environment`` ``repro.network.gossip``
           (virtual, deterministic)       ``.NetworkInterface``
``live``   ``repro.live.clock.LiveClock`` ``repro.live.transport``
           (wall clock, asyncio)          ``.LiveTransport``
========== ============================== ===========================

Both rows are checked against these protocols in
``tests/test_substrate.py``; the two transports share one relay core
(``RelayCore``: dedup, receive order, counters) and are byte-movers.
"""
