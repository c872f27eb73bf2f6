"""Live substrate: real OS processes speaking the wire format over sockets.

The second execution substrate beside :mod:`repro.sim` (see
:mod:`repro.substrate` for the API both satisfy). Each node is its own
process running :class:`~repro.live.clock.LiveClock` — the discrete-event
kernel paced against the wall clock inside an asyncio loop — with a
:class:`~repro.live.transport.LiveTransport` exchanging length-prefixed
:mod:`repro.network.wire` frames over TCP or Unix domain sockets. The
node agent, BA*, sortition, admission, damping, and obs layers run
**unchanged**.

Entry points:

* :class:`~repro.live.cluster.LiveCluster` — the harness mirroring
  :class:`~repro.experiments.harness.Simulation`: forks N node
  processes from one node server and coordinates them, submits payments, runs R rounds, and
  collects chains and JSONL traces over a control socket.
* ``python -m repro.chaos --builtin clean --substrate live`` — a plain
  cluster run from the command line (any chaos spec runs here too).
* ``python -m repro.live.node_main`` — the node server a cluster
  starts once per run: it imports the node stack once and forks each
  node process, which runs as ``python -m repro.live.node_main
  <config.json>`` would (not usually run by hand).

Wall-clock numbers from this substrate are **not comparable** to the
virtual-time numbers from ``repro.sim`` — see ``docs/LIVE_MODE.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.live.clock import LiveClock
    from repro.live.cluster import LIVE_SMOKE_PARAMS, LiveCluster
    from repro.live.transport import LiveTransport

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.live.clock": ("LiveClock",),
    "repro.live.cluster": ("LIVE_SMOKE_PARAMS", "LiveCluster"),
    "repro.live.transport": ("LiveTransport",),
})

__all__ = [
    "LiveClock",
    "LiveCluster",
    "LiveTransport",
    "LIVE_SMOKE_PARAMS",
]
