"""Clock / Transport / Fabric protocols.

These are *structural* (``typing.Protocol``) rather than nominal base
classes on purpose: ``repro.sim.loop.Environment``,
``repro.network.gossip.NetworkInterface`` and
``repro.network.gossip.GossipNetwork`` predate this module and already
satisfy them unchanged, and the live implementations in
:mod:`repro.live` satisfy them by construction. ``runtime_checkable``
lets tests assert conformance with plain ``isinstance`` checks.
:class:`~repro.node.catchup.ChainSync`,
:func:`~repro.node.deployment.build_node` and
:class:`~repro.chaos.faults.FaultInjector` are typed against them, which
is why one copy of each serves both substrates.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

from repro.network.gossip import DropFilter, LinkShaper, ReceiveHook
from repro.network.message import Envelope


@runtime_checkable
class Clock(Protocol):
    """The scheduling surface protocol code runs against.

    In the sim substrate this is the discrete-event
    :class:`~repro.sim.loop.Environment` (virtual time, deterministic
    ``(time, seq)`` ordering); in the live substrate it is
    :class:`~repro.live.clock.LiveClock`, which fires the same timer
    queue paced against ``time.time()`` inside an asyncio loop. Every
    protocol wait is a callback on that queue — node code cannot tell
    the difference, and that is the point.
    """

    now: float

    def schedule(self, delay: float, callback: Callable[..., None],
                 arg: Any = ...) -> Any: ...

    def schedule_now(self, callback: Callable[..., None],
                     arg: Any = ...) -> Any: ...


@runtime_checkable
class Transport(Protocol):
    """The per-node message-passing surface.

    ``broadcast`` pushes an envelope toward every peer in ``neighbors``.
    An arriving copy goes dedup → the node's hook → hold → forward: the
    node wires itself in by *assigning* ``on_receive``, asked once per
    copy that survives dedup with ``(envelope, from_index)`` — its gate,
    then its router — and answering rejected (``None``), kept
    (``False``) or relayed (``True``). The gate may ``hold`` an id it
    drops when every other copy would be dropped alike. The node calls
    ``end_round`` at each round boundary (bounded dedup). Gossip metrics
    (``bytes_sent``/``messages_sent``) and liveness (``disconnected``)
    round out the surface the runtime layers read.
    """

    index: int
    neighbors: list[int]
    disconnected: bool
    bytes_sent: int
    messages_sent: int
    # The one assignment point (declared as an attribute so
    # implementations must expose it writable): the node's hook.
    on_receive: ReceiveHook

    def hold(self, msg_id: int) -> None: ...

    def broadcast(self, envelope: Envelope) -> None: ...

    def end_round(self) -> None: ...


@runtime_checkable
class Fabric(Protocol):
    """The two link hooks — all the power the adversary has over links.

    Whatever puts a message on a link (the sim's ``GossipNetwork`` for
    every node at once, a ``LiveTransport`` for its own outbound links)
    asks, per ``(src, dst)`` copy and in this order:
    ``drop_filter(src, dst, envelope)`` — true drops the copy — then
    ``link_shaper(src, dst, envelope, base_delay)`` for its arrival
    delays: empty drops it, more than one entry duplicates it. Both are
    ``None`` in a clean run.
    """

    drop_filter: DropFilter | None
    link_shaper: LinkShaper | None
