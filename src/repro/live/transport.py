"""Socket-backed gossip transport for live node processes.

:class:`LiveTransport` is the live byte-mover under the relay core:
what a node decides about a message — dedup, the §8.4 receive order,
what to forward, the ``gossip.*`` counters — is the
:class:`repro.network.gossip.RelayCore` it inherits, shared with the
sim interface. What is left here is bytes: one :class:`PeerLink` per
peer (a framed reader task and a queued writer task) and how little of
a frame is touched. Ingress pays once per message: a frame's
fixed-offset header is read first (one ``unpack_from``), a frame whose
``msg_id`` the core already holds is counted and dropped without its
body ever being sliced out, let alone decoded, and a relay forwards the
bytes it arrived as. Two live-only concerns are added:

* **Global msg_id uniqueness** — every process counts envelopes from
  zero, so locally-originated envelopes are re-stamped with an
  index-namespaced id (``(index << 40) | local_seq``) when sent;
  relayed envelopes keep their origin's id (that is what dedup keys on).
  The sequence space is further partitioned by process *incarnation*,
  so a respawned node never reuses ids its previous life already
  burned into peers' dedup sets.
* **Bounded, budgeted ingestion** — socket readers append to a bounded
  receive queue and schedule a drain on the clock; each drain processes
  at most ``drain_budget`` envelopes before rescheduling itself, so one
  chatty peer cannot starve protocol timers.

Three optional attachment points ride on the link layer, all ``None``
in a clean run:

* **The two link hooks** — ``drop_filter`` and ``link_shaper``, with the
  signatures and call order of the sim fabric (the transport is a
  :class:`repro.substrate.api.Fabric` for its own outbound links), so
  the one :class:`repro.chaos.faults.FaultInjector` compiles a fault
  schedule onto real sockets: a dropped copy is a frame that is never
  written, a delayed one is ``clock.schedule(delay, link.send, frame)``,
  a duplicated one is sent twice. The sockets themselves stay open — a
  partition is packets disappearing, nobody gets a FIN.
* **Link-down notification** — when a link's reader or writer dies
  (peer crashed, connection reset), :attr:`LiveTransport.on_link_down`
  fires once with the peer index so the owner can schedule a reconnect
  with capped exponential backoff.
"""

from __future__ import annotations

import asyncio
import dataclasses
from collections import deque
from typing import Callable

from repro.live.clock import LiveClock
from repro.network.gossip import DropFilter, LinkShaper, RelayCore
from repro.network.message import Envelope
from repro.network.wire import (
    EnvelopeHeader,
    FrameDecoder,
    WireError,
    decode_envelope_body,
    decode_envelope_header,
    encode_envelope,
    encode_frame,
)

#: Bits reserved for the per-process envelope sequence number; the node
#: index occupies the bits above, making ids globally unique without
#: coordination for clusters up to 2**23 nodes and 2**40 messages.
MSG_ID_SEQ_BITS = 40


class PeerLink:
    """One live connection: framed reader + queued writer, both tasks."""

    def __init__(self, transport: "LiveTransport", peer: int,
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.transport = transport
        self.peer = peer
        self.reader = reader
        self.writer = writer
        self.decoder = FrameDecoder()
        self.closed = False
        self._down_notified = False
        self._tasks: list[asyncio.Task] = []
        #: Per-peer outbound queue: broadcast never blocks on a slow
        #: peer; its writer task drains the queue at the socket's pace.
        self._outbound: asyncio.Queue[bytes | None] = asyncio.Queue()

    def start(self) -> None:
        self._tasks = [
            asyncio.create_task(self._read_loop(),
                                name=f"link-read-{self.peer}"),
            asyncio.create_task(self._write_loop(),
                                name=f"link-write-{self.peer}"),
        ]

    def send(self, frame: bytes) -> None:
        if not self.closed:
            self._outbound.put_nowait(frame)

    async def _write_loop(self) -> None:
        try:
            while True:
                frame = await self._outbound.get()
                if frame is None:
                    break
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.closed = True
            self.transport._link_lost(self)

    async def _read_loop(self) -> None:
        try:
            while True:
                data = await self.reader.read(65536)
                if not data:
                    break
                for payload in self.decoder.feed(data):
                    self.transport._on_payload(self.peer, payload)
        except (ConnectionError, asyncio.CancelledError):
            pass
        except WireError:
            # Desynced or malicious stream: the frame boundary is gone
            # for good, so the connection is dropped, not resynced.
            self.transport.garbage_streams += 1
        finally:
            self.closed = True
            self.transport._link_lost(self)

    async def close(self) -> None:
        self.closed = True
        self._outbound.put_nowait(None)
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except Exception:
            pass


class LiveTransport(RelayCore):
    """The live byte-mover: a node's gossip attachment over real sockets.

    Satisfies :class:`repro.substrate.Transport` through the
    :class:`~repro.network.gossip.RelayCore` it shares with the sim.
    """

    def __init__(self, index: int, clock: LiveClock, *,
                 drain_budget: int, rx_queue_limit: int,
                 seen_horizon_rounds: int,
                 incarnation: int = 0, obs=None) -> None:
        super().__init__(index, seen_horizon_rounds, obs)
        self.clock = clock
        #: Actual frame bytes handed to the sockets (wire truth; the
        #: core's ``bytes_sent`` is the logical size the sim charges).
        self.wire_bytes_sent = 0
        self.drain_budget = drain_budget
        self.rx_queue_limit = rx_queue_limit
        self.rx_dropped = 0
        self.garbage_frames = 0
        self.garbage_streams = 0
        #: The fault hooks, asked once per peer copy in ``_send``
        #: with this node as ``src`` (see :class:`Fabric`).
        self.drop_filter: DropFilter | None = None
        self.link_shaper: LinkShaper | None = None
        #: Copies the hooks dropped / sent late.
        self.fault_dropped_frames = 0
        self.fault_delayed_frames = 0
        #: Callback fired (once per link) when a link's reader or writer
        #: dies — the owner decides whether to redial. :meth:`close`
        #: detaches it: a link torn down on purpose is not a lost one.
        self.on_link_down: Callable[[int], None] | None = None
        #: Dial attempts and successes after a lost link (the owner's
        #: backoff loop increments these; counted here so they travel
        #: with the rest of the transport stats).
        self.reconnect_attempts = 0
        self.reconnects = 0
        self.links: dict[int, PeerLink] = {}
        #: ``(peer, validated header, frame payload)`` awaiting a drain.
        self._rx: deque[tuple[int, EnvelopeHeader, bytes]] = deque()
        self._drain_scheduled = False
        # A respawned process must not reuse its predecessor's msg_ids —
        # peers hold them in their dedup sets and would silently drop
        # the newcomer's first envelopes (including its catch-up
        # requests). Partition the 40-bit sequence space by incarnation:
        # 2**8 lives of 2**32 messages each.
        self._local_seq = int(incarnation) << 32

    # -- link management ------------------------------------------------

    @staticmethod
    def _close_soon(link: PeerLink) -> None:
        """Schedule an async link close; drop it when no loop runs.

        Outside a running event loop (unit tests poking the transport
        synchronously) there is nothing to await the close — abandoning
        it is fine, no socket exists there.
        """
        coro = link.close()
        try:
            asyncio.ensure_future(coro)
        except RuntimeError:
            coro.close()

    def add_link(self, link: PeerLink) -> None:
        stale = self.links.get(link.peer)
        if stale is not None and stale is not link:
            # Reconnect replaced a dead (or half-dead) link: retire the
            # old tasks so their teardown cannot clobber the new link.
            self._close_soon(stale)
        self.links[link.peer] = link
        self.neighbors = sorted(self.links)

    def _link_lost(self, link: PeerLink) -> None:
        if link._down_notified:
            return
        link._down_notified = True
        if (self.links.get(link.peer) is link
                and self.on_link_down is not None):
            self.on_link_down(link.peer)

    async def close(self) -> None:
        self.disconnected = True
        self.on_link_down = None
        for link in self.links.values():
            await link.close()

    # -- sending --------------------------------------------------------

    def send_to(self, envelope: Envelope, targets: list[int]) -> None:
        """Originate ``envelope`` under an id from this process's namespace."""
        stamped = dataclasses.replace(
            envelope,
            msg_id=(self.index << MSG_ID_SEQ_BITS) | self._local_seq)
        self._local_seq += 1
        super().send_to(stamped, targets)

    def _send(self, envelope: Envelope, targets: list[int],
              raw: bytes | None = None) -> None:
        """Frame once — a relay's ``raw`` bytes as they arrived, no
        re-encode — and queue the frame on each target's open link."""
        frame = encode_frame(raw if raw is not None
                             else encode_envelope(envelope))
        shaped = (self.drop_filter is not None
                  or self.link_shaper is not None)
        sent = 0
        for peer in targets:
            link = self.links.get(peer)
            if link is None or link.closed:
                continue
            if shaped:
                sent += self._send_shaped(link, frame, envelope)
            else:
                link.send(frame)
                sent += 1
        if sent:
            self.wire_bytes_sent += sent * len(frame)
            self._count_sent(envelope, sent)

    def _send_shaped(self, link: PeerLink, frame: bytes,
                     envelope: Envelope) -> int:
        """One peer's copy through the fault hooks; returns copies sent.

        Same order as the sim fabric's ``_shaped_delays`` —
        ``drop_filter``, base delay (0.0: the socket is the latency),
        ``link_shaper``. A late copy rides the clock, whose
        ``(time, seq)`` order keeps a link's equal delays in send order.
        """
        src, dst = self.index, link.peer
        delays = [0.0]
        if self.drop_filter is not None and self.drop_filter(src, dst,
                                                             envelope):
            delays = []
        elif self.link_shaper is not None:
            delays = self.link_shaper(src, dst, envelope, 0.0)
        if not delays:
            self.fault_dropped_frames += 1
            if self._metrics is not None:
                self._metrics.inc("gossip.filtered")
        for delay in delays:
            if delay > 0.0:
                self.fault_delayed_frames += 1
                self.clock.schedule(delay, link.send, frame)
            else:
                link.send(frame)
        return len(delays)

    # -- receiving ------------------------------------------------------

    def _on_payload(self, peer: int, payload: bytes) -> None:
        """Socket reader handoff: header, dedup, enqueue, schedule a drain.

        Runs on the asyncio side (never inside a protocol callback);
        protocol code only ever sees envelopes from :meth:`_drain`,
        which the clock fires like any other event. Only the
        fixed-offset header is read here; a copy of a message this node
        already holds stops at the dedup store and costs neither a
        queue slot nor a look at its body.
        """
        try:
            header = decode_envelope_header(payload)
        except WireError:
            self.garbage_frames += 1
            return
        if self._drop_duplicate(header[0]):
            return
        if len(self._rx) >= self.rx_queue_limit:
            self._rx.popleft()
            self.rx_dropped += 1
        self._rx.append((peer, header, payload))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.clock.schedule_now(self._drain)
        self.clock.kick()

    def _drain(self) -> None:
        self._drain_scheduled = False
        budget = self.drain_budget
        while self._rx and budget > 0:
            budget -= 1
            self._deliver(*self._rx.popleft())
        if self._rx and not self._drain_scheduled:
            self._drain_scheduled = True
            self.clock.schedule_now(self._drain)

    def _deliver(self, from_peer: int, header: EnvelopeHeader,
                 payload: bytes) -> None:
        """Decode one queued frame's body and hand it to the core."""
        if self._drop_duplicate(header[0]):
            # Two copies can sit in one drain: the second is caught here.
            return
        try:
            envelope = decode_envelope_body(header, payload)
        except WireError:
            self.garbage_frames += 1
            return
        self.receive(envelope, from_peer, raw=payload)

    def stats(self) -> dict:
        # ``bytes_sent`` is ``gossip.sent_bytes.*``'s; ``messages_sent``
        # (``gossip.sent.*``'s) stays while the benchmark reads it.
        return {
            "messages_sent": self.messages_sent,
            "wire_bytes_sent": self.wire_bytes_sent,
            "rx_dropped": self.rx_dropped,
            "garbage_frames": self.garbage_frames,
            "garbage_streams": self.garbage_streams,
            "links": len(self.links),
            "reconnect_attempts": self.reconnect_attempts,
            "reconnects": self.reconnects,
            "fault_dropped_frames": self.fault_dropped_frames,
            "fault_delayed_frames": self.fault_delayed_frames,
        }
