"""Socket-backed gossip transport for live node processes.

:class:`LiveTransport` exposes the exact
:class:`repro.network.gossip.NetworkInterface` surface the node agent
and admission gate assign into (``broadcast``, ``relay_policy``,
``ingress``, ``disconnected``, the metric counters), but moves bytes
over real stream connections: one :class:`PeerLink` per peer, each with
a framed reader task and a queued writer task.

Delivery semantics mirror the sim interface deliberately —
validate-before-relay (§8.4), dedup by ``msg_id`` *after* the ingress
gate (a rejected copy does not poison a later clean one), synchronous
dispatch through ``relay_policy``. Ingress pays once per message, like
the sim: a frame's fixed-offset header is read first (one
``unpack_from``), and a frame whose ``msg_id`` is already in the
seen-set is counted and dropped without its body ever being sliced out,
let alone decoded. Two live-only concerns are added:

* **Global msg_id uniqueness** — every process counts envelopes from
  zero, so locally-originated envelopes are re-stamped with an
  index-namespaced id (``(index << 40) | local_seq``) at broadcast;
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
from repro.network.gossip import DropFilter, LinkShaper
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


class LiveTransport:
    """A node's gossip attachment over real sockets.

    Satisfies :class:`repro.substrate.Transport`; the node wires in via
    ``relay_policy`` and the admission gate via ``ingress``, exactly as
    with the sim interface.
    """

    def __init__(self, index: int, clock: LiveClock, *,
                 drain_budget: int, rx_queue_limit: int,
                 incarnation: int = 0, obs=None) -> None:
        self.index = index
        self.clock = clock
        self.obs = obs
        self.neighbors: list[int] = []
        self.relay_policy: Callable[[Envelope], bool] = lambda envelope: True
        self.ingress: Callable[[Envelope, int], bool] | None = None
        self.disconnected = False
        #: Logical bytes (the calibrated envelope sizes the sim charges),
        #: counted per peer transmission — same accounting as the sim
        #: interface, so cost experiments read either substrate alike.
        self.bytes_sent = 0
        self.messages_sent = 0
        #: Actual frame bytes handed to the sockets (wire truth).
        self.wire_bytes_sent = 0
        self.drain_budget = drain_budget
        self.rx_queue_limit = rx_queue_limit
        self.rx_dropped = 0
        self.garbage_frames = 0
        self.garbage_streams = 0
        #: The fault hooks, asked once per peer copy in ``_send_frames``
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
        self._links: dict[int, PeerLink] = {}
        #: Dedup state, one generation of msg_ids per round: the current
        #: one, and the ``horizon_rounds`` before it (:meth:`end_round`).
        self._seen: set[int] = set()
        self._seen_before: deque[set[int]] = deque()
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
        stale = self._links.get(link.peer)
        if stale is not None and stale is not link:
            # Reconnect replaced a dead (or half-dead) link: retire the
            # old tasks so their teardown cannot clobber the new link.
            self._close_soon(stale)
        self._links[link.peer] = link
        self.neighbors = sorted(self._links)

    def _link_lost(self, link: PeerLink) -> None:
        if link._down_notified:
            return
        link._down_notified = True
        if (self._links.get(link.peer) is link
                and self.on_link_down is not None):
            self.on_link_down(link.peer)

    @property
    def links(self) -> dict[int, PeerLink]:
        return self._links

    async def close(self) -> None:
        self.disconnected = True
        self.on_link_down = None
        for link in self._links.values():
            await link.close()

    # -- sending --------------------------------------------------------

    def broadcast(self, envelope: Envelope) -> None:
        """Originate ``envelope``: re-stamp its id, frame, send to all."""
        if self.disconnected:
            return
        stamped = dataclasses.replace(
            envelope,
            msg_id=(self.index << MSG_ID_SEQ_BITS) | self._local_seq)
        self._local_seq += 1
        self._seen.add(stamped.msg_id)
        self._send_frames(encode_frame(encode_envelope(stamped)),
                          stamped, exclude=None)

    def _send_frames(self, frame: bytes, envelope: Envelope,
                     exclude: int | None) -> None:
        shaped = (self.drop_filter is not None
                  or self.link_shaper is not None)
        sent = 0
        for peer, link in list(self._links.items()):
            if peer == exclude or link.closed:
                continue
            if shaped:
                sent += self._send_shaped(link, frame, envelope)
            else:
                link.send(frame)
                sent += 1
        if not sent:
            return
        self.bytes_sent += sent * envelope.size
        self.messages_sent += sent
        self.wire_bytes_sent += sent * len(frame)
        if self.obs is not None:
            metrics = self.obs.metrics
            metrics.inc("gossip.sent." + envelope.kind, sent)
            metrics.inc("gossip.sent_bytes." + envelope.kind,
                        sent * envelope.size)

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
            if self.obs is not None:
                self.obs.metrics.inc("gossip.filtered")
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
        already holds stops at the seen-set and costs neither a queue
        slot nor a look at its body.
        """
        try:
            header = decode_envelope_header(payload)
        except WireError:
            self.garbage_frames += 1
            return
        if self._holds(header[0]):
            self._count_duplicate()
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

    def _holds(self, msg_id: int) -> bool:
        """Is ``msg_id`` in any dedup generation still kept?"""
        if msg_id in self._seen:
            return True
        for generation in self._seen_before:
            if msg_id in generation:
                return True
        return False

    def end_round(self, horizon_rounds: int | None) -> None:
        """Round boundary: start a fresh dedup generation.

        Live ids are not monotone across origins, so the sim's
        watermark pruning does not apply; instead the ids of each round
        form one generation and the ``horizon_rounds`` latest finished
        ones are kept beside the current. As in the sim, a copy that
        straggles in after its generation is gone is accepted once more
        (the protocol layer's stale-round checks discard it unrelayed),
        and ``None`` keeps everything.
        """
        if horizon_rounds is None:
            return
        self._seen_before.appendleft(self._seen)
        while len(self._seen_before) > horizon_rounds:
            self._seen_before.pop()
        self._seen = set()

    def _count_duplicate(self) -> None:
        if self.obs is not None and not self.disconnected:
            self.obs.metrics.inc("gossip.dup_dropped")

    def _deliver(self, from_peer: int, header: EnvelopeHeader,
                 payload: bytes) -> None:
        """Mirror of ``NetworkInterface._deliver``, relay over sockets."""
        if self.disconnected or self._holds(header[0]):
            # Two copies can sit in one drain: the second is caught here.
            self._count_duplicate()
            return
        try:
            envelope = decode_envelope_body(header, payload)
        except WireError:
            self.garbage_frames += 1
            return
        metrics = self.obs.metrics if self.obs is not None else None
        ingress = self.ingress
        if ingress is not None and not ingress(envelope, from_peer):
            # Rejected before joining the seen-set: a later clean copy
            # of the same message can still be accepted.
            if metrics is not None:
                metrics.inc("gossip.ingress_rejected")
            return
        self._seen.add(envelope.msg_id)
        if metrics is not None:
            metrics.inc("gossip.recv." + envelope.kind)
            metrics.inc("gossip.recv_bytes." + envelope.kind, envelope.size)
        if self.relay_policy(envelope):
            # Forward the original payload bytes (identity relay, no
            # re-encode); the origin's msg_id rides along for dedup.
            self._send_frames(encode_frame(payload), envelope,
                              exclude=from_peer)
            if metrics is not None:
                metrics.inc("gossip.relayed." + envelope.kind)

    def stats(self) -> dict:
        return {
            "bytes_sent": self.bytes_sent,
            "messages_sent": self.messages_sent,
            "wire_bytes_sent": self.wire_bytes_sent,
            "rx_dropped": self.rx_dropped,
            "garbage_frames": self.garbage_frames,
            "garbage_streams": self.garbage_streams,
            "links": len(self._links),
            "reconnect_attempts": self.reconnect_attempts,
            "reconnects": self.reconnects,
            "fault_dropped_frames": self.fault_dropped_frames,
            "fault_delayed_frames": self.fault_delayed_frames,
        }
