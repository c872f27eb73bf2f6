"""Socket-backed gossip transport for live node processes.

:class:`LiveTransport` is the live byte-mover under the relay core:
what a node decides about a message — dedup, the §8.4 receive order,
what to forward, the ``gossip.*`` counters — is the
:class:`repro.network.gossip.RelayCore` it inherits, shared with the
sim interface. What is left here is bytes: one :class:`PeerLink` per
peer (an ``asyncio.Protocol``: frames are cut from the bytes as they
arrive, and a clock turn's frames leave in one socket write) and how
little of a frame is touched. Ingress pays once per message: a frame's
fixed-offset header is read first (one ``unpack_from``), a frame whose
``msg_id`` the core already holds is counted and dropped without its
body ever being sliced out, let alone decoded, and a relay forwards the
bytes it arrived as. A block is the one kind framed per link: each
link keeps a table of the ``tx`` frames it carried in each direction,
and a block frame names the transactions its link already carried
instead of carrying them again (:class:`SentTxs`,
:func:`repro.network.wire.encode_linked_block`). No copy goes back to a
peer that sent this node the same message: each link remembers the
``msg_id`` of every frame it read, for as long as the core's dedup
generations last, and :meth:`LiveTransport._send` leaves such a link
out (``live.relay_skipped``). The window only prunes targets; whether a
copy is new is still the core's :meth:`~RelayCore.holds`. Two
live-only concerns are added:

* **Global msg_id uniqueness** — every process counts envelopes from
  zero, so locally-originated envelopes are re-stamped with an
  index-namespaced id (``(index << 40) | local_seq``) when sent;
  relayed envelopes keep their origin's id (that is what dedup keys on).
  The sequence space is further partitioned by process *incarnation*,
  so a respawned node never reuses ids its previous life already
  burned into peers' dedup sets.
* **Bounded, budgeted ingestion** — socket readers append to a bounded
  receive queue and schedule a drain on the clock; each drain processes
  at most :data:`DRAIN_BUDGET` envelopes before rescheduling itself, so
  one chatty peer cannot starve protocol timers.

Three optional attachment points ride on the link layer, all ``None``
in a clean run:

* **The two link hooks** — ``drop_filter`` and ``link_shaper``, with the
  signatures and call order of the sim fabric (the transport is a
  :class:`repro.substrate.api.Fabric` for its own outbound links), so
  the one :class:`repro.chaos.faults.FaultInjector` compiles a fault
  schedule onto real sockets: a dropped copy is a frame that is never
  written, a delayed one is handed to its link when its timer fires
  (and is gone if the link closed meanwhile), a duplicated one is sent
  twice. The sockets themselves stay open — a
  partition is packets disappearing, nobody gets a FIN.
* **Link-down notification** — when a link's socket is lost or its
  flush finds it closing (peer crashed, connection reset),
  :attr:`LiveTransport.on_link_down` fires once with the peer index so
  the owner can schedule a reconnect with capped exponential backoff.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
from collections import deque
from itertools import islice
from typing import Callable

from repro.ledger.transaction import Transaction
from repro.live.clock import LiveClock
from repro.network import gossip
from repro.network.gossip import DropFilter, LinkShaper, RelayCore
from repro.network.framing import FrameDecoder, WireError, encode_frame
from repro.network.message import Envelope
from repro.network.wire import (
    LINKED_BLOCK_CODE,
    TX,
    TX_CODE,
    EnvelopeHeader,
    decode_envelope_body,
    decode_envelope_header,
    encode_envelope,
    encode_linked_block_envelope,
    envelope_body,
)

#: Bits reserved for the per-process envelope sequence number; the node
#: index occupies the bits above, making ids globally unique without
#: coordination for clusters up to 2**23 nodes and 2**40 messages.
MSG_ID_SEQ_BITS = 40

#: ``tx`` frames a link remembers in each direction: a block frame can
#: name a transaction among the link's last this-many ``tx`` frames.
#: Also the size the transport's bytes -> instance map is pruned to.
LINK_TX_WINDOW = 4096

#: Max envelopes handed to the node per inbox-drain pass; the rest wait
#: for the next, so one chatty peer cannot starve timers.
DRAIN_BUDGET = 128
#: Bound on a node's receive queue (oldest dropped beyond it).
RX_QUEUE_LIMIT = 4096


class SentTxs:
    """The ``tx`` frames one link wrote, as its reader will count them.

    :meth:`back` answers a block encoder's question — "did this link
    carry these transaction bytes recently, and how many ``tx`` frames
    ago?" — for the reader's window of the last :data:`LINK_TX_WINDOW`.
    """

    __slots__ = ("_seq", "_count")

    def __init__(self) -> None:
        #: Transaction bytes -> sequence number of their latest frame.
        self._seq: dict[bytes, int] = {}
        self._count = 0

    def append(self, raw: bytes) -> None:
        self._seq[raw] = self._count
        self._count += 1
        if len(self._seq) > 2 * LINK_TX_WINDOW:
            # Forget what fell out of the window, once per window.
            oldest = self._count - LINK_TX_WINDOW
            self._seq = {key: seq for key, seq in self._seq.items()
                         if seq >= oldest}

    def back(self, raw: bytes) -> int:
        """``n`` if ``raw`` went out ``n`` ``tx`` frames ago (1 is the
        latest) within the window, else 0."""
        seq = self._seq.get(raw)
        if seq is None:
            return 0
        back = self._count - seq
        return back if back <= LINK_TX_WINDOW else 0


class PeerLink(asyncio.Protocol):
    """One live connection, read and written by loop callbacks.

    The socket hands :meth:`data_received` whatever arrived, and every
    whole frame goes straight to the transport's header check — no
    reader task, no wake-up per chunk. :meth:`send` only appends to the
    link's pending list; the first append of a clock turn schedules one
    :meth:`_flush` with ``call_soon``, which runs when the turn yields
    and hands every frame the turn queued to the socket in one
    ``write``. Broadcast never blocks on a slow peer: the socket
    transport buffers what the kernel has not taken yet.
    """

    def __init__(self, transport: "LiveTransport", peer: int) -> None:
        self.transport = transport
        self.peer = peer
        self.sock: asyncio.Transport | None = None
        self.decoder = FrameDecoder()
        self.closed = False
        self._down_notified = False
        #: Frames queued this turn, in send order.
        self._pending: list[bytes] = []
        #: The link's two ``tx`` tables, kept in stream order: what
        #: :meth:`send` wrote, and the bodies of the ``tx`` frames read
        #: (newest last). A replaced link starts both afresh, and so
        #: does the peer's end of the new connection.
        self.sent_txs = SentTxs()
        self.read_txs: deque[bytes] = deque(maxlen=LINK_TX_WINDOW)
        #: The ``msg_id`` of every frame read, one set per dedup
        #: generation of the transport's core (newest first): the peer
        #: holds each of those messages. A replaced link starts empty.
        self.read_ids: deque[set[int]] = deque(
            [set()], maxlen=gossip.SEEN_HORIZON_ROUNDS + 1)

    def connection_made(self, sock: asyncio.Transport) -> None:
        self.sock = sock

    def data_received(self, data: bytes) -> None:
        if self.closed:
            return
        try:
            payloads = self.decoder.feed(data)
        except WireError:
            # Desynced or malicious stream: the frame boundary is gone
            # for good, so the connection is dropped, not resynced.
            self.transport.garbage_streams += 1
            self.closed = True
            self.sock.abort()
            return
        for payload in payloads:
            self.transport._on_payload(self.peer, payload, self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed = True
        self.transport._link_lost(self)

    def send(self, frame: bytes, tx: bytes | None = None) -> None:
        """Queue ``frame``; ``tx`` is its transaction's bytes when it is
        a ``tx`` frame."""
        if self.closed:
            return
        if not self._pending:
            asyncio.get_running_loop().call_soon(self._flush)
        self._pending.append(frame)
        if tx is not None:
            self.sent_txs.append(tx)

    def _flush(self) -> None:
        """Write the turn's frames in one call; a dead socket drops them."""
        frames, self._pending = self._pending, []
        if self.closed or not frames:
            return
        if self.sock.is_closing():
            self.closed = True
            self.transport._link_lost(self)
            return
        self.sock.write(b"".join(frames))
        self.transport.socket_writes += 1

    def close(self) -> None:
        self._flush()  # what this turn queued still goes out
        self.closed = True
        if self.sock is not None:
            self.sock.close()


class LiveTransport(RelayCore):
    """The live byte-mover: a node's gossip attachment over real sockets.

    Satisfies :class:`repro.substrate.api.Transport` through the
    :class:`~repro.network.gossip.RelayCore` it shares with the sim.
    """

    def __init__(self, index: int, clock: LiveClock, *,
                 incarnation: int = 0, obs=None) -> None:
        super().__init__(index, obs)
        self.clock = clock
        #: Frame bytes the links accepted (wire truth; the core's
        #: ``bytes_sent`` is the logical size the sim charges).
        self.wire_bytes_sent = 0
        #: Block transactions sent as a reference to a ``tx`` frame the
        #: link already carried, instead of as their bytes.
        self.block_tx_refs = 0
        #: Socket ``write`` calls: one per link per clock turn that sent.
        self.socket_writes = 0
        #: Copies not sent because the target's link had read a frame
        #: of the same message: that peer already holds it.
        self.relay_skipped = 0
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
        #: Callback fired (once per link) when a link's socket is lost —
        #: the owner decides whether to redial. :meth:`close` detaches
        #: it: a link torn down on purpose is not a lost one.
        self.on_link_down: Callable[[int], None] | None = None
        #: Dial attempts and successes after a lost link (the owner's
        #: backoff loop increments these; counted here so they travel
        #: with the rest of the transport stats).
        self.reconnect_attempts = 0
        self.reconnects = 0
        self.links: dict[int, PeerLink] = {}
        #: ``(peer, validated header, frame payload)`` awaiting a drain;
        #: a linked block is queued decoded, as its envelope.
        self._rx: deque[tuple[int, EnvelopeHeader,
                              bytes | Envelope]] = deque()
        #: Transaction bytes -> the instance this process holds for
        #: them, so a linked block is handed those instances, receipts
        #: and all. Pruned to the newest :data:`LINK_TX_WINDOW`.
        self._txs: dict[bytes, Transaction] = {}
        self._drain_scheduled = False
        # A respawned process must not reuse its predecessor's msg_ids —
        # peers hold them in their dedup sets and would silently drop
        # the newcomer's first envelopes (including its catch-up
        # requests). Partition the 40-bit sequence space by incarnation:
        # 2**8 lives of 2**32 messages each.
        self._local_seq = int(incarnation) << 32

    # -- link management ------------------------------------------------

    def add_link(self, link: PeerLink) -> None:
        stale = self.links.get(link.peer)
        self.links[link.peer] = link
        self.neighbors = sorted(self.links)
        if stale is not None and stale is not link:
            # Reconnect replaced a dead (or half-dead) link: close the
            # old socket. The new link is in place first, so the old
            # one's loss does not reach the owner.
            stale.close()

    def _link_lost(self, link: PeerLink) -> None:
        if link._down_notified:
            return
        link._down_notified = True
        if (self.links.get(link.peer) is link
                and self.on_link_down is not None):
            self.on_link_down(link.peer)

    def end_round(self) -> None:
        """A new dedup generation, and a new read window on every link."""
        super().end_round()
        for link in self.links.values():
            link.read_ids.appendleft(set())

    def close(self) -> None:
        self.disconnected = True
        self.on_link_down = None
        for link in self.links.values():
            link.close()

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
        re-encode — and queue the frame on each target's open link,
        save a link that read a frame of this message: its peer holds
        it already.

        A block is the exception: it is framed per link when the link
        takes it (:meth:`_put`).
        """
        tx = frame = None
        if envelope.kind == "tx":
            tx = TX.pack(envelope.payload)
            self._hold(tx, envelope.payload)
        if envelope.kind != "block":
            frame = encode_frame(raw if raw is not None
                                 else encode_envelope(envelope))
        shaped = (self.drop_filter is not None
                  or self.link_shaper is not None)
        msg_id = envelope.msg_id
        sent = 0
        for peer in targets:
            link = self.links.get(peer)
            if link is None or link.closed:
                continue
            if any(msg_id in read for read in link.read_ids):
                self.relay_skipped += 1
                continue
            if shaped:
                sent += self._send_shaped(link, envelope, frame, tx)
            else:
                self._put(link, envelope, frame, tx)
                sent += 1
        if sent:
            self._count_sent(envelope, sent)

    def _put(self, link: PeerLink, envelope: Envelope, frame: bytes | None,
             tx: bytes | None) -> None:
        """Hand ``link`` one copy and count the bytes it took; a late
        copy whose link closed meanwhile is gone. A block is framed for
        the link now: a transaction the link already carried as a
        ``tx`` frame is named, not sent again."""
        if link.closed:
            return
        if frame is None:
            payload, named = encode_linked_block_envelope(
                envelope, link.sent_txs.back)
            frame = encode_frame(payload)
            self.block_tx_refs += named
        link.send(frame, tx)
        self.wire_bytes_sent += len(frame)

    def _send_shaped(self, link: PeerLink, envelope: Envelope,
                     frame: bytes | None, tx: bytes | None) -> int:
        """One peer's copy through the fault hooks; returns copies sent.

        Same order as the sim fabric's ``_shaped_delays`` —
        ``drop_filter``, base delay (0.0: the socket is the latency),
        ``link_shaper``. A late copy rides the clock, whose
        ``(time, seq)`` order keeps a link's equal delays in send order;
        it reaches the link's ``tx`` table when it reaches the link.
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
                self.clock.schedule(delay, functools.partial(
                    self._put, link, envelope, frame, tx))
            else:
                self._put(link, envelope, frame, tx)
        return len(delays)

    # -- receiving ------------------------------------------------------

    def _on_payload(self, peer: int, payload: bytes,
                    link: PeerLink | None = None) -> None:
        """Socket reader handoff: header, dedup, enqueue, schedule a drain.

        Runs on the asyncio side (never inside a protocol callback);
        protocol code only ever sees envelopes from :meth:`_drain`,
        which the clock fires like any other event. Only the
        fixed-offset header is read here; a copy of a message this node
        already holds stops at the dedup store and costs neither a
        queue slot nor a look at its body. ``link``, the one the frame
        was read from, notes its ``msg_id``, duplicate or not. Two
        exceptions keep the link's ``read_txs`` table in stream order:
        a ``tx`` frame's body joins it, duplicate or not, and a linked
        block is decoded against it now — by drain time the table may
        have moved on.
        """
        try:
            header = decode_envelope_header(payload)
        except WireError:
            self.garbage_frames += 1
            return
        read_txs = None
        if link is not None:
            link.read_ids[0].add(header[0])
            read_txs = link.read_txs
        code = header[1]
        if code == TX_CODE and read_txs is not None:
            raw = envelope_body(header, payload)
            held = self._txs.get(raw)
            # The table shares the held instance's bytes, not a copy.
            read_txs.append(raw if held is None else TX.pack(held))
        if self._drop_duplicate(header[0]):
            return
        body: bytes | Envelope = payload
        if code == LINKED_BLOCK_CODE:
            try:
                body = decode_envelope_body(
                    header, payload,
                    functools.partial(self._resolve_tx, read_txs))
            except WireError:
                self.garbage_frames += 1
                return
        if len(self._rx) >= RX_QUEUE_LIMIT:
            self._rx.popleft()
            self.rx_dropped += 1
        self._rx.append((peer, header, body))
        if not self._drain_scheduled:
            # One kick per drain: until it fires, the clock is awake.
            self._drain_scheduled = True
            self.clock.schedule_now(self._drain)
            self.clock.kick()

    def _drain(self) -> None:
        self._drain_scheduled = False
        budget = DRAIN_BUDGET
        while self._rx and budget > 0:
            budget -= 1
            self._deliver(*self._rx.popleft())
        if self._rx and not self._drain_scheduled:
            self._drain_scheduled = True
            self.clock.schedule_now(self._drain)

    def _deliver(self, from_peer: int, header: EnvelopeHeader,
                 payload: bytes | Envelope) -> None:
        """Decode one queued frame's body and hand it to the core."""
        if self._drop_duplicate(header[0]):
            # Two copies can sit in one drain: the second is caught here.
            return
        if isinstance(payload, Envelope):
            # A linked block, decoded on arrival; its bytes were the
            # link's, so a relay frames it afresh.
            self.receive(payload, from_peer)
            return
        try:
            envelope = decode_envelope_body(header, payload,
                                            hold=self._tx_instance)
        except WireError:
            self.garbage_frames += 1
            return
        self.receive(envelope, from_peer, raw=payload)

    def _resolve_tx(self, read_txs: deque[bytes] | None,
                    back: int) -> Transaction:
        """The transaction a linked block names ``back`` ``tx`` frames
        back on its link."""
        if read_txs is None or not 0 < back <= len(read_txs):
            raise WireError(f"linked block names tx frame {back} back; "
                            f"the link holds "
                            f"{0 if read_txs is None else len(read_txs)}")
        return self._tx_instance(read_txs[-back])

    def _tx_instance(self, raw: bytes) -> Transaction:
        """The one instance for transaction bytes ``raw``: whichever of
        its ``tx`` frame and a block naming it is decoded first builds
        it, the other is handed it."""
        tx = self._txs.get(raw)
        if tx is None:
            tx = TX.unpack(raw)
            self._hold(raw, tx)
        return tx

    def _hold(self, raw: bytes, tx: Transaction) -> None:
        txs = self._txs
        txs[raw] = tx
        if len(txs) > 2 * LINK_TX_WINDOW:
            self._txs = dict(islice(txs.items(), len(txs) - LINK_TX_WINDOW,
                                    None))

    def stats(self) -> dict:
        # ``bytes_sent`` is ``gossip.sent_bytes.*``'s; ``messages_sent``
        # (``gossip.sent.*``'s) stays while the benchmark reads it.
        return {
            "messages_sent": self.messages_sent,
            "wire_bytes_sent": self.wire_bytes_sent,
            "block_tx_refs": self.block_tx_refs,
            "socket_writes": self.socket_writes,
            "relay_skipped": self.relay_skipped,
            "rx_dropped": self.rx_dropped,
            "garbage_frames": self.garbage_frames,
            "garbage_streams": self.garbage_streams,
            "links": len(self.links),
            "reconnect_attempts": self.reconnect_attempts,
            "reconnects": self.reconnects,
            "fault_dropped_frames": self.fault_dropped_frames,
            "fault_delayed_frames": self.fault_delayed_frames,
        }
