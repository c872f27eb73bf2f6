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
bytes it arrived as. No copy goes back to a peer that sent this node
the same message: each link remembers the ``msg_id`` of every frame it
read, for as long as the core's dedup generations last, and
:meth:`LiveTransport._send` leaves such a link out
(``live.relay_skipped``). The window only prunes targets; whether a
copy is new is still the core's :meth:`~RelayCore.holds`.

A payment is the one kind a relay does not always re-send at once. An
originated ``tx`` is pushed to every peer, and so is a relayed one to a
peer that does not link to the node it came from (the ``msg_id``'s
namespace, below). A peer that does gets the body from that node
itself, so a relay sends it an *announcement* instead — the envelope
header and the payment's 16-byte digest, 38 bytes framed instead of
~150 (:func:`repro.network.wire.encode_tx_announcement`) — and at
least :data:`TX_PUSH_DELAY_S` later (one sweep a period pushes every
payment that waited that long) the body follows to each announced peer
whose link has still read nothing of that ``msg_id`` (neither the body
nor the peer's own announcement). A read announcement is noted in the
link's window and ``tx`` tables and goes no further: it is never
queued, never reaches the core, and marks nothing held.

A block is the one kind framed per link: a block frame names, in four
bytes, each transaction the link has shown both ends hold — one this
end wrote the body of, or one the peer wrote the body or an
announcement of, matched by digest, never by an id the sender picks —
and carries only the others' bytes (:class:`SentTxs`, :class:`ToldTxs`,
:func:`repro.network.wire.encode_linked_block`).
Two live-only concerns are added:

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
    TX_ANNOUNCE,
    TX_ANNOUNCE_CODE,
    TX_CODE,
    WIRE_KINDS,
    EnvelopeHeader,
    decode_envelope_body,
    decode_envelope_header,
    encode_envelope,
    encode_linked_block_envelope,
    encode_tx_announcement,
    envelope_body,
    tx_digest,
)

#: Bits reserved for the per-process envelope sequence number; the node
#: index occupies the bits above, making ids globally unique without
#: coordination for clusters up to 2**23 nodes and 2**40 messages.
MSG_ID_SEQ_BITS = 40

#: ``tx`` frames a link remembers in each direction: a block frame can
#: name a transaction among the link's last this-many ``tx`` frames.
#: Also the size the transport's bytes -> instance map is pruned to.
LINK_TX_WINDOW = 4096

#: A block frame's name for a transaction its *reader* put on the link
#: (a body or an announcement) has this bit set, and the frame's
#: position in the reader's stream of those below it, modulo 2**31.
#: Without the bit a name counts ``tx`` frames back in the writer's own
#: stream (:meth:`SentTxs.back`), from 1 to :data:`LINK_TX_WINDOW`.
TOLD_BIT = 1 << 31

#: Least seconds between a relay's announcement of a payment and the
#: push of its body to the announced peers that have still said nothing
#: of it; also the period of the sweep that pushes (so a body waits
#: less than twice this). About twice the worst timer lag of a clean
#: 5-process run (``live.max_lag_s`` ~0.13 s): a peer that relayed the
#: payment too announced it to this node by then, so the body goes
#: only where it is missing. An announced peer got the body from the
#: payment's origin, so the wait delays a payment only where that copy
#: was lost; a lag past it costs a redundant push, never a payment.
TX_PUSH_DELAY_S = 0.25

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
    A link keeps a second one keyed by
    :func:`~repro.network.wire.tx_digest`: the ``tx`` frames and
    announcements it read (``PeerLink.heard_txs``), whose position a
    :data:`TOLD_BIT` name carries.
    """

    __slots__ = ("_seq", "_count")

    def __init__(self) -> None:
        #: Transaction bytes (or digest) -> sequence number of their
        #: latest frame.
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


class ToldTxs:
    """Every ``tx`` frame and announcement one link wrote, by position.

    The reader's side of a :data:`TOLD_BIT` name: the peer read the
    frame at that position, so it knows this end holds the transaction.
    Twice :data:`LINK_TX_WINDOW` are kept — the peer names within its
    window of what it read, and what this end wrote since may still be
    on its way.
    """

    __slots__ = ("_raws", "_count")

    def __init__(self) -> None:
        self._raws: deque[bytes] = deque(maxlen=2 * LINK_TX_WINDOW)
        self._count = 0

    def append(self, raw: bytes) -> None:
        self._raws.append(raw)
        self._count += 1

    def at(self, position: int) -> bytes | None:
        """The transaction written at ``position`` (modulo 2**31, the
        latest such), or ``None`` if it is not kept."""
        back = (self._count - 1 - position) % TOLD_BIT
        return self._raws[-1 - back] if back < len(self._raws) else None


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
        #: The link's ``tx`` tables, kept in stream order: the bodies
        #: :meth:`send` wrote, and the bodies of the ``tx`` frames read
        #: (newest last); the digests of the ``tx`` frames and
        #: announcements read, and the transactions of those
        #: :meth:`send` wrote. A replaced link starts all four afresh,
        #: and so does the peer's end of the new connection.
        self.sent_txs = SentTxs()
        self.read_txs: deque[bytes] = deque(maxlen=LINK_TX_WINDOW)
        self.heard_txs = SentTxs()
        self.told_txs = ToldTxs()
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

    def send(self, frame: bytes, tx: bytes | None = None,
             body: bool = True) -> None:
        """Queue ``frame``; ``tx`` is its transaction's bytes when it is
        a ``tx`` frame, or (not ``body``) an announcement."""
        if self.closed:
            return
        if not self._pending:
            asyncio.get_running_loop().call_soon(self._flush)
        self._pending.append(frame)
        if tx is not None:
            self.told_txs.append(tx)
            if body:
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
        #: ``bytes_sent`` is the logical size the sim charges), in all
        #: and by kind (:data:`~repro.network.wire.WIRE_KINDS`).
        self.wire_bytes_sent = 0
        self.wire_bytes = dict.fromkeys(WIRE_KINDS, 0)
        #: Block transactions sent as a name the link resolves, instead
        #: of as their bytes.
        self.block_tx_refs = 0
        #: Announcements handed to links, and the bodies pushed after
        #: them to peers that had said nothing of the payment.
        self.tx_announced = 0
        self.tx_pushed_late = 0
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
        #: Every node's gossip neighbours, as the cluster drew them;
        #: ``None``: every node links to every other.
        self.graph: dict[int, frozenset[int]] | None = None
        #: ``(peer, validated header, frame payload)`` awaiting a drain;
        #: a linked block is queued decoded, as its envelope.
        self._rx: deque[tuple[int, EnvelopeHeader,
                              bytes | Envelope]] = deque()
        #: Transaction bytes -> the instance this process holds for
        #: them, so a linked block is handed those instances, receipts
        #: and all. Pruned to the newest :data:`LINK_TX_WINDOW`.
        self._txs: dict[bytes, Transaction] = {}
        #: Transaction bytes -> their :func:`~repro.network.wire.tx_digest`,
        #: hashed once: a block frame looks up every transaction it
        #: carries, on every link. Pruned like ``_txs``.
        self._digests: dict[bytes, bytes] = {}
        #: Announced payments awaiting :meth:`_push_late`, oldest first:
        #: ``(announced at, envelope, body frame, tx bytes, announced
        #: peers)``.
        self._late: deque[tuple[float, Envelope, bytes, bytes,
                                list[int]]] = deque()
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

        A relayed ``tx`` (one with ``raw``) is announced instead to a
        target its origin pushes to (:meth:`_gets_from_origin`), and
        the body waits for :meth:`_push_late`. A block is framed per
        link when the link takes it (:meth:`_put`).
        """
        kind = envelope.kind
        msg_id = envelope.msg_id
        tx = frame = announcement = None
        if kind == "tx":
            tx = TX.pack(envelope.payload)
            self._hold(tx, envelope.payload)
            if raw is not None:
                announcement = encode_frame(
                    encode_tx_announcement(envelope, self._digest(tx)))
        if kind != "block":
            frame = encode_frame(raw if raw is not None
                                 else encode_envelope(envelope))
        shaped = (self.drop_filter is not None
                  or self.link_shaper is not None)
        sent = 0
        announced = []
        for peer in targets:
            link = self.links.get(peer)
            if link is None or link.closed:
                continue
            if any(msg_id in read for read in link.read_ids):
                self.relay_skipped += 1
                continue
            copy_kind, copy = kind, frame
            if (announcement is not None
                    and self._gets_from_origin(peer, msg_id)):
                copy_kind, copy = TX_ANNOUNCE, announcement
                announced.append(peer)
            if shaped:
                copies = self._send_shaped(link, copy_kind, envelope,
                                           copy, tx)
            else:
                self._put(link, copy_kind, envelope, copy, tx)
                copies = 1
            sent += copies
            if copy_kind == TX_ANNOUNCE:
                self.tx_announced += copies
        if sent:
            self._count_sent(envelope, sent)
        if announced:
            if not self._late:
                self.clock.schedule(TX_PUSH_DELAY_S, self._push_late)
            self._late.append((self.clock.now, envelope, frame, tx,
                               announced))

    def _gets_from_origin(self, peer: int, msg_id: int) -> bool:
        """Whether ``peer`` is, or links to, the node whose namespace
        ``msg_id`` is in: that node pushed its payment to ``peer``
        itself, so a relay only announces it there. On a complete
        graph every peer does; elsewhere a peer that does not gets the
        body at once, as every other kind, and a payment crosses the
        graph no slower than before."""
        if self.graph is None:
            return True
        origin = msg_id >> MSG_ID_SEQ_BITS
        return origin == peer or origin in self.graph.get(peer, ())

    def _push_late(self) -> None:
        """The sweep: every :data:`TX_PUSH_DELAY_S` while payments wait,
        the body of each announced at least that long ago goes to each
        announced peer whose link — the announced one, or one that
        replaced it — has still read nothing of it. A peer that said it
        holds the payment, or sent it here, gets nothing more; one
        whose announcement the faults dropped gets the body. One sweep
        a period, not a timer a payment: a burst of relays costs the
        clock one turn."""
        late = self._late
        if self.disconnected:
            late.clear()
            return
        shaped = (self.drop_filter is not None
                  or self.link_shaper is not None)
        now = self.clock.now
        while late and late[0][0] + TX_PUSH_DELAY_S <= now:
            _, envelope, frame, tx, targets = late.popleft()
            msg_id = envelope.msg_id
            for peer in targets:
                link = self.links.get(peer)
                if (link is None or link.closed
                        or any(msg_id in read for read in link.read_ids)):
                    continue
                if shaped:
                    self.tx_pushed_late += self._send_shaped(
                        link, "tx", envelope, frame, tx)
                else:
                    self._put(link, "tx", envelope, frame, tx)
                    self.tx_pushed_late += 1
        if late:
            self.clock.schedule(TX_PUSH_DELAY_S, self._push_late)

    def _put(self, link: PeerLink, kind: str, envelope: Envelope,
             frame: bytes | None, tx: bytes | None) -> None:
        """Hand ``link`` one copy and count the bytes it took, by
        ``kind``; a late copy whose link closed meanwhile is gone. A
        block is framed for the link now: a transaction the link has
        shown both ends hold is named, not sent again."""
        if link.closed:
            return
        if frame is None:
            payload, named = encode_linked_block_envelope(
                envelope, functools.partial(self._refer, link))
            frame = encode_frame(payload)
            self.block_tx_refs += named
        link.send(frame, tx, kind != TX_ANNOUNCE)
        size = len(frame)
        self.wire_bytes_sent += size
        self.wire_bytes[kind] += size

    def _refer(self, link: PeerLink, raw: bytes) -> int:
        """``link``'s name for transaction ``raw`` in a block frame —
        ``tx`` frames back if this end wrote its body, or the position
        (with :data:`TOLD_BIT`) of the peer's body or announcement of
        it that this end read, found by digest: two payments a sender
        put under one ``msg_id`` are two names — or 0: the frame
        carries its bytes."""
        back = link.sent_txs.back(raw)
        if back:
            return back
        heard = link.heard_txs
        back = heard.back(self._digest(raw))
        if not back:
            return 0
        return TOLD_BIT | (heard._count - back) % TOLD_BIT

    def _send_shaped(self, link: PeerLink, kind: str, envelope: Envelope,
                     frame: bytes | None, tx: bytes | None) -> int:
        """One peer's copy through the fault hooks; returns copies sent.

        Same order as the sim fabric's ``_shaped_delays`` —
        ``drop_filter``, base delay (0.0: the socket is the latency),
        ``link_shaper``. A late copy rides the clock, whose
        ``(time, seq)`` order keeps a link's equal delays in send order;
        it reaches the link's ``tx`` tables when it reaches the link.
        An announcement is a copy like any other: the hooks are asked
        about its envelope.
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
                    self._put, link, kind, envelope, frame, tx))
            else:
                self._put(link, kind, envelope, frame, tx)
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
        was read from, notes its ``msg_id``, duplicate or not. The
        link's ``tx`` tables are kept in stream order: a ``tx`` frame
        joins them, duplicate or not, and so does an announcement —
        which goes no further — and a linked block is decoded against
        them now: by drain time they may have moved on.
        """
        try:
            header = decode_envelope_header(payload)
        except WireError:
            self.garbage_frames += 1
            return
        msg_id, code = header[0], header[1]
        if link is not None:
            link.read_ids[0].add(msg_id)
            if code == TX_CODE:
                raw = envelope_body(header, payload)
                link.heard_txs.append(self._digest(raw))
                held = self._txs.get(raw)
                # The table shares the held instance's bytes, not a copy.
                link.read_txs.append(raw if held is None else TX.pack(held))
            elif code == TX_ANNOUNCE_CODE:
                link.heard_txs.append(envelope_body(header, payload))
        if code == TX_ANNOUNCE_CODE or self._drop_duplicate(msg_id):
            return
        body: bytes | Envelope = payload
        if code == LINKED_BLOCK_CODE:
            try:
                body = decode_envelope_body(
                    header, payload,
                    functools.partial(self._resolve_tx, link))
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

    def _resolve_tx(self, link: PeerLink | None,
                    name: int) -> Transaction:
        """The transaction a linked block read from ``link`` names: one
        this end wrote the body or announcement of (:data:`TOLD_BIT`),
        or ``name`` ``tx`` frames back in what the link read."""
        if link is None:
            raise WireError("linked block read from no link")
        if name & TOLD_BIT:
            raw = link.told_txs.at(name ^ TOLD_BIT)
            if raw is None:
                raise WireError(f"linked block names position "
                                f"{name ^ TOLD_BIT} of what this end "
                                f"wrote; it is not kept")
            return self._tx_instance(raw)
        read_txs = link.read_txs
        if not 0 < name <= len(read_txs):
            raise WireError(f"linked block names tx frame {name} back; "
                            f"the link holds {len(read_txs)}")
        return self._tx_instance(read_txs[-name])

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

    def _digest(self, raw: bytes) -> bytes:
        """:func:`~repro.network.wire.tx_digest` of ``raw``, from
        ``_digests`` once it was hashed."""
        digests = self._digests
        digest = digests.get(raw)
        if digest is None:
            digest = digests[raw] = tx_digest(raw)
            if len(digests) > 2 * LINK_TX_WINDOW:
                self._digests = dict(islice(
                    digests.items(), len(digests) - LINK_TX_WINDOW, None))
        return digest

    def stats(self) -> dict:
        # ``bytes_sent`` is ``gossip.sent_bytes.*``'s; ``messages_sent``
        # (``gossip.sent.*``'s) stays while the benchmark reads it.
        return {
            "messages_sent": self.messages_sent,
            "wire_bytes_sent": self.wire_bytes_sent,
            **{"wire_bytes." + kind: count
               for kind, count in self.wire_bytes.items()},
            "block_tx_refs": self.block_tx_refs,
            "tx_announced": self.tx_announced,
            "tx_pushed_late": self.tx_pushed_late,
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
