"""Gossip: the relay core, and the simulated network that carries it.

:class:`RelayCore` (section 4 "Gossip protocol", section 8.4) is what
one node *decides* about a message on either substrate. An arriving
copy goes dedup → the node's hook (its gate, then its router) → hold →
forward; the core keeps the dedup store, the ``gossip.*`` counters and
the forward, and asks the node one question per copy. How bytes travel
is left to its two subclasses:
the sim's :class:`NetworkInterface` below, the live
:class:`repro.live.transport.LiveTransport`.

**The simulated network.** Topology: every node selects
``peers_per_node`` random outgoing peers; links are bidirectional, so
nodes end up with ~``2 * peers_per_node`` neighbors (the paper: 4
selected, 8 on average). Messages propagate by store-and-forward
flooding.

Costs: each node has an egress bandwidth cap; sending an ``s``-byte
message to one neighbor occupies the sender's uplink for ``8 s / bw``
seconds, then the message arrives after the pairwise one-way latency from
the latency model. This reproduces both terms the paper's evaluation is
sensitive to: per-hop latency and size-proportional block propagation.
The uplink is a kernel callback (:meth:`NetworkInterface._drain`), not
a process: queuing or relaying a message resumes no generator.

Adversarial control: a ``drop_filter`` hook inspects every (src, dst,
envelope) and may drop it — partitions, loss and the targeted DoS's
watch for proposers are built from this mechanism (see
:mod:`repro.chaos.faults`). A second hook, ``link_shaper``, rewrites
per-message delivery *times*: it receives the base one-way latency and
returns the list of arrival delays, so delay spikes, duplication, and
reordering faults are expressed without touching the latency model.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Protocol

import numpy as np

from repro.common.errors import NetworkError
from repro.network.message import Envelope
from repro.sim.loop import Environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.latency import BatchTerms
    from repro.obs.bus import TraceBus


class SupportsLatency(Protocol):
    def latency(self, src: int, dst: int) -> float: ...
    def latencies(self, src: int, dsts: list[int]) -> list[float]: ...
    def batch_terms(self, src: int, n: int) -> BatchTerms: ...


DropFilter = Callable[[int, int, Envelope], bool]
#: (src, dst, envelope, base_delay) -> arrival delays. Empty list drops
#: the message; more than one entry duplicates it (the copies share the
#: msg_id, so receivers dedup them exactly like real gossip duplicates).
LinkShaper = Callable[[int, int, Envelope, float], list[float]]
#: (envelope, from_index) -> the node's one answer about a copy that
#: survived dedup: ``None`` rejects it (its id is not held), ``False``
#: keeps it, ``True`` keeps it and relays it.
ReceiveHook = Callable[[Envelope, int], bool | None]

#: Messages at or below this size use the urgent egress lane (votes,
#: priority announcements, transactions) and never wait behind blocks.
URGENT_MESSAGE_BYTES = 1500
#: Max queued copies per egress lane per sim interface (tail-drop).
EGRESS_LANE_BUDGET = 10_000
#: Rounds of duplicate-suppression memory a node keeps before its
#: current generation, on both substrates (:class:`RelayCore`).
SEEN_HORIZON_ROUNDS = 2


def draw_peers(rng: np.random.Generator, eligible: list[int],
               peers_per_node: int) -> dict[int, list[int]]:
    """Every node's sorted neighbors: each of ``eligible`` (ascending),
    in order, draws ``peers_per_node`` distinct others from ``rng``, and
    links are bidirectional. The one peer-selection rule: the sim, the
    live coordinator and :mod:`repro.analysis.graph` all draw through it."""
    adjacency: dict[int, set[int]] = {node: set() for node in eligible}
    m = len(eligible)
    k = min(peers_per_node, m - 1)
    if k >= 1:
        for position, node in enumerate(eligible):
            peers = rng.choice(m - 1, size=k, replace=False)
            for peer in peers:
                # Map [0, m-2] onto eligible positions != position.
                target = eligible[int(peer) + (1 if peer >= position
                                               else 0)]
                adjacency[node].add(target)
                adjacency[target].add(node)
    return {node: sorted(peers) for node, peers in adjacency.items()}


def accept_and_relay(envelope: Envelope, from_index: int) -> bool:
    """The :attr:`RelayCore.on_receive` of a core no node is wired to."""
    return True


class RelayCore:
    """What one node decides about a gossiped message, sim or live.

    An arriving copy (:meth:`receive`) goes through one fixed order:
    duplicate check, the node's hook (:attr:`on_receive`, assigned by
    the node: its admission gate — validation and one message per key
    per step — then its router), mark held unless rejected, forward to
    every neighbor but the deliverer if relayed. A byte-mover
    subclasses this, supplies :meth:`_send`, hands every arriving copy
    to :meth:`receive` and reports what it put on links to
    :meth:`_count_sent`.

    Dedup memory is one generation of message ids per round: the
    current one, where originated and accepted ids are marked, and the
    :data:`SEEN_HORIZON_ROUNDS` before it; the node starts a fresh one
    at each of its own round boundaries (:meth:`end_round`). A copy that
    straggles in after its generation was forgotten is accepted once
    more, and the protocol layer's stale-round checks discard it
    unrelayed. Ids need only be unique, not ordered.
    """

    def __init__(self, index: int, obs: "TraceBus | None" = None) -> None:
        self.index = index
        self.neighbors: list[int] = []
        #: The node's one hook (:data:`ReceiveHook`), asked once per
        #: copy that survives the duplicate check.
        self.on_receive: ReceiveHook = accept_and_relay
        self.disconnected = False
        #: Logical bytes (the calibrated envelope sizes) and copies put
        #: on links, one per peer transmission on either substrate.
        self.bytes_sent = 0
        self.messages_sent = 0
        # Tracing is fixed at construction; cache the registry handle so
        # per-delivery guards are one attribute load.
        self._metrics = obs.metrics if obs is not None else None
        self._seen: set[int] = set()
        self._seen_before: deque[set[int]] = deque()

    # --- Dedup store ------------------------------------------------------

    def holds(self, msg_id: int) -> bool:
        """Is ``msg_id`` in any dedup generation still kept?"""
        return msg_id in self._seen or self._held_before(msg_id)

    def hold(self, msg_id: int) -> None:
        """Mark ``msg_id`` held without accepting it: the admission gate
        drops a copy every other copy of which it would drop alike."""
        self._seen.add(msg_id)

    def _held_before(self, msg_id: int) -> bool:
        """Is ``msg_id`` in a generation older than the current one?"""
        for generation in self._seen_before:
            if msg_id in generation:
                return True
        return False

    def end_round(self) -> None:
        """Round boundary: start a fresh dedup generation.

        The one that falls off the horizon is forgotten; without that
        the store grows with every message ever gossiped.
        """
        kept = self._seen_before
        kept.appendleft(self._seen)
        self._seen = set()
        if len(kept) > SEEN_HORIZON_ROUNDS:
            forgotten = kept.pop()
            if self._metrics is not None:
                self._metrics.inc("gossip.pruned_ids", len(forgotten))
                self._metrics.inc("gossip.prune_passes")

    def _count_duplicate(self) -> None:
        if self._metrics is not None:
            self._metrics.inc("gossip.dup_dropped")

    def _drop_duplicate(self, msg_id: int) -> bool:
        """First step of :meth:`receive`: is this copy dropped unread?

        While ``disconnected`` every copy is, uncounted; otherwise one
        whose id is held, counted. (A byte-mover may ask ahead of time.)
        """
        if self.disconnected:
            return True
        if self.holds(msg_id):
            self._count_duplicate()
            return True
        return False

    # --- Originating and receiving ----------------------------------------

    def broadcast(self, envelope: Envelope) -> None:
        """Originate a message: mark it held, send to all neighbors."""
        self.send_to(envelope, self.neighbors)

    def send_to(self, envelope: Envelope, targets: list[int]) -> None:
        """Originate a message to a *subset* of neighbors.

        Honest nodes never need this; adversarial strategies use it to
        show different messages to different peers (e.g. the equivocating
        proposer of section 10.4).
        """
        for target in targets:
            if target not in self.neighbors:
                raise NetworkError(f"{target} is not a neighbor of "
                                   f"{self.index}")
        self._seen.add(envelope.msg_id)
        if not self.disconnected:
            self._send(envelope, targets)

    def receive(self, envelope: Envelope, from_index: int,
                raw: bytes | None = None) -> None:
        """One copy arrives from neighbor ``from_index``: the §8.4 order.

        ``raw`` is the encoded form the copy arrived as, where the
        byte-mover has one; a relay forwards those bytes.
        """
        if self.disconnected:
            return
        # :meth:`_drop_duplicate`, with the current generation — where
        # nearly every duplicate is found — checked inline.
        msg_id = envelope.msg_id
        if msg_id in self._seen or self._held_before(msg_id):
            self._count_duplicate()
            return
        relay = self.on_receive(envelope, from_index)
        metrics = self._metrics
        if relay is None:
            # Rejected: never buffered, routed, or relayed. The msg_id
            # deliberately is NOT marked held (unless the gate itself
            # holds it, see :meth:`hold`): a vote whose first copy
            # arrives via a quarantined relayer must stay eligible on its
            # other gossip paths, or blocking one bad neighbor would
            # suppress honest traffic it happened to deliver first
            # (verification stays cheap — each message instance keeps its
            # verdicts as receipts).
            if metrics is not None:
                metrics.inc("gossip.ingress_rejected")
            return
        self._seen.add(msg_id)
        if metrics is not None:
            metrics.inc("gossip.recv." + envelope.kind)
            metrics.inc("gossip.recv_bytes." + envelope.kind,
                        envelope.size)
        if relay:
            if metrics is not None:
                metrics.inc("gossip.relayed." + envelope.kind)
            self._send(envelope, [neighbor for neighbor in self.neighbors
                                  if neighbor != from_index], raw)

    # --- The byte-mover's side --------------------------------------------

    def _send(self, envelope: Envelope, targets: list[int],
              raw: bytes | None = None) -> None:
        """Carry one copy of ``envelope`` toward each of ``targets``."""
        raise NotImplementedError

    def _count_sent(self, envelope: Envelope, copies: int) -> None:
        """``copies`` of ``envelope`` went onto links."""
        size = copies * envelope.size
        self.bytes_sent += size
        self.messages_sent += copies
        if self._metrics is not None:
            self._metrics.inc("gossip.sent." + envelope.kind, copies)
            self._metrics.inc("gossip.sent_bytes." + envelope.kind, size)


class NetworkInterface(RelayCore):
    """The sim byte-mover: one node's attachment to the gossip network.

    Only *activated* interfaces drain their egress lanes. A deployment
    whose core is everyone builds and activates every interface at
    construction, in index order; one with dormant stake builds one
    when its account first becomes an agent (a never-selected account
    owns no relay state) and parks it when the agent retires: cut off,
    lanes empty, agent let go, counters and dedup generations kept.
    The uplink is a callback, not a process: queuing a message on an
    idle uplink arms one immediate :meth:`_drain`; a drain re-arms
    itself for the moment the uplink frees up, or goes idle when both
    lanes are empty.
    """

    def __init__(self, network: "GossipNetwork", index: int) -> None:
        super().__init__(index, network.obs)
        self._network = network
        self.egress_dropped = 0
        self.egress_high_water = 0
        # Two egress lanes: small control messages (votes, priorities)
        # must not queue behind bulk block transfers — they ride separate
        # TCP connections in the paper's prototype.
        self._egress_urgent: deque[tuple[Envelope, int]] = deque()
        self._egress_bulk: deque[tuple[Envelope, int]] = deque()
        #: No :meth:`_drain` is on the event loop: the next :meth:`_send`
        #: arms one. ``None`` until the first :meth:`activate`.
        self._uplink_idle: bool | None = None

    def activate(self) -> None:
        """Bring the interface online (idempotent).

        The first activation arms one drain (it transmits what was
        queued before the event loop first ran); later ones reconnect.
        """
        self.disconnected = False
        if self._uplink_idle is None:
            self._uplink_idle = False
            self._network.env.schedule_now(self._drain)

    def deactivate(self) -> None:
        """Park the interface: silent, unreachable, its agent let go.

        Queued copies are dropped (a drain still on the event loop goes
        idle) and the node's hook returns to the default: nothing here
        keeps the retired node reachable. Parking is a round
        boundary for the dedup store: a retired agent is usually
        interrupted before its own ``_prune`` would roll it.
        """
        self.disconnected = True
        self.neighbors = []
        self._egress_urgent.clear()
        self._egress_bulk.clear()
        self.end_round()
        self.on_receive = accept_and_relay

    # --- Egress -----------------------------------------------------------

    def _send(self, envelope: Envelope, targets: list[int],
              raw: bytes | None = None) -> None:
        """Queue one copy per target on the envelope's egress lane.

        Tail-drops past :data:`EGRESS_LANE_BUDGET` — backpressure for
        the gossip fabric: a node whose uplink cannot keep up (e.g. one
        being used as a flood amplifier) sheds the *newest* traffic
        instead of growing the queue without bound. High-water marks are
        per-lane and audited by the chaos engine's ingress-bounds
        invariant.
        """
        lane = (self._egress_urgent if envelope.size <= URGENT_MESSAGE_BYTES
                else self._egress_bulk)
        budget = EGRESS_LANE_BUDGET
        if len(lane) + len(targets) <= budget:
            lane.extend([(envelope, target) for target in targets])
        else:
            for target in targets:
                if len(lane) >= budget:
                    self.egress_dropped += 1
                    if self._metrics is not None:
                        self._metrics.inc("gossip.egress_dropped")
                else:
                    lane.append((envelope, target))
        if len(lane) > self.egress_high_water:
            self.egress_high_water = len(lane)
        if self._uplink_idle:
            self._uplink_idle = False
            self._network.env.schedule_now(self._drain)

    def _drain(self) -> None:
        """Put what the lanes hold on the wire, until the uplink is busy."""
        network = self._network
        bandwidth = network.bandwidth_bps
        urgent, bulk = self._egress_urgent, self._egress_bulk
        while urgent or bulk:
            if urgent:
                # Drain the urgent lane as one serialized batch: each
                # message still occupies the uplink for its own 8*size/bw
                # seconds (arrivals carry the cumulative offset), but the
                # batch costs one drain and one live heap entry.
                batch = list(urgent)
                urgent.clear()
                if self._metrics is not None:
                    self._metrics.observe("gossip.egress_batch", len(batch))
                busy = network._transmit_batch(self, batch)
                if busy > 0.0:
                    # Uplink busy until the batch finishes; newly queued
                    # messages serialize after it.
                    network.env.schedule(busy, self._drain)
                    return
            else:
                # Bulk transfers stay one-at-a-time so a vote arriving
                # mid-block still preempts after the current message.
                item = bulk.popleft()
                if bandwidth is not None:
                    network.env.schedule(item[0].size * 8.0 / bandwidth,
                                         self._finish_bulk, item)
                    return
                self._count_sent(item[0], 1)
                network._transmit(self, item)
        self._uplink_idle = True

    def _finish_bulk(self, item: tuple[Envelope, int]) -> None:
        """The uplink finished serializing bulk ``item``: it departs."""
        self._count_sent(item[0], 1)
        self._network._transmit(self, item)
        self._drain()

    # --- Arrival ----------------------------------------------------------

    def _land(self, item: tuple[Envelope, int]) -> None:
        """One of *this* node's transmissions reaches its destination.

        ``item`` is the ``(envelope, dst)`` record the egress lane
        queued; the sender's bound method is the arrival callback, so a
        transmission needs no closure to remember where it came from.
        """
        network = self._network
        network.messages_delivered += 1
        network.interfaces[item[1]].receive(item[0], self.index)

    def _elide(self, item: tuple[Envelope, int]) -> bool:
        """Would this transmission reach a receiver that already holds it?

        A copy is an event only if it can change state. One whose
        ``msg_id`` is in the destination's current dedup generation can
        only be counted and dropped when it lands, so it is counted
        *now* and never scheduled: asked when a transmission is put on
        the wire and, as the :class:`~repro.sim.loop.BatchSchedule` skip
        predicate, each time an in-flight batch advances to its next
        arrival. An id only an older generation holds is left alone —
        the receiver's next round boundary may forget it, and a
        forgotten id is accepted again — while one in the current
        generation stays held for :data:`SEEN_HORIZON_ROUNDS` more
        boundaries. The sender has already paid for the copy (uplink
        time, ``bytes_sent``, latency draw).
        """
        network = self._network
        receiver = network.interfaces[item[1]]
        if item[0].msg_id not in receiver._seen:
            return False
        network.messages_delivered += 1
        network.dup_elided += 1
        receiver._count_duplicate()
        return True


class GossipNetwork:
    """The full peer-to-peer fabric."""

    def __init__(self, env: Environment, num_nodes: int,
                 rng: np.random.Generator, latency_model: SupportsLatency,
                 peers_per_node: int, bandwidth_bps: float | None,
                 obs: "TraceBus | None" = None,
                 active_indices: "Iterable[int] | None" = None) -> None:
        if num_nodes < 2:
            raise NetworkError("gossip network needs at least 2 nodes")
        if peers_per_node < 1:
            raise NetworkError("peers_per_node must be >= 1")
        self.env = env
        #: Optional :class:`repro.obs.TraceBus`; when ``None`` (the
        #: default) every instrumentation site below reduces to one
        #: attribute load and an ``is not None`` check. Fixed at
        #: construction — interfaces capture its registry once.
        self.obs = obs
        self.rng = rng
        self.latency_model = latency_model
        self.peers_per_node = peers_per_node
        self.bandwidth_bps = bandwidth_bps
        self.drop_filter: DropFilter | None = None
        self.link_shaper: LinkShaper | None = None
        #: Copies that reached a receiver's duplicate check — landed, or
        #: elided before they became an event (:attr:`dup_elided` of them).
        self.messages_delivered = 0
        self.dup_elided = 0
        #: The slots that take part in the gossip fabric: every one
        #: unless ``active_indices`` names the aggregated population's
        #: core.
        self.active = frozenset(range(num_nodes) if active_indices is None
                                else active_indices)
        #: One entry per slot, ``None`` until the slot is first active:
        #: an account that was never an agent owns no relay state.
        self.interfaces: list[NetworkInterface | None] = [None] * num_nodes
        for i in sorted(self.active):
            self.interface(i).activate()
        self.reshuffle_peers()

    def interface(self, index: int) -> NetworkInterface:
        """Slot ``index``'s interface, built on first request."""
        interface = self.interfaces[index]
        if interface is None:
            interface = self.interfaces[index] = NetworkInterface(self, index)
        return interface

    def reshuffle_peers(self) -> None:
        """(Re)build the random peer graph (paper: new peers each round).

        Dormant nodes are excluded from both directions of the new
        neighbor map: they neither draw peers nor get drawn.
        """
        adjacency = draw_peers(self.rng, sorted(self.active),
                               self.peers_per_node)
        for interface in filter(None, self.interfaces):
            interface.neighbors = adjacency.get(interface.index, [])

    def set_active(self, indices) -> None:
        """Aggregated-population round boundary: swap the live slot set.

        Newly active slots are brought online (first drain armed on
        first activation), dropped slots are parked, and the peer graph
        is rebuilt over the new active set. No-op when the set is
        unchanged: no RNG is drawn then.
        """
        active = frozenset(indices)
        if active == self.active:
            return
        previous, self.active = self.active, active
        for index in sorted(previous - active):
            self.interfaces[index].deactivate()
        for index in sorted(active - previous):
            self.interface(index).activate()
        self.reshuffle_peers()

    def _transmit(self, sender: NetworkInterface,
                  item: tuple[Envelope, int]) -> None:
        """Put one egress-lane ``(envelope, dst)`` record on the wire."""
        for delay in self._shaped_delays(sender.index, item):
            if not sender._elide(item):
                self.env.schedule(delay, sender._land, item)

    def _transmit_batch(self, sender: NetworkInterface,
                        batch: list[tuple[Envelope, int]]) -> float:
        """Put one drained urgent-lane batch on the wire, in one pass.

        ``batch`` holds the egress lane's own ``(envelope, dst)``
        records; the return value is how long they occupy the uplink.
        Each copy is counted as sent (one :meth:`RelayCore._count_sent`
        per run of one envelope — a relay's copies sit side by side),
        adds its ``8 * size / bandwidth`` to the serialization offset,
        and arrives at ``now + (offset + latency(src, dst))`` — in
        exactly that float association — as the per-neighbor path would
        deliver it. The whole batch shares one
        :class:`repro.sim.loop.BatchSchedule` (arrivals landing at the
        same instant — e.g. under the uniform latency model — share a
        single event) and the lane records are reused as its payloads.
        Latencies are drawn for the whole batch before any copy is
        elided (:meth:`NetworkInterface._elide`), so the RNG stream does
        not depend on who already holds what; only a surviving copy's
        arrival is computed, and a batch whose every copy is elided
        schedules nothing.
        """
        src = sender.index
        bandwidth = self.bandwidth_bps
        now = self.env.now
        interfaces = self.interfaces
        # Fault hooks may draw from one shared RNG, so they keep the
        # per-message filter -> latency -> shaper call order.
        faulted = self.drop_filter is not None or self.link_shaper is not None
        if not faulted:
            row, cities, factors = self.latency_model.batch_terms(src,
                                                                  len(batch))
        arrivals = []
        offset = 0.0
        elided = 0
        counted, run = batch[0][0], 0
        for position, item in enumerate(batch):
            envelope, dst = item
            if envelope is not counted:
                sender._count_sent(counted, run)
                counted, run = envelope, 0
            run += 1
            if bandwidth is not None:
                offset += envelope.size * 8.0 / bandwidth
            if faulted:
                for delay in self._shaped_delays(src, item):
                    if not sender._elide(item):
                        arrivals.append((now + (offset + delay), item))
            elif envelope.msg_id in interfaces[dst]._seen:
                elided += 1  # _elide, inline
            elif factors is None:
                arrivals.append((now + (offset + row[cities[dst]]), item))
            else:
                arrivals.append((now + (offset + row[cities[dst]]
                                        * factors[position]), item))
        sender._count_sent(counted, run)
        if elided:
            self.messages_delivered += elided
            self.dup_elided += elided
            if self.obs is not None:
                self.obs.metrics.inc("gossip.dup_dropped", elided)
        if arrivals:
            self.env.push_batch(arrivals, sender._land, sender._elide)
        return offset

    def _shaped_delays(self, src: int,
                       item: tuple[Envelope, int]) -> list[float]:
        """Arrival delays of one message after the fault hooks.

        Empty when ``drop_filter`` drops it; several entries when
        ``link_shaper`` duplicates it.
        """
        envelope, dst = item
        if self.drop_filter is not None and self.drop_filter(src, dst,
                                                             envelope):
            if self.obs is not None:
                self.obs.metrics.inc("gossip.filtered")
            return []
        delay = self.latency_model.latency(src, dst)
        if self.link_shaper is None:
            return [delay]
        return [max(0.0, shaped)
                for shaped in self.link_shaper(src, dst, envelope, delay)]

    # --- Cost accounting ----------------------------------------------

    @property
    def total_bytes_sent(self) -> int:
        return sum(i.bytes_sent for i in filter(None, self.interfaces))
