"""Scripted fault injection on the live transport's peer links.

The sim's :class:`repro.chaos.faults.FaultInjector` compiles a
:class:`~repro.chaos.scenario.ScenarioScript` onto the virtual clock's
link shaper. This module is the same compilation targeted at one **real
node process**: every node receives the full fault schedule in its
``start`` control message and installs a :class:`LiveFaultPlane` that
arms each window on its own :class:`~repro.live.clock.LiveClock` — so
both endpoints of a partitioned link cut (and later release) each other
at the same wall-clock offsets without any runtime coordination.

Fault kinds map onto link mechanics, not models:

* ``partition`` / ``dos`` — :meth:`LiveTransport.sever_peer`: the TCP/UDS
  connection is closed, new handshakes are refused, inbound frames
  already in flight are dropped. Healing releases the sever and the
  backoff dialer re-establishes the link.
* ``loss`` — sender-side probabilistic frame drop in ``_send_frames``,
  seeded per node (``[seed, FAULT_RNG_TAG, index]``) so the drop pattern
  is reproducible for a fixed schedule.
* ``delay`` — the writer queue's flush stalls by ``extra_delay`` per
  frame (head-of-line, like real congestion).
* ``crash`` — **not handled here**: the coordinator owns SIGKILL and
  respawn; a dead process cannot schedule its own murder.

``duplicate``/``reorder``/``flood``/``spam`` stay sim-only (they model
fabric or adversary behavior that has no faithful single-link analog
here); :func:`unsupported_live_kinds` lets callers fail loudly up front.
"""

from __future__ import annotations

from typing import Iterable

# numpy >= 2 loads numpy.random on first attribute access (~20 ms):
# name it here so that cost is start-up, not the first round.
from numpy.random import default_rng

from repro.chaos.scenario import FAULT_RNG_TAG, FaultAction
from repro.live.clock import LiveClock
from repro.live.transport import LiveTransport

#: Fault kinds the live plane can realize on real links/processes.
LIVE_FAULT_KINDS = frozenset({"partition", "loss", "delay", "crash", "dos"})


def unsupported_live_kinds(actions: Iterable[FaultAction]) -> set[str]:
    """Fault kinds in ``actions`` with no live realization."""
    return {action.kind for action in actions} - LIVE_FAULT_KINDS


class LiveFaultPlane:
    """Per-node realization of a scenario's link faults on wall windows.

    Install once (before the clock starts running protocol time) with
    the scripted actions; the plane schedules activate/deactivate
    callbacks relative to ``clock.now`` — a respawned node whose clock
    resumes at its kill offset therefore skips windows that already
    ended and clips ones it rejoined in the middle of.
    """

    def __init__(self, index: int, num_nodes: int, clock: LiveClock,
                 transport: LiveTransport, seed: int) -> None:
        self.index = index
        self.num_nodes = num_nodes
        self.clock = clock
        self.transport = transport
        self.rng = default_rng([seed, FAULT_RNG_TAG, index])
        #: Active loss effects: ``(nodes, rate)`` — ``nodes`` empty means
        #: every link (matching the sim's ``_matches`` semantics).
        self._loss: list[tuple[frozenset[int], float]] = []
        #: Active delay effects: ``(nodes, extra_delay)``.
        self._delay: list[tuple[frozenset[int], float]] = []
        self.dropped_frames = 0
        self.delayed_frames = 0
        #: Called with each peer index released from a sever, so the
        #: owner can kick its reconnect loop immediately.
        self.on_release = None
        transport.fault_plane = self

    # -- installation ----------------------------------------------------

    def install(self, actions: Iterable[FaultAction]) -> None:
        for action in actions:
            if action.kind == "crash":
                continue  # coordinator-owned: SIGKILL + respawn
            if action.kind not in LIVE_FAULT_KINDS:
                raise ValueError(
                    f"fault kind {action.kind!r} has no live realization")
            now = self.clock.now
            end = action.end
            if end is not None and end <= now:
                continue  # window fully in the past (rejoined after it)
            start_delay = max(0.0, action.start - now)
            if action.kind in ("partition", "dos"):
                peers = self._severed_peers(action)
                if not peers:
                    continue
                self.clock.schedule(
                    start_delay, lambda p=peers: self._sever(p))
                if end is not None:
                    self.clock.schedule(
                        max(0.0, end - now), lambda p=peers: self._release(p))
            elif action.kind == "loss":
                effect = (frozenset(action.nodes), action.rate)
                self.clock.schedule(
                    start_delay, lambda e=effect: self._loss.append(e))
                if end is not None:
                    self.clock.schedule(
                        max(0.0, end - now),
                        lambda e=effect: self._loss.remove(e))
            elif action.kind == "delay":
                effect = (frozenset(action.nodes), action.extra_delay)
                self.clock.schedule(
                    start_delay, lambda e=effect: self._delay.append(e))
                if end is not None:
                    self.clock.schedule(
                        max(0.0, end - now),
                        lambda e=effect: self._delay.remove(e))

    def _severed_peers(self, action: FaultAction) -> frozenset[int]:
        """Which peers this node must cut for one partition/DoS window."""
        if action.kind == "dos":
            # Mirror the sim: only the DoSed target goes deaf and mute;
            # other nodes keep their (now useless) links up.
            if self.index in action.nodes:
                return frozenset(range(self.num_nodes)) - {self.index}
            return frozenset()
        # Partition: mirror the sim Partitioner — listed groups are
        # islands, all unlisted nodes share one implicit extra island.
        my_group = -1
        for group_index, group in enumerate(action.groups):
            if self.index in group:
                my_group = group_index
        peers = set()
        for peer in range(self.num_nodes):
            if peer == self.index:
                continue
            peer_group = -1
            for group_index, group in enumerate(action.groups):
                if peer in group:
                    peer_group = group_index
            if peer_group != my_group:
                peers.add(peer)
        return frozenset(peers)

    # -- window transitions ----------------------------------------------

    def _sever(self, peers: frozenset[int]) -> None:
        for peer in peers:
            self.transport.sever_peer(peer)

    def _release(self, peers: frozenset[int]) -> None:
        for peer in peers:
            self.transport.release_peer(peer)
            if self.on_release is not None:
                self.on_release(peer)

    # -- per-frame hooks (called from the transport's send path) ---------

    def _matches(self, nodes: frozenset[int], peer: int) -> bool:
        return not nodes or self.index in nodes or peer in nodes

    def outbound_drop(self, peer: int) -> bool:
        for nodes, rate in self._loss:
            if self._matches(nodes, peer) and self.rng.random() < rate:
                self.dropped_frames += 1
                return True
        return False

    def outbound_delay(self, peer: int) -> float:
        return sum(extra for nodes, extra in self._delay
                   if self._matches(nodes, peer))
