"""The fault vocabulary, compiled onto whichever substrate runs it.

One :class:`FaultInjector` arms a scenario's
:class:`~repro.chaos.scenario.FaultAction` windows on a
:class:`~repro.substrate.api.Clock`, through exactly the control
surfaces the paper grants the adversary (section 3: the links, for a
bounded period): message *dropping* goes through the fabric's
``drop_filter`` (:class:`FilterChain`, which composes with anything
already installed), message *timing* through its ``link_shaper``
(:class:`ShaperChain`: delay spikes, duplication, reordering), and
node-level faults act on the node objects — ``interface.disconnected``
for a targeted DoS, :func:`junk_vote_loop` for ``flood``/``spam``, the
agent's fail-stop :meth:`~repro.node.agent.Node.crash` /
:meth:`~repro.node.agent.Node.restart`.

The fabric is any :class:`~repro.substrate.api.Fabric`: the sim's
:class:`~repro.network.gossip.GossipNetwork`, where one injector hosts
every node, or a live process's
:class:`~repro.live.transport.LiveTransport`, where each process builds
its own injector with ``nodes = {index: node}``. Link kinds install in
every process — the predicates filter on ``(src, dst)`` themselves, so
both ends of a cut drop their own outbound frames at the same clock
offsets — and node-local kinds act only on hosted nodes.

All randomness (loss and duplicate coins, reorder jitter) comes from the
``rng`` the caller seeds from the scenario seed, independent of the
deployment's own RNG: adding a fault never perturbs the underlying
deployment's random choices. A node process loads this module, so it
must not import :mod:`repro.adversary` (which imports from here).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.baplus.messages import VoteMessage, make_vote
from repro.chaos.scenario import ATTACKER_FAULTS, LINK_FAULTS, FaultAction
from repro.crypto.hashing import H
from repro.network.message import Envelope, vote_envelope

if TYPE_CHECKING:
    import numpy as np

    from repro.node.agent import Node
    from repro.substrate.api import Clock, Fabric


class FilterChain:
    """Composes several drop predicates into one ``drop_filter``.

    A previously installed ``drop_filter`` is absorbed as the chain's
    first predicate instead of being silently clobbered, so constructing
    a second chain (or chaining on top of a bare filter) keeps every
    earlier adversary in force.
    """

    def __init__(self, network: "Fabric") -> None:
        self.network = network
        self._filters: list = []
        existing = network.drop_filter
        if existing is not None:
            self._filters.append(existing)
        network.drop_filter = self._evaluate

    def add(self, predicate) -> None:
        self._filters.append(predicate)

    def remove(self, predicate) -> None:
        self._filters.remove(predicate)

    def _evaluate(self, src: int, dst: int, envelope: Envelope) -> bool:
        return any(predicate(src, dst, envelope)
                   for predicate in self._filters)


class ShaperChain:
    """Composes per-link delivery mutators into one ``link_shaper``.

    Mirrors :class:`FilterChain` for the timing hook: each effect maps a
    list of arrival delays to a new list (empty = drop, longer =
    duplicate). Effects apply in installation order. An
    already-installed shaper is absorbed as the first effect.
    """

    def __init__(self, network: "Fabric") -> None:
        self.network = network
        self._effects: list = []
        existing = network.link_shaper
        if existing is not None:
            self._effects.append(
                lambda src, dst, env, delays:
                [shaped for delay in delays
                 for shaped in existing(src, dst, env, delay)])
        network.link_shaper = self._shape

    def add(self, effect) -> None:
        self._effects.append(effect)

    def _shape(self, src: int, dst: int, envelope: Envelope,
               base_delay: float) -> list[float]:
        delays = [base_delay]
        for effect in self._effects:
            delays = effect(src, dst, envelope, delays)
            if not delays:
                return delays
        return delays


class Partitioner:
    """Splits the network into groups for a time window.

    Messages crossing group boundaries are dropped while active; nodes
    in no listed group share one implicit extra group. This is the
    adversary of the weak-synchrony assumption: after ``heal()`` (or
    the scheduled end time) the network is strongly synchronous again.
    """

    def __init__(self, chain: FilterChain, groups: list[set[int]]) -> None:
        self._chain = chain
        self._groups = groups
        self._active = False

    def _group_of(self, node: int) -> int:
        for index, group in enumerate(self._groups):
            if node in group:
                return index
        return -1

    def _drop(self, src: int, dst: int, envelope: Envelope) -> bool:
        return self._active and self._group_of(src) != self._group_of(dst)

    def activate(self) -> None:
        if not self._active:
            self._active = True
            self._chain.add(self._drop)

    def heal(self) -> None:
        if self._active:
            self._active = False
            self._chain.remove(self._drop)

    def schedule(self, env, start: float, end: float) -> None:
        """Partition during ``[start, end)`` simulated seconds."""
        if end <= start:
            raise ValueError("partition must end after it starts")
        env.schedule(start, self.activate)
        env.schedule(end, self.heal)


def _matches(nodes: frozenset[int], src: int, dst: int) -> bool:
    return not nodes or src in nodes or dst in nodes


class _WindowedLinkEffect:
    """A link mutator active only inside its scheduled window."""

    def __init__(self, action: FaultAction,
                 rng: "np.random.Generator") -> None:
        self.action = action
        self.nodes = frozenset(action.nodes)
        self.rng = rng
        self.active = False

    def activate(self) -> None:
        self.active = True

    def deactivate(self) -> None:
        self.active = False

    def drops(self, src: int, dst: int, envelope: Envelope) -> bool:
        """The ``loss`` coin, as a :class:`FilterChain` predicate.

        Loss is a drop decision: it rides the filter chain with
        partitions (and the ``gossip.filtered`` counter), not the
        shaper.
        """
        return (self.active and _matches(self.nodes, src, dst)
                and float(self.rng.random()) < self.action.rate)

    def __call__(self, src: int, dst: int, envelope: Envelope,
                 delays: list[float]) -> list[float]:
        if not self.active or not _matches(self.nodes, src, dst):
            return delays
        kind = self.action.kind
        if kind == "delay":
            return [delay + self.action.extra_delay for delay in delays]
        if kind == "reorder":
            jitter = self.action.jitter
            return [delay + jitter * float(self.rng.random())
                    for delay in delays]
        if kind == "duplicate":
            out = []
            for delay in delays:
                out.append(delay)
                if float(self.rng.random()) < self.action.rate:
                    out.append(delay + max(self.action.jitter, 0.05))
            return out
        return delays


def junk_vote(node: "Node", kind: str, counter: int) -> VoteMessage:
    """The ``counter``-th junk vote of a ``flood`` or ``spam`` attacker.

    ``flood`` is an invalid-signature vote at the attacker's own
    current round (cheap to make, cheap to reject — the point is
    volume); ``spam`` is a validly signed vote for a round no receiver
    can validate yet (the undecidable-message DoS of PAPERS.md).
    Counter-based, no RNG, so attacks stay byte-reproducible.
    """
    public = node.keypair.public
    junk = H(b"flood" if kind == "flood" else b"spam", public,
             counter.to_bytes(8, "big"))
    if kind == "flood":
        return VoteMessage(
            voter=public, round_number=node.chain.next_round,
            step="reduction_one", sorthash=junk, sortproof=junk,
            prev_hash=node.chain.tip_hash, value=junk,
            signature=junk[:32])
    return make_vote(
        node.backend, node.keypair.secret, public,
        node.chain.next_round + 100 + counter, "reduction_one",
        junk, junk, node.chain.tip_hash, junk)


def junk_vote_loop(node: "Node", kind: str, batch: int, interval: float,
                   *, delay: float = 0.0, until: float | None = None) -> None:
    """Every ``interval``, broadcast ``batch`` junk votes.

    Begins at the next event of this instant, first fires after
    ``delay`` and runs until the clock reaches ``until`` (forever when
    ``None``); silent while the node is crashed or disconnected.
    """
    clock = node.env
    counter = 0

    def tick() -> None:
        nonlocal counter
        if until is not None and clock.now >= until:
            return
        if not node.crashed and not node.interface.disconnected:
            for _ in range(batch):
                counter += 1
                node.interface.broadcast(vote_envelope(
                    node.keypair.public, junk_vote(node, kind, counter)))
        clock.schedule(interval, tick)

    def begin() -> None:
        if delay > 0:
            clock.schedule(delay, tick)
        else:
            tick()

    clock.schedule_now(begin)


class FaultInjector:
    """Arms every action of a scenario on one clock, fabric and node set.

    ``nodes`` maps index to :class:`~repro.node.agent.Node` for the
    nodes *this process hosts*. ``obs`` receives the
    ``fault_applied``/``fault_cleared`` pair of each window (a live
    node passes ``None``: its coordinator writes the pair once for the
    cluster); ``rounds`` is the target height a restarted node resumes
    toward.
    """

    def __init__(self, clock: "Clock", fabric: "Fabric",
                 nodes: Mapping[int, "Node"],
                 actions: Iterable[FaultAction], *,
                 rng: "np.random.Generator", obs=None,
                 rounds: int | None = None) -> None:
        self.clock = clock
        self.nodes = nodes
        self.actions = tuple(actions)
        self.rng = rng
        self.obs = obs
        self.rounds = rounds
        self.chain = FilterChain(fabric)
        self.shaper = ShaperChain(fabric)

    def install(self) -> None:
        """Schedule every fault action, in script order."""
        for action in self.actions:
            self._install_action(action)

    def _arm(self, action: FaultAction, apply=None, clear=None) -> None:
        """Schedule one window's two edges relative to ``clock.now``.

        A window entered mid-way (a respawned live node resumes its
        clock at the kill offset) is applied at once and clipped; the
        caller has already skipped windows that fully passed.
        """
        def edge(event: str, act) -> None:
            if act is not None:
                act()
            if self.obs is not None:
                self.obs.emit(event, fault=action.kind,
                              nodes=list(action.nodes),
                              window=[action.start, action.end])

        now = self.clock.now
        self.clock.schedule(max(0.0, action.start - now),
                            lambda: edge("fault_applied", apply))
        if action.end is not None:
            self.clock.schedule(action.end - now,
                                lambda: edge("fault_cleared", clear))

    def _install_action(self, action: FaultAction) -> None:
        if action.end is not None and action.end <= self.clock.now:
            return  # the window passed before this process (re)joined
        kind = action.kind
        hosted = [self.nodes[index] for index in action.nodes
                  if index in self.nodes]
        if kind == "partition":
            partition = Partitioner(
                self.chain, [set(group) for group in action.groups])
            self._arm(action, partition.activate, partition.heal)
        elif kind in LINK_FAULTS:
            effect = _WindowedLinkEffect(action, self.rng)
            if kind == "loss":
                self.chain.add(effect.drops)
            else:
                self.shaper.add(effect)
            self._arm(action, effect.activate, effect.deactivate)
        elif kind == "dos":
            def disconnect(flag: bool) -> None:
                for node in hosted:
                    node.interface.disconnected = flag

            self._arm(action, lambda: disconnect(True),
                      lambda: disconnect(False))
        elif kind in ATTACKER_FAULTS:
            self._arm(action)
            for node in hosted:
                junk_vote_loop(node, kind, max(1, int(action.rate)), 1.0,
                               delay=action.start - self.clock.now,
                               until=action.end)
        else:  # crash
            def crash() -> None:
                for node in hosted:
                    node.crash()

            def restart() -> None:
                for node in hosted:
                    node.restart(self.rounds)

            self._arm(action, crash, restart)
