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
for ``dos`` and ``targeted-dos`` (the latter struck by a watch on the
drop chain that never drops), the agent's fail-stop
:meth:`~repro.node.agent.Node.crash` and its
:meth:`~repro.node.agent.Node.revive` / ``rejoin``,
:func:`junk_vote_loop` for ``flood``/``spam``, and
:data:`BYZANTINE_SEAMS` for the attackers that take over an otherwise
honest node's proposal or vote gossip.

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
deployment's random choices.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.baplus.messages import VoteMessage, make_vote
from repro.chaos.scenario import JUNK_FAULTS, LINK_FAULTS, FaultAction
from repro.crypto.hashing import H
from repro.ledger.block import empty_block_hash
from repro.network.message import (
    Envelope,
    block_envelope,
    priority_envelope,
    vote_envelope,
)
from repro.node.proposal import make_priority_message

if TYPE_CHECKING:
    import numpy as np

    from repro.baplus.context import BAContext
    from repro.node.agent import Node
    from repro.node.proposal import ProposalTracker
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


class _ProposerWatch:
    """``targeted-dos``: a drop-chain predicate that never drops.

    While its window is open, the first ``priority`` envelope a victim
    sends about itself arms a strike ``reaction`` seconds later; a
    strike holds the victim disconnected until the window closes. Each
    victim is struck at most once.
    """

    def __init__(self, injector: "FaultInjector", reaction: float,
                 victims: list["Node"]) -> None:
        self.injector = injector
        self.reaction = reaction
        self.victims = {node.keypair.public: node for node in victims}
        self.struck: list["Node"] = []
        self.active = False

    def activate(self) -> None:
        self.active = True

    def deactivate(self) -> None:
        self.active = False
        self.injector.release(self.struck)
        self.struck.clear()

    def _strike(self, node: "Node") -> None:
        if self.active:
            self.struck.append(node)
            self.injector.hold((node,))

    def __call__(self, src: int, dst: int, envelope: Envelope) -> bool:
        if self.active and envelope.kind == "priority":
            node = self.victims.get(envelope.origin)
            if node is not None and node.index == src:
                del self.victims[envelope.origin]
                self.injector.clock.schedule(
                    self.reaction, partial(self._strike, node))
        return False


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


def junk_vote_loop(node: "Node", kind: str, batch: int, *,
                   delay: float = 0.0, until: float | None = None) -> None:
    """Every second, broadcast ``batch`` junk votes.

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
        clock.schedule(1.0, tick)

    def begin() -> None:
        if delay > 0:
            clock.schedule(delay, tick)
        else:
            tick()

    clock.schedule_now(begin)


def _halves(node: "Node") -> tuple[list[int], list[int]]:
    neighbors = node.interface.neighbors
    half = len(neighbors) // 2
    return neighbors[:half], neighbors[half:]


def propose_equivocation(node: "Node", round_number: int, ctx: "BAContext",
                         proof, tracker: "ProposalTracker") -> None:
    """``equivocate``'s ``propose_block``: one version of the block to
    each neighbour half. The second drops the last transaction and moves
    the timestamp, so both validate; the attacker keeps the first."""
    base = node.assemble_block(round_number, proof)
    variant = dataclasses.replace(base, timestamp=base.timestamp + 1e-6,
                                  transactions=base.transactions[:-1])
    node.registry.register(base)
    node.registry.register(variant)
    public = node.keypair.public
    announcement = make_priority_message(public, round_number, proof)
    node.admission.own_priority(round_number)
    tracker.observe_priority(announcement, node.env)
    tracker.observe_block(base, node.env)
    node.interface.broadcast(priority_envelope(public, announcement))
    for block, half in zip((base, variant), _halves(node)):
        node.interface.send_to(block_envelope(public, block, block.size),
                               half)


def gossip_double_vote(node: "Node", vote: VoteMessage) -> None:
    """``double-vote``'s ``gossip_vote``: the vote to one neighbour half,
    a conflicting one with the same sortition proof to the other. Honest
    nodes count the first vote per voter they see, so the honest count
    splits between the two values."""
    empty = empty_block_hash(vote.round_number, vote.prev_hash)
    other = (empty if vote.value != empty
             else H(b"equivocation", vote.prev_hash))
    public = node.keypair.public
    second = make_vote(node.backend, node.keypair.secret, public,
                       vote.round_number, vote.step, vote.sorthash,
                       vote.sortproof, vote.prev_hash, other)
    node.admission.own_vote(vote)
    node.buffer.add(vote)
    for sent, half in zip((vote, second), _halves(node)):
        node.interface.send_to(vote_envelope(public, sent), half)


def stay_silent(node: "Node", *args) -> None:
    """``silent``'s proposal and vote: nothing (offline stake)."""


#: What ``equivocate``, ``double-vote`` and ``silent`` put in place of a
#: node's ``propose_block`` and ``participant.gossip_vote`` for their
#: window; each behaviour takes the node first.
BYZANTINE_SEAMS = {
    "equivocate": {"propose_block": propose_equivocation},
    "double-vote": {"gossip_vote": gossip_double_vote},
    "silent": {"propose_block": stay_silent, "gossip_vote": stay_silent},
}


class FaultInjector:
    """Arms every action of a scenario on one clock, fabric and node set.

    ``nodes`` maps index to :class:`~repro.node.agent.Node` for the
    nodes *this process hosts*. ``obs`` receives the
    ``fault_applied``/``fault_cleared`` pair of each window (a live
    node passes ``None``: its coordinator writes the pair once for the
    cluster). A sim runner sets ``rounds``, the target height a
    restarted node resumes toward, before it runs.
    """

    def __init__(self, clock: "Clock", fabric: "Fabric",
                 nodes: Mapping[int, "Node"],
                 actions: Iterable[FaultAction], *,
                 rng: "np.random.Generator", obs=None) -> None:
        self.clock = clock
        self.nodes = nodes
        self.actions = tuple(actions)
        self.rng = rng
        self.obs = obs
        self.rounds: int | None = None
        #: Hosted nodes a crash holds down until its scheduled restart.
        self.restarting: set[int] = set()
        #: Per hosted node, the ``dos``/``targeted-dos`` windows that
        #: hold it disconnected now.
        self.holds: dict[int, int] = {}
        self.chain = FilterChain(fabric)
        self.shaper = ShaperChain(fabric)

    def install(self) -> None:
        """Schedule every fault action, in script order."""
        for action in self.actions:
            self._install_action(action)

    def _arm(self, action: FaultAction, apply=None, clear=None) -> None:
        """Schedule one window's two edges relative to ``clock.now``.

        A window already open — it starts now, or a respawned live node
        resumes its clock inside it — is applied inline, before anything
        else happens at this instant, and clipped; the caller has
        already skipped windows that fully passed.
        """
        def edge(event: str, act) -> None:
            if act is not None:
                act()
            if self.obs is not None:
                self.obs.emit(event, fault=action.kind,
                              nodes=list(action.nodes),
                              window=[action.start, action.end])

        now = self.clock.now
        if action.start <= now:
            edge("fault_applied", apply)
        else:
            self.clock.schedule(action.start - now,
                                lambda: edge("fault_applied", apply))
        if action.end is not None:
            self.clock.schedule(action.end - now,
                                lambda: edge("fault_cleared", clear))

    def hold(self, nodes: Iterable["Node"]) -> None:
        """One more window holds each of ``nodes`` disconnected."""
        for node in nodes:
            self.holds[node.index] = self.holds.get(node.index, 0) + 1
            node.interface.disconnected = True

    def release(self, nodes: Iterable["Node"]) -> None:
        """One window lets go of each of ``nodes``; a node reconnects
        once no window holds it and it is not crashed."""
        for node in nodes:
            self.holds[node.index] -= 1
            if not self.holds[node.index] and not node.crashed:
                node.interface.disconnected = False

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
            self._arm(action, partial(self.hold, hosted),
                      partial(self.release, hosted))
        elif kind == "targeted-dos":
            watch = _ProposerWatch(self, action.extra_delay, hosted)
            self.chain.add(watch)
            self._arm(action, watch.activate, watch.deactivate)
        elif kind in JUNK_FAULTS:
            self._arm(action)
            for node in hosted:
                junk_vote_loop(node, kind, max(1, int(action.rate)),
                               delay=action.start - self.clock.now,
                               until=action.end)
        elif kind in BYZANTINE_SEAMS:
            behaviours = BYZANTINE_SEAMS[kind]
            # (holder, attribute, what the holder itself had there):
            # ``None`` means the class's method, restored by deleting.
            taken: list[tuple[object, str, object]] = []

            def take_over() -> None:
                for node in hosted:
                    for attribute, behaviour in behaviours.items():
                        holder = (node if attribute == "propose_block"
                                  else node.participant)
                        taken.append((holder, attribute,
                                      vars(holder).get(attribute)))
                        setattr(holder, attribute, partial(behaviour, node))

            def give_back() -> None:
                while taken:
                    holder, attribute, own = taken.pop()
                    if own is None:
                        delattr(holder, attribute)
                    else:
                        setattr(holder, attribute, own)

            self._arm(action, take_over, give_back)
        else:  # crash
            def crash() -> None:
                if action.end is not None:
                    self.restarting.update(node.index for node in hosted)
                for node in hosted:
                    node.crash()

            def restart() -> None:
                for node in hosted:
                    self.restarting.discard(node.index)
                    node.revive()
                    if self.holds.get(node.index):
                        # Restarted inside a DoS window: still cut off.
                        node.interface.disconnected = True
                    node.rejoin(self.rounds)

            self._arm(action, crash, restart)
