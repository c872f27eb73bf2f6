"""Adversarial network control: partitions and targeted DoS.

Both are built from the gossip layer's single ``drop_filter`` hook, which
is exactly the power the paper grants the adversary in its weak-synchrony
model (full control of the links for a bounded period).
:class:`FilterChain` and :class:`Partitioner` live with the rest of the
fault vocabulary in :mod:`repro.chaos.faults` (a live node process
imports them there) and are re-exported here.
"""

from __future__ import annotations

from typing import Iterable

from repro.chaos.faults import FilterChain, Partitioner  # noqa: F401
from repro.network.gossip import GossipNetwork
from repro.network.message import Envelope


class TargetedDoS:
    """Disconnects any node shortly after it reveals itself as a proposer.

    Models the attack of section 8.4: the adversary watches for priority
    announcements and knocks the announcer offline after ``reaction_time``
    seconds. Algorand's defense is that by then the block (or at least
    the announcement) is already propagating and the proposer's job is
    done — committee members for later steps are fresh, unexposed users.
    """

    def __init__(self, chain: FilterChain, env, index_of,
                 reaction_time: float = 1.0,
                 restore_after: float | None = None,
                 max_concurrent: int = 2) -> None:
        if reaction_time < 0:
            raise ValueError("reaction_time must be >= 0")
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        self._chain = chain
        self._env = env
        #: The deployment's key -> node index map (its
        #: :class:`~repro.ledger.arraystate.AccountIndex`, or any mapping
        #: with ``get``): who announced a priority.
        self._index_of = index_of
        self.reaction_time = reaction_time
        self.restore_after = restore_after
        #: Adversary capacity: how many victims it can keep offline at
        #: once. The paper's model allows *targeted* attacks, not mass
        #: disconnection — honest stake must stay over the threshold.
        self.max_concurrent = max_concurrent
        self.victims: list[int] = []
        self._attacked: set[int] = set()
        self._active = 0
        chain.add(self._watch)

    def _watch(self, src: int, dst: int, envelope: Envelope) -> bool:
        if envelope.kind == "priority":
            origin = self._index_of.get(envelope.origin)
            if origin is not None and origin not in self._attacked:
                self._attacked.add(origin)
                self._env.schedule(self.reaction_time,
                                   lambda o=origin: self._strike(o))
        return False  # observing only; never drops by itself

    def _strike(self, victim: int) -> None:
        if self._active >= self.max_concurrent:
            self._attacked.discard(victim)  # may retry later
            return
        self._active += 1
        self.victims.append(victim)
        iface = self._chain.network.interfaces[victim]
        iface.disconnected = True
        if self.restore_after is not None:
            self._env.schedule(self.restore_after,
                               lambda: self._release(iface))

    def _release(self, iface) -> None:
        iface.disconnected = False
        self._active -= 1


def isolate(network: GossipNetwork, nodes: Iterable[int]) -> None:
    """Permanently disconnect ``nodes`` (eclipse/DoS of specific users)."""
    for index in nodes:
        network.interfaces[index].disconnected = True
