"""Block proposal (section 6).

Sortition selects an expected ``tau_proposer`` proposers per round. Each
selected sub-user ``1..j`` yields a priority ``H(vrf_hash || sub_user)``;
the block's priority is the highest of them. Proposers gossip two
messages: a tiny priority/proof announcement (~200 bytes) that races ahead
of the block, and the block itself. Users track the highest priority seen,
discard lower-priority blocks, and time out to the empty block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.encoding import encode
from repro.crypto.backend import CryptoBackend
from repro.crypto.hashing import H
from repro.ledger.block import Block
from repro.sim.loop import Environment
from repro.sortition.roles import proposer_role
from repro.sortition.selection import SortitionProof, verify_sort


def priority_of_subuser(vrf_hash: bytes, sub_user: int) -> bytes:
    """Priority of one selected sub-user (bigger bytes == higher)."""
    return H(vrf_hash, encode(sub_user))


def block_priority(vrf_hash: bytes, j: int) -> bytes:
    """The block's priority: the best among its ``j`` selected sub-users."""
    if j < 1:
        raise ValueError("proposer must have at least one selected sub-user")
    return max(priority_of_subuser(vrf_hash, sub_user)
               for sub_user in range(1, j + 1))


@dataclass(frozen=True)
class PriorityMessage:
    """The small, fast proposal announcement (priority + sortition proof).

    Every node on one tip asks the same question of one announcement,
    so the instance carries its verdict as a *receipt*, the way a
    :class:`~repro.baplus.messages.VoteMessage` carries its weight:
    keyed by the sortition context ``(seed, tau, weight,
    total_weight)``, so a context with another seed or weight recomputes
    instead of inheriting. The receipt lives on the instance, outside
    the dataclass fields: a decoded copy and ``dataclasses.replace``
    start with none.
    """

    proposer: bytes
    round_number: int
    vrf_hash: bytes
    vrf_proof: bytes
    sub_users: int
    priority: bytes

    # No verdict yet: a class-level default (not a dataclass field) that
    # an instance's own receipt shadows.
    _verdict_receipt = None

    def verify(self, backend: CryptoBackend, seed: bytes, tau: float,
               weight: int, total_weight: int) -> bool:
        """Check the sortition proof and the claimed priority."""
        receipt = self._verdict_receipt
        if (receipt is not None and receipt[0] == seed
                and receipt[1] == tau and receipt[2] == weight
                and receipt[3] == total_weight):
            return receipt[4]
        j = verify_sort(
            backend, self.proposer, self.vrf_hash, self.vrf_proof, seed,
            tau, proposer_role(self.round_number), weight, total_weight,
        )
        valid = (j != 0 and self.sub_users == j
                 and self.priority == block_priority(self.vrf_hash, j))
        # Frozen dataclass: bypass __setattr__.
        object.__setattr__(self, "_verdict_receipt",
                           (seed, tau, weight, total_weight, valid))
        return valid


def make_priority_message(proposer: bytes, round_number: int,
                          proof: SortitionProof) -> PriorityMessage:
    return PriorityMessage(
        proposer=proposer,
        round_number=round_number,
        vrf_hash=proof.vrf_hash,
        vrf_proof=proof.vrf_proof,
        sub_users=proof.j,
        priority=block_priority(proof.vrf_hash, proof.j),
    )


@dataclass
class ProposalTracker:
    """Per-round bookkeeping of proposals a node has heard about."""

    round_number: int
    best_priority: PriorityMessage | None = None
    blocks: dict[bytes, Block] = field(default_factory=dict)
    #: Proposers seen equivocating (two different blocks, same round);
    #: their proposals are discarded per the section 10.4 optimization.
    equivocators: set[bytes] = field(default_factory=set)
    #: Block hash announced by each proposer (equivocation detection).
    announced: dict[bytes, bytes] = field(default_factory=dict)
    #: Every announcement recorded before the node began this round, in
    #: arrival order, each with whether it could be verified on arrival
    #: (a later round's context does not exist yet); ``None`` once
    #: :meth:`settle` ran.
    heard: list[tuple[PriorityMessage, bool]] | None = field(
        default_factory=list)
    #: ``(callback, arg)`` woken (on the event loop) by the next new best
    #: priority, and by the next block: the proposal wait parks on both.
    on_priority: list[tuple] = field(default_factory=list)
    on_block: list[tuple] = field(default_factory=list)

    def observe_priority(self, message: PriorityMessage, env: Environment,
                         checked: bool = True) -> bool:
        """Record an announcement; True if it is the new best priority.

        ``checked=False``: nobody could verify it yet. It may lead (and
        so steer block relay) until the round begins and :meth:`settle`
        checks it.
        """
        if message.proposer in self.equivocators:
            return False
        if self.heard is not None:
            self.heard.append((message, checked))
        if (self.best_priority is None
                or message.priority > self.best_priority.priority):
            self.best_priority = message
            _wake(self.on_priority, env)
            return True
        return False

    def settle(self, valid: Callable[[PriorityMessage], bool]) -> None:
        """Begin the round: verify each announcement heard unchecked,
        once and in arrival order, and let the best valid one lead —
        one forged future-round priority must not empty the round."""
        heard, self.heard = self.heard, None
        if not heard or all(checked for _, checked in heard):
            return
        best = None
        for message, checked in heard:
            if (checked or valid(message)) and (
                    best is None or message.priority > best.priority):
                best = message
        self.best_priority = best

    def park(self, callback: Callable, arg) -> None:
        """Wake ``callback(arg)`` at the next new best priority or block."""
        self.on_priority.append((callback, arg))
        self.on_block.append((callback, arg))

    def unpark(self, callback: Callable, arg) -> None:
        """Withdraw a :meth:`park`, wherever a wake-up has not taken it."""
        for parked in (self.on_priority, self.on_block):
            if (callback, arg) in parked:
                parked.remove((callback, arg))

    def observe_block(self, block: Block, env: Environment) -> bool:
        """Record a proposed block; True if it should be relayed.

        Detects equivocation: a proposer announcing two different blocks
        for the same round is discarded entirely (both versions), matching
        the optimization described in section 10.4.
        """
        proposer = block.proposer
        if proposer is None or proposer in self.equivocators:
            return False
        previous = self.announced.get(proposer)
        if previous is not None and previous != block.block_hash:
            self.equivocators.add(proposer)
            self.blocks = {h: b for h, b in self.blocks.items()
                           if b.proposer != proposer}
            return False
        self.announced[proposer] = block.block_hash
        self.blocks[block.block_hash] = block
        _wake(self.on_block, env)
        # Relay only blocks from the best-priority proposer seen so far.
        return (self.best_priority is None
                or proposer == self.best_priority.proposer)

    def best_block(self) -> Block | None:
        """The block of the highest-priority non-equivocating proposer."""
        if self.best_priority is None:
            return None
        for block in self.blocks.values():
            if block.proposer == self.best_priority.proposer:
                return block
        return None


def _wake(parked: list[tuple], env: Environment) -> None:
    """One event-loop wake-up per parked waiter, in parking order."""
    for callback, arg in parked:
        env.schedule_now(callback, arg)
    parked.clear()
