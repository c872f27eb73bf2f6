"""Resilient message ingress: admission control, flood budgets, local blocks.

The paper bounds per-step traffic by relaying only validated messages and
at most one message per key per step (sections 4 and 8.4), but a relay
callback alone is a thin line of defense: every delivered message still
costs the receiving node verification work, and messages whose validity
*cannot yet be decided* — future-round votes, votes for proposals not yet
seen — must be buffered and so become a memory-exhaustion vector ("the
undecidable-messages DoS", see PAPERS.md). This module is the node's one
message gate, in front of the router in :meth:`Node.receive
<repro.node.agent.Node.receive>`:

* **One message per key** — the gate's per-key tables are the node's
  only ones: the first vote per ``(voter, round, step)`` and the first
  priority announcement per ``(proposer, round)`` pass, every later copy
  is dropped unrelayed (section 8.4), and the node's own votes and
  announcements count as first.
* **Sortition-gated admission** — a vote for the receiver's current round
  and chain tip is admitted only if its sortition proof verifies for the
  claimed ``(round, step)`` committee (section 5.2's ``VerifySort``);
  likewise a current-round priority announcement. Votes that cannot be
  gated yet (future rounds, recovery rounds, foreign tips) are *admitted
  undecided* but bounded by the vote-buffer budget — rejecting them
  outright would break laggards and fork recovery, which is precisely
  the liveness trap the undecidable-messages paper points out.
* **Flood budgets** — each origin may contribute at most
  ``flood_budget_per_round`` (a :class:`~repro.node.config.RuntimeConfig`
  field) admitted signature-valid votes per round; crossing the budget
  is itself an offense.
* **A peer-health table** — deterministic scores for invalid signatures,
  failed sortition proofs, duplicates, equivocation (two conflicting
  validly-signed statements under one key, caught against the gate's
  own first-vote and first-block tables), and flooding, with decay and
  a local quarantine: while a peer is blocked, the gate rejects every
  copy it sends or originates (``admission.rejected.quarantined``). The
  defence is each node's own, the same on both substrates — no node
  learns of another's blocks, and nobody is cut out of the topology, so
  a blocked peer keeps the chain and only loses this node's ear.
  The scoring policy and the sim's egress-lane bound are the module
  constants below, the same in every deployment.

Blame assignment is framing-proof by construction:

==================  =======================================================
offense             who is penalized, and why it cannot frame an honest node
==================  =======================================================
invalid signature   the *immediate sender*: admission rejects these before
failed sortition    relay, so an honest node never forwards one — whoever
                    handed it to us produced it.
duplicate           the immediate sender, and only when it is also the
                    message's origin (honest relays can lose benign races).
equivocation        the *origin*, from two conflicting validly-signed
double vote         statements — self-certifying evidence nobody can forge
                    on an honest key's behalf.
flooding            the *origin*, counting only admitted signature-valid
                    votes whose ``voter`` matches the envelope origin.
==================  =======================================================

After a fork adoption (section 8.2) the rounds re-run are new
executions, so nothing accepted before it is evidence against anyone: a
copy of an already-accepted ``(voter, round, step)`` or ``(proposer,
round)`` is dropped, not relayed, and not scored
(:meth:`AdmissionControl.on_chain_adopted`).

Admission is pure synchronous computation: no randomness, no scheduling,
no message sends. On an honest deployment its only rejections are stale
copies, and it neither scores nor quarantines anyone (tested).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.message import Envelope
from repro.sortition.roles import FINAL_STEP, RECOVERY_ROUND_BASE

if TYPE_CHECKING:
    from repro.baplus.context import BAContext  # pragma: no cover - typing only
    from repro.baplus.messages import VoteMessage
    from repro.ledger.arraystate import AccountIndex
    from repro.node.agent import Node

#: Local score at which a peer is quarantined by this node.
QUARANTINE_THRESHOLD = 8.0
#: Rounds a local quarantine lasts.
QUARANTINE_ROUNDS = 2
#: Per-round multiplicative score decay (forgiveness).
SCORE_DECAY = 0.5
#: Score of one offense, by kind. Over-budget flooding is unambiguous:
#: it jumps straight to the threshold (decay otherwise never lets
#: repeated sub-threshold penalties accumulate to it).
OFFENSE_WEIGHTS = {"invalid_signature": 2.0, "failed_sortition": 2.0,
                   "duplicate": 0.5, "equivocation": 4.0,
                   "flood": QUARANTINE_THRESHOLD}


class PeerHealth:
    """One node's deterministic reputation table over peer indices."""

    def __init__(self) -> None:
        self.scores: dict[int, float] = {}
        #: peer index -> round at which the local quarantine lifts.
        self.quarantined_until: dict[int, int] = {}

    def penalize(self, index: int, offense: str,
                 round_number: int) -> bool:
        """Score one offense; returns True if ``index`` is newly blocked."""
        if index in self.quarantined_until:
            return False
        score = self.scores.get(index, 0.0) + OFFENSE_WEIGHTS[offense]
        self.scores[index] = score
        if score >= QUARANTINE_THRESHOLD:
            self.quarantined_until[index] = round_number + QUARANTINE_ROUNDS
            del self.scores[index]
            return True
        return False

    def is_blocked(self, index: int) -> bool:
        return index in self.quarantined_until

    def end_round(self, completed_round: int) -> None:
        """Decay scores and release expired local quarantines."""
        self.scores = {index: score * SCORE_DECAY
                       for index, score in self.scores.items()
                       if score * SCORE_DECAY >= 0.01}
        released = [index for index, until in self.quarantined_until.items()
                    if completed_round >= until]
        for index in released:
            del self.quarantined_until[index]

    def reset(self) -> None:
        """Forget everything (a crashed node's volatile state)."""
        self.scores.clear()
        self.quarantined_until.clear()


def sortition_weight(node: "Node", vote: VoteMessage,
                     ctx: "BAContext") -> int:
    """Committee weight of ``vote`` under ``ctx``, one of ``node``'s
    round contexts.

    Section 5.2's ``VerifySort`` against the committee for the vote's
    ``(round, step)``, read from the vote's own receipts
    (:meth:`~repro.baplus.messages.VoteMessage.weigh`) after its first
    computation in that context. The single weighing every consumer
    shares: sortition-gated admission, the relay damper
    (:mod:`repro.runtime.damping`) and ``process_msg`` must agree on a
    vote's weight or their decisions could diverge from the vote count
    itself.

    Callers are responsible for decidability (same round, same tip):
    admission passes the context of the vote's round, the damper also
    the in-round context of a round it already committed, for votes
    that trail the commit.
    """
    tau = (node.params.tau_final if vote.step == FINAL_STEP
           else node.params.tau_step)
    return vote.weigh(node.backend, ctx, tau)


class AdmissionControl:
    """A node's one message gate, installed on its gossip interface.

    ``admit(envelope, from_index)`` runs *after* duplicate suppression
    and *before* the router and any relay — a rejected
    message costs the node one verification and is never amplified, and
    an admitted one reaches its handler already checked: the handlers
    repeat none of the checks made here. Where a vote was weighed here,
    its weight stays on the vote (its context receipt) for the relay
    damper to read.
    """

    def __init__(self, node: "Node", flood_budget_per_round: int,
                 index_of: "AccountIndex") -> None:
        self.node = node
        self.flood_budget_per_round = flood_budget_per_round
        #: Origin public key -> node index (for origin-blame offenses):
        #: the deployment's account index.
        self.index_of = index_of
        self.health = PeerHealth()
        self.admitted = 0
        self.rejected: dict[str, int] = {}
        #: (voter, round, step) -> the vote accepted for it from a peer,
        #: or ``None`` where no copy is held against it: the node's own
        #: vote, one accepted before a fork adoption, or one of a
        #: recovery round that has ended.
        self._votes: dict[tuple[bytes, int, str], VoteMessage | None] = {}
        #: (proposer, round) priority announcements accepted, own ones
        #: included.
        self._priorities: set[tuple[bytes, int]] = set()
        #: (proposer, round) -> first announced block hash.
        self._first_block: dict[tuple[bytes, int], bytes] = {}
        #: (proposer, round) pairs already caught equivocating.
        self._equivocators: set[tuple[bytes, int]] = set()
        #: Origin index -> admitted signature-valid votes this round.
        self._vote_counts: dict[int, int] = {}

    # -- bookkeeping ---------------------------------------------------

    def _reject(self, reason: str) -> bool:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        return False

    def _penalize(self, index: int | None, offense: str) -> None:
        if index is None or index == self.node.index:
            return
        round_number = self.node.chain.next_round
        if self.health.penalize(index, offense, round_number) \
                and self.node.obs is not None:
            self.node.obs.emit("peer_quarantined", node=self.node.index,
                               peer=index, offense=offense,
                               round=round_number)

    def _drop_copy(self, envelope: Envelope) -> bool:
        """Reject a copy of a taken key that nobody is scored for: every
        other copy of ``envelope`` is as dead, so its id is held as an
        accepted copy's is."""
        self.node.interface.hold(envelope.msg_id)
        return self._reject("duplicate")

    def own_vote(self, vote: VoteMessage) -> None:
        """The node cast ``vote``: its key is taken."""
        self._votes[(vote.voter, vote.round_number, vote.step)] = None

    def own_priority(self, round_number: int) -> None:
        """The node announced its priority for ``round_number``."""
        self._priorities.add((self.node.keypair.public, round_number))

    # -- the gate ------------------------------------------------------

    def admit(self, envelope: Envelope, from_index: int) -> bool:
        """Decide one delivered envelope; False drops it pre-router."""
        if self.health.is_blocked(from_index):
            return self._reject("quarantined")
        origin_index = self.index_of.get(envelope.origin)
        if origin_index is not None and origin_index != from_index \
                and self.health.is_blocked(origin_index):
            return self._reject("quarantined")
        kind = envelope.kind
        if kind == "vote":
            return self._admit_vote(envelope, from_index, origin_index)
        if kind == "priority":
            return self._admit_priority(envelope, from_index)
        if kind == "block":
            return self._admit_block(envelope, from_index, origin_index)
        # tx / fork / chain-sync and future kinds: their handlers carry
        # full validation; ingress contributes only the quarantine check.
        self.admitted += 1
        return True

    def _admit_vote(self, envelope: Envelope, from_index: int,
                    origin_index: int | None) -> bool:
        vote: VoteMessage = envelope.payload
        node = self.node
        chain = node.chain
        if vote.round_number < node.horizon(chain.next_round):
            return self._reject("stale")
        if not vote.verify_signature(node.backend):
            self._penalize(from_index, "invalid_signature")
            return self._reject("invalid_signature")
        if vote.voter != envelope.origin:
            # A valid signature under a spoofed origin: the envelope was
            # crafted, and admission rejects it before relay, so only the
            # crafter can be handing it to us.
            self._penalize(from_index, "invalid_signature")
            return self._reject("origin_mismatch")
        key = (vote.voter, vote.round_number, vote.step)
        if key in self._votes:
            # At most one message per key per (round, step), section 8.4.
            first = self._votes[key]
            if first is None:
                return self._drop_copy(envelope)
            if first.value != vote.value:
                self._penalize(origin_index, "equivocation")
                return self._reject("equivocation")
            if from_index == origin_index:
                self._penalize(from_index, "duplicate")
            return self._reject("duplicate")
        if (vote.round_number == chain.next_round
                and vote.round_number < RECOVERY_ROUND_BASE
                and vote.prev_hash == chain.tip_hash):
            # Fully decidable: same round, same tip -> same seed and
            # weight table. Gate on the sortition proof (section 5.2).
            ctx = node._current_context(vote.round_number)
            if sortition_weight(node, vote, ctx) == 0:
                self._penalize(from_index, "failed_sortition")
                return self._reject("failed_sortition")
        # Future-round, recovery, and foreign-tip votes are undecidable
        # here; admit them signature-checked (the vote buffer's budget
        # and round-proximity eviction bound what they can cost us).
        if origin_index is not None:
            count = self._vote_counts.get(origin_index, 0) + 1
            self._vote_counts[origin_index] = count
            if count > self.flood_budget_per_round:
                self._penalize(origin_index, "flood")
                return self._reject("flood")
        self._votes[key] = vote
        self.admitted += 1
        return True

    def _admit_priority(self, envelope: Envelope, from_index: int) -> bool:
        message = envelope.payload
        node = self.node
        if message.round_number < node.chain.next_round:
            return self._reject("stale")
        if (message.proposer, message.round_number) in self._priorities:
            return self._drop_copy(envelope)
        # The current round's context can fully validate it; a later
        # round's is checked when that round begins.
        if message.round_number == node.chain.next_round \
                and not node._priority_valid(
                    message, node._current_context(message.round_number)):
            self._penalize(from_index, "failed_sortition")
            return self._reject("failed_sortition")
        self._priorities.add((message.proposer, message.round_number))
        self.admitted += 1
        return True

    def _admit_block(self, envelope: Envelope, from_index: int,
                     origin_index: int | None) -> bool:
        block = envelope.payload
        if block.round_number < self.node.chain.next_round:
            return self._reject("stale")
        proposer = block.proposer
        if proposer is None:
            self.admitted += 1
            return True
        key = (proposer, block.round_number)
        if key in self._equivocators:
            return self._reject("equivocation")
        first_hash = self._first_block.get(key)
        if first_hash is None:
            self._first_block[key] = block.block_hash
        elif first_hash != block.block_hash:
            # One proposal per proposer per round. The *second* version is
            # still admitted — the proposal tracker must see it to discard
            # both per section 10.4 — but it is scored here and every
            # further version is rejected at ingress.
            self._equivocators.add(key)
            if envelope.origin == proposer:
                self._penalize(origin_index, "equivocation")
        elif from_index == origin_index:
            # Same block re-announced under a fresh message id.
            self._penalize(from_index, "duplicate")
            return self._reject("duplicate")
        else:
            return self._reject("duplicate")
        self.admitted += 1
        return True

    # -- round hygiene -------------------------------------------------

    def end_round(self, completed_round: int, horizon: int) -> None:
        """Prune per-round state below ``horizon`` (``Node._prune``'s)."""
        self._vote_counts.clear()
        # A recovery round's keys stay taken, with nothing left to hold
        # a copy against: a concluded recovery is not revisited.
        self._votes = {
            key: vote if key[1] < RECOVERY_ROUND_BASE else None
            for key, vote in self._votes.items() if key[1] >= horizon}
        self._priorities = {key for key in self._priorities
                            if key[1] >= horizon}
        self._first_block = {key: value
                             for key, value in self._first_block.items()
                             if key[1] >= horizon}
        self._equivocators = {key for key in self._equivocators
                              if key[1] >= horizon}
        self.health.end_round(completed_round)

    def on_chain_adopted(self) -> None:
        """Start a new view of every round after a fork adoption.

        Fork recovery (section 8.2) legitimately re-runs rounds: after
        adopting the winning fork, every participant votes *again* at
        round numbers it already voted in, generally for different
        values. Those re-votes are not equivocation — the node's entire
        view of "round r" changed — so nothing accepted in the old view
        may frame an honest peer: its keys stay taken (a copy of one is
        dropped, not relayed, and not scored), and the block and flood
        tables start afresh. Health scores and counters survive.
        """
        self._votes = dict.fromkeys(self._votes)
        self._first_block.clear()
        self._equivocators.clear()
        self._vote_counts.clear()

    def reset(self) -> None:
        """Drop volatile state (crash); counters survive as receipts."""
        self._votes.clear()
        self._priorities.clear()
        self.on_chain_adopted()
        self.health.reset()
