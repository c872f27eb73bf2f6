"""Resilient message ingress: admission control, flood budgets, quarantine.

The paper bounds per-step traffic by relaying only validated messages and
at most one message per key per step (sections 4 and 8.4), but a relay
callback alone is a thin line of defense: every delivered message still
costs the receiving node verification work, and messages whose validity
*cannot yet be decided* — future-round votes, votes for proposals not yet
seen — must be buffered and so become a memory-exhaustion vector ("the
undecidable-messages DoS", see PAPERS.md). This module closes the gap
with an explicit ingress layer in front of the router:

* **Sortition-gated admission** — a vote for the receiver's current round
  and chain tip is admitted only if its sortition proof verifies for the
  claimed ``(round, step)`` committee (section 5.2's ``VerifySort``).
  Votes that cannot be gated yet (future rounds, recovery rounds, foreign
  tips) are *admitted undecided* but bounded by the vote-buffer budget —
  rejecting them outright would break laggards and fork recovery, which
  is precisely the liveness trap the undecidable-messages paper points
  out.
* **Flood budgets** — each origin may contribute at most
  ``flood_budget_per_round`` admitted signature-valid votes per round;
  crossing the budget is itself an offense.
* **A peer-health table** — deterministic scores for invalid signatures,
  failed sortition proofs, duplicates, equivocation (self-certifying
  :mod:`repro.baplus.accountability` evidence), and flooding, with decay,
  local quarantine, and a network-wide :class:`QuarantineDirectory` that
  severs gossip links once enough independent nodes report the same
  offender. Released users rejoin via the certificate-verified
  catch-up over gossip (:class:`~repro.node.catchup.ChainSync`, section
  8.3) — being severed never forfeits the chain, only the right to speak.

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

Admission is pure synchronous computation: no randomness, no scheduling,
no message sends. On an honest deployment it rejects exactly the
messages the protocol handlers already refuse to buffer or relay, so the
committed chain is byte-identical with admission on or off (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.baplus.messages import VoteMessage
from repro.common.errors import ConfigError
from repro.network.message import Envelope
from repro.sortition.roles import FINAL_STEP, RECOVERY_ROUND_BASE

if TYPE_CHECKING:
    from repro.baplus.context import BAContext  # pragma: no cover - typing only
    from repro.ledger.arraystate import AccountIndex
    from repro.network.gossip import GossipNetwork
    from repro.node.agent import Node

#: What admission found about one vote copy it let through:
#: ``(vote, ctx, weight)``, ``ctx`` ``None`` (weight 0) when the vote could
#: not be weighed here (future round, recovery round, foreign tip).
VoteVerdict = tuple[VoteMessage, "BAContext | None", int]

#: Offense kinds recognized by :class:`PeerHealth`.
OFFENSES = ("invalid_signature", "failed_sortition", "duplicate",
            "equivocation", "flood")


@dataclass
class AdmissionConfig:
    """Budgets and scoring weights of the ingress layer."""

    #: Max buffered votes per node (round-proximity eviction past this).
    vote_buffer_budget: int | None = 4096
    #: Max queued messages per egress lane per interface (tail-drop).
    egress_lane_budget: int | None = 10_000
    #: Admitted signature-valid votes per origin per round; crossing it
    #: is the ``flood`` offense. Honest traffic is two orders of
    #: magnitude below this (a committee member sends ~1 vote per step).
    flood_budget_per_round: int = 512
    #: Local score at which a peer is quarantined by this node.
    quarantine_threshold: float = 8.0
    #: Rounds a quarantine lasts (scaled by times served).
    quarantine_rounds: int = 2
    #: Network quarantines served before a permanent ban.
    ban_after_quarantines: int = 3
    #: Per-round multiplicative score decay (forgiveness).
    decay_factor: float = 0.5
    #: Fraction of nodes that must independently report an offender
    #: before the directory severs its links (min 2). Kept low because
    #: admission stops junk *before relay*: only an offender's direct
    #: neighbors ever witness link-level offenses.
    network_quarantine_fraction: float = 0.2
    #: Offense score weights.
    w_invalid_signature: float = 2.0
    w_failed_sortition: float = 2.0
    w_duplicate: float = 0.5
    w_equivocation: float = 4.0

    def validate(self) -> None:
        if (self.vote_buffer_budget is not None
                and self.vote_buffer_budget < 1):
            raise ConfigError("vote_buffer_budget must be >= 1 or None")
        if (self.egress_lane_budget is not None
                and self.egress_lane_budget < 1):
            raise ConfigError("egress_lane_budget must be >= 1 or None")
        if self.flood_budget_per_round < 1:
            raise ConfigError("flood_budget_per_round must be >= 1")
        if self.quarantine_threshold <= 0:
            raise ConfigError("quarantine_threshold must be positive")
        if self.quarantine_rounds < 1:
            raise ConfigError("quarantine_rounds must be >= 1")
        if self.ban_after_quarantines < 1:
            raise ConfigError("ban_after_quarantines must be >= 1")
        if not 0 <= self.decay_factor < 1:
            raise ConfigError("decay_factor must be in [0, 1)")
        if not 0 < self.network_quarantine_fraction <= 1:
            raise ConfigError(
                "network_quarantine_fraction must be in (0, 1]")

    def weight_of(self, offense: str) -> float:
        if offense == "invalid_signature":
            return self.w_invalid_signature
        if offense == "failed_sortition":
            return self.w_failed_sortition
        if offense == "duplicate":
            return self.w_duplicate
        if offense == "equivocation":
            return self.w_equivocation
        if offense == "flood":
            # Over-budget flooding is unambiguous: jump straight to the
            # threshold (decay otherwise never lets repeated sub-threshold
            # penalties accumulate to it).
            return self.quarantine_threshold
        raise ValueError(f"unknown offense {offense!r}")


class PeerHealth:
    """One node's deterministic reputation table over peer indices."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.scores: dict[int, float] = {}
        #: offense kind -> total times penalized (all peers).
        self.offense_counts: dict[str, int] = {}
        #: peer index -> round at which the local quarantine lifts.
        self.quarantined_until: dict[int, int] = {}

    def penalize(self, index: int, offense: str,
                 round_number: int) -> bool:
        """Score one offense; returns True if ``index`` is newly blocked."""
        self.offense_counts[offense] = (
            self.offense_counts.get(offense, 0) + 1)
        if index in self.quarantined_until:
            return False
        score = self.scores.get(index, 0.0) + self.config.weight_of(offense)
        self.scores[index] = score
        if score >= self.config.quarantine_threshold:
            self.quarantined_until[index] = (
                round_number + self.config.quarantine_rounds)
            del self.scores[index]
            return True
        return False

    def is_blocked(self, index: int) -> bool:
        return index in self.quarantined_until

    def end_round(self, completed_round: int) -> None:
        """Decay scores and release expired local quarantines."""
        decay = self.config.decay_factor
        if decay:
            self.scores = {index: score * decay
                           for index, score in self.scores.items()
                           if score * decay >= 0.01}
        else:
            self.scores.clear()
        released = [index for index, until in self.quarantined_until.items()
                    if completed_round >= until]
        for index in released:
            del self.quarantined_until[index]

    def reset(self) -> None:
        """Forget everything (a crashed node's volatile state)."""
        self.scores.clear()
        self.offense_counts.clear()
        self.quarantined_until.clear()


class QuarantineDirectory:
    """Network-wide quarantine from independent per-node reports.

    Nodes report offenders the moment their local health table blocks
    them; once ``max(2, ceil(n * fraction))`` distinct reporters agree,
    the directory severs the offender's gossip links (both directions,
    via :meth:`repro.network.gossip.GossipNetwork.set_quarantined`) for
    ``quarantine_rounds * times_served`` rounds — escalating, and a
    permanent ban after ``ban_after_quarantines`` strikes. Releases
    happen at round boundaries; the freed peer re-enters the topology at
    the next reshuffle and catches up over gossip (section 8.3).

    All state lives in insertion-ordered dicts over ints and every
    decision happens at a commit boundary, so the directory is fully
    deterministic.
    """

    def __init__(self, network: "GossipNetwork", config: AdmissionConfig,
                 obs=None) -> None:
        self.network = network
        self.config = config
        self.obs = obs
        self._reports: dict[int, set[int]] = {}
        self._until: dict[int, int] = {}
        self._served: dict[int, int] = {}
        self.banned: set[int] = set()
        #: Total quarantine impositions (including escalations to bans).
        self.quarantines = 0

    @property
    def quarantined(self) -> frozenset[int]:
        return frozenset(self._until) | frozenset(self.banned)

    def required_reports(self) -> int:
        return max(2, math.ceil(self.network.num_nodes
                                * self.config.network_quarantine_fraction))

    def report(self, reporter: int, offender: int) -> None:
        if offender in self.banned or offender in self._until:
            return
        self._reports.setdefault(offender, set()).add(reporter)

    def end_round(self, completed_round: int) -> None:
        """Impose new quarantines and release expired ones."""
        changed = False
        need = self.required_reports()
        for offender in sorted(self._reports):
            if offender in self._until or offender in self.banned:
                continue
            if len(self._reports[offender]) < need:
                continue
            served = self._served.get(offender, 0) + 1
            self._served[offender] = served
            if served >= self.config.ban_after_quarantines:
                self.banned.add(offender)
            else:
                self._until[offender] = (
                    completed_round
                    + self.config.quarantine_rounds * served)
            self.quarantines += 1
            del self._reports[offender]
            changed = True
            if self.obs is not None:
                self.obs.emit("peer_quarantined", peer=offender,
                              scope="network", round=completed_round,
                              banned=offender in self.banned)
        for offender in sorted(self._until):
            if completed_round >= self._until[offender]:
                del self._until[offender]
                changed = True
        if changed:
            self.network.set_quarantined(self.quarantined)


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
    """Per-node ingress filter installed on the gossip interface.

    ``admit(envelope, from_index)`` runs *after* duplicate suppression
    and *before* the router and any relay — a rejected
    message costs the node one verification and is never amplified.

    An admitted vote copy leaves its verdict behind —
    ``(vote, ctx, weight)``, ``ctx`` ``None`` when the vote was not
    decidable here — for the vote handler the same delivery reaches
    next (:meth:`take_verdict`): it skips the checks made here, and the
    relay damper reads the weight instead of weighing again.
    """

    def __init__(self, node: "Node", config: AdmissionConfig,
                 directory: QuarantineDirectory | None = None,
                 index_of: "AccountIndex | None" = None) -> None:
        self.node = node
        self.config = config
        self.directory = directory
        #: Origin public key -> node index (for origin-blame offenses):
        #: the deployment's account index; without one nobody is blamed
        #: by origin.
        self.index_of = index_of if index_of is not None else {}
        self.health = PeerHealth(config)
        self.admitted = 0
        self.rejected: dict[str, int] = {}
        #: (voter, round, step) -> first admitted vote (dedup + equivocation).
        self._first_vote: dict[tuple[bytes, int, str], VoteMessage] = {}
        #: (proposer, round) seen priority announcements.
        self._seen_priorities: set[tuple[bytes, int]] = set()
        #: (proposer, round) -> first announced block hash.
        self._first_block: dict[tuple[bytes, int], bytes] = {}
        #: (proposer, round) pairs already caught equivocating.
        self._equivocators: set[tuple[bytes, int]] = set()
        #: Origin index -> admitted signature-valid votes this round.
        self._vote_counts: dict[int, int] = {}
        #: The last admitted vote copy's verdict, until the handler takes it.
        self._verdict: "VoteVerdict | None" = None

    # -- bookkeeping ---------------------------------------------------

    def _reject(self, reason: str) -> bool:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        return False

    def _penalize(self, index: int | None, offense: str) -> None:
        if index is None or index == self.node.index:
            return
        round_number = self.node.chain.next_round
        if self.health.penalize(index, offense, round_number):
            if self.directory is not None:
                self.directory.report(self.node.index, index)
            if self.node.obs is not None:
                self.node.obs.emit("peer_quarantined", node=self.node.index,
                                   peer=index, scope="local",
                                   offense=offense, round=round_number)

    def _stale_horizon(self) -> int:
        horizon = self.node.chain.next_round
        if self.node.params.pipeline_final_step:
            horizon -= 1
        return horizon

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
        if vote.round_number < self._stale_horizon():
            return self._reject("stale")
        if not vote.verify_signature(self.node.backend):
            self._penalize(from_index, "invalid_signature")
            return self._reject("invalid_signature")
        if vote.voter != envelope.origin:
            # A valid signature under a spoofed origin: the envelope was
            # crafted, and admission rejects it before relay, so only the
            # crafter can be handing it to us.
            self._penalize(from_index, "invalid_signature")
            return self._reject("origin_mismatch")
        key = (vote.voter, vote.round_number, vote.step)
        first = self._first_vote.get(key)
        if first is not None:
            if first.value == vote.value:
                if from_index == origin_index:
                    self._penalize(from_index, "duplicate")
                return self._reject("duplicate")
            self._penalize(origin_index, "equivocation")
            return self._reject("equivocation")
        chain = self.node.chain
        ctx, weight = None, 0
        if (vote.round_number == chain.next_round
                and vote.round_number < RECOVERY_ROUND_BASE
                and vote.prev_hash == chain.tip_hash):
            # Fully decidable: same round, same tip -> same seed and
            # weight table. Gate on the sortition proof (section 5.2).
            ctx = self.node._current_context(vote.round_number)
            weight = sortition_weight(self.node, vote, ctx)
            if weight == 0:
                self._penalize(from_index, "failed_sortition")
                return self._reject("failed_sortition")
        # Future-round, recovery, and foreign-tip votes are undecidable
        # here; admit them signature-checked (the vote buffer's budget
        # and round-proximity eviction bound what they can cost us).
        if origin_index is not None:
            count = self._vote_counts.get(origin_index, 0) + 1
            self._vote_counts[origin_index] = count
            if count > self.config.flood_budget_per_round:
                self._penalize(origin_index, "flood")
                return self._reject("flood")
        self._first_vote[key] = vote
        self.admitted += 1
        self._verdict = (vote, ctx, weight)
        return True

    def take_verdict(self, vote: VoteMessage) -> "VoteVerdict | None":
        """The verdict on the copy of ``vote`` just admitted, once.

        ``None`` when the last admitted copy was of another vote object
        — the handler was reached some other way and checks for itself.
        """
        verdict, self._verdict = self._verdict, None
        if verdict is not None and verdict[0] is vote:
            return verdict
        return None

    def _admit_priority(self, envelope: Envelope, from_index: int) -> bool:
        message = envelope.payload
        if message.round_number < self.node.chain.next_round:
            return self._reject("stale")
        key = (message.proposer, message.round_number)
        if key in self._seen_priorities:
            return self._reject("duplicate")
        if message.round_number == self.node.chain.next_round:
            ctx = self.node._current_context(message.round_number)
            if not message.verify(
                    self.node.backend, ctx.seed,
                    self.node.params.tau_proposer,
                    ctx.weight_of(message.proposer), ctx.total_weight):
                self._penalize(from_index, "failed_sortition")
                return self._reject("failed_sortition")
        self._seen_priorities.add(key)
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

    def end_round(self, completed_round: int) -> None:
        """Prune per-round state; mirrors ``Node._prune``'s horizon."""
        horizon = completed_round
        if self.node.params.pipeline_final_step:
            horizon -= 1
        self._vote_counts.clear()
        self._first_vote = {
            key: vote for key, vote in self._first_vote.items()
            if horizon <= key[1] < RECOVERY_ROUND_BASE}
        self._seen_priorities = {key for key in self._seen_priorities
                                 if key[1] >= horizon}
        self._first_block = {key: value
                             for key, value in self._first_block.items()
                             if key[1] >= horizon}
        self._equivocators = {key for key in self._equivocators
                              if key[1] >= horizon}
        self.health.end_round(completed_round)

    def on_chain_adopted(self) -> None:
        """Forget per-round vote state after a recovery/catch-up adoption.

        Fork recovery (section 8.2) legitimately re-runs rounds: after
        adopting the winning fork, every participant votes *again* at
        round numbers it already voted in, generally for different
        values. Those re-votes are not equivocation — the node's entire
        view of "round r" changed — so the dedup tables from the old
        view must not be allowed to frame honest peers. Health scores
        and counters survive; only round-keyed state is dropped.
        """
        self._first_vote.clear()
        self._seen_priorities.clear()
        self._first_block.clear()
        self._equivocators.clear()
        self._vote_counts.clear()

    def reset(self) -> None:
        """Drop volatile state (crash); counters survive as receipts."""
        self.on_chain_adopted()
        self.health.reset()


def attach_admission(node: "Node", config: AdmissionConfig | None = None,
                     directory: QuarantineDirectory | None = None,
                     index_of: "AccountIndex | None" = None
                     ) -> AdmissionControl:
    """Wire an :class:`AdmissionControl` onto ``node``'s interface."""
    if config is None:
        config = AdmissionConfig()
    config.validate()
    admission = AdmissionControl(node, config, directory=directory,
                                 index_of=index_of)
    node.admission = admission
    node.interface.ingress = admission.admit
    if config.vote_buffer_budget is not None:
        node.buffer.budget_messages = config.vote_buffer_budget
    return admission
