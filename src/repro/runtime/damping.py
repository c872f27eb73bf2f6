"""Threshold-aware relay damping (the quorum-trimmed relay, section 8.4+).

The paper's gossip rule relays at most one message per key per step, but
that still floods every committee vote to every peer: once a node has
locally tallied more than ``T * tau`` weight for a ``(round, step,
value)``, every further vote for that key it forwards is pure redundancy
— its neighbors either crossed already or will cross from the quorum
this node has *already forwarded them*. The analytical census in
``repro.experiments.traffic`` (after makman568/algofun's ``pq`` model)
puts the minimal per-round consensus traffic at roughly a quarter of
what relay-to-threshold-and-beyond produces; go-algorand ships the same
trim for its vote bundles.

This module implements the damping decision:

* :class:`DampingTally` — the pure per-key weight accumulator (no node,
  no I/O), mirroring :func:`repro.baplus.voting.count_votes` exactly:
  one count per voter per ``(round, step)``, crossing when the summed
  weight strictly exceeds the step threshold. Being pure, the Hypothesis
  suite drives it through arbitrary arrival orders directly.
* :class:`RelayDamper` — the per-node wrapper consulted by
  ``Node._handle_vote`` after a vote is accepted locally: it reads the
  vote's weight the way admission took it
  (:func:`repro.runtime.admission.sortition_weight`, whose receipt the
  vote carries) and answers "still worth relaying?". Undecidable votes
  (future rounds, recovery rounds, foreign tips) are never counted and
  always relayed — suppressing what we cannot weigh is exactly the trap
  the undecidable-messages paper warns about.

Why safety holds (the FIFO argument, tested in
``tests/test_damping_equivalence.py``): a node suppresses a vote for a
key only *after* having already forwarded strictly more than ``T * tau``
weight for it; those forwarded votes left on the same links earlier, so
every neighbor receives a full quorum for the key no later than it would
have received the suppressed copy. Quorum is not the only thing a vote
can carry, though: Algorithm 9's common coin is the *minimum*
``H(sorthash || j)`` over every vote seen in a step, so a late vote
holding a fresh minimum is exempt from suppression and relays anyway —
otherwise two honest nodes could flip different coins in the very
adversarial binary-step scenarios the coin exists for. With bandwidth modeling off the
arrival prefix up to each node's threshold crossing is untouched, making
committed chains — timestamps, certificates and all — byte-identical
with damping on or off. With bandwidth modeling on, suppressed relays
free uplink serialization slots, so *timings* shift (that is the point)
while the agreed blocks, proposers, and seeds stay identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baplus.messages import COIN_HASH_CEILING, VoteMessage
from repro.runtime.admission import sortition_weight
from repro.sortition.roles import FINAL_STEP, RECOVERY_ROUND_BASE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.agent import Node


class DampingTally:
    """Pure threshold bookkeeping for one node's relay decisions.

    Semantics are a verbatim mirror of ``count_votes``: per ``(round,
    step)`` each voter is counted once (whatever value their first
    counted vote carried), weights accumulate per value, and a key is
    *crossed* once its accumulated weight strictly exceeds the step's
    threshold. The crossing vote itself still relays — suppression
    starts with the first redundant vote after it.
    """

    __slots__ = ("step_threshold", "final_threshold", "_counts",
                 "_voters", "_crossed", "_coin_min")

    def __init__(self, step_threshold: float,
                 final_threshold: float) -> None:
        self.step_threshold = step_threshold
        self.final_threshold = final_threshold
        #: (round, step) -> value -> accumulated weight.
        self._counts: dict[tuple[int, str], dict[bytes, int]] = {}
        #: (round, step) -> voters already counted.
        self._voters: dict[tuple[int, str], set[bytes]] = {}
        #: Keys past their threshold: (round, step, value).
        self._crossed: set[tuple[int, str, bytes]] = set()
        #: (round, step) -> lowest Algorithm 9 coin hash seen so far.
        self._coin_min: dict[tuple[int, str], int] = {}

    def threshold_for(self, step: str) -> float:
        return (self.final_threshold if step == FINAL_STEP
                else self.step_threshold)

    def observe(self, round_number: int, step: str, value: bytes,
                voter: bytes, weight: int,
                coin_hash: int = COIN_HASH_CEILING) -> bool:
        """Count one vote; returns True iff the key is already crossed.

        The return value is the *suppression* verdict for this vote:
        False while the tally is at or below threshold (including the
        crossing vote itself), True for every vote after — except votes
        that lower the step's running Algorithm 9 minimum (their
        ``coin_hash``), which always relay: the common coin is the least
        ``H(sorthash || j)`` over *every* vote a node has seen, so a
        fresh minimum must keep propagating after quorum or nodes could
        flip different coins. The exemption costs ~ln(k) relays per key.
        """
        key = (round_number, step, value)
        step_key = (round_number, step)
        coin_relevant = coin_hash < self._coin_min.get(
            step_key, COIN_HASH_CEILING)
        if coin_relevant:
            self._coin_min[step_key] = coin_hash
        if weight <= 0:
            # Uncounted (undecidable) votes are never suppressed, even
            # when their (round, step, value) matches a crossed key —
            # they may carry weight at a node that *can* weigh them.
            return False
        if key in self._crossed:
            return not coin_relevant
        voters = self._voters.setdefault(step_key, set())
        if voter in voters:
            return False
        voters.add(voter)
        counts = self._counts.setdefault(step_key, {})
        total = counts.get(value, 0) + weight
        counts[value] = total
        if total > self.threshold_for(step):
            self._crossed.add(key)
        return False

    def prune_before(self, horizon: int) -> None:
        """Drop per-round state older than ``horizon`` (round hygiene).

        Recovery-round keys (>= :data:`RECOVERY_ROUND_BASE`) are dropped
        too: a concluded recovery never revisits its synthetic rounds.
        """
        for table in (self._counts, self._voters, self._coin_min):
            for step_key in [k for k in table
                             if k[0] < horizon
                             or k[0] >= RECOVERY_ROUND_BASE]:
                del table[step_key]
        self._crossed = {key for key in self._crossed
                         if horizon <= key[0] < RECOVERY_ROUND_BASE}

    def clear(self) -> None:
        self._counts.clear()
        self._voters.clear()
        self._crossed.clear()
        self._coin_min.clear()


class RelayDamper:
    """Per-node relay trimmer installed by :func:`attach_damping`.

    Consulted from ``Node._handle_vote`` *after* the vote passed the
    node's gate and entered the local buffer — a
    suppressed vote is still counted locally; only its forwarding is
    skipped. The node's own votes are observed via ``_gossip_vote`` so
    its tally matches what it has put on the wire.
    """

    __slots__ = ("node", "tally", "suppressed", "observed", "_metrics",
                 "_ctx_cache")

    def __init__(self, node: "Node") -> None:
        self.node = node
        params = node.params
        self.tally = DampingTally(params.step_vote_threshold,
                                  params.final_vote_threshold)
        #: Relays skipped / votes weighed-in (receipts for the census).
        self.suppressed = 0
        self.observed = 0
        self._metrics = (node.obs.metrics if node.obs is not None
                         else None)
        #: round -> the BAContext this node weighed that round with.
        #: Kept so steering votes trailing a commit (their round is
        #: already behind ``chain.next_round``) are weighed against the
        #: *exact* context used in-round, not a post-commit rebuild
        #: whose balances the committed block may have shifted.
        self._ctx_cache: dict[int, object] = {}

    # -- the decision --------------------------------------------------

    def _weight(self, vote: VoteMessage) -> int:
        """Committee weight if fully decidable here, else 0 (uncounted).

        Decidable means one of:

        * admission's test — the vote is for ``chain.next_round`` on our
          tip, not a recovery execution; or
        * the vote trails our commit by exactly one round (steering
          votes for steps "2"-"4" mostly arrive after their round is
          sealed) *and* we weighed that round in-round — then the cached
          :class:`BAContext` weighs it identically to how admission did
          while the round was live.

        Anything else gets weight 0, which :meth:`DampingTally.observe`
        treats as "do not count" — and an uncounted vote is never
        suppressed. A vote admission weighed is not weighed again: the
        weight is read from the receipt the vote holds for that context.
        """
        round_number = vote.round_number
        chain = self.node.chain
        if round_number >= RECOVERY_ROUND_BASE:
            return 0
        if (round_number == chain.next_round
                and vote.prev_hash == chain.tip_hash):
            ctx = self.node._current_context(round_number)
            self._ctx_cache[round_number] = ctx
            return sortition_weight(self.node, vote, ctx)
        if (round_number == chain.next_round - 1 and round_number >= 1
                and vote.prev_hash == chain.block_at(round_number).prev_hash):
            ctx = self._ctx_cache.get(round_number)
            if ctx is None:
                return 0
            return sortition_weight(self.node, vote, ctx)
        return 0

    def should_relay(self, vote: VoteMessage) -> bool:
        """Weigh one accepted vote; False skips the forward."""
        weight = self._weight(vote)
        suppress = self.tally.observe(
            vote.round_number, vote.step, vote.value, vote.voter,
            weight, vote.coin_hash(weight))
        if suppress:
            self.suppressed += 1
            if self._metrics is not None:
                self._metrics.inc("gossip.damped.vote")
            return False
        self.observed += 1
        return True

    def observe_own(self, vote: VoteMessage) -> None:
        """Count a vote this node cast itself (it broadcast it)."""
        self.observed += 1
        weight = self._weight(vote)
        self.tally.observe(vote.round_number, vote.step, vote.value,
                           vote.voter, weight, vote.coin_hash(weight))

    # -- round hygiene -------------------------------------------------

    def end_round(self, horizon: int) -> None:
        """Prune per-round state below ``horizon`` (``Node._prune``'s)."""
        self.tally.prune_before(horizon)
        for round_number in [r for r in self._ctx_cache if r < horizon]:
            del self._ctx_cache[round_number]

    def reset(self) -> None:
        """Drop volatile state (a crash, or a fork-recovery adoption:
        the re-run rounds are new executions over a different context,
        and stale crossings could suppress votes they need); counters
        survive as receipts."""
        self.tally.clear()
        self._ctx_cache.clear()


def attach_damping(node: "Node") -> RelayDamper:
    """Wire a :class:`RelayDamper` onto ``node``."""
    damper = RelayDamper(node)
    node.damper = damper
    return damper
