"""Voting primitives of BA* (Algorithms 4, 5, 6 and 9).

All plain functions. :func:`count_votes` either returns the outcome of
a step at once or parks: kernel callbacks then advance the tally
(:class:`_VoteCount`) — when votes arrive, and when λ runs out — and
hand the outcome to the caller's continuation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.baplus.buffer import VoteBuffer
from repro.baplus.context import BAContext
from repro.baplus.messages import (
    COIN_HASH_CEILING,
    VoteMessage,
    make_vote,
)
from repro.common.params import ProtocolParams
from repro.crypto.backend import CryptoBackend, KeyPair
from repro.sim.loop import Environment, Timer
from repro.sortition.roles import RECOVERY_ROUND_BASE, committee_role
from repro.sortition.selection import SortitionProof, sortition


class _TimeoutSentinel:
    """Unique return value of :func:`count_votes` on timeout."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TIMEOUT"


#: Returned by :func:`count_votes` when no value crossed the threshold.
TIMEOUT = _TimeoutSentinel()


@dataclass
class BAParticipant:
    """Everything the BA* procedures need from their host node."""

    env: Environment
    params: ProtocolParams
    backend: CryptoBackend
    buffer: VoteBuffer
    keypair: KeyPair
    gossip_vote: Callable[[VoteMessage], None]
    #: Optional hook ``(round, step, seconds, timed_out)`` called whenever
    #: a CountVotes invocation completes (feeds the section 10.5
    #: timeout-validation experiment).
    step_observer: Callable[[int, str, float, bool], None] | None = None
    #: Optional :class:`repro.obs.TraceBus`: when set, CommitteeVote and
    #: CountVotes emit ``vote_cast`` / ``step_enter`` / ``step_exit``
    #: events tagged with ``node_id`` and update sortition counters.
    obs: "object | None" = None
    node_id: int | None = None
    #: Parked CountVotes, in parking order: what :func:`interrupt_counts`
    #: cancels when a crash or a retirement drops the round that waits
    #: on them.
    counts: list["_VoteCount"] = field(default_factory=list)


def committee_vote(part: BAParticipant, ctx: BAContext, round_number: int,
                   step: str, tau: float, value: bytes) -> SortitionProof:
    """Algorithm 4: gossip a signed vote if selected for this committee.

    Returns the sortition proof (``j == 0`` means not selected, nothing
    was sent).
    """
    role = committee_role(round_number, step)
    proof = sortition(
        part.backend, part.keypair.secret, ctx.seed, tau, role,
        ctx.weight_of(part.keypair.public), ctx.total_weight,
    )
    if proof.j > 0:
        vote = make_vote(
            part.backend, part.keypair.secret, part.keypair.public,
            round_number, step, proof.vrf_hash, proof.vrf_proof,
            ctx.last_block_hash, value,
        )
        if part.obs is not None:
            part.obs.emit("vote_cast", node=part.node_id,
                          round=round_number, step=step, j=proof.j,
                          weight=ctx.weight_of(part.keypair.public))
        part.gossip_vote(vote)
    return proof


def process_msg(backend: CryptoBackend, ctx: BAContext, tau: float,
                vote: VoteMessage) -> tuple[int, bytes | None, bytes | None]:
    """Algorithm 6: validate a vote; returns ``(votes, value, sorthash)``.

    ``votes == 0`` means the message must be ignored (bad signature, wrong
    chain, or failed sortition). Both verdicts are the vote's own
    receipts: each is computed on first sight (or when ``ctx`` is
    another context than the one it was weighed under) and read back by
    every later ``CountVotes``/coin/certificate pass, on every node that
    shares ``ctx``.
    """
    if not vote.verify_signature(backend):
        return 0, None, None
    if vote.prev_hash != ctx.last_block_hash:
        # Vote extends a different chain (possibly a fork); ignore here —
        # the fork monitor tracks these separately (section 8.2).
        return 0, None, None
    votes = vote.weigh(backend, ctx, tau)
    if votes == 0:
        return 0, None, None
    return votes, vote.value, vote.sorthash


class _VoteCount:
    """Algorithm 5's tally and λ deadline, as the state of one parked
    step: parked on the buffer's ``(round, step)`` key, with one deadline
    timer. A wake-up from either counts what arrived since, then hands
    the outcome to ``then`` or parks again."""

    __slots__ = ("part", "ctx", "key", "threshold", "tau", "start",
                 "deadline", "counts", "voters", "bucket", "cursor", "then",
                 "_timer")

    def __init__(self, part: BAParticipant, ctx: BAContext,
                 key: tuple[int, str], threshold: float, tau: float,
                 start: float, deadline: float,
                 then: Callable[[object], None]) -> None:
        self.part, self.ctx, self.key = part, ctx, key
        self.threshold, self.tau = threshold, tau
        self.start, self.deadline, self.then = start, deadline, then
        self.counts: dict[bytes, int] = {}
        self.voters: set[bytes] = set()
        self.bucket = part.buffer.messages(*key)
        self.cursor = 0
        #: The live deadline timer. It also names the current park: a
        #: wake-up the buffer scheduled under an earlier one is stale.
        self._timer: Timer | None = None

    def tally(self):
        """Count the bucket past the cursor: the value that crossed the
        threshold, :data:`TIMEOUT` past the deadline, else ``None``."""
        backend, ctx, tau = self.part.backend, self.ctx, self.tau
        bucket, counts, voters = self.bucket, self.counts, self.voters
        for cursor in range(self.cursor, len(bucket)):
            vote = bucket[cursor]
            votes, value, _ = process_msg(backend, ctx, tau, vote)
            if vote.voter in voters or votes == 0:
                continue
            voters.add(vote.voter)
            counts[value] = counts.get(value, 0) + votes
            if counts[value] > self.threshold:
                self.cursor = cursor + 1
                return value
        self.cursor = len(bucket)
        return TIMEOUT if self.deadline - self.part.env.now <= 0 else None

    def _park(self) -> None:
        env = self.part.env
        # ``deadline - now`` afresh at every park: nodes that time out in
        # one instant fire in the order of these floats and their seqs.
        advance = self._advance
        self._timer = timer = env.schedule(self.deadline - env.now, advance)
        self.part.buffer.park(self.key, advance, timer)

    def _advance(self, park: Timer | None = None) -> None:
        """Votes arrived during ``park``, or (``None``) the deadline fired:
        it counts first too, and an ulp early it re-arms for the rest."""
        timer = self._timer
        if park is None:
            self.part.buffer.unpark(self.key, self._advance, timer)
        elif park is timer:
            timer.cancel()
        else:
            return  # stale: a deadline wake overtook it, or cancel() did
        result = self.tally()
        if result is None:
            self._park()
            return
        self._timer = None
        self.part.counts.remove(self)
        self._close(result)
        then, self.then = self.then, None
        then(result)

    def _close(self, result) -> None:
        """The step is over: ``step_exit`` and the step observer."""
        part, env = self.part, self.part.env
        round_number, step = self.key
        timed_out = result is TIMEOUT
        if part.obs is not None:
            part.obs.emit("step_exit", node=part.node_id, round=round_number,
                          step=step, seconds=env.now - self.start,
                          timed_out=timed_out,
                          votes_counted=sum(self.counts.values()))
        if part.step_observer is not None:
            part.step_observer(round_number, step, env.now - self.start,
                               timed_out)

    def cancel(self) -> None:
        """Withdraw the park and the deadline; the step never ends."""
        self.part.buffer.unpark(self.key, self._advance, self._timer)
        self._timer.cancel()
        self._timer = self.then = None


def count_votes(part: BAParticipant, ctx: BAContext, round_number: int,
                step: str, threshold_fraction: float, tau: float,
                lam: float, then: Callable[[object], None]):
    """Algorithm 5: the first value whose accumulated (deduplicated)
    votes for ``(round, step)`` exceed ``threshold_fraction * tau``, or
    :data:`TIMEOUT` after ``lam`` seconds.

    Returns that outcome when the votes already buffered decide it.
    Otherwise the count parks — on the buffer and on its deadline — and
    returns ``None``; ``then(outcome)`` runs once, from the kernel
    callback that decides it.
    """
    start = part.env.now
    if part.obs is not None:
        part.obs.emit("step_enter", node=part.node_id, round=round_number,
                      step=step, deadline_s=lam)
    count = _VoteCount(part, ctx, (round_number, step),
                       threshold_fraction * tau, tau, start, start + lam,
                       then)
    result = count.tally()
    if result is None:
        part.counts.append(count)
        count._park()
        return None
    count._close(result)
    return result


def count_votes_then(part: BAParticipant, ctx: BAContext, round_number: int,
                     step: str, threshold_fraction: float, tau: float,
                     lam: float, then: Callable[[object], None]) -> None:
    """:func:`count_votes`, its outcome handed to ``then`` either way."""
    outcome = count_votes(part, ctx, round_number, step, threshold_fraction,
                          tau, lam, then)
    if outcome is not None:
        then(outcome)


def interrupt_counts(part: BAParticipant) -> None:
    """Cancel every parked count of a normal round, each closed with an
    ``interrupted`` ``step_exit``.

    What a fail-stop crash or a transient's retirement does to the
    counts its round (and its pipelined final counts) still hold, so
    per-step timings and the conformance machine always see closed
    intervals. The exits count as neither a threshold success nor a
    timeout. Recovery-lane counts are left parked: recovery sessions
    outlive a crash and later finish their own counts.
    """
    obs, now = part.obs, part.env.now
    for count in sorted(part.counts, key=lambda count: count.key):
        round_number, step = count.key
        if round_number >= RECOVERY_ROUND_BASE:
            continue
        part.counts.remove(count)
        count.cancel()
        if obs is not None:
            obs.emit("step_exit", node=part.node_id, round=round_number,
                     step=step, seconds=now - count.start, timed_out=False,
                     interrupted=True)


def common_coin(part: BAParticipant, ctx: BAContext, round_number: int,
                step: str, tau: float) -> int:
    """Algorithm 9: the committee-derived common coin (0 or 1).

    The coin is the least-significant bit of the minimum
    ``H(sorthash || j)`` over all valid votes observed in this step, one
    hash per selected sub-user.
    """
    min_hash = COIN_HASH_CEILING
    for vote in part.buffer.messages(round_number, step):
        votes, _, _ = process_msg(part.backend, ctx, tau, vote)
        if votes:
            min_hash = min(min_hash, vote.coin_hash(votes))
    return min_hash % 2
