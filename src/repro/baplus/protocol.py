"""BA* main procedures: Reduction, BinaryBA*, and BA* (Algorithms 3, 7, 8).

All three are step machines: each step votes, then counts
(:func:`~repro.baplus.voting.count_votes`); a step the buffered votes
already decide continues at once, one that must wait continues from the
kernel callback that decides it, and the procedure hands its outcome to
the caller's ``then``. They follow the paper's pseudocode step for step,
including the subtle liveness/safety devices:

* every ``return`` in BinaryBA* is paired with a timeout check that sets
  the *next-step* vote to the value being returned, so users that already
  finished still steer stragglers (section 7.4, "safety with strong
  synchrony");
* a user that reaches consensus votes in the next three steps with the
  consensus value, so remaining users can still cross the threshold;
* step 1 consensus additionally triggers a ``final``-committee vote, which
  BA* counts to distinguish final from tentative consensus;
* every third step uses the common coin instead of a deterministic
  fallback, defeating the adversary's vote-withholding split attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baplus.context import BAContext
from repro.baplus.voting import (
    BAParticipant,
    TIMEOUT,
    committee_vote,
    common_coin,
    count_votes,
    count_votes_then,
)
from repro.ledger.block import empty_block_hash
from repro.sortition.roles import FINAL_STEP, REDUCTION_ONE, REDUCTION_TWO

#: Outcome kinds (section 4): FINAL excludes any other agreed block this
#: round; TENTATIVE may coexist with other tentative blocks on forks.
FINAL = "final"
TENTATIVE = "tentative"


@dataclass(frozen=True)
class AgreementResult:
    """What one node's BA* execution concluded for a round."""

    kind: str
    block_hash: bytes
    deciding_step: str
    steps_taken: int

    @property
    def is_final(self) -> bool:
        return self.kind == FINAL


def reduction(part: BAParticipant, ctx: BAContext, round_number: int,
              hblock: bytes, then: Callable[[bytes], None]) -> None:
    """Algorithm 7: reduce arbitrary-value agreement to a binary choice.

    ``then`` receives either a block hash that gathered a voting quorum
    or the empty-block hash. Ensures at most one non-empty hash can
    emerge for all honest users.
    """
    params = part.params
    empty_hash = empty_block_hash(round_number, ctx.last_block_hash)

    def second(hblock2) -> None:
        then(empty_hash if hblock2 is TIMEOUT else hblock2)

    def first(hblock1) -> None:
        committee_vote(part, ctx, round_number, REDUCTION_TWO,
                       params.tau_step,
                       empty_hash if hblock1 is TIMEOUT else hblock1)
        count_votes_then(part, ctx, round_number, REDUCTION_TWO,
                         params.t_step, params.tau_step, params.lambda_step,
                         second)

    committee_vote(part, ctx, round_number, REDUCTION_ONE, params.tau_step,
                   hblock)
    # Others may still be waiting for block proposals, so the first step
    # waits lambda_block + lambda_step.
    count_votes_then(part, ctx, round_number, REDUCTION_ONE, params.t_step,
                     params.tau_step, params.lambda_block + params.lambda_step,
                     first)


@dataclass(frozen=True)
class BinaryResult:
    """Outcome of BinaryBA*: the agreed hash and where it was decided."""

    value: bytes
    deciding_step: int
    voted_final: bool


class _BinaryBA:
    """Algorithm 8 as a step machine: the step, the value it votes, and
    what to do with the outcome. Steps whose votes already crossed the
    threshold are decided in a loop, so a node that catches up on a
    long backlog of steps does not recurse once per step."""

    __slots__ = ("part", "ctx", "round_number", "block_hash", "empty_hash",
                 "step", "r", "then")

    def __init__(self, part: BAParticipant, ctx: BAContext,
                 round_number: int, block_hash: bytes,
                 then: Callable[["BinaryResult | None"], None]) -> None:
        self.part, self.ctx, self.round_number = part, ctx, round_number
        self.block_hash, self.then = block_hash, then
        self.empty_hash = empty_block_hash(round_number, ctx.last_block_hash)
        self.step = 1
        self.r = block_hash

    def _vote_and_count(self):
        part, params, step = self.part, self.part.params, str(self.step)
        committee_vote(part, self.ctx, self.round_number, step,
                       params.tau_step, self.r)
        return count_votes(part, self.ctx, self.round_number, step,
                           params.t_step, params.tau_step,
                           params.lambda_step, self.advance)

    def advance(self, outcome=None) -> None:
        """Decide ``outcome`` (``None``: begin), then vote and count the
        next steps until one parks or the run ends."""
        while True:
            if outcome is not None:
                result = self._decide(outcome)
                if result is not None:
                    self.then(result)
                    return
            if self.step % 3 == 1 and self.step >= self.part.params.max_steps:
                # No consensus after MaxSteps: assume a network problem
                # and rely on the recovery protocol of section 8.2 (the
                # paper's HangForever()).
                self.then(None)
                return
            outcome = self._vote_and_count()
            if outcome is None:
                return

    def _decide(self, r) -> "BinaryResult | None":
        """One step's outcome; the result once consensus is reached."""
        part, step = self.part, self.step
        if step % 3 == 1:
            # --- Step A: push toward block_hash on timeout -------------
            if r is TIMEOUT:
                r = self.block_hash
            elif r != self.empty_hash:
                self._vote_next_three(r)
                voted_final = step == 1
                if voted_final:
                    committee_vote(part, self.ctx, self.round_number,
                                   FINAL_STEP, part.params.tau_final, r)
                return BinaryResult(value=r, deciding_step=step,
                                    voted_final=voted_final)
        elif step % 3 == 2:
            # --- Step B: push toward empty_hash on timeout -------------
            if r is TIMEOUT:
                r = self.empty_hash
            elif r == self.empty_hash:
                self._vote_next_three(r)
                return BinaryResult(value=r, deciding_step=step,
                                    voted_final=False)
        elif r is TIMEOUT:
            # --- Step C: common coin breaks adversarial splits ---------
            if common_coin(part, self.ctx, self.round_number, str(step),
                           part.params.tau_step) == 0:
                r = self.block_hash
            else:
                r = self.empty_hash
        self.r = r
        self.step = step + 1
        return None

    def _vote_next_three(self, final_value: bytes) -> None:
        # A finished user keeps steering the next three steps (section 7.4).
        for future in range(self.step + 1, self.step + 4):
            committee_vote(self.part, self.ctx, self.round_number,
                           str(future), self.part.params.tau_step,
                           final_value)


def binary_ba_star(part: BAParticipant, ctx: BAContext, round_number: int,
                   block_hash: bytes,
                   then: Callable[[BinaryResult | None], None]) -> None:
    """Algorithm 8: agree on ``block_hash`` or the empty-block hash.

    ``then`` receives the :class:`BinaryResult`, or ``None`` after
    ``MaxSteps`` steps without consensus: the caller must fall back to
    the recovery protocol (section 8.2).
    """
    _BinaryBA(part, ctx, round_number, block_hash, then).advance()


def ba_star(part: BAParticipant, ctx: BAContext, round_number: int,
            hblock: bytes,
            then: Callable[[AgreementResult | None], None]) -> None:
    """Algorithm 3: full BA* for one round, given the initial block hash.

    ``then`` receives an :class:`AgreementResult` whose ``block_hash``
    the caller resolves to a block via its proposal store
    (``BlockOfHash``), or ``None`` when BinaryBA* halted.
    """
    params = part.params

    def final(binary: BinaryResult, final_vote) -> None:
        if final_vote is not TIMEOUT and binary.value == final_vote:
            kind = FINAL
        else:
            kind = TENTATIVE
        then(AgreementResult(
            kind=kind,
            block_hash=binary.value,
            deciding_step=str(binary.deciding_step),
            steps_taken=binary.deciding_step,
        ))

    def agreed(binary: BinaryResult | None) -> None:
        if binary is None:
            then(None)
            return
        count_votes_then(part, ctx, round_number, FINAL_STEP,
                         params.t_final, params.tau_final, params.lambda_step,
                         lambda final_vote: final(binary, final_vote))

    reduction(part, ctx, round_number, hblock,
              lambda reduced: binary_ba_star(part, ctx, round_number,
                                             reduced, agreed))
