"""Property tests: damping never suppresses a vote a quorum needs.

The damper's safety claim is local and order-sensitive — "by the time I
suppress a vote for a key, the votes I *did* relay already carry a
quorum for it" — so Hypothesis drives :class:`DampingTally` through
arbitrary committees and arbitrary arrival orders and checks the claim
as stated:

* **Quorum preservation** — replaying only the relayed votes through a
  fresh ``count_votes``-style tally crosses every threshold the full
  vote set crosses. A peer fed the damped stream reaches every quorum
  the undamped stream reaches.
* **Coin preservation** — per ``(round, step)``, the minimum Algorithm 9
  coin hash over the relayed votes equals the minimum over *all* votes:
  the exemption forwards every new running minimum, so a peer computing
  the common coin from the damped stream flips the same bit.
* **Counted implies relayed** — the damper never counts weight it did
  not forward (the FIFO argument's load-bearing step).

Votes model honest committees: per ``(round, step)`` each voter votes at
most once, with an objective sortition weight; sorthashes are drawn
bytes so coin hashes exercise the real :func:`coin_min_hash`.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baplus.messages import COIN_HASH_CEILING, coin_min_hash
from repro.crypto.hashing import H
from repro.runtime.damping import DampingTally
from repro.sortition.roles import FINAL_STEP

EXAMPLES = 200

STEPS = ("reduction_one", "1", "2", FINAL_STEP)
VALUES = tuple(H(b"block", bytes([i])) for i in range(3))

STEP_THRESHOLD = 12.0
FINAL_THRESHOLD = 18.0


@st.composite
def vote_stream(draw) -> list[tuple]:
    """Arbitrary-order honest votes: (round, step, value, voter, weight,
    coin_hash) with one vote per voter per (round, step)."""
    votes = []
    for round_number in range(1, draw(st.integers(1, 2)) + 1):
        for step in STEPS[:draw(st.integers(1, len(STEPS)))]:
            voters = draw(st.integers(0, 12))
            for voter_index in range(voters):
                voter = H(b"voter", bytes([voter_index]))
                value = draw(st.sampled_from(VALUES))
                weight = draw(st.integers(0, 6))
                sorthash = draw(st.binary(min_size=4, max_size=8))
                votes.append((round_number, step, value, voter, weight,
                              coin_min_hash(sorthash, weight)))
    return draw(st.permutations(votes))


def _thresh(step: str) -> float:
    return FINAL_THRESHOLD if step == FINAL_STEP else STEP_THRESHOLD


def _count_votes(votes: list[tuple]) -> set[tuple]:
    """Reference ``count_votes`` semantics: keys crossing threshold.

    One count per voter per (round, step), first arrival wins; weight-0
    votes are not committee votes and count nothing.
    """
    counted: dict[tuple, set[bytes]] = {}
    totals: dict[tuple, float] = {}
    crossed = set()
    for round_number, step, value, voter, weight, _ in votes:
        if weight <= 0:
            continue
        step_key = (round_number, step)
        voters = counted.setdefault(step_key, set())
        if voter in voters:
            continue
        voters.add(voter)
        key = (round_number, step, value)
        totals[key] = totals.get(key, 0.0) + weight
        if totals[key] > _thresh(step):
            crossed.add(key)
    return crossed


def _run_damper(votes: list[tuple]) -> tuple[list[tuple], list[tuple]]:
    """Feed the tally; split the stream into (relayed, suppressed)."""
    tally = DampingTally(STEP_THRESHOLD, FINAL_THRESHOLD)
    relayed, suppressed = [], []
    for vote in votes:
        round_number, step, value, voter, weight, coin_hash = vote
        if tally.observe(round_number, step, value, voter, weight,
                         coin_hash):
            suppressed.append(vote)
        else:
            relayed.append(vote)
    return relayed, suppressed


class TestQuorumPreservation:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(vote_stream())
    def test_relayed_substream_crosses_every_quorum(self, votes):
        relayed, suppressed = _run_damper(votes)
        full = _count_votes(votes)
        damped = _count_votes(relayed)
        missing = full - damped
        assert not missing, (
            f"damping lost quorums {missing}; suppressed={suppressed}")

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(vote_stream())
    def test_suppression_only_after_forwarded_quorum(self, votes):
        # Stronger, prefix-wise: at the moment any vote is suppressed,
        # the already-relayed votes alone carry a quorum for its key.
        tally = DampingTally(STEP_THRESHOLD, FINAL_THRESHOLD)
        relayed_prefix: list[tuple] = []
        for vote in votes:
            round_number, step, value, voter, weight, coin_hash = vote
            if tally.observe(round_number, step, value, voter, weight,
                             coin_hash):
                key = (round_number, step, value)
                assert key in _count_votes(relayed_prefix), (
                    f"suppressed {vote} before relaying a quorum "
                    f"for {key}")
            else:
                relayed_prefix.append(vote)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(vote_stream())
    def test_undecidable_votes_always_relay(self, votes):
        _, suppressed = _run_damper(votes)
        assert all(weight > 0
                   for _, _, _, _, weight, _ in suppressed)


class TestCoinPreservation:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(vote_stream())
    def test_relayed_substream_preserves_coin_minimum(self, votes):
        relayed, _ = _run_damper(votes)

        def step_minimums(stream):
            mins: dict[tuple, int] = {}
            for round_number, step, _, _, _, coin_hash in stream:
                step_key = (round_number, step)
                mins[step_key] = min(
                    mins.get(step_key, COIN_HASH_CEILING), coin_hash)
            return mins

        full = step_minimums(votes)
        damped = step_minimums(relayed)
        for step_key, minimum in full.items():
            if minimum == COIN_HASH_CEILING:
                continue  # only weight-0 votes: no coin contribution
            assert damped.get(step_key) == minimum, (
                f"coin minimum for {step_key} lost by damping")

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(vote_stream())
    def test_new_running_minimum_is_never_suppressed(self, votes):
        _, suppressed = _run_damper(votes)
        seen: dict[tuple, int] = {}
        for vote in votes:
            round_number, step, _, _, _, coin_hash = vote
            step_key = (round_number, step)
            if coin_hash < seen.get(step_key, COIN_HASH_CEILING):
                seen[step_key] = coin_hash
                assert vote not in suppressed
