"""A vote carries its verdicts: the receipts on :class:`VoteMessage`.

Three facts every consumer of a vote used to recompute — signature
validity, committee weight ``j`` under a sortition context, and the
Algorithm 9 coin minimum for that ``j`` — are memoized on the frozen
instance. These tests pin what makes that safe:

* a receipt belongs to one *instance*: forged copies, decoded copies and
  ``dataclasses.replace`` results start with none (the laundering test
  in ``tests/test_runtime.py`` covers the equality trap — ``signature``
  is ``compare=False``, so a forgery can compare equal to the original);
* the weight receipt is keyed by the full sortition context and
  recomputes when any of seed / tau / weight / total changes; the one in
  front of it is keyed by the round context *object*, which every node
  on one tip shares (one per ``(round, height, tip)`` per deployment)
  and nobody else holds;
* a vote nobody can weigh here — future round, foreign tip, recovery
  round (the *undecidable* messages of Conti et al., PAPERS.md) — is
  admitted without ever being given a weight;
* Hypothesis: arbitrary vote streams produce the same admission, relay,
  count, coin and certificate outcomes with receipts disabled through a
  test-only subclass.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baplus.certificate import build_certificate
from repro.baplus.context import BAContext
from repro.baplus.messages import VoteMessage, coin_min_hash, make_vote
from repro.baplus.voting import common_coin, process_msg
from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.block import empty_block
from repro.network.message import vote_envelope
from repro.node import catchup
from repro.node.agent import history_context
from repro.runtime.admission import RECOVERY_ROUND_BASE
from repro.sortition.roles import FINAL_STEP, committee_role
from repro.sortition.selection import selection_stats, sortition
from tests.fixtures import signed_vote

USERS = 8
STEPS = ("reduction_one", "1", FINAL_STEP)
VALUES = (H(b"block-a"), H(b"block-b"))


class NoReceiptVote(VoteMessage):
    """Test-only: every verdict is recomputed on every question."""

    def _remember(self, slot, receipt):
        pass


def _sim() -> Simulation:
    return Simulation(SimulationConfig(num_users=USERS, seed=3))


def _tau(sim: Simulation, step: str) -> int:
    params = sim.config.params
    return params.tau_final if step == FINAL_STEP else params.tau_step


def _committee_vote_fields(sim: Simulation, voter: int, step: str,
                           value: bytes, round_number: int = 1) -> dict:
    """Field dict of ``voter``'s real (possibly unselected) vote."""
    node = sim.nodes[voter]
    ctx = node._current_context(round_number)
    proof = sortition(sim.backend, node.keypair.secret, ctx.seed,
                      _tau(sim, step), committee_role(round_number, step),
                      ctx.weight_of(node.keypair.public), ctx.total_weight)
    vote = make_vote(sim.backend, node.keypair.secret, node.keypair.public,
                     round_number, step, proof.vrf_hash, proof.vrf_proof,
                     ctx.last_block_hash, value)
    return {f.name: getattr(vote, f.name)
            for f in dataclasses.fields(vote)}


def _selected_vote(sim: Simulation) -> tuple[VoteMessage, int]:
    """A vote whose sender really sits on its committee, and its ``j``."""
    for voter in range(USERS):
        vote = VoteMessage(**_committee_vote_fields(sim, voter, "1",
                                                    VALUES[0]))
        ctx = sim.nodes[0]._current_context(1)
        j = vote.committee_votes(sim.backend, ctx.seed, _tau(sim, "1"),
                                 ctx.weight_of(vote.voter),
                                 ctx.total_weight)
        if j > 0:
            return dataclasses.replace(vote), j
    raise AssertionError("no user selected; pick another seed")


def _receipts(vote: VoteMessage) -> set[str]:
    return {name for name in vars(vote) if name.startswith("_")}


class TestReceiptLifetime:
    def test_each_verdict_is_computed_once(self):
        sim = _sim()
        vote, j = _selected_vote(sim)
        ctx = sim.nodes[0]._current_context(1)
        context = (ctx.seed, _tau(sim, "1"), ctx.weight_of(vote.voter),
                   ctx.total_weight)
        assert _receipts(vote) == set()

        def ask():
            assert vote.verify_signature(sim.backend)
            assert vote.committee_votes(sim.backend, *context) == j
            assert vote.coin_hash(j) == coin_min_hash(vote.sorthash, j)

        ask()  # first sight: the backend checks
        backend = sim.backend
        traffic = (backend.verifies, backend.vrf_verifies,
                   selection_stats(backend).verifies)
        ask()
        ask()
        # Not one backend check the second and third time.
        assert traffic == (backend.verifies, backend.vrf_verifies,
                           selection_stats(backend).verifies)
        assert _receipts(vote) == {"_signing_payload", "_signature_valid",
                                   "_weight_receipt", "_coin_receipt"}

    def test_replace_and_forged_copies_start_bare(self):
        sim = _sim()
        vote, j = _selected_vote(sim)
        ctx = sim.nodes[0]._current_context(1)
        context = (ctx.seed, _tau(sim, "1"), ctx.weight_of(vote.voter),
                   ctx.total_weight)
        assert vote.verify_signature(sim.backend)
        assert vote.committee_votes(sim.backend, *context) == j
        copy = dataclasses.replace(vote)
        assert copy == vote and _receipts(copy) == set()
        # Same (voter, round, step), another value under the original's
        # signature: no inherited verdict, and the real one is "forged".
        forged = dataclasses.replace(vote, value=VALUES[1])
        assert _receipts(forged) == set()
        assert not forged.verify_signature(sim.backend)
        # Same key, another sorthash: weighs 0 whatever the original got.
        stolen = dataclasses.replace(vote, sorthash=H(b"not-mine"))
        assert stolen.committee_votes(sim.backend, *context) == 0
        assert vote.committee_votes(sim.backend, *context) == j

    def test_changed_context_recomputes(self):
        sim = _sim()
        vote, j = _selected_vote(sim)
        ctx = sim.nodes[0]._current_context(1)
        tau, weight, total = (_tau(sim, "1"), ctx.weight_of(vote.voter),
                              ctx.total_weight)
        assert vote.committee_votes(sim.backend, ctx.seed, tau, weight,
                                    total) == j
        before = selection_stats(sim.backend).verifies
        # Another seed: the proof no longer verifies -> no weight, and
        # certainly not the j remembered for the real seed.
        assert vote.committee_votes(sim.backend, H(b"other-seed"), tau,
                                    weight, total) == 0
        assert selection_stats(sim.backend).verifies == before + 1
        # A weight table in which the voter holds nothing.
        assert vote.committee_votes(sim.backend, ctx.seed, tau, 0,
                                    total) == 0
        # A far larger total dilutes the same stake.
        diluted = vote.committee_votes(sim.backend, ctx.seed, tau, weight,
                                       total * 10_000)
        assert diluted < j
        assert selection_stats(sim.backend).verifies == before + 3
        # Back in the real context the single slot was overwritten: one
        # recomputation, the same answer.
        assert vote.committee_votes(sim.backend, ctx.seed, tau, weight,
                                    total) == j
        assert selection_stats(sim.backend).verifies == before + 4
        assert vote.coin_hash(j) == coin_min_hash(vote.sorthash, j)
        assert vote.coin_hash(1) == coin_min_hash(vote.sorthash, 1)


class TestUndecidableVotesCarryNoWeight:
    def _deliver(self, sim: Simulation, vote: VoteMessage) -> bool:
        node = sim.nodes[0]
        before = node.admission.admitted
        node.interface.receive(vote_envelope(vote.voter, vote),
                               node.interface.neighbors[0])
        return node.admission.admitted == before + 1

    def test_future_foreign_and_recovery_votes(self):
        sim = _sim()
        undecidable = [
            signed_vote(sim, 1, 2, "1"),                        # future
            signed_vote(sim, 2, 1, "1", prev_hash=H(b"fork")),  # foreign
            signed_vote(sim, 3, RECOVERY_ROUND_BASE + 1, "1"),  # recovery
        ]
        for vote in undecidable:
            assert self._deliver(sim, vote)
            assert "_signature_valid" in vars(vote)
            assert "_weight_receipt" not in vars(vote)
            assert "_coin_receipt" not in vars(vote)
        # The damper saw all three and counted none of them.
        assert sim.nodes[0].damper.tally._counts == {}

    def test_decidable_vote_is_weighed_exactly_once(self):
        sim = _sim()
        vote, j = _selected_vote(sim)
        before = selection_stats(sim.backend).verifies
        assert self._deliver(sim, vote)
        ctx = sim.nodes[0]._current_context(1)
        assert vote.__dict__["_weight_receipt"] == (
            ctx.seed, _tau(sim, "1"), ctx.weight_of(vote.voter),
            ctx.total_weight, j)
        assert process_msg(sim.backend, ctx, _tau(sim, "1"),
                           vote) == (j, vote.value, vote.sorthash)
        # admission -> handler -> damper -> process_msg: one VerifySort,
        # admission's, for this bare copy.
        assert selection_stats(sim.backend).verifies == before + 1
        junk = signed_vote(sim, 4, 1, "1")  # decidable, proof is junk
        assert not self._deliver(sim, junk)
        assert junk.__dict__["_weight_receipt"][-1] == 0
        assert sim.nodes[0].admission.rejected == {"failed_sortition": 1}


class TestOneContextPerTip:
    """Nodes on one tip share one context object — and so the receipts
    their votes carry for it; nobody else reads those receipts."""

    @staticmethod
    def _after_round_one() -> Simulation:
        sim = _sim()
        sim.submit_payments(USERS)
        sim.run_rounds(1)
        assert sim.all_chains_equal()
        assert not sim.nodes[0].chain.block_at(1).is_empty
        return sim

    def test_nodes_on_one_tip_share_the_context(self):
        sim = self._after_round_one()
        contexts = {id(node._current_context(2)) for node in sim.nodes}
        assert len(contexts) == 1
        ctx = sim.nodes[0]._current_context(2)
        key = (2, 1, sim.nodes[0].chain.tip_hash)
        assert sim.registry.context(key) is ctx
        # Dropped with its round: a later ask builds an equal, new one.
        sim.registry.drop_contexts_before(3)
        assert sim.registry.context(key) is None
        node = sim.nodes[1]
        node._ctx_memo = None
        rebuilt = node._current_context(2)
        assert rebuilt is not ctx
        assert (rebuilt.seed, rebuilt.total_weight, rebuilt.last_block_hash) \
            == (ctx.seed, ctx.total_weight, ctx.last_block_hash)

    def test_a_foreign_tip_gets_its_own(self):
        sim = self._after_round_one()
        node, peer = sim.nodes[1], sim.nodes[0]
        genesis_hash = node.chain.block_at(0).block_hash
        node.chain = node.chain.fork_from([empty_block(1, genesis_hash)])
        assert (node.chain.height == peer.chain.height
                and node.chain.tip_hash != peer.chain.tip_hash)
        foreign = node._current_context(2)
        assert foreign is not peer._current_context(2)
        assert foreign.last_block_hash == node.chain.tip_hash

    def test_a_replayed_chain_is_checked_under_its_own(self, monkeypatch):
        sim = self._after_round_one()
        node = sim.nodes[0]
        interned = node._current_context(2)
        replayed = []

        def record(chain, round_number):
            ctx = history_context(chain, round_number)
            replayed.append(ctx)
            return ctx
        monkeypatch.setattr(catchup, "history_context", record)
        chain = catchup.catch_up_from(
            node.chain, params=node.params, backend=node.backend,
            initial_balances=node.chain.initial_balances,
            genesis_seed=node.chain.genesis_seed, index=node.chain.index)
        assert chain.tip_hash == node.chain.tip_hash and len(replayed) == 1
        # Round 1's certificate was checked under a context built for the
        # replay (equal in content), never the one the live nodes shared.
        live = sim.registry.context((1, 0, chain.block_at(0).block_hash))
        assert live is not None and live is not replayed[0]
        assert (replayed[0].seed, replayed[0].last_block_hash) \
            == (live.seed, live.last_block_hash)
        assert interned is node._current_context(2)

    def test_a_receipt_is_read_only_under_its_own_context(self):
        sim = _sim()
        vote, j = _selected_vote(sim)
        ctx = sim.nodes[0]._current_context(1)
        tau = _tau(sim, "1")
        other = BAContext.from_weights(H(b"other-seed"), ctx.weights,
                                       ctx.last_block_hash)
        assert vote.weigh(sim.backend, ctx, tau) == j > 0
        assert vote.weigh(sim.backend, other, tau) == 0
        assert vote.__dict__["_context_receipt"] == (other, tau, 0)
        assert vote.weigh(sim.backend, ctx, tau) == j
        # An equal context that is another object computes (through the
        # content-keyed receipt), it does not read ctx's.
        twin = BAContext.from_weights(ctx.seed, ctx.weights,
                                      ctx.last_block_hash)
        before = vote.__dict__["_weight_receipt"]
        assert vote.weigh(sim.backend, twin, tau) == j
        assert vote.__dict__["_context_receipt"][0] is twin
        assert vote.__dict__["_weight_receipt"] is before


# -- Hypothesis: receipts are invisible ------------------------------------

def _vote_pool() -> list[dict]:
    """Field dicts: real committee votes, equivocations, junk, undecidable."""
    sim = _sim()
    pool = []
    for step in STEPS:
        for voter in range(USERS):
            pool.append(_committee_vote_fields(sim, voter, step,
                                               VALUES[voter % 2]))
    # Equivocation: same (voter, round, step), the other value.
    pool.append(_committee_vote_fields(sim, 0, "1", VALUES[1]))
    # A forgery: somebody else's signature over different contents.
    pool.append({**pool[0], "value": VALUES[1]})
    for vote in (signed_vote(sim, 1, 1, "2"),  # decidable, junk proof
                 signed_vote(sim, 2, 2, "1"),
                 signed_vote(sim, 3, 1, "2", prev_hash=H(b"fork")),
                 signed_vote(sim, 4, RECOVERY_ROUND_BASE + 1, "1")):
        pool.append({f.name: getattr(vote, f.name)
                     for f in dataclasses.fields(vote)})
    return pool


POOL = _vote_pool()


def _outcome(vote_class, order: list[int]) -> tuple:
    """Everything a node decides about a vote stream."""
    sim = _sim()
    node = sim.nodes[0]
    votes = [vote_class(**fields) for fields in POOL]
    decisions = []
    for index in order:
        vote = votes[index]  # repeats re-offer the *same* instance
        envelope = vote_envelope(vote.voter, vote)
        answer = node.receive(envelope, 1)  # None: the gate rejected it
        decisions.append((answer is not None, bool(answer)))
    ctx = node._current_context(1)
    tallies = []
    for step in STEPS:
        tau = _tau(sim, step)
        counted = [process_msg(sim.backend, ctx, tau, vote)
                   for vote in node.buffer.messages(1, step)]
        certificates = [build_certificate(node.buffer, ctx, sim.backend,
                                          sim.config.params, 1, step, value)
                        for value in VALUES]
        tallies.append((counted,
                        common_coin(node.participant, ctx, 1, step, tau),
                        [None if c is None else len(c.votes)
                         for c in certificates]))
    return (decisions, tallies, node.admission.rejected,
            node.damper.suppressed, node.damper.observed,
            sorted(node.damper.tally._crossed))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=60))
def test_outcomes_equal_with_receipts_disabled(order):
    with_receipts = _outcome(VoteMessage, order)
    without = _outcome(NoReceiptVote, order)
    assert with_receipts == without


def test_the_pool_exercises_every_branch():
    """The property above is vacuous unless the pool really contains
    selected, unselected, forged and undecidable votes."""
    order = list(range(len(POOL)))
    decisions, tallies, rejected, _, observed, _ = _outcome(VoteMessage,
                                                            order)
    assert {"failed_sortition", "equivocation",
            "invalid_signature"} <= set(rejected)
    assert any(admitted for admitted, _ in decisions)
    assert observed > 0
    assert any(votes > 0 for counted, _, _ in tallies
               for votes, _, _ in counted)
