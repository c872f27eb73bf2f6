"""Tests for the message-path runtime: router, wiring, laundering.

Covers the refactor's safety claims:

* routed dispatch preserves the validate-before-relay contract and
  rejects wiring bugs (double registration, unknown kinds);
* the backend sees only the checks no message instance remembered, and
  a verdict stays with the exact bytes and the instance it was made
  for, so adversarial reuse of a signature (or msg_id) on different
  contents can never launder one.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultAction
from repro.common.errors import NetworkError, SignatureError
from repro.crypto.backend import FastBackend
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import PopulationConfig
from repro.network.message import Envelope
from repro.runtime.router import MessageRouter

from tests.fixtures import signed_vote


# ---------------------------------------------------------------------------
# MessageRouter
# ---------------------------------------------------------------------------


def _envelope(kind: str, payload: object = "payload") -> Envelope:
    return Envelope(origin=b"origin", kind=kind, payload=payload, size=10)


class TestMessageRouter:
    def test_dispatch_routes_payload_to_handler(self):
        router = MessageRouter()
        seen = []
        router.register("vote", lambda payload: seen.append(payload) or True)
        assert router.dispatch(_envelope("vote", "ballot")) is True
        assert seen == ["ballot"]

    def test_relay_decision_passes_through(self):
        router = MessageRouter()
        router.register("tx", lambda payload: False)
        assert router.dispatch(_envelope("tx")) is False

    def test_unknown_kind_dropped_and_counted(self):
        router = MessageRouter()
        assert router.dispatch(_envelope("mystery")) is False
        assert router.dispatch(_envelope("mystery")) is False
        assert router.unknown_kinds == 2

    def test_double_registration_rejected(self):
        router = MessageRouter()
        router.register("vote", lambda payload: True)
        with pytest.raises(NetworkError):
            router.register("vote", lambda payload: True)

    def test_replace_allows_reregistration(self):
        router = MessageRouter()
        router.register("fork", lambda payload: False)
        router.register("fork", lambda payload: True, replace=True)
        assert router.dispatch(_envelope("fork")) is True

    def test_empty_kind_rejected(self):
        router = MessageRouter()
        with pytest.raises(NetworkError):
            router.register("", lambda payload: True)

    def test_unregister_and_introspection(self):
        router = MessageRouter()
        router.register("chain", lambda payload: True)
        assert router.is_registered("chain")
        assert router.kinds() == frozenset({"chain"})
        router.unregister("chain")
        router.unregister("chain")  # idempotent
        assert not router.is_registered("chain")
        assert router.dispatch(_envelope("chain")) is False


# ---------------------------------------------------------------------------
# Simulation wiring + determinism
# ---------------------------------------------------------------------------


def _run(*, seed: int = 7, rounds: int = 2, num_users: int = 10,
         backend=None, faults=()) -> Simulation:
    sim = Simulation(
        SimulationConfig(num_users=num_users, seed=seed),
        backend=backend, faults=faults,
    )
    sim.submit_payments(10)
    sim.run_rounds(rounds)
    return sim


class TestSimulationWiring:
    def test_counting_backend_sees_only_misses(self):
        """Gossip fan-out means most verifications repeat across nodes;
        every repeat asks the same message instance, whose receipt
        answers it. The backend sees only the receipts' misses: 306
        checks, what the deployment-wide cache this run once went
        through counted as misses (with 170 hits besides)."""
        summary = _run().summary()
        assert summary["crypto.verifies"] > 0
        assert summary["crypto.signs"] > 0
        assert (summary["crypto.verifies"] + summary["crypto.vrf_verifies"]
                == 306)

    def test_single_user_payments_no_crash(self):
        """num_users == 1 used to crash rng.integers(0); now a no-op."""
        sim = Simulation(SimulationConfig(num_users=1, num_observers=1,
                                          seed=3))
        sim.submit_payments(5)
        assert all(len(node.mempool) == 0 for node in sim.nodes)


class TestEquivocationNotLaundered:
    def test_shared_signature_never_validates_other_contents(self):
        """Unit-level laundering proof: an adversary re-attaching a
        signature already verified valid to different bytes gets a
        rejection."""
        backend = FastBackend()
        kp = backend.keypair(b"e" * 32)
        signature = backend.sign(kp.secret, b"block-A")
        backend.verify(kp.public, b"block-A", signature)
        with pytest.raises(SignatureError):
            backend.verify(kp.public, b"block-B", signature)

    def test_forged_vote_never_inherits_an_instance_verdict(self):
        """The same proof one level up: verdicts memoized on a vote
        *instance* (its receipts) stay with that instance. ``signature``
        is excluded from ``VoteMessage`` equality, so a forgery sharing
        ``(voter, round, step)`` can even compare equal to the honest
        vote — and still gets its own, failing, verification."""
        import dataclasses

        from repro.baplus.messages import make_vote

        backend = FastBackend()
        kp = backend.keypair(b"v" * 32)
        honest = make_vote(backend, kp.secret, kp.public, 3, "1",
                           b"sorthash", b"proof", b"prev", b"value-A")
        assert honest.verify_signature(backend)
        assert honest.__dict__["_signature_valid"] is True
        other_value = dataclasses.replace(honest, value=b"value-B")
        other_signature = dataclasses.replace(honest, signature=b"x" * 32)
        assert other_signature == honest  # the trap
        for forged in (other_value, other_signature):
            assert "_signature_valid" not in forged.__dict__
            assert not forged.verify_signature(backend)
            assert not forged.verify_signature(backend)  # memoized: False
        assert honest.verify_signature(backend)

    def test_equivocating_proposer_with_receipts(self):
        """End-to-end: equivocators still never win and safety holds —
        the verdicts messages remember do not bypass the per-node
        equivocation tracking (context-dependent, never remembered)."""
        sim = _run(seed=13, rounds=2, num_users=16,
                   faults=[FaultAction(kind="equivocate", start=0.0,
                                       nodes=(13, 14, 15))])
        malicious_keys = {node.keypair.public for node in sim.nodes[13:16]}
        for round_number in (1, 2):
            assert len(sim.outcome().agreed_hashes(round_number)) == 1
        honest = sim.nodes[:13]
        for node in honest:
            for block in node.chain.blocks[1:]:
                assert block.proposer not in malicious_keys
        # The backend did real work during the adversarial run.
        assert sim.backend.vrf_verifies > 0


def _genesis_chain(sim: Simulation, node):
    from repro.ledger.blockchain import Blockchain
    return Blockchain(node.chain.initial_balances, node.chain.genesis_seed,
                      sim.config.params.seed_refresh_interval)


def _sync(sim: Simulation, node):
    """A :class:`ChainSync` on the sim substrate: virtual clock, gossip
    interface — the object a live process runs, made deterministic."""
    from repro.node.catchup import ChainSync
    return ChainSync(node)


def _committee(sim: Simulation, node, rounds_ahead: int,
               step: str = "1") -> list:
    """``(vote, j)`` for every user sortition puts on the committee of
    ``step``, ``rounds_ahead`` rounds past the round ``node`` is deciding
    (under its seed and weights): what an honest committee sends a node
    that lags."""
    from repro.sortition.roles import committee_role
    from repro.sortition.selection import sortition
    chain = node.chain
    round_number = chain.next_round + rounds_ahead
    weights = chain.state.weights()
    committee = []
    for voter, keypair in enumerate(sim.keypairs):
        proof = sortition(sim.backend, keypair.secret,
                          chain.selection_seed(round_number),
                          sim.config.params.tau_step,
                          committee_role(round_number, step),
                          weights.get(keypair.public), weights.total)
        if proof.j:
            committee.append((signed_vote(
                sim, voter, round_number, step, sorthash=proof.vrf_hash,
                sortproof=proof.vrf_proof), proof.j))
    return committee


def _buffer(node, committee) -> None:
    for vote, _ in committee:
        node.buffer.add(vote)


class TestChainSync:
    def test_timings_come_from_params(self):
        sim = _run(seed=5, rounds=1, num_users=10)
        sync = _sync(sim, sim.nodes[0])
        params = sim.config.params
        assert sync.poll_interval == max(0.25, params.lambda_step / 2)
        assert sync.cooldown == params.lambda_step
        assert sync.stall_after == params.round_budget
        assert sync.rejoin_polls * sync.poll_interval \
            == pytest.approx(6 * params.lambda_step)
        assert sync.halt_polls == 60

    def test_laggard_bootstraps_beyond_announcer_neighborhood(self):
        """Up-to-date nodes relay a matching announcement, so the flood
        reaches laggards that are not direct neighbors of the announcer."""
        sim = _run(seed=5, rounds=2, num_users=12)
        laggard = sim.nodes[3]
        laggard.chain = _genesis_chain(sim, laggard)
        syncs = [_sync(sim, node) for node in sim.nodes]
        syncs[0].announce()
        sim.env.run(until=sim.env.now + 5.0)
        # Validated and stashed; the round loop adopts it from the
        # node's catch-up at its next boundary.
        assert laggard.chain.height == 0
        replica = laggard.catchup.take_pending()
        assert replica.height == 2
        assert replica.tip_hash == sim.nodes[0].chain.tip_hash
        assert syncs[3].adopted == 1
        assert laggard.catchup.take_pending() is None  # handed over once

    def test_invalid_announcement_rejected_not_relayed(self):
        from repro.node.catchup import ChainAnnouncement

        sim = _run(seed=5, rounds=2, num_users=12)
        victim = sim.nodes[5]
        victim.chain = _genesis_chain(sim, victim)
        sync = _sync(sim, victim)
        source = sim.nodes[0].chain
        forged = ChainAnnouncement(
            blocks=source.blocks[1:],
            certificates={},  # stripped certificates must fail replay
        )
        relay = victim.receive(Envelope(
            origin=b"adv", kind="chain", payload=forged, size=forged.size), 1)
        assert relay is False
        assert victim.chain.height == 0
        assert sync.pending is None
        assert sync.rejected == 1

    def test_close_unregisters(self):
        sim = _run(seed=5, rounds=1, num_users=10)
        node = sim.nodes[0]
        sync = _sync(sim, node)
        assert node.catchup is sync
        assert node.router.is_registered("chain")
        assert node.router.is_registered("chainreq")
        sync.close()
        assert not node.router.is_registered("chain")
        assert not node.router.is_registered("chainreq")
        assert node.catchup is None
        sim.env.run()  # returns: the lag probe no longer re-arms

    def test_request_is_answered_by_peers_ahead(self):
        sim = _run(seed=5, rounds=2, num_users=12)
        laggard = sim.nodes[3]
        laggard.chain = _genesis_chain(sim, laggard)
        syncs = [_sync(sim, node) for node in sim.nodes]
        syncs[3].request()
        sim.env.run(until=sim.env.now + 5.0)
        assert syncs[3].requests_sent == 1
        # Everyone ahead heard the flooded request once and answered once.
        assert [sync.served for sync in syncs] == [
            0 if sync is syncs[3] else 1 for sync in syncs]
        assert syncs[3].pending.tip_hash == sim.nodes[0].chain.tip_hash
        # Peers already at that height learned nothing and hold nothing.
        assert all(sync.pending is None for sync in syncs
                   if sync is not syncs[3])
        assert syncs[3].stats() == {"catchup_served": 0,
                                    "catchup_adopted": 0,
                                    "catchup_requests": 1}

    def test_cooldowns_throttle_requests_and_answers(self):
        from repro.node.catchup import ChainRequest

        sim = _run(seed=5, rounds=2, num_users=12)
        node = sim.nodes[0]
        sync = _sync(sim, node)
        plea = ChainRequest(height=0)

        def hear() -> bool:
            return node.receive(Envelope(
                origin=b"peer", kind="chainreq", payload=plea,
                size=plea.size), 1)

        sync.request()
        sync.request()
        assert hear() and hear()  # requests always relay
        assert (sync.requests_sent, sync.served) == (1, 1)
        sim.env.run(until=sim.env.now + sync.cooldown)
        sync.request()
        assert hear()
        assert (sync.requests_sent, sync.served) == (2, 2)
        # A requester at our height (or above) is not ours to answer.
        sim.env.run(until=sim.env.now + sync.cooldown)
        node.receive(Envelope(
            origin=b"peer", kind="chainreq",
            payload=ChainRequest(height=2), size=plea.size), 1)
        assert sync.served == 2

    def test_stall_detector_requests_without_vote_evidence(self):
        """Every peer has finished: no votes betray the lag, only the
        flat height of the one node still running does."""
        sim = _run(seed=5, rounds=2, num_users=12)
        laggard = sim.nodes[3]
        laggard.chain = _genesis_chain(sim, laggard)
        syncs = [_sync(sim, node) for node in sim.nodes]
        laggard.start(2)
        stall = syncs[3].stall_after
        started = sim.env.now
        sim.env.run(until=started + stall - syncs[3].poll_interval)
        assert all(sync.requests_sent == 0 for sync in syncs)
        sim.env.run(until=started + stall + syncs[3].poll_interval)
        # Only a run in progress can stall: the finished peers never
        # ask, and they answer the laggard.
        assert [sync.requests_sent for sync in syncs] \
            == [1 if sync is syncs[3] else 0 for sync in syncs]
        assert syncs[3].served == 0
        assert syncs[3].pending is not None
        assert syncs[3].pending.height == 2

    def test_buffered_future_votes_trigger_a_request(self):
        """Lag is a step two or more rounds ahead of a run in progress
        holding a quorum, ``T·τ`` committee votes: what only the honest
        majority sends. Signed votes with junk sortition (the spammer's
        undecidable far-future votes) never weigh in, whoever signs."""
        from repro.baplus.certificate import votes_needed

        sim = _run(seed=5, rounds=2, num_users=12)
        node = sim.nodes[0]
        sync = _sync(sim, node)
        probe = sync.poll_interval
        committee = _committee(sim, node, 2)
        needed = votes_needed("1", sim.config.params)
        assert sum(j for _, j in committee) >= needed
        # No run in progress: nothing can lag, whatever is buffered.
        _buffer(node, committee)
        sim.env.run(until=sim.env.now + 2 * probe)
        assert sync.requests_sent == 0
        node.buffer.clear()
        node.start(node.chain.height + 1)
        # One round ahead is pipelining, not lag; junk is no evidence.
        _buffer(node, _committee(sim, node, 1))
        for voter in range(12):
            node.buffer.add(signed_vote(
                sim, voter, node.chain.next_round + 2, "2"))
        # Nor is a committee short of its quorum.
        cut, count = 0, 0
        while count + committee[cut][1] < needed:
            count += committee[cut][1]
            cut += 1
        _buffer(node, committee[:cut])
        sim.env.run(until=sim.env.now + 2 * probe)
        assert sync.requests_sent == 0
        _buffer(node, committee[cut:])
        sim.env.run(until=sim.env.now + probe)
        assert sync.requests_sent == 1

    def test_a_quorum_ahead_is_lag_at_any_scale(self):
        """2,000 users, aggregated: one step's committee holds a few
        percent of the stake, and a node two rounds behind still asks
        within one probe of its votes."""
        sim = Simulation(SimulationConfig(
            num_users=2000, seed=3,
            population=PopulationConfig(mode="aggregated")))
        node = sim.nodes[0]
        sync = _sync(sim, node)
        node.start(1)
        committee = _committee(sim, node, 2)
        weights = node.chain.state.weights()
        stake = sum(weights.get(vote.voter) for vote, _ in committee)
        assert 10 * stake < weights.total
        _buffer(node, committee)
        sim.env.run(until=sim.env.now + sync.poll_interval)
        assert sync.requests_sent == 1

    def test_lag_probe_stops_while_disconnected(self):
        sim = _run(seed=5, rounds=2, num_users=12)
        node = sim.nodes[0]
        sync = _sync(sim, node)
        node.start(node.chain.height + 1)
        _buffer(node, _committee(sim, node, 2))
        node.interface.disconnected = True
        sim.env.run(until=sim.env.now + 5.0)
        assert sync.requests_sent == 0  # lagging, but nobody to ask
        sync.close()
        sim.env.run()  # returns: close() is what ends the probe

    def test_lag_probe_resumes_after_a_dos_window(self):
        """Disconnected is not dead: a ``dos`` window sets the same flag
        and the probe must still be ticking when it clears."""
        sim = _run(seed=5, rounds=2, num_users=12)
        laggard = sim.nodes[3]
        laggard.chain = _genesis_chain(sim, laggard)
        sync = _sync(sim, laggard)
        heard: list = []
        for peer in sim.nodes:
            if peer is not laggard:
                peer.router.register(
                    "chainreq", lambda request: heard.append(request) or True)
        laggard.start(2)
        _buffer(laggard, _committee(sim, laggard, 2))
        laggard.interface.disconnected = True
        sim.env.run(until=sim.env.now + 3 * sync.poll_interval)
        assert sync.requests_sent == 0
        laggard.interface.disconnected = False
        sim.env.run(until=sim.env.now + 2 * sync.poll_interval)
        assert sync.requests_sent >= 1
        assert heard and heard[0].height == 0
