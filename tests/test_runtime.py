"""Tests for the message-path runtime: router, verification cache, wiring.

Covers the refactor's safety claims:

* routed dispatch preserves the validate-before-relay contract and
  rejects wiring bugs (double registration, unknown kinds);
* the shared :class:`VerificationCache` memoizes only context-independent
  checks, keyed by full verification inputs, so adversarial reuse of a
  signature (or msg_id) on different contents can never launder a
  verdict;
* cache on vs off produces bit-identical simulated results.
"""

from __future__ import annotations

import pytest

from repro.chaos import FaultAction
from repro.common.errors import NetworkError, SignatureError, VRFError
from repro.crypto.backend import CachedBackend, FastBackend
from repro.crypto.counting import CountingBackend, CryptoOpCounts
from repro.experiments.harness import (
    RuntimeConfig,
    Simulation,
    SimulationConfig,
)
from repro.network.message import Envelope
from repro.runtime import MessageRouter, VerificationCache

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
# VerificationCache
# ---------------------------------------------------------------------------


@pytest.fixture
def counting():
    return CountingBackend(FastBackend())


@pytest.fixture
def keypair(counting):
    return counting.keypair(b"k" * 32)


class TestVerificationCache:
    def test_signature_hit_miss_accounting(self, counting, keypair):
        cache = VerificationCache(counts=counting.counts)
        signature = counting.sign(keypair.secret, b"msg")
        for _ in range(3):
            cache.verify(counting, keypair.public, b"msg", signature)
        assert cache.misses == 1
        assert cache.hits == 2
        assert counting.counts.verifies == 1  # inner reached once
        assert counting.counts.cache_hits == 2
        assert counting.counts.cache_misses == 1
        assert counting.counts.verifications_avoided == 2
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_vrf_hit_returns_cached_beta(self, counting, keypair):
        cache = VerificationCache()
        beta, proof = counting.vrf_prove(keypair.secret, b"alpha")
        first = cache.vrf_verify(counting, keypair.public, proof, b"alpha")
        second = cache.vrf_verify(counting, keypair.public, proof, b"alpha")
        assert first == second == beta
        assert counting.counts.vrf_verifies == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_negative_results_cached_and_reraised(self, counting, keypair):
        cache = VerificationCache()
        with pytest.raises(SignatureError):
            cache.verify(counting, keypair.public, b"msg", b"forged")
        with pytest.raises(SignatureError):
            cache.verify(counting, keypair.public, b"msg", b"forged")
        assert counting.counts.verifies == 1  # failure memoized too
        with pytest.raises(VRFError):
            cache.vrf_verify(counting, keypair.public, b"bogus", b"alpha")
        with pytest.raises(VRFError):
            cache.vrf_verify(counting, keypair.public, b"bogus", b"alpha")
        assert counting.counts.vrf_verifies == 1

    def test_key_includes_message_bytes(self, counting, keypair):
        """A valid signature for message A must not validate message B."""
        cache = VerificationCache()
        signature = counting.sign(keypair.secret, b"message-a")
        cache.verify(counting, keypair.public, b"message-a", signature)
        with pytest.raises(SignatureError):
            cache.verify(counting, keypair.public, b"message-b", signature)
        assert cache.hits == 0  # different inputs, different key

    def test_eviction_bounds_entries(self, counting, keypair):
        cache = VerificationCache(max_entries=8)
        for i in range(40):
            message = b"m%d" % i
            signature = counting.sign(keypair.secret, message)
            cache.verify(counting, keypair.public, message, signature)
        assert len(cache) <= 8

    def test_stats_shape(self):
        cache = VerificationCache()
        assert cache.stats() == {"hits": 0, "misses": 0, "negative_hits": 0,
                                 "sort_hits": 0, "sort_misses": 0,
                                 "hit_rate": 0.0, "entries": 0}

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            VerificationCache(max_entries=0)


class TestCachedBackend:
    def test_wraps_and_delegates(self, counting, keypair):
        cache = VerificationCache(counts=counting.counts)
        backend = CachedBackend(counting, cache)
        assert backend.name == f"cached({counting.name})"
        signature = backend.sign(keypair.secret, b"msg")
        backend.verify(keypair.public, b"msg", signature)
        backend.verify(keypair.public, b"msg", signature)
        assert counting.counts.verifies == 1
        assert cache.hits == 1
        beta, proof = backend.vrf_prove(keypair.secret, b"alpha")
        assert backend.vrf_verify(keypair.public, proof, b"alpha") == beta
        assert backend.vrf_verify(keypair.public, proof, b"alpha") == beta
        assert counting.counts.vrf_verifies == 1


# ---------------------------------------------------------------------------
# Simulation wiring + determinism
# ---------------------------------------------------------------------------


def _run(cache_on: bool, *, seed: int = 7, rounds: int = 2,
         num_users: int = 10, backend=None, faults=()) -> Simulation:
    sim = Simulation(
        SimulationConfig(num_users=num_users, seed=seed,
                         runtime=RuntimeConfig(
                             use_verification_cache=cache_on)),
        backend=backend, faults=faults,
    )
    sim.submit_payments(10)
    sim.run_rounds(rounds)
    return sim


class TestSimulationWiring:
    def test_cache_enabled_by_default_and_hit(self):
        sim = _run(cache_on=True)
        assert sim.verification_cache is not None
        # Gossip fan-out means most verifications repeat across nodes.
        assert sim.verification_cache.hits > sim.verification_cache.misses

    def test_cache_disabled_leaves_backend_bare(self):
        sim = _run(cache_on=False)
        assert sim.verification_cache is None
        assert not isinstance(sim.backend, CachedBackend)

    def test_counting_backend_sees_only_misses(self):
        counting = CountingBackend(FastBackend())
        sim = _run(cache_on=True, backend=counting)
        counts: CryptoOpCounts = counting.counts
        cache = sim.verification_cache
        assert counts.cache_hits == cache.hits
        assert counts.cache_misses == cache.misses
        # Every cached check either hit or reached the inner backend.
        assert counts.total_verifications == cache.misses

    def test_identical_results_cache_on_vs_off(self):
        """The acceptance criterion: the cache is pure memoization —
        same seed must produce the same blocks and the same timings."""
        on = _run(cache_on=True, seed=11, rounds=2)
        off = _run(cache_on=False, seed=11, rounds=2)
        for round_number in (1, 2):
            hashes_on = {node.chain.block_at(round_number).block_hash
                         for node in on.nodes}
            hashes_off = {node.chain.block_at(round_number).block_hash
                          for node in off.nodes}
            assert hashes_on == hashes_off
            assert len(hashes_on) == 1
            assert (on.round_latencies(round_number)
                    == off.round_latencies(round_number))
        assert on.env.now == off.env.now

    def test_single_user_payments_no_crash(self):
        """num_users == 1 used to crash rng.integers(0); now a no-op."""
        sim = Simulation(SimulationConfig(num_users=1, num_observers=1,
                                          seed=3))
        sim.submit_payments(5)
        assert all(len(node.mempool) == 0 for node in sim.nodes)


class TestEquivocationNotLaundered:
    def test_shared_signature_never_validates_other_contents(self):
        """Unit-level laundering proof: an adversary re-attaching a
        cached-valid signature to different bytes gets a rejection, even
        though the (public, signature) pair is already in the cache."""
        backend = FastBackend()
        cache = VerificationCache()
        cached = CachedBackend(backend, cache)
        kp = backend.keypair(b"e" * 32)
        signature = backend.sign(kp.secret, b"block-A")
        cached.verify(kp.public, b"block-A", signature)  # now cached valid
        with pytest.raises(SignatureError):
            cached.verify(kp.public, b"block-B", signature)

    def test_forged_vote_never_inherits_an_instance_verdict(self):
        """The same proof one level up: verdicts memoized on a vote
        *instance* (its receipts) stay with that instance. ``signature``
        is excluded from ``VoteMessage`` equality, so a forgery sharing
        ``(voter, round, step)`` can even compare equal to the honest
        vote — and still gets its own, failing, verification."""
        import dataclasses

        from repro.baplus.messages import make_vote

        backend = CachedBackend(FastBackend(), VerificationCache())
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

    def test_equivocating_proposer_with_cache(self):
        """End-to-end: with the shared cache on, equivocators still never
        win and safety holds — cached *crypto* verdicts do not bypass the
        per-node equivocation tracking (context-dependent, uncached)."""
        sim = _run(cache_on=True, seed=13, rounds=2, num_users=16,
                   faults=[FaultAction(kind="equivocate", start=0.0,
                                       nodes=(13, 14, 15))])
        malicious_keys = {node.keypair.public for node in sim.nodes[13:16]}
        for round_number in (1, 2):
            assert len(sim.agreed_hashes(round_number)) == 1
        honest = sim.nodes[:13]
        for node in honest:
            for block in node.chain.blocks[1:]:
                assert block.proposer not in malicious_keys
        # The cache did real work during the adversarial run.
        assert sim.verification_cache.hits > 0


def _genesis_chain(sim: Simulation, node):
    from repro.ledger.blockchain import Blockchain
    return Blockchain(node.chain.initial_balances, node.chain.genesis_seed,
                      sim.config.params.seed_refresh_interval)


def _sync(sim: Simulation, node, **timing):
    """A :class:`ChainSync` on the sim substrate: virtual clock, gossip
    interface — the object a live process runs, made deterministic."""
    from repro.node import ChainSync
    return ChainSync(node, sim.env, node.interface, **timing)


class TestChainSync:
    def test_laggard_bootstraps_beyond_announcer_neighborhood(self):
        """Up-to-date nodes relay a matching announcement, so the flood
        reaches laggards that are not direct neighbors of the announcer."""
        sim = _run(cache_on=True, seed=5, rounds=2, num_users=12)
        laggard = sim.nodes[3]
        laggard.chain = _genesis_chain(sim, laggard)
        syncs = [_sync(sim, node) for node in sim.nodes]
        syncs[0].announce()
        sim.env.run(until=sim.env.now + 5.0)
        # Validated and stashed; the round loop adopts it through the
        # node's resync hook at its next boundary.
        assert laggard.chain.height == 0
        replica = laggard.resync()
        assert replica.height == 2
        assert replica.tip_hash == sim.nodes[0].chain.tip_hash
        assert syncs[3].adopted == 1
        assert laggard.resync() is None  # handed over exactly once

    def test_invalid_announcement_rejected_not_relayed(self):
        from repro.node.catchup import ChainAnnouncement

        sim = _run(cache_on=True, seed=5, rounds=2, num_users=12)
        victim = sim.nodes[5]
        victim.chain = _genesis_chain(sim, victim)
        sync = _sync(sim, victim)
        source = sim.nodes[0].chain
        forged = ChainAnnouncement(
            blocks=source.blocks[1:],
            certificates={},  # stripped certificates must fail replay
        )
        relay = victim.handle_envelope(Envelope(
            origin=b"adv", kind="chain", payload=forged, size=forged.size))
        assert relay is False
        assert victim.chain.height == 0
        assert sync.pending is None
        assert sync.rejected == 1

    def test_close_unregisters(self):
        sim = _run(cache_on=True, seed=5, rounds=1, num_users=10)
        node = sim.nodes[0]
        sync = _sync(sim, node)
        assert node.router.is_registered("chain")
        assert node.router.is_registered("chainreq")
        sync.close()
        assert not node.router.is_registered("chain")
        assert not node.router.is_registered("chainreq")
        assert node.resync is None
        sim.env.run()  # returns: the lag probe no longer re-arms

    def test_request_is_answered_by_peers_ahead(self):
        sim = _run(cache_on=True, seed=5, rounds=2, num_users=12)
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

        sim = _run(cache_on=True, seed=5, rounds=2, num_users=12)
        node = sim.nodes[0]
        sync = _sync(sim, node, request_cooldown=2.0, serve_cooldown=2.0)
        plea = ChainRequest(height=0)

        def hear() -> bool:
            return node.handle_envelope(Envelope(
                origin=b"peer", kind="chainreq", payload=plea,
                size=plea.size))

        sync.request()
        sync.request()
        assert hear() and hear()  # requests always relay
        assert (sync.requests_sent, sync.served) == (1, 1)
        sim.env.run(until=sim.env.now + 2.0)
        sync.request()
        assert hear()
        assert (sync.requests_sent, sync.served) == (2, 2)
        # A requester at our height (or above) is not ours to answer.
        sim.env.run(until=sim.env.now + 2.0)
        node.handle_envelope(Envelope(
            origin=b"peer", kind="chainreq",
            payload=ChainRequest(height=2), size=plea.size))
        assert sync.served == 2

    def test_stall_detector_requests_without_vote_evidence(self):
        """Every peer has finished: no votes betray the lag, only the
        flat height does."""
        sim = _run(cache_on=True, seed=5, rounds=2, num_users=12)
        laggard = sim.nodes[3]
        laggard.chain = _genesis_chain(sim, laggard)
        syncs = [_sync(sim, node, check_interval=0.5, stall_after=3.0,
                       request_cooldown=10.0)
                 for node in sim.nodes]
        started = sim.env.now
        sim.env.run(until=started + 2.9)
        assert all(sync.requests_sent == 0 for sync in syncs)
        sim.env.run(until=started + 8.0)
        # Flat height is all a finished cluster shows: everyone asks,
        # but only the laggard has anyone ahead of it to answer.
        assert syncs[3].requests_sent == 1
        assert syncs[3].served == 0
        assert syncs[3].pending is not None
        assert syncs[3].pending.height == 2

    def test_buffered_future_votes_trigger_a_request(self):
        sim = _run(cache_on=True, seed=5, rounds=2, num_users=12)
        node = sim.nodes[0]
        sync = _sync(sim, node, check_interval=0.5)
        ahead = node.chain.next_round + 2
        # One round ahead is pipelining, not lag.
        node.buffer.add(signed_vote(sim, 1, ahead - 1, "1"))
        sim.env.run(until=sim.env.now + 0.6)
        assert sync.requests_sent == 0
        node.buffer.add(signed_vote(sim, 1, ahead, "1"))
        sim.env.run(until=sim.env.now + 0.5)
        assert sync.requests_sent == 1

    def test_lag_probe_stops_while_disconnected(self):
        sim = _run(cache_on=True, seed=5, rounds=2, num_users=12)
        node = sim.nodes[0]
        sync = _sync(sim, node, check_interval=0.5, stall_after=1.0)
        node.interface.disconnected = True
        sim.env.run(until=sim.env.now + 5.0)
        assert sync.requests_sent == 0  # stalled, but nobody to ask
        sync.close()
        sim.env.run()  # returns: close() is what ends the probe

    def test_lag_probe_resumes_after_a_dos_window(self):
        """Disconnected is not dead: a ``dos`` window sets the same flag
        and the probe must still be ticking when it clears."""
        sim = _run(cache_on=True, seed=5, rounds=2, num_users=12)
        laggard = sim.nodes[3]
        laggard.chain = _genesis_chain(sim, laggard)
        sync = _sync(sim, laggard, check_interval=0.5, stall_after=1.0)
        heard: list = []
        for peer in sim.nodes:
            if peer is not laggard:
                peer.router.register(
                    "chainreq", lambda request: heard.append(request) or True)
        laggard.interface.disconnected = True
        sim.env.run(until=sim.env.now + 1.5)  # three probe intervals
        assert sync.requests_sent == 0
        laggard.interface.disconnected = False
        sim.env.run(until=sim.env.now + 2.0)
        assert sync.requests_sent >= 1
        assert heard and heard[0].height == 0
