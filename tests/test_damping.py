"""Unit tests for the quorum-trimmed relay (repro.runtime.damping).

Covers the pure :class:`DampingTally` semantics (count_votes mirroring,
threshold crossing, the Algorithm 9 coin exemption, round hygiene), the
:class:`RelayDamper` wiring inside a running simulation, and the peer
quarantine regression the damper work surfaced: severing a peer
mid-round must also purge traffic already queued for it, or the
quarantined node keeps receiving stale egress through a link that no
longer exists.
"""

from __future__ import annotations

import numpy as np

from repro.baplus.messages import COIN_HASH_CEILING, coin_min_hash
from repro.crypto.hashing import H
from repro.experiments.harness import NetworkConfig, RuntimeConfig
from repro.network.gossip import GossipNetwork
from repro.network.latency import UniformLatencyModel
from repro.network.message import Envelope
from repro.runtime.damping import RECOVERY_ROUND_BASE, DampingTally
from repro.sim.loop import Environment

from tests.fixtures import record_received, run_sim, run_traced

#: Constant latency, no bandwidth model: every arrival of a flood ties.
TIES = NetworkConfig(latency_model="uniform", bandwidth_bps=None)

V1 = H(b"value-one")
V2 = H(b"value-two")


def _tally(step_threshold=10.0, final_threshold=20.0) -> DampingTally:
    return DampingTally(step_threshold, final_threshold)


def _voter(i: int) -> bytes:
    return H(b"voter", bytes([i]))


class TestCoinMinHash:
    def test_weight_zero_contributes_ceiling(self):
        assert coin_min_hash(H(b"s"), 0) == COIN_HASH_CEILING

    def test_matches_manual_minimum(self):
        sorthash = H(b"sorthash")
        manual = min(int.from_bytes(H(sorthash, j.to_bytes(8, "big")),
                                    "big")
                     for j in range(1, 5))
        assert coin_min_hash(sorthash, 4) == manual

    def test_monotone_in_weight(self):
        sorthash = H(b"mono")
        previous = COIN_HASH_CEILING
        for weight in range(1, 8):
            current = coin_min_hash(sorthash, weight)
            assert current <= previous
            previous = current


class TestDampingTally:
    def test_crossing_vote_itself_relays(self):
        tally = _tally()
        # 6 + 5 = 11 > 10: the second vote crosses and still relays.
        assert not tally.observe(1, "1", V1, _voter(0), 6)
        assert not tally.observe(1, "1", V1, _voter(1), 5)
        assert tally.crossed(1, "1", V1)
        # The first vote *after* the crossing is suppressed.
        assert tally.observe(1, "1", V1, _voter(2), 3)

    def test_exact_threshold_does_not_cross(self):
        tally = _tally()
        assert not tally.observe(1, "1", V1, _voter(0), 10)
        assert not tally.crossed(1, "1", V1)
        assert not tally.observe(1, "1", V1, _voter(1), 1)
        assert tally.crossed(1, "1", V1)

    def test_voter_counted_once_per_step(self):
        tally = _tally()
        assert not tally.observe(1, "1", V1, _voter(0), 8)
        # The same voter again adds nothing — count_votes semantics.
        assert not tally.observe(1, "1", V1, _voter(0), 8)
        assert not tally.crossed(1, "1", V1)
        # Not even under a different value in the same (round, step).
        assert not tally.observe(1, "1", V2, _voter(0), 8)
        assert not tally.observe(1, "1", V2, _voter(1), 11)
        assert tally.crossed(1, "1", V2)

    def test_values_accumulate_independently(self):
        tally = _tally()
        tally.observe(1, "1", V1, _voter(0), 6)
        tally.observe(1, "1", V2, _voter(1), 6)
        assert not tally.crossed(1, "1", V1)
        assert not tally.crossed(1, "1", V2)
        tally.observe(1, "1", V1, _voter(2), 6)
        assert tally.crossed(1, "1", V1)
        assert not tally.crossed(1, "1", V2)

    def test_final_step_uses_final_threshold(self):
        from repro.sortition.roles import FINAL_STEP
        tally = _tally(step_threshold=10.0, final_threshold=20.0)
        tally.observe(1, FINAL_STEP, V1, _voter(0), 15)
        assert not tally.crossed(1, FINAL_STEP, V1)
        tally.observe(1, FINAL_STEP, V1, _voter(1), 6)
        assert tally.crossed(1, FINAL_STEP, V1)

    def test_steps_and_rounds_are_independent_keys(self):
        tally = _tally()
        tally.observe(1, "1", V1, _voter(0), 11)
        assert tally.crossed(1, "1", V1)
        assert not tally.crossed(1, "2", V1)
        assert not tally.crossed(2, "1", V1)
        # A crossed key in round 1 does not suppress round 2 votes.
        assert not tally.observe(2, "1", V1, _voter(1), 1)

    def test_weight_zero_never_counted_never_suppressed(self):
        tally = _tally()
        assert not tally.observe(1, "1", V1, _voter(0), 0)
        assert not tally.crossed(1, "1", V1)
        tally.observe(1, "1", V1, _voter(1), 11)
        assert tally.crossed(1, "1", V1)
        # Undecidable votes relay even for a crossed key: at another
        # node they may carry weight this node cannot see.
        assert not tally.observe(1, "1", V1, _voter(2), 0)
        # A weight-0 voter is not marked as counted either: the same
        # voter later weighed properly still contributes.
        tally2 = _tally()
        tally2.observe(1, "1", V1, _voter(0), 0)
        tally2.observe(1, "1", V1, _voter(0), 11)
        assert tally2.crossed(1, "1", V1)

    def test_coin_minimum_exemption(self):
        tally = _tally()
        tally.observe(1, "1", V1, _voter(0), 11, coin_hash=500)
        assert tally.crossed(1, "1", V1)
        # Higher coin hash after crossing: redundant, suppressed.
        assert tally.observe(1, "1", V1, _voter(1), 1, coin_hash=900)
        # A fresh minimum must keep propagating (Algorithm 9).
        assert not tally.observe(1, "1", V1, _voter(2), 1, coin_hash=100)
        # ... and only a *strictly* lower hash is exempt.
        assert tally.observe(1, "1", V1, _voter(3), 1, coin_hash=100)
        assert not tally.observe(1, "1", V1, _voter(4), 1, coin_hash=99)

    def test_coin_minimum_is_per_step(self):
        tally = _tally()
        tally.observe(1, "1", V1, _voter(0), 11, coin_hash=10)
        tally.observe(1, "2", V1, _voter(1), 11, coin_hash=500)
        # 400 is above step "1"'s minimum but below step "2"'s: only
        # step "2" treats it as coin-relevant.
        assert tally.observe(1, "1", V1, _voter(2), 1, coin_hash=400)
        assert not tally.observe(1, "2", V1, _voter(3), 1, coin_hash=400)

    def test_prune_drops_old_rounds_and_recovery_keys(self):
        tally = _tally()
        tally.observe(1, "1", V1, _voter(0), 11)
        tally.observe(3, "1", V1, _voter(1), 11)
        tally.observe(RECOVERY_ROUND_BASE + 1, "1", V1, _voter(2), 11)
        tally.prune_before(3)
        assert not tally.crossed(1, "1", V1)
        assert tally.crossed(3, "1", V1)
        assert not tally.crossed(RECOVERY_ROUND_BASE + 1, "1", V1)
        assert all(k[0] == 3 for k in tally._counts)
        assert all(k[0] == 3 for k in tally._voters)
        assert all(k[0] == 3 for k in tally._coin_min)

    def test_clear_resets_everything(self):
        tally = _tally()
        tally.observe(1, "1", V1, _voter(0), 11, coin_hash=5)
        tally.clear()
        assert not tally.crossed(1, "1", V1)
        assert not tally._counts and not tally._voters
        assert not tally._coin_min
        # After clear the same coin hash is "fresh" again.
        tally.observe(1, "1", V1, _voter(1), 11, coin_hash=5)
        assert tally.crossed(1, "1", V1)


class TestRelayDamperWiring:
    def test_damper_attached_and_active_by_default(self):
        sim, bus = run_traced(2, num_users=14, seed=5, network=TIES)
        assert all(node.damper is not None for node in sim.nodes)
        suppressed = sum(node.damper.suppressed for node in sim.nodes)
        observed = sum(node.damper.observed for node in sim.nodes)
        assert suppressed > 0
        assert observed > 0
        # The census counter matches the per-node receipts exactly.
        assert bus.metrics.counter("gossip.damped.vote") == suppressed

    def test_damping_off_leaves_nodes_bare(self):
        sim = run_sim(1, num_users=8, seed=3,
                      runtime=RuntimeConfig(relay_damping=False))
        assert all(getattr(node, "damper", None) is None
                   for node in sim.nodes)

    def test_crash_resets_tally_but_keeps_receipts(self):
        sim = run_sim(1, num_users=10, seed=5, network=TIES)
        node = sim.nodes[0]
        before = node.damper.suppressed
        node.damper.tally.observe(99, "1", V1, _voter(0), 10**9)
        node.crash()
        assert node.damper.suppressed == before
        assert not node.damper.tally._crossed
        assert not node.damper._ctx_cache

    def test_summary_reports_damping(self):
        sim = run_sim(1, num_users=10, seed=5, network=TIES)
        summary = sim.summary()
        assert summary["damping.suppressed"] == sum(
            node.damper.suppressed for node in sim.nodes)
        assert summary["damping.observed"] > 0


def _network(num_nodes=20, seed=0, bandwidth=None, latency=0.01, peers=4):
    env = Environment()
    rng = np.random.default_rng(seed)
    net = GossipNetwork(env, num_nodes, rng, UniformLatencyModel(latency),
                        peers_per_node=peers, bandwidth_bps=bandwidth)
    return env, net


class TestQuarantineEgressPurge:
    """Severing a peer must purge traffic already queued for it."""

    def test_discard_egress_filters_both_lanes_preserving_order(self):
        _, net = _network(10)
        iface = net.interfaces[0]
        small = [Envelope(origin=b"o", kind="vote", payload=None, size=100)
                 for _ in range(3)]
        big = Envelope(origin=b"o", kind="block", payload=None,
                       size=100_000)
        iface._egress_urgent.extend([(small[0], 7), (small[1], 8),
                                     (small[2], 7)])
        iface._egress_bulk.append((big, 7))
        dropped = iface.discard_egress_to(7)
        assert dropped == 3
        assert list(iface._egress_urgent) == [(small[1], 8)]
        assert not iface._egress_bulk
        # No items for an absent target: a no-op that reports zero.
        assert iface.discard_egress_to(5) == 0

    def test_quarantined_mid_round_peer_receives_no_stale_egress(self):
        # The regression: broadcast queues items onto neighbors' egress
        # lanes; quarantining the victim *before* the loop drains them
        # must drop those queued items, not deliver them over a link
        # that no longer exists (`_deliver` only checks the receiver's
        # own state, and quarantined != disconnected).
        env, net = _network(12, bandwidth=1e6)
        received = record_received(net)
        victim = net.interfaces[0].neighbors[0]
        envelope = Envelope(origin=b"o", kind="vote", payload=None,
                            size=100)
        net.interfaces[0].broadcast(envelope)
        assert any(target == victim
                   for _, target in net.interfaces[0]._egress_urgent)
        net.set_quarantined({victim})
        env.run()
        assert not received[victim]
        assert envelope.msg_id not in net.interfaces[victim]._seen
        # Everyone still connected got it exactly once.
        for iface in net.interfaces[1:]:
            if iface.index != victim:
                assert received[iface.index] == [envelope]

    def test_release_after_purge_rejoins_cleanly(self):
        env, net = _network(12, bandwidth=1e6)
        victim = net.interfaces[0].neighbors[0]
        net.interfaces[0].broadcast(
            Envelope(origin=b"o", kind="vote", payload=None, size=100))
        net.set_quarantined({victim})
        env.run()
        net.set_quarantined(frozenset())
        assert net.interfaces[victim].neighbors
        fresh = Envelope(origin=b"o", kind="vote", payload=None, size=100)
        net.interfaces[0].broadcast(fresh)
        env.run()
        assert fresh.msg_id in net.interfaces[victim]._seen
