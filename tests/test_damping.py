"""Unit tests for the quorum-trimmed relay (repro.runtime.damping).

Covers the pure :class:`DampingTally` semantics (count_votes mirroring,
threshold crossing, the Algorithm 9 coin exemption, round hygiene) and
the :class:`RelayDamper` wiring inside a running simulation.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baplus.messages import COIN_HASH_CEILING, coin_min_hash
from repro.crypto.hashing import H
from repro.node.config import NetworkConfig, RuntimeConfig
from repro.runtime.damping import RECOVERY_ROUND_BASE, DampingTally

from tests.fixtures import run_sim, run_traced

#: Constant latency, no bandwidth model: every arrival of a flood ties.
TIES = NetworkConfig(latency_model="uniform", bandwidth_bps=None)

V1 = H(b"value-one")
V2 = H(b"value-two")


def _tally(step_threshold=10.0, final_threshold=20.0) -> DampingTally:
    return DampingTally(step_threshold, final_threshold)


def _crossed(tally: DampingTally, round_number: int, step: str,
             value: bytes) -> bool:
    """Whether the tally holds ``value`` past its step's threshold."""
    return (round_number, step, value) in tally._crossed


def _voter(i: int) -> bytes:
    return H(b"voter", bytes([i]))


def reference_coin_min_hash(sorthash: bytes, weight: int) -> int:
    """Algorithm 9 as written: one ``H(sorthash, j)`` and one integer
    per sub-user, the minimum kept as an integer."""
    best = COIN_HASH_CEILING
    for j in range(1, weight + 1):
        h = int.from_bytes(H(sorthash, j.to_bytes(8, "big")), "big")
        if h < best:
            best = h
    return best


class TestCoinMinHash:
    @settings(max_examples=200, deadline=None)
    @given(sorthash=st.binary(max_size=64), weight=st.integers(0, 64))
    def test_matches_the_reference_loop(self, sorthash, weight):
        assert (coin_min_hash(sorthash, weight)
                == reference_coin_min_hash(sorthash, weight))

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
        assert _crossed(tally, 1, "1", V1)
        # The first vote *after* the crossing is suppressed.
        assert tally.observe(1, "1", V1, _voter(2), 3)

    def test_exact_threshold_does_not_cross(self):
        tally = _tally()
        assert not tally.observe(1, "1", V1, _voter(0), 10)
        assert not _crossed(tally, 1, "1", V1)
        assert not tally.observe(1, "1", V1, _voter(1), 1)
        assert _crossed(tally, 1, "1", V1)

    def test_voter_counted_once_per_step(self):
        tally = _tally()
        assert not tally.observe(1, "1", V1, _voter(0), 8)
        # The same voter again adds nothing — count_votes semantics.
        assert not tally.observe(1, "1", V1, _voter(0), 8)
        assert not _crossed(tally, 1, "1", V1)
        # Not even under a different value in the same (round, step).
        assert not tally.observe(1, "1", V2, _voter(0), 8)
        assert not tally.observe(1, "1", V2, _voter(1), 11)
        assert _crossed(tally, 1, "1", V2)

    def test_values_accumulate_independently(self):
        tally = _tally()
        tally.observe(1, "1", V1, _voter(0), 6)
        tally.observe(1, "1", V2, _voter(1), 6)
        assert not _crossed(tally, 1, "1", V1)
        assert not _crossed(tally, 1, "1", V2)
        tally.observe(1, "1", V1, _voter(2), 6)
        assert _crossed(tally, 1, "1", V1)
        assert not _crossed(tally, 1, "1", V2)

    def test_final_step_uses_final_threshold(self):
        from repro.sortition.roles import FINAL_STEP
        tally = _tally(step_threshold=10.0, final_threshold=20.0)
        tally.observe(1, FINAL_STEP, V1, _voter(0), 15)
        assert not _crossed(tally, 1, FINAL_STEP, V1)
        tally.observe(1, FINAL_STEP, V1, _voter(1), 6)
        assert _crossed(tally, 1, FINAL_STEP, V1)

    def test_steps_and_rounds_are_independent_keys(self):
        tally = _tally()
        tally.observe(1, "1", V1, _voter(0), 11)
        assert _crossed(tally, 1, "1", V1)
        assert not _crossed(tally, 1, "2", V1)
        assert not _crossed(tally, 2, "1", V1)
        # A crossed key in round 1 does not suppress round 2 votes.
        assert not tally.observe(2, "1", V1, _voter(1), 1)

    def test_weight_zero_never_counted_never_suppressed(self):
        tally = _tally()
        assert not tally.observe(1, "1", V1, _voter(0), 0)
        assert not _crossed(tally, 1, "1", V1)
        tally.observe(1, "1", V1, _voter(1), 11)
        assert _crossed(tally, 1, "1", V1)
        # Undecidable votes relay even for a crossed key: at another
        # node they may carry weight this node cannot see.
        assert not tally.observe(1, "1", V1, _voter(2), 0)
        # A weight-0 voter is not marked as counted either: the same
        # voter later weighed properly still contributes.
        tally2 = _tally()
        tally2.observe(1, "1", V1, _voter(0), 0)
        tally2.observe(1, "1", V1, _voter(0), 11)
        assert _crossed(tally2, 1, "1", V1)

    def test_coin_minimum_exemption(self):
        tally = _tally()
        tally.observe(1, "1", V1, _voter(0), 11, coin_hash=500)
        assert _crossed(tally, 1, "1", V1)
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
        assert not _crossed(tally, 1, "1", V1)
        assert _crossed(tally, 3, "1", V1)
        assert not _crossed(tally, RECOVERY_ROUND_BASE + 1, "1", V1)
        assert all(k[0] == 3 for k in tally._counts)
        assert all(k[0] == 3 for k in tally._voters)
        assert all(k[0] == 3 for k in tally._coin_min)

    def test_clear_resets_everything(self):
        tally = _tally()
        tally.observe(1, "1", V1, _voter(0), 11, coin_hash=5)
        tally.clear()
        assert not _crossed(tally, 1, "1", V1)
        assert not tally._counts and not tally._voters
        assert not tally._coin_min
        # After clear the same coin hash is "fresh" again.
        tally.observe(1, "1", V1, _voter(1), 11, coin_hash=5)
        assert _crossed(tally, 1, "1", V1)


class TestRelayDamperWiring:
    def test_damper_attached_and_active_by_default(self):
        sim, bus = run_traced(2, num_users=14, seed=5, network=TIES)
        assert all(node.damper is not None for node in sim.nodes)
        suppressed = sum(node.damper.suppressed for node in sim.nodes)
        observed = sum(node.damper.observed for node in sim.nodes)
        assert suppressed > 0
        assert observed > 0
        # The census counter matches the per-node receipts exactly.
        assert bus.metrics.snapshot()["counters"]["gossip.damped.vote"] == suppressed

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

