"""Tests for double-spend analysis and the related-systems comparison."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.baselines.doublespend import (
    catch_up_probability,
    confirmations_needed,
    double_spend_probability,
    speedup_table,
)
from repro.baselines.related import (
    BITCOIN,
    BYZCOIN,
    HONEY_BADGER,
    algorand_profile,
    comparison_rows,
)


class TestCatchUp:
    def test_gamblers_ruin_known_values(self):
        assert catch_up_probability(1, 0.25) == pytest.approx(1 / 3)
        assert catch_up_probability(2, 0.25) == pytest.approx(1 / 9)

    def test_majority_attacker_always_wins(self):
        assert catch_up_probability(10, 0.5) == 1.0
        assert catch_up_probability(10, 0.6) == 1.0

    def test_no_deficit_trivial(self):
        assert catch_up_probability(0, 0.1) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            catch_up_probability(1, 1.0)


class TestDoubleSpend:
    def test_rosenfeld_exact_values(self):
        """Published exact values (Rosenfeld 2014, Table 1)."""
        assert double_spend_probability(6, 0.10) == pytest.approx(
            5.914e-4, rel=1e-2)
        assert double_spend_probability(6, 0.30) == pytest.approx(
            0.1564, rel=1e-2)
        # (z=1, q=0.1) is exactly 0.2 in the negative-binomial model;
        # Nakamoto's Poisson approximation gives the oft-quoted 0.2045.
        assert double_spend_probability(1, 0.10) == pytest.approx(0.2)

    def test_zero_confirmations_always_lose(self):
        assert double_spend_probability(0, 0.1) == 1.0

    def test_powerless_attacker(self):
        assert double_spend_probability(6, 0.0) == 0.0

    def test_monotone_decreasing_in_z(self):
        values = [double_spend_probability(z, 0.2) for z in range(0, 8)]
        assert values == sorted(values, reverse=True)

    def test_monotone_increasing_in_q(self):
        values = [double_spend_probability(6, q)
                  for q in (0.05, 0.1, 0.2, 0.3, 0.4)]
        assert values == sorted(values)

    def test_majority_attacker_always_succeeds(self):
        assert double_spend_probability(50, 0.51) == pytest.approx(1.0)


class TestConfirmationsNeeded:
    def test_bitcoin_folklore_six_blocks(self):
        """The '6 confirmations' rule the paper's hour-long wait rests
        on: q = 10%, ~0.1% risk."""
        assert confirmations_needed(0.10, 1e-3) == 6

    def test_stronger_attacker_needs_deeper(self):
        assert confirmations_needed(0.25, 1e-3) > confirmations_needed(
            0.10, 1e-3)

    def test_latency_seconds(self):
        """The table's Bitcoin wait is z blocks of 10 minutes."""
        [row] = speedup_table(qs=(0.25,))
        assert row["bitcoin_wait_s"] == confirmations_needed(0.25) * 600.0

    def test_unreachable_risk(self):
        with pytest.raises(ValueError):
            confirmations_needed(0.45, 1e-12, z_max=5)

    def test_risk_validation(self):
        with pytest.raises(ValueError):
            confirmations_needed(0.1, 0.0)


class TestSpeedupTable:
    def test_paper_order_of_magnitude(self):
        """Bitcoin needs ~an hour; Algorand ~22 s: >100x faster
        confirmation at comparable assurance."""
        rows = speedup_table()
        by_q = {row["q"]: row for row in rows}
        assert by_q[0.10]["bitcoin_wait_s"] == 3600.0
        assert by_q[0.10]["speedup"] > 100

    def test_risk_curve_shape(self):
        assert double_spend_probability(0, 0.2) == 1.0
        assert double_spend_probability(10, 0.2) < 0.01


class TestRelatedSystems:
    def test_rows_sorted_by_latency(self):
        rows = comparison_rows()
        latencies = [row.latency_seconds for row in rows]
        assert latencies == sorted(latencies)

    def test_paper_reported_numbers(self):
        assert HONEY_BADGER.latency_seconds == 300.0
        assert BYZCOIN.latency_seconds == 35.0
        assert BITCOIN.latency_seconds == 3600.0
        assert HONEY_BADGER.participants == 104

    def test_algorand_unique_combination(self):
        """The paper's positioning: only Algorand is simultaneously
        decentralized, fork-free, and robust to adaptive adversaries."""
        algorand = algorand_profile()
        others = [BITCOIN, HONEY_BADGER, BYZCOIN]
        assert algorand.decentralized
        assert not algorand.forks_possible
        assert algorand.adaptive_adversary
        for other in others:
            assert not (other.decentralized
                        and not other.forks_possible
                        and other.adaptive_adversary)

    def test_algorand_dominates_bitcoin(self):
        algorand = algorand_profile()
        assert algorand.latency_seconds < BITCOIN.latency_seconds
        assert (algorand.throughput_bytes_per_sec
                > BITCOIN.throughput_bytes_per_sec)

    def test_no_one_dominates_algorand(self):
        """Each cited system is slower than Algorand's reported row."""
        algorand = algorand_profile()
        for other in (BITCOIN, HONEY_BADGER, BYZCOIN):
            assert other.latency_seconds > algorand.latency_seconds


@given(z=st.integers(min_value=0, max_value=12),
       q=st.floats(min_value=0.0, max_value=0.45))
def test_double_spend_is_probability(z, q):
    value = double_spend_probability(z, q)
    assert 0.0 <= value <= 1.0
