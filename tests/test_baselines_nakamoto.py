"""Tests for the Nakamoto (Bitcoin) baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.nakamoto import (
    NakamotoConfig,
    fork_probability,
    throughput_bytes_per_hour,
)


class TestAnalytics:
    def test_bitcoin_throughput_about_6mb_per_hour(self):
        """Section 10.2: 'Bitcoin commits a 1 MByte block every 10
        minutes ... 6 MBytes of transactions per hour'."""
        throughput = throughput_bytes_per_hour(NakamotoConfig())
        assert 5.5e6 < throughput <= 6.0e6

    def test_fork_probability_small_but_positive(self):
        p = fork_probability(NakamotoConfig())
        assert 0.01 < p < 0.05  # ~2% with 12.6s propagation [18]

    def test_faster_blocks_raise_fork_rate(self):
        slow = fork_probability(NakamotoConfig())
        fast = fork_probability(NakamotoConfig(block_interval=60.0))
        assert fast > slow * 5

    def test_paper_comparison_125x(self):
        """Algorand at 750 MB/hour (10 MB blocks) vs Bitcoin: ~125x."""
        ratio = 750e6 / throughput_bytes_per_hour(NakamotoConfig())
        assert 115 <= ratio <= 135

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NakamotoConfig(block_interval=0)
        with pytest.raises(ValueError):
            NakamotoConfig(propagation_delay=-1)



def _mine(config: NakamotoConfig, num_blocks: int,
          rng: np.random.Generator) -> tuple[float, float]:
    """Monte-Carlo Bitcoin, the closed form's oracle: Poisson block
    discoveries, a block stale when found before its predecessor
    propagated. Returns (stale share, committed bytes per hour)."""
    intervals = rng.exponential(config.block_interval, size=num_blocks)
    stale = intervals[1:] < config.propagation_delay
    hours = float(intervals.sum()) / 3600.0
    committed = (num_blocks - int(stale.sum())) * config.block_size
    return float(stale.mean()), committed / hours


class TestSimulator:
    def test_simulated_throughput_matches_analytic(self):
        config = NakamotoConfig()
        _, throughput = _mine(config, 3000, np.random.default_rng(1))
        expected = throughput_bytes_per_hour(config)
        assert abs(throughput - expected) < 0.1 * expected

    def test_fork_rate_matches_probability(self):
        config = NakamotoConfig()
        fork_rate, _ = _mine(config, 5000, np.random.default_rng(2))
        assert abs(fork_rate - fork_probability(config)) < 0.01

    def test_zero_delay_means_no_forks(self):
        config = NakamotoConfig(propagation_delay=0.0)
        fork_rate, _ = _mine(config, 1000, np.random.default_rng(3))
        assert fork_rate == fork_probability(config) == 0.0
