"""Nakamoto-consensus (Bitcoin-style proof-of-work) baseline.

The paper's throughput claim (section 10.2) is relative: "Bitcoin commits
a 1 MByte block every 10 minutes, ... 6 MBytes of transactions per hour",
and transactions confirm after 6 blocks (~1 hour). This module gives
that baseline in closed form (:func:`throughput_bytes_per_hour`), the
figure ``tab_throughput`` prints beside Algorand's.

The model: block discoveries form a Poisson process with the configured
mean interval; a discovery within ``propagation_delay`` of the previous
one creates a competing block (a fork), and one branch's work is wasted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NakamotoConfig:
    """Bitcoin-like parameters (defaults: Bitcoin mainnet)."""

    block_interval: float = 600.0          # seconds (10 minutes)
    block_size: int = 1_000_000            # bytes
    propagation_delay: float = 12.6        # seconds to reach most miners [18]

    def __post_init__(self) -> None:
        if self.block_interval <= 0:
            raise ValueError("block_interval must be positive")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.propagation_delay < 0:
            raise ValueError("propagation_delay must be >= 0")


def throughput_bytes_per_hour(config: NakamotoConfig) -> float:
    """Committed bytes per hour, discounting stale (forked) blocks."""
    blocks_per_hour = 3600.0 / config.block_interval
    return blocks_per_hour * config.block_size * (
        1.0 - fork_probability(config))


def fork_probability(config: NakamotoConfig) -> float:
    """P[next block is found before the previous one propagates]."""
    return 1.0 - math.exp(-config.propagation_delay
                          / config.block_interval)
