"""Related-system reference points (paper section 2).

The paper positions Algorand against the BFT-cryptocurrency systems it
cites, using the numbers those papers report. We encode them as data so
the comparison table can be regenerated and extended:

* **Honey Badger** [40]: fixed 104-server committee, ~5 minute latency,
  ~200 KB/s ledger throughput at 10 MB batches — decentralization
  sacrificed for throughput.
* **ByzCoin** [33]: PoW-elected rotating committee (hybrid consensus),
  ~35 s latency, ~230 KB/s at 8 MB blocks, 1000 participants — but forks
  remain possible and the adversary model is only "mildly adaptive".
* **Bitcoin** [42]: ~3600 s to high confidence, ~1.7 KB/s.

Algorand's row is computed from measured/projected values so the table
stays honest to whatever scale the reproduction ran at.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SystemProfile:
    """One row of the section 2 comparison."""

    name: str
    latency_seconds: float
    throughput_bytes_per_sec: float
    participants: int
    decentralized: bool          # open membership (no fixed server set)
    forks_possible: bool
    adaptive_adversary: bool     # tolerates immediate targeted corruption


#: Reference points as reported by the cited papers.
HONEY_BADGER = SystemProfile(
    name="HoneyBadger", latency_seconds=300.0,
    throughput_bytes_per_sec=200_000.0, participants=104,
    decentralized=False, forks_possible=False, adaptive_adversary=False,
)

BYZCOIN = SystemProfile(
    name="ByzCoin", latency_seconds=35.0,
    throughput_bytes_per_sec=230_000.0, participants=1000,
    decentralized=True, forks_possible=True, adaptive_adversary=False,
)

BITCOIN = SystemProfile(
    name="Bitcoin", latency_seconds=3600.0,
    throughput_bytes_per_sec=6_000_000.0 / 3600.0, participants=1_000_000,
    decentralized=True, forks_possible=True, adaptive_adversary=True,
)


def algorand_profile(latency_seconds: float = 22.0,
                     throughput_bytes_per_sec: float = 750e6 / 3600.0,
                     participants: int = 500_000) -> SystemProfile:
    """Algorand's row (defaults: the paper's reported full-scale numbers)."""
    return SystemProfile(
        name="Algorand", latency_seconds=latency_seconds,
        throughput_bytes_per_sec=throughput_bytes_per_sec,
        participants=participants, decentralized=True,
        forks_possible=False, adaptive_adversary=True,
    )


def comparison_rows(algorand: SystemProfile | None = None
                    ) -> list[SystemProfile]:
    """All systems, ordered by confirmation latency."""
    rows = [BITCOIN, HONEY_BADGER, BYZCOIN,
            algorand if algorand is not None else algorand_profile()]
    return sorted(rows, key=lambda profile: profile.latency_seconds)
