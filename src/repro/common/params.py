"""Protocol parameters (Figure 4 of the paper).

The paper fixes one canonical parameter set for its prototype; we expose it
as :data:`PAPER_PARAMS` and allow experiments to derive scaled-down variants
via :meth:`ProtocolParams.scaled`, which preserves the committee/population
ratios so that small simulations keep the paper's safety margins in
expectation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class ProtocolParams:
    """All tunable constants of Algorand and BA*.

    Attributes mirror Figure 4 of the paper; times are in (simulated)
    seconds.
    """

    # Assumed fraction of honest weighted users (h > 2/3).
    honest_fraction: float = 0.80
    # Seed refresh interval R, in rounds (section 5.2).
    seed_refresh_interval: int = 1000
    # Seed look-back: sortition at round r uses seed from round
    # r - 1 - (r mod R); see seed.py.
    # Expected number of block proposers (tau_proposer, appendix B.1).
    tau_proposer: int = 26
    # Expected committee size for ordinary BA* steps (tau_step).
    tau_step: int = 2000
    # Vote threshold fraction for ordinary steps (T_step > 2/3).
    t_step: float = 0.685
    # Expected committee size for the final step (tau_final).
    tau_final: int = 10000
    # Vote threshold fraction for the final step (T_final).
    t_final: float = 0.74
    # Maximum number of steps in BinaryBA* before halting (MaxSteps).
    max_steps: int = 150
    # Time to gossip sortition proofs (lambda_priority), seconds.
    lambda_priority: float = 5.0
    # Timeout for receiving a block (lambda_block), seconds.
    lambda_block: float = 60.0
    # Timeout for a BA* step (lambda_step), seconds.
    lambda_step: float = 20.0
    # Estimate of BA* completion-time variance (lambda_stepvar), seconds.
    lambda_stepvar: float = 5.0
    # Maximum block payload in bytes (1 MByte default, as evaluated).
    block_size: int = 1_000_000
    # Look-back period b for weights/keys (section 5.3), seconds.
    lookback_b: float = 86_400.0
    # Recovery protocol kick-off interval (section 8.2), seconds.
    recovery_interval: float = 3600.0
    # Weight look-back in rounds (section 5.3): sortition at round r uses
    # the weight table as of round r - 1 - weight_lookback_rounds. 0
    # means current weights (the simulator's round-based analogue of the
    # paper's b-long time window).
    weight_lookback_rounds: int = 0
    # The section 5.3 "nothing at stake" mitigation the paper suggests as
    # future work: weigh each user by min(current balance, look-back
    # balance) instead of the look-back balance alone.
    lookback_take_min: bool = False
    # Section 10.2 optimization: overlap the final-consensus vote count
    # with the next round ("it could be pipelined with the next round
    # (although our prototype does not do so)"). The block commits after
    # BinaryBA*; its final/tentative designation lands asynchronously.
    pipeline_final_step: bool = False

    def __post_init__(self) -> None:
        if not 2 / 3 < self.honest_fraction <= 1.0:
            raise ValueError(
                f"honest_fraction must be in (2/3, 1], got {self.honest_fraction}"
            )
        if not 2 / 3 < self.t_step < 1.0:
            raise ValueError(f"t_step must be in (2/3, 1), got {self.t_step}")
        if not 2 / 3 < self.t_final < 1.0:
            raise ValueError(f"t_final must be in (2/3, 1), got {self.t_final}")
        for name in ("tau_proposer", "tau_step", "tau_final", "max_steps",
                     "seed_refresh_interval", "block_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lambda_priority", "lambda_block", "lambda_step",
                     "lambda_stepvar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.weight_lookback_rounds < 0:
            raise ValueError("weight_lookback_rounds must be >= 0")

    @property
    def step_vote_threshold(self) -> float:
        """Votes needed to settle an ordinary step: T_step * tau_step."""
        return self.t_step * self.tau_step

    @property
    def final_vote_threshold(self) -> float:
        """Votes needed to declare final consensus: T_final * tau_final."""
        return self.t_final * self.tau_final

    @property
    def round_budget(self) -> float:
        """Worst-case seconds one round can take: the block wait plus
        every BinaryBA* step timing out (lambda_block + lambda_step *
        MaxSteps). Run deadlines and stall detectors are multiples of it."""
        return self.lambda_block + self.lambda_step * self.max_steps

    def scaled(self, scale: float, **overrides: object) -> "ProtocolParams":
        """Return a copy with committee sizes multiplied by ``scale``.

        Used by experiments that simulate far fewer users than the paper's
        500,000: committees must shrink with the population or sortition
        would select every sub-user in every step. Thresholds (T values)
        and timeouts are preserved unless overridden.
        """
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        fields = {
            "tau_proposer": max(3, round(self.tau_proposer * max(scale, 0.2))),
            "tau_step": max(8, round(self.tau_step * scale)),
            "tau_final": max(12, round(self.tau_final * scale)),
        }
        fields.update(overrides)  # type: ignore[arg-type]
        return dataclasses.replace(self, **fields)  # type: ignore[arg-type]


#: The canonical parameter set from Figure 4 of the paper.
PAPER_PARAMS = ProtocolParams()

#: A small parameter set suitable for unit tests and quick examples.
#:
#: Committee sizes are chosen for a default population of 20 users x 10
#: currency units (W = 200): with ``tau_step = 80`` the expected committee
#: is 80 votes against a threshold of ~55, a 3.6-sigma margin, so honest
#: steps practically never time out — the small-scale analogue of the
#: paper's 5e-9 violation probability at tau_step = 2000.
TEST_PARAMS = ProtocolParams(
    tau_proposer=5,
    tau_step=80,
    tau_final=100,
    lambda_priority=1.0,
    lambda_block=6.0,
    lambda_step=3.0,
    lambda_stepvar=1.0,
    block_size=10_000,
    max_steps=30,
)

#: TEST_PARAMS with all protocol timeouts shrunk 4x: on the live substrate
#: the lambdas are *wall-clock seconds*, and a smoke cluster on loopback
#: needs milliseconds, not the sim's calibrated WAN allowances. Committee
#: sizes are untouched, so the 5-node x initial_balance=40 design point
#: (W = 200) carries over from the sim test fixture.
LIVE_SMOKE_PARAMS = dataclasses.replace(
    TEST_PARAMS,
    lambda_priority=0.25,
    lambda_block=1.5,
    lambda_step=0.75,
    lambda_stepvar=0.25,
)
