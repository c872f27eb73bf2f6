"""Baseline systems the paper compares against (Bitcoin / Nakamoto PoW,
plus the section 2 related-system reference points)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.baselines.doublespend import (
        catch_up_probability, confirmation_latency_seconds,
        confirmations_needed, double_spend_probability, risk_curve,
        speedup_table,
    )
    from repro.baselines.nakamoto import (
        NakamotoConfig, NakamotoResult, NakamotoSimulator,
        expected_confirmation_latency, fork_probability, paper_comparison,
        throughput_bytes_per_hour,
    )
    from repro.baselines.related import (
        BITCOIN, BYZCOIN, HONEY_BADGER, SystemProfile, algorand_profile,
        comparison_rows, dominates,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.doublespend": (
        "catch_up_probability", "confirmation_latency_seconds",
        "confirmations_needed", "double_spend_probability", "risk_curve",
        "speedup_table",
    ),
    "repro.baselines.nakamoto": (
        "NakamotoConfig", "NakamotoResult", "NakamotoSimulator",
        "expected_confirmation_latency", "fork_probability",
        "paper_comparison", "throughput_bytes_per_hour",
    ),
    "repro.baselines.related": (
        "BITCOIN", "BYZCOIN", "HONEY_BADGER", "SystemProfile",
        "algorand_profile", "comparison_rows", "dominates",
    ),
})

__all__ = [
    "NakamotoConfig",
    "NakamotoResult",
    "NakamotoSimulator",
    "expected_confirmation_latency",
    "fork_probability",
    "throughput_bytes_per_hour",
    "paper_comparison",
    "double_spend_probability",
    "catch_up_probability",
    "confirmations_needed",
    "confirmation_latency_seconds",
    "speedup_table",
    "risk_curve",
    "SystemProfile",
    "HONEY_BADGER",
    "BYZCOIN",
    "BITCOIN",
    "algorand_profile",
    "comparison_rows",
    "dominates",
]
