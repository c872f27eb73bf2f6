"""Cryptographic sortition: private, non-interactive committee selection."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.sortition.roles import (
        FINAL_STEP, REDUCTION_ONE, REDUCTION_TWO, committee_role,
        fork_proposer_role, proposer_role,
    )
    from repro.sortition.seed import (
        SeedChain, fallback_seed, propose_seed, selection_round, verify_seed,
    )
    from repro.sortition.selection import (
        SelectionStats, SortitionProof, selection_probability, sortition,
        sub_users_selected, verify_sort,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sortition.roles": (
        "FINAL_STEP", "REDUCTION_ONE", "REDUCTION_TWO", "committee_role",
        "fork_proposer_role", "proposer_role",
    ),
    "repro.sortition.seed": (
        "SeedChain", "fallback_seed", "propose_seed", "selection_round",
        "verify_seed",
    ),
    "repro.sortition.selection": (
        "SelectionStats", "SortitionProof", "selection_probability",
        "sortition", "sub_users_selected", "verify_sort",
    ),
})

__all__ = [
    "SelectionStats",
    "SortitionProof",
    "sortition",
    "verify_sort",
    "sub_users_selected",
    "selection_probability",
    "proposer_role",
    "committee_role",
    "fork_proposer_role",
    "FINAL_STEP",
    "REDUCTION_ONE",
    "REDUCTION_TWO",
    "SeedChain",
    "propose_seed",
    "verify_seed",
    "fallback_seed",
    "selection_round",
]
