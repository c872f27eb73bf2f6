"""Analytical reproductions: committee sizing (Figure 3), BA* step
counts (section 7 efficiency), and gossip-graph connectivity (section 8.4)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.analysis.graph import (
        TopologyReport, analyze_topology, build_gossip_graph, diameter_scaling,
        expected_dissemination_hops,
    )
    from repro.analysis.steps import (
        COMMON_CASE_STEPS, expected_binary_steps_worst_case,
        expected_total_steps_worst_case, loop_success_probability,
        max_steps_for_failure_probability, probability_exceeds_max_steps,
    )
    from repro.analysis.committee import (
        FIGURE3_EPSILON, Figure3Point, best_threshold,
        certificate_forgery_log2, check_paper_step_parameters,
        committee_size_for, figure3_curve, final_step_safety,
        violation_probability,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.graph": (
        "TopologyReport", "analyze_topology", "build_gossip_graph",
        "diameter_scaling", "expected_dissemination_hops",
    ),
    "repro.analysis.steps": (
        "COMMON_CASE_STEPS", "expected_binary_steps_worst_case",
        "expected_total_steps_worst_case", "loop_success_probability",
        "max_steps_for_failure_probability", "probability_exceeds_max_steps",
    ),
    "repro.analysis.committee": (
        "FIGURE3_EPSILON", "Figure3Point", "best_threshold",
        "certificate_forgery_log2", "check_paper_step_parameters",
        "committee_size_for", "figure3_curve", "final_step_safety",
        "violation_probability",
    ),
})

__all__ = [
    "FIGURE3_EPSILON",
    "Figure3Point",
    "violation_probability",
    "best_threshold",
    "committee_size_for",
    "figure3_curve",
    "check_paper_step_parameters",
    "final_step_safety",
    "certificate_forgery_log2",
    "COMMON_CASE_STEPS",
    "loop_success_probability",
    "expected_binary_steps_worst_case",
    "expected_total_steps_worst_case",
    "probability_exceeds_max_steps",
    "max_steps_for_failure_probability",
    "TopologyReport",
    "build_gossip_graph",
    "analyze_topology",
    "diameter_scaling",
    "expected_dissemination_hops",
]
