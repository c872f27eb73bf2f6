"""Experiment harness and per-figure/table runners for the evaluation.

An experiment point is one :class:`ExperimentSpec`
(:mod:`repro.experiments.spec`): a ``SimulationConfig`` plus rounds,
payment batches, faults and the name of a measure. The per-figure
modules contribute the measures and the grid builders that turn axis
values into specs; :mod:`repro.experiments.sweep` runs one point
(``run_point``) or a grid over worker processes (``run_sweep``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.experiments.adversarial import AdversarialPoint, figure8_specs
    from repro.experiments.costs import (
        CostReport, expected_certificate_bytes, measure_costs,
    )
    from repro.experiments.harness import Simulation
    from repro.experiments.latency import (
        LatencyPoint, figure5_specs, figure6_specs, flatness,
    )
    from repro.experiments.metrics import LatencySummary
    from repro.experiments.spec import (
        ExperimentSpec, PointResult, spec_from_json,
    )
    from repro.experiments.sweep import (
        PointOutcome, SweepReport, load_checkpoint, run_point, run_sweep,
    )
    from repro.experiments.throughput import (
        BlockSizePoint, ThroughputRow, figure7_specs,
        paper_scale_projection, throughput_table,
    )
    from repro.experiments.timeouts import (
        TimeoutReport, measure_priority_gossip, measure_timeouts,
    )
    from repro.experiments.waiting import WaitingPoint, waiting_specs
    from repro.node.config import SimulationConfig
    from repro.obs.report import format_table

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.adversarial": ("AdversarialPoint", "figure8_specs"),
    "repro.experiments.costs": (
        "CostReport", "expected_certificate_bytes", "measure_costs",
    ),
    "repro.experiments.harness": ("Simulation",),
    "repro.experiments.latency": (
        "LatencyPoint", "figure5_specs", "figure6_specs", "flatness",
    ),
    "repro.experiments.metrics": ("LatencySummary",),
    "repro.experiments.spec": (
        "ExperimentSpec", "PointResult", "spec_from_json",
    ),
    "repro.experiments.sweep": (
        "PointOutcome", "SweepReport", "load_checkpoint", "run_point",
        "run_sweep",
    ),
    "repro.experiments.throughput": (
        "BlockSizePoint", "ThroughputRow", "figure7_specs",
        "paper_scale_projection", "throughput_table",
    ),
    "repro.experiments.timeouts": (
        "TimeoutReport", "measure_priority_gossip", "measure_timeouts",
    ),
    "repro.experiments.waiting": ("WaitingPoint", "waiting_specs"),
    "repro.node.config": ("SimulationConfig",),
    "repro.obs.report": ("format_table",),
})

__all__ = [
    "Simulation",
    "SimulationConfig",
    "ExperimentSpec",
    "PointResult",
    "run_point",
    "spec_from_json",
    "PointOutcome",
    "SweepReport",
    "run_sweep",
    "load_checkpoint",
    "figure5_specs",
    "figure6_specs",
    "figure7_specs",
    "figure8_specs",
    "waiting_specs",
    "LatencySummary",
    "format_table",
    "LatencyPoint",
    "flatness",
    "BlockSizePoint",
    "ThroughputRow",
    "throughput_table",
    "paper_scale_projection",
    "CostReport",
    "measure_costs",
    "expected_certificate_bytes",
    "AdversarialPoint",
    "TimeoutReport",
    "measure_timeouts",
    "measure_priority_gossip",
    "WaitingPoint",
]
