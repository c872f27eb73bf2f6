"""Chaos scenario engine with online invariant checking.

A scenario is an :class:`~repro.experiments.spec.ExperimentSpec` whose
measure is ``"chaos"``: a ``SimulationConfig`` plus a declarative fault
timeline (:mod:`repro.chaos.scenario`), compiled onto the clock and link
hooks of either substrate (:mod:`repro.chaos.faults`), checked by the
reference machines of :mod:`repro.conformance` and afterwards by the
stored-state audits of :mod:`repro.chaos.monitor`, built by the
builtins or drawn from seeds (:mod:`repro.chaos.generate`), and run end
to end by :func:`~repro.experiments.sweep.run_point` like any other
point; :func:`~repro.chaos.runner.measure_chaos` returns its verdict.
``python -m repro.chaos`` is the command-line entry point;
docs/CHAOS.md is the manual.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.chaos.faults import FaultInjector, ShaperChain
    from repro.chaos.generate import (
        byzantine_scenario, clean_scenario, flood_recovery_scenario,
        generate_scenario, kill_partition_scenario, partition_heal_scenario,
    )
    from repro.chaos.monitor import Violation, audit_chains, audit_ingress
    from repro.chaos.runner import ChaosVerdict, measure_chaos
    from repro.chaos.scenario import (
        FAULT_KINDS, FaultAction, ScenarioError, figure8_adversary,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.chaos.faults": ("FaultInjector", "ShaperChain"),
    "repro.chaos.generate": (
        "byzantine_scenario", "clean_scenario", "flood_recovery_scenario",
        "generate_scenario", "kill_partition_scenario",
        "partition_heal_scenario",
    ),
    "repro.chaos.monitor": ("Violation", "audit_chains", "audit_ingress"),
    "repro.chaos.runner": ("ChaosVerdict", "measure_chaos"),
    "repro.chaos.scenario": (
        "FAULT_KINDS", "FaultAction", "ScenarioError", "figure8_adversary",
    ),
})

__all__ = [
    "FAULT_KINDS",
    "ChaosVerdict",
    "FaultAction",
    "FaultInjector",
    "ScenarioError",
    "ShaperChain",
    "Violation",
    "audit_chains",
    "audit_ingress",
    "byzantine_scenario",
    "clean_scenario",
    "figure8_adversary",
    "flood_recovery_scenario",
    "generate_scenario",
    "kill_partition_scenario",
    "measure_chaos",
    "partition_heal_scenario",
]
