"""Chaos scenario engine with online invariant checking.

A scenario (:mod:`repro.chaos.scenario`) is a ``SimulationConfig`` plus
a declarative fault timeline, compiled onto the clock and link hooks of
either substrate (:mod:`repro.chaos.faults`), checked by the reference
machines of :mod:`repro.conformance` and afterwards by the stored-state
audits of :mod:`repro.chaos.monitor`, generated from seeds
(:mod:`repro.chaos.generate`), and run end to end by one
:func:`~repro.chaos.runner.run_scenario` on the substrate its config
names. ``python -m repro.chaos`` is the command-line entry point;
docs/CHAOS.md is the manual.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.chaos.faults import FaultInjector, ShaperChain
    from repro.chaos.generate import generate_scenario
    from repro.chaos.monitor import Violation, audit_chains, audit_ingress
    from repro.chaos.runner import ChaosVerdict, run_scenario
    from repro.chaos.scenario import (
        FAULT_KINDS, FaultAction, ScenarioError, ScenarioScript,
        byzantine_scenario, figure8_adversary, flood_recovery_scenario,
        kill_partition_scenario, partition_heal_scenario,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.chaos.faults": ("FaultInjector", "ShaperChain"),
    "repro.chaos.generate": ("generate_scenario",),
    "repro.chaos.monitor": ("Violation", "audit_chains", "audit_ingress"),
    "repro.chaos.runner": ("ChaosVerdict", "run_scenario"),
    "repro.chaos.scenario": (
        "FAULT_KINDS", "FaultAction", "ScenarioError", "ScenarioScript",
        "byzantine_scenario", "figure8_adversary", "flood_recovery_scenario",
        "kill_partition_scenario", "partition_heal_scenario",
    ),
})

__all__ = [
    "FAULT_KINDS",
    "ChaosVerdict",
    "FaultAction",
    "FaultInjector",
    "ScenarioError",
    "ScenarioScript",
    "ShaperChain",
    "Violation",
    "audit_chains",
    "audit_ingress",
    "byzantine_scenario",
    "figure8_adversary",
    "flood_recovery_scenario",
    "generate_scenario",
    "kill_partition_scenario",
    "partition_heal_scenario",
    "run_scenario",
]
