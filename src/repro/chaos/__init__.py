"""Chaos scenario engine with online invariant checking.

Declarative fault timelines (:mod:`repro.chaos.scenario`) compiled onto
the clock and link hooks of either substrate (:mod:`repro.chaos.faults`),
checked as they run by the reference machines of
:mod:`repro.conformance` and afterwards by the stored-state audits of
:mod:`repro.chaos.monitor`, generated from seeds
(:mod:`repro.chaos.generate`), and executed end to end with a
deterministic verdict (:mod:`repro.chaos.runner`). ``python -m
repro.chaos`` is the command-line entry point; docs/CHAOS.md is the
manual.
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
        flood_recovery_scenario, kill_partition_scenario,
        partition_heal_scenario,
    )

# repro.chaos.live (the live-cluster runner) is not part of this
# surface: ``from repro.chaos.live import run_live_scenario``.

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.chaos.faults": ("FaultInjector", "ShaperChain"),
    "repro.chaos.generate": ("generate_scenario",),
    "repro.chaos.monitor": ("Violation", "audit_chains", "audit_ingress"),
    "repro.chaos.runner": ("ChaosVerdict", "run_scenario"),
    "repro.chaos.scenario": (
        "FAULT_KINDS", "FaultAction", "ScenarioError", "ScenarioScript",
        "flood_recovery_scenario", "kill_partition_scenario",
        "partition_heal_scenario",
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
    "flood_recovery_scenario",
    "generate_scenario",
    "kill_partition_scenario",
    "partition_heal_scenario",
    "run_scenario",
]
