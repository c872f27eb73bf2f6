"""repro — a reproduction of Algorand (SOSP 2017) in Python.

The package implements the paper's full stack:

* :mod:`repro.crypto` — Ed25519 + ECVRF (and a fast simulation backend);
* :mod:`repro.sortition` — cryptographic sortition and the seed schedule;
* :mod:`repro.ledger` — transactions, accounts, blocks, chains, storage;
* :mod:`repro.baplus` — the BA* Byzantine agreement protocol;
* :mod:`repro.node` — the user agent: proposal, rounds, recovery, catch-up;
* :mod:`repro.substrate` — the execution-substrate API (clock + transport)
  both runners satisfy;
* :mod:`repro.network` / :mod:`repro.sim` — the simulated WAN substrate;
* :mod:`repro.live` — the live substrate: real OS processes speaking the
  wire format over TCP or Unix domain sockets;
* :mod:`repro.adversary` — adversarial network control (Byzantine
  node behaviour is fault data, :mod:`repro.chaos`);
* :mod:`repro.baselines` — the Bitcoin/Nakamoto comparison baseline;
* :mod:`repro.analysis` — committee sizing (Figure 3, Appendix B);
* :mod:`repro.experiments` — runners for every figure/table in section 10;
* :mod:`repro.obs` — tracing/metrics bus, JSONL export, trace-report CLI;
* :mod:`repro.conformance` — reference BA* state machine checked
  against every trace, online and offline.

Quickstart (simulated substrate, deterministic virtual time)::

    from repro import Simulation, SimulationConfig

    sim = Simulation(SimulationConfig(num_users=20, seed=1))
    sim.submit_payments(50)
    sim.run_rounds(3)
    assert sim.all_chains_equal()

Same protocol on real processes and sockets (live substrate)::

    from repro import SimulationConfig, SubstrateConfig, deploy

    cluster = deploy(SimulationConfig(
        num_users=5, seed=7, initial_balance=40,
        substrate=SubstrateConfig(kind="live")))
    cluster.submit_payments(20)
    cluster.run_rounds(3)
    assert cluster.all_chains_equal()

Config knobs are grouped (``network=NetworkConfig(...)``,
``runtime=RuntimeConfig(...)``, ``population=PopulationConfig(...)``,
``substrate=SubstrateConfig(...)``) and the same config describes a
deployment on either substrate (:mod:`repro.node.deployment`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__version__ = "1.1.0"

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.common.params import PAPER_PARAMS, TEST_PARAMS, ProtocolParams
    from repro.experiments.harness import (
        NetworkConfig, PopulationConfig, RuntimeConfig, Simulation,
        SimulationConfig, SubstrateConfig, deploy,
    )
    from repro.live.cluster import LiveCluster
    from repro.obs.bus import TraceBus
    from repro.substrate.api import Clock, Transport

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.common.params": ("PAPER_PARAMS", "TEST_PARAMS", "ProtocolParams"),
    "repro.experiments.harness": (
        "NetworkConfig", "PopulationConfig", "RuntimeConfig", "Simulation",
        "SimulationConfig", "SubstrateConfig", "deploy",
    ),
    "repro.live.cluster": ("LiveCluster",),
    "repro.obs.bus": ("TraceBus",),
    "repro.substrate.api": ("Clock", "Transport"),
})

__all__ = [
    "Simulation",
    "SimulationConfig",
    "NetworkConfig",
    "RuntimeConfig",
    "PopulationConfig",
    "SubstrateConfig",
    "deploy",
    "LiveCluster",
    "Clock",
    "Transport",
    "TraceBus",
    "ProtocolParams",
    "PAPER_PARAMS",
    "TEST_PARAMS",
    "__version__",
]
