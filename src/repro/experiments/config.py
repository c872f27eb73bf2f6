"""Deployment configuration: nested groups with flat-kwarg back-compat.

:class:`SimulationConfig` historically accumulated ~20 flat knobs; they
are now grouped by the layer that consumes them:

* :class:`NetworkConfig` — the gossip fabric (bandwidth, latency model,
  peer degree, dedup horizon).
* :class:`RuntimeConfig` — the runtime layers wrapped around the node
  (verification cache, admission gate, relay damping, batch
  verification, conformance monitoring).
* :class:`PopulationConfig` — how users are represented (full agents vs
  the aggregated stake pool).
* :class:`SubstrateConfig` — what carries the protocol: the virtual
  discrete-event world (``"sim"``, the default) or real OS processes
  over sockets (``"live"``, see :mod:`repro.live`).

Each group is frozen and owns its ``validate()``;
:meth:`SimulationConfig.validate` runs the cross-field checks and
delegates the rest. The old flat keywords
(``SimulationConfig(bandwidth_bps=None, relay_damping=False)``) are
still accepted — they are merged onto the matching group and a single
:class:`DeprecationWarning` names the knobs to migrate (the same shim
pattern as the ``run_*_point`` wrappers). Flat *reads*
(``config.bandwidth_bps``) keep working silently via read-through
properties, so result dicts and experiment code stay stable.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import (
    BalancesError,
    ConfigError,
    LatencyModelError,
    PopulationError,
)
from repro.common.params import ProtocolParams, TEST_PARAMS
from repro.runtime.admission import AdmissionConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    pass


@dataclass(frozen=True)
class NetworkConfig:
    """Gossip-fabric knobs (the message-carrying layer of the sim)."""

    #: Per-node uplink in bits/second; ``None`` disables bandwidth modeling.
    bandwidth_bps: float | None = 20e6
    #: "city" uses the 20-city WAN model; "uniform" a constant latency.
    latency_model: str = "city"
    uniform_latency: float = 0.05
    peers_per_node: int = 4
    #: Re-randomize every node's gossip peers after each round (§8.4:
    #: "Algorand replaces gossip peers each round, which helps users
    #: recover from being possibly disconnected").
    reshuffle_peers_each_round: bool = False
    #: Rounds of gossip duplicate-suppression memory per node; ``None``
    #: keeps every msg_id forever (unbounded, pre-refactor behavior).
    seen_horizon_rounds: int | None = 2

    def validate(self) -> None:
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ConfigError(
                f"bandwidth_bps must be positive or None, "
                f"got {self.bandwidth_bps}")
        if self.latency_model not in ("city", "uniform"):
            raise LatencyModelError(
                f"unknown latency model {self.latency_model!r} "
                f"(expected 'city' or 'uniform')")
        if self.uniform_latency < 0:
            raise ConfigError(
                f"uniform_latency must be >= 0, got {self.uniform_latency}")
        if self.peers_per_node < 1:
            raise ConfigError(
                f"peers_per_node must be >= 1, got {self.peers_per_node}")
        if (self.seen_horizon_rounds is not None
                and self.seen_horizon_rounds < 1):
            raise ConfigError(
                f"seen_horizon_rounds must be >= 1 or None, "
                f"got {self.seen_horizon_rounds}")


@dataclass(frozen=True)
class RuntimeConfig:
    """Runtime layers wrapped around every node."""

    #: Share context-independent verification verdicts (VRF proofs,
    #: envelope signatures) across nodes via a per-simulation
    #: :class:`repro.runtime.VerificationCache`. Context-dependent checks
    #: (seeds, balances, vote counting) still run per node. ``False``
    #: reproduces the pre-cache behavior bit-for-bit.
    use_verification_cache: bool = True
    #: Install the :mod:`repro.runtime.admission` ingress layer on every
    #: node: sortition-gated vote admission, bounded vote buffers and
    #: egress lanes, peer health scoring, and a network quarantine
    #: directory. On honest deployments the committed chain is
    #: byte-identical with this on or off.
    use_admission: bool = True
    #: Budgets/weights for the admission layer (defaults when ``None``).
    admission: AdmissionConfig | None = None
    #: Quorum-trimmed relay (:mod:`repro.runtime.damping`): every node
    #: stops forwarding votes for a ``(round, step, value)`` once its
    #: local tally crosses the step threshold. The agreed blocks,
    #: proposers, and seeds are identical with this on or off.
    relay_damping: bool = True
    #: Online conformance checking (:mod:`repro.conformance`). ``"auto"``
    #: (default) enables it exactly when a trace bus is supplied;
    #: ``True`` forces it; ``False`` disables it. Pure observer either
    #: way — committed chains are byte-identical.
    conformance: bool | str = "auto"

    def validate(self) -> None:
        if self.admission is not None:
            self.admission.validate()
        if self.conformance not in (True, False, "auto"):
            raise ConfigError(
                f"conformance must be True, False, or 'auto', "
                f"got {self.conformance!r}")


@dataclass(frozen=True)
class PopulationConfig:
    """How users are represented during a run."""

    #: ``"full"`` (classic) builds every user as a live agent for the
    #: whole run. ``"aggregated"`` holds non-participants as a weighted
    #: stake pool (:class:`repro.node.population.Population`):
    #: array-backed balances, full agents only for the always-on core
    #: plus each round's sortition winners. Honest-only. With
    #: ``always_on_core >= num_users`` the aggregated run commits chains
    #: byte-identical to ``"full"``.
    mode: str = "full"
    #: Aggregated mode: how many always-on full agents (lowest indices).
    always_on_core: int = 16
    #: Aggregated mode: BinaryBA* steps covered by the per-round pool
    #: pass (4 covers the honest clean path incl. next-three steering).
    steps_ahead: int = 4

    def validate(self) -> None:
        if self.mode not in ("full", "aggregated"):
            raise PopulationError(
                f"unknown population mode {self.mode!r} "
                f"(expected 'full' or 'aggregated')")
        if self.mode == "aggregated":
            if self.always_on_core < 1:
                raise PopulationError(
                    f"always_on_core must be >= 1, "
                    f"got {self.always_on_core}")
            if self.steps_ahead < 1:
                raise PopulationError(
                    f"steps_ahead must be >= 1, got {self.steps_ahead}")


@dataclass(frozen=True)
class SubstrateConfig:
    """What carries the protocol code (see :mod:`repro.substrate`).

    ``"sim"`` runs everything in one process on the deterministic
    virtual clock (the default; byte-reproducible). ``"live"`` spawns
    one OS process per node, each running
    :class:`~repro.live.clock.LiveClock` inside an asyncio loop and
    exchanging :mod:`repro.network.wire` frames over real sockets.
    """

    kind: str = "sim"
    #: Live mode: ``"uds"`` (Unix domain sockets, same host, default)
    #: or ``"tcp"`` (loopback or LAN).
    transport: str = "uds"
    #: TCP host nodes bind and dial; UDS mode ignores it.
    host: str = "127.0.0.1"
    #: TCP base port; 0 lets the OS assign ephemeral ports (the
    #: coordinator distributes the resulting address map, so 0 is safe
    #: and avoids collisions between concurrent clusters).
    base_port: int = 0
    #: Directory for UDS sockets and control files; ``None`` uses a
    #: fresh temporary directory per cluster.
    runtime_dir: str | None = None
    #: Seconds a node waits for peers/coordinator before giving up.
    connect_timeout: float = 30.0
    #: Max envelopes handed to the node per inbox-drain pass; arrivals
    #: beyond it stay queued for the next pass so one chatty peer
    #: cannot starve timers.
    drain_budget: int = 128
    #: Bound on the per-node receive queue (oldest dropped beyond it).
    rx_queue_limit: int = 4096

    def validate(self) -> None:
        if self.kind not in ("sim", "live"):
            raise ConfigError(
                f"unknown substrate kind {self.kind!r} "
                f"(expected 'sim' or 'live')")
        if self.transport not in ("uds", "tcp"):
            raise ConfigError(
                f"unknown live transport {self.transport!r} "
                f"(expected 'uds' or 'tcp')")
        if self.base_port < 0 or self.base_port > 65535:
            raise ConfigError(
                f"base_port must be in [0, 65535], got {self.base_port}")
        if self.connect_timeout <= 0:
            raise ConfigError(
                f"connect_timeout must be positive, "
                f"got {self.connect_timeout}")
        if self.drain_budget < 1:
            raise ConfigError(
                f"drain_budget must be >= 1, got {self.drain_budget}")
        if self.rx_queue_limit < 1:
            raise ConfigError(
                f"rx_queue_limit must be >= 1, got {self.rx_queue_limit}")


_UNSET = object()

#: Legacy flat keyword → (group field, knob name). The shim in
#: ``SimulationConfig.__init__`` merges these onto the matching nested
#: group (flat wins, so ``dataclasses.replace(config, relay_damping=...)``
#: keeps working) and warns once per call listing the knobs used.
_FLAT_KNOBS: dict[str, tuple[str, str]] = {
    "bandwidth_bps": ("network", "bandwidth_bps"),
    "latency_model": ("network", "latency_model"),
    "uniform_latency": ("network", "uniform_latency"),
    "peers_per_node": ("network", "peers_per_node"),
    "reshuffle_peers_each_round": ("network", "reshuffle_peers_each_round"),
    "seen_horizon_rounds": ("network", "seen_horizon_rounds"),
    "use_verification_cache": ("runtime", "use_verification_cache"),
    "use_admission": ("runtime", "use_admission"),
    "admission": ("runtime", "admission"),
    "relay_damping": ("runtime", "relay_damping"),
    "conformance": ("runtime", "conformance"),
    "always_on_core": ("population", "always_on_core"),
    "steps_ahead": ("population", "steps_ahead"),
}


@dataclass(init=False)
class SimulationConfig:
    """Parameters of one deployment (simulated or live).

    Construct with nested groups::

        SimulationConfig(num_users=50, seed=11,
                         network=NetworkConfig(bandwidth_bps=None),
                         population=PopulationConfig(mode="aggregated"))

    The pre-group flat keywords are still accepted under a single
    :class:`DeprecationWarning` and merged onto the groups (flat wins
    over an explicitly supplied group, which is what
    ``dataclasses.replace(config, relay_damping=False)`` relies on).
    Flat attribute *reads* remain first-class and silent.
    """

    num_users: int = 20
    params: ProtocolParams = field(default_factory=lambda: TEST_PARAMS)
    seed: int = 0
    #: Currency units per user ("equal share of money", section 10).
    initial_balance: int = 10
    #: Optional weight list overriding the equal distribution.
    balances: list[int] | None = None
    #: Number of Byzantine users (instantiated from the ``malicious_class``
    #: passed to :class:`~repro.experiments.harness.Simulation`); they
    #: occupy the highest indices so index 0 is always an honest observer.
    num_malicious: int = 0
    #: Extra zero-stake nodes appended after the weighted users. They
    #: exercise the paper's "passive participation" property (section 7).
    num_observers: int = 0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    population: PopulationConfig = field(default_factory=PopulationConfig)
    substrate: SubstrateConfig = field(default_factory=SubstrateConfig)

    def __init__(self, num_users: int = 20,
                 params: ProtocolParams | None = None,
                 seed: int = 0,
                 initial_balance: int = 10,
                 *,
                 balances: list[int] | None = None,
                 num_malicious: int = 0,
                 num_observers: int = 0,
                 network: NetworkConfig | None = None,
                 runtime: RuntimeConfig | None = None,
                 population: "PopulationConfig | str | None" = None,
                 substrate: SubstrateConfig | None = None,
                 **flat) -> None:
        self.num_users = num_users
        self.params = params if params is not None else TEST_PARAMS
        self.seed = seed
        self.initial_balance = initial_balance
        self.balances = balances
        self.num_malicious = num_malicious
        self.num_observers = num_observers
        self.network = network if network is not None else NetworkConfig()
        self.runtime = runtime if runtime is not None else RuntimeConfig()
        self.substrate = (substrate if substrate is not None
                          else SubstrateConfig())
        legacy_used: list[str] = []
        if isinstance(population, str):
            # Pre-group API: population was the mode string itself.
            legacy_used.append(f"population={population!r}")
            self.population = PopulationConfig(mode=population)
        else:
            self.population = (population if population is not None
                               else PopulationConfig())
        grouped: dict[str, dict[str, object]] = {}
        for name, value in flat.items():
            target = _FLAT_KNOBS.get(name)
            if target is None:
                raise TypeError(
                    f"SimulationConfig got an unexpected keyword "
                    f"argument {name!r}")
            group_field, knob = target
            grouped.setdefault(group_field, {})[knob] = value
            legacy_used.append(name)
        for group_field, overrides in grouped.items():
            setattr(self, group_field,
                    dataclasses.replace(getattr(self, group_field),
                                        **overrides))
        if legacy_used:
            warnings.warn(
                f"flat SimulationConfig knob(s) {', '.join(legacy_used)} "
                f"are deprecated; pass nested groups instead "
                f"(NetworkConfig/RuntimeConfig/PopulationConfig/"
                f"SubstrateConfig)",
                DeprecationWarning, stacklevel=2)

    # -- flat read-through (silent; result dicts and experiments rely
    # -- on these names staying readable) ------------------------------

    @property
    def bandwidth_bps(self) -> float | None:
        return self.network.bandwidth_bps

    @property
    def latency_model(self) -> str:
        return self.network.latency_model

    @property
    def uniform_latency(self) -> float:
        return self.network.uniform_latency

    @property
    def peers_per_node(self) -> int:
        return self.network.peers_per_node

    @property
    def reshuffle_peers_each_round(self) -> bool:
        return self.network.reshuffle_peers_each_round

    @property
    def seen_horizon_rounds(self) -> int | None:
        return self.network.seen_horizon_rounds

    @property
    def use_verification_cache(self) -> bool:
        return self.runtime.use_verification_cache

    @property
    def use_admission(self) -> bool:
        return self.runtime.use_admission

    @property
    def admission(self) -> AdmissionConfig | None:
        return self.runtime.admission

    @property
    def relay_damping(self) -> bool:
        return self.runtime.relay_damping

    @property
    def conformance(self) -> bool | str:
        return self.runtime.conformance

    @property
    def always_on_core(self) -> int:
        return self.population.always_on_core

    @property
    def steps_ahead(self) -> int:
        return self.population.steps_ahead

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise a typed :class:`~repro.common.errors.ConfigError` subclass
        on any inconsistency. Invoked by the harness before wiring
        anything, so misconfigurations fail fast with one clear error.
        Group-local checks live on the groups; this method adds the
        cross-field ones."""
        if self.num_users < 1:
            raise PopulationError(
                f"num_users must be >= 1, got {self.num_users}")
        if self.num_malicious < 0:
            raise PopulationError(
                f"num_malicious must be >= 0, got {self.num_malicious}")
        if self.num_observers < 0:
            raise PopulationError(
                f"num_observers must be >= 0, got {self.num_observers}")
        if self.num_malicious > self.num_users:
            # Malicious users occupy the highest user indices; they
            # cannot outnumber the weighted population itself.
            raise PopulationError(
                f"num_malicious ({self.num_malicious}) exceeds "
                f"num_users ({self.num_users})")
        if self.initial_balance < 0:
            raise BalancesError(
                f"initial_balance must be >= 0, got {self.initial_balance}")
        if self.balances is not None:
            if len(self.balances) != self.num_users:
                raise BalancesError(
                    f"balances length ({len(self.balances)}) must equal "
                    f"num_users ({self.num_users})")
            if any(balance < 0 for balance in self.balances):
                raise BalancesError("balances must be non-negative")
        self.network.validate()
        self.runtime.validate()
        self.population.validate()
        self.substrate.validate()
        if self.population.mode == "aggregated":
            if self.num_malicious:
                raise PopulationError(
                    "aggregated population is honest-only: dormant stake "
                    "cannot model Byzantine agents (use mode='full')")
            if self.num_observers:
                raise PopulationError(
                    "aggregated population does not support observers "
                    "(use mode='full')")

    def make_balances(self) -> list[int]:
        if self.balances is not None:
            if len(self.balances) != self.num_users:
                raise BalancesError(
                    f"balances length ({len(self.balances)}) must equal "
                    f"num_users ({self.num_users})")
            return list(self.balances)
        return [self.initial_balance] * self.num_users


def deploy(config: SimulationConfig, **kwargs):
    """Build the harness ``config.substrate`` selects.

    Returns a :class:`~repro.experiments.harness.Simulation` for
    ``kind="sim"`` (the default) or a
    :class:`~repro.live.cluster.LiveCluster` for ``kind="live"``; both
    expose ``submit_payments`` / ``run_rounds`` / ``all_chains_equal``.
    """
    if config.substrate.kind == "live":
        from repro.live.cluster import LiveCluster

        return LiveCluster(config, **kwargs)
    from repro.experiments.harness import Simulation

    return Simulation(config, **kwargs)
