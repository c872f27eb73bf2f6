"""The description of a deployment: what to run, on which substrate.

:class:`SimulationConfig` is six scalars plus one frozen group per
consuming layer: :class:`NetworkConfig` (gossip fabric),
:class:`RuntimeConfig` (admission gate, relay damping),
:class:`PopulationConfig` (who is an always-on agent, who dormant pool
stake) and :class:`SubstrateConfig` (virtual time in one process, or OS
processes over sockets). Each group owns its ``validate()``;
:meth:`SimulationConfig.validate` adds the cross-field checks.
:meth:`SimulationConfig.to_json` / ``from_json`` are what crosses a
process boundary: a live node runs on the coordinator's config, not on
defaults of its own. :func:`deploy` builds the harness
``config.substrate`` selects.

A setting is here only if some workload turns it; what every
deployment runs alike is a constant of the layer that reads it
(:mod:`repro.runtime.admission`, :mod:`repro.network.gossip`,
:mod:`repro.live.transport`, :mod:`repro.live.control`).

The description loads no part of the node stack: a live coordinator
holds a config and starts its node server before it imports anything a
node runs (:mod:`repro.live.cluster`). What the substrates build *from*
a config — genesis, the node builder, the harvest, the run outcome — is
:mod:`repro.node.deployment`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common.errors import (
    BalancesError,
    ConfigError,
    LatencyModelError,
    PopulationError,
)
from repro.common.params import ProtocolParams, TEST_PARAMS


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


@dataclass(frozen=True)
class RuntimeConfig:
    """Runtime layers wrapped around every node."""

    #: Max undecided votes a node buffers (round-proximity eviction
    #: past it; :class:`repro.baplus.buffer.VoteBuffer`).
    vote_buffer_budget: int = 4096
    #: Admitted votes per origin per round at a node's gate; crossing it
    #: is the ``flood`` offense (honest traffic is ~1 vote per step).
    flood_budget_per_round: int = 512
    #: Quorum-trimmed relay (:mod:`repro.runtime.damping`): every node
    #: stops forwarding votes for a ``(round, step, value)`` once its
    #: local tally crosses the step threshold. The agreed blocks,
    #: proposers, and seeds are identical with this on or off.
    relay_damping: bool = True

    def validate(self) -> None:
        # Every count here is a budget: at least one.
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if type(value) is int and value < 1:
                raise ConfigError(
                    f"{field.name} must be >= 1, got {value}")


@dataclass(frozen=True)
class PopulationConfig:
    """Who is an always-on agent of the deployment's
    :class:`repro.node.population.Population`, and who dormant stake."""

    #: ``"full"``: every user (and observer) is a live agent for the
    #: whole run. ``"aggregated"``: only the first ``always_on_core``
    #: users are; the rest are weighted pool stake, materialized as full
    #: agents for the rounds sortition selects them. With
    #: ``always_on_core >= num_users`` that *is* ``"full"``.
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

    def core_size(self, accounts: int) -> int:
        """How many of ``accounts`` (lowest indices) are always on."""
        if self.mode == "full":
            return accounts
        return min(self.always_on_core, accounts)


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
    #: TCP base port (node ``i`` binds ``base_port + i``); 0 lets the OS
    #: assign ephemeral ports (the coordinator distributes the address
    #: map, so 0 avoids collisions between concurrent clusters).
    base_port: int = 0
    #: Directory for UDS sockets and control files; ``None`` uses a
    #: fresh temporary directory per cluster.
    runtime_dir: str | None = None

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


@dataclass
class SimulationConfig:
    """Parameters of one deployment (simulated or live).

    Six scalars plus one frozen group per consuming layer::

        SimulationConfig(num_users=50, seed=11,
                         network=NetworkConfig(bandwidth_bps=None),
                         population=PopulationConfig(mode="aggregated"))

    Change a knob with ``dataclasses.replace`` on the group that owns it.
    """

    num_users: int = 20
    params: ProtocolParams = TEST_PARAMS
    seed: int = 0
    #: Currency units per user ("equal share of money", section 10).
    initial_balance: int = 10
    #: Optional weight list overriding the equal distribution.
    balances: list[int] | None = None
    #: Extra zero-stake nodes appended after the weighted users. They
    #: exercise the paper's "passive participation" property (section 7).
    num_observers: int = 0
    network: NetworkConfig = NetworkConfig()
    runtime: RuntimeConfig = RuntimeConfig()
    population: PopulationConfig = PopulationConfig()
    substrate: SubstrateConfig = SubstrateConfig()

    # -- serialization (what crosses a process boundary) ---------------

    def to_json(self) -> dict:
        """Plain-data form: nested dicts, JSON-safe as is."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, record: dict) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_json` output.

        A field this version does not know is a ``TypeError`` — a node
        process must never run on half of what the coordinator meant.
        """
        data = dict(record)
        data["params"] = ProtocolParams(**data["params"])
        data["runtime"] = RuntimeConfig(**data["runtime"])
        data["network"] = NetworkConfig(**data["network"])
        data["population"] = PopulationConfig(**data["population"])
        data["substrate"] = SubstrateConfig(**data["substrate"])
        return cls(**data)

    def validate(self) -> None:
        """Raise a typed :class:`~repro.common.errors.ConfigError` subclass
        on any inconsistency. Invoked by the harness before wiring
        anything, so misconfigurations fail fast with one clear error.
        Group-local checks live on the groups; this method adds the
        cross-field ones."""
        if self.num_users < 1:
            raise PopulationError(
                f"num_users must be >= 1, got {self.num_users}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.num_observers < 0:
            raise PopulationError(
                f"num_observers must be >= 0, got {self.num_observers}")
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
        base_port = self.substrate.base_port
        if base_port and base_port + self.num_users - 1 > 65535:
            raise ConfigError(f"base_port {base_port} has no room for "
                              f"{self.num_users} nodes (node i binds "
                              f"base_port + i <= 65535)")
        if self.population.mode == "aggregated" and self.num_observers:
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
    expose ``submit_payments`` / ``run_rounds`` / ``outcome`` (one
    :class:`~repro.node.deployment.RunOutcome`), and both take
    ``faults=`` — so ``deploy(config, faults=[...])`` stands up a
    Byzantine deployment on either substrate.
    """
    if config.substrate.kind == "live":
        from repro.live.cluster import LiveCluster

        return LiveCluster(config, **kwargs)
    from repro.experiments.harness import Simulation

    return Simulation(config, **kwargs)

