"""Config surface tests: nested groups, JSON round trip, validation.

``SimulationConfig`` is a plain dataclass of seven scalars and four
frozen groups (``network``, ``runtime``, ``population``,
``substrate``). There is no flat spelling of a grouped knob: passing one
is a ``TypeError``, and ``dataclasses.replace`` swaps whole groups (the
chaos engine relies on it). ``to_json``/``from_json`` is what a live
node process is configured from, so it must lose nothing.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import warnings

import pytest

from repro.baplus.buffer import VoteBuffer
from repro.common.errors import (
    BalancesError,
    ConfigError,
    LatencyModelError,
    PopulationError,
)
from repro.common.params import TEST_PARAMS
from repro.conformance.monitor import ConformanceMonitor
from repro.experiments.harness import SimulationConfig
from repro.ledger.mempool import Mempool
from repro.live.clock import LiveClock
from repro.live.transport import LiveTransport, PeerLink
from repro.network.framing import FrameDecoder, encode_frame
from repro.network.gossip import GossipNetwork, NetworkInterface, RelayCore
from repro.network.latency import LatencyModel
from repro.node.agent import Node
from repro.node.config import (
    NetworkConfig,
    PopulationConfig,
    RuntimeConfig,
    SubstrateConfig,
)
from repro.runtime.admission import AdmissionControl
from repro.sim.loop import BatchSchedule, Environment


class TestNestedConstruction:
    def test_defaults_emit_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = SimulationConfig(num_users=10, seed=1)
        assert config.network == NetworkConfig()
        assert config.runtime == RuntimeConfig()
        assert config.population == PopulationConfig()
        assert config.substrate == SubstrateConfig()

    def test_groups_are_frozen(self):
        config = SimulationConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.network.bandwidth_bps = 1.0

    def test_nested_construction_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = SimulationConfig(
                num_users=8, seed=2,
                network=NetworkConfig(latency_model="uniform",
                                      uniform_latency=0.01),
                runtime=RuntimeConfig(relay_damping=False),
                population=PopulationConfig(mode="aggregated",
                                            always_on_core=4),
                substrate=SubstrateConfig(kind="live"))
        assert config.network.latency_model == "uniform"
        assert config.runtime.relay_damping is False
        assert config.population.mode == "aggregated"
        assert config.substrate.kind == "live"


class TestFlatShims:
    """The flat keyword shims are gone; what stays is how a dataclass
    says no, and that ``replace`` still swaps one group."""

    @pytest.mark.parametrize("knob", [
        "bandwidth_bps", "relay_damping", "always_on_core", "admission"])
    def test_flat_kwarg_is_a_type_error(self, knob):
        with pytest.raises(TypeError, match=knob):
            SimulationConfig(num_users=6, **{knob: 1})

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="no_such_knob"):
            SimulationConfig(num_users=6, no_such_knob=1)

    def test_replace_with_nested_group(self):
        base = SimulationConfig(num_users=6,
                                runtime=RuntimeConfig(relay_damping=False))
        swapped = dataclasses.replace(
            base, network=NetworkConfig(latency_model="uniform"))
        assert swapped.network.latency_model == "uniform"
        assert swapped.runtime.relay_damping is False


class TestJsonRoundTrip:
    @pytest.mark.parametrize("config", [
        SimulationConfig(),
        SimulationConfig(
            num_users=7, seed=3, initial_balance=4,
            num_observers=1, params=TEST_PARAMS.scaled(0.25),
            network=NetworkConfig(bandwidth_bps=None, peers_per_node=3,
                                  latency_model="uniform"),
            runtime=RuntimeConfig(relay_damping=False)),
        SimulationConfig(
            num_users=3, balances=[5, 0, 2],
            runtime=RuntimeConfig(vote_buffer_budget=7,
                                  flood_budget_per_round=9)),
        SimulationConfig(
            population=PopulationConfig(mode="aggregated",
                                        always_on_core=4, steps_ahead=6),
            substrate=SubstrateConfig(kind="live", transport="tcp",
                                      base_port=9000, runtime_dir="rt")),
    ], ids=["defaults", "scalars-network-runtime", "balances-admission",
            "population-substrate"])
    def test_round_trip_through_json_text(self, config):
        text = json.dumps(config.to_json())
        assert SimulationConfig.from_json(json.loads(text)) == config

    def test_unknown_field_is_rejected(self):
        record = SimulationConfig().to_json()
        record["network"]["warp_factor"] = 9
        with pytest.raises(TypeError, match="warp_factor"):
            SimulationConfig.from_json(record)


class TestValidation:
    def test_bad_latency_model(self):
        config = SimulationConfig(
            num_users=6, network=NetworkConfig(latency_model="warp"))
        with pytest.raises(LatencyModelError):
            config.validate()

    def test_bad_population_mode(self):
        config = SimulationConfig(
            num_users=6, population=PopulationConfig(mode="imaginary"))
        with pytest.raises(PopulationError):
            config.validate()

    def test_bad_balances(self):
        config = SimulationConfig(num_users=3, balances=[1, 2])
        with pytest.raises(BalancesError):
            config.validate()

    def test_bad_substrate_kind(self):
        config = SimulationConfig(
            num_users=6, substrate=SubstrateConfig(kind="quantum"))
        with pytest.raises(ConfigError):
            config.validate()

    def test_default_config_validates(self):
        SimulationConfig().validate()

    def test_tcp_ports_must_fit_every_node(self):
        """Node ``i`` binds ``base_port + i``: the last must be a port."""
        def tcp(base_port: int) -> SimulationConfig:
            return SimulationConfig(num_users=5, substrate=SubstrateConfig(
                kind="live", transport="tcp", base_port=base_port))

        tcp(65531).validate()
        with pytest.raises(ConfigError, match="base_port 65532"):
            tcp(65532).validate()
        with pytest.raises(ConfigError, match="base_port 65534"):
            tcp(65534).validate()


def _leaves(record: dict, prefix: str = "") -> list[str]:
    """The dotted names of ``record``'s non-dict values."""
    names = []
    for key, value in record.items():
        if isinstance(value, dict):
            names += _leaves(value, f"{prefix}{key}.")
        else:
            names.append(prefix + key)
    return names


class TestSurface:
    """Every setting of a deployment outside ``params``, by name: a new
    knob must be named here, and one nobody turns belongs in a module
    constant of the layer that reads it."""

    SETTINGS = [
        "num_users", "seed", "initial_balance", "balances", "num_observers",
        "network.bandwidth_bps", "network.latency_model",
        "network.uniform_latency", "network.peers_per_node",
        "network.reshuffle_peers_each_round",
        "runtime.vote_buffer_budget", "runtime.flood_budget_per_round",
        "runtime.relay_damping",
        "population.mode", "population.always_on_core",
        "population.steps_ahead",
        "substrate.kind", "substrate.transport", "substrate.host",
        "substrate.base_port", "substrate.runtime_dir",
    ]

    def test_the_settings_are_exactly_these(self):
        record = SimulationConfig().to_json()
        del record["params"]
        assert sorted(_leaves(record)) == sorted(self.SETTINGS)
        assert len(self.SETTINGS) == 21


def _parameters(callable_) -> list[str]:
    """``callable_``'s parameter names, a defaulted one as ``name=``."""
    return [name + ("=" if parameter.default is not parameter.empty else "")
            for name, parameter
            in inspect.signature(callable_).parameters.items()]


class TestConstructorSurface:
    """What the layers under the config take, by name: the frame cap,
    the lane and queue bounds, the drain budget, the dedup horizon, the
    clock tick, the latency jitter, the mempool and violation caps are
    module constants of the layer that reads them (a test shrinks one
    with ``monkeypatch.setattr`` on that module), and no bound has an
    unbounded ``None`` spelling. A new parameter must be named here."""

    SURFACE = {
        RelayCore: ["index", "obs="],
        NetworkInterface: ["network", "index"],
        GossipNetwork: ["env", "num_nodes", "rng", "latency_model",
                        "peers_per_node", "bandwidth_bps", "obs=",
                        "active_indices="],
        LiveTransport: ["index", "clock", "incarnation=", "obs="],
        PeerLink: ["transport", "peer"],
        LiveClock: [],
        FrameDecoder: [],
        encode_frame: ["payload"],
        LatencyModel: ["num_users", "rng"],
        Mempool: [],
        ConformanceMonitor: ["registry="],
        VoteBuffer: ["env", "budget_messages"],
        BatchSchedule: ["env", "seq", "items", "deliver", "skip"],
        Environment().push_batch: ["records", "deliver", "skip"],
        AdmissionControl: ["node", "flood_budget_per_round", "index_of"],
        Node: ["index", "env", "keypair", "backend", "params", "chain",
               "interface", "registry", "runtime", "index_of", "obs="],
    }

    @pytest.mark.parametrize("callable_", list(SURFACE),
                             ids=lambda c: c.__qualname__)
    def test_the_parameters_are_exactly_these(self, callable_):
        assert _parameters(callable_) == self.SURFACE[callable_]
