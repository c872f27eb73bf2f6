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
import json
import warnings

import pytest

from repro.common.errors import (
    BalancesError,
    ConfigError,
    LatencyModelError,
    PopulationError,
)
from repro.common.params import TEST_PARAMS
from repro.experiments.harness import (
    NetworkConfig,
    PopulationConfig,
    RuntimeConfig,
    SimulationConfig,
    SubstrateConfig,
)
from repro.runtime.admission import AdmissionConfig


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
                                runtime=RuntimeConfig(use_admission=False))
        swapped = dataclasses.replace(
            base, network=NetworkConfig(latency_model="uniform"))
        assert swapped.network.latency_model == "uniform"
        assert swapped.runtime.use_admission is False


class TestJsonRoundTrip:
    @pytest.mark.parametrize("config", [
        SimulationConfig(),
        SimulationConfig(
            num_users=7, seed=3, initial_balance=4,
            num_observers=1, params=TEST_PARAMS.scaled(0.25),
            network=NetworkConfig(bandwidth_bps=None, peers_per_node=3,
                                  latency_model="uniform",
                                  seen_horizon_rounds=5),
            runtime=RuntimeConfig(use_verification_cache=False,
                                  relay_damping=False)),
        SimulationConfig(
            num_users=3, balances=[5, 0, 2],
            runtime=RuntimeConfig(admission=AdmissionConfig(
                vote_buffer_budget=7, egress_lane_budget=None))),
        SimulationConfig(
            population=PopulationConfig(mode="aggregated",
                                        always_on_core=4, steps_ahead=6),
            substrate=SubstrateConfig(kind="live", transport="tcp",
                                      base_port=9000, runtime_dir="rt",
                                      drain_budget=16, rx_queue_limit=64)),
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
