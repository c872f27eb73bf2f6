"""Config regrouping tests: nested groups, flat-kwarg shims, validation.

``SimulationConfig``'s knobs moved into four frozen groups
(``network``, ``runtime``, ``population``, ``substrate``). The old flat
keyword arguments must keep working — under a ``DeprecationWarning``
that names the offending knobs — and ``dataclasses.replace`` must keep
working on configs built either way (the chaos engine relies on it).
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.common.errors import (
    BalancesError,
    ConfigError,
    LatencyModelError,
    PopulationError,
)
from repro.experiments.harness import (
    NetworkConfig,
    PopulationConfig,
    RuntimeConfig,
    SimulationConfig,
    SubstrateConfig,
)


def _quiet(**kwargs) -> SimulationConfig:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return SimulationConfig(**kwargs)


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
    def test_flat_kwarg_warns_and_names_the_knob(self):
        with pytest.warns(DeprecationWarning, match="bandwidth_bps"):
            config = SimulationConfig(num_users=6, bandwidth_bps=5e6)
        assert config.network.bandwidth_bps == 5e6

    def test_flat_and_nested_builds_are_equal(self):
        flat = _quiet(num_users=6, seed=3, latency_model="uniform",
                      uniform_latency=0.02, relay_damping=False,
                      peers_per_node=3)
        nested = SimulationConfig(
            num_users=6, seed=3,
            network=NetworkConfig(latency_model="uniform",
                                  uniform_latency=0.02, peers_per_node=3),
            runtime=RuntimeConfig(relay_damping=False))
        assert flat == nested

    def test_read_through_properties(self):
        config = SimulationConfig(
            num_users=6,
            network=NetworkConfig(peers_per_node=7),
            population=PopulationConfig(mode="aggregated",
                                        always_on_core=5, steps_ahead=2))
        assert config.peers_per_node == 7
        assert config.always_on_core == 5
        assert config.steps_ahead == 2

    def test_population_string_shim(self):
        with pytest.warns(DeprecationWarning, match="population"):
            config = SimulationConfig(num_users=6, population="aggregated",
                                      always_on_core=4)
        assert config.population.mode == "aggregated"
        assert config.population.always_on_core == 4

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError, match="no_such_knob"):
            SimulationConfig(num_users=6, no_such_knob=1)

    def test_replace_preserves_flat_overrides(self):
        """The chaos engine does replace(config, relay_damping=...)."""
        base = _quiet(num_users=6, bandwidth_bps=5e6, peers_per_node=3)
        flipped = _quiet_replace(base, relay_damping=False)
        assert flipped.network.bandwidth_bps == 5e6
        assert flipped.network.peers_per_node == 3
        assert flipped.runtime.relay_damping is False

    def test_replace_with_nested_group(self):
        base = SimulationConfig(num_users=6,
                                runtime=RuntimeConfig(use_admission=False))
        swapped = _quiet_replace(
            base, network=NetworkConfig(latency_model="uniform"))
        assert swapped.network.latency_model == "uniform"
        assert swapped.runtime.use_admission is False


def _quiet_replace(config, **changes):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return dataclasses.replace(config, **changes)


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
