"""Public-API surface tests: exports, error hierarchy, latency details."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.common import errors
from repro.network.latency import CITIES, LatencyModel


class TestPackageRoot:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_quickstart_names_exported(self):
        for name in ("Simulation", "SimulationConfig", "ProtocolParams",
                     "PAPER_PARAMS", "TEST_PARAMS"):
            assert hasattr(repro, name)

    def test_all_is_exactly_the_public_surface(self):
        """The facade's ``__all__`` is a contract: pin it exactly.

        Adding a name here is an API decision, not a side effect of an
        import — this test makes that decision explicit in the diff.
        """
        assert sorted(repro.__all__) == sorted([
            "Simulation", "SimulationConfig",
            "NetworkConfig", "RuntimeConfig", "PopulationConfig",
            "SubstrateConfig", "deploy",
            "LiveCluster",
            "Clock", "Transport",
            "TraceBus",
            "ProtocolParams", "PAPER_PARAMS", "TEST_PARAMS",
            "__version__",
        ])
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} in __all__ missing"

    def test_all_subpackages_importable(self):
        import importlib
        for package in ("common", "crypto", "sortition", "ledger", "sim",
                        "network", "baplus", "node", "baselines",
                        "analysis", "experiments",
                        "substrate", "live"):
            module = importlib.import_module(f"repro.{package}")
            assert module.__doc__, f"repro.{package} lacks a docstring"

    def test_all_exports_resolve(self):
        """Every name in every subpackage __all__ must exist."""
        import importlib
        for package in ("chaos", "experiments", "obs", "sortition"):
            module = importlib.import_module(f"repro.{package}")
            for name in module.__all__:
                assert hasattr(module, name), f"repro.{package}.{name}"


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        for name in ("CryptoError", "SignatureError", "VRFError",
                     "SortitionError", "LedgerError", "InvalidTransaction",
                     "InvalidBlock", "InvalidCertificate",
                     "SimulationError", "NetworkError", "ConsensusHalted"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_crypto_specializations(self):
        assert issubclass(errors.SignatureError, errors.CryptoError)
        assert issubclass(errors.VRFError, errors.CryptoError)

    def test_ledger_specializations(self):
        assert issubclass(errors.InvalidTransaction, errors.LedgerError)
        assert issubclass(errors.InvalidBlock, errors.LedgerError)
        assert issubclass(errors.InvalidCertificate, errors.LedgerError)

    def test_catchable_as_repro_error(self):
        with pytest.raises(errors.ReproError):
            raise errors.ConsensusHalted("stuck")


class TestLatencyModelDetails:
    def test_twenty_cities(self):
        assert len(CITIES) == 20
        names = [name for name, _, _ in CITIES]
        assert len(set(names)) == 20

    def test_city_assignment_stable(self):
        model = LatencyModel(30, np.random.default_rng(0))
        # batch_terms' second part is every user's city index.
        city = model.batch_terms(0, 1)[1][7]
        assert model.batch_terms(3, 1)[1][7] == city
        assert 0 <= city < len(CITIES)

    def test_jitter_bounded_below(self):
        """Jitter must never produce a non-positive latency."""
        model = LatencyModel(30, np.random.default_rng(1),
                             jitter_fraction=0.5)
        samples = [model.latency(2, 20) for _ in range(200)]
        assert min(samples) > 0

    def test_jitter_fraction_validated(self):
        with pytest.raises(ValueError):
            LatencyModel(10, np.random.default_rng(0), jitter_fraction=1.5)

    def test_zero_jitter_deterministic(self):
        model = LatencyModel(30, np.random.default_rng(2),
                             jitter_fraction=0.0)
        assert model.latency(1, 5) == model.latency(1, 5)

    def test_population_validated(self):
        with pytest.raises(ValueError):
            LatencyModel(0, np.random.default_rng(0))
