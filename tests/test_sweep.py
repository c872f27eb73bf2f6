"""Tests for the unified experiment-point API and the sweep engine.

Covers the PR's contract: spec round-trips (pickle + JSON), serial vs.
parallel byte-identical merged output, checkpoint resume skipping
finished points, crash-retry and timeout handling, deprecation shims,
and the typed ``SimulationConfig.validate()`` errors.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import pickle
import time
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.common.errors import (
    BalancesError,
    ConfigError,
    LatencyModelError,
    PopulationError,
    ReproError,
    SpecError,
)
from repro.common.params import TEST_PARAMS
from repro.experiments import sweep as sweep_module
from repro.experiments.harness import (
    NetworkConfig,
    Simulation,
    SimulationConfig,
)
from repro.experiments.latency import LatencyPoint
from repro.experiments.spec import (
    AdversarialSpec,
    BlockSizeSpec,
    ExperimentSpec,
    LatencySpec,
    SPEC_KINDS,
    WaitingSpec,
    register_runner,
    register_spec,
    run_point,
    spec_from_json,
)
from repro.experiments.sweep import load_checkpoint, run_sweep
from repro.obs.bus import TraceBus

#: A grid tiny enough for the whole file to stay fast but large enough
#: that parallel completion order differs from spec order.
TINY_GRID = [LatencySpec(num_users=n, seed=s, rounds=1, measure_round=1)
             for s in (0, 1) for n in (6, 8)]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash/timeout tests register spec kinds the child must inherit")


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", [
        LatencySpec(num_users=12, seed=3, payload_bytes=500),
        AdversarialSpec(fraction=0.2, num_users=10, seed=1),
        BlockSizeSpec(block_size=5_000, num_users=8, seed=2),
        WaitingSpec(wait_seconds=0.5, num_users=8, seed=4),
        LatencySpec(num_users=6, params=TEST_PARAMS),
    ])
    def test_pickle_and_json(self, spec):
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert spec_from_json(spec.to_json()) == spec
        # canonical JSON must be stable and strict
        assert (json.loads(spec.canonical_json())
                == json.loads(spec.canonical_json()))

    def test_fingerprint_distinguishes_specs(self):
        a = LatencySpec(num_users=10, seed=0)
        b = LatencySpec(num_users=10, seed=1)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == LatencySpec(num_users=10).fingerprint()

    def test_params_survive_json(self):
        spec = LatencySpec(num_users=6, params=TEST_PARAMS)
        rebuilt = spec_from_json(json.loads(json.dumps(spec.to_json())))
        assert rebuilt.params == TEST_PARAMS

    def test_every_registered_kind_is_a_spec(self):
        for kind, cls in SPEC_KINDS.items():
            assert issubclass(cls, ExperimentSpec)
            assert cls.kind == kind

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SpecError):
            spec_from_json({"num_users": 5})  # no kind
        with pytest.raises(SpecError):
            spec_from_json({"kind": "no-such-kind"})
        with pytest.raises(SpecError):
            spec_from_json({"kind": "latency", "bogus_field": 1})


class TestSpecValidation:
    def test_bad_values_rejected(self):
        for spec in (LatencySpec(num_users=0),
                     LatencySpec(seed=-1),
                     LatencySpec(rounds=2, measure_round=3),
                     AdversarialSpec(fraction=0.5),
                     BlockSizeSpec(block_size=0),
                     WaitingSpec(wait_seconds=0.0)):
            with pytest.raises(SpecError):
                spec.validate()
            # SpecError must stay catchable as the legacy ValueError
            with pytest.raises(ValueError):
                spec.validate()

    def test_run_point_validates_first(self):
        with pytest.raises(SpecError):
            run_point(WaitingSpec(wait_seconds=-1.0))


class TestRunPoint:
    def test_returns_typed_point_and_json(self):
        result = run_point(LatencySpec(num_users=8, seed=1, rounds=1,
                                       measure_round=1))
        assert isinstance(result.point, LatencyPoint)
        assert result.point.summary.count == 8
        data = result.data()
        assert data["num_users"] == 8
        assert data["summary"]["median"] == result.point.summary.median
        # strict JSON: no NaN may leak into the payload
        json.dumps(result.to_json(), allow_nan=False)


class TestSweepEngine:
    def test_serial_vs_parallel_byte_identical(self):
        serial = run_sweep(TINY_GRID, jobs=1)
        parallel = run_sweep(TINY_GRID, jobs=2)
        assert serial.merged_json() == parallel.merged_json()
        assert [o.index for o in parallel.outcomes] == list(
            range(len(TINY_GRID)))
        assert not serial.failures and not parallel.failures

    def test_merged_excludes_wall_time(self):
        report = run_sweep(TINY_GRID[:1], jobs=1)
        merged = report.merged()
        assert "wall_time" not in json.dumps(merged)
        assert report.outcomes[0].wall_time > 0

    def test_checkpoint_resume_skips_finished_points(self, tmp_path,
                                                     monkeypatch):
        checkpoint = str(tmp_path / "sweep.jsonl")
        first = run_sweep(TINY_GRID[:2], jobs=1, checkpoint=checkpoint)
        assert len(load_checkpoint(checkpoint)) == 2

        computed = []
        real = sweep_module.run_point

        def counting_run_point(spec):
            computed.append(spec)
            return real(spec)

        monkeypatch.setattr(sweep_module, "run_point", counting_run_point)
        second = run_sweep(TINY_GRID, jobs=1, checkpoint=checkpoint)
        # only the two new points ran; the first two came from the file
        assert [s.fingerprint() for s in computed] == [
            s.fingerprint() for s in TINY_GRID[2:]]
        assert second.resumed_points == 2
        assert [o.resumed for o in second.outcomes] == [True, True,
                                                        False, False]
        # and the resumed payloads are exactly the originals
        assert second.results()[:2] == first.results()

    def test_resumed_sweep_is_byte_identical(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.jsonl")
        run_sweep(TINY_GRID[:3], jobs=2, checkpoint=checkpoint)
        resumed = run_sweep(TINY_GRID, jobs=2, checkpoint=checkpoint)
        fresh = run_sweep(TINY_GRID, jobs=1)
        assert resumed.merged_json() == fresh.merged_json()

    def test_corrupt_checkpoint_lines_skipped(self, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        checkpoint.write_text('{"truncated": \n')
        assert load_checkpoint(str(checkpoint)) == {}

    def test_bad_engine_arguments(self):
        with pytest.raises(SpecError):
            run_sweep(TINY_GRID, jobs=0)
        with pytest.raises(SpecError):
            run_sweep(TINY_GRID, timeout=-1.0)
        with pytest.raises(SpecError):
            run_sweep(TINY_GRID, retries=-1)
        with pytest.raises(SpecError):
            run_sweep([object()])

    def test_invalid_spec_fails_before_running_anything(self):
        specs = [LatencySpec(num_users=6, rounds=1, measure_round=1),
                 WaitingSpec(wait_seconds=-1.0)]
        with pytest.raises(SpecError):
            run_sweep(specs, jobs=1)

    def test_obs_counters(self):
        bus = TraceBus()
        run_sweep(TINY_GRID[:2], jobs=1, obs=bus)
        snapshot = bus.snapshot()
        assert snapshot["counters"]["sweep.points_completed"] == 2
        histogram = snapshot["histograms"]["sweep.point_wall_time"]
        assert histogram["count"] == 2
        kinds = [e["kind"] for e in bus.events]
        assert kinds.count("sweep.point_done") == 2

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_sweep(TINY_GRID, jobs=1,
                  progress=lambda outcome, total: seen.append(
                      (outcome.index, total)))
        assert sorted(index for index, _ in seen) == list(
            range(len(TINY_GRID)))
        assert all(total == len(TINY_GRID) for _, total in seen)


# ---------------------------------------------------------------------
# Crash / timeout handling needs spec kinds the forked child inherits.
# ---------------------------------------------------------------------


@register_spec
@dataclass(frozen=True)
class _CrashSpec(ExperimentSpec):
    """Test-only spec: crashes until ``survive_after`` attempts passed."""

    kind: ClassVar[str] = "_test_crash"

    marker_dir: str = ""
    crash_times: int = 1


@register_runner(_CrashSpec.kind)
def _run_crash_spec(spec: _CrashSpec):
    import os
    attempts_file = os.path.join(spec.marker_dir, "attempts")
    attempts = 0
    if os.path.exists(attempts_file):
        with open(attempts_file) as handle:
            attempts = int(handle.read())
    with open(attempts_file, "w") as handle:
        handle.write(str(attempts + 1))
    if attempts < spec.crash_times:
        os._exit(17)  # hard crash: no exception, no worker message
    return {"attempts_needed": attempts + 1}


@register_spec
@dataclass(frozen=True)
class _SleepSpec(ExperimentSpec):
    """Test-only spec: sleeps (wall clock) longer than any timeout."""

    kind: ClassVar[str] = "_test_sleep"

    sleep_seconds: float = 30.0


@register_runner(_SleepSpec.kind)
def _run_sleep_spec(spec: _SleepSpec):
    time.sleep(spec.sleep_seconds)
    return {"slept": spec.sleep_seconds}


@needs_fork
class TestCrashAndTimeout:
    FORK = multiprocessing.get_context("fork")

    def test_retry_once_recovers_from_crash(self, tmp_path):
        spec = _CrashSpec(marker_dir=str(tmp_path), crash_times=1)
        report = run_sweep([spec], jobs=2, retries=1,
                           mp_context=self.FORK)
        outcome = report.outcomes[0]
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.result == {"attempts_needed": 2}

    def test_persistent_crash_is_recorded_not_raised(self, tmp_path):
        spec = _CrashSpec(marker_dir=str(tmp_path), crash_times=99)
        good = LatencySpec(num_users=6, seed=0, rounds=1, measure_round=1)
        report = run_sweep([spec, good], jobs=2, retries=1,
                           mp_context=self.FORK)
        crash, latency = report.outcomes
        assert not crash.ok
        assert crash.attempts == 2
        assert "worker" in crash.error or "exit" in crash.error
        assert latency.ok  # one bad point never sinks the sweep

    def test_timeout_kills_and_records(self, tmp_path):
        report = run_sweep([_SleepSpec(sleep_seconds=30.0)], jobs=1,
                           timeout=0.5, retries=0,
                           mp_context=self.FORK)
        outcome = report.outcomes[0]
        assert not outcome.ok
        assert "timeout" in outcome.error
        assert outcome.wall_time < 10.0

    def test_retry_metrics(self, tmp_path):
        bus = TraceBus()
        spec = _CrashSpec(marker_dir=str(tmp_path), crash_times=1)
        run_sweep([spec], jobs=1, retries=1, timeout=60.0, obs=bus,
                  mp_context=self.FORK)
        assert bus.metrics.counter("sweep.retries") == 1


class TestConfigValidation:
    def test_negative_num_malicious(self):
        with pytest.raises(PopulationError):
            SimulationConfig(num_users=8, num_malicious=-1).validate()

    def test_malicious_exceeding_users(self):
        with pytest.raises(PopulationError):
            SimulationConfig(num_users=4, num_malicious=5).validate()

    def test_empty_population(self):
        with pytest.raises(PopulationError):
            SimulationConfig(num_users=0).validate()

    def test_negative_observers(self):
        with pytest.raises(PopulationError):
            SimulationConfig(num_users=4, num_observers=-2).validate()

    def test_balances_length_mismatch(self):
        config = SimulationConfig(num_users=3, balances=[1, 2])
        with pytest.raises(BalancesError):
            config.validate()
        with pytest.raises(BalancesError):
            config.make_balances()

    def test_negative_balances(self):
        with pytest.raises(BalancesError):
            SimulationConfig(num_users=2, balances=[1, -1]).validate()

    def test_unknown_latency_model(self):
        with pytest.raises(LatencyModelError):
            SimulationConfig(num_users=4, network=NetworkConfig(
                latency_model="quantum")).validate()

    def test_bad_bandwidth_and_peers(self):
        with pytest.raises(ConfigError):
            SimulationConfig(num_users=4, network=NetworkConfig(
                bandwidth_bps=0.0)).validate()
        with pytest.raises(ConfigError):
            SimulationConfig(num_users=4, network=NetworkConfig(
                peers_per_node=0)).validate()
        for horizon in (0, None):  # "keep every id forever" is gone
            with pytest.raises(ConfigError):
                SimulationConfig(num_users=4, network=NetworkConfig(
                    seen_horizon_rounds=horizon)).validate()

    def test_simulation_init_validates(self):
        with pytest.raises(PopulationError):
            Simulation(SimulationConfig(num_users=0))

    def test_typed_errors_are_repro_and_value_errors(self):
        for cls in (ConfigError, PopulationError, BalancesError,
                    LatencyModelError, SpecError):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, ValueError)

    def test_valid_config_passes(self):
        SimulationConfig(num_users=8, num_malicious=2,
                         num_observers=1).validate()


class TestCleanupOfTestKinds:
    def test_registry_cleanup(self):
        """The test-only kinds must not leak into production listings
        used by spec_from_json error messages (sanity check only; the
        registry is process-global by design)."""
        assert "_test_crash" in SPEC_KINDS
        assert "_test_sleep" in SPEC_KINDS
        for kind in ("latency", "adversarial", "block_size", "waiting"):
            assert kind in SPEC_KINDS


class TestSweepDataShapes:
    def test_every_kind_serializes(self):
        # one cheap point per kind, end to end through the engine
        specs = [
            LatencySpec(num_users=6, seed=0, rounds=1, measure_round=1),
            AdversarialSpec(fraction=0.0, num_users=6, rounds=1, seed=3),
            BlockSizeSpec(block_size=2_000, num_users=6, seed=2),
            WaitingSpec(wait_seconds=1.0, num_users=6, rounds=1, seed=1),
        ]
        report = run_sweep(specs, jobs=1)
        assert not report.failures
        for outcome in report.outcomes:
            json.dumps(outcome.result, allow_nan=False)
        merged = report.merged()
        assert [p["spec"]["kind"] for p in merged["points"]] == [
            "latency", "adversarial", "block_size", "waiting"]


@dataclasses.dataclass(frozen=True)
class _NotASpec:
    seed: int = 0


def test_run_sweep_rejects_non_spec_dataclass():
    with pytest.raises(SpecError):
        run_sweep([_NotASpec()])
