"""Tests for the unified experiment-point API and the sweep engine.

Covers the contract: every grid builder's specs round-trip (pickle +
JSON, faults and balances included), serial vs. parallel byte-identical
merged output, checkpoint resume skipping finished points, crash-retry
and timeout handling, and the typed ``SimulationConfig.validate()``
errors.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import pickle
import time

import pytest

from repro.chaos import generate_scenario, kill_partition_scenario
from repro.chaos.scenario import FaultAction
from repro.common.errors import (
    BalancesError,
    ConfigError,
    LatencyModelError,
    PopulationError,
    ReproError,
    SpecError,
)
from repro.common.params import TEST_PARAMS, ProtocolParams
from repro.experiments import sweep as sweep_module
from repro.experiments.adversarial import figure8_specs
from repro.experiments.costs import costs_spec
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import NetworkConfig, PopulationConfig
from repro.experiments.latency import (
    LatencyPoint,
    figure5_specs,
    figure6_specs,
    latency_spec,
)
from repro.experiments.spec import ExperimentSpec, spec_from_json
from repro.experiments.sweep import (
    MEASURES,
    load_checkpoint,
    run_point,
    run_sweep,
)
from repro.experiments.throughput import figure7_specs
from repro.experiments.timeouts import timeouts_spec
from repro.experiments.traffic import census_specs
from repro.experiments.waiting import waiting_specs

#: A grid tiny enough for the whole file to stay fast but large enough
#: that parallel completion order differs from spec order.
TINY_GRID = [latency_spec(n, s, rounds=1) for s in (0, 1) for n in (6, 8)]

#: The smallest deployment a test-only measure runs on.
TINY_CONFIG = SimulationConfig(
    num_users=4, network=NetworkConfig(latency_model="uniform"))

#: Every grid builder, at a size that builds instantly.
GRID_SPECS = [
    *figure5_specs([6], payload_bytes=4_000),
    *figure6_specs([6]),
    *figure7_specs([2_000], num_users=6),
    *figure8_specs([0.0, 0.2], num_users=10),
    *waiting_specs([0.5], num_users=6),
    *census_specs(num_users=10, rounds=1),
    timeouts_spec(6, 0, rounds=1),
    latency_spec(30, 0, population=PopulationConfig(
        mode="aggregated", always_on_core=8)),
    costs_spec(6, 0, rounds=1, payload_bytes=4_000),
    kill_partition_scenario(),
]

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="crash/timeout tests register measures the child must inherit")


def _json_round_trip(spec: ExperimentSpec) -> ExperimentSpec:
    return spec_from_json(json.loads(json.dumps(spec.to_json())))


class TestSpecRoundTrip:
    @pytest.mark.parametrize("spec", GRID_SPECS)
    def test_pickle_and_json(self, spec):
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert _json_round_trip(spec) == spec
        assert _json_round_trip(spec).fingerprint() == spec.fingerprint()
        # canonical JSON must be stable and strict
        assert (json.loads(spec.canonical_json())
                == json.loads(spec.canonical_json()))

    def test_faults_and_balances_travel(self):
        adversarial = figure8_specs([0.2], num_users=10)[0]
        assert {action.kind for action in adversarial.faults} == {
            "equivocate", "double-vote"}
        assert _json_round_trip(adversarial).faults == adversarial.faults
        census = census_specs(num_users=10)[2]  # whale, damped
        assert census.config.balances is not None
        assert _json_round_trip(census).config.balances == (
            census.config.balances)

    def test_fingerprint_distinguishes_specs(self):
        a = latency_spec(10, 0)
        b = latency_spec(10, 1)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == latency_spec(10, 0).fingerprint()

    def test_params_survive_json(self):
        spec = figure6_specs([6])[0]
        assert spec.config.params != TEST_PARAMS  # contended lambda_step
        assert _json_round_trip(spec).config.params == spec.config.params

    def test_every_grid_names_a_known_measure(self):
        assert {spec.measure for spec in GRID_SPECS} == set(MEASURES)

    def test_from_json_rejects_garbage(self):
        record = latency_spec(5, 0).to_json()
        for garbage in ({}, {"measure": "latency"},
                        {**record, "bogus_field": 1},
                        {**record, "config": {**record["config"],
                                              "bogus_knob": 1}}):
            with pytest.raises(SpecError):
                spec_from_json(garbage)

    def test_from_json_rejects_a_misspelled_fault_key(self):
        """``nodez`` must not load as ``nodes=()``: the adversary would
        vanish from a fig8 point."""
        record = figure8_specs([0.2], num_users=10)[0].to_json()
        record["faults"][0]["nodez"] = record["faults"][0].pop("nodes")
        with pytest.raises(ConfigError, match="nodez"):
            spec_from_json(record)


class TestSpecValidation:
    def test_bad_values_rejected(self):
        for spec in (latency_spec(5, 0, rounds=0),
                     ExperimentSpec("latency", SimulationConfig(num_users=0),
                                    1),
                     ExperimentSpec("latency", SimulationConfig(seed=-1), 1),
                     ExperimentSpec("waiting", SimulationConfig(), 1,
                                    payments=((-1, 16),)),
                     ExperimentSpec("adversarial", SimulationConfig(), 1,
                                    faults=(FaultAction("silent", 0.0,
                                                        nodes=(99,)),))):
            with pytest.raises(ConfigError):
                spec.validate()
            # ConfigError must stay catchable as the legacy ValueError
            with pytest.raises(ValueError):
                spec.validate()

    def test_grid_builders_reject_bad_axis_values(self):
        with pytest.raises(SpecError):
            figure8_specs([0.5])
        for bad in (lambda: figure7_specs([0]),
                    lambda: waiting_specs([0.0])):
            with pytest.raises(ValueError):
                bad()

    def test_run_point_validates_first(self):
        with pytest.raises(SpecError):
            run_point(latency_spec(5, 0, rounds=0))
        with pytest.raises(SpecError, match="unknown measure"):
            run_point(ExperimentSpec("no-such-measure", TINY_CONFIG, 1))


class TestRunPoint:
    def test_returns_typed_point_and_json(self):
        result = run_point(latency_spec(8, 1, rounds=1))
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

    def test_chaos_grid_serial_vs_parallel_byte_identical(self):
        """Faulted, checked runs are shared-nothing too: a generated
        chaos grid merges the same verdicts for any ``jobs``."""
        grid = [generate_scenario(seed, num_users=6, rounds=1)
                for seed in (101, 105, 111)]
        serial = run_sweep(grid, jobs=1)
        parallel = run_sweep(grid, jobs=2)
        assert not serial.failures and not parallel.failures
        assert serial.merged_json() == parallel.merged_json()
        points = serial.merged()["points"]
        assert [point["result"]["scenario"] for point in points] == [
            spec.to_json() for spec in grid]
        assert all(point["result"]["ok"] for point in points)

    def test_costs_grid_serial_vs_parallel_byte_identical(self):
        """The section 10.3 table's point reads counters a worker
        process harvests from its own deployment: any ``jobs`` merges
        the same bytes."""
        grid = [costs_spec(n, 500, rounds=1, payload_bytes=4_000)
                for n in (6, 8)]
        serial = run_sweep(grid, jobs=1)
        parallel = run_sweep(grid, jobs=2)
        assert not serial.failures and not parallel.failures
        assert serial.merged_json() == parallel.merged_json()

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

    def test_invalid_spec_fails_before_running_anything(self, monkeypatch):
        ran = []
        monkeypatch.setattr(sweep_module, "run_point", ran.append)
        for bad in (latency_spec(6, 0, rounds=0),
                    ExperimentSpec("no-such-measure", TINY_CONFIG, 1)):
            with pytest.raises(SpecError):
                run_sweep([TINY_GRID[0], bad], jobs=1)
        assert ran == []

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_sweep(TINY_GRID, jobs=1,
                  progress=lambda outcome, total: seen.append(
                      (outcome.index, total)))
        assert sorted(index for index, _ in seen) == list(
            range(len(TINY_GRID)))
        assert all(total == len(TINY_GRID) for _, total in seen)


# ---------------------------------------------------------------------
# Crash / timeout handling: test-only measures in the one measure table,
# by dotted path; a forked worker inherits the table and this module.
# ---------------------------------------------------------------------

#: ``(marker_dir, crash_times)`` of the registered ``_test_crash``.
_CRASHES: tuple[str, int] = ("", 0)


def _crash_measure(sim, spec):
    """Crashes the worker until ``crash_times`` attempts have passed."""
    import os
    marker_dir, crash_times = _CRASHES
    attempts_file = os.path.join(marker_dir, "attempts")
    attempts = 0
    if os.path.exists(attempts_file):
        with open(attempts_file) as handle:
            attempts = int(handle.read())
    with open(attempts_file, "w") as handle:
        handle.write(str(attempts + 1))
    if attempts < crash_times:
        os._exit(17)  # hard crash: no exception, no worker message
    return {"attempts_needed": attempts + 1}


def _sleep_measure(sim, spec):
    """Sleeps (wall clock) longer than any timeout."""
    time.sleep(30.0)
    return {"slept": 30.0}


CRASH = ExperimentSpec("_test_crash", TINY_CONFIG, 1)


@needs_fork
class TestCrashAndTimeout:
    @pytest.fixture
    def crashes(self, monkeypatch, tmp_path):
        def register(times: int) -> None:
            monkeypatch.setattr(f"{__name__}._CRASHES", (str(tmp_path), times))
            monkeypatch.setitem(MEASURES, "_test_crash",
                                f"{__name__}._crash_measure")
        return register

    def test_retry_once_recovers_from_crash(self, crashes):
        crashes(1)
        report = run_sweep([CRASH], jobs=2, retries=1)
        outcome = report.outcomes[0]
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.result == {"attempts_needed": 2}

    def test_persistent_crash_is_recorded_not_raised(self, crashes):
        crashes(99)
        good = latency_spec(6, 0, rounds=1)
        report = run_sweep([CRASH, good], jobs=2, retries=1)
        crash, latency = report.outcomes
        assert not crash.ok
        assert crash.attempts == 2
        assert "worker" in crash.error or "exit" in crash.error
        assert latency.ok  # one bad point never sinks the sweep

    def test_timeout_kills_and_records(self, monkeypatch):
        monkeypatch.setitem(MEASURES, "_test_sleep",
                            f"{__name__}._sleep_measure")
        report = run_sweep([ExperimentSpec("_test_sleep", TINY_CONFIG, 1)],
                           jobs=1, timeout=0.5, retries=0)
        outcome = report.outcomes[0]
        assert not outcome.ok
        assert "timeout" in outcome.error
        assert outcome.wall_time < 10.0


class TestConfigValidation:
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

    def test_simulation_init_validates(self):
        with pytest.raises(PopulationError):
            Simulation(SimulationConfig(num_users=0))

    def test_negative_seed(self):
        # numpy would reject it later, as a bare ValueError mid-build
        with pytest.raises(ConfigError, match="seed"):
            Simulation(SimulationConfig(num_users=6, seed=-1))

    def test_block_size_must_hold_a_transaction(self):
        with pytest.raises(ValueError, match="block_size"):
            ProtocolParams(block_size=0)
        with pytest.raises(ValueError, match="block_size"):
            dataclasses.replace(TEST_PARAMS, block_size=-5)

    def test_typed_errors_are_repro_and_value_errors(self):
        for cls in (ConfigError, PopulationError, BalancesError,
                    LatencyModelError, SpecError):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, ValueError)

    def test_valid_config_passes(self):
        SimulationConfig(num_users=8, num_observers=1).validate()


class TestCleanupOfTestKinds:
    def test_registry_cleanup(self):
        """The test-only measures are registered per test and gone after
        it: the measure table holds the eight production measures."""
        assert set(MEASURES) == {"latency", "adversarial", "block_size",
                                 "waiting", "traffic", "timeouts", "costs",
                                 "chaos"}


class TestSweepDataShapes:
    def test_every_kind_serializes(self):
        # one cheap point per measure, end to end through the engine
        specs = [
            latency_spec(6, 0, rounds=1),
            *figure8_specs([0.0], num_users=6, seed=3),
            *figure7_specs([2_000], num_users=6, seed=2),
            *waiting_specs([1.0], num_users=6, seed=1),
            census_specs(num_users=10, rounds=1)[0],
            timeouts_spec(6, 0, rounds=1),
            costs_spec(6, 0, rounds=1, payload_bytes=4_000),
            generate_scenario(101, num_users=6, rounds=1),
        ]
        report = run_sweep(specs, jobs=1)
        assert not report.failures
        for outcome in report.outcomes:
            json.dumps(outcome.result, allow_nan=False)
        merged = report.merged()
        assert [p["spec"]["measure"] for p in merged["points"]] == [
            "latency", "adversarial", "block_size", "waiting", "traffic",
            "timeouts", "costs", "chaos"]


@dataclasses.dataclass(frozen=True)
class _NotASpec:
    seed: int = 0


def test_run_sweep_rejects_non_spec_dataclass():
    with pytest.raises(SpecError):
        run_sweep([_NotASpec()])
