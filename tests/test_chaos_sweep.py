"""Seeded chaos sweeps: many generated scenarios, all green, reproducible.

The quick tests keep tier-1 fast (a 3-seed sample plus the determinism
check); the full 20-seed sweep is marked ``slow`` and runs with
``pytest -m slow`` (the CI chaos job runs a 5-seed slice through the
CLI instead).
"""

from __future__ import annotations

import pytest

from repro.chaos import generate_scenario
from repro.experiments.sweep import run_point


def _verdict(seed: int):
    return run_point(generate_scenario(seed)).point


class TestQuickSweep:
    def test_sample_of_generated_scenarios_green(self, chaos_seeds):
        for seed in chaos_seeds[:3]:
            verdict = _verdict(seed)
            assert verdict.ok, (seed, verdict.violations)
            assert verdict.converged

    def test_same_seed_reproduces_byte_identical_verdict(self, chaos_seeds):
        seed = chaos_seeds[0]
        first = _verdict(seed).to_json()
        second = _verdict(seed).to_json()
        assert first == second

    def test_distinct_seeds_draw_distinct_scenarios(self, chaos_seeds):
        specs = {generate_scenario(seed).canonical_json()
                 for seed in chaos_seeds}
        assert len(specs) == len(chaos_seeds)


@pytest.mark.slow
class TestFullSweep:
    def test_twenty_seeded_scenarios_green(self, chaos_seeds):
        assert len(chaos_seeds) >= 20
        failures = []
        for seed in chaos_seeds:
            verdict = _verdict(seed)
            if not verdict.ok:
                failures.append((seed, verdict.violations))
        assert not failures, failures
