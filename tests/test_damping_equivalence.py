"""Damped vs undamped runs commit byte-identical chains.

The relay damper claims to be pure traffic hygiene: with the uniform
latency model and bandwidth modeling off, the arrival prefix up to every
node's threshold crossing is untouched, so the committed chains —
blocks, timestamps, certificates, round records — must be *byte
identical* with damping on or off, and the online conformance monitor
must stay green in both runs. (Under the city latency model the shared
latency RNG advances per delivery, so relay-count changes legitimately
shift timings; the identity claim is scoped to the deterministic
fabric, which is exactly the configuration where any divergence would
indict the damper itself.)

Three scenario families, the same fabric, both regimes:

* ``clean`` — no faults, payments flowing;
* ``partition-heal`` — the canonical split/stall/heal timeline;
* ``flood-recovery`` — attackers flooding junk and undecidable spam.

The quick class keeps one seed per family in tier-1; the full 20-seed
sweep (seeds shared with the chaos sweep, families round-robin) runs
with ``pytest -m slow``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chaos import flood_recovery_scenario, partition_heal_scenario
from repro.experiments.harness import (
    NetworkConfig,
    RuntimeConfig,
    SimulationConfig,
)
from repro.experiments.spec import ExperimentSpec

from tests.fixtures import assert_chains_byte_identical, run_chaos

#: The deterministic fabric: identical delivery times regardless of how
#: many relays are in flight, so damping cannot shift any arrival.
IDENTITY_FABRIC = NetworkConfig(latency_model="uniform", bandwidth_bps=None)


def _clean_scenario(seed: int) -> ExperimentSpec:
    return ExperimentSpec("chaos", SimulationConfig(num_users=12, seed=seed),
                          rounds=2, payments=((8, 0),))


FAMILIES = (_clean_scenario, partition_heal_scenario,
            flood_recovery_scenario)


def _family(seed: int, index: int) -> ExperimentSpec:
    builder = FAMILIES[index % len(FAMILIES)]
    if builder is _clean_scenario:
        return _clean_scenario(seed)
    return builder(seed=seed)


def _assert_equivalent(spec: ExperimentSpec) -> None:
    sims = {}
    for damping in (False, True):
        verdict, sims[damping] = run_chaos(replace(spec, config=replace(
            spec.config, network=IDENTITY_FABRIC,
            runtime=RuntimeConfig(relay_damping=damping))))
        assert verdict.ok, (spec.faults, damping, verdict.violations)
        assert verdict.conformance is not None
        assert verdict.conformance["ok"], (spec.faults, damping)
    assert_chains_byte_identical(sims[False], sims[True], spec.rounds)
    # The equivalence must be a statement about damping *doing work*,
    # not about it sitting idle.
    suppressed = sum(node.damper.suppressed for node in sims[True].nodes
                     if node.damper is not None)
    assert suppressed > 0, spec.faults
    assert all(getattr(node, "damper", None) is None
               for node in sims[False].nodes)


class TestQuickEquivalence:
    @pytest.mark.parametrize("index", range(len(FAMILIES)),
                             ids=[f.__name__.strip("_")
                                  for f in FAMILIES])
    def test_family_sample(self, chaos_seeds, index):
        _assert_equivalent(_family(chaos_seeds[index], index))


@pytest.mark.slow
class TestFullEquivalenceSweep:
    def test_twenty_seeds_across_families(self, chaos_seeds):
        assert len(chaos_seeds) >= 20
        failures = []
        for index, seed in enumerate(chaos_seeds):
            spec = _family(seed, index)
            try:
                _assert_equivalent(spec)
            except AssertionError as exc:  # keep sweeping, report all
                failures.append((seed, FAMILIES[index % len(FAMILIES)]
                                 .__name__, str(exc)[:200]))
        assert not failures, failures
