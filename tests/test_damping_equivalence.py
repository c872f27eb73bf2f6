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

from repro.chaos.runner import run_scenario
from repro.chaos.scenario import (
    ScenarioScript,
    flood_recovery_scenario,
    partition_heal_scenario,
)
from repro.experiments.harness import (
    NetworkConfig,
    RuntimeConfig,
    SimulationConfig,
)

from tests.fixtures import assert_chains_byte_identical

#: The deterministic fabric: identical delivery times regardless of how
#: many relays are in flight, so damping cannot shift any arrival.
IDENTITY_FABRIC = NetworkConfig(latency_model="uniform", bandwidth_bps=None)


def _clean_scenario(seed: int) -> ScenarioScript:
    return ScenarioScript(name="clean",
                          config=SimulationConfig(num_users=12, seed=seed),
                          rounds=2, payments=8)


FAMILIES = (_clean_scenario, partition_heal_scenario,
            flood_recovery_scenario)


def _family(seed: int, index: int) -> ScenarioScript:
    builder = FAMILIES[index % len(FAMILIES)]
    if builder is _clean_scenario:
        return _clean_scenario(seed)
    return builder(seed=seed)


def _assert_equivalent(script: ScenarioScript) -> None:
    verdicts = {}
    for damping in (False, True):
        verdict = run_scenario(replace(script, config=replace(
            script.config, network=IDENTITY_FABRIC,
            runtime=RuntimeConfig(relay_damping=damping))))
        assert verdict.ok, (script.name, damping, verdict.violations)
        assert verdict.conformance is not None
        assert verdict.conformance["ok"], (script.name, damping)
        verdicts[damping] = verdict
    assert_chains_byte_identical(verdicts[False].deployment,
                                 verdicts[True].deployment, script.rounds)
    # The equivalence must be a statement about damping *doing work*,
    # not about it sitting idle.
    suppressed = sum(node.damper.suppressed
                     for node in verdicts[True].deployment.nodes
                     if node.damper is not None)
    assert suppressed > 0, script.name
    assert all(getattr(node, "damper", None) is None
               for node in verdicts[False].deployment.nodes)


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
            script = _family(seed, index)
            try:
                _assert_equivalent(script)
            except AssertionError as exc:  # keep sweeping, report all
                failures.append((seed, script.name, str(exc)[:200]))
        assert not failures, failures
