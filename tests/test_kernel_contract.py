"""Regression guards for the event kernel's two contracts.

* **Allocation:** a steady-state simulated round builds no reference
  cycles — timers carry ``(callback, arg)``, handles never reference
  themselves and unlink when they fire or are cancelled — so reference
  counting alone reclaims the kernel's garbage (``docs/PROTOCOL.md``,
  "Event-loop fast paths").
* **Bit-identity:** kernel and gossip hot-path work must not move a
  single event. Arrival times are ``now + (offset + latency)`` in
  exactly that float association; the golden hashes below were recorded
  at the commit *before* the allocation-lean kernel and fail on any
  reassociation, RNG-stream slip or reordering of same-time events.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.config import PopulationConfig
from tests.fixtures import chain_hash, run_sim

#: Unreachable objects a 10-user, 2-round run may leave for the cyclic
#: collector. The closure-based kernel left 16,925 (two per event); the
#: cycle-free one leaves 0, so the slack is for protocol layers only.
UNREACHABLE_BUDGET = 100

GOLDEN_20_USERS_2_ROUNDS = {
    1: "25505d09514688c01d75e143af869c914fcf5dc9ba4325b051af62d49d52216f",
    2: "fed5b7eb290c5401fb7b5df75fcd8e3a9f2ccb65f63ae84e7e5068f253216b56",
}


def test_simulated_rounds_leave_no_cyclic_garbage():
    sim = run_sim(0, payments=5, num_users=10, seed=1)
    gc.collect()
    gc.disable()
    try:
        sim.run_rounds(2)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert sim.all_chains_equal()
    assert unreachable < UNREACHABLE_BUDGET


@pytest.mark.parametrize("seed", sorted(GOLDEN_20_USERS_2_ROUNDS))
@pytest.mark.parametrize("population", [
    PopulationConfig(),
    PopulationConfig(mode="aggregated", always_on_core=20),
], ids=["full", "aggregated-covering-core"])
def test_golden_chain_hash(seed, population):
    sim = run_sim(2, payments=10, num_users=20, seed=seed,
                  population=population)
    assert chain_hash(sim) == GOLDEN_20_USERS_2_ROUNDS[seed]
