"""Seeded random scenario generation for chaos sweeps.

:func:`generate_scenario` draws a small fault timeline from a generator
seeded by ``[seed, tag]`` — independent of both the simulation RNG and
the injector's fault RNG, so the *shape* of scenario ``k`` never shifts
when either of those evolves. The same seed always yields the same
script (and therefore, through :func:`repro.chaos.runner.run_scenario`,
a byte-identical verdict).

Generated scenarios stay inside the paper's operating envelope on
purpose: every fault heals (transient crashes restart, windows close by
``~70s``), loss rates stay moderate, and at most one "heavy" fault
(partition / crash / dos) appears per script — the sweep's job is to
certify safety under realistic turbulence and liveness after it clears,
not to prove theorems the protocol does not claim (e.g. progress during
a permanent quorum-killing split).
"""

from __future__ import annotations

import numpy as np

from repro.chaos.scenario import FaultAction, ScenarioScript
from repro.node.deployment import SimulationConfig

#: Seed-sequence spice for scenario generation (distinct from the
#: injector's fault-RNG tag, so generation and injection draw from
#: unrelated streams even for the same seed).
_GEN_RNG_TAG = 0xFA117

#: Faults that materially suppress quorums; one per scenario at most.
_HEAVY = ("partition", "crash", "dos")
_LIGHT = ("delay", "loss", "duplicate", "reorder")


def _window(rng: np.random.Generator, *, latest_end: float = 16.0
            ) -> tuple[float, float]:
    """A fault window on the *round* timescale.

    With the test protocol parameters a round completes in ~2.5
    simulated seconds, so windows must open within the first round or
    two to actually bite; a window opening at t=40 would start after a
    2-round scenario has already finished, making the sweep vacuous.
    """
    start = round(float(rng.uniform(0.2, 3.5)), 2)
    duration = round(float(rng.uniform(3.0, 10.0)), 2)
    return start, min(round(start + duration, 2), latest_end)


def _pick_nodes(rng: np.random.Generator, num_users: int,
                count: int) -> tuple[int, ...]:
    """Choose distinct victims from 1..n-1 (node 0 stays untouched: it
    hosts the harness's end-of-round housekeeping hook and serves as the
    always-honest observer every test reads results from)."""
    chosen = rng.choice(np.arange(1, num_users), size=count, replace=False)
    return tuple(sorted(int(node) for node in chosen))


def _heavy_action(rng: np.random.Generator, kind: str,
                  num_users: int) -> FaultAction:
    start, end = _window(rng)
    if kind == "partition":
        nodes = list(range(num_users))
        permutation = rng.permutation(num_users)
        cut = int(rng.integers(num_users // 4, 3 * num_users // 4 + 1))
        cut = max(1, min(num_users - 1, cut))
        left = tuple(sorted(int(nodes[i]) for i in permutation[:cut]))
        right = tuple(sorted(int(nodes[i]) for i in permutation[cut:]))
        return FaultAction(kind="partition", start=start, end=end,
                           groups=(left, right))
    if kind == "crash":
        return FaultAction(kind="crash", start=start, end=end,
                           nodes=_pick_nodes(rng, num_users, 1))
    return FaultAction(kind="dos", start=start, end=end,
                       nodes=_pick_nodes(rng, num_users,
                                         int(rng.integers(1, 3))))


def _light_action(rng: np.random.Generator, kind: str,
                  num_users: int) -> FaultAction:
    start, end = _window(rng)
    # Half the light faults hit every link, half a victim's links only.
    nodes = (() if rng.random() < 0.5
             else _pick_nodes(rng, num_users, 1))
    if kind == "delay":
        return FaultAction(kind="delay", start=start, end=end, nodes=nodes,
                           extra_delay=round(float(rng.uniform(0.2, 1.5)),
                                             2))
    if kind == "loss":
        return FaultAction(kind="loss", start=start, end=end, nodes=nodes,
                           rate=round(float(rng.uniform(0.05, 0.35)), 2))
    if kind == "duplicate":
        return FaultAction(kind="duplicate", start=start, end=end,
                           nodes=nodes,
                           rate=round(float(rng.uniform(0.1, 0.5)), 2),
                           jitter=round(float(rng.uniform(0.05, 0.5)), 2))
    return FaultAction(kind="reorder", start=start, end=end, nodes=nodes,
                       jitter=round(float(rng.uniform(0.1, 1.0)), 2))


def generate_scenario(seed: int, *, num_users: int = 10, rounds: int = 2,
                      max_actions: int = 3,
                      liveness_bound: float = 150.0) -> ScenarioScript:
    """Draw one reproducible scenario for ``seed``."""
    rng = np.random.default_rng([seed, _GEN_RNG_TAG])
    count = int(rng.integers(1, max_actions + 1))
    actions: list[FaultAction] = []
    heavy_used = False
    for _ in range(count):
        want_heavy = not heavy_used and float(rng.random()) < 0.4
        if want_heavy:
            heavy_used = True
            kind = str(rng.choice(_HEAVY))
            actions.append(_heavy_action(rng, kind, num_users))
        else:
            kind = str(rng.choice(_LIGHT))
            actions.append(_light_action(rng, kind, num_users))
    script = ScenarioScript(
        name=f"gen-{seed}",
        config=SimulationConfig(num_users=num_users, seed=seed),
        rounds=rounds,
        liveness_bound=liveness_bound,
        actions=tuple(sorted(actions, key=lambda a: (a.start, a.kind))),
    )
    script.validate()
    return script
