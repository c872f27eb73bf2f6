"""Chaos scenarios as specs: the builtins and seeded generation.

Every builder here returns an :class:`~repro.experiments.spec.ExperimentSpec`
whose measure is ``"chaos"``, which
:func:`repro.experiments.sweep.run_point` runs like any other point.
The builtins are the scripted smoke runs the CLI names
(``--builtin``); :func:`generate_scenario` draws a small fault timeline
from a generator seeded by ``[seed, tag]`` — independent of both the
simulation RNG and the injector's fault RNG, so the *shape* of scenario
``k`` never shifts when either of those evolves. The same seed always
yields the same spec (and therefore a byte-identical verdict).

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

from repro.chaos.scenario import FaultAction, figure8_adversary
from repro.experiments.spec import LIVENESS_BOUND, ExperimentSpec
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
                      liveness_bound: float = LIVENESS_BOUND
                      ) -> ExperimentSpec:
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
    spec = ExperimentSpec(
        "chaos", SimulationConfig(num_users=num_users, seed=seed),
        rounds=rounds,
        faults=tuple(sorted(actions, key=lambda a: (a.start, a.kind))),
        liveness_bound=liveness_bound,
    )
    spec.validate()
    return spec


def partition_heal_scenario(*, num_users: int = 16, seed: int = 31,
                            start: float = 0.0,
                            end: float = 50.0) -> ExperimentSpec:
    """The canonical smoke scenario: split in half, stall, heal, commit.

    While partitioned neither half can reach a BA* quorum (thresholds
    are calibrated to the full committee), so no block — and no fork —
    can form; after healing the round completes within the liveness
    bound. This is the weak-synchrony story of sections 3 and 8.3 in one
    scripted timeline.
    """
    half = num_users // 2
    return ExperimentSpec(
        "chaos", SimulationConfig(num_users=num_users, seed=seed),
        rounds=1,
        faults=(
            FaultAction(kind="partition", start=start, end=end,
                        groups=(tuple(range(half)),
                                tuple(range(half, num_users)))),
        ),
    )


def flood_recovery_scenario(*, num_users: int = 15, seed: int = 47,
                            start: float = 0.0,
                            end: float = 40.0) -> ExperimentSpec:
    """The ingress smoke scenario: 20% of peers flood, honest peers cope.

    The last fifth of the deployment attacks from ``start`` to ``end``:
    most spray invalid-signature votes (cheap junk), the final one sends
    validly signed far-future votes (the undecidable-message DoS). The
    verdict must show honest vote buffers and egress lanes inside their
    budgets throughout (the ``ingress-bounds`` audit), no safety
    violation, and rounds still committing after the flood stops.

    Attackers never exceed the paper's 1/3 (being quarantined silences
    an attacker's honest votes too): below seven users there is one,
    running both attacks — the 5-process live cluster of 40-stake nodes
    keeps 160/200 of its stake voting.
    """
    attackers = min(max(2, num_users // 5), (num_users - 1) // 3)
    spammer = num_users - 1
    flooders = range(num_users - attackers, spammer) or (spammer,)
    actions = [
        FaultAction(kind="flood", start=start, end=end, nodes=(node,),
                    rate=60.0)
        for node in flooders
    ]
    actions.append(FaultAction(kind="spam", start=start, end=end,
                               nodes=(spammer,), rate=400.0))
    return ExperimentSpec(
        "chaos", SimulationConfig(num_users=num_users, seed=seed),
        rounds=3,
        faults=tuple(actions),
    )


def byzantine_scenario(*, num_users: int = 20, seed: int = 5,
                       rounds: int = 2) -> ExperimentSpec:
    """Figure 8's 20 % point: the highest fifth of the users equivocate
    and double-vote for the whole run, and the verdict must still show
    one chain, every round committed, and a conforming trace."""
    return ExperimentSpec(
        "chaos", SimulationConfig(num_users=num_users, seed=seed),
        rounds=rounds, payments=((num_users, 0),),
        faults=figure8_adversary(range(num_users - num_users // 5,
                                       num_users)))


def kill_partition_scenario(*, num_users: int = 5, seed: int = 11,
                            rounds: int = 12) -> ExperimentSpec:
    """The live-substrate smoke scenario: SIGKILL, rejoin, isolate, heal.

    One node is crashed mid-run and restarted (on the live substrate
    that is a real SIGKILL and a respawned process), then a different
    node is partitioned off and healed. Both victims must rejoin via
    certificate-verified catch-up (section 8.3) and the cluster must
    still converge on byte-identical chains — the full weak-synchrony
    recovery story on a deployment sized so that any single victim
    leaves 80% of the stake online (BA* quorums keep forming). Its
    config carries 40 units a user, the stake the live chaos scale is
    sized for: at the sim's default 10 units, W = 50 < T·τ_step and no
    step could reach quorum.

    Timing: at the live chaos parameter scale
    (:data:`~repro.chaos.scenario.LIVE_CHAOS_PARAMS`) the lambdas are
    timeout *ceilings* — a healthy loopback round commits in well under
    a second, so the windows here are tight: the crash covers roughly
    rounds 2-8 and the partition starts near where a fast host finishes
    its rounds. Recovery does not depend on that pacing, though:
    finished processes linger and keep serving catch-up until the
    coordinator releases them, so both victims converge even when the
    survivors raced far ahead (and on slow hosts, where the windows
    land mid-run, quorums keep forming throughout).
    """
    victim = num_users - 2
    isolated = num_users - 1
    return ExperimentSpec(
        "chaos", SimulationConfig(num_users=num_users, seed=seed,
                                  initial_balance=40),
        rounds=rounds,
        payments=((10, 0),),
        liveness_bound=30.0,
        faults=(
            FaultAction(kind="crash", start=1.5, end=4.5,
                        nodes=(victim,)),
            FaultAction(kind="partition", start=6.0, end=9.0,
                        groups=(tuple(node for node in range(num_users)
                                      if node != isolated),
                                (isolated,))),
        ),
    )
