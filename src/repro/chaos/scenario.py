"""Declarative chaos scenarios: a seeded timeline of fault actions.

A :class:`ScenarioScript` is pure data — one deployment (a
:class:`~repro.node.deployment.SimulationConfig`, seed and substrate
included), how many rounds it runs and how many payments it carries,
plus a list of :class:`FaultAction` entries, each a time window
``[start, end)`` on the run's clock (simulated seconds, or wall seconds
on a live cluster) during which one fault is in force. The script never
touches the network itself; :class:`repro.chaos.faults.FaultInjector`
compiles it onto a :class:`~repro.experiments.harness.Simulation` or,
per process, onto a live node.

Fault vocabulary (the ``kind`` field):

``partition``
    Split the network into ``groups`` (complete node coverage is not
    required; ungrouped nodes share an implicit extra group). Messages
    crossing group boundaries are dropped until ``end``.
``delay``
    Add ``extra_delay`` seconds to every delivery on matching links.
``loss``
    Drop each matching delivery independently with probability ``rate``.
``duplicate``
    With probability ``rate``, deliver a second copy of the message
    ``jitter`` seconds later (exercising duplicate suppression).
``reorder``
    Add an independent uniform ``[0, jitter)`` extra delay per delivery,
    so messages overtake each other.
``crash``
    Fail-stop ``nodes`` at ``start``; if ``end`` is set they restart
    there and rejoin via certificate-verified catch-up (section 8.3).
    ``end=None`` crashes them for good.
``dos``
    Disconnect ``nodes`` (targeted denial of service) until ``end``.
``targeted-dos``
    Section 10.4's attack on proposers: inside the window, each of
    ``nodes`` is disconnected ``extra_delay`` seconds after its own
    priority announcement leaves it, and stays so until ``end``. The
    attacker reaches only ``nodes``; the stake they hold counts toward
    the 1/3 a script may take offline.

The attacker kinds make ``nodes`` misbehave, for a window or (``end=None``)
the whole run; otherwise they stay honest nodes that keep the chain:

``equivocate``
    A selected proposer sends one block version to half of its
    neighbours, a conflicting one to the rest (section 10.4, Figure 8;
    Wang's "Another Look at ALGORAND" in PAPERS.md).
``double-vote``
    Every committee vote goes to half of the neighbours, a conflicting
    one with the same sortition proof to the rest (Figure 8).
``silent``
    Never propose nor vote; still relay (offline stake).
``flood``
    ``nodes`` broadcast ``rate`` invalid-signature votes per simulated
    second until ``end`` (link-level junk; admission control rejects it
    at ingress and quarantines the senders).
``spam``
    ``nodes`` broadcast ``rate`` validly signed far-future votes per
    simulated second until ``end`` (the "undecidable messages" DoS:
    signature checks pass, so only bounded buffers with future-first
    eviction and per-origin flood budgets contain it).

For link faults (``delay``/``loss``/``duplicate``/``reorder``), an empty
``nodes`` tuple means *all* links; otherwise only links whose source or
destination is listed are affected.

Scripts serialize to/from JSON with stable key order — the config's
``to_json()`` plus each action's ``to_dict()`` — so a scenario file is
diffable and a verdict built from one is byte-reproducible; a key the
loader does not know is a :class:`ScenarioError`, never dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable

from repro.common.errors import ConfigError
from repro.common.params import LIVE_SMOKE_PARAMS
from repro.node.deployment import SimulationConfig

#: Every fault kind the injector knows how to compile.
FAULT_KINDS = ("partition", "delay", "loss", "duplicate", "reorder",
               "crash", "dos", "targeted-dos", "flood", "spam", "equivocate",
               "double-vote", "silent")

#: Kinds that run a junk-vote loop at ``rate`` votes per second.
JUNK_FAULTS = frozenset({"flood", "spam"})

#: Kinds where the target nodes are attackers, not victims: the runners
#: exclude them from the ingress-bounds audit.
ATTACKER_FAULTS = JUNK_FAULTS | {"equivocate", "double-vote", "silent"}

#: Kinds that act on the named nodes themselves, so whoever runs them
#: must host those nodes.
NODE_FAULTS = ATTACKER_FAULTS | {"crash", "dos", "targeted-dos"}

#: Kinds that mutate single deliveries on matching links.
LINK_FAULTS = frozenset({"delay", "loss", "duplicate", "reorder"})

#: Seed-sequence spice mixed with the scenario seed for fault RNG: the
#: sim runner seeds ``[seed, TAG]``, live node *i* ``[seed, TAG, i]``.
FAULT_RNG_TAG = 0xC4A05


def attacker_nodes(actions: Iterable[FaultAction]) -> frozenset[int]:
    """Nodes that run an :data:`ATTACKER_FAULTS` kind in ``actions`` —
    not the victims a partition, delay, crash or DoS names."""
    return frozenset(node for action in actions
                     if action.kind in ATTACKER_FAULTS
                     for node in action.nodes)


class ScenarioError(ConfigError):
    """A scenario script or fault action failed validation."""


def _known_keys(what: str, record: dict, cls: type) -> None:
    """Raise unless every key of ``record`` names a field of ``cls``."""
    unknown = set(record) - cls.__dataclass_fields__.keys()
    if unknown:
        raise ScenarioError(f"{what}: unknown key(s) {sorted(unknown)}")


@dataclass(frozen=True)
class FaultAction:
    """One fault window on the simulated clock."""

    kind: str
    start: float
    #: End of the window; ``None`` (the whole run) for crashes and
    #: attacker kinds only.
    end: float | None = None
    #: Partition groups (``partition`` only).
    groups: tuple[tuple[int, ...], ...] = ()
    #: Target nodes (victims, attackers, or a link filter).
    nodes: tuple[int, ...] = ()
    #: Probability per delivery (``loss``/``duplicate``); votes per
    #: second (``flood``/``spam``).
    rate: float = 0.0
    #: Added seconds per delivery (``delay``); the attacker's reaction
    #: time (``targeted-dos``).
    extra_delay: float = 0.0
    #: Extra-delay spread in seconds (``reorder``; dup copy offset).
    jitter: float = 0.0

    def validate(self, num_nodes: int) -> None:
        if self.kind not in FAULT_KINDS:
            raise ScenarioError(f"unknown fault kind {self.kind!r}")
        if self.start < 0:
            raise ScenarioError(f"{self.kind}: start must be >= 0")
        if self.end is None:
            if self.kind != "crash" and self.kind not in ATTACKER_FAULTS:
                raise ScenarioError(
                    f"{self.kind}: only crashes and attacker kinds may "
                    f"be permanent (end=None, the whole run)")
        elif self.end <= self.start:
            raise ScenarioError(
                f"{self.kind}: window must end after it starts "
                f"({self.start} .. {self.end})")
        for node in self.nodes:
            if not 0 <= node < num_nodes:
                raise ScenarioError(
                    f"{self.kind}: node {node} out of range 0..{num_nodes - 1}")
        if self.kind == "partition":
            if len(self.groups) < 2:
                raise ScenarioError("partition needs at least 2 groups")
            seen: set[int] = set()
            for group in self.groups:
                for node in group:
                    if not 0 <= node < num_nodes:
                        raise ScenarioError(
                            f"partition: node {node} out of range")
                    if node in seen:
                        raise ScenarioError(
                            f"partition: node {node} in two groups")
                    seen.add(node)
        if self.kind in NODE_FAULTS and not self.nodes:
            raise ScenarioError(f"{self.kind}: needs at least one node")
        if self.kind in JUNK_FAULTS and self.rate <= 0:
            raise ScenarioError(
                f"{self.kind}: rate (votes per second) must be positive")
        if self.kind in ("loss", "duplicate") and not 0 < self.rate <= 1:
            raise ScenarioError(f"{self.kind}: rate must be in (0, 1]")
        if self.kind == "delay" and self.extra_delay <= 0:
            raise ScenarioError("delay: extra_delay must be positive")
        if self.kind == "targeted-dos" and self.extra_delay < 0:
            raise ScenarioError("targeted-dos: extra_delay (the attacker's "
                                "reaction time) must be >= 0")
        if self.kind == "reorder" and self.jitter <= 0:
            raise ScenarioError("reorder: jitter must be positive")

    def to_dict(self) -> dict:
        record: dict = {"kind": self.kind, "start": self.start,
                        "end": self.end}
        if self.groups:
            record["groups"] = [list(group) for group in self.groups]
        if self.nodes:
            record["nodes"] = list(self.nodes)
        if self.rate:
            record["rate"] = self.rate
        if self.extra_delay:
            record["extra_delay"] = self.extra_delay
        if self.jitter:
            record["jitter"] = self.jitter
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "FaultAction":
        _known_keys("fault action", record, cls)
        return cls(
            kind=record["kind"],
            start=float(record["start"]),
            end=None if record.get("end") is None else float(record["end"]),
            groups=tuple(tuple(int(n) for n in group)
                         for group in record.get("groups", ())),
            nodes=tuple(int(n) for n in record.get("nodes", ())),
            rate=float(record.get("rate", 0.0)),
            extra_delay=float(record.get("extra_delay", 0.0)),
            jitter=float(record.get("jitter", 0.0)),
        )


@dataclass(frozen=True)
class ScenarioScript:
    """One chaos run: a deployment, its length and its fault timeline."""

    name: str
    config: SimulationConfig
    rounds: int = 2
    payments: int = 0
    actions: tuple[FaultAction, ...] = ()
    #: Seconds after the last fault heals within which a new block must
    #: commit (the paper's weak-synchrony liveness promise, section 3).
    liveness_bound: float = 150.0
    #: Optional hard cap on the run's clock; ``None`` derives one from
    #: the protocol parameters, fault windows, and the liveness bound.
    time_limit: float | None = None

    def validate(self) -> None:
        self.config.validate()
        users = self.config.num_users
        if users < 4:
            raise ScenarioError("scenario needs at least 4 users")
        if self.rounds < 1:
            raise ScenarioError("scenario needs at least 1 round")
        if self.liveness_bound <= 0:
            raise ScenarioError("liveness_bound must be positive")
        for action in self.actions:
            action.validate(users)
        # Only crashes and attackers may last the whole run (end=None);
        # a targeted DoS may strike anyone it reaches.
        lost = {node for action in self.actions
                if action.end is None or action.kind == "targeted-dos"
                for node in action.nodes}
        stake = self.config.make_balances()
        if lost and 3 * sum(stake[node] for node in lost) >= sum(stake):
            raise ScenarioError(
                "users crashed for good, attacking for the whole run or "
                "in a targeted DoS's reach hold >= 1/3 of the stake, which "
                "forfeits the paper's honest-majority assumption")

    def last_heal_time(self) -> float:
        """When the final transient fault clears (0.0 when fault-free)."""
        ends = [action.end for action in self.actions
                if action.end is not None]
        return max(ends, default=0.0)

    def permanently_crashed(self) -> frozenset[int]:
        """Nodes that crash and never restart (excluded from liveness)."""
        gone: set[int] = set()
        for action in self.actions:
            if action.kind == "crash" and action.end is None:
                gone.update(action.nodes)
        return frozenset(gone)

    def attacker_nodes(self) -> frozenset[int]:
        """Nodes that run an attacker kind (excluded from audits)."""
        return attacker_nodes(self.actions)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "config": self.config.to_json(),
            "rounds": self.rounds,
            "payments": self.payments,
            "actions": [action.to_dict() for action in self.actions],
            "liveness_bound": self.liveness_bound,
            "time_limit": self.time_limit,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, record: dict) -> "ScenarioScript":
        _known_keys("scenario", record, cls)
        try:
            script = cls(
                name=str(record["name"]),
                config=SimulationConfig.from_json(record["config"]),
                rounds=int(record.get("rounds", 2)),
                payments=int(record.get("payments", 0)),
                actions=tuple(FaultAction.from_dict(action)
                              for action in record.get("actions", ())),
                liveness_bound=float(record.get("liveness_bound", 150.0)),
                time_limit=(None if record.get("time_limit") is None
                            else float(record["time_limit"])),
            )
        except (KeyError, TypeError) as error:
            raise ScenarioError(
                f"malformed scenario record: {error!r}") from None
        script.validate()
        return script

    @classmethod
    def from_json(cls, text: str) -> "ScenarioScript":
        return cls.from_dict(json.loads(text))


def partition_heal_scenario(*, num_users: int = 16, seed: int = 31,
                            start: float = 0.0,
                            end: float = 50.0) -> ScenarioScript:
    """The canonical smoke scenario: split in half, stall, heal, commit.

    While partitioned neither half can reach a BA* quorum (thresholds
    are calibrated to the full committee), so no block — and no fork —
    can form; after healing the round completes within the liveness
    bound. This is the weak-synchrony story of sections 3 and 8.3 in one
    scripted timeline.
    """
    half = num_users // 2
    return ScenarioScript(
        name="partition-heal",
        config=SimulationConfig(num_users=num_users, seed=seed),
        rounds=1,
        actions=(
            FaultAction(kind="partition", start=start, end=end,
                        groups=(tuple(range(half)),
                                tuple(range(half, num_users)))),
        ),
    )


def flood_recovery_scenario(*, num_users: int = 15, seed: int = 47,
                            start: float = 0.0,
                            end: float = 40.0) -> ScenarioScript:
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
    return ScenarioScript(
        name="flood-recovery",
        config=SimulationConfig(num_users=num_users, seed=seed),
        rounds=3,
        actions=tuple(actions),
    )


def figure8_adversary(nodes: Iterable[int]) -> tuple[FaultAction, ...]:
    """Section 10.4's adversary (``equivocate`` + ``double-vote``) on
    ``nodes`` for the whole run; no nodes, no actions."""
    nodes = tuple(nodes)
    return tuple(FaultAction(kind=kind, start=0.0, nodes=nodes)
                 for kind in ("equivocate", "double-vote") if nodes)


def byzantine_scenario(*, num_users: int = 20, seed: int = 5,
                       rounds: int = 2) -> ScenarioScript:
    """Figure 8's 20 % point: the highest fifth of the users equivocate
    and double-vote for the whole run, and the verdict must still show
    one chain, every round committed, and a conforming trace."""
    return ScenarioScript(
        name="byzantine",
        config=SimulationConfig(num_users=num_users, seed=seed),
        rounds=rounds, payments=num_users, actions=figure8_adversary(
            range(num_users - num_users // 5, num_users)))


#: The live smoke parameters with the step budget tightened: a node
#: stuck in a quorum-less round (its peers crashed or severed) burns
#: through its steps in ~9 wall seconds and reaches the
#: ConsensusHalted -> catch-up wait instead of spinning for the
#: sim-scale 30 steps. Committee sizes are untouched: W = 200 at 5 users
#: x 40 units, the stake :func:`kill_partition_scenario` carries.
LIVE_CHAOS_PARAMS = replace(LIVE_SMOKE_PARAMS, max_steps=12)


def kill_partition_scenario(*, num_users: int = 5, seed: int = 11,
                            rounds: int = 12) -> ScenarioScript:
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
    (:data:`LIVE_CHAOS_PARAMS`) the lambdas are
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
    return ScenarioScript(
        name="kill-partition",
        config=SimulationConfig(num_users=num_users, seed=seed,
                                initial_balance=40),
        rounds=rounds,
        payments=10,
        liveness_bound=30.0,
        actions=(
            FaultAction(kind="crash", start=1.5, end=4.5,
                        nodes=(victim,)),
            FaultAction(kind="partition", start=6.0, end=9.0,
                        groups=(tuple(node for node in range(num_users)
                                      if node != isolated),
                                (isolated,))),
        ),
    )
