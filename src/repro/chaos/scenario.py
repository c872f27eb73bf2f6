"""Declarative chaos scenarios: a seeded timeline of fault actions.

A chaos run is an :class:`~repro.experiments.spec.ExperimentSpec` whose
measure is ``"chaos"`` — one deployment (a
:class:`~repro.node.config.SimulationConfig`, seed and substrate
included), how many rounds it runs and which payments it carries, plus
its ``faults``: :class:`FaultAction` entries, each a time window
``[start, end)`` on the run's clock (simulated seconds, or wall seconds
on a live cluster) during which one fault is in force. The actions never
touch the network themselves; :class:`repro.chaos.faults.FaultInjector`
compiles them onto a :class:`~repro.experiments.harness.Simulation` or,
per process, onto a live node. This module holds the vocabulary, the
check every deployment runs its faults through (:func:`check_faults`)
and the rules a chaos spec must meet (:func:`check_scenario`).

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
    the 1/3 a scenario may take offline.

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
    at ingress, and each receiving node blocks the senders at its own
    gate).
``spam``
    ``nodes`` broadcast ``rate`` validly signed far-future votes per
    simulated second until ``end`` (the "undecidable messages" DoS:
    signature checks pass, so only bounded buffers with future-first
    eviction and per-origin flood budgets contain it).

For link faults (``delay``/``loss``/``duplicate``/``reorder``), an empty
``nodes`` tuple means *all* links; otherwise only links whose source or
destination is listed are affected.

A scenario file is its spec's JSON — the config's ``to_json()`` plus
each action's ``to_dict()`` — so it is diffable and a verdict built from
one is byte-reproducible; a key the loader does not know is an error,
never dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.common.errors import ConfigError
from repro.common.params import LIVE_SMOKE_PARAMS

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
        unknown = set(record) - cls.__dataclass_fields__.keys()
        if unknown:
            raise ScenarioError(
                f"fault action: unknown key(s) {sorted(unknown)}")
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


def last_heal_time(actions: Iterable[FaultAction]) -> float:
    """When the final transient fault clears (0.0 when fault-free)."""
    return max((action.end for action in actions
                if action.end is not None), default=0.0)


def permanently_crashed(actions: Iterable[FaultAction]) -> frozenset[int]:
    """Nodes that crash and never restart (excluded from liveness)."""
    return frozenset(node for action in actions
                     if action.kind == "crash" and action.end is None
                     for node in action.nodes)


def check_faults(config, actions: Iterable[FaultAction]) -> None:
    """Raise a ``ScenarioError`` unless this deployment, on either
    substrate, can run every action: each passes its own checks, and a
    crash, dos, targeted-dos or attacker names always-on agents, for
    dormant pool stake has no node to act on."""
    accounts = config.num_users + config.num_observers
    core = config.population.core_size(accounts)
    for action in actions:
        action.validate(accounts)
        dormant = [node for node in action.nodes if node >= core]
        if action.kind in NODE_FAULTS and dormant:
            raise ScenarioError(
                f"{action.kind}: nodes {dormant} are dormant pool stake "
                f"(the always-on core is slots 0..{core - 1}); a "
                f"node-local fault needs always-on agents")


def check_scenario(config, actions: Iterable[FaultAction]) -> None:
    """The chaos measure's own rules, once every action has passed its
    checks: enough users for a committee, more stake than an ordinary
    step's vote threshold (else no step can ever reach quorum), and the
    paper's honest majority kept — only crashes and attackers may last
    the whole run (``end=None``), and a targeted DoS may strike anyone
    it reaches."""
    if config.num_users < 4:
        raise ScenarioError("scenario needs at least 4 users")
    stake = config.make_balances()
    threshold = config.params.step_vote_threshold
    if sum(stake) <= threshold:
        raise ScenarioError(
            f"{config.num_users} users hold {sum(stake)} units in all, "
            f"not more than a step's vote threshold ({threshold:g}): no "
            "step can reach quorum; raise initial_balance or the users")
    lost = {node for action in actions
            if action.end is None or action.kind == "targeted-dos"
            for node in action.nodes}
    if lost and 3 * sum(stake[node] for node in lost) >= sum(stake):
        raise ScenarioError(
            "users crashed for good, attacking for the whole run or "
            "in a targeted DoS's reach hold >= 1/3 of the stake, which "
            "forfeits the paper's honest-majority assumption")


def figure8_adversary(nodes: Iterable[int]) -> tuple[FaultAction, ...]:
    """Section 10.4's adversary (``equivocate`` + ``double-vote``) on
    ``nodes`` for the whole run; no nodes, no actions."""
    nodes = tuple(nodes)
    return tuple(FaultAction(kind=kind, start=0.0, nodes=nodes)
                 for kind in ("equivocate", "double-vote") if nodes)


#: The live smoke parameters with the step budget tightened: a node
#: stuck in a quorum-less round (its peers crashed or severed) burns
#: through its steps in ~9 wall seconds and reaches the
#: ConsensusHalted -> catch-up wait instead of spinning for the
#: sim-scale 30 steps. Committee sizes are untouched: W = 200 at 5 users
#: x 40 units, the stake the ``kill-partition`` builtin carries.
LIVE_CHAOS_PARAMS = replace(LIVE_SMOKE_PARAMS, max_steps=12)
