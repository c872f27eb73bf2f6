"""One builder of a node, one reader of what a run left behind.

Everything a substrate derives from a deployment's description
(:class:`~repro.node.config.SimulationConfig`) to stand up the protocol
stack lives here, so the sim harness, the aggregated population and a
live node process configure and wire the *same* node instead of three
look-alikes:

* :func:`derive_genesis` — key pairs, balances, the key -> slot index
  and the genesis seed, all functions of ``config.seed``, so every
  process of a deployment derives the same :class:`Genesis` without
  exchanging it.
* :func:`build_node` — the only place a node stack is wired: chain,
  agent, admission gate, relay damper. The clock and the transport are
  injected, which is all that distinguishes the substrates here.
* :func:`harvest` — the one reader of a node stack's runtime counters
  into its registry, on either substrate; :func:`node_counters` names
  one agent's, and :func:`fold` is how copies combine.
* :class:`RunOutcome` — what a finished run left behind, one
  :class:`NodeRun` per reporting node, the same shape on either
  substrate: every post-run reader (chaos findings, experiment
  measures) reads it.
* :func:`payment_plan` — the one payment schedule both substrates'
  ``submit_payments`` draw from.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.common.encoding import encode
from repro.crypto.backend import CryptoBackend, KeyPair
from repro.crypto.hashing import H
from repro.ledger.arraystate import AccountIndex
from repro.ledger.block import Block
from repro.ledger.blockchain import Blockchain
from repro.node.agent import Node
from repro.node.metrics import RoundRecord
from repro.node.registry import BlockRegistry
from repro.runtime.damping import attach_damping
from repro.sortition.selection import selection_stats

if TYPE_CHECKING:
    from repro.node.config import SimulationConfig
    # A node process does not load repro.substrate.
    from repro.substrate.api import Clock, Transport


# ---------------------------------------------------------------------
# The builder: what every substrate derives and wires identically
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Genesis:
    """What all nodes of a deployment agree on before round 1."""

    #: One key pair per node, observers last (index == node index).
    keypairs: list[KeyPair]
    #: The genesis ledger. Zero-balance accounts have no entry — they
    #: exist as keys only — on every substrate.
    initial_balances: dict[bytes, int]
    seed: bytes
    #: The deployment's one public key -> slot map, slot == node index
    #: for every key pair: every chain's array state resolves through it
    #: and admission's origin-blame lookups read it.
    index_of: AccountIndex


def derive_genesis(config: SimulationConfig,
                   backend: CryptoBackend) -> Genesis:
    """Keys, balances and genesis seed — all functions of ``config.seed``."""
    balances = config.make_balances() + [0] * config.num_observers
    keypairs = [backend.keypair(H(b"user-key", encode([config.seed, i])))
                for i in range(len(balances))]
    return Genesis(
        keypairs=keypairs,
        initial_balances={kp.public: balance
                          for kp, balance in zip(keypairs, balances)
                          if balance > 0},
        seed=H(b"genesis", encode(config.seed)),
        index_of=AccountIndex(kp.public for kp in keypairs),
    )


def build_node(config: SimulationConfig, genesis: Genesis, index: int, *,
               clock: Clock, transport: Transport,
               backend: CryptoBackend, registry: BlockRegistry,
               obs=None, chain: Blockchain | None = None) -> Node:
    """Wire one node stack onto an injected clock and transport.

    ``chain`` defaults to a fresh genesis chain on the deployment's
    account index; the population passes replicas of one.
    """
    if chain is None:
        chain = Blockchain(genesis.initial_balances, genesis.seed,
                           config.params.seed_refresh_interval,
                           index=genesis.index_of)
    node = Node(
        index=index, env=clock, keypair=genesis.keypairs[index],
        backend=backend, params=config.params, chain=chain,
        interface=transport, registry=registry,
        runtime=config.runtime,
        index_of=genesis.index_of, obs=obs)
    if config.runtime.relay_damping:
        attach_damping(node)
    return node


# ---------------------------------------------------------------------
# The harvest: which counters a node stack keeps, their names, one fold
# ---------------------------------------------------------------------

#: Name endings of peaks: copies fold by max (and a peak is a gauge);
#: every other number is a count, and copies sum.
PEAKS = ("high_water", "max_lag_s", ".now")


def node_counters(node: Node) -> dict[str, int]:
    """One agent's runtime counters under their registry names.

    The router's unknown-kind drops, the admission gate's tallies (the
    vote buffer's marks are the gate's: it sets the bound), and the
    relay damper's where the node has one.
    """
    admission, buffer = node.admission, node.buffer
    counters = {"router.unknown_kind": node.router.unknown_kinds,
                "admission.admitted": admission.admitted}
    for reason, count in admission.rejected.items():
        counters["admission.rejected." + reason] = count
    counters["admission.buffer_high_water"] = buffer.high_water
    counters["admission.buffer_evicted"] = buffer.evicted
    counters["admission.buffer_rejected"] = buffer.rejected
    damper = node.damper
    if damper is not None:
        counters["damping.suppressed"] = damper.suppressed
        counters["damping.observed"] = damper.observed
    return counters


def fold(totals: dict, numbers: dict) -> None:
    """Fold one copy's ``numbers`` into ``totals``: counts sum,
    :data:`PEAKS` take the max. Agents of one population, node processes
    of one cluster and their snapshots all fold by this rule."""
    for name, value in numbers.items():
        if name.endswith(PEAKS):
            totals[name] = max(totals.get(name, value), value)
        else:
            totals[name] = totals.get(name, 0) + value


def fold_snapshots(snapshots) -> dict:
    """Registry snapshots of several node stacks, folded into one."""
    folded: dict = {"counters": {}, "gauges": {}}
    for snapshot in snapshots:
        fold(folded["counters"], snapshot.get("counters", {}))
        fold(folded["gauges"], snapshot.get("gauges", {}))
    return {section: dict(sorted(numbers.items()))
            for section, numbers in folded.items()}


def harvest(metrics, *, clock, backend: CryptoBackend,
            agents: dict[str, int], conformance=None,
            counters: dict | None = None,
            gauges: dict | None = None) -> None:
    """Write a node stack's runtime numbers into ``metrics``.

    The one reader both substrates register on their bus: the kernel's
    ``simloop.*`` (a live clock is the same kernel), the operations the
    crypto backend performed (``crypto.*``) and the selections made with
    it (``sortition.*``), the folded ``agents`` (:func:`node_counters`)
    and the conformance monitor's — then the substrate's own
    ``counters``/``gauges`` (byte movers, population).
    """
    for name in ("events_processed", "immediates_processed", "batch_walks",
                 "batch_deliveries", "now"):
        metrics.set_gauge("simloop." + name, getattr(clock, name))
    for name in ("signs", "verifies", "vrf_proves", "vrf_verifies"):
        metrics.set_counter("crypto." + name, getattr(backend, name))
    for name, value in selection_stats(backend).as_dict().items():
        metrics.set_counter("sortition." + name, value)
    for name, value in agents.items():
        if name.endswith(PEAKS):
            metrics.set_gauge(name, value)
        else:
            metrics.set_counter(name, value)
    if conformance is not None:
        conformance.harvest(metrics)
    for name, value in (counters or {}).items():
        metrics.set_counter(name, value)
    for name, value in (gauges or {}).items():
        metrics.set_gauge(name, value)


# ---------------------------------------------------------------------
# The outcome: what a finished run left behind, read the same way
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class NodeRun:
    """What one node holds once its run is over, on either substrate."""

    index: int
    #: Committed blocks, round 1 first.
    blocks: tuple[Block, ...]
    #: The stored seed of every round, genesis (round 0) first.
    seeds: tuple[bytes, ...]
    #: Per committed round: the value its certificate and its final
    #: certificate certify (``None`` where the node holds none).
    certified: tuple[tuple[bytes | None, bytes | None], ...]
    rounds: tuple[RoundRecord, ...]
    #: ``(round, step, seconds)`` of every vote count that returned.
    step_durations: tuple[tuple[int, str, float], ...]
    #: Its runtime numbers under registry names.
    counters: dict
    #: Per committed round: the votes its certificate carries (``None``
    #: where the node holds none).
    certificate_votes: tuple[int | None, ...] = ()

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def tip(self) -> bytes | None:
        return self.blocks[-1].block_hash if self.blocks else None

    def round_record(self, round_number: int) -> RoundRecord | None:
        for record in self.rounds:
            if record.round_number == round_number:
                return record
        return None

    @classmethod
    def of(cls, node: Node, counters: dict) -> "NodeRun":
        """Read a node stack in this process."""
        chain = node.chain
        committed = range(1, chain.height + 1)

        def value(certificate) -> bytes | None:
            return getattr(certificate, "value", None)

        return cls(
            index=node.index,
            blocks=tuple(chain.block_at(r) for r in committed),
            seeds=tuple(chain.seed_of_round(r)
                        for r in range(chain.height + 1)),
            certified=tuple((value(chain.certificate_at(r)),
                             value(chain.final_certificate_at(r)))
                            for r in committed),
            rounds=tuple(node.metrics.rounds),
            step_durations=tuple(node.metrics.step_durations),
            counters=counters,
            certificate_votes=tuple(
                None if certificate is None else len(certificate.votes)
                for certificate in map(chain.certificate_at, committed)))

    def to_record(self) -> dict:
        """Plain data for a ``result`` message (blocks as wire bytes)."""
        from repro.network.wire import encode_block  # live only

        return {
            "blocks": [encode_block(block) for block in self.blocks],
            "seeds": list(self.seeds),
            "certified": [list(pair) for pair in self.certified],
            "rounds": [list(dataclasses.astuple(record))
                       for record in self.rounds],
            "steps": [list(step) for step in self.step_durations],
            "metrics": self.counters,
            "certificate_votes": list(self.certificate_votes),
        }

    @classmethod
    def from_record(cls, index: int, record: dict) -> "NodeRun":
        """Rebuild a node process's run from its ``result`` message."""
        from repro.network.wire import decode_block  # live only

        return cls(
            index=index,
            blocks=tuple(decode_block(raw) for raw in record["blocks"]),
            seeds=tuple(record["seeds"]),
            certified=tuple(tuple(pair) for pair in record["certified"]),
            rounds=tuple(RoundRecord(*fields)
                         for fields in record["rounds"]),
            step_durations=tuple(tuple(step) for step in record["steps"]),
            counters=dict(record["metrics"]),
            certificate_votes=tuple(record["certificate_votes"]))


@dataclass(frozen=True)
class RunOutcome:
    """A finished run, the same shape on either substrate.

    Built on demand after ``run_rounds`` — ``Simulation.outcome()`` from
    node objects, ``LiveCluster.outcome()`` from the processes' ``result``
    messages — and read by every post-run reader: the chaos findings
    and the experiment measures.
    """

    #: One run per node that reported, by index.
    runs: dict[int, NodeRun]
    #: Nodes the deployment ran; an index without a run reported nothing.
    slots: int
    #: The clock when the run ended.
    now: float
    #: A backend that verifies this deployment's keys (seed audits);
    #: ``snapshot`` was read before any audit.
    backend: CryptoBackend
    #: The ``ConformanceMonitor`` that checked the run's trace, where
    #: the run was traced (the chaos measure's verdict reads it).
    conformance: object | None = None
    #: Every runtime number under its registry name, folded over nodes.
    snapshot: dict = field(default_factory=dict)
    #: The run's merged JSONL trace, where one was written.
    trace_path: str | None = None

    @property
    def heights(self) -> list[int | None]:
        """Chain height per node slot; ``None`` where nothing reported."""
        return [self.runs[index].height if index in self.runs else None
                for index in range(self.slots)]

    def chains_equal(self) -> bool:
        """Every reporting node holds the same chain."""
        return len({(run.height, run.tip)
                    for run in self.runs.values()}) == 1

    def agreed_hashes(self, round_number: int) -> set[bytes]:
        """Distinct block hashes committed at ``round_number`` (safety: 1)."""
        return {run.blocks[round_number - 1].block_hash
                for run in self.runs.values()
                if run.height >= round_number}

    def round_latencies(self, round_number: int) -> list[float]:
        """Per-node completion time of ``round_number`` (seconds)."""
        records = (run.round_record(round_number)
                   for run in self.runs.values())
        return [record.duration for record in records if record is not None]


def payment_plan(rng, senders: int, count: int,
                 can_pay: Callable[[int], bool] | None = None
                 ) -> list[tuple[int, int]]:
    """``(sender, recipient)`` index pairs of ``count`` payments.

    Payment ``k`` is sent by ``k % senders`` (round-robin keeps each
    sender's nonces sequential) to a recipient drawn from ``rng`` among
    the others. A sender ``can_pay`` refuses is skipped *before* the
    draw (the sim shares ``rng`` with its network model, so the stream
    must not move). A lone user has nobody to pay: the plan is empty.
    """
    plan: list[tuple[int, int]] = []
    for k in range(count if senders >= 2 else 0):
        sender = k % senders
        if can_pay is not None and not can_pay(sender):
            continue
        recipient = int(rng.integers(senders - 1))
        if recipient >= sender:
            recipient += 1
        plan.append((sender, recipient))
    return plan
