"""One description of a deployment, one builder of a node.

Everything a substrate needs to stand up the protocol stack lives here,
so the sim harness, the aggregated population and a live node process
configure and wire the *same* node instead of three look-alikes:

* :class:`SimulationConfig` — six scalars plus one frozen group per
  consuming layer: :class:`NetworkConfig` (gossip fabric),
  :class:`RuntimeConfig` (verification cache, admission gate, relay
  damping), :class:`PopulationConfig` (who is an always-on agent, who
  dormant pool stake) and :class:`SubstrateConfig` (virtual time in
  one process, or OS processes over sockets). Each group owns its
  ``validate()``; :meth:`SimulationConfig.validate` adds the cross-field
  checks. :meth:`SimulationConfig.to_json` / ``from_json`` are what
  crosses a process boundary: a live node runs on the coordinator's
  config, not on defaults of its own.
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
* :func:`deploy` — the harness ``config.substrate`` selects.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.common.encoding import encode
from repro.common.errors import (
    BalancesError,
    ConfigError,
    LatencyModelError,
    PopulationError,
)
from repro.common.params import ProtocolParams, TEST_PARAMS
from repro.crypto.backend import CryptoBackend, FastBackend, KeyPair
from repro.crypto.hashing import H
from repro.ledger.arraystate import AccountIndex
from repro.ledger.block import Block
from repro.ledger.blockchain import Blockchain
from repro.node.agent import Node
from repro.node.metrics import RoundRecord
from repro.node.registry import BlockRegistry
from repro.runtime.admission import AdmissionConfig, QuarantineDirectory
from repro.runtime.cache import VerificationCache
from repro.runtime.damping import attach_damping

if TYPE_CHECKING:  # typing only: a node process does not load repro.substrate
    from repro.substrate.api import Clock, Transport


@dataclass(frozen=True)
class NetworkConfig:
    """Gossip-fabric knobs (the message-carrying layer of the sim)."""

    #: Per-node uplink in bits/second; ``None`` disables bandwidth modeling.
    bandwidth_bps: float | None = 20e6
    #: "city" uses the 20-city WAN model; "uniform" a constant latency.
    latency_model: str = "city"
    uniform_latency: float = 0.05
    peers_per_node: int = 4
    #: Re-randomize every node's gossip peers after each round (§8.4:
    #: "Algorand replaces gossip peers each round, which helps users
    #: recover from being possibly disconnected").
    reshuffle_peers_each_round: bool = False
    #: Rounds of gossip duplicate-suppression memory per node, on both
    #: substrates (:class:`repro.network.gossip.RelayCore`).
    seen_horizon_rounds: int = 2

    def validate(self) -> None:
        if self.bandwidth_bps is not None and self.bandwidth_bps <= 0:
            raise ConfigError(
                f"bandwidth_bps must be positive or None, "
                f"got {self.bandwidth_bps}")
        if self.latency_model not in ("city", "uniform"):
            raise LatencyModelError(
                f"unknown latency model {self.latency_model!r} "
                f"(expected 'city' or 'uniform')")
        if self.uniform_latency < 0:
            raise ConfigError(
                f"uniform_latency must be >= 0, got {self.uniform_latency}")
        if self.peers_per_node < 1:
            raise ConfigError(
                f"peers_per_node must be >= 1, got {self.peers_per_node}")
        if (not isinstance(self.seen_horizon_rounds, int)
                or self.seen_horizon_rounds < 1):
            raise ConfigError(
                f"seen_horizon_rounds must be an integer >= 1, "
                f"got {self.seen_horizon_rounds!r}")


@dataclass(frozen=True)
class RuntimeConfig:
    """Runtime layers wrapped around every node."""

    #: Share context-independent verification verdicts (VRF proofs,
    #: envelope signatures) across nodes via a per-simulation
    #: :class:`repro.runtime.VerificationCache`. Context-dependent checks
    #: (seeds, balances, vote counting) still run per node. ``False``
    #: reproduces the pre-cache behavior bit-for-bit.
    use_verification_cache: bool = True
    #: Budgets/weights of every node's message gate
    #: (:mod:`repro.runtime.admission`: sortition-gated admission,
    #: bounded vote buffers and egress lanes, peer health scoring, and a
    #: network quarantine directory); defaults when ``None``.
    admission: AdmissionConfig | None = None
    #: Quorum-trimmed relay (:mod:`repro.runtime.damping`): every node
    #: stops forwarding votes for a ``(round, step, value)`` once its
    #: local tally crosses the step threshold. The agreed blocks,
    #: proposers, and seeds are identical with this on or off.
    relay_damping: bool = True

    def validate(self) -> None:
        self.admission_budgets().validate()

    def admission_budgets(self) -> AdmissionConfig:
        """The admission budgets in force."""
        return self.admission or AdmissionConfig()


@dataclass(frozen=True)
class PopulationConfig:
    """Who is an always-on agent of the deployment's
    :class:`repro.node.population.Population`, and who dormant stake."""

    #: ``"full"``: every user (and observer) is a live agent for the
    #: whole run. ``"aggregated"``: only the first ``always_on_core``
    #: users are; the rest are weighted pool stake, materialized as full
    #: agents for the rounds sortition selects them. With
    #: ``always_on_core >= num_users`` that *is* ``"full"``.
    mode: str = "full"
    #: Aggregated mode: how many always-on full agents (lowest indices).
    always_on_core: int = 16
    #: Aggregated mode: BinaryBA* steps covered by the per-round pool
    #: pass (4 covers the honest clean path incl. next-three steering).
    steps_ahead: int = 4

    def validate(self) -> None:
        if self.mode not in ("full", "aggregated"):
            raise PopulationError(
                f"unknown population mode {self.mode!r} "
                f"(expected 'full' or 'aggregated')")
        if self.mode == "aggregated":
            if self.always_on_core < 1:
                raise PopulationError(
                    f"always_on_core must be >= 1, "
                    f"got {self.always_on_core}")
            if self.steps_ahead < 1:
                raise PopulationError(
                    f"steps_ahead must be >= 1, got {self.steps_ahead}")

    def core_size(self, accounts: int) -> int:
        """How many of ``accounts`` (lowest indices) are always on."""
        if self.mode == "full":
            return accounts
        return min(self.always_on_core, accounts)


@dataclass(frozen=True)
class SubstrateConfig:
    """What carries the protocol code (see :mod:`repro.substrate`).

    ``"sim"`` runs everything in one process on the deterministic
    virtual clock (the default; byte-reproducible). ``"live"`` spawns
    one OS process per node, each running
    :class:`~repro.live.clock.LiveClock` inside an asyncio loop and
    exchanging :mod:`repro.network.wire` frames over real sockets.
    """

    kind: str = "sim"
    #: Live mode: ``"uds"`` (Unix domain sockets, same host, default)
    #: or ``"tcp"`` (loopback or LAN).
    transport: str = "uds"
    #: TCP host nodes bind and dial; UDS mode ignores it.
    host: str = "127.0.0.1"
    #: TCP base port; 0 lets the OS assign ephemeral ports (the
    #: coordinator distributes the resulting address map, so 0 is safe
    #: and avoids collisions between concurrent clusters).
    base_port: int = 0
    #: Directory for UDS sockets and control files; ``None`` uses a
    #: fresh temporary directory per cluster.
    runtime_dir: str | None = None
    #: Seconds a node waits for peers/coordinator before giving up.
    connect_timeout: float = 30.0
    #: Max envelopes handed to the node per inbox-drain pass; arrivals
    #: beyond it stay queued for the next pass so one chatty peer
    #: cannot starve timers.
    drain_budget: int = 128
    #: Bound on the per-node receive queue (oldest dropped beyond it).
    rx_queue_limit: int = 4096

    def validate(self) -> None:
        if self.kind not in ("sim", "live"):
            raise ConfigError(
                f"unknown substrate kind {self.kind!r} "
                f"(expected 'sim' or 'live')")
        if self.transport not in ("uds", "tcp"):
            raise ConfigError(
                f"unknown live transport {self.transport!r} "
                f"(expected 'uds' or 'tcp')")
        if self.base_port < 0 or self.base_port > 65535:
            raise ConfigError(
                f"base_port must be in [0, 65535], got {self.base_port}")
        if self.connect_timeout <= 0:
            raise ConfigError(
                f"connect_timeout must be positive, "
                f"got {self.connect_timeout}")
        if self.drain_budget < 1:
            raise ConfigError(
                f"drain_budget must be >= 1, got {self.drain_budget}")
        if self.rx_queue_limit < 1:
            raise ConfigError(
                f"rx_queue_limit must be >= 1, got {self.rx_queue_limit}")


@dataclass
class SimulationConfig:
    """Parameters of one deployment (simulated or live).

    Six scalars plus one frozen group per consuming layer::

        SimulationConfig(num_users=50, seed=11,
                         network=NetworkConfig(bandwidth_bps=None),
                         population=PopulationConfig(mode="aggregated"))

    Change a knob with ``dataclasses.replace`` on the group that owns it.
    """

    num_users: int = 20
    params: ProtocolParams = TEST_PARAMS
    seed: int = 0
    #: Currency units per user ("equal share of money", section 10).
    initial_balance: int = 10
    #: Optional weight list overriding the equal distribution.
    balances: list[int] | None = None
    #: Extra zero-stake nodes appended after the weighted users. They
    #: exercise the paper's "passive participation" property (section 7).
    num_observers: int = 0
    network: NetworkConfig = NetworkConfig()
    runtime: RuntimeConfig = RuntimeConfig()
    population: PopulationConfig = PopulationConfig()
    substrate: SubstrateConfig = SubstrateConfig()

    # -- serialization (what crosses a process boundary) ---------------

    def to_json(self) -> dict:
        """Plain-data form: nested dicts, JSON-safe as is."""
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, record: dict) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_json` output.

        A field this version does not know is a ``TypeError`` — a node
        process must never run on half of what the coordinator meant.
        """
        data = dict(record)
        data["params"] = ProtocolParams(**data["params"])
        runtime = dict(data["runtime"])
        if runtime["admission"] is not None:
            runtime["admission"] = AdmissionConfig(**runtime["admission"])
        data["runtime"] = RuntimeConfig(**runtime)
        data["network"] = NetworkConfig(**data["network"])
        data["population"] = PopulationConfig(**data["population"])
        data["substrate"] = SubstrateConfig(**data["substrate"])
        return cls(**data)

    def validate(self) -> None:
        """Raise a typed :class:`~repro.common.errors.ConfigError` subclass
        on any inconsistency. Invoked by the harness before wiring
        anything, so misconfigurations fail fast with one clear error.
        Group-local checks live on the groups; this method adds the
        cross-field ones."""
        if self.num_users < 1:
            raise PopulationError(
                f"num_users must be >= 1, got {self.num_users}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.num_observers < 0:
            raise PopulationError(
                f"num_observers must be >= 0, got {self.num_observers}")
        if self.initial_balance < 0:
            raise BalancesError(
                f"initial_balance must be >= 0, got {self.initial_balance}")
        if self.balances is not None:
            if len(self.balances) != self.num_users:
                raise BalancesError(
                    f"balances length ({len(self.balances)}) must equal "
                    f"num_users ({self.num_users})")
            if any(balance < 0 for balance in self.balances):
                raise BalancesError("balances must be non-negative")
        self.network.validate()
        self.runtime.validate()
        self.population.validate()
        self.substrate.validate()
        if self.population.mode == "aggregated" and self.num_observers:
            raise PopulationError(
                "aggregated population does not support observers "
                "(use mode='full')")

    def make_balances(self) -> list[int]:
        if self.balances is not None:
            if len(self.balances) != self.num_users:
                raise BalancesError(
                    f"balances length ({len(self.balances)}) must equal "
                    f"num_users ({self.num_users})")
            return list(self.balances)
        return [self.initial_balance] * self.num_users


def deploy(config: SimulationConfig, **kwargs):
    """Build the harness ``config.substrate`` selects.

    Returns a :class:`~repro.experiments.harness.Simulation` for
    ``kind="sim"`` (the default) or a
    :class:`~repro.live.cluster.LiveCluster` for ``kind="live"``; both
    expose ``submit_payments`` / ``run_rounds`` / ``outcome`` (one
    :class:`RunOutcome`), and both take ``faults=`` — so
    ``deploy(config, faults=[...])`` stands up a Byzantine deployment on
    either substrate.
    """
    if config.substrate.kind == "live":
        from repro.live.cluster import LiveCluster

        return LiveCluster(config, **kwargs)
    from repro.experiments.harness import Simulation

    return Simulation(config, **kwargs)


# ---------------------------------------------------------------------
# The builder: what every substrate derives and wires identically
# ---------------------------------------------------------------------


def make_backend(config: SimulationConfig,
                 inner: CryptoBackend | None = None) -> CryptoBackend:
    """The crypto backend the nodes share: ``inner`` (fast by default)
    wrapped in the :class:`VerificationCache` that memoizes its checks
    and counts what reaches it, or bare when the cache is off."""
    inner = inner if inner is not None else FastBackend()
    if not config.runtime.use_verification_cache:
        return inner
    return VerificationCache(inner)


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
               obs=None, directory: QuarantineDirectory | None = None,
               chain: Blockchain | None = None) -> Node:
    """Wire one node stack onto an injected clock and transport.

    ``chain`` defaults to a fresh genesis chain on the deployment's
    account index; the population passes replicas of one.
    ``directory`` is the network-wide quarantine state (sim only: a live
    node scores its peers locally and severs nobody else's links).
    """
    if chain is None:
        chain = Blockchain(genesis.initial_balances, genesis.seed,
                           config.params.seed_refresh_interval,
                           index=genesis.index_of)
    node = Node(
        index=index, env=clock, keypair=genesis.keypairs[index],
        backend=backend, params=config.params, chain=chain,
        interface=transport, registry=registry,
        admission=config.runtime.admission_budgets(), directory=directory,
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
    dropped = 0
    for snapshot in snapshots:
        fold(folded["counters"], snapshot.get("counters", {}))
        fold(folded["gauges"], snapshot.get("gauges", {}))
        dropped += snapshot.get("dropped_events", 0)
    folded = {section: dict(sorted(numbers.items()))
              for section, numbers in folded.items()}
    if dropped:
        folded["dropped_events"] = dropped
    return folded


def harvest(metrics, *, clock, backend: CryptoBackend,
            sortition: dict[str, int], agents: dict[str, int],
            conformance=None, counters: dict | None = None,
            gauges: dict | None = None) -> None:
    """Write a node stack's runtime numbers into ``metrics``.

    The one reader both substrates register on their bus: the kernel's
    ``simloop.*`` (a live clock is the same kernel), the verification
    cache's look-ups (``cache.*``) and the crypto operations that
    reached its inner backend (``crypto.*``), this run's sortition
    tallies, the folded ``agents`` (:func:`node_counters`) and the
    conformance monitor's — then the substrate's own
    ``counters``/``gauges`` (byte movers, population).
    """
    for name in ("events_processed", "immediates_processed", "batch_walks",
                 "batch_deliveries", "now"):
        metrics.set_gauge("simloop." + name, getattr(clock, name))
    if isinstance(backend, VerificationCache):
        for name in ("hits", "misses", "negative_hits"):
            metrics.set_counter("cache." + name, getattr(backend, name))
        metrics.set_gauge("cache.entries", len(backend))
        for name in ("signs", "verifies", "vrf_proves", "vrf_verifies"):
            metrics.set_counter("crypto." + name, getattr(backend, name))
    for name, value in sortition.items():
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
    #: A backend that verifies this deployment's keys (seed audits).
    backend: CryptoBackend
    #: The ``ConformanceMonitor`` that checked the run's trace, where
    #: the run was traced (the chaos measure's verdict reads it).
    conformance: object | None = None
    #: Nodes the network-wide quarantine still severs (sim only).
    quarantined: frozenset[int] = frozenset()
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
