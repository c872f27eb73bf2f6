"""Simulation harness: build and run whole Algorand deployments.

One :class:`Simulation` owns an event loop, a gossip network, and a
:class:`~repro.node.population.Population` of nodes sharing a genesis;
experiments configure it through :class:`SimulationConfig` (see
:mod:`repro.node.config` for the nested groups and
:mod:`repro.node.deployment` for the node builder) and read results
from node metrics and the network's cost counters. Its ``faults`` — Byzantine users
included — are :class:`~repro.chaos.scenario.FaultAction` windows.
Everything is deterministic in ``config.seed``.

The harness is the *sim-substrate* runner: one process, virtual time.
Its live-substrate twin is :class:`repro.live.cluster.LiveCluster`;
:func:`repro.node.config.deploy` picks between them by config.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.chaos.faults import FaultInjector
from repro.chaos.scenario import FAULT_RNG_TAG, FaultAction, check_faults
from repro.conformance.monitor import ConformanceMonitor
from repro.crypto.backend import CryptoBackend, FastBackend
from repro.ledger.transaction import make_transaction
from repro.network.gossip import GossipNetwork
from repro.network.latency import LatencyModel, UniformLatencyModel
from repro.node.agent import Node
from repro.node.catchup import ChainSync
from repro.node.config import SimulationConfig
from repro.node.deployment import (
    NodeRun,
    RunOutcome,
    derive_genesis,
    harvest,
    node_counters,
    payment_plan,
)
from repro.node.population import Population
from repro.node.registry import BlockRegistry
from repro.obs.bus import TraceBus
from repro.obs.metrics import MetricsRegistry
from repro.sim.loop import Environment


class Simulation:
    """A fully wired deployment: env + network + nodes."""

    def __init__(self, config: SimulationConfig,
                 backend: CryptoBackend | None = None,
                 faults: Iterable[FaultAction] = (),
                 obs: TraceBus | None = None) -> None:
        config.validate()
        faults = tuple(faults)
        check_faults(config, faults)
        self.config = config
        self.env = Environment()
        #: Optional trace bus (see :mod:`repro.obs`). When supplied, its
        #: clock is bound to this simulation's virtual time, every layer
        #: (network, nodes, BA*, router) records into it, and
        #: :meth:`summary` is its registry snapshot. ``None`` (the
        #: default) leaves all instrumentation as dormant no-op guards.
        self.obs = obs
        #: Online reference-machine checker (:mod:`repro.conformance`):
        #: a traced run is a checked run, an untraced one has ``None``.
        #: (``obs=TraceBus(max_events=0)`` checks without storing.)
        self.conformance: ConformanceMonitor | None = None
        if obs is not None:
            obs.bind_clock(lambda: self.env.now)
            obs.add_harvester(lambda bus: self._harvest(bus.metrics))
            self.conformance = ConformanceMonitor(registry=obs.metrics)
            obs.add_sink(self.conformance)
        self.backend = backend if backend is not None else FastBackend()
        self.rng = np.random.default_rng(config.seed)
        self.registry = BlockRegistry()
        genesis = derive_genesis(config, self.backend)
        self.keypairs = genesis.keypairs
        self.genesis_seed = genesis.seed

        network_cfg = config.network
        total_nodes = len(genesis.keypairs)
        if network_cfg.latency_model == "city":
            latency = LatencyModel(total_nodes, self.rng)
        else:
            latency = UniformLatencyModel(network_cfg.uniform_latency)
        core_size = config.population.core_size(total_nodes)
        self.network = GossipNetwork(
            self.env, total_nodes, self.rng, latency,
            peers_per_node=network_cfg.peers_per_node,
            bandwidth_bps=network_cfg.bandwidth_bps,
            obs=obs, active_indices=range(core_size),
        )

        #: Builds every agent: the always-on core now, each round's
        #: sortition winners among the dormant stake as they are drawn.
        self.population = Population(
            config, genesis, env=self.env, backend=self.backend,
            network=self.network, registry=self.registry,
            obs=obs,
            round_hook=((lambda _round: self.network.reshuffle_peers())
                        if network_cfg.reshuffle_peers_each_round else None),
        )
        #: The always-on core — everyone, under ``mode="full"``; the
        #: per-round transients live in ``population.live``.
        self.nodes: list[Node] = self.population.core_nodes
        #: Compiles ``faults`` onto this deployment; ``None`` when there
        #: are none, and then no hook is installed on the network. A
        #: faulted core catches up the way a live process does, over
        #: gossip (:class:`~repro.node.catchup.ChainSync`).
        self.injector: FaultInjector | None = None
        if faults:
            for node in self.nodes:
                ChainSync(node)
            self.injector = FaultInjector(
                self.env, self.network,
                {node.index: node for node in self.nodes}, faults,
                rng=np.random.default_rng([config.seed, FAULT_RNG_TAG]),
                obs=obs)
            self.injector.install()

    @property
    def observers(self) -> list[Node]:
        """The zero-stake passive participants (may be empty)."""
        if self.config.num_observers == 0:
            return []
        return self.nodes[-self.config.num_observers:]

    # ------------------------------------------------------------------

    def submit_payments(self, count: int, note_bytes: int = 0) -> None:
        """Inject ``count`` random valid payments at round start.

        Senders are drawn round-robin so nonces stay sequential; each
        payment is gossiped from its sender's node.
        """
        # Observers neither pay nor earn, and payments circulate among
        # the always-on core (the only agents guaranteed live to sign
        # and gossip at injection time — dormant stake still votes with
        # its balance, it just doesn't transact).
        weighted = min(len(self.nodes), self.config.num_users)

        def can_pay(index: int) -> bool:
            sender = self.nodes[index]
            return sender.chain.state.balance(sender.keypair.public) >= 1

        nonces: dict[int, int] = {}
        for sender_index, recipient_index in payment_plan(
                self.rng, weighted, count, can_pay):
            sender = self.nodes[sender_index]
            nonce = nonces.get(sender_index,
                               sender.mempool.next_nonce_for(
                                   sender.chain.state,
                                   sender.keypair.public))
            tx = make_transaction(
                self.backend, sender.keypair.secret, sender.keypair.public,
                self.nodes[recipient_index].keypair.public, 1, nonce,
                note=bytes(note_bytes),
            )
            nonces[sender_index] = nonce + 1
            sender.submit_transaction(tx)

    def run_rounds(self, rounds: int,
                   time_limit: float | None = None) -> None:
        """Start the always-on core and run until it reaches ``rounds``
        blocks; the population materializes and retires transient
        winners on its own at round boundaries.
        """
        if self.injector is not None:
            self.injector.rounds = rounds  # a restart's target
        nodes = self.population.start(rounds)
        # O(1) stop check: scanning every node per event dominated the
        # loop at hundreds of nodes. ``on_done`` fires inside the event
        # that ends a node's run, so the set is always current; a node
        # leaves it once its run finished or halted, or it crashed with
        # no restart scheduled.
        down = self.injector.restarting if self.injector else set()
        pending = {node.index for node in nodes
                   if node.running or node.index in down}

        def done(node: Node) -> None:
            if node.index not in down:
                pending.discard(node.index)

        for node in nodes:
            node.on_done = done
        limit = time_limit
        if limit is None:
            # Generous per-round ceiling; hitting it is a test failure,
            # not silent truncation.
            limit = self.config.params.round_budget * (rounds + 1)
        self.env.run(until=limit, stop_when=lambda: not pending)
        if len(self.nodes) < self.population.num_accounts:
            # A round that runs deeper than steps_ahead has dormant
            # later-step committees; the core then exhausts MaxSteps and
            # halts. Surface that loudly instead of returning a short
            # chain (with everyone on, a halt is the protocol's own and
            # stays silent — the weak-synchrony and recovery suites
            # depend on that).
            stalled = [node.index for node in self.nodes
                       if node.halted and node.chain.height < rounds]
            if stalled:
                raise TimeoutError(
                    f"aggregated run stalled: core nodes {stalled[:5]} "
                    f"halted below round {rounds} — a round ran deeper "
                    f"than steps_ahead="
                    f"{self.config.population.steps_ahead}, whose "
                    f"later committees are dormant; raise steps_ahead "
                    f"(or the committee sizes) and rerun")
        unfinished = sorted(pending)
        if unfinished:
            ellipsis = "..." if len(unfinished) > 5 else ""
            raise TimeoutError(
                f"nodes {unfinished[:5]}{ellipsis} did not finish {rounds} "
                f"rounds by t={limit}"
            )

    # ------------------------------------------------------------------
    # Result accessors
    # ------------------------------------------------------------------

    def outcome(self) -> RunOutcome:
        """What the run left behind, read off the always-on core: one
        :class:`~repro.node.deployment.NodeRun` per agent (its egress
        lane's high-water mark among its counters), the clock, the
        conformance monitor, the harvested snapshot and the backend."""
        lanes = self.network.interfaces
        snapshot = self._registry_snapshot()
        return RunOutcome(
            runs={node.index: NodeRun.of(node, {
                      **node_counters(node),
                      "admission.egress_high_water":
                          lanes[node.index].egress_high_water})
                  for node in self.nodes},
            slots=len(self.nodes), now=self.env.now, backend=self.backend,
            conformance=self.conformance,
            snapshot={**snapshot["counters"], **snapshot["gauges"]})

    def all_chains_equal(self) -> bool:
        reference = self.nodes[0].chain
        return all(
            node.chain.height == reference.height
            and node.chain.tip_hash == reference.tip_hash
            for node in self.nodes
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _harvest(self, metrics: MetricsRegistry) -> None:
        """:func:`~repro.node.deployment.harvest` for this deployment,
        plus the sim's own numbers: the network's byte movers, the
        egress lanes, the population gauges."""
        network = self.network
        counters: dict = {}
        gauges = {"network.messages_delivered": network.messages_delivered,
                  "gossip.dup_elided": network.dup_elided,
                  "network.total_bytes_sent": network.total_bytes_sent}
        interfaces = list(filter(None, network.interfaces))
        counters["admission.egress_dropped"] = sum(
            interface.egress_dropped for interface in interfaces)
        gauges["admission.egress_high_water"] = max(
            interface.egress_high_water for interface in interfaces)
        for name, value in self.population.stats().items():
            gauges["population." + name] = value
        harvest(metrics, clock=self.env, backend=self.backend,
                agents=self.population.agent_counters(),
                conformance=self.conformance, counters=counters,
                gauges=gauges)

    def _registry_snapshot(self) -> dict:
        """The bus snapshot of a traced run; an untraced run's harvest."""
        if self.obs is not None:
            return self.obs.snapshot()
        metrics = MetricsRegistry()
        self._harvest(metrics)
        return metrics.snapshot()

    def summary(self) -> dict:
        """The harvested snapshot, flat: every runtime number under its
        registry name (``simloop.events_processed``, ``crypto.verifies``,
        ``admission.rejected.quarantined``, ...), the same names a live
        node's snapshot carries. A traced run's is its bus snapshot, so
        it has the event-time families too, and rides whole under
        ``"obs"``. ``total_bytes_sent`` and ``conformance["ok"]`` are
        the names the benchmark reads.
        """
        snapshot = self._registry_snapshot()
        result: dict = {**snapshot["counters"], **snapshot["gauges"]}
        result["total_bytes_sent"] = result["network.total_bytes_sent"]
        if self.conformance is not None:
            result["conformance"] = {"ok": self.conformance.verdict().ok}
        if self.obs is not None:
            result["obs"] = snapshot
        return result
