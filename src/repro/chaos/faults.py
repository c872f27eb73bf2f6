"""Compile a :class:`ScenarioScript` onto a live simulation.

The injector leans on exactly the control surfaces the paper grants the
adversary: message *dropping* goes through the gossip layer's
``drop_filter`` (via :class:`repro.adversary.FilterChain`, which now
composes with anything already installed), message *timing* goes through
the ``link_shaper`` hook (delay spikes, duplication, reordering), and
node-level faults use the agent's fail-stop :meth:`~repro.node.agent.Node.crash`
/ :meth:`~repro.node.agent.Node.restart` with certificate-verified
catch-up from :mod:`repro.node.catchup`.

All randomness (loss coin flips, duplicate coins, reorder jitter) is
drawn from a generator seeded by the scenario seed and independent of
the simulation's own RNG, so a scenario is reproducible and adding a
chaos fault never perturbs the underlying deployment's random choices.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.network_control import FilterChain, Partitioner
from repro.baplus.messages import VoteMessage, make_vote
from repro.chaos.scenario import FAULT_RNG_TAG, FaultAction, ScenarioScript
from repro.crypto.hashing import H
from repro.network.gossip import GossipNetwork
from repro.network.message import Envelope, vote_envelope
from repro.node.catchup import resync_from_peers

class ShaperChain:
    """Composes per-link delivery mutators into one ``link_shaper``.

    Mirrors :class:`~repro.adversary.FilterChain` for the timing hook:
    each effect maps a list of arrival delays to a new list (empty =
    drop, longer = duplicate). Effects apply in installation order. An
    already-installed shaper is absorbed as the first effect.
    """

    def __init__(self, network: GossipNetwork) -> None:
        self.network = network
        self._effects: list = []
        existing = network.link_shaper
        if existing is not None:
            self._effects.append(
                lambda src, dst, env, delays:
                [shaped for delay in delays
                 for shaped in existing(src, dst, env, delay)])
        network.link_shaper = self._shape

    def add(self, effect) -> None:
        self._effects.append(effect)

    def remove(self, effect) -> None:
        self._effects.remove(effect)

    def _shape(self, src: int, dst: int, envelope: Envelope,
               base_delay: float) -> list[float]:
        delays = [base_delay]
        for effect in self._effects:
            delays = effect(src, dst, envelope, delays)
            if not delays:
                return delays
        return delays


def _matches(nodes: frozenset[int], src: int, dst: int) -> bool:
    return not nodes or src in nodes or dst in nodes


class _WindowedLinkEffect:
    """A link mutator active only inside its scheduled window."""

    def __init__(self, action: FaultAction,
                 rng: np.random.Generator) -> None:
        self.action = action
        self.nodes = frozenset(action.nodes)
        self.rng = rng
        self.active = False

    def activate(self) -> None:
        self.active = True

    def deactivate(self) -> None:
        self.active = False

    def __call__(self, src: int, dst: int, envelope: Envelope,
                 delays: list[float]) -> list[float]:
        if not self.active or not _matches(self.nodes, src, dst):
            return delays
        kind = self.action.kind
        if kind == "delay":
            return [delay + self.action.extra_delay for delay in delays]
        if kind == "reorder":
            jitter = self.action.jitter
            return [delay + jitter * float(self.rng.random())
                    for delay in delays]
        if kind == "duplicate":
            out = []
            for delay in delays:
                out.append(delay)
                if float(self.rng.random()) < self.action.rate:
                    out.append(delay + max(self.action.jitter, 0.05))
            return out
        if kind == "loss":
            return [delay for delay in delays
                    if float(self.rng.random()) >= self.action.rate]
        return delays


class FaultInjector:
    """Installs every action of a scenario onto the simulation clock."""

    def __init__(self, sim, script: ScenarioScript) -> None:
        script.validate()
        total_nodes = len(sim.nodes)
        for action in script.actions:
            action.validate(total_nodes)
        self.sim = sim
        self.script = script
        self.rng = np.random.default_rng([script.seed, FAULT_RNG_TAG])
        self.chain = FilterChain(sim.network)
        self.shaper = ShaperChain(sim.network)
        #: Nodes crashed with no scheduled restart; the runner excludes
        #: them from convergence and liveness accounting.
        self.permanently_crashed: frozenset[int] = (
            script.permanently_crashed())
        #: Round-loop processes created by scheduled restarts, so the
        #: runner can surface their failures like initial processes.
        self.restarted_processes: list = []
        self._installed = False

    # -- wiring --------------------------------------------------------

    def install(self) -> None:
        """Schedule every fault action; idempotence-guarded."""
        if self._installed:
            return
        self._installed = True
        for node in self.sim.nodes:
            # Crash-rejoin catch-up (and late-round resync for everyone):
            # adopt the longest valid peer chain at round boundaries.
            node.resync = (lambda n=node:
                           resync_from_peers(n, self.sim.nodes))
        for action in self.script.actions:
            self._install_action(action)

    def _emit(self, event: str, action: FaultAction) -> None:
        obs = self.sim.obs
        if obs is not None:
            obs.emit(event, fault=action.kind,
                     nodes=list(action.nodes),
                     window=[action.start, action.end])

    def _install_action(self, action: FaultAction) -> None:
        env = self.sim.env
        if action.kind == "partition":
            partition = Partitioner(
                self.chain, [set(group) for group in action.groups])
            env.schedule(action.start, partition.activate)
            env.schedule(action.start,
                         lambda a=action: self._emit("fault_applied", a))
            assert action.end is not None  # validated
            env.schedule(action.end, partition.heal)
            env.schedule(action.end,
                         lambda a=action: self._emit("fault_cleared", a))
            return
        if action.kind in ("delay", "loss", "duplicate", "reorder"):
            effect = _WindowedLinkEffect(action, self.rng)
            if action.kind == "loss":
                # Loss is a drop decision: route it through the filter
                # chain so it shares the partition/DoS machinery (and
                # the gossip.filtered counter).
                self.chain.add(
                    lambda src, dst, envelope, e=effect:
                    e.active and _matches(e.nodes, src, dst)
                    and float(e.rng.random()) < e.action.rate)
            else:
                self.shaper.add(effect)
            env.schedule(action.start, effect.activate)
            env.schedule(action.start,
                         lambda a=action: self._emit("fault_applied", a))
            assert action.end is not None
            env.schedule(action.end, effect.deactivate)
            env.schedule(action.end,
                         lambda a=action: self._emit("fault_cleared", a))
            return
        if action.kind == "dos":
            interfaces = [self.sim.network.interfaces[node]
                          for node in action.nodes]

            def strike(ifaces=interfaces, a=action) -> None:
                for iface in ifaces:
                    iface.disconnected = True
                self._emit("fault_applied", a)

            def release(ifaces=interfaces, a=action) -> None:
                for iface in ifaces:
                    iface.disconnected = False
                self._emit("fault_cleared", a)

            env.schedule(action.start, strike)
            assert action.end is not None
            env.schedule(action.end, release)
            return
        if action.kind in ("flood", "spam"):
            env.schedule(action.start,
                         lambda a=action: self._emit("fault_applied", a))
            assert action.end is not None  # validated
            env.schedule(action.end,
                         lambda a=action: self._emit("fault_cleared", a))
            for target in action.nodes:
                env.process(self._attack_loop(action, target),
                            f"{action.kind}-{target}")
            return
        if action.kind == "crash":
            victims = [self.sim.nodes[node] for node in action.nodes]

            def crash(nodes=victims, a=action) -> None:
                for node in nodes:
                    node.crash()
                self._emit("fault_applied", a)

            env.schedule(action.start, crash)
            if action.end is not None:
                def restart(nodes=victims, a=action) -> None:
                    for node in nodes:
                        self.restarted_processes.append(
                            node.restart(self.script.rounds))
                    self._emit("fault_cleared", a)

                env.schedule(action.end, restart)
            return
        raise AssertionError(f"unreachable fault kind {action.kind!r}")

    def _attack_loop(self, action: FaultAction, target: int):
        """Broadcast ``rate`` junk votes per second from ``target``.

        ``flood`` sends invalid-signature votes at the attacker's own
        current round; ``spam`` sends validly signed votes for rounds no
        receiver can validate yet (the undecidable-message DoS). Both
        loops are counter-based — no RNG — so a scenario stays
        byte-reproducible.
        """
        env = self.sim.env
        node = self.sim.nodes[target]
        batch = max(1, int(action.rate))
        tag = b"flood" if action.kind == "flood" else b"spam"
        counter = 0
        if action.start > env.now:
            yield env.timeout(action.start - env.now)
        assert action.end is not None  # validated
        while env.now < action.end:
            if not node.crashed and not node.interface.disconnected:
                for _ in range(batch):
                    counter += 1
                    junk = H(tag, node.keypair.public,
                             counter.to_bytes(8, "big"))
                    if action.kind == "flood":
                        vote = VoteMessage(
                            voter=node.keypair.public,
                            round_number=node.chain.next_round,
                            step="reduction_one",
                            sorthash=junk, sortproof=junk,
                            prev_hash=node.chain.tip_hash,
                            value=junk, signature=junk[:32],
                        )
                    else:
                        vote = make_vote(
                            node.backend, node.keypair.secret,
                            node.keypair.public,
                            node.chain.next_round + 100 + counter,
                            "reduction_one", junk, junk,
                            node.chain.tip_hash, junk,
                        )
                    node.interface.broadcast(
                        vote_envelope(node.keypair.public, vote))
            yield env.timeout(1.0)
