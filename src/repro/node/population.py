"""The population: a stake pool plus the agents that are live right now.

Every sim deployment is built here, through one call per agent
(:func:`repro.node.deployment.build_node`). A round's behaviour is
determined by its committee-sized fraction of the users, so a
:class:`Population` holds:

* an **aggregated stake pool** — every account's key pair and balance,
  held as arrays keyed by the deployment's stable slot index
  (:class:`repro.ledger.arraystate.AccountIndex`, slot == simulation
  node index);
* an **always-on core** — the first ``core_size`` accounts stay full
  agents for the whole run (they anchor liveness measurements, carry
  transaction injection, and drive round completion).
  ``PopulationConfig(mode="full")`` is the core that is everyone:
  users and zero-stake observers;
* **materialization on selection** — at each round boundary one
  vectorized pool-sortition pass (:func:`repro.sortition.pool
  .pool_select`) finds every account selected for the coming round's
  roles; those accounts are instantiated as full agents (chain replica
  via :meth:`~repro.ledger.blockchain.Blockchain.replica`, fresh node,
  activated gossip interface) just in time to propose and vote;
* **retirement after their round** — transient agents are torn down at
  the next boundary unless re-selected; only ``live`` ever referred to
  one, so its chain replica, buffers and admission state are garbage —
  its counters are folded into running totals first, so
  :meth:`Population.agent_counters` covers every agent ever built.

Role coverage: winners are computed for the proposer role, both
reduction steps, BinaryBA* steps ``1..steps_ahead``, and the final
committee. ``steps_ahead`` defaults to 4: an honest round decides at
binary step 1 and its deciders then vote steps 2-4 (Algorithm 8's
"next three steps" steering), so 4 covers the clean-path traffic
exactly; pathological rounds that run deeper than ``steps_ahead``
simply lose those later committees' (dormant) votes — acceptable for
the honest large-scale deployments a small core targets, and
configurable upward. A fault that acts on a node — an attacker, a crash
— must name an always-on agent (the harness checks).

The boundary trigger is the *first* commit of each round across the
live agents: no agent has started the next round at that instant, so a
freshly materialized winner never misses next-round gossip.

When the core covers the whole population there is no dormant stake —
no pool pass runs, no topology changes happen, no RNG draw or event is
spent on the pool. With a small core, committed *content* diverges from
the everyone-on run only through block timestamps (commit times shift
with the thinner relay fabric), while the protocol-outcome trajectory —
proposer sequence and seed chain, which depend solely on VRFs — stays
identical to it.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.backend import CryptoBackend
from repro.ledger.blockchain import Blockchain
from repro.network.gossip import GossipNetwork
from repro.node.agent import Node, sortition_weights
from repro.node.config import SimulationConfig
from repro.node.deployment import Genesis, build_node, fold, node_counters
from repro.node.registry import BlockRegistry
from repro.sim.loop import Environment
from repro.sortition.pool import pool_select
from repro.sortition.roles import (
    FINAL_STEP,
    REDUCTION_ONE,
    REDUCTION_TWO,
    committee_role,
    proposer_role,
)


class Population:
    """Owns the stake pool and the live-agent table of one deployment."""

    def __init__(self, config: SimulationConfig, genesis: Genesis, *,
                 env: Environment, backend: CryptoBackend,
                 network: GossipNetwork, registry: BlockRegistry, obs=None,
                 round_hook: Callable[[int], None] | None = None) -> None:
        self.config = config
        self.genesis = genesis
        self.env = env
        self.backend = backend
        self.params = config.params
        self.network = network
        self.registry = registry
        self.steps_ahead = config.population.steps_ahead
        self.obs = obs
        #: Harness round hook (the optional peer reshuffle) — invoked on
        #: the designated core agent's (node 0's) commits.
        self._round_hook = round_hook

        keypairs = genesis.keypairs
        self.num_accounts = len(keypairs)
        self.core = list(range(
            config.population.core_size(self.num_accounts)))
        self._all_core = len(self.core) == self.num_accounts
        #: Stable account index: slot i == simulation node index i.
        self.index = genesis.index_of
        self._secrets = [kp.secret for kp in keypairs]

        #: Live agents by slot (core + current transients).
        self.live: dict[int, Node] = {}
        self._targets: dict[int, int] = {}
        #: Boundary bookkeeping: the last round whose winners are
        #: materialized.
        self._materialized_round = 0
        self._rounds_target = 0
        # Lifecycle counters for summaries and the scale bench.
        self.materialized_total = 0
        self.retired_total = 0
        self.live_high_water = 0
        #: What the retired agents counted (see :meth:`agent_counters`).
        self._retired_counters: dict[str, int] = {}

        # One genesis state, however large the core: the rest replicate.
        genesis_chain = self._create_agent(self.core[0]).chain
        for slot in self.core[1:]:
            self._create_agent(slot, source=genesis_chain)

    # ------------------------------------------------------------------
    # Agent lifecycle
    # ------------------------------------------------------------------

    def _create_agent(self, slot: int, source: Blockchain | None = None
                      ) -> Node:
        """Materialize one account as a full agent.

        ``source`` is the chain to replicate: the boundary chain, or at
        construction the first core agent's. ``None`` builds genesis.
        """
        node = build_node(
            self.config, self.genesis, slot, clock=self.env,
            transport=self.network.interface(slot), backend=self.backend,
            registry=self.registry, obs=self.obs,
            chain=source.replica() if source is not None else None)
        node.on_commit = (
            lambda round_number, _node=node: self.note_commit(
                _node, round_number))
        self.live[slot] = node
        self.materialized_total += 1
        if len(self.live) > self.live_high_water:
            self.live_high_water = len(self.live)
        return node

    def _retire(self, slot: int) -> None:
        node = self.live.pop(slot)
        self._targets.pop(slot, None)
        self.retired_total += 1
        fold(self._retired_counters, node_counters(node))
        # The committing agent may be retiring itself at its own boundary
        # hook: its commit then finishes, and its run ends with it.
        node.retire()
        if self.obs is not None:
            self.obs.emit("agent_retired", node=slot,
                          height=node.chain.height)

    def _run_until(self, slot: int, target: int) -> None:
        """Ensure ``slot``'s agent runs (at least) through ``target``.

        An agent still mid-run starts the new run when the current one
        ends — at the commit that reaches its current target.
        """
        if target > self._targets.get(slot, 0):
            self._targets[slot] = target
            self.live[slot].start(target)

    # ------------------------------------------------------------------
    # Round boundaries
    # ------------------------------------------------------------------

    def start(self, rounds: int) -> list[Node]:
        """Start the core for a ``rounds``-round run; returns its agents.

        Also materializes the next round's winners from the core's
        chain: round 1's from genesis on the first call, and on a later
        call the round whose boundary pass the previous call's target
        skipped.
        """
        self._rounds_target = rounds
        reference = self.live[self.core[0]].chain
        next_round = reference.height + 1
        if self._materialized_round < next_round <= rounds:
            self._materialize_round(next_round, reference)
        for slot in self.core:
            self._targets[slot] = rounds
            self.live[slot].start(rounds)
        return self.core_nodes

    def note_commit(self, node: Node, round_number: int) -> None:
        """Per-agent commit hook: drive boundaries off the first commit.

        The first live agent to commit round ``r`` triggers the pool
        pass for round ``r + 1`` — at that instant nobody has begun
        round ``r + 1``, so winners materialize before any of its
        gossip exists. The designated core agent's commit additionally
        runs the harness round hook.
        """
        next_round = round_number + 1
        if next_round > self._materialized_round and (
                next_round <= self._rounds_target
                or self._rounds_target == 0):
            self._materialize_round(next_round, node.chain)
        if node.index == self.core[0] and self._round_hook is not None:
            self._round_hook(round_number)

    def _materialize_round(self, round_number: int,
                           reference: Blockchain) -> None:
        self._materialized_round = round_number
        if self._all_core:
            # No dormant stake: nothing to select, retire, or rewire —
            # and critically no RNG/event consumption (the pinned
            # goldens of every-user-on runs predate the pool).
            return
        winners = self.select_round(round_number, reference)
        for slot in sorted(set(self.live) - set(self.core) - winners):
            self._retire(slot)
        fresh = sorted(winners - set(self.live))
        for slot in fresh:
            self._create_agent(slot, source=reference)
        self.network.set_active(sorted(self.live))
        target = round_number
        if self._rounds_target:
            target = min(target, self._rounds_target)
        # Core agents run to the full horizon under start()'s control;
        # only transients need per-round target management.
        for slot in sorted(winners - set(self.core)):
            self._run_until(slot, target)
        if self.obs is not None:
            self.obs.emit("population_boundary", round=round_number,
                          winners=len(winners), fresh=len(fresh),
                          live=len(self.live))

    # ------------------------------------------------------------------
    # Pool sortition
    # ------------------------------------------------------------------

    def _round_roles(self, round_number: int) -> list[tuple[bytes, float]]:
        params = self.params
        roles = [
            (proposer_role(round_number), params.tau_proposer),
            (committee_role(round_number, REDUCTION_ONE), params.tau_step),
            (committee_role(round_number, REDUCTION_TWO), params.tau_step),
        ]
        for step in range(1, self.steps_ahead + 1):
            roles.append((committee_role(round_number, str(step)),
                          params.tau_step))
        roles.append((committee_role(round_number, FINAL_STEP),
                      params.tau_final))
        return roles

    def select_round(self, round_number: int,
                     reference: Blockchain) -> set[int]:
        """Slots selected for any of ``round_number``'s covered roles.

        Reads the section 5.3 table the materialized agents answer from
        (:func:`sortition_weights`), so pool and agents agree.
        """
        table = sortition_weights(reference, self.params, round_number)
        weights = table.array[:self.num_accounts]
        seed = reference.selection_seed(round_number)
        winners: set[int] = set()
        for role, tau in self._round_roles(round_number):
            selection = pool_select(self.backend, self._secrets, weights,
                                    tau, table.total, seed, role)
            winners.update(selection.winners)
        return winners

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def core_nodes(self) -> list[Node]:
        return [self.live[slot] for slot in self.core]

    def agent_counters(self) -> dict[str, int]:
        """:func:`~repro.node.deployment.node_counters` folded over every
        agent ever built: the live agents as they stand plus each
        retired one as it was when it retired."""
        totals = dict(self._retired_counters)
        for node in self.live.values():
            fold(totals, node_counters(node))
        return totals

    def stats(self) -> dict[str, int]:
        return {
            "accounts": self.num_accounts,
            "core": len(self.core),
            "live": len(self.live),
            "live_high_water": self.live_high_water,
            "materialized_total": self.materialized_total,
            "retired_total": self.retired_total,
        }

