"""Fork recovery (section 8.2).

When weak synchrony lets BA* reach *tentative* consensus on different
blocks, nodes end up on forks and can no longer count each other's votes
(their ``prev_hash`` bindings differ); at least one fork starves. The
paper recovers by periodically running BA* on "which fork should everyone
adopt":

1. users propose forks via the block-proposal mechanism — a selected
   "fork proposer" announces the longest chain it knows;
2. everyone waits for the highest-priority proposal whose chain is at
   least as long as their own longest known fork (so final blocks are
   always retained);
3. BA* runs over the proposal, using seed and weights *from before the
   fork* so all participants share a context;
4. on agreement, everyone adopts the winning fork. If the round fails
   (empty outcome), the attempt counter is hashed into the roles and the
   protocol retries.

This module implements that protocol over the same gossip network. The
recovery context uses the weights and seed at ``pre_fork_round`` — the
paper's quantized look-back; the simulation harness passes the last round
known to precede the partition (in production this comes from the
block-timestamp quantization described in section 8.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baplus.context import BAContext
from repro.baplus.protocol import AgreementResult, ba_star
from repro.ledger.block import Block, empty_block_hash
from repro.network.message import Envelope
from repro.node.agent import IDLE, Node, recovery_context
from repro.node.proposal import block_priority
from repro.sortition.roles import RECOVERY_ROUND_BASE, fork_proposer_role
from repro.sortition.selection import sortition, verify_sort


@dataclass(frozen=True)
class ForkProposal:
    """A fork proposer's announcement: its full candidate chain."""

    proposer: bytes
    attempt: int
    vrf_hash: bytes
    vrf_proof: bytes
    sub_users: int
    blocks: tuple[Block, ...]  # rounds 1..n of the proposed chain

    @property
    def priority(self) -> bytes:
        return block_priority(self.vrf_hash, self.sub_users)

    @property
    def tip_hash(self) -> bytes:
        if not self.blocks:
            return b""
        return self.blocks[-1].block_hash

    @property
    def length(self) -> int:
        return len(self.blocks)

    @property
    def size(self) -> int:
        return 200 + sum(block.size for block in self.blocks)


class RecoverySession:
    """One node's participation in one recovery attempt."""

    def __init__(self, node: Node, pre_fork_round: int) -> None:
        self.node = node
        self.pre_fork_round = pre_fork_round
        self.proposals: dict[bytes, ForkProposal] = {}
        self.attempt = 0
        self._max_attempts = 0
        self._ctx: BAContext | None = None
        self._then: Callable[[bool], None] | None = None
        # Replace any previous session's handler: recovery retries create
        # a fresh session per attempt window on the same node.
        node.router.register("fork", self._handle_proposal, replace=True)

    # -- context ---------------------------------------------------------

    def _recovery_ctx(self, attempt: int) -> BAContext:
        """Shared context: seed/weights from before any possible fork."""
        return recovery_context(self.node.chain, self.pre_fork_round,
                                attempt)

    # -- gossip ----------------------------------------------------------

    def _handle_proposal(self, proposal: ForkProposal) -> bool:
        if proposal.proposer in self.proposals:
            return False
        self.proposals[proposal.proposer] = proposal
        return True

    def _propose_if_selected(self, attempt: int, ctx: BAContext) -> None:
        node = self.node
        role = fork_proposer_role(self.pre_fork_round, attempt)
        proof = sortition(
            node.backend, node.keypair.secret, ctx.seed,
            node.params.tau_proposer, role,
            ctx.weight_of(node.keypair.public), ctx.total_weight,
        )
        if proof.j == 0:
            return
        proposal = ForkProposal(
            proposer=node.keypair.public, attempt=attempt,
            vrf_hash=proof.vrf_hash, vrf_proof=proof.vrf_proof,
            sub_users=proof.j, blocks=node.chain.blocks[1:],
        )
        self._handle_proposal(proposal)
        node.interface.broadcast(Envelope(
            origin=node.keypair.public, kind="fork", payload=proposal,
            size=proposal.size,
        ))

    def _valid(self, proposal: ForkProposal, attempt: int,
               ctx: BAContext) -> bool:
        if proposal.attempt != attempt:
            return False
        j = verify_sort(
            self.node.backend, proposal.proposer, proposal.vrf_hash,
            proposal.vrf_proof, ctx.seed, self.node.params.tau_proposer,
            fork_proposer_role(self.pre_fork_round, attempt),
            ctx.weight_of(proposal.proposer), ctx.total_weight,
        )
        if j == 0 or j != proposal.sub_users:
            return False
        # The proposed fork must be at least as long as our own chain
        # (choosing the longest fork retains all final blocks).
        return proposal.length >= self.node.chain.height

    def _best_proposal(self, attempt: int,
                       ctx: BAContext) -> ForkProposal | None:
        valid = [proposal for proposal in self.proposals.values()
                 if self._valid(proposal, attempt, ctx)]
        if not valid:
            return None
        return max(valid, key=lambda proposal: proposal.priority)

    # -- the protocol ------------------------------------------------------

    def run(self, max_attempts: int = 3,
            then: Callable[[bool], None] | None = None) -> None:
        """Participate in recovery until a fork is adopted.

        ``then`` receives True once this node adopted (or confirmed) a
        winning fork, False after ``max_attempts`` attempts without one.
        """
        self._max_attempts, self._then = max_attempts, then
        self._begin_attempt(0)

    def _begin_attempt(self, attempt: int) -> None:
        if attempt == self._max_attempts:
            self._finish(False)
            return
        node = self.node
        self.attempt = attempt
        self._ctx = ctx = self._recovery_ctx(attempt)
        # Regular block processing is stopped during recovery (section
        # 8.2): protect the active recovery round's votes from the
        # bounded buffer's future-first eviction.
        node.buffer.anchor_round = RECOVERY_ROUND_BASE + attempt
        self._propose_if_selected(attempt, ctx)
        # Wait for fork proposals to spread (blocks are bulky).
        node.env.schedule(node.params.lambda_priority
                          + node.params.lambda_block, self._agree)

    def _empty(self) -> bytes:
        return empty_block_hash(RECOVERY_ROUND_BASE + self.attempt,
                                self._ctx.last_block_hash)

    def _agree(self) -> None:
        best = self._best_proposal(self.attempt, self._ctx)
        ba_star(self.node.participant, self._ctx,
                RECOVERY_ROUND_BASE + self.attempt,
                best.tip_hash if best is not None else self._empty(),
                self._agreed)

    def _agreed(self, result: AgreementResult | None) -> None:
        """Adopt the agreed fork; retry on a halt, on the empty outcome
        or on a fork we never received."""
        if result is not None and result.block_hash != self._empty():
            winner = next(
                (proposal for proposal in self.proposals.values()
                 if proposal.tip_hash == result.block_hash), None)
            if winner is not None:
                self._adopt(winner)
                self._finish(True)
                return
        self._begin_attempt(self.attempt + 1)

    def _finish(self, recovered: bool) -> None:
        then, self._then = self._then, None
        if then is not None:
            then(recovered)

    def _adopt(self, proposal: ForkProposal) -> None:
        node = self.node
        _new_view(node)
        if node.halted:
            node.phase = IDLE
        if proposal.tip_hash != node.chain.tip_hash:
            node.chain = node.chain.fork_from(proposal.blocks)

    def close(self) -> None:
        self.node.router.unregister("fork")
        # Recovery votes live at RECOVERY_ROUND_BASE + attempt, far above
        # any real round, so normal-round watermarks passed to
        # ``prune_before`` never remove them — drop them here or every
        # concluded recovery leaks its vote buckets forever.
        self.node.buffer.prune_at_or_above(RECOVERY_ROUND_BASE)
        _new_view(self.node)


def _new_view(node: Node) -> None:
    """The rounds re-run after an adoption are new executions: nothing
    the gate accepted before may score an honest re-vote as
    equivocation, nor may stale threshold crossings suppress votes the
    re-run rounds need."""
    node.admission.on_chain_adopted()
    if node.damper is not None:
        node.damper.reset()


def run_recovery(nodes: list[Node], pre_fork_round: int,
                 max_attempts: int = 3) -> list[RecoverySession]:
    """Kick off a recovery session on every node; returns the sessions.

    The caller runs the environment; afterwards all participating nodes
    whose session returned True share one chain.
    """
    sessions = [RecoverySession(node, pre_fork_round) for node in nodes]
    for session in sessions:
        session.node.env.schedule_now(session.run, max_attempts)
    return sessions


class RecoveryDaemon:
    """Clock-driven recovery (section 8.2's periodic kick-off).

    "Users then use loosely synchronized clocks to stop regular block
    processing and kick off the recovery protocol at every time
    interval." Each node runs one daemon; at every
    ``params.recovery_interval`` tick it checks whether the node has
    halted (BinaryBA* hit MaxSteps) and, if so, joins a recovery
    session. The pre-fork round is quantized from chain length the same
    way for all nodes: the last round at least ``safety_margin`` rounds
    below the *shortest* halted chain is guaranteed to be on the shared
    prefix, and the simulation's loosely synchronized clocks make every
    daemon fire within the same interval.

    ``clock_skew`` staggers the tick per node (the paper requires only
    *loose* synchronization; recovery tolerates skews well below the
    proposal-wait windows).
    """

    def __init__(self, node: Node, safety_margin: int = 1,
                 clock_skew: float = 0.0,
                 max_attempts: int = 3,
                 resume_target: int | None = None) -> None:
        if safety_margin < 0:
            raise ValueError("safety_margin must be >= 0")
        self.node = node
        self.safety_margin = safety_margin
        self.clock_skew = clock_skew
        self.max_attempts = max_attempts
        #: If set, restart the node's round loop toward this chain height
        #: after a successful recovery (liveness restoration).
        self.resume_target = resume_target
        self.recoveries = 0
        self._session: RecoverySession | None = None
        node.env.schedule_now(self._sleep, clock_skew)

    def _pre_fork_round(self) -> int:
        return max(0, self.node.chain.height - self.safety_margin)

    def _sleep(self, skew: float = 0.0) -> None:
        """Wait for the next tick (after this node's clock skew)."""
        if skew:
            self.node.env.schedule(skew, self._sleep)
        else:
            self.node.env.schedule(self.node.params.recovery_interval,
                                   self._tick)

    def _tick(self) -> None:
        node = self.node
        if not node.halted:
            self._sleep()
            return
        self._session = RecoverySession(node, self._pre_fork_round())
        self._session.run(self.max_attempts, self._recovered)

    def _recovered(self, recovered: bool) -> None:
        node = self.node
        self._session.close()
        self._session = None
        if recovered:
            self.recoveries += 1
            if (self.resume_target is not None
                    and node.chain.height < self.resume_target):
                node.start(self.resume_target)
        self._sleep()


def attach_recovery_daemons(nodes: list[Node], safety_margin: int = 1,
                            skew_per_node: float = 0.0,
                            resume_target: int | None = None
                            ) -> list[RecoveryDaemon]:
    """One daemon per node, with small per-node clock skews."""
    return [
        RecoveryDaemon(node, safety_margin=safety_margin,
                       clock_skew=index * skew_per_node,
                       resume_target=resume_target)
        for index, node in enumerate(nodes)
    ]
