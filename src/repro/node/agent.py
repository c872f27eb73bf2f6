"""The Algorand user agent (sections 4, 6 and 8).

A :class:`Node` owns one user's key pair, chain replica, mempool, and
gossip attachment, and runs rounds:

1. **Proposal** — run proposer sortition; if selected, assemble a block
   from the mempool and gossip the priority announcement plus the block.
2. **Wait** — sleep ``lambda_priority + lambda_stepvar`` to learn the
   highest-priority proposer, then wait (up to ``lambda_block``) for that
   proposer's block; fall back to the empty block.
3. **Agree** — run BA* (reduction, BinaryBA*, final-vote count) on the
   chosen block hash.
4. **Commit** — resolve the agreed hash to a block, build a certificate,
   append to the chain, prune the mempool.

A round is a transition system, not a suspended frame: explicit state
(:attr:`Node.phase` through the reference machine's IDLE → PROPOSAL →
BA → IDLE, and the :class:`_Round` in flight) that kernel callbacks
advance — a timer, a tracker wake-up, a decided count. A crash or a
retirement cancels what the round owns and drops it.

Every incoming copy is one question to :meth:`Node.receive`, the relay
core's one hook: judged once by the node's message gate
(:class:`~repro.runtime.admission.AdmissionControl`: validate-before-relay,
one message per key per step, section 8.4), then handled synchronously
by the router, whose answer is the relay decision; BA* consumes votes
from the node's :class:`~repro.baplus.buffer.VoteBuffer`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.baplus.buffer import VoteBuffer
from repro.baplus.certificate import Certificate, build_certificate
from repro.baplus.context import BAContext
from repro.baplus.messages import VoteMessage
from repro.baplus.protocol import (
    FINAL,
    TENTATIVE,
    BinaryResult,
    binary_ba_star,
    reduction,
)
from repro.baplus.voting import (
    BAParticipant,
    TIMEOUT,
    count_votes_then,
    interrupt_counts,
)
from repro.common.encoding import encode
from repro.common.errors import (
    InvalidBlock,
    InvalidTransaction,
    LedgerError,
    SimulationError,
)
from repro.common.params import ProtocolParams
from repro.crypto.backend import CryptoBackend, KeyPair
from repro.crypto.hashing import H
from repro.ledger.arraystate import AccountIndex, ArrayWeights
from repro.ledger.block import Block, empty_block, empty_block_hash, validate_block
from repro.ledger.blockchain import Blockchain
from repro.ledger.mempool import Mempool
from repro.ledger.transaction import Transaction
from repro.network.gossip import NetworkInterface
from repro.network.message import (
    Envelope,
    block_envelope,
    priority_envelope,
    transaction_envelope,
    vote_envelope,
)
from repro.node.config import RuntimeConfig
from repro.node.metrics import NodeMetrics, RoundRecord
from repro.node.proposal import (
    PriorityMessage,
    ProposalTracker,
    block_priority,
    make_priority_message,
)
from repro.node.registry import BlockRegistry, ContextKey
from repro.runtime.admission import AdmissionControl
from repro.runtime.router import MessageRouter
from repro.sim.loop import Environment, Timer
from repro.sortition.roles import FINAL_STEP, proposer_role
from repro.sortition.seed import accepted_seed, propose_seed
from repro.sortition.selection import sortition


def sortition_weights(chain: Blockchain, params: ProtocolParams,
                      round_number: int) -> ArrayWeights:
    """Weight table for sortition at ``round_number`` (section 5.3).

    With ``weight_lookback_rounds == 0`` this is the current table;
    otherwise the snapshot from ``lookback`` rounds ago, optionally
    floored by current balances (``lookback_take_min``, the paper's
    nothing-at-stake mitigation) — one array minimum over the two
    snapshot buffers. A node's round context holds it, the stake pool
    reads its array — one table, so pool selection and the materialized
    agents' own sortition calls agree.
    """
    lookback = params.weight_lookback_rounds
    if lookback == 0:
        return chain.state.weights()
    weights = chain.weights_at(max(0, round_number - 1 - lookback))
    if params.lookback_take_min:
        weights = weights.floored_by(chain.state.weights())
    return weights


# The BA⋆ contexts (Algorithms 3-9's ``ctx``) a chain yields. Every one
# is built here: a node's live round context (interned per tip by
# :meth:`Node._current_context`), the context a certified round ran
# under (catch-up, section 8.3) and fork recovery's (section 8.2).

def history_context(chain: Blockchain, round_number: int) -> BAContext:
    """The context round ``round_number`` ran under, rebuilt from
    ``chain``: its selection seed, the weights after round
    ``round_number - 1`` and that round's block hash (section 8.3). What
    catch-up checks a certificate against; never interned — a
    downloaded history is checked on its own terms.
    """
    return BAContext.from_weights(
        seed=chain.selection_seed(round_number),
        weights=chain.weights_at(round_number - 1),
        last_block_hash=chain.block_at(round_number - 1).block_hash,
    )


def recovery_context(chain: Blockchain, pre_fork_round: int,
                     attempt: int) -> BAContext:
    """Fork recovery's shared context: seed and weights from before any
    possible fork (section 8.2), bound to the attempt number."""
    cut = min(pre_fork_round, chain.height)
    seed = H(chain.seed_of_round(cut), encode(attempt))
    # Weights must come from the shared pre-fork prefix: replay it so
    # stake moved by post-fork blocks cannot diverge the contexts.
    weights = chain.fork_from(chain.blocks[1:cut + 1]).state.weights()
    return BAContext.from_weights(seed, weights,
                                  H(b"recovery", encode(attempt)))


#: A node's phases — the reference machine's (``repro.conformance``):
#: IDLE -> PROPOSAL -> BA -> IDLE per round, and the three ways out.
IDLE, PROPOSAL, BA = "IDLE", "PROPOSAL", "BA"
HALTED, CRASHED, RETIRED = "HALTED", "CRASHED", "RETIRED"


class _Round:
    """One round in flight: what its next transition reads, and the
    instants its :class:`RoundRecord` reports."""

    __slots__ = ("number", "ctx", "tracker", "epoch", "start", "deadline",
                 "proposal_done", "binary", "ba_done")

    def __init__(self, number: int, ctx: BAContext,
                 tracker: ProposalTracker, epoch: int, start: float) -> None:
        self.number, self.ctx, self.tracker = number, ctx, tracker
        self.epoch, self.start = epoch, start
        self.deadline = self.proposal_done = self.ba_done = start
        self.binary: BinaryResult | None = None


class Node:
    """One Algorand user: chain replica + gossip peer + BA* participant."""

    def __init__(self, *, index: int, env: Environment, keypair: KeyPair,
                 backend: CryptoBackend, params: ProtocolParams,
                 chain: Blockchain, interface: NetworkInterface,
                 registry: BlockRegistry, runtime: RuntimeConfig,
                 index_of: AccountIndex | None = None, obs=None) -> None:
        self.index = index
        self.env = env
        self.keypair = keypair
        self.backend = backend
        self.params = params
        self.chain = chain
        self.interface = interface
        self.registry = registry
        self.buffer = VoteBuffer(env, runtime.vote_buffer_budget)
        self.mempool = Mempool()
        self.metrics = NodeMetrics()
        #: Where this node stands: IDLE, PROPOSAL or BA within a round,
        #: or HALTED (no consensus and no catch-up), CRASHED (fail-stop,
        #: see :meth:`crash`) or RETIRED (see :meth:`retire`).
        self.phase = IDLE
        #: Optional :class:`~repro.node.catchup.ChainSync` (it installs
        #: itself): what the run adopts at each round boundary, and waits
        #: for before a restarted node's first round (:meth:`rejoin`) and
        #: after a round without consensus. ``None``: no waits.
        self.catchup = None
        #: Optional :class:`repro.obs.TraceBus`; ``None`` keeps every
        #: instrumentation site at a single attribute check.
        self.obs = obs
        #: The node's one message gate: every delivered copy passes it
        #: before the router sees it (validate-before-relay, one message
        #: per key per step, section 8.4), and the round loop tells it of
        #: each commit so its per-round tables and peer-health decay stay
        #: in step.
        self.admission = AdmissionControl(
            self, runtime.flood_budget_per_round, index_of=index_of)
        #: Optional :class:`repro.runtime.damping.RelayDamper` installed
        #: by :func:`repro.runtime.damping.attach_damping`: consulted on
        #: every accepted vote to skip forwarding once the local tally
        #: for its (round, step, value) has crossed the step threshold.
        self.damper = None
        # Single-slot memo in front of the registry's interned contexts:
        # vote admission asks for the same round's context once per
        # delivered envelope.
        self._ctx_memo: tuple[ContextKey, BAContext] | None = None
        self.participant = BAParticipant(
            env=env, params=params, backend=backend, buffer=self.buffer,
            keypair=keypair, gossip_vote=self._gossip_vote,
            step_observer=self._observe_step,
            obs=obs, node_id=index,
        )
        self._trackers: dict[int, ProposalTracker] = {}
        #: The run: rounds toward ``_target`` height (``None``: no run),
        #: then perhaps toward ``_extend_to``. The round in flight owns at
        #: most one live timer, plus the counts it parked
        #: (``participant.counts``). A crash or a retirement bumps
        #: ``_epoch``, which makes a start queued before it stale.
        self._target: int | None = None
        self._extend_to: int | None = None
        self._round: _Round | None = None
        self._timer: Timer | None = None
        self._epoch = 0
        #: Optional hook called with the node when its run ends (target
        #: reached, halted, or crashed).
        self.on_done: Callable[[Node], None] | None = None
        #: Declarative gossip dispatch. Core kinds are registered below;
        #: protocol extensions (fork recovery, chain sync) register their
        #: own kinds instead of monkey-patching the dispatch chain.
        self.router = MessageRouter()
        self.router.register("vote", self._handle_vote)
        self.router.register("priority", self._handle_priority)
        self.router.register("block", self._handle_block)
        self.router.register("tx", self._handle_transaction)
        #: Optional hook called with the round number after each commit
        #: (used e.g. to reshuffle gossip peers each round, section 8.4).
        self.on_commit: Callable[[int], None] | None = None
        #: Fork monitor (section 8.2): votes binding to a previous-block
        #: hash we do not recognize reveal that their sender follows a
        #: different chain. Maps foreign prev_hash -> count seen.
        self.fork_monitor: dict[bytes, int] = {}
        interface.on_receive = self.receive

    # ------------------------------------------------------------------
    # Gossip handling (synchronous, validate-before-relay)
    # ------------------------------------------------------------------

    def receive(self, envelope: Envelope, from_index: int) -> bool | None:
        """The transport's one question about an arriving copy (§8.4):
        ``None`` if the gate rejects it, else the router's relay
        decision (``False`` keeps it, ``True`` also relays it)."""
        if not self.admission.admit(envelope, from_index):
            return None
        return self.router.dispatch(envelope)

    # The gate (:attr:`admission`) passed every copy that reaches a
    # handler: fresh round, valid signature, first of its key.

    def _handle_vote(self, vote: VoteMessage) -> bool:
        if (vote.prev_hash != self.chain.tip_hash
                and vote.round_number == self.chain.next_round):
            # A current-round vote extending a chain we don't hold:
            # evidence of a fork (section 8.2's passive monitoring).
            self.fork_monitor[vote.prev_hash] = (
                self.fork_monitor.get(vote.prev_hash, 0) + 1)
        self.buffer.add(vote)
        if self.damper is not None:
            # Quorum-trimmed relay: the vote is buffered and counted
            # locally either way; only the forward is skipped once this
            # key's tally has crossed its threshold.
            return self.damper.should_relay(vote)
        return True

    def _handle_priority(self, message: PriorityMessage) -> bool:
        # The gate verified a current-round announcement; a later
        # round's is checked when that round begins.
        tracker = self._tracker(message.round_number)
        tracker.observe_priority(
            message, self.env, message.round_number == self.chain.next_round)
        return True

    def _priority_valid(self, message: PriorityMessage,
                        ctx: BAContext) -> bool:
        return message.verify(
            self.backend, ctx.seed, self.params.tau_proposer,
            ctx.weight_of(message.proposer), ctx.total_weight)

    def _handle_block(self, block: Block) -> bool:
        tracker = self._tracker(block.round_number)
        return tracker.observe_block(block, self.env)

    def _handle_transaction(self, tx: Transaction) -> bool:
        try:
            tx.check_shape()
            tx.verify_signature(self.backend)
        except InvalidTransaction:
            return False
        return self.mempool.add(tx)

    def _gossip_vote(self, vote: VoteMessage) -> None:
        self.admission.own_vote(vote)
        self.buffer.add(vote)  # count our own vote
        if self.damper is not None:
            self.damper.observe_own(vote)
        self.interface.broadcast(vote_envelope(self.keypair.public, vote))

    def _observe_step(self, round_number: int, step: str, seconds: float,
                      timed_out: bool) -> None:
        if not timed_out:
            self.metrics.record_step(round_number, step, seconds)

    # ------------------------------------------------------------------
    # Local API
    # ------------------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> None:
        """Inject a locally originated transaction and gossip it."""
        if self.mempool.add(tx):
            self.interface.broadcast(
                transaction_envelope(self.keypair.public, tx, tx.size))

    def start(self, target_height: int) -> None:
        """Run rounds until the chain reaches ``target_height`` blocks.

        The run begins at the next event of this instant. Asked while a
        run is under way, the new target waits for that run to end and
        then begins a run of its own. A crashed node runs again only
        through :meth:`restart`.
        """
        if self.crashed:
            return
        if self.running:
            self._extend_to = target_height
        else:
            self._launch(target_height)

    @property
    def running(self) -> bool:
        """True from :meth:`start` until the run ends."""
        return self._target is not None

    @property
    def halted(self) -> bool:
        """No consensus, and no catch-up answered (HangForever)."""
        return self.phase == HALTED

    @property
    def crashed(self) -> bool:
        return self.phase == CRASHED

    # ------------------------------------------------------------------
    # Fail-stop crash, rejoin and retirement
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop this node mid-whatever-it-was-doing.

        The round and any pipelined final-vote counts stop where they
        wait (:meth:`_stop`), the gossip attachment goes silent, and
        every volatile structure (vote buffer, proposal trackers,
        mempool, dedup sets) is lost. The chain itself survives — it
        models persistent storage, which is exactly what a restarted
        node replays its peers' history on top of (section 8.3).
        """
        if self.crashed:
            return
        self.interface.disconnected = True
        self.buffer.clear()
        self.mempool = Mempool()
        self._trackers.clear()
        self.fork_monitor.clear()
        self._ctx_memo = None
        self.admission.reset()
        if self.damper is not None:
            self.damper.reset()
        self._stop(CRASHED)
        if self.obs is not None:
            self.obs.emit("node_crashed", node=self.index,
                          round=self.chain.next_round)

    def restart(self, target_height: int) -> None:
        """Rejoin after a :meth:`crash`: reconnect (:meth:`revive`),
        catch up on what the peers committed meanwhile (:meth:`rejoin`,
        section 8.3), and run the current round like a bootstrapping
        user."""
        self.revive()
        self.rejoin(target_height)

    def revive(self) -> None:
        """The first half of :meth:`restart`: out of CRASHED and
        reconnected, not yet running."""
        if not self.crashed:
            raise SimulationError(
                f"node {self.index} is not crashed; cannot restart")
        self.phase = IDLE
        self.interface.disconnected = False
        if self.obs is not None:
            self.obs.emit("node_restarted", node=self.index,
                          round=self.chain.next_round)

    def rejoin(self, target_height: int) -> None:
        """Run toward ``target_height`` once caught up: a node with a
        catch-up first asks for what it missed and waits for an answer
        (``catchup.rejoin_polls`` polls), rather than burn timeouts on a
        round its peers finished long ago."""
        if self.catchup is None:
            self._launch(target_height)
        else:
            self._target = target_height
            self._ask_catchup(self.catchup.rejoin_polls)

    def retire(self) -> None:
        """A transient agent's teardown: stop like a crash and drop the
        vote buffer; forgetting the agent is the population's job."""
        self.on_commit = self.on_done = None
        self._stop(RETIRED)
        self.buffer.clear()

    def _stop(self, phase: str) -> None:
        """Cancel what the round owns — its timer and what it parked on
        the tracker, and its counts, pipelined final counts included,
        each closed with an interrupted ``step_exit`` — and drop it with
        the run."""
        running = self.running
        self.phase = phase
        self._epoch += 1
        timer, self._timer = self._timer, None
        if timer is not None:
            timer.cancel()
            if self._round is not None:
                self._round.tracker.unpark(self._proposal_wake, timer)
        self._round = None
        interrupt_counts(self.participant)
        self._target = self._extend_to = None
        if running and self.on_done is not None:
            self.on_done(self)

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------

    def _tracker(self, round_number: int) -> ProposalTracker:
        if round_number not in self._trackers:
            self._trackers[round_number] = ProposalTracker(round_number)
        return self._trackers[round_number]

    def _current_context(self, round_number: int) -> BAContext:
        """The context of ``round_number`` on this node's tip.

        One object per ``(round, height, tip)`` per deployment: the
        first node to ask builds it and interns it in the shared
        :class:`~repro.node.registry.BlockRegistry`, every other node on
        that tip gets the same object — and with it the weight receipts
        its votes already carry for it.
        """
        chain = self.chain
        key = (round_number, chain.height, chain.tip_hash)
        memo = self._ctx_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        ctx = self.registry.context(key)
        if ctx is None:
            ctx = BAContext.from_weights(
                seed=chain.selection_seed(round_number),
                weights=sortition_weights(chain, self.params, round_number),
                last_block_hash=chain.tip_hash,
            )
            self.registry.intern_context(key, ctx)
        self._ctx_memo = (key, ctx)
        return ctx

    def _launch(self, target_height: int) -> None:
        self._target = target_height
        self.env.schedule_now(self._begin_run, self._epoch)

    def _begin_run(self, epoch: int) -> None:
        if epoch == self._epoch:  # else a crash or retirement came first
            self._next_round()

    def _next_round(self) -> None:
        """The run's loop head: catch up, begin a round, or end."""
        if self._target is None:
            return  # retired by its own commit hook: the run is over
        while self.chain.height < self._target and not self.halted:
            if not self._try_catch_up():
                self._begin_round()
                return
        self._end_run()

    def _end_run(self) -> None:
        self._target = None
        extend, self._extend_to = self._extend_to, None
        if self.on_done is not None:
            self.on_done(self)
        if extend is not None and self.chain.height < extend:
            self._launch(extend)

    def _round_halted(self) -> None:
        """No consensus this round: MaxSteps exhausted, or the decided
        block never arrived. Usually the rest of the network moved on
        without us (we were crashed, late, or partitioned); catching up
        from peers is the section 8.3 answer before giving up for good.
        """
        if self.catchup is None:
            self._halt()
        else:
            self._ask_catchup(self.catchup.halt_polls)

    def _ask_catchup(self, polls: int) -> None:
        """Ask the catch-up for history, then poll it for a longer chain
        ``polls`` times, every ``catchup.poll_interval``.

        A restarted node waits in IDLE and, out of polls, begins its
        round. A round without consensus waits in BA — where the
        reference machine allows ``catchup_adopted`` once a
        ConsensusHalted closed every step — and, out of polls, halts.
        """
        self.catchup.request()
        self._timer = self.env.schedule(self.catchup.poll_interval,
                                        self._await_catchup, polls)

    def _await_catchup(self, polls: int) -> None:
        self._timer = None
        if self._try_catch_up():
            self._next_round()
        elif polls > 1:
            self._ask_catchup(polls - 1)
        elif self.phase == IDLE:
            self._next_round()
        else:
            self._halt()

    def _halt(self) -> None:
        self.phase = HALTED
        if self.obs is not None:
            self.obs.emit("consensus_halted", node=self.index,
                          round=self.chain.next_round)
        self._end_run()

    def _try_catch_up(self) -> bool:
        """Adopt a strictly longer validated chain from the catch-up."""
        if self.catchup is None:
            return False
        adopted = self.catchup.take_pending()
        if adopted is None or adopted.height <= self.chain.height:
            return False
        from_height = self.chain.height
        self.chain = adopted
        self._ctx_memo = None
        if self.obs is not None:
            self.obs.emit("catchup_adopted", node=self.index,
                          round=self.chain.next_round,
                          from_height=from_height,
                          to_height=self.chain.height)
        return True

    # --- One round ----------------------------------------------------

    def _begin_round(self) -> None:
        """Propose if selected, then sleep ``lambda_stepvar +
        lambda_priority`` to hear the priorities (section 6)."""
        round_number = self.chain.next_round
        self.buffer.anchor_round = round_number
        obs = self.obs
        if obs is not None:
            obs.emit("round_start", node=self.index, round=round_number)
        ctx = self._current_context(round_number)
        tracker = self._tracker(round_number)
        tracker.settle(partial(self._priority_valid, ctx=ctx))
        self.phase = PROPOSAL
        self._round = _Round(round_number, ctx, tracker, self._epoch,
                             self.env.now)

        proof = sortition(
            self.backend, self.keypair.secret, ctx.seed,
            self.params.tau_proposer, proposer_role(round_number),
            ctx.weight_of(self.keypair.public), ctx.total_weight,
        )
        if proof.j > 0:
            if obs is not None:
                obs.emit("block_proposed", node=self.index,
                         round=round_number, j=proof.j,
                         weight=ctx.weight_of(self.keypair.public))
            self.propose_block(round_number, ctx, proof, tracker)
        params = self.params
        self._timer = self.env.schedule(
            params.lambda_stepvar + params.lambda_priority,
            self._proposal_window)

    def _proposal_window(self) -> None:
        """The priorities are in: wait up to ``lambda_block`` for the
        winning block."""
        self._timer = None
        rnd = self._round
        rnd.deadline = self.env.now + self.params.lambda_block
        self._await_proposal()

    def _await_proposal(self) -> None:
        """Section 6: BA* starts from the highest-priority valid block
        once it is here, from the empty block at the deadline; until
        then, wait for the next new best priority or block."""
        rnd = self._round
        tracker = rnd.tracker
        best = tracker.best_priority
        if best is not None:
            block = tracker.best_block()
            if block is not None:
                # An invalid block from the winning proposer makes the
                # round's proposal empty (section 8.1).
                if self._validate_proposal(rnd.number, rnd.ctx, best, block):
                    self._proposal_resolved(block.block_hash)
                else:
                    self._proposal_resolved(None)
                return
        remaining = rnd.deadline - self.env.now
        if remaining <= 0:
            self._proposal_resolved(None)
            return
        self._timer = timer = self.env.schedule(remaining,
                                                self._proposal_wake)
        tracker.park(self._proposal_wake, timer)

    def _proposal_wake(self, park: Timer | None = None) -> None:
        """The tracker woke ``park``, or (``None``) the deadline fired."""
        timer = self._timer
        if park is not None:
            if park is not timer:
                return  # stale: the other wake-up or the deadline won
            timer.cancel()
        self._timer = None
        self._round.tracker.unpark(self._proposal_wake, timer)
        self._await_proposal()

    def _proposal_resolved(self, block_hash: bytes | None) -> None:
        """Agree on ``block_hash`` (``None``: the empty block)."""
        rnd = self._round
        rnd.proposal_done = self.env.now
        self.phase = BA
        empty = empty_block_hash(rnd.number, rnd.ctx.last_block_hash)
        hblock = empty if block_hash is None else block_hash
        if self.obs is not None:
            self.obs.emit("proposal_resolved", node=self.index,
                          round=rnd.number, empty=hblock == empty,
                          waited_s=rnd.proposal_done - rnd.start)
        reduction(self.participant, rnd.ctx, rnd.number, hblock,
                  self._reduced)

    def _reduced(self, reduced: bytes) -> None:
        rnd = self._round
        binary_ba_star(self.participant, rnd.ctx, rnd.number, reduced,
                       self._agreed)

    def _agreed(self, binary: BinaryResult | None) -> None:
        """BinaryBA* decided (``None``: it halted); count the final
        step, or commit and leave it counting."""
        if binary is None:
            self._round_halted()
            return
        rnd = self._round
        rnd.binary = binary
        rnd.ba_done = self.env.now
        if self.params.pipeline_final_step:
            # Section 10.2 optimization: commit now, count final votes
            # concurrently with the next round; the kind is patched into
            # the metrics record when the count lands.
            self.env.schedule_now(self._count_final, rnd)
            self._commit_round(TENTATIVE)
            return
        params = self.params
        count_votes_then(self.participant, rnd.ctx, rnd.number, FINAL_STEP,
                         params.t_final, params.tau_final,
                         params.lambda_step, self._final_counted)

    def _final_counted(self, final_vote) -> None:
        rnd = self._round
        self._commit_round(FINAL if final_vote is not TIMEOUT
                           and final_vote == rnd.binary.value
                           else TENTATIVE)

    def _commit_round(self, kind: str) -> None:
        rnd = self._round
        round_number, ctx, binary = rnd.number, rnd.ctx, rnd.binary
        end = self.env.now
        try:
            block = self._resolve_block(round_number, ctx, binary.value,
                                        rnd.tracker)
        except LedgerError:
            # Consensus concluded on a block whose body never reached us
            # — possible when this node joined the round mid-flight (a
            # chaos respawn, a healed partition) and the proposal was
            # gossiped before its links came up. The network holds the
            # block and its certificate, so recovering it over catch-up
            # (section 8.3) is the same answer as a halted round.
            self._round_halted()
            return
        certificate = build_certificate(
            self.buffer, ctx, self.backend, self.params, round_number,
            str(binary.deciding_step), binary.value,
        )
        self.phase = IDLE
        self._round = None
        self._commit(round_number, ctx, block, certificate)
        if kind == FINAL:
            # Safety certificate (section 8.3): the final-step votes
            # alone prove this block (and its whole prefix) is final.
            final_certificate = build_certificate(
                self.buffer, ctx, self.backend, self.params, round_number,
                FINAL_STEP, binary.value,
            )
            if final_certificate is not None:
                self.chain.set_final_certificate(round_number,
                                                 final_certificate)
        self.metrics.record_round(RoundRecord(
            round_number=round_number,
            start_time=rnd.start,
            proposal_done_time=rnd.proposal_done,
            ba_done_time=rnd.ba_done,
            end_time=end,
            kind=kind,
            block_hash=block.block_hash,
            is_empty=block.is_empty,
            payload_bytes=block.payload_size,
            binary_steps=binary.deciding_step,
        ))
        if self.obs is not None:
            # The report CLI's per-round segment table (Figure 7 shape)
            # is built from exactly these fields.
            self.obs.emit("round_commit", node=self.index,
                          round=round_number, consensus=kind,
                          empty=block.is_empty,
                          block_hash=block.block_hash.hex(),
                          payload_bytes=block.payload_size,
                          binary_steps=binary.deciding_step,
                          proposal_s=rnd.proposal_done - rnd.start,
                          ba_s=rnd.ba_done - rnd.proposal_done,
                          final_s=end - rnd.ba_done,
                          total_s=end - rnd.start)
        self._prune(round_number)
        self._next_round()

    def _count_final(self, rnd: _Round) -> None:
        """Background final-vote count for a pipelined round."""
        if rnd.epoch != self._epoch:
            return  # crashed or retired before it began
        params = self.params
        count_votes_then(self.participant, rnd.ctx, rnd.number, FINAL_STEP,
                         params.t_final, params.tau_final,
                         params.lambda_step, partial(self._final_landed, rnd))

    def _final_landed(self, rnd: _Round, final_vote) -> None:
        agreed_value = rnd.binary.value
        if final_vote is TIMEOUT or final_vote != agreed_value:
            return
        self.metrics.finalize_kind(rnd.number, FINAL)
        if self.obs is not None:
            self.obs.emit("final_certified", node=self.index,
                          round=rnd.number, pipelined=True)
        final_certificate = build_certificate(
            self.buffer, rnd.ctx, self.backend, self.params, rnd.number,
            FINAL_STEP, agreed_value,
        )
        if final_certificate is not None:
            self.chain.set_final_certificate(rnd.number, final_certificate)

    # --- Proposal ----------------------------------------------------

    def propose_block(self, round_number: int, ctx: BAContext, proof,
                      tracker: ProposalTracker) -> None:
        """Assemble, register, and gossip this node's proposal.

        A seam: the ``equivocate`` and ``silent`` faults replace it for
        their window (:data:`repro.chaos.faults.BYZANTINE_SEAMS`).
        """
        block = self.assemble_block(round_number, proof)
        self.registry.register(block)
        announcement = make_priority_message(self.keypair.public,
                                             round_number, proof)
        self.admission.own_priority(round_number)
        tracker.observe_priority(announcement, self.env)
        tracker.observe_block(block, self.env)
        self.interface.broadcast(
            priority_envelope(self.keypair.public, announcement))
        self.interface.broadcast(
            block_envelope(self.keypair.public, block, block.size))

    def assemble_block(self, round_number: int, proof) -> Block:
        """Build a block of pending transactions for this round."""
        transactions = tuple(self.mempool.assemble(self.chain.state,
                                                   self.params.block_size))
        previous_seed = self.chain.seed_of_round(round_number - 1)
        seed, seed_proof = propose_seed(self.backend, self.keypair.secret,
                                        previous_seed, round_number)
        return Block(
            round_number=round_number,
            prev_hash=self.chain.tip_hash,
            timestamp=self.env.now,
            seed=seed,
            seed_proof=seed_proof,
            proposer=self.keypair.public,
            proposer_vrf_hash=proof.vrf_hash,
            proposer_vrf_proof=proof.vrf_proof,
            proposer_priority=block_priority(proof.vrf_hash, proof.j),
            transactions=transactions,
        )

    def _validate_proposal(self, round_number: int, ctx: BAContext,
                           announcement: PriorityMessage,
                           block: Block) -> bool:
        if not self._priority_valid(announcement, ctx):
            return False
        try:
            validate_block(
                block, backend=self.backend, state=self.chain.state,
                prev_hash=self.chain.tip_hash, round_number=round_number,
                prev_timestamp=self.chain.last_nonempty_timestamp(),
                now=self.env.now,
            )
        except InvalidBlock:
            return False
        return block.seed_valid(
            self.backend, self.chain.seed_of_round(round_number - 1),
            round_number)

    # --- Commit --------------------------------------------------------

    def _resolve_block(self, round_number: int, ctx: BAContext,
                       block_hash: bytes,
                       tracker: ProposalTracker) -> Block:
        """Algorithm 3's ``BlockOfHash``: hash -> block."""
        if block_hash == empty_block_hash(round_number, ctx.last_block_hash):
            return empty_block(round_number, ctx.last_block_hash)
        block = tracker.blocks.get(block_hash)
        if block is None:
            block = self.registry.fetch(block_hash)
        return block

    def _commit(self, round_number: int, ctx: BAContext, block: Block,
                certificate: Certificate | None) -> None:
        self.chain.append(block, certificate, seed_override=accepted_seed(
            self.backend, block,
            self.chain.seed_of_round(round_number - 1), round_number))
        self.mempool.prune_committed(block.transactions, self.chain.state)
        if self.on_commit is not None:
            self.on_commit(round_number)

    def horizon(self, round_number: int) -> int:
        """The oldest round still live while ``round_number`` is the
        newest: with pipelining the previous round's final-vote count
        runs on past its commit (section 10.2), one round of grace."""
        if self.params.pipeline_final_step:
            return round_number - 1
        return round_number

    def _prune(self, completed_round: int) -> None:
        """Drop per-round state older than the previous round."""
        horizon = self.horizon(completed_round)
        self.buffer.prune_before(horizon)
        self.registry.drop_contexts_before(horizon)
        for round_number in [r for r in self._trackers if r < horizon]:
            del self._trackers[round_number]
        self.interface.end_round()
        self.admission.end_round(completed_round, horizon)
        if self.damper is not None:
            self.damper.end_round(horizon)
