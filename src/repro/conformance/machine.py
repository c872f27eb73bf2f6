"""Reference BA* machines: every rule a trace-event stream can break.

This module is **standalone and dependency-free** (stdlib only, no
imports from the rest of the tree): it is the specification the
implementation is checked against, so it must not share code with the
implementation. The step names and round conventions mirror the paper
(§7-§8) and the constants in :mod:`repro.sortition.roles` by value, not
by import (``tests/test_conformance.py`` pins the values equal).

Two machines split the rules by what they are properties of: a
:class:`NodeMachine` holds what one user's stream must obey, the
:class:`ClusterMachine` what the paper promises of the *system* and no
single stream can show — ``unique-certificate`` (§5, §7 safety: no two
``round_commit`` events of one round differ in ``block_hash``) and
``liveness`` (§3 weak synchrony: asked at end of run, some node
committed within the bound of the last heal).

One :class:`NodeMachine` tracks a single node's protocol state as a
small labelled transition system over the phases

``IDLE -> PROPOSAL -> BA -> IDLE``  (one round)

with terminal/exceptional phases ``HALTED`` (MaxSteps exhausted),
``CRASHED`` (fail-stop), and ``RETIRED`` (aggregated-population
teardown). Feeding it one event either advances the state or returns a
:class:`Violation` naming the broken rule. The machine is
**prefix-closed**: a trace may end in any state (runs are truncated by
time limits, pipelined final counts legitimately outlive the run), so
only *events*, never end-of-trace, produce violations.

Legal transitions (the tables the guards implement):

==================  =========================  =======================
event               legal in phases            next phase
==================  =========================  =======================
round_start         IDLE, HALTED, RETIRED      PROPOSAL
block_proposed      PROPOSAL (once)            PROPOSAL
proposal_resolved   PROPOSAL                   BA
vote_cast           BA (current round) [1]     unchanged
step_enter          BA (current round) [2]     unchanged
step_exit           any with a matching open   unchanged
                    interval
round_commit        BA (current round) [3]     IDLE
final_certified     any but CRASHED/RETIRED    unchanged
                    [4]
consensus_halted    BA (current round)         HALTED
node_crashed        any but CRASHED            CRASHED
node_restarted      CRASHED                    IDLE
catchup_adopted     IDLE, BA [5]               IDLE
agent_retired       any but CRASHED            RETIRED [6]
==================  =========================  =======================

[1] At most one vote per (round, step); steps need not be entered
    (Algorithm 8's next-three steering and the step-1 final vote are
    votes without a local count). Recovery-lane rounds
    (>= :data:`RECOVERY_ROUND_BASE`) are checked per-round in any
    phase but CRASHED/RETIRED.
[2] Steps are entered in protocol order — ``reduction_one``,
    ``reduction_two``, then numeric steps ``1..k`` with no gaps, then
    ``final`` — each at most once per round, with at most one non-final
    step open at a time. ``final`` may additionally be entered after
    the round committed (§10.2 pipelining), including concurrently for
    several past rounds.
[3] A commit must have entered+exited ``reduction_one``,
    ``reduction_two`` and binary step 1, hold no open non-final step,
    and its deciding step (the ``binary_steps`` field) must have exited
    with ``timed_out == False`` (a quorum, not a timeout, decides);
    ``consensus == "final"`` additionally requires a non-timeout
    ``final`` exit. Committed rounds are strictly increasing
    (``monotonic-rounds``: commitments are never rolled back, catch-up
    replaces a *shorter* chain only) — checked for every
    ``round_commit``, whatever the phase.
[4] ``final_certified`` needs the round committed and a non-timeout
    ``final`` exit for it (the pipelined count landed a quorum).
[5] From BA only via the ConsensusHalted -> catch-up path, which leaves
    no open steps.
[6] In the aggregated population a transient committing its own
    boundary retires *during* its commit hook, so the machine grants a
    one-event grace: the ``round_commit`` for exactly the in-flight
    round may still arrive after ``agent_retired``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Mirrors repro.sortition.roles (by value; this module must not import
# the implementation it specifies).
REDUCTION_ONE = "reduction_one"
REDUCTION_TWO = "reduction_two"
FINAL_STEP = "final"
#: Fork-recovery BA* executions use round numbers at/above this base;
#: they run while the node's normal lifecycle is elsewhere (often
#: HALTED), so the machine checks them as an independent per-round lane.
RECOVERY_ROUND_BASE = 1_000_000_000

# Phases of the node lifecycle.
IDLE = "IDLE"
PROPOSAL = "PROPOSAL"
BA = "BA"
HALTED = "HALTED"
CRASHED = "CRASHED"
RETIRED = "RETIRED"


@dataclass(frozen=True)
class Violation:
    """One conformance breach, with enough context to reproduce it."""

    rule: str
    t: float
    node: int | None
    round: int | None
    step: str | None
    kind: str
    phase: str
    detail: str

    def to_dict(self) -> dict:
        return {"rule": self.rule, "t": self.t, "node": self.node,
                "round": self.round, "step": self.step, "kind": self.kind,
                "phase": self.phase, "detail": self.detail}


def step_order(step: str) -> int | None:
    """Total order of BA* steps; ``None`` for unknown labels."""
    if step == REDUCTION_ONE:
        return -2
    if step == REDUCTION_TWO:
        return -1
    if step == FINAL_STEP:
        return 1_000_000
    try:
        value = int(step)
    except (TypeError, ValueError):
        return None
    return value if value >= 1 else None


@dataclass
class _RoundSteps:
    """Per-round step bookkeeping (normal current round or recovery)."""

    entered: set[str] = field(default_factory=set)
    #: step -> exit record fields (timed_out, seconds, ...).
    exited: dict[str, dict] = field(default_factory=dict)
    #: currently open non-final step (enter seen, no exit yet).
    open_step: str | None = None
    voted: set[str] = field(default_factory=set)


class NodeMachine:
    """The reference LTS for one node; feed events, collect violations."""

    def __init__(self, node: int | None) -> None:
        self.node = node
        self.phase = IDLE
        #: Round in progress (PROPOSAL/BA phases only).
        self.round: int | None = None
        #: Expected next round_start round; ``None`` accepts any (fresh
        #: machines, post-halt rejoins, re-materialized transients).
        self.expected_round: int | None = None
        self.proposed = False
        self.steps = _RoundSteps()
        #: Rounds committed by this node (for pipelined-final checks).
        self.committed: set[int] = set()
        #: Highest round any ``round_commit`` of this node named.
        self.last_commit: int | None = None
        #: round -> final-step exit record (normal rounds; final opens
        #: and exits can straddle commits under pipelining).
        self.final_open: dict[int, float] = {}
        self.final_exit: dict[int, dict] = {}
        #: Recovery lane: recovery round -> its own step bookkeeping.
        self.recovery: dict[int, _RoundSteps] = {}
        #: Aggregated self-retirement grace (see module docstring, [6]).
        self._retired_pending_commit: int | None = None

    # -- helpers -------------------------------------------------------

    def _violation(self, rule: str, event: dict, detail: str) -> Violation:
        return Violation(
            rule=rule, t=float(event.get("t", 0.0)), node=self.node,
            round=event.get("round"), step=event.get("step"),
            kind=str(event.get("kind")), phase=self.phase, detail=detail)

    def _reset_round_state(self) -> None:
        self.round = None
        self.proposed = False
        self.steps = _RoundSteps()

    def open_steps(self) -> list[tuple[int, str]]:
        """Intervals currently open — end-of-trace info, not violations."""
        out: list[tuple[int, str]] = []
        if self.round is not None and self.steps.open_step is not None:
            out.append((self.round, self.steps.open_step))
        out.extend((rnd, FINAL_STEP) for rnd in sorted(self.final_open))
        for rnd in sorted(self.recovery):
            lane = self.recovery[rnd]
            if lane.open_step is not None:
                out.append((rnd, lane.open_step))
        return out

    # -- the transition function ---------------------------------------

    def feed(self, event: dict) -> list[Violation]:
        """Advance on one event; returns the violations it triggered."""
        handler = _HANDLERS.get(event.get("kind"))
        if handler is None:
            return []  # not a protocol event (faults, population, sweep)
        return handler(self, event)

    # Each handler returns a list of violations (usually empty) and
    # advances the state as far as is sound even on violation, so one
    # bad event does not cascade into spurious follow-on reports.

    def _on_round_start(self, event: dict) -> list[Violation]:
        violations: list[Violation] = []
        round_number = event.get("round")
        if self.phase == CRASHED:
            return [self._violation(
                "crashed-activity", event,
                "round_start from a crashed node (no restart seen)")]
        if self.phase in (PROPOSAL, BA):
            violations.append(self._violation(
                "round-start-mid-round", event,
                f"round_start while round {self.round} is in progress"))
        if (self.phase == IDLE and self.expected_round is not None
                and round_number != self.expected_round):
            violations.append(self._violation(
                "round-sequence", event,
                f"expected round {self.expected_round} next, "
                f"got {round_number}"))
        if self.steps.open_step is not None:
            violations.append(self._violation(
                "unclosed-step", event,
                f"step {self.steps.open_step!r} of round {self.round} "
                f"never exited"))
        self._reset_round_state()
        self._retired_pending_commit = None
        self.phase = PROPOSAL
        self.round = round_number
        return violations

    def _on_block_proposed(self, event: dict) -> list[Violation]:
        if self.phase != PROPOSAL or event.get("round") != self.round:
            return [self._violation(
                "proposal-phase", event,
                f"block_proposed outside the proposal phase of its round "
                f"(current round {self.round})")]
        if self.proposed:
            return [self._violation(
                "duplicate-proposal", event,
                f"second block_proposed in round {self.round}")]
        self.proposed = True
        return []

    def _on_proposal_resolved(self, event: dict) -> list[Violation]:
        if self.phase != PROPOSAL or event.get("round") != self.round:
            return [self._violation(
                "resolve-phase", event,
                f"proposal_resolved outside the proposal phase "
                f"(current round {self.round})")]
        self.phase = BA
        return []

    def _lane(self, round_number: int) -> _RoundSteps:
        return self.recovery.setdefault(round_number, _RoundSteps())

    def _on_vote_cast(self, event: dict) -> list[Violation]:
        round_number = event.get("round")
        step = event.get("step")
        if step_order(step) is None:
            return [self._violation(
                "unknown-step", event, f"unknown step label {step!r}")]
        if (isinstance(round_number, int)
                and round_number >= RECOVERY_ROUND_BASE):
            # Recovery sessions run in any lifecycle phase (typically
            # HALTED); they are checked per-lane, not against the phase.
            lane = self._lane(round_number)
            if step in lane.voted:
                return [self._violation(
                    "duplicate-vote", event,
                    f"second vote for recovery round {round_number} "
                    f"step {step!r}")]
            lane.voted.add(step)
            return []
        if self.phase != BA or round_number != self.round:
            return [self._violation(
                "vote-phase", event,
                f"vote_cast outside BA of its round "
                f"(current round {self.round})")]
        if step in self.steps.voted:
            return [self._violation(
                "duplicate-vote", event,
                f"second vote for round {round_number} step {step!r}")]
        self.steps.voted.add(step)
        return []

    def _enter_lane_step(self, lane: _RoundSteps, event: dict,
                         where: str) -> list[Violation]:
        """Shared step_enter ordering/dedup checks for one round lane."""
        step = event.get("step")
        violations: list[Violation] = []
        if step in lane.entered:
            violations.append(self._violation(
                "duplicate-step", event,
                f"step {step!r} entered twice in {where}"))
            return violations
        order = step_order(step)
        if order is None:
            return [self._violation(
                "unknown-step", event, f"unknown step label {step!r}")]
        if step == REDUCTION_TWO and REDUCTION_ONE not in lane.entered:
            violations.append(self._violation(
                "step-order", event,
                f"{REDUCTION_TWO} entered before {REDUCTION_ONE} "
                f"in {where}"))
        elif step == FINAL_STEP:
            if "1" not in lane.entered:
                violations.append(self._violation(
                    "step-order", event,
                    f"final step entered before binary step 1 in {where}"))
        elif order >= 1:
            predecessor = REDUCTION_TWO if order == 1 else str(order - 1)
            if predecessor not in lane.entered:
                violations.append(self._violation(
                    "step-order", event,
                    f"binary step {step!r} entered but its predecessor "
                    f"{predecessor!r} was never entered in {where}"))
        if step != FINAL_STEP:
            if lane.open_step is not None:
                violations.append(self._violation(
                    "concurrent-steps", event,
                    f"step {step!r} entered while {lane.open_step!r} "
                    f"is still open in {where}"))
            lane.open_step = step
        lane.entered.add(step)
        return violations

    def _on_step_enter(self, event: dict) -> list[Violation]:
        round_number = event.get("round")
        step = event.get("step")
        if (isinstance(round_number, int)
                and round_number >= RECOVERY_ROUND_BASE):
            return self._enter_lane_step(
                self._lane(round_number), event,
                f"recovery round {round_number}")
        if step == FINAL_STEP and round_number in self.committed:
            # §10.2 pipelining: the final count for a committed round
            # runs concurrently with later rounds.
            if round_number in self.final_open:
                return [self._violation(
                    "duplicate-step", event,
                    f"pipelined final step of round {round_number} "
                    f"entered twice")]
            if round_number in self.final_exit:
                return [self._violation(
                    "duplicate-step", event,
                    f"final step of round {round_number} re-entered "
                    f"after exiting")]
            self.final_open[round_number] = float(event.get("t", 0.0))
            return []
        if self.phase != BA or round_number != self.round:
            return [self._violation(
                "step-phase", event,
                f"step_enter outside BA of its round "
                f"(current round {self.round})")]
        if step == FINAL_STEP:
            violations = self._enter_lane_step(
                self.steps, event, f"round {round_number}")
            if not any(v.rule == "duplicate-step" for v in violations):
                self.final_open[round_number] = float(event.get("t", 0.0))
            return violations
        return self._enter_lane_step(self.steps, event,
                                     f"round {round_number}")

    def _on_step_exit(self, event: dict) -> list[Violation]:
        round_number = event.get("round")
        step = event.get("step")
        if (isinstance(round_number, int)
                and round_number >= RECOVERY_ROUND_BASE):
            lane = self.recovery.get(round_number)
            if lane is None or (lane.open_step != step
                                and step != FINAL_STEP):
                return [self._violation(
                    "unmatched-step-exit", event,
                    f"step_exit with no open step_enter in recovery "
                    f"round {round_number}")]
            if step == FINAL_STEP:
                if FINAL_STEP not in lane.entered or step in lane.exited:
                    return [self._violation(
                        "unmatched-step-exit", event,
                        f"final step_exit with no open final interval "
                        f"in recovery round {round_number}")]
            else:
                lane.open_step = None
            lane.exited[step] = dict(event)
            return []
        if step == FINAL_STEP:
            if round_number not in self.final_open:
                return [self._violation(
                    "unmatched-step-exit", event,
                    f"final step_exit for round {round_number} with no "
                    f"open final interval")]
            del self.final_open[round_number]
            self.final_exit[round_number] = dict(event)
            if round_number == self.round:
                self.steps.exited[step] = dict(event)
            return []
        if (round_number != self.round
                or self.steps.open_step != step):
            return [self._violation(
                "unmatched-step-exit", event,
                f"step_exit for round {round_number} step {step!r} "
                f"with no matching open step_enter "
                f"(open: {self.steps.open_step!r} of round {self.round})")]
        self.steps.open_step = None
        self.steps.exited[step] = dict(event)
        return []

    def _on_round_commit(self, event: dict) -> list[Violation]:
        violations: list[Violation] = []
        round_number = event.get("round")
        if isinstance(round_number, int):
            last = self.last_commit
            if last is not None and round_number <= last:
                violations.append(self._violation(
                    "monotonic-rounds", event,
                    f"node {self.node} committed round {round_number} "
                    f"after already committing round {last}"))
            else:
                self.last_commit = round_number
        if self._retired_pending_commit is not None:
            # Aggregated self-retirement: the commit of the in-flight
            # round lands after agent_retired (see [6] above).
            if round_number == self._retired_pending_commit:
                self._retired_pending_commit = None
                self.committed.add(round_number)
                return violations
            violations.append(self._violation(
                "retired-activity", event,
                f"round_commit for round {round_number} from a retired "
                f"node (only the in-flight round "
                f"{self._retired_pending_commit} may commit)"))
            return violations
        if self.phase != BA or round_number != self.round:
            violations.append(self._violation(
                "commit-phase", event,
                f"round_commit outside BA of its round "
                f"(current round {self.round})"))
            return violations
        if round_number in self.committed:
            violations.append(self._violation(
                "duplicate-commit", event,
                f"round {round_number} committed twice"))
        for required in (REDUCTION_ONE, REDUCTION_TWO, "1"):
            if required not in self.steps.exited:
                violations.append(self._violation(
                    "commit-skipped-step", event,
                    f"round {round_number} committed without completing "
                    f"step {required!r}"))
        if self.steps.open_step is not None:
            violations.append(self._violation(
                "unclosed-step", event,
                f"round {round_number} committed with step "
                f"{self.steps.open_step!r} still open"))
        deciding = event.get("binary_steps")
        deciding_exit = self.steps.exited.get(str(deciding))
        if deciding_exit is None:
            violations.append(self._violation(
                "commit-without-quorum", event,
                f"deciding step {deciding!r} of round {round_number} "
                f"was never completed"))
        elif (deciding_exit.get("timed_out")
                or deciding_exit.get("interrupted")):
            violations.append(self._violation(
                "commit-without-quorum", event,
                f"deciding step {deciding!r} of round {round_number} "
                f"did not reach a vote quorum — only a quorum can "
                f"decide a round"))
        if event.get("consensus") == "final":
            final_exit = self.final_exit.get(round_number)
            if final_exit is None:
                violations.append(self._violation(
                    "final-without-quorum", event,
                    f"round {round_number} committed as final but the "
                    f"final step never completed"))
            elif (final_exit.get("timed_out")
                    or final_exit.get("interrupted")):
                violations.append(self._violation(
                    "final-without-quorum", event,
                    f"round {round_number} committed as final but the "
                    f"final step reached no quorum"))
        self.committed.add(round_number)
        if isinstance(round_number, int):
            self.expected_round = round_number + 1
        self._reset_round_state()
        self.phase = IDLE
        return violations

    def _on_final_certified(self, event: dict) -> list[Violation]:
        round_number = event.get("round")
        if self.phase in (CRASHED, RETIRED):
            return [self._violation(
                f"{self.phase.lower()}-activity", event,
                f"final_certified from a {self.phase.lower()} node")]
        if round_number not in self.committed:
            return [self._violation(
                "final-certified-uncommitted", event,
                f"final_certified for round {round_number}, which this "
                f"node never committed")]
        final_exit = self.final_exit.get(round_number)
        if final_exit is None:
            return [self._violation(
                "final-certified-without-quorum", event,
                f"final_certified for round {round_number} but its "
                f"final step never completed")]
        if final_exit.get("timed_out") or final_exit.get("interrupted"):
            return [self._violation(
                "final-certified-without-quorum", event,
                f"final_certified for round {round_number} but its "
                f"final step reached no quorum")]
        return []

    def _on_consensus_halted(self, event: dict) -> list[Violation]:
        violations: list[Violation] = []
        if self.phase != BA or event.get("round") != self.round:
            violations.append(self._violation(
                "halt-phase", event,
                f"consensus_halted outside BA of its round "
                f"(current round {self.round})"))
        if self.steps.open_step is not None:
            violations.append(self._violation(
                "unclosed-step", event,
                f"halted with step {self.steps.open_step!r} still open"))
        self._reset_round_state()
        self.phase = HALTED
        # Recovery may adopt a different chain while halted; the rejoin
        # round is not predictable from this trace alone.
        self.expected_round = None
        return violations

    def _on_node_crashed(self, event: dict) -> list[Violation]:
        violations: list[Violation] = []
        if self.phase == CRASHED:
            violations.append(self._violation(
                "crashed-activity", event, "crashed node crashed again"))
        # Recovery-lane intervals are exempt: crash() does not kill
        # recovery sessions, so their counts legitimately finish later.
        open_now = [(rnd, step) for rnd, step in self.open_steps()
                    if rnd < RECOVERY_ROUND_BASE]
        for rnd, step in open_now:
            violations.append(self._violation(
                "unclosed-step", event,
                f"crashed with step {step!r} of round {rnd} still open "
                f"(no interrupted step_exit emitted)"))
        self._reset_round_state()
        self.final_open.clear()
        self.phase = CRASHED
        self.expected_round = None
        return violations

    def _on_node_restarted(self, event: dict) -> list[Violation]:
        if self.phase != CRASHED:
            return [self._violation(
                "restart-phase", event,
                "node_restarted without a preceding node_crashed")]
        self.phase = IDLE
        round_number = event.get("round")
        self.expected_round = (round_number
                               if isinstance(round_number, int) else None)
        return []

    def _on_catchup_adopted(self, event: dict) -> list[Violation]:
        violations: list[Violation] = []
        if self.phase not in (IDLE, BA):
            violations.append(self._violation(
                "catchup-phase", event,
                f"catchup_adopted in phase {self.phase} (legal from IDLE "
                f"or from BA after a ConsensusHalted)"))
        if self.steps.open_step is not None:
            violations.append(self._violation(
                "unclosed-step", event,
                f"catchup with step {self.steps.open_step!r} still open"))
        from_height = event.get("from_height")
        to_height = event.get("to_height")
        if (isinstance(from_height, int) and isinstance(to_height, int)
                and to_height <= from_height):
            violations.append(self._violation(
                "catchup-shrank", event,
                f"catchup adopted a chain of height {to_height} over "
                f"height {from_height} (must be strictly longer)"))
        self._reset_round_state()
        if self.phase != RETIRED:
            self.phase = IDLE
        round_number = event.get("round")
        self.expected_round = (round_number
                               if isinstance(round_number, int) else None)
        return violations

    def _on_agent_retired(self, event: dict) -> list[Violation]:
        violations: list[Violation] = []
        if self.phase == CRASHED:
            violations.append(self._violation(
                "crashed-activity", event, "crashed node retired"))
        if self.phase == RETIRED:
            violations.append(self._violation(
                "retired-activity", event, "retired node retired again"))
        if self.steps.open_step is not None:
            violations.append(self._violation(
                "unclosed-step", event,
                f"retired with step {self.steps.open_step!r} of round "
                f"{self.round} still open"))
        if self.final_open:
            stuck = sorted(self.final_open)
            violations.append(self._violation(
                "unclosed-step", event,
                f"retired with pipelined final step(s) of round(s) "
                f"{stuck} still open"))
        # Self-retirement during the boundary hook happens mid-commit:
        # grant the in-flight round's commit a one-event grace.
        self._retired_pending_commit = (self.round if self.phase == BA
                                        else None)
        self._reset_round_state()
        self.final_open.clear()
        self.phase = RETIRED
        self.expected_round = None
        return violations


_HANDLERS = {
    "round_start": NodeMachine._on_round_start,
    "block_proposed": NodeMachine._on_block_proposed,
    "proposal_resolved": NodeMachine._on_proposal_resolved,
    "vote_cast": NodeMachine._on_vote_cast,
    "step_enter": NodeMachine._on_step_enter,
    "step_exit": NodeMachine._on_step_exit,
    "round_commit": NodeMachine._on_round_commit,
    "final_certified": NodeMachine._on_final_certified,
    "consensus_halted": NodeMachine._on_consensus_halted,
    "node_crashed": NodeMachine._on_node_crashed,
    "node_restarted": NodeMachine._on_node_restarted,
    "catchup_adopted": NodeMachine._on_catchup_adopted,
    "agent_retired": NodeMachine._on_agent_retired,
}

#: Event kinds the machines interpret (everything else is ignored).
PROTOCOL_EVENT_KINDS = frozenset(_HANDLERS)


class ClusterMachine:
    """The reference rules over every node's stream at once."""

    def __init__(self) -> None:
        #: round -> {block_hash: (t, node) of its first commit}.
        self.round_hashes: dict[int, dict[str, tuple[float, int]]] = {}
        #: When each commit happened (what :meth:`liveness` is asked of).
        self.commit_times: list[float] = []

    def feed(self, event: dict) -> list[Violation]:
        """Advance on one event; returns the violations it triggered."""
        if event.get("kind") != "round_commit":
            return []
        node = event.get("node")
        round_number = event.get("round")
        block_hash = event.get("block_hash")
        if node is None or round_number is None or block_hash is None:
            return []
        t = float(event.get("t", 0.0))
        self.commit_times.append(t)
        hashes = self.round_hashes.setdefault(round_number, {})
        if block_hash in hashes:
            return []
        found: list[Violation] = []
        if hashes:
            other_hash, (other_t, other_node) = next(iter(hashes.items()))
            found.append(Violation(
                rule="unique-certificate", t=t, node=node,
                round=round_number, step=None, kind="round_commit",
                phase="", detail=(
                    f"round {round_number}: node {node} committed "
                    f"{block_hash[:16]} at t={t:.2f} but node "
                    f"{other_node} committed {other_hash[:16]} "
                    f"at t={other_t:.2f}")))
        hashes[block_hash] = (t, node)
        return found

    def liveness(self, now: float, heal_time: float,
                 bound: float) -> list[Violation]:
        """The end-of-run question: did progress resume after the heal?

        ``now`` is the clock when the run stopped (for a recorded trace,
        the last event's timestamp), ``heal_time`` when the last fault
        healed (0 for a fault-free run). A run that stopped before
        ``heal_time + bound`` is not judged either way.
        """
        deadline = heal_time + bound
        if now < deadline:
            return []
        if heal_time > 0.0:
            if any(heal_time < t <= deadline for t in self.commit_times):
                return []
            detail = (f"no honest commit within {bound:.0f}s of the last "
                      f"heal at t={heal_time:.2f} (clock reached "
                      f"t={now:.2f})")
        elif self.commit_times:
            return []
        else:
            detail = (f"fault-free run reached t={now:.2f} with no commit "
                      f"at all (bound {bound:.0f}s)")
        return [Violation(rule="liveness", t=now, node=None, round=None,
                          step=None, kind="", phase="", detail=detail)]


#: What the paper promises of a run's outcome, as opposed to how each
#: step must be taken; chaos verdicts report these under bare names.
OUTCOME_RULES = frozenset(
    {"unique-certificate", "monotonic-rounds", "liveness"})
