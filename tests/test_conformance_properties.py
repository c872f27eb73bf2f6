"""Property tests: the reference machine accepts exactly the legal language.

A generator builds syntactically legal single-node traces straight from
the transition tables (rounds of round_start -> proposal ->
reduction/binary steps -> optional final -> commit, with Algorithm-8
steering votes that never enter their steps). Hypothesis then checks,
at >= 200 examples per property, that

* every generated legal trace is accepted;
* duplicating any single event is rejected (the language has no
  stutters);
* dropping any *required* event is rejected (votes and proposals are
  legally optional and excluded);
* pulling a later round's start inside an unfinished round is rejected;
* interleaving two nodes' legal traces arbitrarily is accepted (the
  node rules are strictly per-node) as long as the nodes agree on every
  round's block — and when they do not, exactly the cluster rule
  ``unique-certificate`` fires, no node rule.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.machine import NodeMachine
from repro.conformance.monitor import ConformanceMonitor

EXAMPLES = 200


def _steps_for(k: int) -> list[str]:
    return ["reduction_one", "reduction_two"] + [str(i) for i in
                                                 range(1, k + 1)]


@st.composite
def legal_round(draw, node: int, round_number: int) -> list[dict]:
    """One legal round of events for ``node`` (commit included)."""
    events: list[dict] = []

    def emit(kind: str, **fields) -> None:
        events.append({"kind": kind, "t": float(len(events)),
                       "node": node, "round": round_number, **fields})

    emit("round_start")
    if draw(st.booleans()):
        emit("block_proposed", j=1, weight=1)
    emit("proposal_resolved", empty=False, waited_s=1.0)

    binary_steps = draw(st.integers(min_value=1, max_value=4))
    want_final = draw(st.booleans())
    for step in _steps_for(binary_steps):
        emit("step_enter", step=step, deadline_s=3.0)
        if draw(st.booleans()):
            emit("vote_cast", step=step, j=1, weight=1)
        # The deciding (last) step must have reached a quorum; earlier
        # steps may legally time out.
        timed_out = (step != str(binary_steps)
                     and draw(st.booleans()))
        emit("step_exit", step=step, seconds=1.0, timed_out=timed_out)
    # Algorithm 8 steering: votes for steps never entered are legal.
    for ahead in range(draw(st.integers(min_value=0, max_value=3))):
        emit("vote_cast", step=str(binary_steps + 1 + ahead),
             j=1, weight=1)
    if want_final:
        emit("step_enter", step="final", deadline_s=3.0)
        emit("step_exit", step="final", seconds=1.0, timed_out=False)
    emit("round_commit",
         consensus="final" if want_final else "tentative",
         empty=False, block_hash="00", payload_bytes=0,
         binary_steps=binary_steps, proposal_s=1.0, ba_s=1.0,
         final_s=1.0, total_s=3.0)
    return events


@st.composite
def legal_trace(draw, node: int = 0, max_rounds: int = 3) -> list[dict]:
    rounds = draw(st.integers(min_value=1, max_value=max_rounds))
    events: list[dict] = []
    for round_number in range(1, rounds + 1):
        events.extend(draw(legal_round(node, round_number)))
    return events


def _violations(events: list[dict], node: int = 0) -> list:
    machine = NodeMachine(node)
    found = []
    for event in events:
        found.extend(machine.feed(event))
    return found


#: Kinds whose *presence* the machine requires somewhere downstream;
#: dropping any one instance must break the trace. (vote_cast and
#: block_proposed are legally optional, final step_exit only matters
#: for final consensus — excluded.)
_REQUIRED_KINDS = ("round_start", "proposal_resolved", "round_commit",
                   "step_enter", "step_exit")


def _droppable(events: list[dict]) -> list[int]:
    out = []
    last_commit_at = max(i for i, e in enumerate(events)
                         if e["kind"] == "round_commit")
    for i, event in enumerate(events):
        if event["kind"] not in _REQUIRED_KINDS:
            continue
        if event.get("step") == "final":
            continue  # tentative rounds may leave final intervals open
        if event["kind"] == "round_commit" and i == last_commit_at:
            continue  # a truncated trace is legal (prefix closure)
        out.append(i)
    return out


class TestLegalLanguage:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(legal_trace())
    def test_legal_traces_are_accepted(self, events):
        assert _violations(events) == []

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(st.data(), legal_trace())
    def test_duplicated_events_are_rejected(self, data, events):
        at = data.draw(st.integers(min_value=0, max_value=len(events) - 1))
        mutated = events[:at + 1] + [dict(events[at])] + events[at + 1:]
        assert _violations(mutated), (
            f"duplicating event {events[at]} went unnoticed")

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(st.data(), legal_trace())
    def test_dropped_events_are_rejected(self, data, events):
        candidates = _droppable(events)
        at = data.draw(st.sampled_from(candidates))
        mutated = events[:at] + events[at + 1:]
        assert _violations(mutated), (
            f"dropping event {events[at]} went unnoticed")

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(st.data(), legal_trace(max_rounds=2))
    def test_cross_round_interleave_is_rejected(self, data, events):
        starts = [i for i, e in enumerate(events)
                  if e["kind"] == "round_start" and e["round"] >= 2]
        if not starts:
            events = events + data.draw(legal_round(0, 2))
            starts = [i for i, e in enumerate(events)
                      if e["kind"] == "round_start" and e["round"] == 2]
        # Pull a later round's start to before the prior commit: the
        # rounds now interleave, which the machine must reject.
        at = starts[0]
        prior_commit = max(i for i in range(at)
                           if events[i]["kind"] == "round_commit")
        target = data.draw(st.integers(min_value=1,
                                       max_value=prior_commit))
        moved = events[at]
        mutated = (events[:target] + [moved] + events[target:at]
                   + events[at + 1:])
        assert _violations(mutated)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(st.data(), legal_trace(node=0), legal_trace(node=1))
    def test_interleaved_nodes_are_accepted(self, data, left, right):
        # Any shuffle-merge preserving per-node order must be accepted:
        # the node rules are strictly per-node, and the two nodes agree
        # on every round's block (the generator's one block_hash).
        merged: list[dict] = []
        i = j = 0
        while i < len(left) or j < len(right):
            take_left = i < len(left) and (j >= len(right)
                                           or data.draw(st.booleans()))
            if take_left:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
        monitor = ConformanceMonitor()
        monitor.feed(merged)
        assert monitor.ok, [v.to_dict() for v in monitor.violations]
        assert len(monitor.machines) == 2

        # Fork one round both nodes committed: each stream is as legal
        # as before, so exactly the cross-node rule must fire — once,
        # at whichever of the two commits comes second.
        shared = min(left[-1]["round"], right[-1]["round"])
        forked_round = data.draw(st.integers(min_value=1,
                                             max_value=shared))
        forked = [dict(e, block_hash="ff")
                  if (e["kind"] == "round_commit" and e["node"] == 1
                      and e["round"] == forked_round) else e
                  for e in merged]
        monitor = ConformanceMonitor()
        monitor.feed(forked)
        assert [(v.rule, v.round) for v in monitor.violations] == [
            ("unique-certificate", forked_round)]
