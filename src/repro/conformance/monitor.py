"""Online conformance checking over the trace stream.

:class:`ConformanceMonitor` implements the
:class:`repro.obs.bus.TraceSink` protocol: attach it with one
``bus.add_sink(monitor)`` and every emitted event is replayed, the
instant it happens, through that node's
:class:`~repro.conformance.machine.NodeMachine` and the run's one
:class:`~repro.conformance.machine.ClusterMachine`. It is the only
checker of a trace: the harness, both chaos runners and the offline CLI
all ask this sink. Violations are recorded with full context — never
raised — so a red run still completes and renders its verdict.

The monitor is a pure observer: it never touches the bus, the clock,
randomness, or scheduling, so a monitored run commits chains
byte-identical to an unmonitored one (tested alongside the obs
pure-observer suite).
"""

from __future__ import annotations

import json

from repro.conformance.machine import (
    PROTOCOL_EVENT_KINDS,
    ClusterMachine,
    NodeMachine,
    Violation,
)


class ConformanceVerdict:
    """Deterministic summary of one conformance check."""

    def __init__(self, *, ok: bool, events_checked: int, nodes: int,
                 violations: list[dict], open_steps: dict[str, list],
                 trace_complete: bool = True) -> None:
        self.ok = ok
        self.events_checked = events_checked
        self.nodes = nodes
        self.violations = violations
        #: node -> [[round, step], ...] intervals open at end of trace
        #: (informational: runs are truncated, pipelined finals outlive
        #: them — an open interval at end-of-trace is not a violation).
        self.open_steps = open_steps
        #: False when the source trace lacks its closing snapshot (its
        #: writer never closed it): a clean verdict over an incomplete
        #: trace is not a proof.
        self.trace_complete = trace_complete

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "events_checked": self.events_checked,
            "nodes": self.nodes,
            "violations": self.violations,
            "open_steps": self.open_steps,
            "trace_complete": self.trace_complete,
        }

    def to_json(self) -> str:
        """Stable serialization: same trace, same bytes."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


class ConformanceMonitor:
    """TraceBus sink replaying a run's stream through the machines."""

    def __init__(self, *, registry=None,
                 max_violations: int = 1000) -> None:
        #: Optional :class:`repro.obs.metrics.MetricsRegistry` that
        #: receives ``conformance.*`` counters (usually ``bus.metrics``).
        self.registry = registry
        #: Stop recording (not checking) beyond this many violations —
        #: a systematically wrong trace would otherwise accumulate one
        #: violation per event.
        self.max_violations = max_violations
        self.machines: dict[int | None, NodeMachine] = {}
        self.cluster = ClusterMachine()
        self.violations: list[Violation] = []
        #: Every record handed to the sink, and the protocol events
        #: among them (the ones a machine interprets).
        self.events_seen = 0
        self.events_checked = 0
        self.dropped_violations = 0

    # -- TraceSink protocol --------------------------------------------

    def write_event(self, record: dict) -> None:
        self.events_seen += 1
        if record.get("kind") not in PROTOCOL_EVENT_KINDS:
            return
        self.events_checked += 1
        node = record.get("node")
        machine = self.machines.get(node)
        if machine is None:
            machine = self.machines[node] = NodeMachine(node)
        found = self.cluster.feed(record) + machine.feed(record)
        if found:
            self._record(found)

    def write_snapshot(self, snapshot: dict) -> None:
        """Snapshots carry counters, not protocol events."""

    def close(self) -> None:
        """The bus owns the run's end; verdicts are pulled on demand."""

    # -- recording -----------------------------------------------------

    def _record(self, found: list[Violation]) -> None:
        for violation in found:
            if len(self.violations) >= self.max_violations:
                self.dropped_violations += 1
                continue
            self.violations.append(violation)
            if self.registry is not None:
                self.registry.inc("conformance.violations")
                self.registry.inc("conformance.violation."
                                  + violation.rule)

    # -- offline -------------------------------------------------------

    def feed(self, events: list[dict]) -> None:
        """Replay a recorded trace (list of event dicts) through checks."""
        for record in events:
            self.write_event(record)

    # -- end of run ----------------------------------------------------

    def check_liveness(self, now: float, *, heal_time: float,
                       bound: float) -> None:
        """Put the cluster machine's liveness question and record it."""
        self._record(self.cluster.liveness(now, heal_time, bound))

    # -- verdict -------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations and not self.dropped_violations

    def open_steps(self) -> dict[str, list]:
        out: dict[str, list] = {}
        for node in sorted(self.machines,
                           key=lambda n: (n is None, n)):
            intervals = self.machines[node].open_steps()
            if intervals:
                out[str(node)] = [[rnd, step] for rnd, step in intervals]
        return out

    def verdict(self, *, trace_complete: bool = True) -> ConformanceVerdict:
        """Render the deterministic verdict for everything seen so far."""
        violations = [violation.to_dict()
                      for violation in self.violations]
        if self.dropped_violations:
            violations.append({
                "rule": "violations-truncated", "t": 0.0, "node": None,
                "round": None, "step": None, "kind": "",
                "phase": "", "detail":
                f"{self.dropped_violations} further violation(s) beyond "
                f"the max_violations={self.max_violations} cap"})
        return ConformanceVerdict(
            ok=self.ok and trace_complete,
            events_checked=self.events_checked,
            nodes=len(self.machines),
            violations=violations,
            open_steps=self.open_steps(),
            trace_complete=trace_complete,
        )

    def harvest(self, registry) -> None:
        """Write summary gauges into ``registry`` (snapshot time)."""
        registry.set_counter("conformance.events_checked",
                             self.events_checked)
        registry.set_counter("conformance.violations",
                             len(self.violations)
                             + self.dropped_violations)
        registry.set_gauge("conformance.nodes", len(self.machines))
