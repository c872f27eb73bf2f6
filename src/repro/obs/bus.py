"""The trace event bus.

A :class:`TraceBus` is the single object a simulation shares across its
layers to record *what happened when*: structured events stamped with
the simulated clock, the originating node, the round, and the BA⋆ step,
plus a :class:`~repro.obs.metrics.MetricsRegistry` for the counters that
are too hot to emit per-occurrence (gossip traffic, router dispatches,
event-loop fast paths).

Wiring contract (how near-zero disabled overhead is achieved):

* Instrumented components hold an ``obs`` attribute that is either a
  ``TraceBus`` or ``None``. Every instrumentation site is guarded by
  ``if obs is not None`` — with tracing disabled a site costs one
  attribute load and one comparison, nothing else. No global flag, no
  logging machinery, no string formatting.
* The bus never touches randomness or scheduling, so a traced run and an
  untraced run of the same seed produce byte-identical chains (tested).

Event schema (see docs/OBSERVABILITY.md for the kind catalogue)::

    {"t": <simulated seconds>, "kind": "<event kind>",
     "node": <int, optional>, "round": <int, optional>,
     "step": <str, optional>, ...kind-specific fields...}

Events are kept in a bounded in-memory list (oldest runs are small; for
long soaks attach a :class:`~repro.obs.sink.JsonlTraceSink` and lower
``max_events``); overflow increments :attr:`dropped_events` rather than
growing without bound. The bound is on memory only: every sink still
receives every event, so a trace file is exactly what its sinks wrote.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from repro.obs.events import validate_record
from repro.obs.metrics import MetricsRegistry


class TraceSink(Protocol):
    """Where a bus streams its records (e.g. a JSONL file)."""

    def write_event(self, record: dict) -> None: ...
    def write_snapshot(self, snapshot: dict) -> None: ...
    def close(self) -> None: ...


def _default_clock() -> float:
    return 0.0


class TraceBus:
    """Structured event stream + metrics registry for one simulation."""

    __slots__ = ("metrics", "events", "max_events", "dropped_events",
                 "_clock", "_sinks", "_harvesters", "closed", "validate")

    def __init__(self, *, registry: MetricsRegistry | None = None,
                 max_events: int = 1_000_000,
                 validate: bool = False) -> None:
        if max_events < 0:
            raise ValueError("max_events must be >= 0")
        self.metrics = registry if registry is not None else MetricsRegistry()
        #: Check every emitted record against the
        #: :data:`repro.obs.events.EVENT_KINDS` catalogue (off by
        #: default — the emit path is hot, and ad-hoc kinds are
        #: legitimate in unit tests).
        self.validate = validate
        #: In-memory event records, in emission order (bounded).
        self.events: list[dict] = []
        self.max_events = max_events
        #: Events the in-memory list did not keep because ``max_events``
        #: was reached (the sinks still received them).
        self.dropped_events = 0
        self._clock: Callable[[], float] = _default_clock
        self._sinks: list[TraceSink] = []
        self._harvesters: list[Callable[["TraceBus"], None]] = []
        self.closed = False

    # -- wiring --------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Use ``clock()`` (typically ``lambda: env.now``) for timestamps."""
        self._clock = clock

    def add_sink(self, sink: TraceSink) -> None:
        self._sinks.append(sink)

    def add_harvester(self, harvester: Callable[["TraceBus"], None]) -> None:
        """Register a callback that pulls lazy counters into the registry.

        Harvesters run at every :meth:`snapshot`; they exist so hot
        components can keep plain instance counters (``env.events_processed``,
        ``backend.verifies``) and only pay a registry write at read time.
        """
        self._harvesters.append(harvester)

    # -- emission (the guarded hot path) -------------------------------

    def emit(self, kind: str, *, node: int | None = None,
             round: int | None = None, step: str | None = None,
             **fields: Any) -> None:
        """Record one structured event at the current simulated time."""
        record: dict[str, Any] = {"t": self._clock(), "kind": kind}
        if node is not None:
            record["node"] = node
        if round is not None:
            record["round"] = round
        if step is not None:
            record["step"] = step
        if fields:
            record.update(fields)
        if self.validate:
            validate_record(record)
        if len(self.events) < self.max_events:
            self.events.append(record)
        else:
            self.dropped_events += 1
        for sink in self._sinks:
            sink.write_event(record)

    # -- reading -------------------------------------------------------

    def snapshot(self) -> dict:
        """Run harvesters, then return the registry snapshot."""
        for harvester in self._harvesters:
            harvester(self)
        return self.metrics.snapshot()

    def close(self) -> dict:
        """Final snapshot: append it to every sink and close them.

        Idempotent; returns the snapshot so callers can embed it in
        their own results.
        """
        snapshot = self.snapshot()
        if not self.closed:
            self.closed = True
            for sink in self._sinks:
                sink.write_snapshot(snapshot)
                sink.close()
        return snapshot
