"""Zero-dependency metrics registry: counters, gauges, summary histograms.

Every ad-hoc counter in the codebase (crypto backend operations,
MessageRouter unknown-kind drops, gossip per-kind traffic, event-loop
fast-path tallies, sortition selections) funnels into one
:class:`MetricsRegistry` so that experiment results, benchmarks, and the
trace report CLI all read the same numbers.

Design constraints:

* **Cheap when hot.** ``inc``/``observe`` are dict operations on plain
  Python numbers — no locks, no label objects, no string formatting
  beyond what the caller already did. Instrumented call sites guard on
  ``obs is not None`` so a simulation without a bus pays one attribute
  load per site.
* **Deterministic snapshots.** :meth:`snapshot` sorts every key, and no
  wall-clock value ever enters the registry; two identically seeded runs
  produce byte-identical snapshots (tested).
* **Stdlib only.** The package must be importable from anywhere
  (including the report CLI on a machine without numpy/scipy).

Naming convention: dotted lowercase paths, ``<layer>.<what>[.<kind>]``,
e.g. ``gossip.sent.vote``, ``router.unknown_kind``, ``crypto.verifies``.
"""

from __future__ import annotations


class HistogramSummary:
    """Order-free summary of observed samples (count/sum/min/max).

    Bucketed histograms would force a bucket layout on every caller; the
    report CLI only needs magnitudes (e.g. egress batch-drain sizes), so
    a four-number summary keeps observation O(1) and snapshots exact.
    """

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float | int]:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named counters, gauges, and histogram summaries."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}
        self._gauges: dict[str, int | float] = {}
        self._histograms: dict[str, HistogramSummary] = {}

    # -- write paths (hot) ---------------------------------------------

    def inc(self, name: str, value: int | float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + value

    def set_gauge(self, name: str, value: int | float) -> None:
        """Set gauge ``name`` to the latest ``value``."""
        self._gauges[name] = value

    def set_counter(self, name: str, value: int | float) -> None:
        """Overwrite counter ``name`` (harvesters mirroring an external
        tally, e.g. ``CryptoBackend.verifies``, use this instead of
        double-counting with :meth:`inc`)."""
        self._counters[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram summary ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = HistogramSummary()
        histogram.observe(value)

    # -- read paths ----------------------------------------------------

    def counters_with_prefix(self, prefix: str) -> dict[str, int | float]:
        """All counters whose name starts with ``prefix`` (sorted)."""
        return {name: value
                for name, value in sorted(self._counters.items())
                if name.startswith(prefix)}

    def snapshot(self) -> dict:
        """Plain-data view of every metric, with sorted keys.

        The result is JSON-serializable and deterministic for a given
        simulation seed; the harness embeds it in experiment results and
        the JSONL sink appends it as the trace's final record.
        """
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {name: histogram.as_dict()
                           for name, histogram
                           in sorted(self._histograms.items())},
        }
