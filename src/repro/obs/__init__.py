"""Unified observability layer: trace bus, metrics registry, JSONL export.

The paper's whole evaluation (§10, Figures 5-8) is a story about where
time goes — proposal vs BA⋆ vs final-step segments, per-step message
counts, committee sizes. ``repro.obs`` makes those quantities first
class: one :class:`TraceBus` per simulation collects structured events
(simulated timestamp, node, round, BA⋆ step, kind-specific fields) and
one :class:`MetricsRegistry` absorbs every ad-hoc counter, with a JSONL
sink plus ``python -m repro.obs.report`` to turn a trace into the
Figure-7-style tables.

Zero-dependency by design (stdlib only); the simulation layers it
instruments all guard on ``obs is not None``, so a simulation without a
bus pays one attribute check per instrumented site.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.obs.bus import TraceBus
    from repro.obs.events import (
        EVENT_KINDS, EventKind, EventSchemaError, validate_record,
    )
    from repro.obs.metrics import HistogramSummary, MetricsRegistry
    from repro.obs.sink import JsonlTraceSink, read_trace

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.bus": ("TraceBus",),
    "repro.obs.events": (
        "EVENT_KINDS", "EventKind", "EventSchemaError", "validate_record",
    ),
    "repro.obs.metrics": ("HistogramSummary", "MetricsRegistry"),
    "repro.obs.sink": ("JsonlTraceSink", "read_trace"),
})

__all__ = [
    "TraceBus",
    "MetricsRegistry",
    "HistogramSummary",
    "JsonlTraceSink",
    "read_trace",
    "EVENT_KINDS",
    "EventKind",
    "EventSchemaError",
    "validate_record",
]
