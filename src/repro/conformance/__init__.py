"""Trace-conformance harness: a reference BA* state machine.

PRs 1-6 rewrote the hot path repeatedly with chain byte-identity as the
main safety net; byte-identical chains can still hide wrong
*intermediate* protocol behaviour. This package closes that gap:

* :mod:`repro.conformance.machine` — standalone, dependency-free
  labelled transition systems holding every rule a trace can break:
  :class:`NodeMachine` for one node's BA* protocol state, with explicit
  legal-transition tables, and :class:`ClusterMachine` for what the
  paper promises of the system as a whole (one certified block per
  round, progress after the network heals) — see
  ``docs/CONFORMANCE.md``;
* :mod:`repro.conformance.monitor` — :class:`ConformanceMonitor`, the
  one :class:`~repro.obs.bus.TraceSink` that drives both machines from
  the event stream as it is emitted and renders a deterministic
  :class:`ConformanceVerdict`;
* ``python -m repro.conformance trace.jsonl`` — the same monitor over a
  recorded JSONL trace (CI artifacts, old runs, merged live traces).

A traced run is a checked run: the harness attaches a monitor exactly
when a simulation has a trace bus, and a live cluster's coordinator
always checks its merged trace with one (no node process checks its
own); chaos verdicts are rendered from that monitor on either
substrate.
"""
