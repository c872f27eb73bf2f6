"""Offline conformance checker for recorded JSONL traces.

Usage::

    python -m repro.conformance trace.jsonl [--verdict out.json]
        [--require-complete] [--quiet]

Replays the trace through the reference machines — each node's stream
through its node machine, all of them through the cluster machine, the
same :class:`~repro.conformance.monitor.ConformanceMonitor` a traced run
carries online — and prints the verdict. Exit status: 0 when the trace
conforms, 1 on any violation (or, with ``--require-complete``, on an
incomplete trace), 2 on usage errors — a missing file, or one that is
not a trace (an unreadable line before its last). CI runs this against
the recorded smoke traces and uploads the verdict JSON as an artifact.

A trace is what its sinks wrote: every emitted event reaches every sink.
The one loss a trace can have is its end — the snapshot record its
writer appends on close is missing (a SIGKILLed writer, or a run that
raised before ``bus.close()``), so events may be missing before it too.
Such a trace is flagged as incomplete, and its verdict says so
(``trace_complete``): a clean verdict over it proves nothing. Its
``ok`` is the rules' unless ``--require-complete`` makes completeness
one of them.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.conformance.monitor import ConformanceMonitor
from repro.obs.sink import read_trace


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="Check a recorded JSONL trace against the reference "
                    "BA* state machine.")
    parser.add_argument("trace", help="JSONL trace file to check")
    parser.add_argument("--verdict", default=None,
                        help="also write the verdict JSON to this path")
    parser.add_argument("--require-complete", action="store_true",
                        help="fail (exit 1) if the trace has no closing "
                             "snapshot record")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the one-line verdict")
    args = parser.parse_args(argv)

    path = Path(args.trace)
    if not path.exists():
        print(f"error: trace file {path} does not exist")
        return 2
    try:
        # A writer killed mid-line leaves half a record at the end.
        events, snapshot = read_trace(path, tolerate_truncation=True)
    except ValueError as exc:  # garbage before the last line
        print(f"error: {exc}")
        return 2

    monitor = ConformanceMonitor()
    monitor.feed(events)
    complete = snapshot is not None
    verdict = monitor.verdict(trace_complete=complete)
    if not args.require_complete:
        verdict.ok = monitor.ok  # completeness reported, not required

    status = "CONFORMS" if monitor.ok else "VIOLATIONS"
    broken = sorted({violation.rule for violation in monitor.violations})
    print(f"{path}: {status} — {verdict.events_checked} protocol events "
          f"across {verdict.nodes} nodes, "
          f"{len(monitor.violations)} violation(s)"
          + (f" of {', '.join(broken)}" if broken else ""))
    if not complete:
        print("WARNING: trace is INCOMPLETE — its writer never closed "
              "it (no snapshot record); a clean verdict over a cut "
              "trace is not a proof"
              + (" (--require-complete: failing)"
                 if args.require_complete else ""))
    if not args.quiet:
        for violation in monitor.violations[:50]:
            print(f"  [{violation.rule}] t={violation.t:.2f} "
                  f"node={violation.node} round={violation.round} "
                  f"step={violation.step}: {violation.detail}")
        if len(monitor.violations) > 50:
            print(f"  ... and {len(monitor.violations) - 50} more")
        open_steps = verdict.open_steps
        if open_steps:
            print(f"  open intervals at end of trace (informational): "
                  f"{open_steps}")
    if args.verdict:
        Path(args.verdict).write_text(verdict.to_json() + "\n",
                                      encoding="utf-8")
        print(f"verdict written to {args.verdict}")

    if not monitor.ok:
        return 1
    if args.require_complete and not complete:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
