"""Trace report CLI: turn a JSONL trace into the paper's evaluation views.

Usage::

    python -m repro.obs.report trace.jsonl

Prints, in order:

1. **Per-round segments** — the Figure-7-style breakdown of where each
   round's time went (block proposal / BA⋆ / final-step counting),
   averaged across the nodes that committed the round, plus how many
   nodes reached *final* vs *tentative* consensus.
2. **BA⋆ step timings** — per-step sample counts, how often the vote
   threshold was reached vs the ``lambda_step`` timeout fired, and the
   observed durations (the §10.5 timeout-validation view).
3. **Message traffic by kind** — per-kind gossip send/receive/relay
   counts and bytes (the §10.3 bandwidth-cost view).
4. **Runtime counters** — crypto operations the backend performed,
   router dispatches and unknown-kind drops, event-loop fast-path
   tallies, sortition selections, and gossip hygiene stats.

Everything here is stdlib-only so the report runs anywhere the trace
file can be copied to.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

from repro.obs.sink import read_trace

#: Canonical display order for BA⋆ steps (numeric steps sort between).
_STEP_ORDER = {"reduction_one": -2, "reduction_two": -1, "final": 1000}


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Fixed-width ASCII table: this report's sections, and the
    experiments CLI's, which prints them next to the paper's numbers."""
    columns = [[str(header)] + [str(row[i]) for row in rows]
               for i, header in enumerate(headers)]
    widths = [max(len(cell) for cell in column) for column in columns]
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines = [header_line, "-" * len(header_line)]
    for row in rows:
        lines.append("  ".join(str(cell).ljust(width)
                               for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _step_sort_key(step: str) -> tuple[int, int]:
    if step in _STEP_ORDER:
        return (_STEP_ORDER[step], 0)
    try:
        return (0, int(step))
    except ValueError:
        return (999, 0)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def round_segments(events: list[dict]) -> list[dict]:
    """Aggregate ``round_commit`` events into per-round segment rows."""
    by_round: dict[int, list[dict]] = defaultdict(list)
    for event in events:
        if event["kind"] == "round_commit":
            by_round[event["round"]].append(event)
    rows = []
    for round_number in sorted(by_round):
        commits = by_round[round_number]
        rows.append({
            "round": round_number,
            "nodes": len(commits),
            "proposal_s": _mean([c["proposal_s"] for c in commits]),
            "ba_s": _mean([c["ba_s"] for c in commits]),
            "final_s": _mean([c["final_s"] for c in commits]),
            "total_s": _mean([c["total_s"] for c in commits]),
            "final_nodes": sum(1 for c in commits if c["consensus"] == "final"),
            "tentative_nodes": sum(1 for c in commits
                                   if c["consensus"] == "tentative"),
            "empty": any(c["empty"] for c in commits),
        })
    return rows


def step_timings(events: list[dict]) -> list[dict]:
    """Aggregate ``step_exit`` events into per-step timing rows."""
    by_step: dict[str, list[dict]] = defaultdict(list)
    for event in events:
        if event["kind"] == "step_exit":
            by_step[event["step"]].append(event)
    rows = []
    for step in sorted(by_step, key=_step_sort_key):
        exits = by_step[step]
        seconds = [e["seconds"] for e in exits]
        timeouts = sum(1 for e in exits if e["timed_out"])
        interrupted = sum(1 for e in exits if e.get("interrupted"))
        rows.append({
            "step": step,
            "samples": len(exits),
            "threshold_reached": len(exits) - timeouts - interrupted,
            "timeouts": timeouts,
            "interrupted": interrupted,
            "mean_s": _mean(seconds),
            "max_s": max(seconds) if seconds else 0.0,
        })
    return rows


def traffic_by_kind(counters: dict[str, int | float]) -> list[dict]:
    """Join the per-kind gossip counters into one row per message kind."""
    kinds: set[str] = set()
    for name in counters:
        for prefix in ("gossip.sent.", "gossip.recv.", "gossip.relayed."):
            if name.startswith(prefix):
                kinds.add(name[len(prefix):])
    rows = []
    for kind in sorted(kinds):
        rows.append({
            "kind": kind,
            "sent": counters.get(f"gossip.sent.{kind}", 0),
            "sent_bytes": counters.get(f"gossip.sent_bytes.{kind}", 0),
            "recv": counters.get(f"gossip.recv.{kind}", 0),
            "recv_bytes": counters.get(f"gossip.recv_bytes.{kind}", 0),
            "relayed": counters.get(f"gossip.relayed.{kind}", 0),
        })
    return rows


def render_report(events: list[dict], snapshot: dict | None) -> str:
    """The full report as one printable string."""
    sections: list[str] = []

    segment_rows = round_segments(events)
    sections.append("== Per-round segments (seconds, mean across nodes) ==")
    if segment_rows:
        sections.append(format_table(
            ["round", "nodes", "proposal", "ba_star", "final_step", "total",
             "final/tentative", "empty"],
            [[r["round"], r["nodes"], f"{r['proposal_s']:.3f}",
              f"{r['ba_s']:.3f}", f"{r['final_s']:.3f}",
              f"{r['total_s']:.3f}",
              f"{r['final_nodes']}/{r['tentative_nodes']}",
              "yes" if r["empty"] else "no"]
             for r in segment_rows]))
    else:
        sections.append("(no round_commit events in trace)")

    step_rows = step_timings(events)
    sections.append("\n== BA* step timings ==")
    if step_rows:
        sections.append(format_table(
            ["step", "samples", "threshold", "timeout", "interrupted",
             "mean_s", "max_s"],
            [[r["step"], r["samples"], r["threshold_reached"], r["timeouts"],
              r["interrupted"], f"{r['mean_s']:.3f}", f"{r['max_s']:.3f}"]
             for r in step_rows]))
    else:
        sections.append("(no step_exit events in trace)")

    counters = (snapshot or {}).get("counters", {})
    traffic_rows = traffic_by_kind(counters)
    sections.append("\n== Message traffic by kind ==")
    if traffic_rows:
        sections.append(format_table(
            ["kind", "sent", "sent_bytes", "recv", "recv_bytes", "relayed"],
            [[r["kind"], r["sent"], r["sent_bytes"], r["recv"],
              r["recv_bytes"], r["relayed"]] for r in traffic_rows]))
    else:
        sections.append("(no gossip counters in trace snapshot)")

    sections.append("\n== Runtime counters ==")
    if snapshot is None:
        sections.append("(trace has no snapshot record)")
    else:
        gauges = snapshot.get("gauges", {})
        histograms = snapshot.get("histograms", {})
        rows = []
        rows.append(["crypto",
                     f"{counters.get('crypto.verifies', 0)} verifies / "
                     f"{counters.get('crypto.vrf_verifies', 0)} VRF verifies",
                     f"{counters.get('crypto.signs', 0)} signs / "
                     f"{counters.get('crypto.vrf_proves', 0)} VRF proves"])
        dispatched = sum(value for name, value in counters.items()
                         if name.startswith("gossip.recv."))
        rows.append(["router", f"{dispatched} dispatched",
                     f"{counters.get('router.unknown_kind', 0)} "
                     f"unknown-kind drops"])
        rows.append(["event loop",
                     f"{gauges.get('simloop.events_processed', 0)} events",
                     f"{gauges.get('simloop.immediates_processed', 0)} "
                     f"immediate / "
                     f"{gauges.get('simloop.batch_deliveries', 0)} batched "
                     f"({gauges.get('simloop.batch_walks', 0)} walks)"])
        rows.append(["sortition",
                     f"{counters.get('sortition.proves', 0)} proves / "
                     f"{counters.get('sortition.verifies', 0)} verifies",
                     f"{counters.get('sortition.prove_selected', 0)} selected "
                     f"({counters.get('sortition.subusers_selected', 0)} "
                     f"sub-users)"])
        rows.append(["gossip hygiene",
                     f"{counters.get('gossip.dup_dropped', 0)} dup-dropped "
                     f"({gauges.get('gossip.dup_elided', 0)} elided) / "
                     f"{counters.get('gossip.filtered', 0)} filtered",
                     f"{counters.get('gossip.pruned_ids', 0)} seen-ids "
                     f"pruned"])
        batch = histograms.get("gossip.egress_batch")
        if batch and batch.get("count"):
            rows.append(["egress batch drain",
                         f"{batch['count']} drains",
                         f"mean {batch['mean']:.1f} msgs "
                         f"(max {batch['max']:.0f})"])
        writes = gauges.get("live.socket_writes")
        if writes:
            frames = gauges.get("live.messages_sent", 0)
            rows.append(["socket writes", f"{frames} frames / {writes} "
                         f"writes", f"{frames / writes:.1f} frames per "
                         f"write / {gauges.get('live.relay_skipped', 0)} "
                         f"relay-skipped"])
        if "admission.admitted" in counters:
            rejected = sum(value for name, value in counters.items()
                           if name.startswith("admission.rejected."))
            blocked = counters.get("admission.rejected.quarantined", 0)
            rows.append(["admission",
                         f"{counters.get('admission.admitted', 0)} admitted "
                         f"/ {rejected} rejected",
                         f"{blocked} from locally blocked peers"])
            rows.append(["ingress buffers",
                         f"vote high-water "
                         f"{gauges.get('admission.buffer_high_water', 0)} / "
                         f"egress high-water "
                         f"{gauges.get('admission.egress_high_water', 0)}",
                         f"{counters.get('admission.buffer_evicted', 0)} "
                         f"evicted / "
                         f"{counters.get('admission.egress_dropped', 0)} "
                         f"lane-dropped"])
        sections.append(format_table(["subsystem", "volume", "detail"], rows))

    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0] in ("-h", "--help"):
        print("usage: python -m repro.obs.report <trace.jsonl>")
        return 2
    path = Path(args[0])
    if not path.exists():
        print(f"error: trace file {path} does not exist")
        return 2
    events, snapshot = read_trace(path)
    print(f"trace: {path} ({len(events)} events, "
          f"snapshot {'present' if snapshot is not None else 'missing'})")
    print(render_report(events, snapshot))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
