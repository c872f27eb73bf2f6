"""Run a local live cluster from the command line.

Usage::

    python -m repro.live --nodes 5 --rounds 3 --payments 20 \
        --transport uds --seed 7 --out /tmp/live-run

Spawns N real node processes, runs R rounds of BA*, prints the cluster
summary, and exits 0 only if every process committed a byte-identical
chain of the requested height. The merged JSONL trace (for
``python -m repro.conformance``) and all per-node artifacts land in the
``--out`` directory (a temp dir by default).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.live.cluster import LiveCluster, default_live_config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="Run BA* rounds on a live cluster of node processes.")
    parser.add_argument("--nodes", type=int, default=5,
                        help="node processes to spawn (default 5)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="rounds to commit (default 3)")
    parser.add_argument("--payments", type=int, default=20,
                        help="payments in the shared schedule (default 20)")
    parser.add_argument("--transport", choices=("uds", "tcp"),
                        default="uds",
                        help="gossip + control transport (default uds)")
    parser.add_argument("--seed", type=int, default=7,
                        help="shared determinism seed (default 7)")
    parser.add_argument("--out", default=None,
                        help="runtime directory (default: fresh temp dir)")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="wall-clock budget in seconds (default: "
                             "derived from protocol timeouts)")
    parser.add_argument("--json", action="store_true",
                        help="print the summary as JSON")
    args = parser.parse_args(argv)

    config = default_live_config(args.nodes, seed=args.seed,
                                 transport=args.transport,
                                 runtime_dir=args.out)
    cluster = LiveCluster(config)
    cluster.submit_payments(args.payments)
    cluster.run_rounds(args.rounds, time_limit=args.time_limit)

    summary = cluster.summary()
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"live cluster: {summary['nodes']} nodes over "
              f"{summary['transport']}, {summary['rounds']} round(s), "
              f"{summary['payments']} payment(s)")
        print(f"  heights: {summary['heights']}")
        print(f"  tips:    {summary['tips']}")
        print(f"  chains equal: {summary['chains_equal']}   "
              f"conformance ok: {summary['conformance_ok']} "
              f"({summary['conformance.violations']} violation(s))")
        print(f"  wire bytes sent: {summary['live.wire_bytes_sent']}   "
              f"messages: {summary['live.messages_sent']}   "
              f"rx dropped: {summary['live.rx_dropped']}")
        slowest = max(summary["startup"].values(),
                      key=lambda report: report["ready_s"])
        print(f"  start-up (slowest node): ready in "
              f"{slowest['ready_s']:.2f} s — imports "
              f"{slowest['import_s']:.2f} s, build "
              f"{slowest['build_s']:.2f} s, "
              f"{slowest['modules_loaded']} modules, "
              f"{slowest['rss_mb']:.0f} MB")
        print(f"  merged trace: {summary['merged_trace']}")
        print(f"  artifacts:    {summary['runtime_dir']}")

    complete = all(height >= args.rounds
                   for height in summary["heights"].values())
    if not (summary["chains_equal"] and complete):
        print("FAIL: cluster did not commit identical chains",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
