"""CLI: run a chaos scenario (file, builtin, generated, or a sweep).

Examples::

    # The canonical scripted smoke: split-brain, stall, heal, commit.
    python -m repro.chaos --builtin partition-heal --trace out/chaos.jsonl

    # The same engine against real processes: SIGKILL + partition on a
    # live 5-process cluster, rejoin via gossip catch-up.
    python -m repro.chaos --builtin kill-partition --substrate live \
        --runtime-dir out/live-chaos --verdict out/verdict.json

    # Figure 8's adversary: 20 % of users equivocate and double-vote.
    python -m repro.chaos --builtin byzantine

    # A scenario file (see docs/CHAOS.md for the format).
    python -m repro.chaos my_scenario.json --verdict out/verdict.json

    # One generated scenario for a seed.
    python -m repro.chaos --seed 7

    # A sweep of generated scenarios over consecutive seeds.
    python -m repro.chaos --sweep 20 --base-seed 100 --verdict out/sweep.json

Exit status 0 means every invariant held in every run; 1 means at least
one violation (details are printed and, with ``--verdict``, saved).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.chaos.generate import generate_scenario
from repro.chaos.runner import ChaosVerdict, run_scenario
from repro.chaos.scenario import (
    ScenarioScript,
    byzantine_scenario,
    flood_recovery_scenario,
    kill_partition_scenario,
    partition_heal_scenario,
)

_BUILTINS = ("partition-heal", "flood", "byzantine", "kill-partition")


def _load_builtin(name: str, args: argparse.Namespace) -> ScenarioScript:
    if name == "partition-heal":
        return partition_heal_scenario(num_users=args.users or 16,
                                       seed=args.base_seed)
    if name == "flood":
        return flood_recovery_scenario(num_users=args.users or 15,
                                       seed=args.base_seed)
    if name == "byzantine":
        return byzantine_scenario(num_users=args.users or 20,
                                  seed=args.base_seed)
    if name == "kill-partition":
        return kill_partition_scenario(num_users=args.users or 5,
                                       seed=args.base_seed)
    raise SystemExit(f"unknown builtin {name!r} (have: {_BUILTINS})")


def _report(verdict: ChaosVerdict) -> None:
    name = verdict.scenario["name"]
    state = "OK" if verdict.ok else "VIOLATED"
    print(f"[{state}] {name}: heights={verdict.heights} "
          f"t={verdict.sim_seconds:.1f}s events={verdict.events_seen}")
    for violation in verdict.violations:
        print(f"  - {violation['invariant']} @t={violation['t']:.2f}: "
              f"{violation['detail']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run chaos scenarios with online invariant checking.")
    parser.add_argument("scenario", nargs="?",
                        help="path to a ScenarioScript JSON file")
    parser.add_argument("--builtin", choices=_BUILTINS,
                        help="run a named built-in scenario")
    parser.add_argument("--seed", type=int,
                        help="generate and run one scenario for this seed")
    parser.add_argument("--sweep", type=int, metavar="K",
                        help="generate and run K scenarios over "
                             "consecutive seeds")
    parser.add_argument("--base-seed", type=int, default=31,
                        help="first seed for --sweep / builtin seed "
                             "(default 31)")
    parser.add_argument("--users", type=int, default=None,
                        help="users for generated/builtin scenarios")
    parser.add_argument("--rounds", type=int, default=2,
                        help="target rounds for generated scenarios")
    parser.add_argument("--trace", metavar="PATH",
                        help="write the full JSONL event trace here "
                             "(per-seed suffix in sweep mode; on the "
                             "live substrate the merged trace is "
                             "copied here)")
    parser.add_argument("--verdict", metavar="PATH",
                        help="write the verdict JSON here")
    parser.add_argument("--substrate", choices=("sim", "live"),
                        default="sim",
                        help="execution substrate: deterministic "
                             "simulation (default) or real node "
                             "processes with real SIGKILLs and severed "
                             "sockets")
    parser.add_argument("--runtime-dir", metavar="DIR",
                        help="live substrate: directory for per-node "
                             "artifacts (configs, logs, traces, merged "
                             "trace); default is a fresh temp dir")
    parser.add_argument("--transport", choices=("uds", "tcp"),
                        default="uds",
                        help="live substrate: gossip/control transport "
                             "(default uds)")
    args = parser.parse_args(argv)

    chosen = [bool(args.scenario), args.builtin is not None,
              args.seed is not None, args.sweep is not None]
    if sum(chosen) != 1:
        parser.error("pick exactly one of: a scenario file, --builtin, "
                     "--seed, or --sweep")

    scripts: list[ScenarioScript] = []
    if args.scenario:
        scripts.append(ScenarioScript.from_json(
            Path(args.scenario).read_text(encoding="utf-8")))
    elif args.builtin:
        scripts.append(_load_builtin(args.builtin, args))
    elif args.seed is not None:
        scripts.append(generate_scenario(args.seed,
                                         num_users=args.users or 10,
                                         rounds=args.rounds))
    else:
        for k in range(args.sweep):
            scripts.append(generate_scenario(args.base_seed + k,
                                             num_users=args.users or 10,
                                             rounds=args.rounds))

    verdicts: list[ChaosVerdict] = []
    for script in scripts:
        trace_path = args.trace
        if trace_path is not None:
            path = Path(trace_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if len(scripts) > 1:
                trace_path = str(path.with_name(
                    f"{path.stem}-seed{script.seed}"
                    f"{path.suffix or '.jsonl'}"))
        if args.substrate == "live":
            from repro.chaos.live import run_live_scenario
            verdict = run_live_scenario(script,
                                        runtime_dir=args.runtime_dir,
                                        transport=args.transport)
            merged = verdict.cluster.merged_trace_path
            if trace_path is not None:
                Path(trace_path).write_bytes(Path(merged).read_bytes())
        else:
            merged = None
            verdict = run_scenario(script, trace_path=trace_path)
        _report(verdict)
        if merged is not None:
            print(f"  merged trace: {merged}")
        verdicts.append(verdict)

    all_ok = all(verdict.ok for verdict in verdicts)
    if args.verdict:
        out = Path(args.verdict)
        out.parent.mkdir(parents=True, exist_ok=True)
        if len(verdicts) == 1:
            out.write_text(verdicts[0].to_json() + "\n", encoding="utf-8")
        else:
            out.write_text(json.dumps(
                {"ok": all_ok,
                 "runs": [verdict.to_dict() for verdict in verdicts]},
                indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(verdicts)} scenario(s): "
          f"{'all green' if all_ok else 'VIOLATIONS FOUND'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
