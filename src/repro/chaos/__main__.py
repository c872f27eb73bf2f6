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

    # A scenario file: a chaos spec's JSON (see docs/CHAOS.md); one
    # whose config names the live substrate runs there without
    # --substrate.
    python -m repro.chaos my_scenario.json --verdict out/verdict.json

    # One generated scenario for a seed.
    python -m repro.chaos --seed 7

    # A sweep of generated scenarios over consecutive seeds.
    python -m repro.chaos --sweep 20 --base-seed 100 --verdict out/sweep.json

Each scenario is an ``ExperimentSpec`` with measure ``"chaos"``, run by
:func:`repro.experiments.sweep.run_point`; a run is labelled by its
builtin's name, its file, or ``gen-<seed>``.

Exit status 0 means every invariant held in every run; 1 means at least
one violation (details are printed and, with ``--verdict``, saved); 2 is
a usage error, a scenario that breaks a rule included.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from repro.chaos.generate import (
    byzantine_scenario,
    flood_recovery_scenario,
    generate_scenario,
    kill_partition_scenario,
    partition_heal_scenario,
)
from repro.chaos.runner import ChaosVerdict
from repro.chaos.scenario import LIVE_CHAOS_PARAMS
from repro.experiments.spec import ExperimentSpec, spec_from_json
from repro.experiments.sweep import run_point
from repro.node.deployment import SubstrateConfig

_BUILTINS = {
    "partition-heal": partition_heal_scenario,
    "flood": flood_recovery_scenario,
    "byzantine": byzantine_scenario,
    "kill-partition": kill_partition_scenario,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _on_live(spec: ExperimentSpec,
             args: argparse.Namespace) -> ExperimentSpec:
    """``spec`` on real processes at the live chaos scale: wall-clock
    lambdas, and 40 units a user — 5 x 40 is the W = 200 its committees
    are sized for."""
    return replace(spec, config=replace(
        spec.config, params=LIVE_CHAOS_PARAMS, initial_balance=40,
        substrate=SubstrateConfig(kind="live",
                                  transport=args.transport or "uds",
                                  runtime_dir=args.runtime_dir)))


def _load(path: str) -> ExperimentSpec:
    """The chaos spec a scenario file holds."""
    spec = spec_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
    if spec.measure != "chaos":
        raise ValueError(f"{path}: a scenario file is a spec whose measure "
                         f"is 'chaos', not {spec.measure!r}")
    return spec


def _given(**options) -> dict:
    """The options the command line set."""
    return {key: value for key, value in options.items() if value is not None}


def _scenarios(args: argparse.Namespace) -> list[tuple[str, ExperimentSpec]]:
    """``(label, spec)`` of every run the arguments ask for."""
    if args.scenario:
        return [(args.scenario, _load(args.scenario))]
    if args.builtin:
        return [(args.builtin, _BUILTINS[args.builtin](
            **_given(num_users=args.users, seed=args.base_seed)))]
    base = 31 if args.base_seed is None else args.base_seed
    seeds = ([args.seed] if args.seed is not None
             else range(base, base + args.sweep))
    shape = _given(num_users=args.users, rounds=args.rounds)
    return [(f"gen-{seed}", generate_scenario(seed, **shape))
            for seed in seeds]


def _report(label: str, verdict: ChaosVerdict) -> None:
    state = "OK" if verdict.ok else "VIOLATED"
    print(f"[{state}] {label}: heights={verdict.heights} "
          f"t={verdict.sim_seconds:.1f}s events={verdict.events_seen}")
    for violation in verdict.violations:
        print(f"  - {violation['invariant']} @t={violation['t']:.2f}: "
              f"{violation['detail']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run chaos scenarios with online invariant checking.")
    parser.add_argument("scenario", nargs="?",
                        help="path to a scenario file: the JSON of an "
                             "ExperimentSpec whose measure is 'chaos'")
    parser.add_argument("--builtin", choices=_BUILTINS,
                        help="run a named built-in scenario")
    parser.add_argument("--seed", type=int,
                        help="generate and run one scenario for this seed")
    parser.add_argument("--sweep", type=_positive_int, metavar="K",
                        help="generate and run K scenarios over "
                             "consecutive seeds")
    parser.add_argument("--base-seed", type=int, default=None,
                        help="first seed for --sweep (default 31), or "
                             "the seed of a builtin (default: its own)")
    parser.add_argument("--users", type=int, default=None,
                        help="users for generated/builtin scenarios")
    parser.add_argument("--rounds", type=int, default=None,
                        help="target rounds for generated scenarios "
                             "(default 2)")
    parser.add_argument("--trace", metavar="PATH",
                        help="write the full JSONL event trace here "
                             "(per-seed suffix in sweep mode)")
    parser.add_argument("--verdict", metavar="PATH",
                        help="write the verdict JSON here")
    parser.add_argument("--substrate", choices=("sim", "live"),
                        default="sim",
                        help="live: run on real node processes with real "
                             "SIGKILLs and severed sockets, at the live "
                             "chaos scale (a scenario file whose config "
                             "names the live substrate runs there anyway)")
    parser.add_argument("--runtime-dir", metavar="DIR",
                        help="with --substrate live: directory for "
                             "per-node artifacts (configs, logs, traces, "
                             "merged trace); default is a fresh temp dir")
    parser.add_argument("--transport", choices=("uds", "tcp"),
                        help="with --substrate live: gossip/control "
                             "transport (default uds)")
    args = parser.parse_args(argv)

    chosen = [bool(args.scenario), args.builtin is not None,
              args.seed is not None, args.sweep is not None]
    if sum(chosen) != 1:
        parser.error("pick exactly one of: a scenario file, --builtin, "
                     "--seed, or --sweep")
    if args.scenario and (args.users is not None
                          or args.rounds is not None):
        parser.error("a scenario file carries its own config and rounds: "
                     "--users and --rounds do not apply")
    if args.base_seed is not None and (args.scenario
                                       or args.seed is not None):
        parser.error("--base-seed seeds --sweep or a builtin: a scenario "
                     "file and --seed carry their own seed")
    if args.builtin and args.rounds is not None:
        parser.error("a builtin runs its own rounds: --rounds applies to "
                     "generated scenarios")
    if args.substrate != "live" and (args.transport or args.runtime_dir):
        parser.error("--transport and --runtime-dir need --substrate live")

    try:
        scenarios = _scenarios(args)
        if args.substrate == "live":
            scenarios = [(label, _on_live(spec, args))
                         for label, spec in scenarios]
        for _, spec in scenarios:
            spec.validate()
    except (OSError, ValueError) as error:
        parser.error(str(error))

    verdicts: list[ChaosVerdict] = []
    for label, spec in scenarios:
        trace_path = args.trace
        if trace_path is not None:
            path = Path(trace_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            if len(scenarios) > 1:
                trace_path = str(path.with_name(
                    f"{path.stem}-seed{spec.config.seed}"
                    f"{path.suffix or '.jsonl'}"))
        verdict = run_point(spec, trace_path=trace_path).point
        _report(label, verdict)
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
                 "runs": [asdict(verdict) for verdict in verdicts]},
                indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(verdicts)} scenario(s): "
          f"{'all green' if all_ok else 'VIOLATIONS FOUND'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
