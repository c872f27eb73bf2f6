"""Regenerate every reproduced figure/table from the command line.

Usage::

    python -m repro.experiments                  # everything (~90 s)
    python -m repro.experiments fig5 tab_costs   # a subset
    python -m repro.experiments --jobs 4 fig5    # sweep artifacts in parallel
    python -m repro.experiments sweep --jobs 4   # raw grid -> merged JSON

Artifacts are registered declaratively in :data:`ARTIFACTS`. Sweep-style
artifacts (fig5, fig6, fig7, fig8, tab_throughput, tab_costs,
tab_timeouts, tab_waiting) are
expressed as a spec grid plus a renderer and route through the parallel
sweep engine (:mod:`repro.experiments.sweep`); analytic artifacts are
plain callables. The ``sweep`` subcommand exposes the engine directly:
it builds a grid, fans it over ``--jobs`` worker processes, writes a
deterministic merged JSON (byte-identical for any ``--jobs``), and
checkpoints finished points so an interrupted sweep resumes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Callable

from repro.analysis.committee import (
    certificate_forgery_log2,
    check_paper_step_parameters,
    figure3_curve,
    final_step_safety,
)
from repro.baselines.nakamoto import NakamotoConfig, throughput_bytes_per_hour
from repro.common.errors import SpecError
from repro.common.params import PAPER_PARAMS
from repro.experiments.adversarial import adversarial_spec, figure8_specs
from repro.experiments.costs import costs_spec, expected_certificate_bytes
from repro.experiments.latency import figure5_specs, figure6_specs, latency_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import PointOutcome, SweepReport, run_sweep
from repro.experiments.throughput import (
    BlockSizePoint,
    block_size_spec,
    figure7_specs,
    paper_scale_projection,
    throughput_table,
)
from repro.experiments.timeouts import measure_priority_gossip, timeouts_spec
from repro.experiments.waiting import waiting_spec, waiting_specs
from repro.node.config import PopulationConfig
from repro.obs.report import format_table


def _banner(title: str) -> None:
    print(f"\n{'=' * 66}\n{title}\n{'=' * 66}")


# ---------------------------------------------------------------------
# Renderers for sweep artifacts (take the engine's JSON-safe payloads)
# ---------------------------------------------------------------------


def _summary_row(result: dict) -> list[str]:
    """min/p25/median/p75/max cells from a serialized LatencySummary."""
    summary = result["summary"]
    cells = []
    for key in ("minimum", "p25", "median", "p75", "maximum"):
        value = summary[key]
        cells.append("nan" if value is None else round(value, 2))
    return cells


def _latency_flatness(results: list[dict]) -> float:
    medians = [r["summary"]["median"] for r in results
               if r["summary"]["median"] is not None]
    return max(medians) / min(medians) if medians else float("nan")


def _render_latency(results: list[dict]) -> str:
    table = format_table(
        ["users", "min", "p25", "median", "p75", "max"],
        [[r["num_users"]] + _summary_row(r) for r in results])
    return (f"{table}\nflatness (max/min median): "
            f"{_latency_flatness(results):.2f} (paper: near-constant)")


def _render_fig7(results: list[dict]) -> str:
    rows = []
    for r in results:
        total = r["proposal_time"] + r["ba_time"] + r["final_step_time"]
        rows.append([r["block_size"], f"{r['proposal_time']:.2f}",
                     f"{r['ba_time']:.2f}", f"{r['final_step_time']:.2f}",
                     f"{total:.2f}"])
    return format_table(["block B", "proposal", "BA*", "final", "total"],
                        rows)


def _render_fig8(results: list[dict]) -> str:
    rows = []
    for r in results:
        cells = _summary_row(r)
        rows.append([f"{r['malicious_fraction']:.0%}", cells[0], cells[2],
                     cells[4], r["agreed"], r["empty_rounds"]])
    return format_table(
        ["malicious", "min", "median", "max", "agreed", "empty rounds"],
        rows)


def _render_tab_throughput(results: list[dict]) -> str:
    points = [BlockSizePoint(**r) for r in results]
    rows = throughput_table(points)
    table = format_table(
        ["system", "block B", "round s", "MB/hour", "vs bitcoin"],
        [[r.system, r.block_size, f"{r.round_time:.1f}",
          f"{r.bytes_per_hour / 1e6:.1f}", f"{r.ratio_vs_bitcoin:.1f}x"]
         for r in rows])
    projection = paper_scale_projection()
    bitcoin = throughput_bytes_per_hour(NakamotoConfig())
    return (f"{table}\npaper-scale projection (10 MB blocks): "
            f"{projection / 1e6:.0f} MB/h = {projection / bitcoin:.0f}x "
            f"Bitcoin (paper: ~750 MB/h, 125x)")


def _render_tab_costs(results: list[dict]) -> str:
    rows = []
    for r in results:
        rows += [["bandwidth / user",
                  f"{r['mean_bandwidth_bits_per_sec'] / 1e6:.2f} Mbit/s"],
                 ["certificate", f"{r['certificate_bytes'] / 1e3:.1f} KB "
                                 f"({r['certificate_votes']:.0f} votes)"],
                 ["certificate overhead", f"{r['certificate_overhead']:.0%}"],
                 ["storage/round (10 shards)",
                  f"{r['storage_per_round_sharded_10'] / 1e3:.1f} KB"]]
    return (f"{format_table(['metric', 'measured'], rows)}\n"
            f"paper-scale certificate (tau=2000): "
            f"{expected_certificate_bytes(PAPER_PARAMS) / 1e3:.0f} KB "
            f"(paper: ~300 KB)")


def _render_tab_timeouts(results: list[dict]) -> str:
    rows = []
    for r in results:
        rows += [["BA* step p99", f"{r['step_p99']:.2f} s",
                  f"{r['lambda_step']:.0f} s"],
                 ["BA* completion IQR", f"{r['ba_iqr']:.2f} s",
                  f"{r['lambda_stepvar']:.0f} s"],
                 ["block obtained p99", f"{r['proposal_p99']:.2f} s",
                  f"{r['lambda_block_budget']:.0f} s"]]
    return (f"{format_table(['quantity', 'measured', 'budget'], rows)}\n"
            f"priority gossip to 60 users: "
            f"{measure_priority_gossip(60, seed=801):.2f} s "
            f"(budget 5 s; paper measures ~1 s)")


def _render_tab_waiting(results: list[dict]) -> str:
    return format_table(
        ["wait", "empty rounds", "median latency"],
        [[f"{r['wait_seconds']:.2f} s", f"{r['empty_fraction']:.0%}",
          f"{r['median_latency']:.2f} s"] for r in results])


# ---------------------------------------------------------------------
# Analytic / non-sweep artifacts (callables of the parsed options)
# ---------------------------------------------------------------------


def run_fig3(options: argparse.Namespace) -> None:
    points = figure3_curve([0.78, 0.80, 0.84, 0.88])
    print(format_table(
        ["h", "tau", "T"],
        [[f"{p.honest_fraction:.0%}", p.committee_size,
          f"{p.threshold:.3f}"] for p in points]))
    print(f"paper's starred point: tau=2000, T=0.685 at h=80% "
          f"(violation {check_paper_step_parameters():.1e})")


def run_tab_params(options: argparse.Namespace) -> None:
    p = PAPER_PARAMS
    print(format_table(["parameter", "value"], [
        ["h", f"{p.honest_fraction:.0%}"],
        ["R", p.seed_refresh_interval],
        ["tau_proposer / tau_step / tau_final",
         f"{p.tau_proposer} / {p.tau_step} / {p.tau_final}"],
        ["T_step / T_final", f"{p.t_step} / {p.t_final}"],
        ["MaxSteps", p.max_steps],
        ["lambdas (priority/block/step/stepvar)",
         f"{p.lambda_priority:.0f} / {p.lambda_block:.0f} / "
         f"{p.lambda_step:.0f} / {p.lambda_stepvar:.0f} s"],
    ]))
    print(f"final-step violation: {final_step_safety():.1e}; "
          f"certificate forgery: 2^{certificate_forgery_log2():.0f}")


def run_tab_related(options: argparse.Namespace) -> None:
    from repro.baselines.doublespend import speedup_table
    from repro.baselines.related import comparison_rows
    print(format_table(
        ["attacker q", "blocks", "bitcoin wait", "speedup"],
        [[f"{row['q']:.0%}", row["z"],
          f"{row['bitcoin_wait_s'] / 60:.0f} min",
          f"{row['speedup']:.0f}x"] for row in speedup_table()]))
    print(format_table(
        ["system", "latency", "open", "fork-free", "adaptive-adv"],
        [[p.name, f"{p.latency_seconds:.0f} s", p.decentralized,
          not p.forks_possible, p.adaptive_adversary]
         for p in comparison_rows()]))


def run_tab_scalability(options: argparse.Namespace) -> None:
    from repro.analysis.graph import diameter_scaling
    from repro.analysis.steps import (
        COMMON_CASE_STEPS,
        expected_total_steps_worst_case,
    )
    print(format_table(
        ["users", "giant component", "diameter"],
        [[r.num_nodes, f"{r.giant_component_fraction:.3f}", r.diameter]
         for r in diameter_scaling([50, 400, 3200])]))
    print(f"BA* steps: {COMMON_CASE_STEPS} common case, "
          f"{expected_total_steps_worst_case():.0f} expected worst case "
          f"(paper: 4 and 13)")


def run_traffic_artifact(options: argparse.Namespace) -> None:
    """Census grid + 200-user scale point; writes BENCH_traffic.json."""
    from repro.experiments.traffic import run_traffic
    run_traffic()


# ---------------------------------------------------------------------
# The declarative artifact registry
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Artifact:
    """One regenerable paper artifact.

    Sweep artifacts define ``specs`` (the grid) + ``render`` (payloads ->
    table) and route through the engine on ``--jobs`` workers; analytic
    artifacts define only ``runner``, which gets the parsed options.
    """

    name: str
    title: str
    specs: Callable[[], list[ExperimentSpec]] | None = None
    render: Callable[[list[dict]], str] | None = None
    runner: Callable[[argparse.Namespace], None] | None = None

    def run(self, options: argparse.Namespace) -> None:
        _banner(self.title)
        if self.specs is not None:
            report = run_sweep(self.specs(), jobs=options.jobs)
            for failure in report.failures:
                print(f"point {failure.index} failed: {failure.error}")
            print(self.render(
                [o.result for o in report.outcomes if o.ok]))
        else:
            self.runner(options)


_ARTIFACT_LIST = [
    Artifact("fig3",
             "Figure 3: committee size vs honest fraction (eps = 5e-9)",
             runner=run_fig3),
    Artifact("fig5", "Figure 5: round latency vs #users (simulated seconds)",
             specs=lambda: figure5_specs([30, 60, 120], seed=100,
                                         payload_bytes=40_000),
             render=_render_latency),
    Artifact("fig6", "Figure 6: latency under 10x bandwidth contention",
             specs=lambda: figure6_specs([60, 120], seed=200),
             render=_render_latency),
    Artifact("fig7", "Figure 7: round segments vs block size",
             specs=lambda: figure7_specs([1_000, 50_000, 200_000], seed=300,
                                         num_users=30),
             render=_render_fig7),
    Artifact("fig8", "Figure 8: latency vs fraction of malicious users",
             specs=lambda: figure8_specs([0.0, 0.10, 0.20], num_users=20,
                                         seed=700),
             render=_render_fig8),
    Artifact("tab_throughput", "Section 10.2: throughput vs Bitcoin",
             specs=lambda: figure7_specs([50_000, 200_000], seed=400,
                                         num_users=30),
             render=_render_tab_throughput),
    Artifact("tab_costs", "Section 10.3: per-user costs",
             specs=lambda: [costs_spec(40, seed=500)],
             render=_render_tab_costs),
    Artifact("tab_timeouts", "Section 10.5: timeout validation",
             specs=lambda: [timeouts_spec(40, seed=800)],
             render=_render_tab_timeouts),
    Artifact("tab_params", "Figure 4: implementation parameters",
             runner=run_tab_params),
    Artifact("tab_related",
             "Sections 1-2: double-spend wait and related systems",
             runner=run_tab_related),
    Artifact("tab_waiting", "Section 6: proposal-wait trade-off",
             specs=lambda: waiting_specs([0.02, 0.5, 2.0], seed=10),
             render=_render_tab_waiting),
    Artifact("tab_scalability",
             "Section 8.4 topology + section 7 step counts",
             runner=run_tab_scalability),
    Artifact("traffic",
             "Traffic census: analytical vs observed messages per round",
             runner=run_traffic_artifact),
]

ARTIFACTS: dict[str, Artifact] = {a.name: a for a in _ARTIFACT_LIST}


# ---------------------------------------------------------------------
# The sweep subcommand
# ---------------------------------------------------------------------


def _csv_ints(text: str) -> list[int]:
    return [int(item) for item in text.split(",") if item]


def _csv_floats(text: str) -> list[float]:
    return [float(item) for item in text.split(",") if item]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: Options only some grids read: name -> (those grids, the default).
_GRID_OPTIONS = {
    "rounds": (("latency", "adversarial", "waiting"), 0),
    "payload_bytes": (("latency",), 0),
    "fractions": (("adversarial",), [0.0, 0.1, 0.2]),
    "sizes": (("blocksize",), [1_000, 10_000, 50_000]),
    "waits": (("waiting",), [0.5, 2.0]),
    "population": (("latency",), "full"),
    "core": (("latency",), 16),
    "steps_ahead": (("latency",), 4),
}


def build_grid(args: argparse.Namespace) -> list[ExperimentSpec]:
    """Materialize the requested grid (axis values x seeds)."""
    specs: list[ExperimentSpec] = []
    for seed in args.seeds:
        if args.grid == "latency":
            population = PopulationConfig(
                mode=args.population, always_on_core=args.core,
                steps_ahead=args.steps_ahead)
            specs.extend(latency_spec(
                n, seed, payload_bytes=args.payload_bytes,
                rounds=args.rounds or 1, population=population)
                for n in args.users)
        elif args.grid == "adversarial":
            specs.extend(adversarial_spec(f, args.users[0], seed,
                                          rounds=args.rounds or 2)
                         for f in args.fractions)
        elif args.grid == "blocksize":
            specs.extend(block_size_spec(b, args.users[0], seed)
                         for b in args.sizes)
        elif args.grid == "waiting":
            specs.extend(waiting_spec(w, args.users[0], seed,
                                      rounds=args.rounds or 3)
                         for w in args.waits)
    return specs


def sweep_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments sweep",
        description="Fan an experiment grid over worker processes; "
                    "merged output is byte-identical for any --jobs.")
    parser.add_argument("--grid", default="latency",
                        choices=["latency", "adversarial", "blocksize",
                                 "waiting"])
    parser.add_argument("--users", type=_csv_ints, default=None,
                        help="population axis (latency; default 8,10,12) "
                             "or the one fixed population (other grids; "
                             "default 8)")
    parser.add_argument("--seeds", type=_csv_ints, default=[0, 1, 2, 3],
                        help="seed axis; the grid is axis x seeds")
    # Grid-specific options default to None so that one a grid does not
    # read is an error, not silently dropped (see _GRID_OPTIONS).
    parser.add_argument("--fractions", type=_csv_floats,
                        help="malicious-stake axis (adversarial grid; "
                             "default 0,0.1,0.2)")
    parser.add_argument("--sizes", type=_csv_ints,
                        help="block-size axis (blocksize grid; default "
                             "1000,10000,50000)")
    parser.add_argument("--waits", type=_csv_floats,
                        help="wait-window axis (waiting grid; default "
                             "0.5,2)")
    parser.add_argument("--rounds", type=int,
                        help="rounds per point (latency, adversarial and "
                             "waiting grids; default: the grid's)")
    parser.add_argument("--population", choices=["full", "aggregated"],
                        help="latency grid: agent representation "
                             "(default full; aggregated = stake pool + "
                             "materialized sortition winners; reaches "
                             "10k+ users)")
    parser.add_argument("--core", type=int,
                        help="aggregated population: always-on agents "
                             "(default 16)")
    parser.add_argument("--steps-ahead", type=int, dest="steps_ahead",
                        help="aggregated population: BinaryBA* steps "
                             "covered by the per-round pool pass "
                             "(default 4)")
    parser.add_argument("--payload-bytes", type=int,
                        help="latency grid: payment bytes per point "
                             "(default 0)")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes (1 = in-process serial)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-point timeout in wall seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="relaunches after a crash/timeout per point")
    parser.add_argument("--checkpoint", default=None,
                        help="JSONL checkpoint; finished points are "
                             "skipped on resume")
    parser.add_argument("--out", default=None,
                        help="write the merged JSON artifact here "
                             "(default: stdout)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")
    args = parser.parse_args(argv)
    if args.timeout is not None and not args.timeout > 0:
        parser.error(f"--timeout must be > 0, got {args.timeout}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.users is None:
        args.users = [8, 10, 12] if args.grid == "latency" else [8]
    elif args.grid != "latency" and len(args.users) > 1:
        parser.error(f"--grid {args.grid} runs one population; "
                     f"got --users {','.join(map(str, args.users))}")
    for name, (grids, default) in _GRID_OPTIONS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.grid not in grids:
            parser.error(f"--grid {args.grid} does not read "
                         f"--{name.replace('_', '-')}")

    try:
        specs = build_grid(args)
    except SpecError as error:
        parser.error(str(error))
    if not specs:
        print("empty grid", file=sys.stderr)
        return 2

    def progress(outcome: PointOutcome, total: int) -> None:
        status = "ok" if outcome.ok else f"FAILED ({outcome.error})"
        origin = " [checkpoint]" if outcome.resumed else ""
        print(f"[{outcome.index + 1:>3}/{total}] "
              f"{outcome.spec.measure} seed={outcome.spec.config.seed} "
              f"{status} in {outcome.wall_time:.2f}s"
              f"{origin}", file=sys.stderr)

    report: SweepReport = run_sweep(
        specs, jobs=args.jobs, timeout=args.timeout, retries=args.retries,
        checkpoint=args.checkpoint,
        progress=None if args.quiet else progress)

    merged = report.merged_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(merged)
        print(f"wrote {len(report.outcomes)} points "
              f"({len(report.failures)} failed) to {args.out} "
              f"in {report.wall_time:.2f}s with --jobs {args.jobs}",
              file=sys.stderr)
    else:
        sys.stdout.write(merged)
    return 1 if report.failures else 0


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate reproduced figures and tables (all of "
                    "them when none is named); 'sweep --help' for the "
                    "raw grid engine.")
    parser.add_argument("artifacts", nargs="*", metavar="artifact",
                        help=f"one of: {', '.join(ARTIFACTS)}")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for sweep-backed artifacts")
    args = parser.parse_args(argv)
    requested = args.artifacts or list(ARTIFACTS)
    unknown = [name for name in requested if name not in ARTIFACTS]
    if unknown:
        print(f"unknown artifact(s): {', '.join(unknown)}")
        print(f"available: {', '.join(ARTIFACTS)} "
              f"(plus the 'sweep' subcommand; see "
              f"'python -m repro.experiments sweep --help')")
        return 2
    for name in requested:
        ARTIFACTS[name].run(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
