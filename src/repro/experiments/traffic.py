"""Per-round traffic census: the quorum-trimmed relay's receipts.

Section 10.1 argues Algorand's per-round traffic is dominated by
committee votes, and section 8.4's gossip rule ("relay at most once per
key") caps each unique message at one transmission per node. The relay
damper (:mod:`repro.runtime.damping`) trims further: once a node has
forwarded a quorum for a ``(round, step, value)`` it stops relaying that
key. This module measures both regimes against a closed-form model and
writes the comparison to ``BENCH_traffic.json``.

**The analytical column.** With stake vector ``w`` (total ``W``) and an
expected committee size ``tau``, each unit of stake is selected
independently with probability ``tau / W`` (section 5.1's binomial
sortition), so the expected number of *distinct* users holding at least
one selected sub-user — i.e. distinct vote messages originated — is::

    E_d(tau) = sum_i (1 - (1 - tau / W) ** w_i)

A common-case round carries two proposer-committee messages per
proposer (priority announcement + block), six ordinary step committees
(reduction 1-2, BinaryBA* step 1, and the next-three steering steps),
and one final committee:

* ``full    = 2 E_d(tau_p) + 6 E_d(tau_s) + E_d(tau_f)`` — every
  originated message, the relay-everything regime;
* ``minimal = 2 E_d(tau_p) + 6 T_step E_d(tau_s) + T_final E_d(tau_f)``
  — the quorum-trimmed floor, where each committee stops mattering at
  its vote threshold.

Stake concentration lowers ``E_d`` (a whale's sub-users collapse into
one message), so the census sweeps three stake shapes: ``uniform``,
``whale`` (top tenth of accounts holds a third of the stake) and
``midtier`` (middle 40% of accounts holds 60%).

**The observed column** comes from :mod:`repro.obs` gossip counters
(``gossip.sent.* / recv.* / relayed.* / damped.vote``) on the event-less
:class:`~repro.obs.bus.TraceBus` a traffic point runs with, normalized
per round. Runs submit no payments, so the stake vector the analytical
model sees is exactly the one sortition draws from all run long.

CLI (the CI traffic-smoke job runs the quick form)::

    python -m repro.experiments traffic            # census + scale point
    python -m repro.experiments.traffic --no-scale # census grid only
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Any

from repro.common.params import TEST_PARAMS, ProtocolParams
from repro.experiments.spec import ExperimentSpec
from repro.node.config import RuntimeConfig, SimulationConfig
from repro.node.deployment import RunOutcome
from repro.obs.report import format_table

#: Stake shapes the census sweeps.
STAKE_SHAPES = ("uniform", "whale", "midtier")

#: Census deployment: 40 users and committees sized so the analytical
#: minimal column lands near 100 messages/round — comparable across the
#: three stake shapes without drowning in either proposer or final
#: traffic.
CENSUS_USERS = 40
CENSUS_PARAMS = dataclasses.replace(TEST_PARAMS, tau_step=24, tau_final=36)

#: Scale point: the damper's headline claim is measured at 300 users
#: with the final step pipelined — without pipelining, a node commits
#: the moment its final count crosses and the stale-round check already
#: stops the final tail, hiding the damper's largest committee.
SCALE_PARAMS = dataclasses.replace(TEST_PARAMS, pipeline_final_step=True)

#: Per-user stake unit for the synthetic distributions.
STAKE_UNIT = 10


def stake_distribution(shape: str, num_users: int,
                       unit: int = STAKE_UNIT) -> list[int]:
    """Deterministic integer balances summing to ``unit * num_users``.

    * ``uniform`` — every account holds ``unit``;
    * ``whale``   — the top ``num_users // 10`` accounts (at least one)
      split a third of the total, the rest split the remainder;
    * ``midtier`` — the middle 40% of accounts split 60% of the total.

    Rounding remainders go to the first account of each group, so the
    total is exact and the vector is a pure function of its arguments.
    """
    if shape not in STAKE_SHAPES:
        raise ValueError(f"unknown stake shape {shape!r}; "
                         f"expected one of {STAKE_SHAPES}")
    total = unit * num_users
    if shape == "uniform":
        return [unit] * num_users

    def split(group_total: int, size: int) -> list[int]:
        share, remainder = divmod(group_total, size)
        return [share + remainder] + [share] * (size - 1)

    if shape == "whale":
        whales = max(1, num_users // 10)
        rich = split(total // 3, whales)
        poor = split(total - total // 3, num_users - whales)
        return rich + poor
    # midtier: middle 40% of accounts hold 60% of the stake.
    mid = max(1, (num_users * 2) // 5)
    low = (num_users - mid) // 2
    high = num_users - mid - low
    mid_total = (total * 3) // 5
    outer = split(total - mid_total, low + high)
    return outer[:low] + split(mid_total, mid) + outer[low:]


def expected_distinct_voters(balances: list[int], tau: float) -> float:
    """``E_d(tau)``: expected users with >= 1 selected sub-user."""
    total = sum(balances)
    keep = 1.0 - tau / total
    return sum(1.0 - keep ** w for w in balances)


def analytical_census(balances: list[int],
                      params: ProtocolParams) -> dict[str, float]:
    """Closed-form messages/round for a common-case round (module doc)."""
    proposers = expected_distinct_voters(balances, params.tau_proposer)
    step = expected_distinct_voters(balances, params.tau_step)
    final = expected_distinct_voters(balances, params.tau_final)
    return {
        "proposer_msgs": round(proposers, 2),
        "step_committee_msgs": round(step, 2),
        "final_committee_msgs": round(final, 2),
        "full": round(2 * proposers + 6 * step + final, 2),
        "minimal": round(2 * proposers + 6 * params.t_step * step
                         + params.t_final * final, 2),
    }


# ---------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class TrafficPoint:
    """One measured deployment next to its analytical model."""

    num_users: int
    rounds: int
    relay_damping: bool
    analytic: dict[str, float]
    #: kind -> {sent, recv, relayed} per round, network-wide.
    observed: dict[str, dict[str, float]]
    #: Vote relays skipped per round by the damper (0 when off).
    damped_per_round: float


def measure_traffic(outcome: RunOutcome,
                    spec: ExperimentSpec) -> TrafficPoint:
    """Read the run's gossip counters next to the analytical model."""
    config, rounds = spec.config, spec.rounds
    snapshot = outcome.snapshot
    observed = {}
    for kind in ("priority", "block", "vote"):
        observed[kind] = {
            counter: round(
                snapshot.get(f"gossip.{counter}.{kind}", 0) / rounds, 1)
            for counter in ("sent", "recv", "relayed")}
    return TrafficPoint(
        num_users=config.num_users,
        rounds=rounds,
        relay_damping=config.runtime.relay_damping,
        analytic=analytical_census(config.make_balances(), config.params),
        observed=observed,
        damped_per_round=round(
            snapshot.get("gossip.damped.vote", 0) / rounds, 1),
    )


def traffic_spec(stake_shape: str, num_users: int, seed: int, *,
                 rounds: int = 2, relay_damping: bool = True,
                 params: ProtocolParams = CENSUS_PARAMS) -> ExperimentSpec:
    """One census deployment: a stake shape, damped or not."""
    config = SimulationConfig(
        num_users=num_users, params=params, seed=seed,
        balances=stake_distribution(stake_shape, num_users),
        runtime=RuntimeConfig(relay_damping=relay_damping))
    return ExperimentSpec("traffic", config, rounds)


def census_specs(*, seed: int = 0, num_users: int = CENSUS_USERS,
                 rounds: int = 2) -> list[ExperimentSpec]:
    """The census grid: every stake shape, damped then undamped."""
    return [traffic_spec(shape, num_users, seed, rounds=rounds,
                         relay_damping=damping)
            for shape in STAKE_SHAPES
            for damping in (True, False)]


def _measured(specs: list[ExperimentSpec]) -> list[TrafficPoint]:
    # Deferred: the sweep module's measure table imports this module.
    from repro.experiments.sweep import run_point
    return [run_point(spec).point for spec in specs]


def _reduction(undamped: float, damped: float) -> float:
    return round(100.0 * (undamped - damped) / undamped, 1) if undamped else 0.0


def traffic_census(*, seed: int = 0, num_users: int = CENSUS_USERS,
                   rounds: int = 2) -> dict[str, Any]:
    """Run the census grid; per-shape damped/undamped/analytic record."""
    points = _measured(census_specs(seed=seed, num_users=num_users,
                                    rounds=rounds))
    report: dict[str, Any] = {}
    for shape, damped, undamped in zip(STAKE_SHAPES, points[::2],
                                       points[1::2]):
        report[shape] = {
            "num_users": num_users,
            "rounds": rounds,
            "seed": seed,
            "analytic": damped.analytic,
            "damped": damped.observed,
            "damped_votes_per_round": damped.damped_per_round,
            "undamped": undamped.observed,
            "vote_relay_reduction_pct": _reduction(
                undamped.observed["vote"]["relayed"],
                damped.observed["vote"]["relayed"]),
        }
    return report


def scale_point(*, seed: int = 11, num_users: int = 300,
                rounds: int = 2) -> dict[str, Any]:
    """The headline claim: vote-relay reduction at 200+ users."""
    damped, undamped = _measured([
        traffic_spec("uniform", num_users, seed, rounds=rounds,
                     relay_damping=damping, params=SCALE_PARAMS)
        for damping in (True, False)])
    return {
        "num_users": num_users,
        "rounds": rounds,
        "seed": seed,
        "pipeline_final_step": True,
        "damped": damped.observed,
        "damped_votes_per_round": damped.damped_per_round,
        "undamped": undamped.observed,
        "vote_relay_reduction_pct": _reduction(
            undamped.observed["vote"]["relayed"],
            damped.observed["vote"]["relayed"]),
        "vote_sent_reduction_pct": _reduction(
            undamped.observed["vote"]["sent"],
            damped.observed["vote"]["sent"]),
    }


def build_report(*, include_scale: bool = True, seed: int = 0,
                 num_users: int = CENSUS_USERS,
                 rounds: int = 2) -> dict[str, Any]:
    """The full BENCH_traffic.json payload (deterministic bytes)."""
    report: dict[str, Any] = {
        "census": traffic_census(seed=seed, num_users=num_users,
                                 rounds=rounds),
        "params": {
            "tau_proposer": CENSUS_PARAMS.tau_proposer,
            "tau_step": CENSUS_PARAMS.tau_step,
            "tau_final": CENSUS_PARAMS.tau_final,
            "t_step": CENSUS_PARAMS.t_step,
            "t_final": CENSUS_PARAMS.t_final,
        },
    }
    if include_scale:
        report["scale"] = scale_point()
    return report


def render_census(report: dict[str, Any]) -> str:
    """Human table: analytic full/minimal vs observed unique msgs."""
    rows = []
    for shape, entry in report["census"].items():
        analytic = entry["analytic"]
        unique_damped = round(
            sum(entry["damped"][k]["recv"] for k in ("priority", "block",
                                                     "vote"))
            / entry["num_users"], 1)
        rows.append([
            shape, analytic["full"], analytic["minimal"],
            unique_damped,
            entry["damped"]["vote"]["relayed"],
            entry["undamped"]["vote"]["relayed"],
            f"{entry['vote_relay_reduction_pct']}%",
        ])
    return format_table(
        ["stake", "analytic full", "analytic minimal", "recv/user/round",
         "vote relays damped", "undamped", "reduction"], rows)


def write_report(report: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_traffic(*, include_scale: bool = True,
                out: str | None = "BENCH_traffic.json") -> dict[str, Any]:
    """The ``traffic`` artifact: census (+ scale point), table, JSON."""
    report = build_report(include_scale=include_scale)
    print(render_census(report))
    if include_scale:
        scale = report["scale"]
        print(f"scale point ({scale['num_users']} users, pipelined final): "
              f"vote relays {scale['undamped']['vote']['relayed']:.0f} -> "
              f"{scale['damped']['vote']['relayed']:.0f} per round "
              f"({scale['vote_relay_reduction_pct']}% fewer)")
    if out is not None:
        write_report(report, out)
        print(f"wrote {out}")
    return report


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.traffic",
        description="Per-round traffic census: analytical vs observed "
                    "messages per round, damped vs undamped.")
    parser.add_argument("--no-scale", action="store_true",
                        help="census grid only (CI smoke; skips the "
                             "300-user scale point)")
    parser.add_argument("--out", default="BENCH_traffic.json",
                        help="output path ('-' prints JSON to stdout)")
    args = parser.parse_args(argv)
    report = run_traffic(
        include_scale=not args.no_scale,
        out=None if args.out == "-" else args.out)
    if args.out == "-":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
