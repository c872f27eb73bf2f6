"""E15 — aggregated-population scale benchmark.

Like E13/E14 this measures the substrate, not a paper figure: what the
aggregated stake pool (``population="aggregated"``) buys, recorded in
``BENCH_scale.json`` at the repo root. Two claims:

* **Speedup** — on a workload both representations can run, the
  aggregated population commits the same protocol outcomes (proposer
  sequence, seed chain, transactions) for a fraction of the CPU.
  Methodology as in E13/E14: each variant in a fresh subprocess
  reporting process CPU time, min of 2.
* **Scale** — the users-vs-latency curve continues past the full
  harness's practical wall (a few hundred users) to 10,000+ users,
  and stays *flat*: committee sizes, not population, drive both the
  simulated round latency and the live-agent count. This is the
  paper's Figure 5 mechanism, now reachable in-process. Simulated
  latency is deterministic in the seed, so each curve point is a
  single run; CPU seconds per point ride along as context.

Committee parameters are ``TEST_PARAMS.scaled(0.25)`` across the whole
curve (both full baseline and aggregated points), so the curve is
internally consistent; the absolute committee sizes are recorded in the
artifact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import print_table

from repro.common.params import TEST_PARAMS
from repro.experiments.harness import Simulation, SimulationConfig
from repro.experiments.metrics import format_table

#: Speedup workload: dormancy-heavy (weight-1 users, small committees)
#: so the aggregated population retires most of the population while
#: the full harness still simulates everyone.
SPEED_USERS = 300
SPEED_ROUNDS = 3
SPEED_SEED = 2
SPEED_SCALE = 0.1
SPEED_STEPS_AHEAD = 12

#: Curve: full baseline up to the wall, aggregated beyond it.
CURVE_SCALE = 0.25
CURVE_FULL_USERS = [100, 250]
CURVE_AGG_USERS = [1000, 2500, 5000, 10000]
CURVE_ROUNDS = 2
CURVE_SEED = 20
CURVE_CORE = 16
CURVE_STEPS_AHEAD = 8

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
SRC_PATH = Path(__file__).resolve().parent.parent / "src"

_SPEED_SCRIPT = """\
import gc, json, sys, time

mode = sys.argv[1]
users, rounds, seed = (int(x) for x in sys.argv[2:5])
scale = float(sys.argv[5])
steps_ahead = int(sys.argv[6])

from repro.common.params import TEST_PARAMS
from repro.experiments.harness import Simulation, SimulationConfig

warm = Simulation(SimulationConfig(num_users=20, seed=2))
warm.run_rounds(1)
del warm
gc.collect()

kwargs = dict(num_users=users, seed=seed, initial_balance=1,
              params=TEST_PARAMS.scaled(scale))
if mode == "aggregated":
    kwargs.update(population="aggregated", always_on_core=8,
                  steps_ahead=steps_ahead)

start = time.process_time()
sim = Simulation(SimulationConfig(**kwargs))
sim.run_rounds(rounds)
cpu = time.process_time() - start

chain = sim.nodes[0].chain
out = {
    "cpu": cpu,
    "chains_equal": sim.all_chains_equal(),
    "proposers": [(chain.block_at(r).proposer or b"").hex()
                  for r in range(1, rounds + 1)],
    "seeds": [chain.selection_seed(r).hex() for r in range(1, rounds + 2)],
    "simulated_seconds": round(sim.env.now, 6),
}
if mode == "aggregated":
    out["population"] = sim.population.stats()
print(json.dumps(out))
"""


def _run_speed_variant(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_PATH)
    proc = subprocess.run(
        [sys.executable, "-c", _SPEED_SCRIPT, mode,
         str(SPEED_USERS), str(SPEED_ROUNDS), str(SPEED_SEED),
         str(SPEED_SCALE), str(SPEED_STEPS_AHEAD)],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise AssertionError(
            f"{mode} variant subprocess failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _merge_result(update: dict) -> None:
    """Fold a test's results into BENCH_scale.json, keeping the keys
    that other tests in this file own."""
    existing: dict = {}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text())
        except (ValueError, OSError):
            existing = {}
    existing.update(update)
    RESULT_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def test_scale_speedup(benchmark):
    modes = ("full", "aggregated")

    def _measure():
        runs = {mode: [] for mode in modes}
        for _ in range(2):
            for mode in modes:
                runs[mode].append(_run_speed_variant(mode))
        return runs

    runs = benchmark.pedantic(_measure, rounds=1, iterations=1)
    best = {mode: min(results, key=lambda r: r["cpu"])
            for mode, results in runs.items()}

    # Protocol outcomes must match across representations and runs:
    # proposers and seeds are VRF-determined, dormancy cannot move them.
    reference = best["full"]
    for mode in modes:
        for run in runs[mode]:
            assert run["chains_equal"], f"{mode}: nodes diverged"
            assert run["proposers"] == reference["proposers"]
            assert run["seeds"] == reference["seeds"]

    cpu_full = best["full"]["cpu"]
    cpu_agg = best["aggregated"]["cpu"]
    speedup = cpu_full / cpu_agg
    stats = best["aggregated"]["population"]
    _merge_result({
        "speedup": {
            "workload": {
                "num_users": SPEED_USERS,
                "initial_balance": 1,
                "rounds": SPEED_ROUNDS,
                "seed": SPEED_SEED,
                "params_scale": SPEED_SCALE,
                "steps_ahead": SPEED_STEPS_AHEAD,
            },
            "method": "process CPU time, fresh subprocess per run, "
                      "min of 2",
            "full_cpu_seconds": round(cpu_full, 2),
            "aggregated_cpu_seconds": round(cpu_agg, 2),
            "speedup": round(speedup, 2),
            "protocol_outcomes_identical": True,
            "population": stats,
        },
    })

    rows = [
        ["full harness", f"{cpu_full:.2f} cpu-s",
         f"{SPEED_USERS} live agents"],
        ["aggregated", f"{cpu_agg:.2f} cpu-s",
         f"{stats['live_high_water']} live high-water, "
         f"{stats['retired_total']} retired"],
        ["speedup", f"{speedup:.1f}x",
         "same proposers, seeds, and agreement"],
    ]
    print_table(
        f"Aggregated population: speedup, {SPEED_USERS} users "
        f"x {SPEED_ROUNDS} rounds",
        format_table(["variant", "cpu", "note"], rows))
    assert speedup > 1.5, (
        f"aggregated population should beat full agents on a "
        f"dormancy-heavy workload, got {speedup:.2f}x")


def _curve_point(num_users: int, mode: str) -> dict:
    params = TEST_PARAMS.scaled(CURVE_SCALE)
    kwargs = dict(num_users=num_users, seed=CURVE_SEED, params=params)
    if mode == "aggregated":
        kwargs.update(population="aggregated", always_on_core=CURVE_CORE,
                      steps_ahead=CURVE_STEPS_AHEAD)
    start = time.process_time()
    sim = Simulation(SimulationConfig(**kwargs))
    sim.run_rounds(CURVE_ROUNDS)
    cpu = time.process_time() - start
    latencies = sim.round_latencies(CURVE_ROUNDS)
    point = {
        "num_users": num_users,
        "mode": mode,
        "round_latency_s": round(max(latencies), 3),
        "cpu_seconds": round(cpu, 2),
        "events": sim.env.events_processed,
        "messages": sim.network.messages_delivered,
    }
    if mode == "aggregated":
        stats = sim.population.stats()
        point["live_high_water"] = stats["live_high_water"]
        point["retired_total"] = stats["retired_total"]
        point["dup_elided"] = sim.network.dup_elided
    assert sim.all_chains_equal()
    return point


def test_scale_curve(benchmark):
    def _measure():
        points = [_curve_point(n, "full") for n in CURVE_FULL_USERS]
        points += [_curve_point(n, "aggregated") for n in CURVE_AGG_USERS]
        return points

    points = benchmark.pedantic(_measure, rounds=1, iterations=1)
    params = TEST_PARAMS.scaled(CURVE_SCALE)
    _merge_result({
        "curve": {
            "workload": {
                "rounds": CURVE_ROUNDS,
                "seed": CURVE_SEED,
                "params_scale": CURVE_SCALE,
                "tau_proposer": params.tau_proposer,
                "tau_step": params.tau_step,
                "tau_final": params.tau_final,
                "always_on_core": CURVE_CORE,
                "steps_ahead": CURVE_STEPS_AHEAD,
            },
            "method": "simulated round latency is deterministic in the "
                      "seed (single run per point); cpu_seconds are "
                      "single-run context",
            "points": points,
        },
    })

    rows = [[p["num_users"], p["mode"], f"{p['round_latency_s']:.2f} s",
             f"{p['cpu_seconds']:.1f} cpu-s",
             p.get("live_high_water", p["num_users"])]
            for p in points]
    print_table(
        "Users vs latency: full to the wall, aggregated past it",
        format_table(
            ["users", "mode", "round latency", "cpu", "live agents"],
            rows))

    # The scale bar: 10k+ users committed rounds in-process.
    biggest = max(p["num_users"] for p in points)
    assert biggest >= 10_000
    # The flatness bar: the curve must not grow with population —
    # allow per-round protocol variance (an extra binary step costs a
    # couple of lambda_step) but reject anything resembling linear
    # growth over a 10x population span.
    agg = [p for p in points if p["mode"] == "aggregated"]
    assert (max(p["round_latency_s"] for p in agg)
            <= 3 * min(p["round_latency_s"] for p in agg) + 2.0)
    # Dormancy is real at scale: live agents are a small fraction.
    top = next(p for p in agg if p["num_users"] == biggest)
    assert top["live_high_water"] < biggest // 5
