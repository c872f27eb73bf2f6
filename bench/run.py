#!/usr/bin/env python3
"""The benchmark driver: one command, every metric.

Contract entry point (what ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) that ``BENCHMARK.json`` declares.  Without ``--workload``
every workload runs; ``--repeat K`` measures K deployments per workload
and reports medians; ``--smoke`` shrinks the matrix to under a minute;
``--selfcheck`` runs two full sets and compares them against the
benchmark's own bounds.  ``bench/README.md`` has the catalogue.

Every deployment is one fresh ``bench/worker.py`` process.  End-to-end
numbers never come from a traced run: ``--trace 1`` measures an untraced
deployment and then a traced twin of it (cProfile + TraceBus), and
reports the twin's layer numbers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from workloads import SMOKE_ROUNDS, WORKLOADS, Workload  # noqa: E402

#: A run is at most two long deployments (untraced + traced twin) and
#: must end inside the contract's 180 s.
WORKER_TIMEOUT_S = 85
#: Set-up is sampled this many times per run (probes make up the count).
SETUP_SAMPLES = 3
#: Sim metrics on the protocol clock or counted by the program: the same
#: seed must reproduce them exactly (--selfcheck enforces it).
SIM_EXACT = ("agreement_latency_p50_s", "round_latency_p50_s",
             "round_latency_p90_s", "committed_tx_per_s",
             "committed_bytes_per_s", "net_bytes_per_round")
#: Shown in the table but not declared in BENCHMARK.json.  Its
#: end-to-end metrics may never be 0 and must be steady from run to run:
#: sim_agg_10k commits no payments, failed_ops_share is 0 whenever the
#: benchmark is healthy (the result line carries it as ``failed`` /
#: ``attempted``), whole-round latencies flip with every final-step
#: timeout and fallback round (see ``worker.end_to_end``), and raw wall
#: time carries the host's drift (sim: cpu_s_per_round is its steady
#: twin; live: it is timer-paced and repeats the round latency).
UNDECLARED = {"wall_s_per_round": "s", "round_latency_p50_s": "s",
              "round_latency_p90_s": "s", "committed_tx_per_s": "1/s",
              "failed_ops_share": "ratio"}


class DeploymentFailed(RuntimeError):
    pass


class SpeedProbe:
    """How fast this machine is right now, sampled while workers run.

    The sandbox's speed drifts by tens of percent over minutes (other
    tenants; ``README.md`` has the measurements), and the drift hits a
    whole run, so no statistic inside one run removes it.  What does is
    a reference workload timed alongside: 20 times a second this
    process -- idle while a worker runs -- chases pointers through a
    36 MB table for a millisecond and notes the nanoseconds per step.
    A memory-latency probe because that is what the simulator feels: it
    slows with cache and memory contention about as the simulator does,
    where an arithmetic loop barely notices.  Host-clock metrics are
    then reported in reference seconds: ``measured x REFERENCE / probe``
    over the same window; the record keeps the raw value and the factor.
    """

    #: The probe on the 2-core reference container in a quiet spell.
    REFERENCE_NS_PER_STEP = 600.0
    STEPS = 2000
    PERIOD_S = 0.05
    _SIZE = 1 << 20

    def __init__(self) -> None:
        # A full-period affine map is a permutation with one cycle.
        self._next = [(j * 1_664_525 + 1_013_904_223) % self._SIZE
                      for j in range(self._SIZE)]
        self._at = 0
        self.samples: list[tuple[float, float]] = []

    def _sample(self, _signum, _frame) -> None:
        table, at = self._next, self._at
        started = time.thread_time_ns()
        for _ in range(self.STEPS):
            at = table[at]
        spent = time.thread_time_ns() - started
        self._at = at
        self.samples.append((time.monotonic(), spent / self.STEPS))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, window: list[float]) -> float:
        """Reference speed / speed seen during ``window`` (monotonic)."""
        start, end = window
        seen = [ns for at, ns in self.samples if start <= at <= end]
        if not seen:
            raise DeploymentFailed(
                f"no speed sample in a {end - start:.2f}s window")
        return self.REFERENCE_NS_PER_STEP / statistics.median(seen)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spawn_worker(spec: dict) -> dict:
    """Run one deployment in a fresh interpreter; return its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spec = dict(spec, spawned_at=time.monotonic())
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise DeploymentFailed(
            f"{spec['workload']}: deployment exceeded "
            f"{WORKER_TIMEOUT_S}s") from exc
    if done.returncode != 0:
        raise DeploymentFailed(
            f"{spec['workload']}: worker exited {done.returncode}\n"
            f"{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def to_reference_seconds(result: dict, speed: SpeedProbe) -> None:
    """Rescale a worker's CPU-bound host times to reference seconds.

    ``wall_s_per_round`` stays raw: on live it is paced by protocol
    timers, not by the machine.
    """
    setup = speed.factor(result["setup_window"])
    result["speed"] = {"setup": setup}
    result["raw"] = {"setup_s": result["setup_s"]}
    result["setup_s"] *= setup
    if "end_to_end" not in result:
        return
    run = result["speed"]["run"] = speed.factor(result["run_window"])
    end_to_end = result["end_to_end"]
    result["raw"]["cpu_s_per_round"] = end_to_end["cpu_s_per_round"]
    end_to_end["cpu_s_per_round"] *= run
    end_to_end["setup_s"] = result["setup_s"]
    for name in result.get("per_layer", ()):
        if name.endswith(".self_s_per_round"):
            result["per_layer"][name] *= run
        elif name == "harness.startup_cpu_s":
            result["per_layer"][name] *= setup


def measure(workload: Workload, speed: SpeedProbe, *, seed: int, rounds: int,
            users: int, trace: bool, repeat: int) -> dict:
    """All deployments of one workload for one run, aggregated."""
    scratch = OUT_DIR / "scratch" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    serial = itertools.count()

    def deploy(*, probe: bool = False, traced: bool = False) -> dict:
        result = spawn_worker({
            "workload": workload.name, "seed": seed, "rounds": rounds,
            "users": users, "probe": probe, "trace": traced,
            "scratch": os.path.relpath(scratch / str(next(serial)), ROOT)})
        to_reference_seconds(result, speed)
        return result

    try:
        # A traced run reports layer numbers only: no set-up probes.
        probes = [deploy(probe=True) for _ in range(
            0 if trace else max(0, SETUP_SAMPLES - repeat))]
        runs = [deploy() for _ in range(repeat)]
        twin = deploy(traced=True) if trace else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    nproc = os.cpu_count() or 1
    deployments = runs + ([twin] if twin else [])
    end_to_end = {
        name: summarize([run["end_to_end"][name] for run in runs])
        for name in runs[0]["end_to_end"]}
    end_to_end["setup_s"] = summarize(
        [result["setup_s"] for result in probes + runs])
    attempted = sum(d["attempted"] for d in deployments)
    failed = sum(d["failed"] for d in deployments)
    end_to_end["failed_ops_share"] = summarize(
        [d["failed"] / d["attempted"] for d in deployments])
    fingerprints = sorted({d["fingerprint"] for d in deployments})
    record = {
        "workload": workload.name, "substrate": workload.substrate,
        "seed": seed, "rounds": rounds, "users": users,
        "payments": workload.payments(rounds, users),
        "deployments": len(runs), "setup_probes": len(probes),
        "correct": all(d["correct"] for d in deployments),
        "attempted": attempted, "failed": failed,
        "checks": {name: all(d["checks"][name] for d in deployments)
                   for name in runs[0]["checks"]},
        "latency_samples": runs[0]["latency_samples"],
        "fingerprint": fingerprints[0],
        "end_to_end": end_to_end,
        "raw_host_seconds": {
            "setup_s": [d["raw"]["setup_s"] for d in probes + runs],
            "cpu_s_per_round": [d["raw"]["cpu_s_per_round"] for d in runs],
            "speed_factor": [d["speed"] for d in probes + deployments],
        },
        "env": {
            "nproc": nproc, "python": platform.python_version(),
            "numpy": runs[0]["numpy"], "git_commit": git_commit(),
            "load1_before_each": [d["load1"] for d in probes + deployments],
            "noisy": [d["load1"] > nproc for d in probes + deployments],
        },
    }
    if workload.substrate == "sim":
        # Same seed, same rounds: a sim chain must repeat byte for byte
        # across this run's deployments (traced twin included) and match
        # the committed reference where there is one.
        record["checks"]["fingerprint_repeats"] = len(fingerprints) == 1
        record["correct"] = record["correct"] and len(fingerprints) == 1
        reference = known_fingerprint(workload.name, seed, rounds, users)
        record["fingerprint_changed"] = (
            reference is not None and reference != fingerprints[0])
    if twin is not None:
        # Both in reference seconds, like every other host time here.
        untraced_wall = statistics.median(
            run["end_to_end"]["wall_s_per_round"] * run["speed"]["run"]
            for run in runs)
        traced_wall = (twin["end_to_end"]["wall_s_per_round"]
                       * twin["speed"]["run"])
        per_layer = dict(twin["per_layer"])
        per_layer["simloop.events_per_wall_s"] = (
            per_layer["simloop.events_per_round"] / untraced_wall)
        per_layer["obs.trace_overhead_ratio"] = traced_wall / untraced_wall
        record["per_layer"] = per_layer
        record["trace"] = twin["trace"]
    return record


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def known_fingerprint(name: str, seed: int, rounds: int,
                      users: int) -> str | None:
    path = BENCH_DIR / "fingerprints.json"
    known = json.loads(path.read_text(encoding="utf-8"))
    return known.get(f"{name}/seed={seed}/rounds={rounds}/users={users}")


# -- reporting ---------------------------------------------------------------

def units(contract: dict) -> dict:
    declared = {metric["name"]: metric["unit"]
                for metric in contract["end_to_end"] + contract["per_layer"]}
    return {**UNDECLARED, **declared}


def print_record(record: dict, unit_of: dict) -> None:
    flags = []
    if any(record["env"]["noisy"]):
        flags.append("NOISY (load above nproc)")
    if record.get("fingerprint_changed"):
        flags.append("fingerprint_changed")
    print(f"\n== {record['workload']}  seed={record['seed']} "
          f"rounds={record['rounds']} users={record['users']} "
          f"payments={record['payments']} "
          f"deployments={record['deployments']} "
          f"latency_samples={record['latency_samples']} "
          f"{' '.join(flags)}")
    print(f"   correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} fingerprint={record['fingerprint'][:16]}")
    print(f"   {'end-to-end metric':<28}{'unit':<7}{'median':>14}"
          f"{'min':>14}{'max':>14}{'n':>4}")
    for name, stats in record["end_to_end"].items():
        print(f"   {name:<28}{unit_of[name]:<7}{stats['median']:>14.6g}"
              f"{stats['min']:>14.6g}{stats['max']:>14.6g}{stats['n']:>4}")
    if "per_layer" in record:
        print(f"   {'per-layer metric (traced twin)':<44}{'unit':<8}"
              f"{'value':>14}")
        for name, value in record["per_layer"].items():
            print(f"   {name:<44}{unit_of[name]:<8}{value:>14.6g}")


def result_line(record: dict, contract: dict, trace: bool) -> dict:
    """The contract's result object for one workload."""
    if trace:
        metrics = {m["name"]: {"value": record["per_layer"][m["name"]],
                               "unit": m["unit"]}
                   for m in contract["per_layer"]}
    else:
        metrics = {m["name"]: {
            "value": record["end_to_end"][m["name"]]["median"],
            "unit": m["unit"]} for m in contract["end_to_end"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def write_outputs(record: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace = record.pop("trace", None)
    if trace is not None:
        profiled = trace["profiled_s"]
        for numbers in trace["layers"].values():
            numbers["share"] = numbers["self_s"] / profiled
        trace = {"workload": record["workload"], "seed": record["seed"],
                 "rounds": record["rounds"], **trace}
        (OUT_DIR / f"{record['workload']}.trace.json").write_text(
            json.dumps(trace, indent=1) + "\n", encoding="utf-8")
    (OUT_DIR / f"{record['workload']}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")


# -- selfcheck ---------------------------------------------------------------

def compare_sets(first: dict, second: dict, contract: dict) -> list[dict]:
    """Disagreements between two sets of runs of the same code."""
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    problems = []
    for name, a_record in first.items():
        b_record = second[name]
        sim = a_record["substrate"] == "sim"
        if sim and a_record["fingerprint"] != b_record["fingerprint"]:
            problems.append({"workload": name, "metric": "fingerprint",
                             "first": a_record["fingerprint"],
                             "second": b_record["fingerprint"]})
        for metric, a_stats in a_record["end_to_end"].items():
            a, b = a_stats["median"], b_record["end_to_end"][metric]["median"]
            if sim and metric in SIM_EXACT or metric == "failed_ops_share":
                agree = a == b
                limit = 0.0
            elif metric in bounds:
                limit = bounds[metric]["bound"]
                worse = (b - a) if bounds[metric]["better"] == "lower" \
                    else (a - b)
                agree = abs(worse) <= limit * abs(a)
            else:
                continue  # shown, not gated
            if not agree:
                problems.append({"workload": name, "metric": metric,
                                 "first": a, "second": b, "bound": limit})
    return problems


# -- entry point -------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=None,
                        help="untraced deployments per workload "
                             "(default 1; 3 under --selfcheck)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, 2 rounds: checks plumbing only")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark "
              f"measures the repository it sits in", file=sys.stderr)
        return 2
    contract = load_contract()
    unit_of = units(contract)
    seconds = (args.seconds if args.seconds is not None
               else contract["run_seconds"])
    chosen = [w for w in WORKLOADS
              if args.workload in (None, w.name)]
    repeat = args.repeat or (3 if args.selfcheck else 1)

    def run_set() -> dict:
        records = {}
        for workload in chosen:
            record = measure(
                workload, speed, seed=args.seed, trace=bool(args.trace),
                repeat=repeat,
                rounds=(SMOKE_ROUNDS if args.smoke
                        else workload.rounds_for(seconds)),
                users=workload.smoke_users if args.smoke else workload.users)
            write_outputs(record)
            print_record(record, unit_of)
            records[workload.name] = record
        return records

    try:
        with SpeedProbe() as speed:
            records = run_set()
            second = run_set() if args.selfcheck else None
        if args.selfcheck:
            problems = compare_sets(records, second, contract)
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            (OUT_DIR / "selfcheck.json").write_text(json.dumps(
                {"agree": not problems, "problems": problems,
                 "seed": args.seed, "repeat": repeat}, indent=1) + "\n",
                encoding="utf-8")
            print(f"\nselfcheck: {'agree' if not problems else 'DISAGREE'}")
            for problem in problems:
                print(f"  {problem}")
            if problems:
                return 1
    except DeploymentFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lines = {name: result_line(record, contract, bool(args.trace))
             for name, record in records.items()}
    print()
    print(json.dumps(lines[args.workload] if args.workload else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
