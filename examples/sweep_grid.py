#!/usr/bin/env python3
"""Sweep a latency grid in parallel and prove it matches the serial run.

Builds a 3 populations x 2 seeds grid of latency points, runs it twice
through `repro.experiments.sweep.run_sweep` — once serially in-process,
once fanned over worker processes — and shows the engine's contract:
the merged artifacts are byte-identical, so `--jobs` is purely a
wall-clock knob. Also demonstrates JSONL checkpointing: a second
parallel run against the same checkpoint resumes every point and
recomputes nothing.

Run:  python examples/sweep_grid.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.experiments import ExperimentSpec, SimulationConfig, run_sweep


def build_grid() -> list[ExperimentSpec]:
    # A spec is the complete reproducibility token for one measured
    # point: the deployment's config (population, seed, protocol knobs),
    # its rounds, and the measure to take. Equal specs always produce
    # byte-identical results, which is what makes parallel and resumed
    # runs safely mergeable.
    return [ExperimentSpec("latency",
                           SimulationConfig(num_users=users, seed=seed),
                           rounds=1)
            for users in (8, 10, 12) for seed in (0, 1)]


def main() -> None:
    specs = build_grid()
    print(f"grid: {len(specs)} points "
          f"({sorted({s.config.num_users for s in specs})} users x 2 seeds)")

    start = time.perf_counter()
    serial = run_sweep(specs, jobs=1)
    print(f"serial   jobs=1: {time.perf_counter() - start:5.2f} s wall")

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "points.jsonl"

        start = time.perf_counter()
        parallel = run_sweep(specs, jobs=2, checkpoint=checkpoint)
        print(f"parallel jobs=2: {time.perf_counter() - start:5.2f} s wall")

        identical = serial.merged_json() == parallel.merged_json()
        print(f"merged artifacts byte-identical: {identical}")
        assert identical

        lines = checkpoint.read_text().strip().splitlines()
        print(f"checkpoint: {len(lines)} JSONL records")

        # Resume: every fingerprint is already in the checkpoint, so
        # the engine replays results instead of rebuilding simulations.
        start = time.perf_counter()
        resumed = run_sweep(specs, jobs=2, checkpoint=checkpoint)
        print(f"resumed  jobs=2: {time.perf_counter() - start:5.2f} s wall "
              f"({resumed.resumed_points}/{len(specs)} points from "
              f"checkpoint)")
        assert resumed.merged_json() == serial.merged_json()
        assert resumed.resumed_points == len(specs)

    for outcome in serial.outcomes[:3]:
        median = outcome.result["summary"]["median"]
        config = outcome.spec.config
        print(f"  users={config.num_users:<3} seed={config.seed} "
              f"median latency {median:.2f} s")
    print("sweep contract holds: order-deterministic, restartable, "
          "parallel-safe")


if __name__ == "__main__":
    main()
