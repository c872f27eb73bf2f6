"""Run experiment points: one at a time, or a grid over worker processes.

:func:`run_point` is the one way a point runs: build the spec's
deployment with its faults (on the substrate its config names), submit
its payment batches, run its rounds, and take the measurement
:data:`MEASURES` names off the deployment's
:class:`~repro.node.deployment.RunOutcome`. A chaos scenario is such a
point too (measure ``"chaos"``): its run is checked by a
:class:`~repro.obs.bus.TraceBus`, gets a time limit that leaves room
for its fault windows and liveness bound, and a stall is judged in its
verdict rather than raised.

The paper runs its evaluation grid on 1,000 VMs; our reproduction used to
run every grid point serially in one Python process, which made the
``bench_*`` suite the slowest thing in the repo and capped how far up the
user-count axis we could afford to measure. :func:`run_sweep` fans a list of
specs out over a ``multiprocessing`` worker pool and merges the results
so that **parallel output is byte-identical to serial output**:

* **shared-nothing workers** — each point runs in a fresh process that
  rebuilds its own :class:`~repro.experiments.harness.Simulation` from
  the spec's seed, so no simulator state crosses a process boundary and
  scheduling order cannot leak into results;
* **deterministic merge** — outcomes are reassembled in spec order and
  the merged artifact carries only spec-determined data (wall-clock
  times live in the checkpoint and the obs registry, never in the
  merged JSON);
* **per-point timeout + retry-once-on-crash** — a worker that crashes
  or overruns its deadline is killed and the point retried
  (``retries`` times, default once); a point that keeps failing is
  recorded as a failure without sinking the sweep;
* **JSONL checkpointing** — every finished point is appended to a
  checkpoint file keyed by the spec's fingerprint, so an interrupted
  sweep resumes without recomputing finished points;
* **obs integration** — per-point wall-time histograms and
  completed/failed/retried/resumed counters on an optional
  :class:`~repro.obs.bus.TraceBus`.

Serial fallback: with ``jobs=1`` and no timeout the engine runs fully
in-process (no multiprocessing at all), which is also the degenerate
case the byte-identical guarantee is checked against.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Iterable, Sequence

from repro.chaos.runner import measure_chaos
from repro.chaos.scenario import last_heal_time
from repro.common.errors import SpecError
from repro.experiments.adversarial import measure_adversarial
from repro.experiments.costs import measure_costs
from repro.experiments.latency import measure_latency
from repro.experiments.spec import ExperimentSpec, PointResult, spec_from_json
from repro.experiments.throughput import measure_block_size
from repro.experiments.timeouts import measure_timeouts
from repro.experiments.traffic import measure_traffic
from repro.experiments.waiting import measure_waiting
from repro.node.deployment import deploy
from repro.obs.bus import TraceBus
from repro.obs.sink import JsonlTraceSink

#: Measure name -> what it reads off a finished run: ``(outcome, spec)
#: ->`` a typed point dataclass, where ``outcome`` is the deployment's
#: :class:`~repro.node.deployment.RunOutcome` on either substrate.
MEASURES: dict[str, Callable] = {
    "latency": measure_latency,
    "adversarial": measure_adversarial,
    "block_size": measure_block_size,
    "waiting": measure_waiting,
    "traffic": measure_traffic,
    "timeouts": measure_timeouts,
    "costs": measure_costs,
    "chaos": measure_chaos,
}

#: How long the scheduler sleeps waiting for worker messages (seconds).
_POLL_SECONDS = 0.05


def _checked(spec: ExperimentSpec) -> Callable:
    """The measure of ``spec``, once the spec passed validation."""
    if not isinstance(spec, ExperimentSpec):
        raise SpecError(f"not an ExperimentSpec: {spec!r}")
    if spec.measure not in MEASURES:
        raise SpecError(f"unknown measure {spec.measure!r} "
                        f"(known: {sorted(MEASURES)})")
    spec.validate()
    return MEASURES[spec.measure]


def run_point(spec: ExperimentSpec, *,
              trace_path: str | None = None) -> PointResult:
    """Run one experiment point and take its measurement.

    A ``"chaos"`` point runs under a checking bus (writing its events to
    ``trace_path``, if given) until its time limit, and its verdict
    explains a stall; any other point that stalls raises
    ``TimeoutError``.
    """
    measure = _checked(spec)
    chaos = spec.measure == "chaos"
    if trace_path is not None and not chaos:
        raise SpecError(f"a {spec.measure!r} point writes no trace")
    time_limit = None
    if chaos:
        obs = TraceBus()
        if trace_path is not None:
            obs.add_sink(JsonlTraceSink(trace_path))
        time_limit = (spec.config.params.round_budget * (spec.rounds + 1)
                      + last_heal_time(spec.faults) + spec.liveness_bound)
    else:
        # The traffic census reads gossip counters off an event-less bus.
        obs = TraceBus(max_events=0) if spec.measure == "traffic" else None
    deployment = deploy(spec.config, faults=spec.faults, obs=obs)
    for count, note_bytes in spec.payments:
        deployment.submit_payments(count, note_bytes=note_bytes)
    try:
        deployment.run_rounds(spec.rounds, time_limit=time_limit)
    except TimeoutError:
        if not chaos:
            raise
    result = PointResult(spec=spec, point=measure(deployment.outcome(), spec))
    if chaos:
        obs.close()
    return result


@dataclass
class PointOutcome:
    """One grid point's fate: its measurement or its failure."""

    index: int
    spec: ExperimentSpec
    result: dict | None
    wall_time: float
    attempts: int
    error: str | None = None
    #: True when the result was read back from a checkpoint, not rerun.
    resumed: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def checkpoint_record(self) -> dict:
        return {
            "fingerprint": self.spec.fingerprint(),
            "spec": self.spec.to_json(),
            "result": self.result,
            "wall_time": round(self.wall_time, 6),
            "attempts": self.attempts,
            "error": self.error,
        }


@dataclass
class SweepReport:
    """Everything :func:`run_sweep` learned, in spec order."""

    outcomes: list[PointOutcome]
    jobs: int
    wall_time: float
    resumed_points: int = 0

    @property
    def failures(self) -> list[PointOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def results(self) -> list[dict | None]:
        """The JSON-safe measurement payloads, in spec order."""
        return [outcome.result for outcome in self.outcomes]

    def merged(self) -> dict:
        """The deterministic merged artifact (spec-determined data only).

        Wall-clock times and attempt counts are deliberately excluded:
        they vary run to run, and the contract is that a parallel sweep
        serializes to the same bytes as a serial one.
        """
        return {
            "engine": "repro.experiments.sweep",
            "points": [
                {
                    "spec": outcome.spec.to_json(),
                    "result": outcome.result,
                    "error": outcome.error,
                }
                for outcome in self.outcomes
            ],
        }

    def merged_json(self) -> str:
        """Canonical bytes of :meth:`merged` (sorted keys, no spaces)."""
        return json.dumps(self.merged(), sort_keys=True,
                          separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------


def load_checkpoint(path: str) -> dict[str, dict]:
    """Read a JSONL checkpoint into ``fingerprint -> record``.

    Later lines win (a retried sweep may append a success after a
    failure); truncated trailing lines — the signature of a killed
    writer — are skipped rather than fatal. Failed points are *not*
    treated as done, so a resumed sweep retries them.
    """
    records: dict[str, dict] = {}
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("error") is None and "fingerprint" in record:
                records[record["fingerprint"]] = record
    return records


class _CheckpointWriter:
    def __init__(self, path: str | None) -> None:
        self._handle = None
        if path is not None:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(path, "a", encoding="utf-8")

    def append(self, outcome: PointOutcome) -> None:
        if self._handle is None:
            return
        json.dump(outcome.checkpoint_record(), self._handle,
                  sort_keys=True, separators=(",", ":"))
        self._handle.write("\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------


def _point_worker(connection, spec_record: dict) -> None:
    """Child-process entry: run one spec, send ``(status, payload)``."""
    try:
        spec = spec_from_json(spec_record)
        result = run_point(spec)
        connection.send(("ok", result.data()))
    except BaseException as exc:  # report, never hang the parent
        try:
            connection.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        connection.close()


@dataclass
class _Job:
    index: int
    spec: ExperimentSpec
    process: multiprocessing.Process = field(repr=False)
    connection: object = field(repr=False)
    attempts: int
    started: float
    deadline: float | None


def _default_context() -> multiprocessing.context.BaseContext:
    # fork is markedly cheaper per point and available on the platforms
    # CI runs on; spawn is the portable fallback (specs travel as JSON,
    # so both work).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------


def run_sweep(specs: Sequence[ExperimentSpec] | Iterable[ExperimentSpec],
              *, jobs: int = 1, timeout: float | None = None,
              retries: int = 1, checkpoint: str | None = None,
              obs: TraceBus | None = None,
              progress: Callable[[PointOutcome, int], None] | None = None,
              mp_context: multiprocessing.context.BaseContext | None = None,
              ) -> SweepReport:
    """Run every spec and merge outcomes deterministically in spec order.

    ``jobs=1`` with no ``timeout`` runs fully in-process (the serial
    fallback); otherwise up to ``jobs`` shared-nothing worker processes
    run concurrently, each computing one point from its spec alone.
    ``progress`` (if given) is called with each finished
    :class:`PointOutcome` and the total point count, in completion
    order.
    """
    spec_list = list(specs)
    if jobs < 1:
        raise SpecError(f"jobs must be >= 1, got {jobs}")
    if timeout is not None and timeout <= 0:
        raise SpecError(f"timeout must be positive, got {timeout}")
    if retries < 0:
        raise SpecError(f"retries must be >= 0, got {retries}")
    for spec in spec_list:  # fail fast, before any process is forked
        _checked(spec)

    started = time.perf_counter()
    total = len(spec_list)
    done = load_checkpoint(checkpoint) if checkpoint else {}
    writer = _CheckpointWriter(checkpoint)
    outcomes: dict[int, PointOutcome] = {}
    pending: list[tuple[int, ExperimentSpec]] = []
    resumed = 0
    for index, spec in enumerate(spec_list):
        record = done.get(spec.fingerprint())
        if record is not None:
            outcomes[index] = PointOutcome(
                index=index, spec=spec, result=record["result"],
                wall_time=record.get("wall_time", 0.0),
                attempts=record.get("attempts", 1), resumed=True)
            resumed += 1
        else:
            pending.append((index, spec))
    if obs is not None and resumed:
        obs.metrics.inc("sweep.points_resumed", resumed)

    def finish(outcome: PointOutcome) -> None:
        outcomes[outcome.index] = outcome
        if not outcome.resumed:
            writer.append(outcome)
        if obs is not None:
            obs.metrics.observe("sweep.point_wall_time", outcome.wall_time)
            if outcome.ok:
                obs.metrics.inc("sweep.points_completed")
            else:
                obs.metrics.inc("sweep.points_failed")
            obs.emit("sweep.point_done", index=outcome.index,
                     measure=outcome.spec.measure, ok=outcome.ok,
                     attempts=outcome.attempts,
                     wall_time=round(outcome.wall_time, 6))
        if progress is not None:
            progress(outcome, total)

    try:
        if jobs == 1 and timeout is None:
            for index, spec in pending:
                finish(_run_serial(index, spec, retries, obs))
        elif pending:
            for outcome in _run_parallel(pending, jobs=jobs,
                                         timeout=timeout, retries=retries,
                                         obs=obs,
                                         mp_context=mp_context):
                finish(outcome)
    finally:
        writer.close()

    report = SweepReport(
        outcomes=[outcomes[index] for index in range(total)],
        jobs=jobs,
        wall_time=time.perf_counter() - started,
        resumed_points=resumed,
    )
    if obs is not None:
        obs.metrics.set_gauge("sweep.wall_time", report.wall_time)
        obs.metrics.set_gauge("sweep.points_total", total)
    return report


def _run_serial(index: int, spec: ExperimentSpec, retries: int,
                obs: TraceBus | None) -> PointOutcome:
    attempts = 0
    while True:
        attempts += 1
        start = time.perf_counter()
        try:
            result = run_point(spec).data()
            return PointOutcome(
                index=index, spec=spec, result=result,
                wall_time=time.perf_counter() - start, attempts=attempts)
        except Exception as exc:
            if attempts <= retries:
                if obs is not None:
                    obs.metrics.inc("sweep.retries")
                continue
            return PointOutcome(
                index=index, spec=spec, result=None,
                wall_time=time.perf_counter() - start, attempts=attempts,
                error=f"{type(exc).__name__}: {exc}")


def _run_parallel(pending: list[tuple[int, ExperimentSpec]], *, jobs: int,
                  timeout: float | None, retries: int,
                  obs: TraceBus | None,
                  mp_context: multiprocessing.context.BaseContext | None,
                  ) -> Iterable[PointOutcome]:
    """Yield outcomes in completion order, at most ``jobs`` in flight."""
    context = mp_context if mp_context is not None else _default_context()
    queue: list[tuple[int, ExperimentSpec, int]] = [
        (index, spec, 0) for index, spec in pending]
    queue.reverse()  # pop() from the tail -> original order
    running: dict[int, _Job] = {}

    def launch(index: int, spec: ExperimentSpec, attempts: int) -> None:
        parent_end, child_end = context.Pipe(duplex=False)
        process = context.Process(
            target=_point_worker, args=(child_end, spec.to_json()),
            daemon=True)
        process.start()
        child_end.close()
        now = time.perf_counter()
        running[index] = _Job(
            index=index, spec=spec, process=process,
            connection=parent_end, attempts=attempts + 1, started=now,
            deadline=None if timeout is None else now + timeout)

    def reap(job: _Job) -> tuple[str, object] | None:
        """Collect the worker's message, if any, and join the process."""
        message = None
        try:
            if job.connection.poll():
                message = job.connection.recv()
        except (EOFError, OSError):
            message = None
        finally:
            job.connection.close()
        job.process.join()
        return message

    def retry_or_fail(job: _Job, error: str) -> PointOutcome | None:
        if job.attempts <= retries:
            if obs is not None:
                obs.metrics.inc("sweep.retries")
            launch(job.index, job.spec, job.attempts)
            return None
        return PointOutcome(
            index=job.index, spec=job.spec, result=None,
            wall_time=time.perf_counter() - job.started,
            attempts=job.attempts, error=error)

    try:
        while queue or running:
            while queue and len(running) < jobs:
                index, spec, attempts = queue.pop()
                launch(index, spec, attempts)
            # Block until some worker has something to say (or the next
            # deadline passes).
            wait_for = _POLL_SECONDS
            if timeout is not None and running:
                nearest = min(job.deadline for job in running.values())
                wait_for = max(0.0, min(wait_for * 4,
                                        nearest - time.perf_counter()))
            connection_wait(
                [job.connection for job in running.values()],
                timeout=wait_for)
            now = time.perf_counter()
            for job in list(running.values()):
                outcome: PointOutcome | None = None
                if job.connection.poll():
                    del running[job.index]
                    message = reap(job)
                    if message is None:
                        outcome = retry_or_fail(
                            job, "worker died before reporting")
                    elif message[0] == "ok":
                        outcome = PointOutcome(
                            index=job.index, spec=job.spec,
                            result=message[1], wall_time=now - job.started,
                            attempts=job.attempts)
                    else:
                        outcome = retry_or_fail(job, str(message[1]))
                elif not job.process.is_alive():
                    del running[job.index]
                    message = reap(job)
                    if message is not None and message[0] == "ok":
                        outcome = PointOutcome(
                            index=job.index, spec=job.spec,
                            result=message[1], wall_time=now - job.started,
                            attempts=job.attempts)
                    else:
                        error = (str(message[1]) if message is not None
                                 else f"worker crashed (exit code "
                                      f"{job.process.exitcode})")
                        outcome = retry_or_fail(job, error)
                elif job.deadline is not None and now > job.deadline:
                    del running[job.index]
                    job.process.terminate()
                    job.process.join()
                    job.connection.close()
                    outcome = retry_or_fail(
                        job, f"timeout after {timeout:g}s")
                if outcome is not None:
                    yield outcome
    finally:
        for job in running.values():
            job.process.terminate()
            job.process.join()
            job.connection.close()
