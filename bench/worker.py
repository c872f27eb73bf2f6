"""One deployment in one fresh interpreter.

``bench/run.py`` spawns this file once per deployment::

    python bench/worker.py '<json spec>'

and reads the JSON object printed as the last line of stdout.  The spec
names the workload, seed, users, rounds, whether this is a set-up probe
(build everything, run nothing) and whether the run is traced.  Only the
two public harnesses are driven -- ``repro.Simulation`` and
``repro.live.cluster.LiveCluster`` -- and both are reduced to one
substrate-neutral :class:`Observation` from which every metric is
computed by the same code.
"""

from __future__ import annotations

import contextlib
import cProfile
import hashlib
import json
import math
import os
import pstats
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from workloads import BY_NAME, Workload  # noqa: E402


@dataclass
class Observation:
    """What one finished deployment exposes, sim or live."""

    rounds: int
    #: Agents that must commit every round (sim: ``sim.nodes``, i.e. the
    #: always-on core in aggregated mode; live: every node process).
    nodes: int
    #: One dict per (node, round) commit: ``round, start, end,
    #: proposal_s, agreement_s, final_s, kind, empty, steps``; times on
    #: the protocol clock (simulated seconds / live wall seconds).
    commits: list[dict]
    #: The agreed chain's blocks, rounds ``1..height`` of node 0.
    chain: list
    #: The same chain as wire bytes (fingerprint input).
    chain_bytes: list[bytes]
    chains_equal: bool
    heights: list[int]
    net_bytes: int
    run_wall_s: float
    run_cpu_s: float
    #: ``time.monotonic()`` at the start and end of the run, for the
    #: driver's speed probe (the clock is shared by all processes).
    run_window: tuple[float, float]
    peak_rss_mb: float
    startup_cpu_s: float
    block_size: int
    #: ``None`` when the deployment was not monitored.
    conformance_ok: bool | None = None
    #: Registry counters and gauges, flat (traced runs; live always).
    counters: dict = field(default_factory=dict)
    step_timeouts: int = 0
    profile: dict | None = None


# ---------------------------------------------------------------------------
# sim substrate
# ---------------------------------------------------------------------------

class _StepTimeoutSink:
    """Benchmark-owned trace sink: counts BA* steps that timed out."""

    def __init__(self) -> None:
        self.timeouts = 0

    def write_event(self, record: dict) -> None:
        if record["kind"] == "step_exit" and record.get("timed_out"):
            self.timeouts += 1

    def write_snapshot(self, snapshot: dict) -> None:
        pass

    def close(self) -> None:
        pass


def _warm_up() -> None:
    """One 20-user round so lazy imports and caches are paid up front."""
    from repro import Simulation, SimulationConfig
    sim = Simulation(SimulationConfig(num_users=20, seed=2))
    sim.submit_payments(10)
    sim.run_rounds(1)


def _inject(deployment, batch: list[tuple[int, int]]) -> None:
    for count, note_bytes in batch:
        if note_bytes:
            deployment.submit_payments(count, note_bytes=note_bytes)
        else:
            deployment.submit_payments(count)


def run_sim(workload: Workload,
            spec: dict) -> tuple[float, float, Observation | None]:
    """``(setup_s, ready_at, observation)``; no observation for a probe."""
    from repro import Simulation, TraceBus
    from repro.network.wire import encode_block

    rounds, traced = spec["rounds"], spec["trace"]
    warm_s = 0.0
    if not spec["probe"]:
        before = time.monotonic()
        _warm_up()
        warm_s = time.monotonic() - before
    bus = sink = None
    if traced:
        bus, sink = TraceBus(max_events=0), _StepTimeoutSink()
        bus.add_sink(sink)
    config = workload.config(spec["seed"], spec["users"])
    sim = Simulation(config, obs=bus)
    batches = workload.payment_batches(rounds, spec["users"])
    if batches:
        _inject(sim, batches[0])
    ready_at = time.monotonic()
    setup_s = ready_at - spec["spawned_at"] - warm_s
    if spec["probe"]:
        return setup_s, ready_at, None

    # batches[i] goes in just before round i + 1: run to each injection
    # point, inject, and after the last batch run to the end.
    targets = list(range(1, len(batches))) + [rounds]
    profiler = cProfile.Profile() if traced else None
    startup_cpu = time.process_time()  # import + warm-up + build, so far
    window_start = time.monotonic()
    wall_start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    for index, target in enumerate(targets):
        if index:
            _inject(sim, batches[index])
        sim.run_rounds(target)
    if profiler is not None:
        profiler.disable()
    run_wall = time.perf_counter() - wall_start
    run_cpu = time.process_time() - startup_cpu

    commits = []
    for node in sim.nodes:
        for record in node.metrics.rounds:
            commits.append({
                "round": record.round_number, "start": record.start_time,
                "end": record.end_time,
                "proposal_s": record.proposal_duration,
                "agreement_s": record.ba_duration,
                "final_s": record.final_step_duration,
                "kind": record.kind, "empty": record.is_empty,
                "steps": record.binary_steps})
    reference = sim.nodes[0].chain
    chain = [reference.block_at(r) for r in range(1, reference.height + 1)]
    summary = sim.summary()
    counters: dict = {}
    if traced:
        snapshot = summary["obs"]
        counters = {**snapshot["counters"], **snapshot["gauges"]}
    observation = Observation(
        rounds=rounds, nodes=len(sim.nodes), commits=commits, chain=chain,
        chain_bytes=[encode_block(block) for block in chain],
        chains_equal=all(
            node.chain.height == reference.height and all(
                node.chain.block_at(r).block_hash == block.block_hash
                for r, block in enumerate(chain, start=1))
            for node in sim.nodes),
        heights=[node.chain.height for node in sim.nodes],
        net_bytes=summary["total_bytes_sent"],
        run_wall_s=run_wall, run_cpu_s=run_cpu,
        run_window=(window_start, window_start + run_wall),
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        startup_cpu_s=startup_cpu,
        block_size=config.params.block_size,
        conformance_ok=(summary["conformance"]["ok"]
                        if "conformance" in summary else None),
        counters=counters,
        step_timeouts=sink.timeouts if sink is not None else 0,
        profile=(layers.fold(pstats.Stats(profiler).stats)
                 if profiler is not None else None))
    return setup_s, ready_at, observation


# ---------------------------------------------------------------------------
# live substrate
# ---------------------------------------------------------------------------

def run_live(workload: Workload,
             spec: dict) -> tuple[float, float, Observation | None]:
    from repro.conformance.__main__ import main as conformance_main
    from repro.live.cluster import LiveCluster
    from repro.obs.sink import read_trace

    traced = spec["trace"]
    rounds = 0 if spec["probe"] else spec["rounds"]
    # Relative to the checkout root (the worker's cwd): Unix socket
    # paths are limited to ~100 bytes, an absolute checkout path is not.
    scratch = Path(spec["scratch"])
    stats_dir = scratch / "nodes"
    stats_dir.mkdir(parents=True)
    os.environ["PYTHONPATH"] = str(BENCH_DIR / "hooks")
    os.environ["BENCH_NODE_STATS_DIR"] = str(stats_dir)
    os.environ["BENCH_NODE_PROFILE"] = "1" if traced else "0"

    config = workload.config(spec["seed"], spec["users"],
                             runtime_dir=str(scratch / "rt"))
    cluster = LiveCluster(config)
    batches = (workload.payment_batches(rounds, spec["users"])
               if rounds else [])
    if batches:
        _inject(cluster, batches[0])
    cluster.run_rounds(rounds)

    marks = [json.loads(path.read_text(encoding="utf-8"))
             for path in sorted(stats_dir.glob("*.json"))]
    if len(marks) != spec["users"] or any("ready" not in m for m in marks):
        raise RuntimeError(
            f"expected start-up marks from {spec['users']} node processes, "
            f"found {len(marks)}: bench/hooks/sitecustomize.py did not load")
    ready_at = max(m["ready"]["monotonic"] for m in marks)
    setup_s = ready_at - spec["spawned_at"]
    if not rounds:
        return setup_s, ready_at, None

    events, _snapshot = read_trace(cluster.merged_trace_path)
    commits = [{
        "round": event["round"], "start": event["t"] - event["total_s"],
        "end": event["t"], "proposal_s": event["proposal_s"],
        "agreement_s": event["ba_s"], "final_s": event["final_s"],
        "kind": event["consensus"], "empty": event["empty"],
        "steps": event["binary_steps"]}
        for event in events if event["kind"] == "round_commit"]
    counters: dict = {}
    for result in cluster.results.values():
        _events, snapshot = read_trace(result["trace"])
        for name, value in {**snapshot["counters"],
                            **snapshot["gauges"]}.items():
            if name == "live.max_lag_s":
                counters[name] = max(counters.get(name, 0.0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    summary = cluster.summary()
    with contextlib.redirect_stdout(sys.stderr):
        offline_ok = conformance_main(
            [str(cluster.merged_trace_path), "--require-complete",
             "--quiet"]) == 0
    profiles = sorted(str(path) for path in stats_dir.glob("*.prof"))
    observation = Observation(
        rounds=rounds, nodes=spec["users"], commits=commits,
        chain=cluster.chains[0], chain_bytes=cluster.results[0]["blocks"],
        chains_equal=cluster.all_chains_equal(),
        heights=list(summary["heights"].values()),
        net_bytes=summary["wire_bytes_sent"],
        # Every node's clock starts at its ``start`` message.
        run_wall_s=max(commit["end"] for commit in commits),
        run_cpu_s=sum(m["exit"]["cpu_s"] - m["ready"]["cpu_s"]
                      for m in marks),
        run_window=(ready_at, max(m["exit"]["monotonic"] for m in marks)),
        peak_rss_mb=sum(m["exit"]["peak_rss_kb"] for m in marks) / 1024.0,
        startup_cpu_s=sum(m["ready"]["cpu_s"] for m in marks),
        block_size=config.params.block_size,
        conformance_ok=summary["conformance_ok"] and offline_ok,
        counters=counters,
        step_timeouts=sum(1 for event in events
                          if event["kind"] == "step_exit"
                          and event.get("timed_out")),
        profile=layers.fold_files(profiles) if traced else None)
    return setup_s, ready_at, observation


# ---------------------------------------------------------------------------
# metrics (one code path for both substrates)
# ---------------------------------------------------------------------------

def output_checks(obs: Observation, payments: int) -> tuple[dict, int]:
    """The output checks and the number of submitted payments missing.

    Payments are checked structurally: ``submit_payments`` makes sender
    ``k % senders`` pay 1 unit with consecutive nonces from 0, so every
    payment is on the chain exactly once iff each sender's nonces on the
    chain are ``0..count-1`` without gaps or repeats.
    """
    nonces: dict[bytes, list[int]] = {}
    for block in obs.chain:
        for tx in block.transactions:
            nonces.setdefault(tx.sender, []).append(tx.nonce)
    committed = sum(len(seen) for seen in nonces.values())
    checks = {
        "chains_equal": obs.chains_equal,
        "heights_equal_rounds": all(h == obs.rounds for h in obs.heights),
        "payments_at_most_once": all(
            sorted(seen) == list(range(len(seen)))
            for seen in nonces.values()) and committed <= payments,
        "conformance_clean": obs.conformance_ok is not False,
    }
    return checks, max(0, payments - committed)


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def end_to_end(obs: Observation, setup_s: float) -> dict:
    """The end-to-end metrics of one deployment.

    The sample unit of a protocol-clock metric is the *round*: the nodes
    of one round share its fate, so a run of 2-14 rounds has 2-14
    independent samples, not hundreds.  At test-scale committees a round
    now and then misses a quorum: the final-step count times out
    (+lambda_step, 1 round in 3 at tau_final = 25) or the round falls
    back to the empty block (+9 s).  The gated numbers therefore time a
    round to *agreement* (proposal + reduction + BinaryBA*, Fig. 7's
    first two segments) and describe the typical round with a median
    over rounds -- the low one for times, the high one for rates; the
    whole-round latencies and ``baplus.*`` carry the tail.
    """
    rounds = obs.rounds
    by_round: dict[int, list[dict]] = {}
    for commit in obs.commits:
        by_round.setdefault(commit["round"], []).append(commit)
    latencies = [commit["end"] - commit["start"] for commit in obs.commits]
    to_agreement = {
        number: statistics.median(c["proposal_s"] + c["agreement_s"]
                                  for c in commits)
        for number, commits in by_round.items()}
    # Bytes per second of each round that carried payments (of every
    # round when none did): its block over its median time to agreement.
    bearing = [block for block in obs.chain if block.transactions]
    rates = [block.size / to_agreement[block.round_number]
             for block in (bearing or obs.chain)]
    # Payments over the whole span, round 1 to the last bearing block.
    last = bearing[-1].round_number if bearing else len(obs.chain)
    span = (max(c["end"] for c in by_round[last])
            - min(c["start"] for c in by_round[1]))
    return {
        "setup_s": setup_s,
        "wall_s_per_round": obs.run_wall_s / rounds,
        "cpu_s_per_round": obs.run_cpu_s / rounds,
        "agreement_latency_p50_s": statistics.median_low(
            to_agreement.values()),
        "round_latency_p50_s": statistics.median(latencies),
        "round_latency_p90_s": _percentile(latencies, 0.9),
        "committed_tx_per_s": sum(
            len(block.transactions) for block in bearing) / span,
        "committed_bytes_per_s": statistics.median_high(rates),
        "net_bytes_per_round": obs.net_bytes / rounds,
        "peak_rss_mb": obs.peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(obs: Observation, e2e: dict) -> dict:
    """Every per-layer metric except the two that need the untraced
    twin's wall time (``bench/run.py`` adds those)."""
    rounds, c = obs.rounds, obs.counters

    def prefixed(prefix: str) -> float:
        return sum(value for name, value in c.items()
                   if name.startswith(prefix))

    metrics = {}
    for layer, numbers in obs.profile["layers"].items():
        metrics[f"{layer}.self_s_per_round"] = numbers["self_s"] / rounds
        metrics[f"{layer}.calls_per_round"] = numbers["calls"] / rounds
    events = c.get("simloop.events_processed", 0)
    received = prefixed("gossip.recv.")
    duplicates = c.get("gossip.dup_dropped", 0)
    rejected = prefixed("admission.rejected.")
    deliveries = received + duplicates + c.get("gossip.ingress_rejected", 0)
    admitted = c.get("admission.admitted", 0)
    cache_hits, cache_misses = c.get("cache.hits", 0), c.get("cache.misses", 0)
    per_block_tx = [len(block.transactions) for block in obs.chain]
    metrics.update({
        "simloop.events_per_round": events / rounds,
        "simloop.immediate_share": _ratio(
            c.get("simloop.immediates_processed", 0), events),
        "simloop.batch_deliveries_per_round":
            c.get("simloop.batch_deliveries", 0) / rounds,
        "gossip.deliveries_per_round": deliveries / rounds,
        "gossip.dup_share": _ratio(duplicates, deliveries),
        "gossip.relays_per_round": prefixed("gossip.relayed.") / rounds,
        "gossip.damped_per_round": c.get("gossip.damped.vote", 0) / rounds,
        "gossip.egress_dropped": c.get("admission.egress_dropped", 0),
        "gossip.egress_high_water": c.get("admission.egress_high_water", 0),
        "admission.admitted_per_round": admitted / rounds,
        "admission.rejected_share": _ratio(rejected, admitted + rejected),
        "admission.buffer_high_water":
            c.get("admission.buffer_high_water", 0),
        "damping.suppressed_share": _ratio(
            c.get("damping.suppressed", 0), c.get("damping.observed", 0)),
        "baplus.steps_per_round": statistics.fmean(
            commit["steps"] for commit in obs.commits),
        "baplus.step_timeouts": obs.step_timeouts,
        "baplus.fallback_rounds": len({
            commit["round"] for commit in obs.commits
            if commit["empty"] or commit["kind"] != "final"}),
        "baplus.proposal_s_p50": statistics.median(
            commit["proposal_s"] for commit in obs.commits),
        "baplus.agreement_s_p50": statistics.median(
            commit["agreement_s"] for commit in obs.commits),
        "baplus.final_s_p50": statistics.median(
            commit["final_s"] for commit in obs.commits),
        "baplus.round_latency_p50_s": e2e["round_latency_p50_s"],
        "baplus.round_latency_p90_s": e2e["round_latency_p90_s"],
        "cache.hit_rate": _ratio(cache_hits, cache_hits + cache_misses),
        "cache.misses_per_round": cache_misses / rounds,
        "cache.batch_primed": c.get("cache.batch_primed", 0),
        "crypto.verifies_per_round": cache_misses / rounds,
        "sortition.verifies_per_round":
            c.get("sortition.verifies", 0) / rounds,
        "sortition.pool_evaluations_per_round":
            c.get("sortition.pool_evaluations", 0) / rounds,
        "sortition.pool_selected_share": _ratio(
            c.get("sortition.pool_selected", 0),
            c.get("sortition.pool_candidates", 0)),
        "population.live_high_water":
            c.get("population.live_high_water", 0),
        "population.materialized_per_round":
            c.get("population.materialized_total", 0) / rounds,
        "ledger.tx_per_block_p50": statistics.median(per_block_tx),
        "ledger.block_fill_share": statistics.fmean(
            block.payload_size for block in obs.chain) / obs.block_size,
        "ledger.committed_tx": sum(per_block_tx),
        "ledger.committed_tx_per_s": e2e["committed_tx_per_s"],
        "wire.bytes_per_round": c.get("live.wire_bytes_sent", 0) / rounds,
        "wire.frames_per_round": c.get("live.messages_sent", 0) / rounds,
        "transport.rx_dropped": c.get("live.rx_dropped", 0),
        "transport.reconnects": c.get("live.reconnects", 0),
        "transport.clock_lag_max_s": c.get("live.max_lag_s", 0.0),
        "harness.startup_cpu_s": obs.startup_cpu_s,
    })
    return metrics


def round_spans(obs: Observation) -> list[dict]:
    """``run -> round r -> {proposal, agreement, final}`` as real spans,
    taken each round from the node that committed it last."""
    spans = [{"id": "run", "parent": None,
              "start": min(c["start"] for c in obs.commits),
              "end": max(c["end"] for c in obs.commits)}]
    for number in range(1, obs.rounds + 1):
        mine = [c for c in obs.commits if c["round"] == number]
        if not mine:
            continue
        slowest = max(mine, key=lambda commit: commit["end"])
        parent = f"round-{number}"
        spans.append({"id": parent, "parent": "run", "round": number,
                      "start": slowest["start"], "end": slowest["end"],
                      "kind": slowest["kind"], "empty": slowest["empty"]})
        cursor = slowest["start"]
        for segment in ("proposal", "agreement", "final"):
            length = slowest[f"{segment}_s"]
            spans.append({"id": f"{parent}/{segment}", "parent": parent,
                          "round": number, "start": cursor,
                          "end": cursor + length})
            cursor += length
    return spans


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = BY_NAME[spec["workload"]]
    load1 = os.getloadavg()[0]
    run = run_sim if workload.substrate == "sim" else run_live
    setup_s, ready_at, obs = run(workload, spec)
    result: dict = {"setup_s": setup_s, "load1": load1,
                    "setup_window": [spec["spawned_at"], ready_at]}
    if not spec["probe"]:
        import numpy
        payments = workload.payments(spec["rounds"], spec["users"])
        checks, missing_payments = output_checks(obs, payments)
        missing_commits = max(0, obs.nodes * obs.rounds - len(obs.commits))
        attempted = payments + obs.nodes * obs.rounds
        correct = all(checks.values())
        result.update({
            "numpy": numpy.__version__,
            "checks": checks,
            "correct": correct,
            "attempted": attempted,
            "failed": (missing_payments + missing_commits if correct
                       else attempted),
            "fingerprint": hashlib.sha256(
                b"".join(obs.chain_bytes)).hexdigest(),
            "latency_samples": len(obs.commits),
            "run_window": list(obs.run_window),
            "end_to_end": end_to_end(obs, setup_s),
        })
        if spec["trace"]:
            result["per_layer"] = per_layer(obs, result["end_to_end"])
            result["trace"] = {
                "profiled_s": obs.profile["total_s"],
                "layers": obs.profile["layers"],
                "boundary_spans": obs.profile["spans"],
                "round_spans": round_spans(obs),
                "counters": obs.counters,
            }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
