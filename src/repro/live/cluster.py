"""Coordinator harness for a live cluster of node processes.

:class:`LiveCluster` mirrors :class:`repro.experiments.harness.Simulation`
for the live substrate: build it from a :class:`SimulationConfig` whose
``substrate.kind`` is ``"live"``, queue payments, call
:meth:`run_rounds`, then read :meth:`outcome` (the
:class:`~repro.node.deployment.RunOutcome` a sim returns too) or
:meth:`summary` — same verbs, real processes underneath.

The coordinator owns a control socket (Unix domain or TCP, matching the
gossip transport), spawns one ``python -m repro.live.node_main`` process
per node, and walks the conversation in :mod:`repro.live.control`:
collect ``hello`` (listen addresses), broadcast ``peers`` (address map
plus the gossip neighbor lists — a partial mesh when
``network.peers_per_node < n - 1``), await ``ready`` from everyone,
broadcast ``start``, then await ``result`` messages carrying each
node's run (:meth:`~repro.node.deployment.NodeRun.to_record`: chain as
encoded block bytes, stored seeds, certificate values, round records,
step durations, metrics) plus its trace path. Per-node JSONL traces are merged into one time-sorted file
suitable for ``python -m repro.conformance`` and, given ``obs=``, replayed
through that bus as a sim would have emitted them.

Chaos extensions (all inert when ``faults`` is empty):

* Every fault kind but ``crash`` rides inside the ``start`` message;
  each node arms the shared schedule with its own
  :class:`~repro.chaos.faults.FaultInjector` (the sim's, over its
  transport's two link hooks), so both ends of a cut link drop their
  frames at the same offsets and an attacker (flood, spam, equivocate,
  double-vote, silent) misbehaves from its own process.
* ``crash`` faults are realized here: the coordinator SIGKILLs the
  victim's process at the window start and — if the window has an end —
  respawns it as a fresh ``node_main`` with ``rejoin=True`` and a
  ``clock_offset`` resuming scenario time, then re-admits it through
  the same hello/peers/ready/start conversation. The victim rebuilds
  its chain over gossip (:class:`repro.node.catchup.ChainSync`).
* Trace merging stitches every incarnation together and synthesizes
  the events a SIGKILLed process cannot write for itself —
  ``step_exit`` closures for steps open at the kill, ``node_crashed``
  at the measured kill time, and one ``fault_applied``/``fault_cleared``
  pair per scripted action (the shape the sim injector emits) — so the
  merged trace replays cleanly through the conformance machine.

Any node process that dies when it is not scripted to — including
before its first ``hello`` — aborts the whole run immediately with the
tail of every node log attached (fail-fast, not a 30s timeout).

Every per-node artifact (configs, logs, traces, sockets, merged trace)
lives under one runtime directory so a failed run leaves a complete
post-mortem behind.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro.chaos.scenario import FaultAction
from repro.common.errors import ConfigError
from repro.common.params import LIVE_SMOKE_PARAMS
from repro.conformance.monitor import ConformanceMonitor
from repro.node.deployment import (
    NodeRun,
    RunOutcome,
    SimulationConfig,
    SubstrateConfig,
    derive_genesis,
    fold,
    fold_snapshots,
    make_backend,
)
from repro.live.control import ControlError, MessageStream, send_message
from repro.network.wire import decode_block
from repro.obs.bus import TraceBus
from repro.obs.sink import read_trace, trace_losses

_LOG_TAIL_LINES = 25

#: Wall seconds a watcher waits after an un-scripted process exit for
#: the in-flight ``result`` to land before declaring the run broken.
_EXIT_GRACE = 2.0


def default_live_config(num_nodes: int = 5, *, seed: int = 7,
                        transport: str = "uds",
                        runtime_dir: str | None = None) -> SimulationConfig:
    """A ready-to-run live cluster config (smoke-test scale)."""
    return SimulationConfig(
        num_users=num_nodes,
        params=LIVE_SMOKE_PARAMS,
        seed=seed,
        initial_balance=40,
        substrate=SubstrateConfig(kind="live", transport=transport,
                                  runtime_dir=runtime_dir),
    )


def neighbor_map(num_nodes: int, peers_per_node: int) -> dict[str, list[int]]:
    """Deterministic symmetric gossip topology from the network config.

    ``peers_per_node >= n - 1`` is the full mesh (the historical live
    default). Anything smaller becomes a ring with chords: node *i*
    links to ``i +- k (mod n)`` for ``k = 1 .. ceil(p / 2)`` — always
    connected, symmetric by construction, degree ``2 * ceil(p / 2)``.
    """
    n = num_nodes
    if peers_per_node >= n - 1 or n <= 2:
        return {str(i): [j for j in range(n) if j != i] for i in range(n)}
    reach = max(1, (min(peers_per_node, n - 2) + 1) // 2)
    out: dict[str, list[int]] = {}
    for i in range(n):
        peers = set()
        for k in range(1, reach + 1):
            peers.add((i + k) % n)
            peers.add((i - k) % n)
        peers.discard(i)
        out[str(i)] = sorted(peers)
    return out


class LiveCluster:
    """N node processes + this coordinator, driven like a Simulation."""

    def __init__(self, config: SimulationConfig | None = None, *,
                 faults: Sequence[FaultAction] = (),
                 node_overrides: dict[int, dict] | None = None,
                 obs: TraceBus | None = None) -> None:
        config = config if config is not None else default_live_config()
        if config.substrate.kind != "live":
            raise ConfigError(
                "LiveCluster requires substrate.kind == 'live' "
                f"(got {config.substrate.kind!r}); use Simulation for "
                "the sim substrate")
        config.validate()
        if config.num_observers:
            raise ConfigError(
                "the live substrate runs one staked process per user "
                "(num_observers must be 0)")
        if config.population.mode != "full":
            raise ConfigError(
                "the live substrate requires population mode 'full' "
                "(every process is one first-class node)")
        self.config = config
        self.num_nodes = config.num_users
        self.faults: tuple[FaultAction, ...] = tuple(faults)
        for action in self.faults:
            action.validate(self.num_nodes)
        #: Per-node config overrides merged into the generated node
        #: config files — test hooks (``exit_at_start``) and tuning.
        self.node_overrides = dict(node_overrides or {})
        #: Optional trace bus, as :class:`Simulation` takes one: once the
        #: run is over the merged trace is emitted through it, each record
        #: at its own ``t``, so its sinks (a JSONL file, ``conformance``)
        #: see what they would on the sim. ``None`` changes nothing.
        self.obs = obs
        #: The reference-machine checker of that replay; ``None`` untraced.
        self.conformance: ConformanceMonitor | None = None
        if obs is not None:
            self.conformance = ConformanceMonitor(registry=obs.metrics)
            obs.add_sink(self.conformance)
            obs.add_harvester(
                lambda bus: self.conformance.harvest(bus.metrics))
        self.runtime_dir: Path | None = None
        self.merged_trace_path: Path | None = None
        #: Scenario time of the merged trace's last record.
        self.ended_at = 0.0
        self.results: dict[int, dict] = {}
        #: Every process's ``result`` metrics, folded.
        self.metrics: dict = {}
        self.chains: dict[int, list] = {}
        self.rounds_run = 0
        #: Measured kills: ``{"node": i, "t": scenario_seconds}``.
        self.kill_log: list[dict] = []
        #: Each node's own start-up split from its ``ready`` message
        #: (the latest incarnation's, after a respawn).
        self.startup: dict[int, dict] = {}
        self._payments: list[tuple[int, int]] = []
        #: Every trace file each node index wrote, in incarnation order.
        self._trace_paths: dict[int, list[str]] = {}
        self._expected_dead: set[int] = set()
        self._permanently_dead: set[int] = set()
        self._finished: set[int] = set()

    # -- Simulation-shaped surface --------------------------------------

    def submit_payments(self, count: int, note_bytes: int = 0) -> None:
        """Queue a batch of ``count`` payments for the next
        :meth:`run_rounds`.

        Unlike the sim (which injects transactions directly), the live
        schedule is *replayed deterministically inside every node
        process* from the shared seed; this just records the batch the
        ``start`` message will carry.
        """
        self._payments.append((count, note_bytes))

    def run_rounds(self, rounds: int,
                   time_limit: float | None = None) -> None:
        """Spawn the cluster, run ``rounds`` rounds, collect results."""
        asyncio.run(self._run(rounds, time_limit))

    def all_chains_equal(self) -> bool:
        """Byte-identical committed chains on every reporting process."""
        blocks = [self.results[i]["blocks"] for i in sorted(self.results)]
        return bool(blocks) and all(b == blocks[0] for b in blocks[1:])

    def outcome(self) -> RunOutcome:
        """What the run left behind, rebuilt from the processes'
        ``result`` messages: their chains, seeds, certificates, round
        records and counters, the last record of the merged trace, and
        the folded metrics. Seeds verify on a backend holding every key
        of the deployment (a backend verifies only keys it generated)."""
        backend = make_backend(self.config)
        derive_genesis(self.config, backend)
        return RunOutcome(
            runs={index: NodeRun.from_record(index, result)
                  for index, result in sorted(self.results.items())},
            slots=self.num_nodes, now=self.ended_at, backend=backend,
            conformance=self.conformance,
            snapshot=dict(self.metrics),
            trace_path=(str(self.merged_trace_path)
                        if self.merged_trace_path else None))

    def summary(self) -> dict:
        """The run's facts plus its node snapshots folded by the one rule
        (:func:`~repro.node.deployment.fold`), under the registry names
        a sim's ``summary()`` uses; ``per_node`` keeps each process's
        own. ``wire_bytes_sent`` is the name the benchmark reads."""
        heights = {i: r["height"] for i, r in sorted(self.results.items())}
        return {
            "substrate": "live",
            "transport": self.config.substrate.transport,
            "nodes": self.num_nodes,
            "rounds": self.rounds_run,
            "payments": sum(count for count, _ in self._payments),
            "faults": [action.to_dict() for action in self.faults],
            "kills": list(self.kill_log),
            "missing_nodes": sorted(self._permanently_dead),
            "heights": heights,
            "chains_equal": self.all_chains_equal(),
            "tips": {i: r["tip"].hex()[:16]
                     for i, r in sorted(self.results.items())},
            "conformance_ok": all(r["conformance_ok"]
                                  for r in self.results.values()),
            "trace_events_dropped": sum(r["dropped_events"]
                                        for r in self.results.values()),
            **self.metrics,
            "wire_bytes_sent": self.metrics.get("live.wire_bytes_sent", 0),
            "per_node": {i: dict(r["metrics"])
                         for i, r in sorted(self.results.items())},
            "startup": {i: dict(report)
                        for i, report in sorted(self.startup.items())},
            "merged_trace": (str(self.merged_trace_path)
                             if self.merged_trace_path else None),
            "runtime_dir": str(self.runtime_dir),
        }

    # -- orchestration --------------------------------------------------

    def _node_config(self, index: int, control, *,
                     incarnation: int = 0) -> dict:
        """What one node process is told: the deployment's config, whole,
        plus the facts only the coordinator knows about this process."""
        runtime_dir = str(self.runtime_dir)
        suffix = f"-r{incarnation}" if incarnation else ""
        cfg = {
            "config": self.config.to_json(),
            "index": index,
            "control": control,
            "runtime_dir": runtime_dir,
            "trace": str(Path(runtime_dir)
                         / f"trace-{index}{suffix}.jsonl"),
            "incarnation": incarnation,
        }
        cfg.update(self.node_overrides.get(index, {}))
        return cfg

    def _log_tails(self) -> str:
        """Last lines of every node log — the post-mortem on failure."""
        pieces = []
        for path in sorted((self.runtime_dir or Path(".")).glob("node-*.log")):
            try:
                lines = path.read_text(errors="replace").splitlines()
            except OSError:
                continue
            tail = "\n".join(lines[-_LOG_TAIL_LINES:])
            if tail.strip():
                pieces.append(f"--- {path.name} ---\n{tail}")
        return "\n".join(pieces) if pieces else "(node logs empty)"

    async def _spawn(self, index: int, control, *,
                     incarnation: int = 0,
                     extra: dict | None = None) -> asyncio.subprocess.Process:
        """Write a node config, start its process, arm its watcher."""
        cfg = self._node_config(index, control, incarnation=incarnation)
        if extra:
            cfg.update(extra)
        # The node measures its import time from here (one host, one
        # wall clock), so interpreter boot is inside it.
        cfg["spawned_at"] = time.time()
        suffix = f"-r{incarnation}" if incarnation else ""
        cfg_path = self.runtime_dir / f"node-{index}{suffix}.json"
        cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        log = open(self.runtime_dir / f"node-{index}{suffix}.log", "wb")
        self._log_files.append(log)
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro.live.node_main", str(cfg_path),
            stdout=log, stderr=log, env=self._env)
        self._procs.append(proc)
        self._procs_by_index[index] = proc
        self._trace_paths.setdefault(index, []).append(cfg["trace"])
        self._watchers.append(asyncio.create_task(
            self._watch(index, proc), name=f"watch-{index}"))
        return proc

    async def _watch(self, index: int, proc) -> None:
        """Fail-fast: an un-scripted process death aborts the run."""
        await proc.wait()
        if self._abort.done() or index in self._expected_dead:
            return
        if self._started and index not in self._finished:
            # A result frame may still be in flight; give it a moment.
            await asyncio.sleep(_EXIT_GRACE)
        if (self._abort.done() or index in self._expected_dead
                or index in self._finished):
            return
        self._abort.set_exception(RuntimeError(
            f"node {index} exited (rc={proc.returncode}) before "
            f"delivering a result"))

    async def _guarded(self, awaitable):
        """Await ``awaitable``, losing instantly to a fail-fast abort."""
        task = asyncio.ensure_future(awaitable)
        await asyncio.wait({task, self._abort},
                           return_when=asyncio.FIRST_COMPLETED)
        if self._abort.done() and not task.done():
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
            raise self._abort.exception()
        return await task

    async def _collect(self, index: int, stream: MessageStream,
                       deadline: float) -> dict | None:
        """One node's ``result``; ``None`` if it was scripted to die."""
        try:
            result = await stream.expect("result", timeout=deadline + 30.0)
        except ControlError:
            if index in self._expected_dead:
                return None
            raise
        self._finished.add(index)
        return result

    async def _admit(self, index: int, *, deadline: float,
                     rounds: int) -> None:
        """hello -> peers -> ready -> start for one (re)spawned node."""
        sub = self.config.substrate
        hello_index, address, stream, writer = await self._guarded(
            asyncio.wait_for(self._hello_queue.get(),
                             timeout=sub.connect_timeout))
        if hello_index != index:
            raise ControlError(
                f"expected hello from respawned node {index}, "
                f"got node {hello_index}")
        self._writers.append(writer)
        self._node_writers[index] = writer
        self._addresses[str(index)] = address
        await send_message(writer, {"type": "peers",
                                    "addresses": self._addresses,
                                    "neighbors": self._neighbors})
        ready = await self._guarded(stream.expect(
            "ready", timeout=sub.connect_timeout))
        self.startup[index] = ready["startup"]
        self._expected_dead.discard(index)
        await send_message(writer, dict(self._start_message,
                                        deadline=deadline, rounds=rounds))
        self._collectors[index] = asyncio.create_task(
            self._collect(index, stream, deadline),
            name=f"collect-{index}-respawn")

    async def _crash_timeline(self, *, control, deadline: float,
                              rounds: int) -> None:
        """SIGKILL scripted victims; respawn + re-admit on window end."""
        actions = sorted(
            (action for action in self.faults if action.kind == "crash"),
            key=lambda action: action.start)
        loop = asyncio.get_running_loop()
        for action in actions:
            await asyncio.sleep(
                max(0.0, self._anchor + action.start - loop.time()))
            for index in action.nodes:
                self._expected_dead.add(index)
                if action.end is None:
                    self._permanently_dead.add(index)
                proc = self._procs_by_index[index]
                if proc.returncode is None:
                    proc.kill()
                self.kill_log.append(
                    {"node": index,
                     "t": loop.time() - self._anchor})
            if action.end is None:
                continue
            await asyncio.sleep(
                max(0.0, self._anchor + action.end - loop.time()))
            for index in action.nodes:
                extra: dict = {
                    "rejoin": True,
                    "clock_offset": loop.time() - self._anchor,
                }
                if self.config.substrate.transport == "tcp":
                    # Keep the advertised address valid: rebind the
                    # exact port the first incarnation listened on.
                    extra["rebind_port"] = self._addresses[str(index)][1]
                incarnation = len(self._trace_paths[index])
                await self._spawn(index, control,
                                  incarnation=incarnation, extra=extra)
                await self._admit(index, deadline=deadline, rounds=rounds)

    async def _run(self, rounds: int, time_limit: float | None) -> None:
        sub = self.config.substrate
        n = self.num_nodes
        self.runtime_dir = Path(
            sub.runtime_dir or tempfile.mkdtemp(prefix="repro-live-"))
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        loop = asyncio.get_running_loop()
        self._abort: asyncio.Future = loop.create_future()
        self._started = False
        self._hello_queue: asyncio.Queue = asyncio.Queue()
        self._procs: list[asyncio.subprocess.Process] = []
        self._procs_by_index: dict[int, asyncio.subprocess.Process] = {}
        self._log_files: list = []
        self._watchers: list[asyncio.Task] = []
        self._writers: list[asyncio.StreamWriter] = []
        self._node_writers: dict[int, asyncio.StreamWriter] = {}
        self._collectors: dict[int, asyncio.Task] = {}
        self._neighbors = neighbor_map(n,
                                       self.config.network.peers_per_node)

        async def on_connect(reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
            stream = MessageStream(reader)
            try:
                hello = await stream.expect("hello",
                                            timeout=sub.connect_timeout)
            except ControlError:
                writer.close()
                return
            await self._hello_queue.put(
                (hello["index"], hello["address"], stream, writer))

        if sub.transport == "uds":
            control = str(self.runtime_dir / "ctrl.sock")
            Path(control).unlink(missing_ok=True)
            server = await asyncio.start_unix_server(on_connect,
                                                     path=control)
        else:
            server = await asyncio.start_server(on_connect, host=sub.host,
                                                port=0)
            control = [sub.host, server.sockets[0].getsockname()[1]]

        timeline: asyncio.Task | None = None
        try:
            env = dict(os.environ)
            import repro
            src_root = str(Path(repro.__file__).resolve().parents[1])
            env["PYTHONPATH"] = (
                src_root + os.pathsep + env["PYTHONPATH"]
                if env.get("PYTHONPATH") else src_root)
            self._env = env
            for i in range(n):
                await self._spawn(i, control)

            self._addresses = {}
            streams: dict[int, MessageStream] = {}
            for _ in range(n):
                index, address, stream, writer = await self._guarded(
                    asyncio.wait_for(self._hello_queue.get(),
                                     timeout=sub.connect_timeout))
                streams[index] = stream
                self._writers.append(writer)
                self._node_writers[index] = writer
                self._addresses[str(index)] = address
            for index in range(n):
                await send_message(self._node_writers[index],
                                   {"type": "peers",
                                    "addresses": self._addresses,
                                    "neighbors": self._neighbors})
            for index in range(n):
                ready = await self._guarded(streams[index].expect(
                    "ready", timeout=sub.connect_timeout))
                self.startup[index] = ready["startup"]

            deadline = (time_limit
                        or self.config.params.round_budget * (rounds + 1))
            self._start_message = {
                "type": "start",
                "payments": [list(batch) for batch in self._payments],
                "rounds": rounds,
                "deadline": deadline,
                "faults": [action.to_dict() for action in self.faults],
            }
            # Scenario t=0 is pinned *before* the start broadcast: every
            # node's clock origin is therefore strictly later, so node
            # timestamps always trail coordinator-measured kill times —
            # the invariant the merged-trace event ordering rests on.
            self._anchor = loop.time()
            self._started = True
            for index in range(n):
                await send_message(self._node_writers[index],
                                   self._start_message)
            for index in range(n):
                self._collectors[index] = asyncio.create_task(
                    self._collect(index, streams[index], deadline),
                    name=f"collect-{index}")
            timeline = asyncio.create_task(
                self._crash_timeline(control=control, deadline=deadline,
                                     rounds=rounds),
                name="crash-timeline")
            await self._guarded(timeline)
            results: dict[int, dict] = {}
            for index in range(n):
                result = await self._guarded(self._collectors[index])
                if result is not None:
                    results[index] = result
            # Every result is in: release the lingering processes (they
            # keep serving catch-up to late rejoiners until told to stop).
            for index, writer in self._node_writers.items():
                if index in self._permanently_dead:
                    continue
                with contextlib.suppress(Exception):
                    await send_message(writer, {"type": "stop"})
            live_procs = [p for p in self._procs if p.returncode is None]
            await asyncio.wait_for(
                asyncio.gather(*(p.wait() for p in live_procs)),
                timeout=30.0)
        except Exception as exc:
            raise RuntimeError(
                f"live cluster failed during orchestration: {exc!r}\n"
                f"{self._log_tails()}") from exc
        finally:
            if timeline is not None and not timeline.done():
                timeline.cancel()
            for task in self._collectors.values():
                if not task.done():
                    task.cancel()
            for task in self._watchers:
                if not task.done():
                    task.cancel()
            if self._abort.done():
                self._abort.exception()  # mark retrieved
            for proc in self._procs:
                if proc.returncode is None:
                    proc.kill()
            for writer in self._writers:
                writer.close()
            server.close()
            await server.wait_closed()
            for log in self._log_files:
                log.close()

        self.results = results
        self.metrics = {}
        for result in results.values():
            fold(self.metrics, result["metrics"])
        self.rounds_run = rounds
        self.chains = {
            index: [decode_block(raw) for raw in result["blocks"]]
            for index, result in results.items()
        }
        self.merged_trace_path = self._merge_traces()

    # -- trace merging --------------------------------------------------

    def _synthesize_crash_events(self, index: int, events: list[dict],
                                 kill_t: float) -> list[dict]:
        """What a SIGKILLed incarnation could not write for itself.

        Closes every step it left open (``interrupted`` exits, the same
        shape :func:`repro.baplus.voting.interrupt_counts` emits)
        and then records the crash — exactly the order the
        conformance machine requires so open intervals are not flagged
        as unclosed.
        """
        open_steps: dict[tuple[int, int], float] = {}
        last_round = 1
        for record in events:
            kind = record.get("kind")
            if kind == "step_enter":
                open_steps[(record["round"], record["step"])] = \
                    float(record.get("t", kill_t))
            elif kind == "step_exit":
                open_steps.pop((record["round"], record["step"]), None)
            elif kind == "round_start":
                last_round = record["round"]
        synthesized = [
            {"t": kill_t, "kind": "step_exit", "node": index,
             "round": round_number, "step": step,
             "seconds": max(0.0, kill_t - entered_t),
             "timed_out": True, "interrupted": True}
            for (round_number, step), entered_t
            in sorted(open_steps.items())
        ]
        synthesized.append({"t": kill_t, "kind": "node_crashed",
                            "node": index, "round": last_round})
        return synthesized

    def _merge_traces(self) -> Path:
        """One time-sorted JSONL trace across all nodes and incarnations.

        Events keep their per-node ``node`` field (the conformance
        checker demultiplexes on it). Victim incarnations are read with
        truncation tolerance (a SIGKILL can land mid-write), closed out
        with synthesized crash events at the measured kill times, and
        followed by their respawn's events; scripted faults contribute
        one ``fault_applied``/``fault_cleared`` pair each, mirroring
        the sim injector. The merged snapshot is every trace's own
        folded by the one rule, losses included (what completeness
        checks read); a bus, if any, replays the same records and
        counts the same losses.
        """
        events: list[dict] = []
        snapshots: list[dict] = []
        kills_by_node: dict[int, list[float]] = {}
        for record in self.kill_log:
            kills_by_node.setdefault(record["node"], []).append(record["t"])
        for index in sorted(self._trace_paths):
            kills = kills_by_node.get(index, [])
            for incarnation, path in enumerate(self._trace_paths[index]):
                try:
                    node_events, snapshot = read_trace(
                        path, tolerate_truncation=True)
                except (OSError, ValueError):
                    node_events, snapshot = [], None
                events.extend(node_events)
                snapshots.append(snapshot or {})
                if incarnation < len(kills):
                    events.extend(self._synthesize_crash_events(
                        index, node_events, kills[incarnation]))
        for action in self.faults:
            window = [action.start, action.end]
            events.append({"t": action.start, "kind": "fault_applied",
                           "fault": action.kind,
                           "nodes": list(action.nodes), "window": window})
            if action.end is not None:
                events.append({"t": action.end, "kind": "fault_cleared",
                               "fault": action.kind,
                               "nodes": list(action.nodes),
                               "window": window})
        events.sort(key=lambda record: float(record.get("t", 0.0)))
        if events:
            self.ended_at = float(events[-1].get("t", 0.0))
        out = Path(self.runtime_dir) / "merged.jsonl"
        snapshot = fold_snapshots(snapshots)
        with out.open("w", encoding="utf-8") as handle:
            for record in events:
                handle.write(json.dumps({"type": "event", **record},
                                        separators=(",", ":")) + "\n")
            handle.write(json.dumps(
                {"type": "snapshot", "metrics": snapshot},
                separators=(",", ":")) + "\n")
        if self.obs is not None:
            stamp = 0.0
            self.obs.bind_clock(lambda: stamp)
            for record in events:
                fields = dict(record)
                stamp = float(fields.pop("t", 0.0))
                self.obs.emit(fields.pop("kind"), **fields)
            self.obs.dropped_events += sum(trace_losses(snapshot))
        return out
