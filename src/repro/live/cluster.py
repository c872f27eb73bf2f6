"""Coordinator harness for a live cluster of node processes.

:class:`LiveCluster` mirrors :class:`repro.experiments.harness.Simulation`
for the live substrate: build it from a :class:`SimulationConfig` whose
``substrate.kind`` is ``"live"``, queue payments, call
:meth:`run_rounds`, then read :meth:`outcome` (the
:class:`~repro.node.deployment.RunOutcome` a sim returns too) or
:meth:`summary` — same verbs, real processes underneath.

A run starts one **node server**, ``python -m repro.live.node_main``
with no config: it imports the node stack once and forks every node
process from it, so the import is paid once, not once per node
(:func:`repro.live.node_main.serve`). The server is the first thing a
run starts, and this module imports nothing a node runs before it:
while the server imports on one core, the coordinator opens its control
socket (Unix domain or TCP, matching the gossip transport), draws the
gossip graph and queues its first fork request on the other. What
the coordinator reads the results with (the wire codecs, the fold of
:mod:`repro.node.deployment`) it loads once the results are in. Each
fork runs ``NodeProcess(cfg).run()`` on its own config file and leaves
through the interpreter's normal exit. The coordinator then walks the
conversation in :mod:`repro.live.control`:
collect ``hello`` (listen addresses), broadcast ``peers`` (address map
plus the gossip neighbor lists — the graph a sim of the same config
draws, :func:`gossip_neighbors`), await ``ready`` from everyone,
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
  respawns it as a fresh fork of the node server with ``rejoin=True`` and a
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
tail of every node log attached (fail-fast, not a 30s timeout). So
does the node server: its death kills every node it forked and raises
with its own log tail.

Every per-node artifact (configs, logs, traces, sockets, merged trace)
lives under one runtime directory so a failed run leaves a complete
post-mortem behind.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import sys
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

# Nothing here loads numpy or the node stack: the node server imports
# that while this process gets the run ready (``LiveCluster._run``).
from repro.chaos.scenario import check_faults
from repro.common.errors import ConfigError
from repro.common.params import LIVE_SMOKE_PARAMS  # noqa: F401 (re-exported)
from repro.conformance.monitor import ConformanceMonitor
from repro.live.control import (
    CONNECT_TIMEOUT,
    ControlError,
    MessageStream,
    send_message,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import read_trace

if TYPE_CHECKING:
    from repro.chaos.scenario import FaultAction
    from repro.node.config import SimulationConfig
    from repro.node.deployment import RunOutcome
    from repro.obs.bus import TraceBus

_LOG_TAIL_LINES = 25

#: Wall seconds a watcher waits after an un-scripted process exit for
#: the in-flight ``result`` to land before declaring the run broken.
_EXIT_GRACE = 2.0


def gossip_neighbors(config: SimulationConfig) -> dict[str, list[int]]:
    """The gossip graph a sim of ``config`` starts on, for the ``peers``
    message: the sim's own draw (:func:`~repro.network.gossip.draw_peers`)
    on its RNG stream, after the city draw its latency model makes first.
    A live cluster keeps it for the whole run (no per-round reshuffle).

    A coordinator that loads numpy here loads it with one BLAS thread:
    numpy's BLAS pool would start a helper that spins through the node
    server's import on the other core, and the draw needs no BLAS."""
    if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy  # noqa: F401
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    import numpy as np

    from repro.network.gossip import draw_peers
    from repro.network.latency import LatencyModel

    rng = np.random.default_rng(config.seed)
    if config.network.latency_model == "city":
        LatencyModel(config.num_users, rng)
    graph = draw_peers(rng, list(range(config.num_users)),
                       config.network.peers_per_node)
    return {str(node): peers for node, peers in graph.items()}


def _log_tail(path: Path) -> str:
    """The last lines of one process log ("" if it cannot be read)."""
    try:
        lines = path.read_text(errors="replace").splitlines()
    except OSError:
        return ""
    return "\n".join(lines[-_LOG_TAIL_LINES:])


class _NodeHandle:
    """One forked node process, as the coordinator sees it: its
    ``returncode`` arrives on the node server's ``exit`` report."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: int | None = None
        self._reaped = asyncio.Event()

    def reaped(self, returncode: int) -> None:
        self.returncode = returncode
        self._reaped.set()

    async def wait(self) -> int:
        await self._reaped.wait()
        return self.returncode

    def kill(self) -> None:
        """SIGKILL by pid; the server reaps and reports it."""
        if self.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)


class _NodeServer:
    """The run's one ``python -m repro.live.node_main`` (no config): it
    imports the node stack once and forks every node process, respawns
    included (:func:`repro.live.node_main.serve`).

    ``on_failure`` is called once, with a ``RuntimeError`` naming the
    server and carrying its log tail, if the server dies before
    :meth:`close`; :meth:`close` kills every node it forked that is
    still running, so none outlives the run, server or no server.
    """

    def __init__(self, proc: asyncio.subprocess.Process, log_path: Path,
                 started_at: float, coordinator: dict, on_failure) -> None:
        self.proc = proc
        self.log_path = log_path
        self.started_at = started_at
        #: The start-up split: the coordinator's side at the spawn (its
        #: CPU so far and modules loaded), then the server's own from
        #: its ``ready`` report.
        self.startup: dict = dict(coordinator)
        self._on_failure = on_failure
        self._closing = False
        self._waiting: list[asyncio.Future] = []
        #: Every node process it forked, respawns included, by pid.
        self.nodes: dict[int, _NodeHandle] = {}
        self._reader = asyncio.create_task(self._read(),
                                           name="node-server")

    @classmethod
    async def start(cls, env: dict, log_path: Path,
                    on_failure) -> "_NodeServer":
        coordinator = {"coordinator_cpu_s": round(time.process_time(), 4),
                       "coordinator_modules": len(sys.modules)}
        started_at = time.time()
        with open(log_path, "wb") as log:
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro.live.node_main",
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE, stderr=log, env=env)
        return cls(proc, log_path, started_at, coordinator, on_failure)

    async def spawn(self, cfg_path: Path, log_path: Path) -> _NodeHandle:
        """Fork one node; its handle once the server reports the pid."""
        forked = asyncio.get_running_loop().create_future()
        self._waiting.append(forked)
        request = json.dumps([str(cfg_path), str(log_path)]) + "\n"
        try:
            self.proc.stdin.write(request.encode())
            await self.proc.stdin.drain()
        except (BrokenPipeError, ConnectionResetError):
            pass  # the reader reports the death through ``forked``
        return await forked

    async def _read(self) -> None:
        while line := await self.proc.stdout.readline():
            word, _, rest = line.decode().strip().partition(" ")
            if word == "pid":
                handle = _NodeHandle(int(rest))
                self.nodes[handle.pid] = handle
                forked = self._waiting.pop(0)
                if not forked.cancelled():
                    forked.set_result(handle)
            elif word == "exit":
                pid, returncode = map(int, rest.split())
                self.nodes[pid].reaped(returncode)
            elif word == "ready":
                report = json.loads(rest)
                imported_at = report.pop("imported_at")
                self.startup.update(
                    import_s=round(imported_at - self.started_at, 4),
                    **report)
        returncode = await self.proc.wait()
        if self._closing:
            return
        error = RuntimeError(
            f"node server (pid {self.proc.pid}) exited (rc={returncode}) "
            f"while the run needed it\n--- {self.log_path.name} ---\n"
            f"{_log_tail(self.log_path) or '(log empty)'}")
        for forked in self._waiting:
            if not forked.done():
                forked.set_exception(error)
        self._on_failure(error)

    async def close(self) -> None:
        """Kill every node still running, then EOF on stdin: the server
        reaps its children and leaves."""
        self._closing = True
        for handle in self.nodes.values():
            handle.kill()
        with contextlib.suppress(Exception):
            self.proc.stdin.close()
        try:
            await asyncio.wait_for(self.proc.wait(), timeout=10.0)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        await self._reader


class LiveCluster:
    """N node processes + this coordinator, driven like a Simulation."""

    def __init__(self, config: SimulationConfig, *,
                 faults: Sequence[FaultAction] = (),
                 obs: TraceBus | None = None) -> None:
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
        check_faults(config, self.faults)
        #: Optional trace bus, as :class:`Simulation` takes one: once the
        #: run is over the merged trace is emitted through it, each record
        #: at its own ``t``, so its sinks (a JSONL file, ``conformance``)
        #: see what they would on the sim. ``None`` changes nothing.
        self.obs = obs
        #: The run's one reference-machine checker. It reads the merged
        #: trace — every node's events, so the cross-node rules
        #: (``unique-certificate``) can fire — through ``obs`` when one
        #: is given; no node process checks on its own.
        self.conformance = ConformanceMonitor(
            registry=obs.metrics if obs is not None else MetricsRegistry())
        #: The nodes' trace snapshots folded, as ``merged.jsonl`` ends.
        self._node_snapshot: dict = {}
        if obs is not None:
            obs.add_sink(self.conformance)
            obs.add_harvester(self._harvest)
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
        #: The node server's: the import every node shares, once.
        self.server_startup: dict = {}
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
        from repro.crypto.backend import FastBackend
        from repro.node.deployment import NodeRun, RunOutcome, derive_genesis

        backend = FastBackend()
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
        own. ``conformance_ok`` and ``conformance.*`` are the verdict of
        :attr:`conformance` over the merged trace. ``wire_bytes_sent``
        is the name the benchmark reads."""
        heights = {i: r["height"] for i, r in sorted(self.results.items())}
        checked = self.conformance.registry
        self.conformance.harvest(checked)
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
            "conformance_ok": self.conformance.verdict().ok,
            **self.metrics,
            **checked.counters_with_prefix("conformance."),
            "wire_bytes_sent": self.metrics.get("live.wire_bytes_sent", 0),
            "per_node": {i: dict(r["metrics"])
                         for i, r in sorted(self.results.items())},
            "startup": {i: dict(report)
                        for i, report in sorted(self.startup.items())},
            "node_server": dict(self.server_startup),
            "merged_trace": (str(self.merged_trace_path)
                             if self.merged_trace_path else None),
            "runtime_dir": str(self.runtime_dir),
        }

    def _harvest(self, bus: TraceBus) -> None:
        """The bus's numbers: every node's, folded, then the checker's."""
        for name, value in self._node_snapshot.get("counters", {}).items():
            bus.metrics.set_counter(name, value)
        for name, value in self._node_snapshot.get("gauges", {}).items():
            bus.metrics.set_gauge(name, value)
        self.conformance.harvest(bus.metrics)

    # -- orchestration --------------------------------------------------

    def _node_config(self, index: int, control, *,
                     incarnation: int = 0) -> dict:
        """What one node process is told: the deployment's config, whole,
        plus the facts only the coordinator knows about this process."""
        suffix = f"-r{incarnation}" if incarnation else ""
        return {
            "config": self.config.to_json(),
            "index": index,
            "control": control,
            "runtime_dir": str(self.runtime_dir),
            "trace": str(self.runtime_dir / f"trace-{index}{suffix}.jsonl"),
            "incarnation": incarnation,
        }

    def _log_tails(self) -> str:
        """Last lines of every node log — the post-mortem on failure."""
        pieces = []
        for path in sorted((self.runtime_dir or Path(".")).glob("node-*.log")):
            tail = _log_tail(path)
            if tail.strip():
                pieces.append(f"--- {path.name} ---\n{tail}")
        return "\n".join(pieces) if pieces else "(node logs empty)"

    async def _spawn(self, index: int, control, *,
                     incarnation: int = 0,
                     extra: dict | None = None) -> _NodeHandle:
        """Write a node config, fork its process, arm its watcher."""
        cfg = self._node_config(index, control, incarnation=incarnation)
        if extra:
            cfg.update(extra)
        # The node measures its import time from here (one host, one
        # wall clock): the fork, and the server's import if still busy.
        cfg["spawned_at"] = time.time()
        suffix = f"-r{incarnation}" if incarnation else ""
        cfg_path = self.runtime_dir / f"node-{index}{suffix}.json"
        cfg_path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        proc = await self._guarded(self._node_server.spawn(
            cfg_path, self.runtime_dir / f"node-{index}{suffix}.log"))
        self._procs_by_index[index] = proc
        self._trace_paths.setdefault(index, []).append(cfg["trace"])
        self._watchers.append(asyncio.create_task(
            self._watch(index, proc), name=f"watch-{index}"))
        return proc

    def _fail(self, error: Exception) -> None:
        """Abort the run (fail-fast), unless it is already aborting."""
        if not self._abort.done():
            self._abort.set_exception(error)

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
        self._fail(RuntimeError(
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

    async def _admit(self, indices: Sequence[int], start: dict) -> None:
        """hello -> peers -> ready -> start for a batch of (re)spawned
        nodes: the whole cluster at boot, one victim at its respawn.

        Scenario t=0 is pinned on the first batch *before* its start
        broadcast: every node's clock origin is therefore strictly
        later, so node timestamps always trail coordinator-measured kill
        times — the invariant the merged-trace event ordering rests on.
        """
        streams: dict[int, MessageStream] = {}
        for _ in indices:
            index, address, stream, writer = await self._guarded(
                asyncio.wait_for(self._hello_queue.get(),
                                 timeout=CONNECT_TIMEOUT))
            if index not in indices:
                raise ControlError(f"unexpected hello from node {index} "
                                   f"(admitting {list(indices)})")
            streams[index] = stream
            self._writers.append(writer)
            self._node_writers[index] = writer
            self._addresses[str(index)] = address
        peers = {"type": "peers", "addresses": self._addresses,
                 "neighbors": self._neighbors}
        for index in indices:
            await send_message(self._node_writers[index], peers)
        for index in indices:
            ready = await self._guarded(streams[index].expect(
                "ready", timeout=CONNECT_TIMEOUT))
            self.startup[index] = ready["startup"]
            self._expected_dead.discard(index)
        if not self._started:
            self._anchor = asyncio.get_running_loop().time()
            self._started = True
        for index in indices:
            await send_message(self._node_writers[index], start)
        for index in indices:
            self._collectors[index] = asyncio.create_task(
                self._collect(index, streams[index], start["deadline"]),
                name=f"collect-{index}")

    async def _crash_timeline(self, control, start: dict) -> None:
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
                await self._admit([index], start)

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
        self._procs_by_index: dict[int, _NodeHandle] = {}
        self._watchers: list[asyncio.Task] = []
        self._writers: list[asyncio.StreamWriter] = []
        self._node_writers: dict[int, asyncio.StreamWriter] = {}
        self._collectors: dict[int, asyncio.Task] = {}
        self._addresses: dict[str, object] = {}
        deadline = (time_limit
                    or self.config.params.round_budget * (rounds + 1))
        start = {
            "type": "start",
            "payments": [list(batch) for batch in self._payments],
            "rounds": rounds,
            "deadline": deadline,
            "faults": [action.to_dict() for action in self.faults],
        }

        async def on_connect(reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
            stream = MessageStream(reader)
            try:
                hello = await stream.expect("hello",
                                            timeout=CONNECT_TIMEOUT)
            except ControlError:
                writer.close()
                return
            await self._hello_queue.put(
                (hello["index"], hello["address"], stream, writer))

        timeline: asyncio.Task | None = None
        server: asyncio.AbstractServer | None = None
        self._node_server: _NodeServer | None = None
        try:
            # The server first: its import of the node stack is the
            # longest step of start-up, and the rest of it (the control
            # socket, the gossip graph) runs beside it on the other core.
            env = dict(os.environ)
            import repro
            src_root = str(Path(repro.__file__).resolve().parents[1])
            env["PYTHONPATH"] = (
                src_root + os.pathsep + env["PYTHONPATH"]
                if env.get("PYTHONPATH") else src_root)
            # numpy's BLAS pool would be a second thread: no fork then.
            env["OPENBLAS_NUM_THREADS"] = "1"
            self._node_server = await _NodeServer.start(
                env, self.runtime_dir / "node-server.log", self._fail)
            if sub.transport == "uds":
                control = str(self.runtime_dir / "ctrl.sock")
                Path(control).unlink(missing_ok=True)
                server = await asyncio.start_unix_server(on_connect,
                                                         path=control)
            else:
                server = await asyncio.start_server(
                    on_connect, host=sub.host, port=0)
                control = [sub.host, server.sockets[0].getsockname()[1]]
            self._neighbors = gossip_neighbors(self.config)
            for i in range(n):
                await self._spawn(i, control)

            await self._admit(range(n), start)
            timeline = asyncio.create_task(
                self._crash_timeline(control, start),
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
            live_procs = [p for p in self._node_server.nodes.values()
                          if p.returncode is None]
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
            if self._node_server is not None:
                await self._node_server.close()
                self.server_startup = self._node_server.startup
            for writer in self._writers:
                writer.close()
            if server is not None:
                server.close()
                await server.wait_closed()

        # What this process reads the results with is the node stack;
        # it loads here, once nothing waits on the coordinator.
        from repro.network.wire import decode_block
        from repro.node.deployment import fold

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
        the sim injector. A node that wrote no file merges as empty;
        any other bad line, and a cut last line of an incarnation that
        was not killed, raises the ``ValueError`` of
        :func:`~repro.obs.sink.read_trace`, which names the file. The
        merged snapshot is every trace's own folded by the one rule; a
        bus, if any, replays the same records.
        """
        from repro.node.deployment import fold_snapshots

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
                        path, tolerate_truncation=incarnation < len(kills))
                except FileNotFoundError:
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
        snapshot = self._node_snapshot = fold_snapshots(snapshots)
        with out.open("w", encoding="utf-8") as handle:
            for record in events:
                handle.write(json.dumps({"type": "event", **record},
                                        separators=(",", ":")) + "\n")
            handle.write(json.dumps(
                {"type": "snapshot", "metrics": snapshot},
                separators=(",", ":")) + "\n")
        if self.obs is None:
            self.conformance.feed(events)
        else:
            stamp = 0.0
            self.obs.bind_clock(lambda: stamp)
            for record in events:
                fields = dict(record)
                stamp = float(fields.pop("t", 0.0))
                self.obs.emit(fields.pop("kind"), **fields)
        return out
