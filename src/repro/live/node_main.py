"""One live node process, and the node server that forks them.

``python -m repro.live.node_main`` (it takes no argument) is the
**node server** :class:`repro.live.cluster.LiveCluster` starts once per
run (:func:`serve`): it imports the node stack once, then forks one
process per ``[cfg_path, log_path]`` line on its stdin, and each child
runs ``NodeProcess(cfg).run()`` on the config it was handed. There is
no other way to start a node process. The config file carries the
deployment's :class:`SimulationConfig` as JSON (under ``"config"``) next to the
facts only this process has — its index, the control address, its
runtime directory and trace path, its incarnation. The process builds the exact stack the sim harness builds,
with the same builder (:mod:`repro.node.deployment`), but on a
:class:`LiveClock` and a :class:`LiveTransport`, then follows the
control conversation in :mod:`repro.live.control`: hello → peers →
(dial/accept gossip links) → ready → start → run rounds → result →
(linger) → stop → (redial nobody, close the trace) → stopped → EOF.

Determinism across processes comes from construction, not luck: every
process derives the same keypairs and genesis from the shared seed, and
the payment schedule is replayed from the same seeded RNG stream in
every process with each node submitting only its own share.

Robustness plumbing (all dormant in a clean run):

* **Reconnect** — a lost gossip link is redialed by the pair's dialer
  (the higher index) with capped exponential backoff and a fresh
  ``peer-hello`` handshake, until the process receives ``stop``.
* **Faults** — the ``start`` message may carry a scripted fault
  schedule; the one :class:`~repro.chaos.faults.FaultInjector` (the
  sim's) arms it on this node's clock, transport hooks and node.
  ``crash`` windows are the coordinator's (SIGKILL + respawn), and an
  empty schedule builds no injector at all.
* **Rejoin** — a respawned process (``rejoin`` config flag) resumes its
  trace clock at ``clock_offset``, rebinds its original address, emits
  ``node_restarted``, and catches up over gossip
  (:class:`~repro.node.catchup.ChainSync`) before running rounds.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import gc
import json
import os
import resource
import select
import signal
import sys
import time
import traceback
from pathlib import Path

# numpy >= 2 loads numpy.random on first attribute access (~20 ms):
# name it here so that cost is start-up, not the first round.
from numpy.random import default_rng

from repro.chaos.faults import FaultInjector
from repro.chaos.scenario import FAULT_RNG_TAG, FaultAction
from repro.common.encoding import decode, encode
from repro.crypto.backend import FastBackend
from repro.ledger.transaction import make_transaction
from repro.live.clock import LiveClock
from repro.live.control import (
    CONNECT_TIMEOUT,
    ControlError,
    MessageStream,
    send_message,
)
from repro.live.transport import LiveTransport, PeerLink
from repro.network.framing import FrameDecoder, WireError, encode_frame
from repro.node.agent import IDLE, Node
from repro.node.catchup import ChainSync
from repro.node.config import SimulationConfig
from repro.node.deployment import (
    NodeRun,
    build_node,
    derive_genesis,
    harvest,
    node_counters,
    payment_plan,
)
from repro.node.registry import BlockRegistry
from repro.obs.bus import TraceBus
from repro.obs.sink import JsonlTraceSink

#: Wall time at which the imports above finished.
_IMPORTED_AT = time.time()
#: Wall time at which this node's own code began: the fork, in a child
#: of the node server (start-up report).
_STARTED_AT = _IMPORTED_AT

#: Reconnect backoff: first retry delay and cap (seconds).
RECONNECT_BACKOFF_BASE = 0.25
RECONNECT_BACKOFF_CAP = 3.0


class _Handshake(asyncio.Protocol):
    """An accepted gossip connection until its ``peer-hello`` frame.

    It then becomes that peer's :class:`PeerLink`, taking whatever
    arrived behind the hello; any other first frame drops it.
    """

    def __init__(self, node: "NodeProcess") -> None:
        self.node = node
        self.decoder = FrameDecoder()
        self.sock: asyncio.Transport | None = None

    def connection_made(self, sock: asyncio.Transport) -> None:
        self.sock = sock

    def data_received(self, data: bytes) -> None:
        try:
            frames = self.decoder.feed(data)
            if not frames:
                return
            hello = decode(frames[0])
        except (WireError, ValueError):
            hello = None
        if (not isinstance(hello, dict)
                or hello.get("type") != "peer-hello"):
            self.sock.abort()
            return
        self.node._accept_link(hello["index"], self.sock, frames[1:],
                               self.decoder.residue())


class NodeProcess:
    """State machine for one live node."""

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.config = SimulationConfig.from_json(cfg["config"])
        self.index: int = cfg["index"]
        self.num_nodes: int = self.config.num_users
        self.params = self.config.params
        self.incarnation = int(cfg.get("incarnation", 0))
        self.rejoin: bool = bool(cfg.get("rejoin"))
        self.clock = LiveClock()
        # A respawned process resumes protocol time where the kill left
        # it, so its trace timestamps merge monotonically with everyone
        # else's and scripted fault windows stay aligned.
        self.clock.now = float(cfg.get("clock_offset", 0.0))
        self.bus = TraceBus()
        self.bus.bind_clock(lambda: self.clock.now)
        self.transport = LiveTransport(
            self.index, self.clock, incarnation=self.incarnation,
            obs=self.bus)
        self.transport.on_link_down = self._ensure_redial
        self._links_complete = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None
        self._peer_addresses: dict[int, object] = {}
        self._neighbors: set[int] = set()
        self._redial_tasks: dict[int, asyncio.Task] = {}

    # -- gossip link establishment --------------------------------------

    def _check_links(self) -> None:
        expected = len(self._neighbors) if self._neighbors \
            else self.num_nodes - 1
        if len(self.transport.links) >= expected:
            self._links_complete.set()

    def _accept_link(self, peer: int, sock: asyncio.Transport,
                     extra: list[bytes], residue: bytes) -> None:
        link = PeerLink(self.transport, peer)
        sock.set_protocol(link)
        link.connection_made(sock)
        self.transport.add_link(link)
        for payload in extra:
            self.transport._on_payload(peer, payload, link.read_txs)
        link.data_received(residue)
        self._check_links()

    async def _listen(self) -> str | list:
        cfg, substrate = self.cfg, self.config.substrate
        loop = asyncio.get_running_loop()
        accept = functools.partial(_Handshake, self)
        if substrate.transport == "uds":
            path = str(Path(cfg["runtime_dir"])
                       / f"node-{self.index}.sock")
            # A respawn after SIGKILL finds its own stale socket file.
            Path(path).unlink(missing_ok=True)
            self._server = await loop.create_unix_server(accept, path=path)
            return path
        port = cfg.get("rebind_port") or (
            (substrate.base_port + self.index) if substrate.base_port
            else 0)
        self._server = await loop.create_server(
            accept, host=substrate.host, port=port)
        bound_port = self._server.sockets[0].getsockname()[1]
        return [substrate.host, bound_port]

    async def _dial_peer(self, peer: int, address) -> None:
        loop = asyncio.get_running_loop()
        link = PeerLink(self.transport, peer)
        if self.config.substrate.transport == "uds":
            await loop.create_unix_connection(lambda: link, address)
        else:
            await loop.create_connection(lambda: link, address[0],
                                         address[1])
        link.sock.write(encode_frame(encode({"type": "peer-hello",
                                             "index": self.index})))
        self.transport.add_link(link)
        self._check_links()

    def _ensure_redial(self, peer: int) -> None:
        """Re-establish a lost link, if we are the pair's dialer.

        Connections are owned by the higher index of the pair (node *i*
        dials every *j < i* at startup); keeping that rule on reconnect
        means a restarted peer gets exactly one new connection, not a
        crossing pair. ``transport.disconnected`` is not consulted: a
        ``dos`` window sets it too, and a link lost during one must be
        back when the window clears. Shutdown stops redialing by
        cancelling the tasks and detaching ``on_link_down``.
        """
        if peer >= self.index or peer not in self._peer_addresses:
            return
        task = self._redial_tasks.get(peer)
        if task is not None and not task.done():
            return
        self._redial_tasks[peer] = asyncio.create_task(
            self._redial(peer), name=f"redial-{peer}")

    async def _redial(self, peer: int) -> None:
        backoff = RECONNECT_BACKOFF_BASE
        try:
            while True:
                existing = self.transport.links.get(peer)
                if existing is not None and not existing.closed:
                    return
                self.transport.reconnect_attempts += 1
                try:
                    await asyncio.wait_for(
                        self._dial_peer(peer, self._peer_addresses[peer]),
                        timeout=2.0)
                except (OSError, asyncio.TimeoutError, ControlError):
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2.0, RECONNECT_BACKOFF_CAP)
                    continue
                self.transport.reconnects += 1
                return
        finally:
            self._redial_tasks.pop(peer, None)

    # -- the protocol stack (the sim harness's builder, live substrate) --

    def _build_node(self) -> Node:
        config = self.config
        backend = FastBackend()
        self.genesis = derive_genesis(config, backend)
        # durable + line-buffered: a SIGKILL mid-run loses at most the
        # line being written, so the chaos coordinator can read a
        # victim's trace back after the kill.
        self.sink = JsonlTraceSink(self.cfg["trace"], buffer_lines=1,
                                   durable=True)
        self.bus.add_sink(self.sink)
        self.bus.add_harvester(self._harvest)
        node = build_node(
            config, self.genesis, self.index, clock=self.clock,
            transport=self.transport, backend=backend,
            registry=BlockRegistry(), obs=self.bus)
        # Catch-up: chainreq/chain handlers, the lag probe, and the waits
        # for an answer after a restart or a ConsensusHalted.
        self.chain_sync = ChainSync(node)
        return node

    def _harvest(self, bus: TraceBus) -> None:
        """The sim's harvest of one node stack, plus the live byte
        mover's, catch-up's and clock-lag gauges under ``live.*``."""
        gauges = {"live." + name: value for name, value in
                  {**self.transport.stats(),
                   **self.chain_sync.stats()}.items()}
        gauges["live.max_lag_s"] = self.clock.max_lag
        harvest(bus.metrics, clock=self.clock,
                backend=self.chain_sync.node.backend,
                agents=node_counters(self.chain_sync.node), gauges=gauges)

    def _startup_report(self, build_began: float) -> dict:
        """Where this process's start-up went (the ``ready`` message).

        ``import_s`` runs from the coordinator's spawn request (same
        host, same wall clock) to this node's code running: the fork,
        plus the node server's imports if the request waited on them;
        ``build_s`` is keys + genesis + the protocol stack; what is left
        of ``ready_s`` is the handshake — mostly waiting for the slowest
        peer to say hello.
        """
        now = time.time()
        spawned_at = self.cfg.get("spawned_at", _STARTED_AT)
        return {
            "import_s": round(_STARTED_AT - spawned_at, 4),
            "build_s": round(now - build_began, 4),
            "ready_s": round(now - spawned_at, 4),
            "modules_loaded": len(sys.modules),
            # Peak so far; Linux reports KiB.
            "rss_mb": round(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }

    def _submit_payments(self, node: Node,
                         batches: list[list[int]]) -> None:
        """Replay the cluster-wide schedule; submit only our share.

        Every process draws the identical RNG stream, so the schedule
        (sender k % n, seeded recipient draw, per-sender nonces) is the
        same everywhere — the live analogue of the sim harness's
        ``submit_payments``, one ``(count, note_bytes)`` batch per call.
        A rejoined process resubmits its share: already-committed
        transactions die at assembly against state, uncommitted ones get
        a second chance to gossip.
        """
        keypairs = self.genesis.keypairs
        rng = default_rng(self.config.seed)
        nonces: dict[int, int] = {}
        for count, note_bytes in batches:
            for sender_index, recipient_index in payment_plan(
                    rng, self.num_nodes, count):
                nonce = nonces.get(sender_index, 0)
                nonces[sender_index] = nonce + 1
                if sender_index != self.index:
                    continue
                keypair = keypairs[sender_index]
                tx = make_transaction(
                    node.backend, keypair.secret, keypair.public,
                    keypairs[recipient_index].public, 1, nonce,
                    note=bytes(note_bytes))
                node.submit_transaction(tx)

    # -- main -----------------------------------------------------------

    async def run(self) -> None:
        cfg = self.cfg
        address = await self._listen()
        try:
            if self.config.substrate.transport == "uds":
                reader, writer = await asyncio.open_unix_connection(
                    cfg["control"])
            else:
                reader, writer = await asyncio.open_connection(
                    cfg["control"][0], cfg["control"][1])
        except OSError as error:
            raise ControlError(f"node {self.index}: no coordinator at "
                               f"{cfg['control']}: {error}") from None
        control = MessageStream(reader)
        await send_message(writer, {"type": "hello", "index": self.index,
                                    "address": address})
        peers = await control.expect("peers", timeout=CONNECT_TIMEOUT)
        self._peer_addresses = {
            int(peer_key): peer_address
            for peer_key, peer_address in peers["addresses"].items()
            if int(peer_key) != self.index}
        neighbor_map = peers.get("neighbors") or {}
        self._neighbors = set(
            neighbor_map.get(str(self.index),
                             sorted(self._peer_addresses)))
        for peer in sorted(self._neighbors):
            if peer >= self.index:
                continue
            if self.rejoin:
                # Peers may themselves be mid-recovery: retry with
                # backoff instead of failing the whole rejoin.
                self._ensure_redial(peer)
            else:
                await self._dial_peer(peer, self._peer_addresses[peer])
        if self.num_nodes > 1 and not self.rejoin:
            await asyncio.wait_for(self._links_complete.wait(),
                                   timeout=CONNECT_TIMEOUT)
        build_began = time.time()
        node = self._build_node()
        await send_message(writer, {
            "type": "ready", "index": self.index,
            "startup": self._startup_report(build_began)})
        start = await control.expect("start", timeout=CONNECT_TIMEOUT)
        rounds: int = start["rounds"]
        deadline = (start.get("deadline")
                    or self.params.round_budget * (rounds + 1))
        # ``crash`` is coordinator-owned: a dead process cannot schedule
        # its own murder. ``obs`` stays ``None``: the coordinator writes
        # one fault_applied/fault_cleared pair for the whole cluster.
        faults = [action for action in map(FaultAction.from_dict,
                                           start.get("faults", ()))
                  if action.kind != "crash"]
        if faults:
            FaultInjector(
                self.clock, self.transport, {self.index: node}, faults,
                rng=default_rng([self.config.seed, FAULT_RNG_TAG,
                                 self.index])).install()
        if self.rejoin:
            node.obs.emit("node_restarted", node=self.index,
                          round=node.chain.next_round)
            # The catch-up asks for the history we missed before the
            # first round, and repeats the request while it waits: the
            # first broadcast can race the redial tasks and go out over
            # zero established links. Our payments, gossiped once, wait
            # for the wait to end.
            node.rejoin(rounds)
            await self.clock.run_async(
                stop_when=lambda: node.phase != IDLE or not node.running,
                deadline=deadline)
        if start["payments"]:
            self._submit_payments(node, start["payments"])
        if not self.rejoin:
            node.start(rounds)
        await self.clock.run_async(stop_when=lambda: not node.running,
                                   deadline=deadline)
        chain = node.chain
        await send_message(writer, {
            "type": "result",
            "index": self.index,
            "incarnation": self.incarnation,
            "height": chain.height,
            "tip": chain.tip_hash,
            "halted": node.halted,
            "trace": cfg["trace"],
            **NodeRun.of(node, {}).to_record(),
        })
        # Linger: keep the clock pumping — and with it gossip dispatch
        # and chain serving — until the coordinator's ``stop`` releases
        # us. Without this, fast finishers exit the instant they reach
        # target height and a chaos victim rejoining later finds nobody
        # left to answer its catch-up requests.
        async def until_stop() -> None:
            with contextlib.suppress(ControlError):  # coordinator gone
                while (await control.next())["type"] != "stop":
                    pass
            self.clock.kick()

        release = asyncio.create_task(until_stop())
        with contextlib.suppress(TimeoutError):  # orphaned: leave anyway
            await self.clock.run_async(stop_when=release.done,
                                       deadline=deadline + 60.0)
        release.cancel()
        # A clean departure: redial nobody, then the closing snapshot
        # (the one read of our counters); links close at control EOF.
        self.transport.on_link_down = None
        for task in list(self._redial_tasks.values()):
            task.cancel()
        self.bus.close()
        with contextlib.suppress(ControlError, OSError):
            await send_message(writer, {"type": "stopped"})
            while True:
                await control.next(timeout=CONNECT_TIMEOUT)
        await self.transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if argv:
        print("usage: python -m repro.live.node_main  (the node server "
              "takes no argument)", file=sys.stderr)
        return 2
    # Returns only in a forked child, with that node's config.
    cfg_path = serve()
    cfg = json.loads(Path(cfg_path).read_text(encoding="utf-8"))
    asyncio.run(NodeProcess(cfg).run())
    return 0


def serve() -> str:
    """The node server: fork one node process per request.

    The stack is imported once, here; ``gc.freeze()`` then moves every
    object it made out of the collector's reach, so a child's
    collections do not write to (and copy) the pages it shares with the
    server. Forking is only safe from a single OS thread, so a server
    with two (numpy's BLAS pool without ``OPENBLAS_NUM_THREADS=1``)
    refuses to serve.

    Protocol: the server writes ``ready <json>`` (its own start-up
    split), then reads ``[cfg_path, log_path]`` JSON lines from stdin
    and answers each with ``pid N`` once forked; it reaps its children
    and writes ``exit N rc`` for each (``rc`` negative for a signal).
    At stdin EOF it waits for the children still running, then leaves
    with ``os._exit``, as it does on any error: no atexit hook of the
    server runs. Only a forked child returns, with its config path, its
    stdin on ``/dev/null`` and its stdout and stderr on its log; it
    then runs as a node and leaves through the interpreter's normal
    exit.
    """
    try:
        cfg_path, log_path = _fork_on_request()
    except BaseException:
        # Interrupts included: the interpreter's normal exit would run
        # the server's atexit hooks, which are the nodes' to run.
        traceback.print_exc()
        sys.stderr.flush()
        os._exit(1)
    global _STARTED_AT
    _STARTED_AT = time.time()
    # dup2 closes the server's stdin, its report pipe and its log.
    devnull = os.open(os.devnull, os.O_RDONLY)
    os.dup2(devnull, 0)
    os.close(devnull)
    log = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(log, 1)
    os.dup2(log, 2)
    os.close(log)
    return cfg_path


def _report(line: str) -> None:
    """One line to the coordinator, unbuffered: a child never inherits
    a half-written report."""
    os.write(1, (line + "\n").encode())


def _fork_on_request() -> tuple[str, str]:
    """The server's loop; returns ``(cfg_path, log_path)`` in a child."""
    gc.collect()
    gc.freeze()
    threads = len(os.listdir("/proc/self/task"))
    if threads != 1:
        raise RuntimeError(
            f"node server: {threads} OS threads after imports; forking "
            "needs exactly one (is OPENBLAS_NUM_THREADS=1 set?)")
    _report("ready " + json.dumps({
        "imported_at": _IMPORTED_AT,
        "cpu_s": round(time.process_time(), 4),
        "rss_mb": round(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "modules_loaded": len(sys.modules),
    }))
    # SIGCHLD wakes the select below through this pipe.
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    signal.set_wakeup_fd(wake_w)
    children: set[int] = set()
    pending = b""
    reading = True
    while reading or children:
        ready, _, _ = select.select([0, wake_r] if reading else [wake_r],
                                    [], [])
        if wake_r in ready:
            with contextlib.suppress(BlockingIOError):
                os.read(wake_r, 4096)
        while children:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                break
            children.discard(pid)
            _report(f"exit {pid} {os.waitstatus_to_exitcode(status)}")
        if 0 not in ready:
            continue
        chunk = os.read(0, 65536)
        if not chunk:
            reading = False
            continue
        pending += chunk
        *lines, pending = pending.split(b"\n")
        for line in lines:
            cfg_path, log_path = json.loads(line)
            pid = os.fork()
            if pid == 0:
                signal.set_wakeup_fd(-1)
                signal.signal(signal.SIGCHLD, signal.SIG_DFL)
                os.close(wake_r)
                os.close(wake_w)
                return cfg_path, log_path
            children.add(pid)
            _report(f"pid {pid}")
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
