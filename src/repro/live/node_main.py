"""One live node process: ``python -m repro.live.node_main <config.json>``.

Spawned by :class:`repro.live.cluster.LiveCluster`, one per node. The
config file carries the deployment's :class:`SimulationConfig` as JSON
(under ``"config"``) next to the facts only this process has — its
index, the control address, its runtime directory and trace path, its
incarnation. The process builds the exact stack the sim harness builds,
with the same builder (:mod:`repro.node.deployment`), but on a
:class:`LiveClock` and a :class:`LiveTransport`, then follows the
control conversation in :mod:`repro.live.control`: hello → peers →
(dial/accept gossip links) → ready → start → run rounds → result.

Determinism across processes comes from construction, not luck: every
process derives the same keypairs and genesis from the shared seed, and
the payment schedule is replayed from the same seeded RNG stream in
every process with each node submitting only its own share.

Robustness plumbing (all dormant in a clean run):

* **Reconnect** — a lost gossip link is redialed by the pair's dialer
  (the higher index) with capped exponential backoff and a fresh
  ``peer-hello`` handshake, until the process shuts down.
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
import json
import resource
import sys
import time
from pathlib import Path

# numpy >= 2 loads numpy.random on first attribute access (~20 ms):
# name it here so that cost is start-up, not the first round.
from numpy.random import default_rng

from repro.chaos.faults import FaultInjector
from repro.chaos.scenario import FAULT_RNG_TAG, FaultAction
from repro.common.encoding import decode, encode
from repro.conformance.monitor import ConformanceMonitor
from repro.ledger.transaction import make_transaction
from repro.live.clock import LiveClock
from repro.live.control import ControlError, MessageStream, send_message
from repro.live.transport import LiveTransport, PeerLink
from repro.network.wire import FrameDecoder, encode_block, encode_frame
from repro.node.agent import IDLE, Node
from repro.node.catchup import ChainSync
from repro.node.deployment import (
    SimulationConfig,
    build_node,
    derive_genesis,
    harvest,
    make_backend,
    node_counters,
    payment_plan,
)
from repro.node.registry import BlockRegistry
from repro.obs.bus import TraceBus
from repro.obs.sink import JsonlTraceSink
from repro.sortition.selection import SELECTION_STATS

#: Wall time at which the imports above finished (start-up report).
_IMPORTED_AT = time.time()

#: Reconnect backoff: first retry delay and cap (seconds).
RECONNECT_BACKOFF_BASE = 0.25
RECONNECT_BACKOFF_CAP = 3.0


async def _read_hello(reader: asyncio.StreamReader
                      ) -> tuple[dict, list[bytes], bytes]:
    """First frame on a gossip connection identifies the peer.

    Returns ``(hello, extra_frames, residue)`` — any bytes the hello
    read pulled in beyond the hello itself are handed back so no early
    gossip frame is lost to the handshake.
    """
    decoder = FrameDecoder()
    while True:
        data = await reader.read(65536)
        if not data:
            raise ControlError("peer closed before hello")
        frames = decoder.feed(data)
        if frames:
            hello = decode(frames[0])
            if (not isinstance(hello, dict)
                    or hello.get("type") != "peer-hello"):
                raise ControlError(f"expected peer-hello, got {hello!r}")
            return hello, frames[1:], decoder.residue()


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
        substrate = self.config.substrate
        self.transport = LiveTransport(
            self.index, self.clock,
            drain_budget=substrate.drain_budget,
            rx_queue_limit=substrate.rx_queue_limit,
            seen_horizon_rounds=self.config.network.seen_horizon_rounds,
            incarnation=self.incarnation, obs=self.bus)
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

    async def _on_peer_connect(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter) -> None:
        hello, extra, residue = await _read_hello(reader)
        peer = hello["index"]
        link = PeerLink(self.transport, peer, reader, writer)
        self.transport.add_link(link)
        link.start()
        for payload in extra:
            self.transport._on_payload(peer, payload)
        for payload in link.decoder.feed(residue):
            self.transport._on_payload(peer, payload)
        self._check_links()

    async def _listen(self) -> str | list:
        cfg, substrate = self.cfg, self.config.substrate
        if substrate.transport == "uds":
            path = str(Path(cfg["runtime_dir"])
                       / f"node-{self.index}.sock")
            # A respawn after SIGKILL finds its own stale socket file.
            Path(path).unlink(missing_ok=True)
            self._server = await asyncio.start_unix_server(
                self._on_peer_connect, path=path)
            return path
        port = cfg.get("rebind_port") or (
            (substrate.base_port + self.index) if substrate.base_port
            else 0)
        self._server = await asyncio.start_server(
            self._on_peer_connect, host=substrate.host, port=port)
        bound_port = self._server.sockets[0].getsockname()[1]
        return [substrate.host, bound_port]

    async def _dial_peer(self, peer: int, address) -> None:
        if self.config.substrate.transport == "uds":
            reader, writer = await asyncio.open_unix_connection(address)
        else:
            reader, writer = await asyncio.open_connection(
                address[0], address[1])
        writer.write(encode_frame(encode({"type": "peer-hello",
                                          "index": self.index})))
        await writer.drain()
        link = PeerLink(self.transport, peer, reader, writer)
        self.transport.add_link(link)
        link.start()
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
        backend, self.verification_cache = make_backend(config)
        self.genesis = derive_genesis(config, backend)
        # durable + line-buffered: a SIGKILL mid-run loses at most the
        # line being written, so the chaos coordinator can read a
        # victim's trace back after the kill.
        self.sink = JsonlTraceSink(self.cfg["trace"], buffer_lines=1,
                                   durable=True)
        self.bus.add_sink(self.sink)
        #: Online reference-machine checker (a live node always has a
        #: bus, and a traced run is a checked run).
        self.monitor = ConformanceMonitor(registry=self.bus.metrics)
        self.bus.add_sink(self.monitor)
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
                cache=self.verification_cache,
                # One stack per process: the process-wide tallies are its.
                sortition=SELECTION_STATS.as_dict(),
                agents=node_counters(self.chain_sync.node),
                conformance=self.monitor, gauges=gauges)

    def _startup_report(self, build_began: float) -> dict:
        """Where this process's start-up went (the ``ready`` message).

        ``import_s`` runs from the coordinator's spawn stamp (same host,
        same wall clock) to the end of this module's imports, so it
        includes interpreter boot; ``build_s`` is keys + genesis + the
        protocol stack; what is left of ``ready_s`` is the handshake —
        mostly waiting for the slowest peer to say hello.
        """
        now = time.time()
        spawned_at = self.cfg.get("spawned_at", _IMPORTED_AT)
        return {
            "import_s": round(_IMPORTED_AT - spawned_at, 4),
            "build_s": round(now - build_began, 4),
            "ready_s": round(now - spawned_at, 4),
            "modules_loaded": len(sys.modules),
            # Peak so far; Linux reports KiB.
            "rss_mb": round(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }

    def _submit_payments(self, node: Node, count: int) -> None:
        """Replay the cluster-wide schedule; submit only our share.

        Every process draws the identical RNG stream, so the schedule
        (sender k % n, seeded recipient draw, per-sender nonces) is the
        same everywhere — the live analogue of the sim harness's
        ``submit_payments``. A rejoined process resubmits its share:
        already-committed transactions die at assembly against state,
        uncommitted ones get a second chance to gossip.
        """
        keypairs = self.genesis.keypairs
        nonces: dict[int, int] = {}
        for sender_index, recipient_index in payment_plan(
                default_rng(self.config.seed), self.num_nodes, count):
            nonce = nonces.get(sender_index, 0)
            nonces[sender_index] = nonce + 1
            if sender_index != self.index:
                continue
            keypair = keypairs[sender_index]
            tx = make_transaction(
                node.backend, keypair.secret, keypair.public,
                keypairs[recipient_index].public, 1, nonce)
            node.submit_transaction(tx)

    # -- main -----------------------------------------------------------

    async def run(self) -> None:
        cfg = self.cfg
        if cfg.get("exit_at_start"):
            # Test hook (fail-fast orchestration): die before hello.
            print(f"node {self.index}: exit_at_start requested",
                  file=sys.stderr, flush=True)
            raise SystemExit(17)
        timeout = self.config.substrate.connect_timeout
        address = await self._listen()
        if self.config.substrate.transport == "uds":
            reader, writer = await asyncio.open_unix_connection(
                cfg["control"])
        else:
            reader, writer = await asyncio.open_connection(
                cfg["control"][0], cfg["control"][1])
        control = MessageStream(reader)
        await send_message(writer, {"type": "hello", "index": self.index,
                                    "address": address})
        peers = await control.expect("peers", timeout=timeout)
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
                                   timeout=timeout)
        build_began = time.time()
        node = self._build_node()
        await send_message(writer, {
            "type": "ready", "index": self.index,
            "startup": self._startup_report(build_began)})
        start = await control.expect("start", timeout=timeout)
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
            # Seed only the local conformance machine with the crash it
            # cannot have witnessed (the coordinator synthesizes the
            # real node_crashed into the merged trace at kill time);
            # without this, node_restarted from IDLE would be flagged.
            self.monitor.write_event({
                "kind": "node_crashed", "node": self.index,
                "round": node.chain.next_round, "t": self.clock.now})
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
        blocks = [encode_block(chain.block_at(r))
                  for r in range(1, chain.height + 1)]
        verdict = self.monitor.verdict()
        snapshot = self.bus.snapshot()
        await send_message(writer, {
            "type": "result",
            "index": self.index,
            "incarnation": self.incarnation,
            "height": chain.height,
            "tip": chain.tip_hash,
            "blocks": blocks,
            "halted": node.halted,
            "trace": cfg["trace"],
            "conformance_ok": verdict.ok,
            "dropped_events": (self.bus.dropped_events
                               + self.sink.dropped),
            "metrics": {**snapshot["counters"], **snapshot["gauges"]},
        })
        # Linger: keep the clock pumping — and with it gossip dispatch
        # and chain serving — until the coordinator's ``stop`` releases
        # us. Without this, fast finishers exit the instant they reach
        # target height and a chaos victim rejoining later finds nobody
        # left to answer its catch-up requests.
        release = asyncio.Event()

        async def await_release() -> None:
            try:
                while True:
                    message = await control.next()
                    if message.get("type") == "stop":
                        break
            except ControlError:
                pass  # coordinator gone == released
            release.set()
            self.clock.kick()

        release_task = asyncio.create_task(await_release())
        try:
            await self.clock.run_async(stop_when=release.is_set,
                                       deadline=deadline + 60.0)
        except TimeoutError:
            pass  # orphaned well past the run budget: just exit
        release_task.cancel()
        self.bus.close()
        for task in list(self._redial_tasks.values()):
            task.cancel()
        await self.transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


def main(argv: list[str] | None = None) -> int:
    argv = argv if argv is not None else sys.argv[1:]
    if len(argv) != 1:
        print("usage: python -m repro.live.node_main <config.json>",
              file=sys.stderr)
        return 2
    cfg = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    asyncio.run(NodeProcess(cfg).run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
