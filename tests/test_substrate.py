"""Substrate API tests: protocols, the live clock, the live transport.

``repro.substrate`` names the seam both runners satisfy; these tests
pin that both the sim objects (``Environment``, ``NetworkInterface``,
``GossipNetwork``) and the live objects (``LiveClock``,
``LiveTransport``) structurally conform, and unit-test the live pieces
that have no sim twin: wall-clock pacing, the kick, msg_id re-stamping,
the bounded drain, the dedup generations, the two fault hooks as a
socket-less transport realizes them, and the turn rule: one clock turn
fires every due entry, one socket write carries a link's turn.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque
from typing import Callable

import pytest

from repro.common.encoding import encode
from repro.experiments.harness import Simulation, SimulationConfig
from repro.node.config import SubstrateConfig
from repro.live.clock import LiveClock
from repro.live.cluster import LIVE_SMOKE_PARAMS, LiveCluster
from repro.live.node_main import NodeProcess
from repro.live.transport import MSG_ID_SEQ_BITS, LiveTransport, PeerLink
from repro.network.message import Envelope
from repro.network.framing import encode_frame
from repro.network.wire import ENVELOPE_HEADER, encode_envelope
from repro.substrate.api import Clock, Fabric, Transport

from tests.fixtures import live_transport


def _envelope(origin: bytes, msg_id: int) -> Envelope:
    return Envelope(origin=origin, kind="priority", payload=_PRIORITY,
                    size=200, msg_id=msg_id)


def _make_priority():
    from repro.crypto.backend import FastBackend
    from repro.crypto.hashing import H
    from repro.node.proposal import PriorityMessage
    kp = FastBackend().keypair(H(b"s-prop"))
    return PriorityMessage(proposer=kp.public, round_number=1,
                           vrf_hash=H(b"vrf"), vrf_proof=b"p" * 16,
                           sub_users=1, priority=H(b"prio"))


_PRIORITY = _make_priority()


class _FakeLink:
    """Just enough of PeerLink for transport unit tests."""

    def __init__(self, peer: int) -> None:
        self.peer = peer
        self.closed = False
        self.frames: list[bytes] = []
        self.read_txs: deque[bytes] = deque()
        self.read_ids: deque[set[int]] = deque([set()])

    def send(self, frame: bytes, tx: bytes | None = None) -> None:
        self.frames.append(frame)

    async def close(self) -> None:
        self.closed = True


class _RecordingSocket:
    """Just enough of an ``asyncio.Transport`` to count ``write`` calls."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []
        self.closing = False

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        self.closing = True


class TestProtocolConformance:
    def test_sim_objects_satisfy_the_protocols(self):
        sim = Simulation(SimulationConfig(num_users=6, seed=5))
        assert isinstance(sim.env, Clock)
        assert isinstance(sim.network.interfaces[0], Transport)
        assert isinstance(sim.network, Fabric)

    def test_live_objects_satisfy_the_protocols(self):
        clock = LiveClock()
        transport = live_transport(0, clock)
        assert isinstance(clock, Clock)
        assert isinstance(transport, Transport)
        assert isinstance(transport, Fabric)

    def test_a_transport_has_one_hook_and_hold(self):
        """The node assigns ``on_receive``, the gate calls ``hold``: an
        object missing either is no transport."""
        surface = {name: None for name in (
            "index", "neighbors", "disconnected", "bytes_sent",
            "messages_sent", "on_receive")}
        surface.update({name: lambda self, *args: None
                        for name in ("broadcast", "end_round", "hold")})
        assert isinstance(type("Whole", (), surface)(), Transport)
        for missing in ("on_receive", "hold"):
            short = {name: value for name, value in surface.items()
                     if name != missing}
            assert not isinstance(type("Short", (), short)(), Transport)


class TestLiveClock:
    def test_stop_when_is_required(self):
        async def run():
            await LiveClock().run_async()
        with pytest.raises(ValueError, match="stop_when"):
            asyncio.run(run())

    def test_timers_fire_in_order_and_now_advances(self):
        clock = LiveClock(tick=0.05)
        fired: list[tuple[str, float]] = []
        clock.schedule(0.03, lambda: fired.append(("b", clock.now)))
        clock.schedule(0.01, lambda: fired.append(("a", clock.now)))
        clock.schedule_now(lambda: fired.append(("i", clock.now)))
        asyncio.run(clock.run_async(stop_when=lambda: len(fired) == 3))
        assert [name for name, _ in fired] == ["i", "a", "b"]
        times = [t for _, t in fired]
        assert times == sorted(times)
        assert times[-1] >= 0.03  # wall clock actually elapsed

    def test_deadline_raises(self):
        clock = LiveClock(tick=0.01)
        async def run():
            await clock.run_async(stop_when=lambda: False, deadline=0.05)
        with pytest.raises(TimeoutError, match="deadline"):
            asyncio.run(run())

    def test_kick_interrupts_a_long_sleep(self):
        clock = LiveClock(tick=30.0)  # would sleep half a minute idle
        done = []

        async def run():
            task = asyncio.create_task(
                clock.run_async(stop_when=lambda: bool(done)))
            await asyncio.sleep(0.05)
            done.append(True)
            clock.kick()
            await asyncio.wait_for(task, timeout=5.0)

        started = time.monotonic()
        asyncio.run(run())
        assert time.monotonic() - started < 5.0

    def test_callback_failure_propagates(self):
        clock = LiveClock(tick=0.01)

        def boom():
            raise RuntimeError("kaboom")

        clock.schedule_now(boom)
        async def run():
            await clock.run_async(stop_when=lambda: False, deadline=1.0)
        with pytest.raises(RuntimeError, match="kaboom"):
            asyncio.run(run())


class TestTurnRule:
    """One clock turn fires every due entry, then yields once; a link
    hands the socket everything its turn queued in one write."""

    def test_a_turn_fires_due_entries_in_time_seq_order(self):
        clock = LiveClock(tick=0.01)
        fired: list[tuple[str, float]] = []

        def mark(name: str) -> Callable[[], None]:
            return lambda: fired.append((name, clock.now))

        def first() -> None:
            mark("a")()
            clock.schedule_now(mark("c"))    # an immediate of this turn
            clock.schedule(0.0, mark("d"))   # due now, behind "c"

        clock.schedule(0.0, first)
        clock.schedule_now(mark("b"))
        clock.schedule(0.05, mark("later"))

        async def run():
            # Queued on the loop before the turn: runs only once it yields.
            asyncio.get_running_loop().call_soon(mark("loop"))
            await clock.run_async(stop_when=lambda: len(fired) == 6,
                                  deadline=5.0)

        asyncio.run(run())
        assert [name for name, _ in fired] == ["a", "b", "c", "d", "loop",
                                               "later"]
        # One turn, one wall instant.
        assert len({now for _, now in fired[:5]}) == 1
        assert fired[5][1] >= 0.05

    def test_ten_sends_in_one_turn_are_one_socket_write(self):
        clock = LiveClock(tick=0.01)
        transport = live_transport(0, clock)
        sock = _RecordingSocket()
        frames = [encode_frame(bytes([k]) * (k + 1)) for k in range(10)]
        sent: list[bytes] = []

        async def run():
            link = PeerLink(transport, 1)
            link.connection_made(sock)
            for frame in frames:
                clock.schedule_now(
                    lambda frame=frame: (link.send(frame),
                                         sent.append(frame)))
            await clock.run_async(stop_when=lambda: len(sent) == 10)
            assert sock.writes == []  # nothing written mid-turn
            await asyncio.sleep(0)

        asyncio.run(run())
        assert sock.writes == [b"".join(frames)]
        assert transport.socket_writes == 1

    def test_kick_wakes_a_long_sleep_without_a_task_per_sleep(self):
        clock = LiveClock(tick=30.0)
        done: list[bool] = []

        async def run():
            task = asyncio.create_task(
                clock.run_async(stop_when=lambda: bool(done)))
            await asyncio.sleep(0.05)
            parked = asyncio.all_tasks()
            done.append(True)
            clock.kick()
            await asyncio.wait_for(task, timeout=5.0)
            return parked, task

        started = time.monotonic()
        parked, task = asyncio.run(run())
        assert time.monotonic() - started < 5.0
        assert len(parked) == 2 and task in parked  # the run and main

    def test_peer_closing_mid_turn_reaches_on_link_down_once(self):
        clock = LiveClock(tick=0.01)
        transport = live_transport(0, clock)
        lost: list[int] = []
        transport.on_link_down = lost.append

        async def run():
            ours, theirs = socket.socketpair()
            link = PeerLink(transport, 1)
            await asyncio.get_running_loop().create_connection(
                lambda: link, sock=ours)
            transport.add_link(link)

            def turn() -> None:
                link.send(encode_frame(b"x" * 64))
                theirs.close()
                link.send(encode_frame(b"y" * 64))

            clock.schedule_now(turn)
            await clock.run_async(stop_when=lambda: bool(lost),
                                  deadline=5.0)
            for _ in range(3):
                link.send(encode_frame(b"z"))  # dropped, never raises
                await asyncio.sleep(0.01)
            assert link.closed
            await transport.close()

        asyncio.run(run())
        assert lost == [1]

    def test_a_flush_onto_a_closing_transport_marks_the_link_down(self):
        clock = LiveClock(tick=0.01)
        transport = live_transport(0, clock)
        lost: list[int] = []
        transport.on_link_down = lost.append
        sock = _RecordingSocket()

        async def run():
            link = PeerLink(transport, 1)
            link.connection_made(sock)
            transport.add_link(link)
            link.send(encode_frame(b"a"))
            sock.closing = True
            await asyncio.sleep(0)
            link.send(encode_frame(b"b"))
            await asyncio.sleep(0)
            assert link.closed

        asyncio.run(run())
        assert lost == [1]
        assert sock.writes == []
        assert transport.socket_writes == 0


class TestPeerHandshake:
    """An accepted connection becomes a link at its ``peer-hello``."""

    @staticmethod
    def _process(tmp_path) -> NodeProcess:
        cluster = LiveCluster(SimulationConfig(
            num_users=3, params=LIVE_SMOKE_PARAMS,
            substrate=SubstrateConfig(kind="live")))
        cluster.runtime_dir = tmp_path
        return NodeProcess(cluster._node_config(0, control="unused"))

    @staticmethod
    async def _connect(process, *chunks: bytes) -> bytes:
        """Send ``chunks`` to the process's listener; what came back
        before it closed, or ``b"?"`` if it kept the connection."""
        path = await process._listen()
        reader, writer = await asyncio.open_unix_connection(path)
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0.05)
        try:
            answer = await asyncio.wait_for(reader.read(), timeout=0.2)
        except TimeoutError:
            answer = b"?"
        writer.close()
        await process.transport.close()
        process._server.close()
        await process._server.wait_closed()
        return answer

    def test_frames_behind_the_hello_reach_the_link(self, tmp_path):
        process = self._process(tmp_path)
        stream = encode_frame(encode({"type": "peer-hello", "index": 2}))
        stream += b"".join(
            encode_frame(encode_envelope(_envelope(b"o" * 32, msg_id=k)))
            for k in (1, 2))
        cut = len(stream) - 5  # the second gossip frame arrives split
        answer = asyncio.run(self._connect(process, stream[:cut],
                                           stream[cut:]))
        assert answer == b"?"
        assert list(process.transport.links) == [2]
        assert [peer for peer, _, _ in process.transport._rx] == [2, 2]

    def test_any_other_first_frame_drops_the_connection(self, tmp_path):
        process = self._process(tmp_path)
        answer = asyncio.run(self._connect(
            process, encode_frame(encode({"type": "hello", "index": 2}))))
        assert answer == b""
        assert process.transport.links == {}


class TestLiveTransport:
    def _transport(self, index=0, **kwargs) -> LiveTransport:
        transport = live_transport(index, **kwargs)
        for peer in (1, 2):
            if peer != index:
                transport.add_link(_FakeLink(peer))
        #: Envelopes the transport accepted (a recording hook that
        #: relays what it keeps, and rejects while ``rejecting``).
        self.received = []
        self.rejecting = False
        transport.on_receive = self._record
        return transport

    def _record(self, envelope, from_index) -> bool | None:
        if self.rejecting:
            return None
        self.received.append(envelope)
        return True

    def test_broadcast_restamps_msg_id_into_index_namespace(self):
        transport = self._transport(index=3)
        transport.add_link(_FakeLink(1))
        envelope = _envelope(b"o" * 32, msg_id=42)
        transport.broadcast(envelope)
        transport.broadcast(envelope)
        stamped = (3 << MSG_ID_SEQ_BITS)
        assert stamped in transport._seen
        assert (stamped | 1) in transport._seen
        assert 42 not in transport._seen

    def test_broadcast_reaches_every_link_and_counts(self):
        transport = self._transport()
        transport.broadcast(_envelope(b"o" * 32, msg_id=1))
        for link in transport.links.values():
            assert len(link.frames) == 1
        assert transport.messages_sent == 2
        assert transport.bytes_sent == 400  # logical size x 2 peers
        assert transport.wire_bytes_sent > 0

    def test_deliver_dedups_and_relays_to_other_peers_only(self):
        transport = self._transport()
        payload = encode_envelope(_envelope(b"o" * 32, msg_id=99))
        transport._on_payload(1, payload)
        transport._on_payload(1, payload)  # duplicate
        transport._drain()
        assert len(self.received) == 1
        assert transport.links[1].frames == []     # never back to sender
        assert len(transport.links[2].frames) == 1  # relayed once

    def test_ingress_rejection_does_not_poison_seen(self):
        transport = self._transport()
        payload = encode_envelope(_envelope(b"o" * 32, msg_id=7))
        self.rejecting = True
        transport._on_payload(1, payload)
        transport._drain()
        assert len(self.received) == 0
        self.rejecting = False  # later clean copy must be admitted
        transport._on_payload(2, payload)
        transport._drain()
        assert len(self.received) == 1

    def test_rx_queue_bounded_drop_oldest(self):
        transport = self._transport(rx_queue_limit=3)
        for msg_id in range(5):
            transport._on_payload(
                1, encode_envelope(_envelope(b"o" * 32, msg_id=msg_id)))
        assert transport.rx_dropped == 2
        transport._drain()
        # Oldest two (ids 0, 1) were shed before delivery.
        assert sorted(e.msg_id for e in self.received) == [2, 3, 4]

    def test_garbage_payload_counted_not_fatal(self):
        transport = self._transport()
        transport._on_payload(1, b"certainly not an envelope")
        assert transport.garbage_frames == 1
        transport._drain()
        assert len(self.received) == 0

    def test_duplicate_frame_dropped_before_payload_decode(self):
        from repro.obs import TraceBus

        class Watched(bytes):
            """Frame bytes that record every index/slice taken of them."""

            touched: list

            def __getitem__(self, key):
                self.touched.append(key)
                return super().__getitem__(key)

        def frame(msg_id: int, body: bytes) -> Watched:
            kind_code = 3  # priority
            watched = Watched(ENVELOPE_HEADER.pack(
                msg_id, kind_code, envelope.size, len(envelope.origin),
                len(body)) + envelope.origin + body)
            watched.touched = []
            return watched

        bus = TraceBus()
        transport = self._transport(obs=bus)
        envelope = _envelope(b"o" * 32, msg_id=5)
        transport._on_payload(1, encode_envelope(envelope))
        transport._drain()
        # Same header, body that no layout accepts: a held msg_id stops
        # at the seen-set after one unpack_from on the frame, so the
        # garbage body is never sliced out, let alone looked at, and the
        # copy takes no queue slot.
        held = frame(5, b"garbage")
        transport._on_payload(2, held)
        assert held.touched == []
        assert not transport._rx
        assert transport.garbage_frames == 0
        assert bus.metrics.snapshot()["counters"]["gossip.dup_dropped"] == 1
        # The same body under a fresh id is decoded at drain, and fails.
        fresh = frame(6, b"garbage")
        transport._on_payload(2, fresh)
        assert fresh.touched == []  # queued on its header alone
        transport._drain()
        assert fresh.touched
        assert transport.garbage_frames == 1
        assert len(self.received) == 1

    def test_send_counters_are_bumped_once_per_call(self):
        from repro.obs import TraceBus

        class CountingMetrics:
            def __init__(self, inner):
                self.inner, self.calls = inner, 0

            def inc(self, name, value=1):
                self.calls += 1
                self.inner.inc(name, value)

        bus = TraceBus()
        counting = CountingMetrics(bus.metrics)
        bus.metrics = counting  # the handle is fixed at construction
        transport = self._transport(obs=bus)
        transport.add_link(_FakeLink(3))
        transport.broadcast(_envelope(b"o" * 32, msg_id=1))
        assert counting.calls == 2  # not two per peer
        counters = counting.inner.snapshot()["counters"]
        assert counters["gossip.sent.priority"] == 3
        assert counters["gossip.sent_bytes.priority"] == 600
        assert transport.messages_sent == 3
        assert transport.bytes_sent == 600
        frame_bytes = len(transport.links[1].frames[0])
        assert transport.wire_bytes_sent == 3 * frame_bytes

    def test_two_copies_in_one_drain_deliver_once(self):
        transport = self._transport()
        payload = encode_envelope(_envelope(b"o" * 32, msg_id=8))
        transport._on_payload(1, payload)
        transport._on_payload(2, payload)  # not yet seen: both queue
        assert len(transport._rx) == 2
        transport._drain()
        assert len(self.received) == 1

    def test_drain_budget_reschedules_backlog(self):
        transport = self._transport(drain_budget=2)
        for msg_id in range(5):
            transport._on_payload(
                1, encode_envelope(_envelope(b"o" * 32, msg_id=msg_id)))
        transport._drain()
        assert len(self.received) == 2   # one budgeted pass
        assert transport._drain_scheduled  # backlog rescheduled itself
        transport._drain()
        transport._drain()
        assert len(self.received) == 5

    def test_link_lost_while_disconnected_still_reaches_the_owner(self):
        # ``disconnected`` is a dos window as often as a shutdown: the
        # owner must hear of the loss (and redial); close() is what
        # detaches it.
        transport = self._transport()
        lost: list[int] = []
        transport.on_link_down = lost.append
        transport.disconnected = True
        link = transport.links[1]
        link._down_notified = False
        transport._link_lost(link)
        transport._link_lost(link)  # once per link
        assert lost == [1]
        asyncio.run(transport.close())
        assert transport.on_link_down is None

    # -- dedup generations ----------------------------------------------

    def test_end_round_bounds_the_dedup_state(self):
        horizon, per_round = 2, 100
        transport = self._transport(seen_horizon_rounds=horizon)
        for boundary in range(50):
            for k in range(per_round):
                transport._on_payload(1, encode_envelope(_envelope(
                    b"o" * 32, msg_id=boundary * per_round + k)))
            transport._drain()
            transport._drain()  # second budgeted pass empties the queue
            transport.end_round()
        assert len(self.received) == 50 * per_round
        held = len(transport._seen) + sum(map(len, transport._seen_before))
        assert held <= (horizon + 1) * per_round

    def test_end_round_keeps_the_horizon_and_forgets_beyond_it(self):
        transport = self._transport()
        payload = encode_envelope(_envelope(b"o" * 32, msg_id=5))
        transport._on_payload(1, payload)
        transport._drain()
        transport.end_round()
        # The previous round's id still drops as a duplicate ...
        transport._on_payload(2, payload)
        assert not transport._rx
        transport.end_round()
        transport._on_payload(2, payload)
        assert not transport._rx
        # ... and one older than the horizon is accepted once more (the
        # sim's documented behaviour), then held again.
        transport.end_round()
        transport._on_payload(2, payload)
        transport._on_payload(1, payload)
        transport._drain()
        assert len(self.received) == 2

    # -- the two fault hooks --------------------------------------------

    def test_hooks_none_is_the_clean_path(self):
        transport = self._transport()
        assert transport.drop_filter is None
        assert transport.link_shaper is None
        transport.broadcast(_envelope(b"o" * 32, msg_id=1))
        assert [len(link.frames) for link in transport.links.values()] \
            == [1, 1]
        stats = transport.stats()
        assert stats["messages_sent"] == 2
        assert stats["fault_dropped_frames"] == 0
        assert stats["fault_delayed_frames"] == 0

    def test_link_shaper_empty_list_drops_and_counts(self):
        from repro.obs import TraceBus

        bus = TraceBus()
        transport = self._transport(obs=bus)
        asked = []

        def shaper(src, dst, envelope, base_delay):
            asked.append((src, dst, base_delay))
            return [] if dst == 1 else [base_delay]

        transport.link_shaper = shaper
        transport.broadcast(_envelope(b"o" * 32, msg_id=1))
        assert asked == [(0, 1, 0.0), (0, 2, 0.0)]
        assert transport.links[1].frames == []
        assert len(transport.links[2].frames) == 1
        assert transport.fault_dropped_frames == 1
        assert transport.messages_sent == 1  # a dropped copy is not sent
        counters = bus.metrics.snapshot()["counters"]
        assert counters["gossip.filtered"] == 1
        assert counters["gossip.sent.priority"] == 1

    def test_link_shaper_two_delays_send_twice_the_second_later(self):
        clock = LiveClock(tick=0.01)
        transport = live_transport(0, clock)
        link = _FakeLink(1)
        transport.add_link(link)
        transport.link_shaper = (
            lambda src, dst, envelope, base_delay: [0.0, 0.05])
        transport.broadcast(_envelope(b"o" * 32, msg_id=1))
        assert len(link.frames) == 1  # the late copy waits for the clock
        assert transport.fault_delayed_frames == 1
        assert transport.messages_sent == 2  # the sender paid for both
        asyncio.run(clock.run_async(
            stop_when=lambda: len(link.frames) == 2, deadline=5.0))
        assert clock.now >= 0.05
        assert link.frames[0] == link.frames[1]

    def test_a_late_copy_counts_its_bytes_only_if_its_link_takes_it(self):
        """``wire_bytes_sent`` is what the links accepted: a copy the
        shaper delays past its link's close is never written, so it is
        never counted."""
        transport = self._transport()
        transport.link_shaper = (
            lambda src, dst, envelope, base_delay: [0.05])
        transport.broadcast(_envelope(b"o" * 32, msg_id=1))
        assert transport.fault_delayed_frames == 2
        assert transport.wire_bytes_sent == 0  # nothing taken yet
        transport.links[1].closed = True
        transport.clock.run()
        assert transport.links[1].frames == []
        (frame,) = transport.links[2].frames
        assert transport.wire_bytes_sent == len(frame)

    def test_drop_filter_blocks_both_directions_of_a_cut(self):
        # Every process installs the same predicate and drops its *own*
        # outbound frames, so a cut is silent both ways.
        def cut(src, dst, envelope):
            return {src, dst} == {0, 1}

        ends = {index: live_transport(index) for index in (0, 1)}
        for index, transport in ends.items():
            for peer in {0, 1, 2} - {index}:
                transport.add_link(_FakeLink(peer))
            transport.drop_filter = cut
            transport.broadcast(_envelope(b"o" * 32, msg_id=1))
        assert ends[0].links[1].frames == []
        assert ends[1].links[0].frames == []
        assert len(ends[0].links[2].frames) == 1
        assert len(ends[1].links[2].frames) == 1
        assert [t.fault_dropped_frames for t in ends.values()] == [1, 1]

    def test_drop_filter_runs_before_the_shaper(self):
        transport = self._transport()
        transport.drop_filter = lambda src, dst, envelope: dst == 1
        shaped = []
        transport.link_shaper = (
            lambda src, dst, envelope, base_delay:
            shaped.append(dst) or [base_delay])
        transport.broadcast(_envelope(b"o" * 32, msg_id=1))
        assert shaped == [2]  # a filtered copy never reaches the shaper

    def test_injector_compiles_a_partition_onto_the_hooks(self):
        """The sim's injector, unchanged, on a socket-less transport."""
        from numpy.random import default_rng

        from repro.chaos import FaultAction, FaultInjector

        clock = LiveClock(tick=0.01)
        transport = live_transport(2, clock)
        for peer in (0, 1):
            transport.add_link(_FakeLink(peer))
        clock.now = 1.0  # a respawn: window one passed, two is under way
        FaultInjector(clock, transport, {}, [
            FaultAction(kind="loss", start=0.0, end=0.5, rate=1.0),
            FaultAction(kind="partition", start=0.5, end=1.05,
                        groups=((0, 2), (1,))),
        ], rng=default_rng(0)).install()

        # (time, seq): each marker fires after the window edge before it.
        marks: list[str] = []
        clock.schedule(0.0, lambda: marks.append("applied"))
        clock.schedule(0.08, lambda: marks.append("cleared"))

        async def run():
            for mark, msg_id in (("applied", 1), ("cleared", 2)):
                await clock.run_async(stop_when=lambda: mark in marks,
                                      deadline=5.0)
                transport.broadcast(_envelope(b"o" * 32, msg_id=msg_id))

        asyncio.run(run())
        # Clipped window: cut while it lasts, healed at its end; the
        # window that ended before ``now`` was never armed.
        assert len(transport.links[0].frames) == 2
        assert len(transport.links[1].frames) == 1
        assert transport.fault_dropped_frames == 1


class TestRelaySkip:
    """No copy goes back to a peer whose link carried the message here."""

    PEERS = (1, 2, 3, 4)

    def _transport(self, verdicts=None) -> LiveTransport:
        transport = live_transport(0)
        for peer in self.PEERS:
            transport.add_link(_FakeLink(peer))
        answers = iter(verdicts or [])
        transport.on_receive = lambda envelope, _: next(answers, True)
        return transport

    @staticmethod
    def _read(transport: LiveTransport, peer: int, payload: bytes) -> None:
        transport._on_payload(peer, payload, transport.links[peer])

    @staticmethod
    def _copies(transport: LiveTransport) -> list[int]:
        return [len(transport.links[peer].frames)
                for peer in TestRelaySkip.PEERS]

    def test_a_relay_leaves_out_every_link_that_read_the_message(self):
        transport = self._transport()
        payload = encode_envelope(_envelope(b"o" * 32, msg_id=99))
        self._read(transport, 1, payload)
        self._read(transport, 2, payload)  # a duplicate by drain time
        transport._drain()
        assert self._copies(transport) == [0, 0, 1, 1]
        # Peer 1 delivered it (never a target); peer 2's copy is skipped.
        assert transport.relay_skipped == 1
        assert transport.stats()["relay_skipped"] == 1
        assert transport.messages_sent == 2

    @pytest.mark.parametrize("replaced", [False, True])
    def test_a_replaced_link_starts_with_an_empty_window(self, replaced):
        # Peer 1's copy is rejected (its id stays unheld), peer 2's kept.
        transport = self._transport(verdicts=[None, True])
        payload = encode_envelope(_envelope(b"o" * 32, msg_id=99))
        self._read(transport, 1, payload)
        transport._drain()
        if replaced:  # e.g. peer 1 restarted and dialed back
            transport.add_link(_FakeLink(1))
        self._read(transport, 2, payload)
        transport._drain()
        assert self._copies(transport) == [int(replaced), 0, 1, 1]
        assert transport.relay_skipped == int(not replaced)

    def test_the_window_lasts_as_long_as_the_dedup_generations(self):
        """On a real link: a frame read off the socket is noted, and
        the note rolls away with the core's dedup generations."""
        transport = live_transport(0)
        sock = _RecordingSocket()
        envelope = _envelope(b"o" * 32, msg_id=99)

        async def run() -> list[int]:
            link = PeerLink(transport, 1)
            link.connection_made(sock)
            transport.add_link(link)
            link.data_received(encode_frame(encode_envelope(envelope)))
            writes = []
            for rounds in (transport.seen_horizon_rounds, 1):
                for _ in range(rounds):
                    transport.end_round()
                transport._send(envelope, [1])
                await asyncio.sleep(0)
                writes.append(len(sock.writes))
            return writes

        # Skipped while a kept generation read it, sent once it is gone.
        assert asyncio.run(run()) == [0, 1]
        assert transport.relay_skipped == 1
