"""One relay contract, run against both byte-movers.

Everything a node *decides* about a gossiped message lives in
:class:`repro.network.gossip.RelayCore`; the sim ``NetworkInterface``
and the live ``LiveTransport`` inherit it and add only how bytes
travel. Each case below runs on a rig of either kind — node 0 with
neighbours 1, 2, 3 — that feeds copies in the way its substrate does
(a landed transmission; a frame from a socket reader plus a drain) and
taps what node 0 put on each link (the fabric's ``drop_filter`` hook;
the frames on socket-less links). The last case runs one script on both
and compares the ``gossip.*`` counters they emit, name by name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.errors import NetworkError
from repro.network import gossip
from repro.network.gossip import SEEN_HORIZON_ROUNDS, GossipNetwork, RelayCore
from repro.network.latency import UniformLatencyModel
from repro.network.framing import FrameDecoder
from repro.network.wire import decode_envelope_header, encode_envelope
from repro.obs import TraceBus
from repro.sim.loop import Environment
from tests.fixtures import live_transport
from tests.test_substrate import _envelope, _FakeLink

PEERS = (1, 2, 3)


class _Rig:
    """Node 0 under test: what it was handed up, what it put on links."""

    node: RelayCore

    def __init__(self) -> None:
        self.bus = TraceBus()
        #: msg_ids handed up to the protocol layer, in order.
        self.accepted: list[int] = []
        #: Peers whose copies the recording hook rejects.
        self.reject_from: set[int] = set()
        #: What the recording hook answers to a copy it keeps.
        self.relay = True

    def _wire_in(self) -> None:
        def on_receive(envelope, from_index) -> bool | None:
            if from_index in self.reject_from:
                return None
            self.accepted.append(envelope.msg_id)
            return self.relay
        self.node.on_receive = on_receive

    def held(self) -> int:
        node = self.node
        return len(node._seen) + sum(map(len, node._seen_before))

    def counters(self) -> dict:
        counters = self.bus.metrics.snapshot()["counters"]
        return {name: value for name, value in counters.items()
                if name.startswith("gossip.")}


class _SimRig(_Rig):
    def __init__(self) -> None:
        super().__init__()
        self.env = Environment()
        net = GossipNetwork(self.env, 1 + len(PEERS),
                            np.random.default_rng(0),
                            UniformLatencyModel(0.01),
                            peers_per_node=len(PEERS), bandwidth_bps=None,
                            obs=self.bus)
        self.node = net.interfaces[0]
        assert self.node.neighbors == list(PEERS)
        self._wire: dict[int, list[int]] = {peer: [] for peer in PEERS}
        # The peers only terminate links: silent, so the shared registry
        # counts node 0 alone; the wire tap sees every copy it sends.
        for peer in PEERS:
            net.interfaces[peer].disconnected = True
        net.drop_filter = lambda src, dst, envelope: bool(
            src == 0 and self._wire[dst].append(envelope.msg_id))
        self._wire_in()

    def arrive(self, envelope, from_peer: int) -> None:
        self.node.receive(envelope, from_peer)

    def on_links(self) -> dict[int, list[int]]:
        self.env.run()
        return self._wire


class _LiveRig(_Rig):
    def __init__(self) -> None:
        super().__init__()
        self.node = live_transport(0, obs=self.bus)
        for peer in PEERS:
            self.node.add_link(_FakeLink(peer))
        self._wire_in()

    def arrive(self, envelope, from_peer: int) -> None:
        self.node._on_payload(from_peer, encode_envelope(envelope))
        self.node._drain()

    def on_links(self) -> dict[int, list[int]]:
        return {peer: [decode_envelope_header(payload)[0]
                       for frame in link.frames
                       for payload in FrameDecoder().feed(frame)]
                for peer, link in self.node.links.items()}


def _message(msg_id: int):
    return _envelope(b"o" * 32, msg_id)


@pytest.mark.parametrize("rig_class", [_SimRig, _LiveRig], ids=["sim", "live"])
class TestRelayContract:
    def test_duplicate_is_counted_and_not_handed_up(self, rig_class):
        rig = rig_class()
        rig.arrive(_message(7), 1)
        rig.arrive(_message(7), 2)
        assert rig.accepted == [7]
        assert rig.counters()["gossip.dup_dropped"] == 1

    def test_rejected_copy_does_not_poison_the_dedup_store(self, rig_class):
        rig = rig_class()
        rig.reject_from = {1}
        rig.arrive(_message(7), 1)
        assert rig.accepted == [] and not rig.node.holds(7)
        rig.arrive(_message(7), 2)  # a later clean copy is admitted
        assert rig.accepted == [7] and rig.node.holds(7)
        assert rig.counters()["gossip.ingress_rejected"] == 1
        assert "gossip.dup_dropped" not in rig.counters()

    def test_relay_goes_to_every_neighbour_but_the_deliverer(self, rig_class):
        rig = rig_class()
        rig.arrive(_message(7), 2)
        assert rig.on_links() == {1: [7], 2: [], 3: [7]}

    def test_relay_policy_false_holds_without_forwarding(self, rig_class):
        rig = rig_class()
        rig.relay = False
        rig.arrive(_message(7), 2)
        assert rig.accepted == [7] and rig.node.holds(7)
        assert rig.on_links() == {1: [], 2: [], 3: []}
        assert "gossip.relayed.priority" not in rig.counters()

    def test_disconnected_neither_sends_receives_nor_counts(self, rig_class):
        rig = rig_class()
        rig.arrive(_message(7), 1)
        assert rig.on_links() == {1: [], 2: [7], 3: [7]}
        before = rig.counters()
        rig.node.disconnected = True
        rig.node.broadcast(_message(8))
        rig.arrive(_message(9), 1)
        rig.arrive(_message(7), 2)  # held, but nobody is counting
        assert rig.accepted == [7]
        assert rig.on_links() == {1: [], 2: [7], 3: [7]}
        assert rig.counters() == before

    def test_id_is_held_for_the_horizon_after_receipt(self, rig_class,
                                                      monkeypatch):
        horizon = 3
        monkeypatch.setattr(gossip, "SEEN_HORIZON_ROUNDS", horizon)
        rig = rig_class()
        rig.node.end_round()  # receipt, not creation, starts the count
        rig.arrive(_message(7), 1)
        for _ in range(horizon):
            rig.node.end_round()
            rig.arrive(_message(7), 2)
            assert rig.accepted == [7]
        # One boundary past the horizon it is accepted once more (the
        # protocol layer's stale-round checks discard it), then held.
        rig.node.end_round()
        rig.arrive(_message(7), 2)
        rig.arrive(_message(7), 1)
        assert rig.accepted == [7, 7]

    def test_dedup_state_stays_bounded(self, rig_class):
        horizon, per_round = SEEN_HORIZON_ROUNDS, 40
        rig = rig_class()
        for boundary in range(50):
            for k in range(per_round):
                rig.arrive(_message(boundary * per_round + k), 1)
            rig.node.end_round()
            assert rig.held() <= (horizon + 1) * per_round
        assert len(rig.accepted) == 50 * per_round
        counters = rig.counters()
        assert counters["gossip.prune_passes"] == 50 - horizon
        assert counters["gossip.pruned_ids"] == (50 - horizon) * per_round

    def test_send_to_reaches_only_the_named_neighbours(self, rig_class):
        rig = rig_class()
        rig.node.send_to(_message(7), [1, 3])
        assert [len(ids) for ids in rig.on_links().values()] == [1, 0, 1]
        with pytest.raises(NetworkError, match="not a neighbor"):
            rig.node.send_to(_message(8), [1, 9])
        assert rig.node.messages_sent == 2


def _script(rig: _Rig) -> dict:
    """A little of everything; the ``gossip.*`` counters it leaves."""
    rig.node.broadcast(_message(1))
    rig.arrive(_message(2), 1)
    rig.arrive(_message(2), 3)
    rig.reject_from = {1}
    rig.arrive(_message(3), 1)
    rig.arrive(_message(3), 2)
    rig.relay = False
    rig.arrive(_message(4), 2)
    rig.node.send_to(_message(5), [2])
    for _ in range(4):
        rig.node.end_round()
    rig.on_links()
    return rig.counters()


def test_same_counter_names_and_values_from_both_byte_movers():
    sim, live = _script(_SimRig()), _script(_LiveRig())
    assert sim == live == {
        "gossip.sent.priority": 3 + 2 + 2 + 1,
        "gossip.sent_bytes.priority": 8 * 200,
        "gossip.recv.priority": 3,
        "gossip.recv_bytes.priority": 3 * 200,
        "gossip.relayed.priority": 2,
        "gossip.dup_dropped": 1,
        "gossip.ingress_rejected": 1,
        "gossip.prune_passes": 2,
        "gossip.pruned_ids": 5,
    }
