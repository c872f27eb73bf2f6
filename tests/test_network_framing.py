"""Stream framing tests: frames, envelopes, real sockets, ingress fuzzing.

The live substrate moves :mod:`repro.network.wire` messages over stream
sockets, which give back bytes in arbitrary chunks — a frame may arrive
split across many reads or coalesced with its neighbours. These tests
pin the two guarantees the transport relies on:

* ``FrameDecoder`` recovers exactly the encoded frame sequence under
  any byte chunking (Hypothesis drives the chunk boundaries), and
* every wire message kind survives a real socketpair round trip through
  ``encode_envelope``/``decode_envelope_body`` inside frames, and
* the live ingress path is *total*: whatever bytes sit inside a
  well-formed frame, ``LiveTransport._on_payload`` + ``_drain`` in front
  of a real ``AdmissionControl`` count them as garbage, reject them or
  deliver them — they never raise into the clock loop.
"""

from __future__ import annotations

import functools
import socket
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baplus.certificate import Certificate
from repro.baplus.messages import make_vote
from repro.common.encoding import decode, encode
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.ledger.block import Block, empty_block
from repro.ledger.transaction import make_transaction
from repro.live.transport import PeerLink
from repro.network.message import (
    PRIORITY_MESSAGE_BYTES,
    VOTE_MESSAGE_BYTES,
    Envelope,
)
from repro.network import framing
from repro.network.framing import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameSizeError,
    WireError,
    encode_frame,
)
from repro.network.wire import (
    ENVELOPE_HEADER,
    ENVELOPE_LAYOUTS,
    ORIGIN_IS_SIGNER,
    TX,
    TX_ANNOUNCE_CODE,
    TX_DIGEST_SIZE,
    decode_envelope_body,
    decode_envelope_header,
    encode_envelope,
    encode_tx_announcement,
    envelope_body,
    tx_digest,
)
from repro.node.catchup import ChainAnnouncement, ChainRequest
from repro.node.proposal import PriorityMessage
from repro.obs import TraceBus
from tests.fixtures import live_transport, run_sim, signed_vote


@pytest.fixture
def backend():
    return FastBackend()


def _sample_envelopes(backend) -> list[Envelope]:
    """One envelope of every wire kind (tx, vote, priority, block, cert)."""
    alice = backend.keypair(H(b"f-alice"))
    bob = backend.keypair(H(b"f-bob"))
    tx = make_transaction(backend, alice.secret, alice.public,
                          bob.public, 5, 0, note=b"framed")
    vote = make_vote(backend, alice.secret, alice.public, 3, "1",
                     H(b"sort"), b"proof" * 10, H(b"prev"), H(b"value"))
    priority = PriorityMessage(
        proposer=alice.public, round_number=3, vrf_hash=H(b"vrf"),
        vrf_proof=b"proof" * 10, sub_users=2, priority=H(b"prio"))
    block = empty_block(4, H(b"prev"))
    cert = Certificate(round_number=3, step="1", value=H(b"value"),
                       votes=(vote,))
    return [
        Envelope(origin=alice.public, kind="tx", payload=tx, size=250,
                 msg_id=(7 << 40) | 1),
        Envelope(origin=alice.public, kind="vote", payload=vote,
                 size=VOTE_MESSAGE_BYTES, msg_id=(7 << 40) | 2),
        Envelope(origin=alice.public, kind="priority", payload=priority,
                 size=PRIORITY_MESSAGE_BYTES, msg_id=(7 << 40) | 3),
        Envelope(origin=alice.public, kind="block", payload=block,
                 size=1000, msg_id=(7 << 40) | 4),
        Envelope(origin=alice.public, kind="cert", payload=cert,
                 size=len(cert.votes) * VOTE_MESSAGE_BYTES, msg_id=(7 << 40) | 5),
    ]


def _decode(data: bytes) -> Envelope:
    return decode_envelope_body(decode_envelope_header(data), data)


class TestFrameCodec:
    def test_round_trip(self):
        frame = encode_frame(b"hello")
        decoder = FrameDecoder()
        assert decoder.feed(frame) == [b"hello"]

    def test_header_is_big_endian_length(self):
        frame = encode_frame(b"abc")
        assert FRAME_HEADER.unpack_from(frame)[0] == 3
        assert frame[FRAME_HEADER.size:] == b"abc"

    def test_empty_payload_rejected(self):
        with pytest.raises(WireError):
            encode_frame(b"")

    def test_oversized_payload_rejected(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 9)
        with pytest.raises(WireError):
            encode_frame(b"x" * 10)

    def test_decoder_rejects_oversized_header(self):
        decoder = FrameDecoder()
        with pytest.raises(WireError):
            decoder.feed(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1) + b"x" * 17)

    def test_decoder_rejects_zero_length_frame(self):
        decoder = FrameDecoder()
        with pytest.raises(WireError):
            decoder.feed(FRAME_HEADER.pack(0))

    def test_default_cap_sized_for_full_blocks(self):
        assert MAX_FRAME_BYTES >= 1_000_000

    def test_partial_then_rest(self):
        frame = encode_frame(b"split-me")
        decoder = FrameDecoder()
        assert decoder.feed(frame[:3]) == []
        assert len(decoder.residue()) == 3
        assert decoder.residue() == frame[:3]
        assert decoder.feed(frame[3:]) == [b"split-me"]
        assert len(decoder.residue()) == 0

    def test_coalesced_frames(self):
        blob = encode_frame(b"one") + encode_frame(b"two") \
            + encode_frame(b"three")
        decoder = FrameDecoder()
        assert decoder.feed(blob) == [b"one", b"two", b"three"]
        assert decoder.frames_decoded == 3

    @settings(max_examples=200, deadline=None)
    @given(payloads=st.lists(st.binary(min_size=1, max_size=300),
                             min_size=1, max_size=10),
           chunk_seed=st.integers(min_value=1, max_value=2**30))
    def test_any_chunking_is_identity(self, payloads, chunk_seed):
        """decode(chunks(encode(frames))) == frames for any chunking."""
        blob = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        position, state = 0, chunk_seed
        while position < len(blob):
            # Cheap deterministic LCG: chunk sizes 1..7 drawn from the
            # Hypothesis-chosen seed, so shrinking stays meaningful.
            state = (state * 1103515245 + 12345) % (2**31)
            step = 1 + state % 7
            out.extend(decoder.feed(blob[position:position + step]))
            position += step
        assert out == payloads
        assert len(decoder.residue()) == 0
        assert decoder.bytes_fed == len(blob)


class TestFrameRobustnessFuzz:
    """Adversarial streams: truncated, oversized, and byte-flipped.

    The live transport drops a connection on :class:`FrameSizeError`;
    these properties pin that a hostile or corrupted stream either
    produces that loud typed error or degrades to frames whose byte
    accounting still adds up — never a silent desync or an unbounded
    buffer.
    """

    @settings(max_examples=100, deadline=None)
    @given(payloads=st.lists(st.binary(min_size=1, max_size=64),
                             min_size=1, max_size=5),
           cut=st.integers(min_value=0, max_value=2**30))
    def test_truncation_yields_only_complete_frames(self, payloads, cut):
        """A stream cut anywhere yields a prefix; the rest completes it."""
        stream = b"".join(encode_frame(p) for p in payloads)
        cut = cut % len(stream)
        decoder = FrameDecoder()
        head = decoder.feed(stream[:cut])
        assert head == payloads[:len(head)]
        assert len(decoder.residue()) <= FRAME_HEADER.size + 64
        # Handing the stream to a second decoder mid-frame (what the
        # peer-hello handshake does) loses nothing either.
        residue = decoder.residue()
        assert len(residue) == len(decoder.residue())
        heir = FrameDecoder()
        assert head + heir.feed(residue + stream[cut:]) == payloads
        assert len(heir.residue()) == 0
        assert head + decoder.feed(stream[cut:]) == payloads
        assert len(decoder.residue()) == 0

    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(min_value=MAX_FRAME_BYTES + 1,
                              max_value=2**32 - 1))
    def test_oversized_prefix_raises_typed_error(self, length):
        """Any over-cap length prefix fails fast with FrameSizeError."""
        decoder = FrameDecoder()
        with pytest.raises(FrameSizeError):
            decoder.feed(FRAME_HEADER.pack(length))
        assert decoder.frames_decoded == 0

    @settings(max_examples=200, deadline=None)
    @given(payloads=st.lists(st.binary(min_size=1, max_size=64),
                             min_size=1, max_size=4),
           flip=st.integers(min_value=0, max_value=2**30),
           bit=st.integers(min_value=0, max_value=7))
    def test_byte_flip_is_loud_or_conservative(self, payloads, flip, bit):
        """One flipped bit anywhere: loud typed error, or sound framing.

        Flipping a length-prefix bit may forge a zero/huge length
        (FrameSizeError) or silently re-carve the stream into different
        frames; in the silent case every returned frame must still have
        been cut whole from the stream and the residue bounded by one
        incomplete frame.
        """
        stream = bytearray(b"".join(encode_frame(p) for p in payloads))
        stream[flip % len(stream)] ^= 1 << bit
        decoder = FrameDecoder()
        try:
            with mock.patch.object(framing, "MAX_FRAME_BYTES", 4096):
                frames = decoder.feed(bytes(stream))
        except FrameSizeError:
            return
        consumed = sum(FRAME_HEADER.size + len(f) for f in frames)
        assert consumed + len(decoder.residue()) == len(stream)
        assert len(decoder.residue()) <= FRAME_HEADER.size + 4096


class TestEnvelopeCodec:
    def test_every_kind_round_trips(self, backend):
        for envelope in _sample_envelopes(backend):
            decoded = _decode(encode_envelope(envelope))
            assert decoded.kind == envelope.kind
            assert decoded.origin == envelope.origin
            assert decoded.size == envelope.size
            assert decoded.msg_id == envelope.msg_id
            # Payload identity via the canonical re-encode.
            assert encode_envelope(decoded) == encode_envelope(envelope)

    def test_unknown_kind_rejected(self, backend):
        envelope = _sample_envelopes(backend)[0]
        import dataclasses
        with pytest.raises(WireError):
            encode_envelope(dataclasses.replace(envelope, kind="gossip?"))

    def test_garbage_rejected(self):
        with pytest.raises(WireError):
            _decode(b"not an envelope")


class TestTxAnnouncement:
    @settings(max_examples=200, deadline=None)
    @given(msg_id=st.integers(0, 2**64 - 1), size=st.integers(1, 2**32 - 1),
           chunk=st.integers(1, 30))
    def test_round_trip(self, msg_id, size, chunk):
        """The id and logical size of the payment it announces, and its
        digest, through a frame decoder in any chunking."""
        tx = _sample_envelopes(FastBackend())[0]
        assert tx.kind == "tx"
        envelope = Envelope(origin=tx.origin, kind="tx", payload=tx.payload,
                            size=size, msg_id=msg_id)
        digest = tx_digest(TX.pack(tx.payload))
        payload = encode_tx_announcement(envelope, digest)
        assert len(payload) == ENVELOPE_HEADER.size + TX_DIGEST_SIZE == 34
        frame = encode_frame(payload)
        decoder = FrameDecoder()
        decoded = [part for at in range(0, len(frame), chunk)
                   for part in decoder.feed(frame[at:at + chunk])]
        assert decoded == [payload]
        header = decode_envelope_header(payload)
        assert header == (msg_id, TX_ANNOUNCE_CODE, size, 0, TX_DIGEST_SIZE)
        assert envelope_body(header, payload) == digest
        with pytest.raises(WireError, match="no body to decode"):
            decode_envelope_body(header, payload)


class TestSocketRoundTrip:
    def test_every_kind_through_a_real_socket(self, backend):
        """All five kinds over one socketpair, read in tiny chunks."""
        envelopes = _sample_envelopes(backend)
        left, right = socket.socketpair()
        try:
            for envelope in envelopes:
                left.sendall(encode_frame(encode_envelope(envelope)))
            left.shutdown(socket.SHUT_WR)
            decoder = FrameDecoder()
            received = []
            while True:
                data = right.recv(13)  # deliberately tiny, odd reads
                if not data:
                    break
                received.extend(_decode(payload)
                                for payload in decoder.feed(data))
        finally:
            left.close()
            right.close()
        assert [e.kind for e in received] == [e.kind for e in envelopes]
        assert [e.msg_id for e in received] == [e.msg_id for e in envelopes]
        assert [encode_envelope(e) for e in received] \
            == [encode_envelope(e) for e in envelopes]


@functools.cache
def _ingress_corpus() -> tuple:
    """A 6-user sim (for a real admission gate) + one frame per kind."""
    sim = run_sim(0, num_users=6, seed=11)
    backend, node = sim.backend, sim.nodes[0]
    alice, bob = sim.keypairs[1], sim.keypairs[2]
    tx = make_transaction(backend, alice.secret, alice.public, bob.public,
                          5, 0, note=b"fuzzed")
    vote = signed_vote(sim, 1, 1, "1")
    priority = PriorityMessage(
        proposer=alice.public, round_number=1, vrf_hash=H(b"vrf"),
        vrf_proof=b"proof" * 16, sub_users=2, priority=H(b"prio"))
    block = Block(round_number=1, prev_hash=node.chain.tip_hash,
                  timestamp=1.5, seed=H(b"seed"), seed_proof=b"sp" * 40,
                  proposer=alice.public, proposer_vrf_hash=H(b"vrf"),
                  proposer_vrf_proof=b"vp" * 40,
                  proposer_priority=H(b"prio"), transactions=(tx,))
    cert = Certificate(round_number=1, step="1", value=block.block_hash,
                       votes=(vote,))
    payloads = {
        "tx": tx, "vote": vote, "priority": priority, "block": block,
        "cert": cert, "chainreq": ChainRequest(height=0),
        "chain": ChainAnnouncement(blocks=(block, empty_block(2, H(b"x"))),
                                   certificates={1: cert}),
    }
    assert sorted(payloads) == sorted(ENVELOPE_LAYOUTS)
    frames = [encode_envelope(Envelope(
        origin=alice.public, kind=kind, payload=payload, size=250,
        msg_id=(1 << 40) | number))
        for number, (kind, payload) in enumerate(sorted(payloads.items()))]
    return sim, frames


class TestLiveIngressFuzz:
    """Hostile bytes in well-formed frames never raise past ingress.

    Every payload ends in exactly one bucket: ``garbage_frames``,
    ``gossip.ingress_rejected`` (the real admission gate said no),
    ``gossip.dup_dropped``, delivered past the gate, or — a well-formed
    ``tx`` announcement — noted in the link's tables and no further.
    CI reruns this class with ``--hypothesis-seed=random``.
    """

    def _push(self, payload: bytes) -> str:
        sim, _ = _ingress_corpus()
        bus = TraceBus()
        transport = live_transport(obs=bus)
        link = PeerLink(transport, 1)
        delivered = []
        admit = sim.nodes[0].admission.admit

        def on_receive(envelope, from_index):
            if not admit(envelope, from_index):
                return None
            delivered.append(envelope)
            return False
        transport.on_receive = on_receive
        transport._on_payload(1, payload, link)
        transport._drain()
        counters = bus.metrics.snapshot()["counters"]
        outcome = {
            "garbage": transport.garbage_frames,
            "rejected": counters.get("gossip.ingress_rejected", 0),
            "duplicate": counters.get("gossip.dup_dropped", 0),
            "delivered": len(delivered),
            # Read as a payment's id, with no body behind it.
            "announced": link.heard_txs._count - len(link.read_txs)}
        assert sum(outcome.values()) == 1, outcome
        return max(outcome, key=outcome.get)

    @settings(max_examples=300, deadline=None)
    @given(payload=st.binary(max_size=512))
    def test_arbitrary_bytes_never_raise(self, payload):
        self._push(payload)

    @settings(max_examples=300, deadline=None)
    @given(payload=st.binary(max_size=256), msg_id=st.integers(0, 2**64 - 1),
           code=st.integers(0, 255), size=st.integers(0, 2**32 - 1),
           origin=st.binary(max_size=40))
    def test_arbitrary_body_behind_a_valid_header_never_raises(
            self, payload, msg_id, code, size, origin):
        self._push(ENVELOPE_HEADER.pack(msg_id, code, size, len(origin),
                                        len(payload)) + origin + payload)

    @settings(max_examples=300, deadline=None)
    @given(payload=st.binary(max_size=256), msg_id=st.integers(0, 2**64 - 1),
           code=st.integers(0, 255), size=st.integers(0, 2**32 - 1))
    def test_arbitrary_body_whose_origin_is_its_signer_never_raises(
            self, payload, msg_id, code, size):
        self._push(ENVELOPE_HEADER.pack(msg_id, code, size, ORIGIN_IS_SIGNER,
                                        len(payload)) + payload)

    @settings(max_examples=600, deadline=None)
    @given(which=st.integers(0, 6), at=st.integers(0, 2**30),
           byte=st.integers(0, 255))
    # A vote whose voter key nobody holds: ``FastBackend`` used to raise
    # an untyped ``CryptoError`` through admission into the clock loop.
    @example(which=6, at=86, byte=150)
    def test_single_byte_mutations_of_valid_frames_never_raise(
            self, which, at, byte):
        frame = bytearray(_ingress_corpus()[1][which])
        frame[at % len(frame)] = byte
        self._push(bytes(frame))

    @settings(max_examples=200, deadline=None)
    @given(msg_id=st.integers(0, 2**64 - 1), size=st.integers(1, 2**32 - 1),
           origin=st.binary(max_size=40),
           body=st.binary(min_size=TX_DIGEST_SIZE, max_size=TX_DIGEST_SIZE)
           | st.binary(max_size=64))
    def test_an_announcement_carrying_an_origin_or_more_than_a_digest_is_garbage(
            self, msg_id, size, origin, body):
        """An announcement's body is a digest and nothing else."""
        payload = ENVELOPE_HEADER.pack(msg_id, TX_ANNOUNCE_CODE, size,
                                       len(origin), len(body)) + origin + body
        if origin or len(body) != TX_DIGEST_SIZE:
            with pytest.raises(WireError, match="no origin and a 16-byte"):
                decode_envelope_header(payload)
            assert self._push(payload) == "garbage"
        else:
            assert self._push(payload) == "announced"

    def test_every_clean_frame_gets_past_the_codec(self):
        for frame in _ingress_corpus()[1]:
            assert self._push(frame) != "garbage"

    def test_zero_size_envelope_is_garbage_not_a_crash(self):
        """At the parent ``Envelope(size=0)`` raised ``ValueError`` out
        of ``_deliver`` into the clock loop and killed the process."""
        origin, body = b"o" * 32, b"irrelevant"
        assert self._push(ENVELOPE_HEADER.pack(9, 2, 0, len(origin),
                                               len(body))
                          + origin + body) == "garbage"
        # The same attack in the parent's list format.
        assert self._push(encode(["wenv", 9, origin, "vote", body, 0])) \
            == "garbage"

    def test_text_where_the_round_number_sits_cannot_confuse_admission(self):
        """At the parent a vote body with ``round_number="x"`` decoded
        and ``vote.round_number < horizon`` raised ``TypeError`` inside
        the drain. A typed layout yields an int there or nothing."""
        vote_frame = bytearray(_ingress_corpus()[1][
            sorted(ENVELOPE_LAYOUTS).index("vote")])
        header = decode_envelope_header(bytes(vote_frame))
        # The body's head: the voter's length, then the round number.
        round_at = len(vote_frame) - header[4] + 4
        vote_frame[round_at:round_at + 8] = b"xxxxxxxx"
        assert self._push(bytes(vote_frame)) == "rejected"
        hostile = encode(["wvote", b"v", "x", "y", 1, 2, 3, 4, 5])
        assert self._push(encode(["wenv", 9, b"o" * 32, "vote", hostile,
                                  250])) == "garbage"
        assert self._push(ENVELOPE_HEADER.pack(9, 2, 250, 32, len(hostile))
                          + b"o" * 32 + hostile) == "garbage"

    def test_a_spoofed_origin_travels_and_is_rejected_as_one(self):
        """An origin that is not the vote's voter is carried explicitly,
        so admission still sees the mismatch."""
        # Not the corpus's sim: its gate has quarantined peer 1 by now.
        sim = run_sim(0, num_users=6, seed=11)
        spoofed = sim.keypairs[2].public
        frame = encode_envelope(Envelope(
            origin=spoofed, kind="vote", payload=signed_vote(sim, 1, 1, "1"),
            size=250, msg_id=(2 << 40) | 1))
        header = decode_envelope_header(frame)
        assert header[3] == len(spoofed)
        assert decode_envelope_body(header, frame).origin == spoofed
        admission = sim.nodes[0].admission
        transport = live_transport()
        transport.on_receive = lambda envelope, peer: (
            False if admission.admit(envelope, peer) else None)
        transport._on_payload(1, frame)
        transport._drain()
        assert admission.rejected == {"origin_mismatch": 1}

    def test_deeply_nested_frame_is_garbage_not_a_recursion_error(self):
        """~45 KB of nested list tags took the reader task down with an
        untyped ``RecursionError`` at the parent."""
        nested = (b"L" + (1).to_bytes(8, "big")) * 5000 + b"N"
        assert self._push(nested) == "garbage"
        assert self._push(ENVELOPE_HEADER.pack(9, 6, 250, 0, len(nested))
                          + nested) == "garbage"
        with pytest.raises(ValueError, match="nested too deeply"):
            decode(nested)
