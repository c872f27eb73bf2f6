"""Stream framing tests: frames, envelopes, real sockets, chunk fuzzing.

The live substrate moves :mod:`repro.network.wire` messages over stream
sockets, which give back bytes in arbitrary chunks — a frame may arrive
split across many reads or coalesced with its neighbours. These tests
pin the two guarantees the transport relies on:

* ``FrameDecoder`` recovers exactly the encoded frame sequence under
  any byte chunking (Hypothesis drives the chunk boundaries), and
* every wire message kind survives a real socketpair round trip through
  ``encode_envelope``/``decode_envelope`` inside frames.
"""

from __future__ import annotations

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baplus.certificate import Certificate
from repro.baplus.messages import make_vote
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.ledger.block import empty_block
from repro.ledger.transaction import make_transaction
from repro.network.message import (
    PRIORITY_MESSAGE_BYTES,
    VOTE_MESSAGE_BYTES,
    Envelope,
)
from repro.network.wire import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    FrameDecoder,
    FrameSizeError,
    WireError,
    decode_envelope,
    encode_envelope,
    encode_frame,
)
from repro.node.proposal import PriorityMessage


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
                 size=cert.size, msg_id=(7 << 40) | 5),
    ]


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

    def test_oversized_payload_rejected(self):
        with pytest.raises(WireError):
            encode_frame(b"x" * 10, max_bytes=9)

    def test_decoder_rejects_oversized_header(self):
        decoder = FrameDecoder(max_bytes=16)
        with pytest.raises(WireError):
            decoder.feed(FRAME_HEADER.pack(17) + b"x" * 17)

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
        assert decoder.buffered == 3
        assert decoder.residue() == frame[:3]
        assert decoder.feed(frame[3:]) == [b"split-me"]
        assert decoder.buffered == 0

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
        assert decoder.buffered == 0
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
        assert decoder.buffered <= FRAME_HEADER.size + 64
        # Handing the stream to a second decoder mid-frame (what the
        # peer-hello handshake does) loses nothing either.
        residue = decoder.residue()
        assert len(residue) == decoder.buffered
        heir = FrameDecoder()
        assert head + heir.feed(residue + stream[cut:]) == payloads
        assert heir.buffered == 0
        assert head + decoder.feed(stream[cut:]) == payloads
        assert decoder.buffered == 0

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
        decoder = FrameDecoder(max_bytes=4096)
        try:
            frames = decoder.feed(bytes(stream))
        except FrameSizeError:
            return
        consumed = sum(FRAME_HEADER.size + len(f) for f in frames)
        assert consumed + decoder.buffered == len(stream)
        assert decoder.buffered <= FRAME_HEADER.size + decoder.max_bytes


class TestEnvelopeCodec:
    def test_every_kind_round_trips(self, backend):
        for envelope in _sample_envelopes(backend):
            decoded = decode_envelope(encode_envelope(envelope))
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
            decode_envelope(b"not an envelope")


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
                received.extend(decode_envelope(payload)
                                for payload in decoder.feed(data))
        finally:
            left.close()
            right.close()
        assert [e.kind for e in received] == [e.kind for e in envelopes]
        assert [e.msg_id for e in received] == [e.msg_id for e in envelopes]
        assert [encode_envelope(e) for e in received] \
            == [encode_envelope(e) for e in envelopes]
