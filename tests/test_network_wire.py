"""Tests for the wire layouts: round-trips, typed fields, receipts, sizes."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baplus.certificate import Certificate
from repro.baplus.messages import VoteMessage, make_vote
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.experiments.harness import Simulation, SimulationConfig
from repro.ledger.block import Block, empty_block
from repro.ledger.transaction import Transaction, make_transaction
from repro.network import wire
from repro.network.framing import WireError
from repro.network.message import (
    PRIORITY_MESSAGE_BYTES,
    VOTE_MESSAGE_BYTES,
    Envelope,
)
from repro.network.wire import (
    CERT,
    CHAIN,
    CHAIN_REQUEST,
    ENVELOPE_LAYOUTS,
    PRIORITY,
    TX,
    VOTE,
    Layout,
    decode_block,
    decode_envelope_body,
    decode_envelope_header,
    encode_block,
    encode_envelope,
)
from repro.node.catchup import ChainAnnouncement, ChainRequest
from repro.node.proposal import PriorityMessage


@pytest.fixture
def backend():
    return FastBackend()


@pytest.fixture
def sample_tx(backend):
    alice = backend.keypair(H(b"w-alice"))
    bob = backend.keypair(H(b"w-bob"))
    return make_transaction(backend, alice.secret, alice.public,
                            bob.public, 5, 0, note=b"memo")


@pytest.fixture
def sample_vote(backend):
    voter = backend.keypair(H(b"w-voter"))
    return make_vote(backend, voter.secret, voter.public, 3, "1",
                     H(b"sort"), b"proof" * 10, H(b"prev"), H(b"value"))


def _full_block(transactions=()) -> Block:
    return Block(round_number=1, prev_hash=H(b"prev"), timestamp=4.2,
                 seed=H(b"s"), seed_proof=b"sp", proposer=H(b"who"),
                 proposer_vrf_hash=H(b"v"), proposer_vrf_proof=b"vp",
                 proposer_priority=H(b"pri"),
                 transactions=tuple(transactions))


class TestRoundTrips:
    def test_transaction(self, sample_tx, backend):
        decoded = TX.unpack(TX.pack(sample_tx))
        assert decoded == sample_tx
        assert decoded.txid == sample_tx.txid
        decoded.verify_signature(backend)

    def test_vote(self, sample_vote, backend):
        decoded = VOTE.unpack(VOTE.pack(sample_vote))
        assert decoded == sample_vote
        assert decoded.signature == sample_vote.signature
        assert decoded.verify_signature(backend)

    def test_priority(self):
        message = PriorityMessage(proposer=H(b"p"), round_number=2,
                                  vrf_hash=H(b"v"), vrf_proof=b"pr" * 40,
                                  sub_users=3, priority=H(b"best"))
        assert PRIORITY.unpack(PRIORITY.pack(message)) == message

    def test_block_with_transactions(self, sample_tx):
        block = _full_block([sample_tx])
        decoded = decode_block(encode_block(block))
        assert decoded.block_hash == block.block_hash
        assert decoded.transactions == block.transactions

    def test_empty_block(self):
        block = empty_block(4, H(b"prev"))
        decoded = decode_block(encode_block(block))
        assert decoded.is_empty
        assert decoded == block
        assert decoded.block_hash == block.block_hash

    def test_certificate_and_chain_via_live_round(self):
        sim = Simulation(SimulationConfig(num_users=12, seed=71))
        sim.run_rounds(1)
        chain = sim.nodes[0].chain
        certificate = chain.certificate_at(1)
        decoded = CERT.unpack(CERT.pack(certificate))
        assert decoded.value == certificate.value
        assert decoded.votes == certificate.votes
        announcement = ChainAnnouncement(blocks=(chain.block_at(1),),
                                         certificates={1: certificate})
        assert CHAIN.unpack(CHAIN.pack(announcement)) == announcement

    def test_chain_request(self):
        request = ChainRequest(height=7)
        assert CHAIN_REQUEST.unpack(CHAIN_REQUEST.pack(request)) == request


# Field domains the backends produce: keys/hashes/proofs/signatures are
# byte strings of assorted lengths, counters fit 64 bits, steps are text.
_blobs = st.binary(max_size=96)
_u64 = st.integers(min_value=0, max_value=2**64 - 1)
_floats = st.floats(allow_nan=False)
_txs = st.builds(Transaction, _blobs, _blobs, _u64, _u64,
                 st.binary(max_size=400), _blobs)
_votes = st.builds(VoteMessage, _blobs, _u64, st.text(max_size=16), _blobs,
                   _blobs, _blobs, _blobs, _blobs)
_priorities = st.builds(PriorityMessage, _blobs, _u64, _blobs, _blobs, _u64,
                        _blobs)
_blocks = st.one_of(
    st.builds(empty_block, _u64, _blobs),
    st.builds(Block, _u64, _blobs, _floats, _blobs, _blobs, _blobs, _blobs,
              _blobs, _blobs, st.lists(_txs, max_size=4).map(tuple)))
_certs = st.builds(Certificate, _u64, st.text(max_size=16), _blobs,
                   st.lists(_votes, max_size=3).map(tuple))
_chains = st.builds(
    ChainAnnouncement, st.lists(_blocks, max_size=3).map(tuple),
    st.dictionaries(_u64, _certs, max_size=3))
_MESSAGES = {"tx": _txs, "vote": _votes, "priority": _priorities,
             "block": _blocks, "cert": _certs, "chain": _chains,
             "chainreq": st.builds(ChainRequest, _u64)}


#: The payload field naming a kind's signer, where it has one.
_SIGNER_FIELD = {"tx": "sender", "vote": "voter", "priority": "proposer",
                 "block": "proposer"}


def _bare(message):
    """A field-for-field copy that carries no receipts."""
    if isinstance(message, Block):
        return dataclasses.replace(message, transactions=tuple(
            dataclasses.replace(tx) for tx in message.transactions))
    if isinstance(message, ChainAnnouncement):
        return dataclasses.replace(
            message, blocks=tuple(_bare(b) for b in message.blocks))
    return dataclasses.replace(message)


class TestLayoutProperties:
    def test_every_envelope_kind_has_a_strategy(self):
        assert sorted(_MESSAGES) == sorted(ENVELOPE_LAYOUTS)

    @pytest.mark.parametrize("kind", sorted(_MESSAGES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), msg_id=_u64,
           size=st.integers(min_value=1, max_value=2**32 - 1),
           origin=st.binary(max_size=64), signed=st.booleans())
    def test_round_trip(self, kind, data, msg_id, size, origin, signed):
        message = data.draw(_MESSAGES[kind])
        signer = getattr(message, _SIGNER_FIELD.get(kind, ""), None)
        if signed and signer is not None:
            origin = signer
        layout = ENVELOPE_LAYOUTS[kind][1]
        raw = layout.pack(message)
        decoded = layout.unpack(raw)
        assert decoded == message
        if kind == "vote":  # signature is compare=False
            assert decoded.signature == message.signature
        # Same bytes from a copy that has nothing remembered.
        assert layout.pack(_bare(decoded)) == raw
        envelope = Envelope(origin=origin, kind=kind, payload=message,
                            size=size, msg_id=msg_id)
        data = encode_envelope(envelope)
        assert decode_envelope_body(decode_envelope_header(data),
                                    data) == envelope
        # The origin travels unless it is the payload's own signer.
        carried = 0 if origin == signer else len(origin)
        assert len(data) == wire.ENVELOPE_HEADER.size + carried + len(raw)

    @pytest.mark.parametrize("kind", sorted(_MESSAGES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), cut=st.integers(min_value=1, max_value=2**20),
           extra=st.binary(min_size=1, max_size=8))
    def test_truncated_or_padded_is_a_wire_error(self, kind, data, cut,
                                                  extra):
        layout = ENVELOPE_LAYOUTS[kind][1]
        raw = layout.pack(data.draw(_MESSAGES[kind]))
        with pytest.raises(WireError):
            layout.unpack(raw[:-(1 + cut % len(raw))])
        with pytest.raises(WireError):
            layout.unpack(raw + extra)


class TestOriginElision:
    """What the round trip cannot draw: the empty block by name, and
    the reserved origin length where it cannot stand for a signer."""

    def test_the_empty_block_carries_its_origin(self):
        block = empty_block(3, H(b"prev"))
        assert block.proposer is None
        envelope = Envelope(origin=H(b"relayer"), kind="block",
                            payload=block, size=250, msg_id=7)
        data = encode_envelope(envelope)
        header = decode_envelope_header(data)
        assert header[3] == 32
        assert decode_envelope_body(header, data) == envelope

    @staticmethod
    def _signalled(kind: str, body: bytes) -> bytes:
        return wire.ENVELOPE_HEADER.pack(
            7, ENVELOPE_LAYOUTS[kind][0], 250, wire.ORIGIN_IS_SIGNER,
            len(body)) + body

    @pytest.mark.parametrize("kind", ["cert", "chain", "chainreq"])
    def test_a_kind_without_a_signer_cannot_elide_its_origin(self, kind):
        message = {"cert": Certificate(1, "1", H(b"v"), ()),
                   "chain": ChainAnnouncement(blocks=(), certificates={}),
                   "chainreq": ChainRequest(height=4)}[kind]
        data = self._signalled(kind, ENVELOPE_LAYOUTS[kind][1].pack(message))
        with pytest.raises(WireError, match="no signer"):
            decode_envelope_header(data)

    def test_an_empty_block_cannot_elide_its_origin(self):
        data = self._signalled("block",
                               encode_block(empty_block(3, H(b"prev"))))
        with pytest.raises(WireError, match="empty block"):
            decode_envelope_body(decode_envelope_header(data), data)

    def test_an_origin_as_long_as_the_signal_cannot_be_encoded(
            self, sample_vote):
        origin = b"o" * wire.ORIGIN_IS_SIGNER
        envelope = Envelope(origin=origin, kind="vote", payload=sample_vote,
                            size=250, msg_id=7)
        with pytest.raises(WireError, match="signer"):
            encode_envelope(envelope)
        # One byte shorter still travels.
        shorter = dataclasses.replace(envelope, origin=origin[1:])
        data = encode_envelope(shorter)
        assert decode_envelope_body(decode_envelope_header(data),
                                    data) == shorter


class TestTypedFields:
    """No type confusion past the codec (either direction)."""

    @pytest.mark.parametrize("change", [
        {"round_number": "x"}, {"round_number": -1},
        {"round_number": 2**64}, {"round_number": 1.5},
        {"step": b"1"}, {"step": 1}, {"voter": "text"}, {"voter": 7},
        {"sorthash": None}, {"signature": 1},
    ])
    def test_a_value_a_field_cannot_carry_fails_at_encode(
            self, sample_vote, change):
        with pytest.raises(WireError):
            VOTE.pack(dataclasses.replace(sample_vote, **change))

    def test_block_fields(self, sample_tx):
        for change in ({"timestamp": "noon"}, {"seed": "text"},
                       {"transactions": (b"raw",)}, {"transactions": 3},
                       {"prev_hash": None}):
            with pytest.raises(WireError):
                encode_block(dataclasses.replace(_full_block([sample_tx]),
                                                 **change))

    def test_chain_request_height_is_unsigned(self):
        for height in (-1, "7", None, 2**64):
            with pytest.raises(WireError):
                CHAIN_REQUEST.pack(ChainRequest(height=height))

    def test_wrong_message_type_rejected_at_encode(self, sample_tx):
        with pytest.raises(WireError):
            VOTE.pack(sample_tx)

    def test_decoded_fields_have_their_declared_types(self, sample_vote):
        decoded = VOTE.unpack(VOTE.pack(sample_vote))
        for field in dataclasses.fields(decoded):
            expected = {"int": int, "str": str, "bytes": bytes}[field.type]
            assert type(getattr(decoded, field.name)) is expected

    def test_wrong_arity_body_rejected(self, sample_tx, sample_vote):
        with pytest.raises(WireError):
            VOTE.unpack(TX.pack(sample_tx))
        with pytest.raises(WireError):
            PRIORITY.unpack(VOTE.pack(sample_vote))

    def test_bad_utf8_step_rejected(self, sample_vote):
        raw = bytearray(VOTE.pack(dataclasses.replace(sample_vote,
                                                      step="é")))
        at = raw.index("é".encode())
        raw[at] = 0xFF
        with pytest.raises(WireError):
            VOTE.unpack(bytes(raw))

    def test_negative_optional_length_rejected(self):
        raw = bytearray(encode_block(empty_block(4, H(b"prev"))))
        assert raw.count(b"\xff\xff\xff\xff") == 6  # the six absent fields
        raw[raw.index(b"\xff\xff\xff\xff") + 3] = 0xFE  # -1 -> -2
        with pytest.raises(WireError):
            decode_block(bytes(raw))

    def test_garbage_rejected(self):
        with pytest.raises(WireError):
            decode_block(b"\xff\x00garbage")

    def test_huge_item_count_fails_fast(self):
        raw = bytearray(CERT.pack(Certificate(1, "1", b"v", ())))
        raw[-4:] = b"\xff\xff\xff\xff"  # claims 4 G votes, carries none
        with pytest.raises(WireError):
            CERT.unpack(bytes(raw))


class _CountingLayouts:
    """Counts every head pack/unpack any layout performs."""

    def __init__(self, monkeypatch):
        self.calls = 0
        for layout in vars(wire).values():
            if isinstance(layout, Layout):
                for name in ("_pack_head", "_unpack_head"):
                    monkeypatch.setattr(
                        layout, name, self._counted(getattr(layout, name)))

    def _counted(self, function):
        def counted(*args):
            self.calls += 1
            return function(*args)
        return counted


class TestReceipts:
    """Messages keep their bytes: instance-level, never inherited."""

    def test_decoded_block_reencodes_without_the_codec(self, sample_tx,
                                                       monkeypatch):
        received = encode_block(_bare(_full_block([sample_tx])))
        block = decode_block(received)
        counter = _CountingLayouts(monkeypatch)
        assert encode_block(block) is received
        envelope = Envelope(origin=b"o" * 32, kind="block", payload=block,
                            size=block.size, msg_id=1)
        assert encode_envelope(envelope).endswith(received)
        assert counter.calls == 0

    def test_encoded_once_then_kept(self, sample_tx, monkeypatch):
        block = _full_block([dataclasses.replace(sample_tx)])
        first = encode_block(block)
        counter = _CountingLayouts(monkeypatch)
        assert encode_block(block) is first
        assert TX.pack(block.transactions[0]) in first
        assert counter.calls == 0

    def test_block_built_from_received_transactions_is_a_join(
            self, sample_tx, monkeypatch):
        received = TX.unpack(TX.pack(dataclasses.replace(sample_tx)))
        block = _full_block([received])
        counter = _CountingLayouts(monkeypatch)
        raw = encode_block(block)
        assert counter.calls == 1  # the block's own head, no tx walked
        assert decode_block(raw) == block

    def test_nested_messages_of_a_kept_parent_stay_bare(self, sample_tx):
        block = decode_block(encode_block(_bare(_full_block([sample_tx]))))
        assert not hasattr(block.transactions[0], "_wire")
        announced = CHAIN.unpack(CHAIN.pack(ChainAnnouncement(
            blocks=(_bare(block),), certificates={})))
        assert encode_block(announced.blocks[0]) == encode_block(block)
        assert hasattr(announced.blocks[0], "_wire")

    def test_copies_start_bare(self, sample_tx):
        TX.pack(sample_tx)
        sample_tx.signing_payload()
        forged = Transaction(**{
            field.name: getattr(sample_tx, field.name)
            for field in dataclasses.fields(sample_tx)})
        for copy in (dataclasses.replace(sample_tx, amount=6),
                     dataclasses.replace(sample_tx), forged):
            assert not hasattr(copy, "_wire")
            assert not hasattr(copy, "_signing_payload")
        replaced = dataclasses.replace(sample_tx, amount=6)
        assert TX.unpack(TX.pack(replaced)).amount == 6
        assert replaced.signing_payload() != sample_tx.signing_payload()

    def test_signing_payload_computed_once(self, sample_tx, backend,
                                           monkeypatch):
        from repro.ledger import transaction as module

        tx = dataclasses.replace(sample_tx)
        txid, size = sample_tx.txid, sample_tx.size
        calls = []
        real = module.encode
        monkeypatch.setattr(
            module, "encode",
            lambda value: calls.append(value) or real(value))
        tx.verify_signature(backend)
        assert (tx.txid, tx.size) == (txid, size)
        tx.verify_signature(backend)
        assert len(calls) == 1


class TestSizeCalibration:
    """The gossip layer charges bandwidth via constants; they must stay
    within ~2x of real encoded sizes or the cost model drifts."""

    def test_vote_constant_calibrated(self, sample_vote):
        actual = len(VOTE.pack(sample_vote))
        assert VOTE_MESSAGE_BYTES / 2 <= actual <= VOTE_MESSAGE_BYTES * 2

    def test_priority_constant_calibrated(self):
        message = PriorityMessage(proposer=H(b"p"), round_number=2,
                                  vrf_hash=H(b"v"), vrf_proof=b"x" * 80,
                                  sub_users=3, priority=H(b"best"))
        actual = len(PRIORITY.pack(message))
        assert (PRIORITY_MESSAGE_BYTES / 2
                <= actual <= PRIORITY_MESSAGE_BYTES * 2)

    def test_block_size_tracks_payload(self, backend):
        alice = backend.keypair(H(b"cal-a"))
        bob = backend.keypair(H(b"cal-b"))
        txs = tuple(
            make_transaction(backend, alice.secret, alice.public,
                             bob.public, 1, n, note=b"\x00" * 100)
            for n in range(10)
        )
        block = _full_block(txs)
        # The accounting property `block.size` approximates the real
        # encoding within 25%.
        assert abs(len(encode_block(block)) - block.size) < 0.25 * block.size

    def test_a_vote_frame_is_mostly_fields(self, sample_vote):
        """The envelope + layout framing stays a small constant, and the
        voter's key, the envelope's origin, travels once."""
        fields = sum(len(getattr(sample_vote, f.name))
                     for f in dataclasses.fields(sample_vote)
                     if f.name != "round_number") + 8
        envelope = Envelope(origin=sample_vote.voter, kind="vote",
                            payload=sample_vote, size=VOTE_MESSAGE_BYTES,
                            msg_id=1)
        overhead = len(encode_envelope(envelope)) - fields
        assert overhead == wire.ENVELOPE_HEADER.size + 7 * 4
