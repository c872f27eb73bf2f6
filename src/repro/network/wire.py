"""Wire format: byte encodings for every protocol message.

The simulator moves Python objects and charges bandwidth using calibrated
size constants (matching the paper's reported ~200-byte priority messages
and ~250-byte votes). This module provides the real, deterministic byte
encodings a deployment would put on the wire — used for (a) size-constant
calibration tests, (b) persisting chains, (c) hashing/signing consistency
guarantees (everything routes through the canonical codec), and (d) the
live substrate (:mod:`repro.live`), whose node processes exchange these
bytes over real TCP/Unix-domain sockets.

Two layers live here:

* **Payload codecs** — ``encode_vote``/``decode_vote`` and friends, one
  pair per protocol message type, plus ``encode_envelope``/
  ``decode_envelope`` wrapping a payload with its gossip routing
  metadata (msg_id, origin, kind, logical size).
* **Framing** — :func:`encode_frame` and :class:`FrameDecoder`
  length-prefix payloads so they survive a TCP byte stream: reads may
  arrive split or coalesced arbitrarily, and the decoder reassembles
  exact payload boundaries. Oversized or garbage frames raise
  :class:`WireError` instead of silently desyncing the stream.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.baplus.certificate import Certificate
from repro.baplus.messages import VoteMessage
from repro.common.encoding import decode, encode
from repro.common.errors import ReproError
from repro.ledger.block import Block
from repro.ledger.transaction import Transaction
from repro.node.proposal import PriorityMessage


class WireError(ReproError):
    """A wire payload could not be decoded."""


class FrameSizeError(WireError):
    """A frame length prefix is zero or beyond the size cap.

    A stream that produced one is desynced or hostile: there is no
    recoverable frame boundary, so the connection must be dropped. The
    dedicated type lets transports distinguish "drop this connection"
    from ordinary payload-decode garbage inside a well-formed frame.
    """


def _expect(data: Any, tag: str) -> list:
    if not isinstance(data, list) or not data or data[0] != tag:
        raise WireError(f"expected {tag!r} payload")
    return data


# --- Transactions ---------------------------------------------------------

def encode_transaction(tx: Transaction) -> bytes:
    return encode(["wtx", tx.sender, tx.recipient, tx.amount, tx.nonce,
                   tx.note, tx.signature])


def decode_transaction(data: bytes) -> Transaction:
    try:
        fields = _expect(decode(data), "wtx")
        _, sender, recipient, amount, nonce, note, signature = fields
        return Transaction(sender=sender, recipient=recipient,
                           amount=amount, nonce=nonce, note=note,
                           signature=signature)
    except (ValueError, TypeError) as exc:
        raise WireError(f"bad transaction payload: {exc}") from exc


# --- Votes ----------------------------------------------------------------

def encode_vote(vote: VoteMessage) -> bytes:
    return encode(["wvote", vote.voter, vote.round_number, vote.step,
                   vote.sorthash, vote.sortproof, vote.prev_hash,
                   vote.value, vote.signature])


def decode_vote(data: bytes) -> VoteMessage:
    try:
        fields = _expect(decode(data), "wvote")
        (_, voter, round_number, step, sorthash, sortproof, prev_hash,
         value, signature) = fields
        return VoteMessage(voter=voter, round_number=round_number,
                           step=step, sorthash=sorthash,
                           sortproof=sortproof, prev_hash=prev_hash,
                           value=value, signature=signature)
    except (ValueError, TypeError) as exc:
        raise WireError(f"bad vote payload: {exc}") from exc


# --- Priority announcements -------------------------------------------------

def encode_priority(message: PriorityMessage) -> bytes:
    return encode(["wprio", message.proposer, message.round_number,
                   message.vrf_hash, message.vrf_proof,
                   message.sub_users, message.priority])


def decode_priority(data: bytes) -> PriorityMessage:
    try:
        fields = _expect(decode(data), "wprio")
        _, proposer, round_number, vrf_hash, vrf_proof, sub_users, priority = fields
        return PriorityMessage(proposer=proposer,
                               round_number=round_number,
                               vrf_hash=vrf_hash, vrf_proof=vrf_proof,
                               sub_users=sub_users, priority=priority)
    except (ValueError, TypeError) as exc:
        raise WireError(f"bad priority payload: {exc}") from exc


# --- Blocks -----------------------------------------------------------------

def encode_block(block: Block) -> bytes:
    return encode([
        "wblock", block.round_number, block.prev_hash, block.timestamp,
        block.seed, block.seed_proof, block.proposer,
        block.proposer_vrf_hash, block.proposer_vrf_proof,
        block.proposer_priority,
        [encode_transaction(tx) for tx in block.transactions],
    ])


def decode_block(data: bytes) -> Block:
    try:
        fields = _expect(decode(data), "wblock")
        (_, round_number, prev_hash, timestamp, seed, seed_proof,
         proposer, vrf_hash, vrf_proof, priority, raw_txs) = fields
        return Block(
            round_number=round_number, prev_hash=prev_hash,
            timestamp=timestamp, seed=seed, seed_proof=seed_proof,
            proposer=proposer, proposer_vrf_hash=vrf_hash,
            proposer_vrf_proof=vrf_proof, proposer_priority=priority,
            transactions=tuple(decode_transaction(raw) for raw in raw_txs),
        )
    except (ValueError, TypeError) as exc:
        raise WireError(f"bad block payload: {exc}") from exc


# --- Certificates -----------------------------------------------------------

def encode_certificate(certificate: Certificate) -> bytes:
    return encode([
        "wcert", certificate.round_number, certificate.step,
        certificate.value,
        [encode_vote(vote) for vote in certificate.votes],
    ])


def decode_certificate(data: bytes) -> Certificate:
    try:
        fields = _expect(decode(data), "wcert")
        _, round_number, step, value, raw_votes = fields
        return Certificate(
            round_number=round_number, step=step, value=value,
            votes=tuple(decode_vote(raw) for raw in raw_votes),
        )
    except (ValueError, TypeError) as exc:
        raise WireError(f"bad certificate payload: {exc}") from exc


# --- Chain sync (catch-up request / announcement) ---------------------------

def encode_chain_request(request: "ChainRequest") -> bytes:
    return encode(["wchainreq", request.height])


def decode_chain_request(data: bytes) -> "ChainRequest":
    from repro.node.catchup import ChainRequest

    try:
        fields = _expect(decode(data), "wchainreq")
        _, height = fields
        if not isinstance(height, int) or height < 0:
            raise WireError("chain request height must be a non-negative "
                            "integer")
        return ChainRequest(height=height)
    except (ValueError, TypeError) as exc:
        raise WireError(f"bad chain request payload: {exc}") from exc


def encode_chain_announcement(announcement: "ChainAnnouncement") -> bytes:
    return encode([
        "wchain",
        [encode_block(block) for block in announcement.blocks],
        [[round_number, encode_certificate(certificate)]
         for round_number, certificate
         in sorted(announcement.certificates.items())],
    ])


def decode_chain_announcement(data: bytes) -> "ChainAnnouncement":
    from repro.node.catchup import ChainAnnouncement

    try:
        fields = _expect(decode(data), "wchain")
        _, raw_blocks, raw_certs = fields
        return ChainAnnouncement(
            blocks=tuple(decode_block(raw) for raw in raw_blocks),
            certificates={round_number: decode_certificate(raw)
                          for round_number, raw in raw_certs},
        )
    except (ValueError, TypeError) as exc:
        raise WireError(f"bad chain announcement payload: {exc}") from exc


def wire_size(obj: Transaction | VoteMessage | PriorityMessage | Block
              | Certificate) -> int:
    """Exact encoded size of any protocol message."""
    if isinstance(obj, Transaction):
        return len(encode_transaction(obj))
    if isinstance(obj, VoteMessage):
        return len(encode_vote(obj))
    if isinstance(obj, PriorityMessage):
        return len(encode_priority(obj))
    if isinstance(obj, Block):
        return len(encode_block(obj))
    if isinstance(obj, Certificate):
        return len(encode_certificate(obj))
    raise TypeError(f"no wire format for {type(obj).__name__}")


# --- Envelopes (gossip routing metadata + payload) --------------------------

#: Per-kind payload codecs: the envelope codec dispatches through this
#: table, so a kind without a real byte encoding (e.g. the in-simulation
#: recovery/chain-sync extension messages) fails loudly at encode time.
ENVELOPE_CODECS: dict[str, tuple] = {
    "tx": (encode_transaction, decode_transaction),
    "vote": (encode_vote, decode_vote),
    "priority": (encode_priority, decode_priority),
    "block": (encode_block, decode_block),
    "cert": (encode_certificate, decode_certificate),
    "chain": (encode_chain_announcement, decode_chain_announcement),
    "chainreq": (encode_chain_request, decode_chain_request),
}


def encode_envelope(envelope) -> bytes:
    """Serialize a gossip envelope (metadata + payload) to bytes.

    The logical ``size`` (the simulator's calibrated bandwidth charge)
    rides along so both substrates account identically. Raises
    :class:`WireError` for kinds without a registered payload codec.
    """
    codec = ENVELOPE_CODECS.get(envelope.kind)
    if codec is None:
        raise WireError(
            f"no wire codec for envelope kind {envelope.kind!r} "
            f"(known: {sorted(ENVELOPE_CODECS)})")
    return encode(["wenv", envelope.msg_id, envelope.origin, envelope.kind,
                   codec[0](envelope.payload), envelope.size])


#: ``(msg_id, origin, kind, size, body)`` — the body still opaque bytes.
EnvelopeHeader = tuple[int, bytes, str, int, bytes]


def decode_envelope_header(data: bytes) -> EnvelopeHeader:
    """Routing metadata first: ``(msg_id, origin, kind, size, body)``.

    The payload is nested as opaque bytes, so this touches none of it —
    a receiver can look ``msg_id`` up in its seen-set and drop a
    duplicate without decoding the vote/block inside.
    :func:`decode_envelope_body` finishes the job.
    """
    try:
        fields = _expect(decode(data), "wenv")
        _, msg_id, origin, kind, body, size = fields
    except (ValueError, TypeError) as exc:
        raise WireError(f"bad envelope payload: {exc}") from exc
    if kind not in ENVELOPE_CODECS:
        raise WireError(f"unknown envelope kind {kind!r}")
    if not isinstance(msg_id, int) or not isinstance(size, int):
        raise WireError("envelope msg_id/size must be integers")
    return msg_id, origin, kind, size, body


def decode_envelope_body(header: EnvelopeHeader):
    """Decode the payload of a header; returns a fresh ``Envelope``."""
    from repro.network.message import Envelope

    msg_id, origin, kind, size, body = header
    try:
        payload = ENVELOPE_CODECS[kind][1](body)
    except (ValueError, TypeError) as exc:
        raise WireError(f"bad {kind} envelope payload: {exc}") from exc
    return Envelope(origin=origin, kind=kind, payload=payload, size=size,
                    msg_id=msg_id)


def decode_envelope(data: bytes):
    """Inverse of :func:`encode_envelope`; returns a fresh ``Envelope``."""
    return decode_envelope_body(decode_envelope_header(data))


# --- Framing (length-prefixed, stream-safe) ---------------------------------

#: Frame header: 4-byte big-endian payload length.
FRAME_HEADER = struct.Struct(">I")

#: Default ceiling on one frame's payload. Generous against the largest
#: legitimate message (a ~1 MB block plus envelope overhead) while small
#: enough that a garbage length prefix is detected immediately instead
#: of stalling a reader waiting for gigabytes that will never come.
MAX_FRAME_BYTES = 8 * 1024 * 1024


def encode_frame(payload: bytes,
                 max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Length-prefix ``payload`` for transmission over a byte stream."""
    if not payload:
        raise FrameSizeError("cannot frame an empty payload")
    if len(payload) > max_bytes:
        raise FrameSizeError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{max_bytes}-byte limit")
    return FRAME_HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary chunking.

    Feed raw stream bytes as they arrive (split or coalesced however the
    transport pleases); :meth:`feed` returns every complete payload the
    new bytes finished. A length prefix of zero or beyond ``max_bytes``
    raises :class:`FrameSizeError` — a desynced or malicious stream is
    unrecoverable, so the connection must be dropped, not resynced. The
    decoder never buffers more than one header plus ``max_bytes`` of an
    incomplete frame, so a garbage length prefix cannot make it hoard
    memory.
    """

    __slots__ = ("max_bytes", "_buffer", "frames_decoded", "bytes_fed")

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES) -> None:
        if max_bytes < 1:
            raise WireError("max_bytes must be >= 1")
        self.max_bytes = max_bytes
        self._buffer = bytearray()
        self.frames_decoded = 0
        self.bytes_fed = 0

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the rest of a frame."""
        return len(self._buffer)

    def residue(self) -> bytes:
        """The bytes of the incomplete frame held so far (a copy).

        Feeding them to another decoder continues the stream exactly
        where this one stopped — how a handshake reader hands the
        connection on without losing a frame it read the start of.
        """
        return bytes(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return all payloads completed by it."""
        self.bytes_fed += len(data)
        self._buffer += data
        frames: list[bytes] = []
        header = FRAME_HEADER.size
        while len(self._buffer) >= header:
            (length,) = FRAME_HEADER.unpack_from(self._buffer)
            if length == 0:
                raise FrameSizeError("zero-length frame")
            if length > self.max_bytes:
                raise FrameSizeError(
                    f"frame length {length} exceeds the "
                    f"{self.max_bytes}-byte limit (desynced or garbage "
                    f"stream)")
            if len(self._buffer) < header + length:
                break
            frames.append(bytes(self._buffer[header:header + length]))
            del self._buffer[:header + length]
            self.frames_decoded += 1
        return frames
