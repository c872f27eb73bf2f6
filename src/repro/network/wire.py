"""Wire format: the transport encoding of every protocol message.

The simulator moves Python objects and charges bandwidth using calibrated
size constants (the paper's ~200-byte priority messages and ~250-byte
votes). This module provides the real bytes a deployment puts on the
wire: for size-constant calibration tests and for the live substrate
(:mod:`repro.live`), whose node processes exchange them over real
TCP/Unix-domain sockets.

This is the *transport* format and is free to evolve: nothing here is
hashed or signed. Every hash and signature input goes through the
canonical codec (:mod:`repro.common.encoding`), which is frozen.

* **Layouts** — each fixed-shape message (``vote``, ``priority``,
  ``tx``, ``block``, ``cert``, ``chainreq``, ``chain``) is one
  declarative field table compiled at import into a :class:`Layout`:
  one ``struct`` head holding every scalar, length and count, then the
  variable-length data in field order. Fields are typed, so a body of
  the wrong shape cannot decode and a value a field cannot carry cannot
  encode — both are :class:`WireError`.
* **Envelope** — a fixed-offset header (:data:`ENVELOPE_HEADER`), the
  origin key, then the body. A receiver reads ``msg_id`` with one
  ``unpack_from`` and drops a copy it already holds without touching
  the body.
* **Linked blocks** — what a live link carries for a gossiped block
  (kind code :data:`LINKED_BLOCK_CODE`): :data:`BLOCK`'s head, then per
  transaction either its bytes or an index naming a ``tx`` frame that
  link already carried. The codec takes the writer's question as a
  predicate and the reader's answer as a resolver; the tables behind
  them are the link's (:mod:`repro.live.transport`). The envelope still
  carries the block's logical ``size``, and the full :data:`BLOCK`
  layout stays for catch-up ``chain`` messages and the control
  ``result``.

Frames — the length prefix that carries these payloads (and the control
plane's) over a byte stream — are :mod:`repro.network.framing`'s.
"""

from __future__ import annotations

import struct
from operator import attrgetter, itemgetter
from typing import Any, Callable

from repro.baplus.certificate import Certificate
from repro.baplus.messages import VoteMessage
from repro.ledger.block import Block
from repro.ledger.transaction import Transaction
from repro.network.framing import WireError
from repro.network.message import Envelope
from repro.node.catchup import ChainAnnouncement, ChainRequest
from repro.node.proposal import PriorityMessage


# --- Layouts (declarative field tables -> compiled pack/unpack) -------------

#: Field types. Scalars sit in the head as themselves; ``BYTES``/``STR``
#: put a u32 length there, ``OPT_BYTES`` an i32 length with -1 for
#: ``None`` (the empty block's absent proposer fields), ``[layout]`` a
#: u32 item count and a bare ``layout`` (one nested message) nothing.
U64, F64, BYTES, STR, OPT_BYTES = "u64", "f64", "bytes", "str", "opt-bytes"
_HEAD_CODE = {U64: "Q", F64: "d", BYTES: "I", STR: "I", OPT_BYTES: "i"}
_MANY, _ONE = "[layout]", "layout"


class Layout:
    """One message shape: ``fields`` is ``((getter, type), ...)``.

    A getter is an attribute name or a callable; ``build`` receives the
    decoded values in field order. With ``keeps_bytes`` an instance
    remembers its encoding (PR 14's receipt pattern: on the instance,
    outside the dataclass fields, so a forged copy or
    ``dataclasses.replace`` starts bare): decoded from or once encoded
    to wire bytes, :meth:`pack` returns them without re-walking.
    """

    def __init__(self, name: str, build: Callable[..., Any],
                 fields: tuple, keeps_bytes: bool = False) -> None:
        self.name = name
        self.build = build
        self._keeps_bytes = keeps_bytes
        self._getters = [attrgetter(getter) if isinstance(getter, str)
                         else getter for getter, _ in fields]
        codes = []
        #: ``(slot, type, nested layout)`` per field with data behind
        #: the head, in field order.
        self._tail: list[tuple[int, str, Layout | None]] = []
        for slot, (_, kind) in enumerate(fields):
            if isinstance(kind, Layout):
                codes.append("0s")  # a slot in the head, no bytes
                self._tail.append((slot, _ONE, kind))
            elif isinstance(kind, list):
                codes.append("I")
                self._tail.append((slot, _MANY, kind[0]))
            else:
                codes.append(_HEAD_CODE[kind])
                if kind not in (U64, F64):
                    self._tail.append((slot, kind, None))
        head = struct.Struct(">" + "".join(codes))
        self._pack_head, self._unpack_head = head.pack, head.unpack_from
        self._head_size = head.size

    def pack(self, message: Any) -> bytes:
        """``message`` as bytes; :class:`WireError` if a field cannot
        carry its value (wrong type, negative, beyond 64 bits)."""
        if self._keeps_bytes:
            kept = getattr(message, "_wire", None)
            if kept is not None:
                return kept
        try:
            head = [getter(message) for getter in self._getters]
            parts = [b""]  # the packed head goes here
            for slot, kind, nested in self._tail:
                value = head[slot]
                if kind is _ONE:
                    head[slot] = b""
                    parts.append(nested.pack(value))
                elif kind is _MANY:
                    head[slot] = len(value)
                    parts.extend(map(nested.pack, value))
                elif value is None and kind is OPT_BYTES:
                    head[slot] = -1
                else:
                    if kind is STR:
                        value = value.encode("utf-8")
                    head[slot] = len(value)
                    parts.append(value)
            parts[0] = self._pack_head(*head)
            packed = b"".join(parts)
        except (struct.error, TypeError, AttributeError, LookupError) as exc:
            raise WireError(f"cannot encode {self.name}: {exc}") from exc
        if self._keeps_bytes:
            object.__setattr__(message, "_wire", packed)
        return packed

    def unpack(self, data: bytes, start: int = 0) -> Any:
        """The message occupying exactly ``data[start:]``."""
        try:
            message, end = self.unpack_from(data, start, True)
        except (struct.error, ValueError) as exc:  # incl. bad UTF-8
            raise WireError(f"bad {self.name} payload: {exc}") from exc
        if end != len(data):
            raise WireError(f"trailing bytes after {self.name} payload")
        return message

    def unpack_from(self, data: bytes, pos: int,
                    keep: bool) -> tuple[Any, int]:
        """The message at ``data[pos:]`` and the offset just past it.

        ``keep`` is cleared below a message that keeps its bytes — the
        parent's span already covers its children.
        """
        start = pos
        values = list(self._unpack_head(data, pos))
        pos += self._head_size
        keep_here = keep and self._keeps_bytes
        keep = keep and not keep_here
        for slot, kind, nested in self._tail:
            count = values[slot]
            if nested is None:
                if count >= 0:
                    end = pos + count
                    values[slot] = (data[pos:end] if kind is not STR
                                    else str(data[pos:end], "utf-8"))
                    pos = end
                elif count == -1:  # only OPT_BYTES lengths are signed
                    values[slot] = None
                else:
                    raise WireError(
                        f"negative length in {self.name} payload")
            elif kind is _MANY:
                items = []
                for _ in range(count):
                    item, pos = nested.unpack_from(data, pos, keep)
                    items.append(item)
                values[slot] = tuple(items)
            else:
                values[slot], pos = nested.unpack_from(data, pos, keep)
        if pos > len(data):  # slices past the end come back short
            raise WireError(f"truncated {self.name} payload")
        message = self.build(*values)
        if keep_here:
            object.__setattr__(message, "_wire", data[start:pos])
        return message, pos


TX = Layout("tx", Transaction, (
    ("sender", BYTES), ("recipient", BYTES), ("amount", U64),
    ("nonce", U64), ("note", BYTES), ("signature", BYTES)),
    keeps_bytes=True)

VOTE = Layout("vote", VoteMessage, (
    ("voter", BYTES), ("round_number", U64), ("step", STR),
    ("sorthash", BYTES), ("sortproof", BYTES), ("prev_hash", BYTES),
    ("value", BYTES), ("signature", BYTES)))

PRIORITY = Layout("priority", PriorityMessage, (
    ("proposer", BYTES), ("round_number", U64), ("vrf_hash", BYTES),
    ("vrf_proof", BYTES), ("sub_users", U64), ("priority", BYTES)))

#: Every block field but the transactions.
_BLOCK_HEAD = (
    ("round_number", U64), ("prev_hash", BYTES), ("timestamp", F64),
    ("seed", OPT_BYTES), ("seed_proof", OPT_BYTES),
    ("proposer", OPT_BYTES), ("proposer_vrf_hash", OPT_BYTES),
    ("proposer_vrf_proof", OPT_BYTES), ("proposer_priority", OPT_BYTES))

BLOCK = Layout("block", Block, _BLOCK_HEAD + (("transactions", [TX]),),
               keeps_bytes=True)

CERT = Layout("cert", Certificate, (
    ("round_number", U64), ("step", STR), ("value", BYTES),
    ("votes", [VOTE])))

CHAIN_REQUEST = Layout("chainreq", ChainRequest, (("height", U64),))

#: A chain's certificates travel filed under the round they certify.
_FILED_CERT = Layout("filed cert", lambda *filed: filed, (
    (itemgetter(0), U64), (itemgetter(1), CERT)))

CHAIN = Layout(
    "chain",
    lambda blocks, filed: ChainAnnouncement(blocks=blocks,
                                            certificates=dict(filed)),
    (("blocks", [BLOCK]),
     (lambda announcement: sorted(announcement.certificates.items()),
      [_FILED_CERT])))

#: What the live control ``result`` and the benchmark call.
encode_block, decode_block = BLOCK.pack, BLOCK.unpack


# --- Linked blocks (a block as one link carries it) -------------------------

#: ``(tx bytes) -> n``: the transaction went out as the link's ``n``-th
#: most recent ``tx`` frame, or 0 if the link must carry its bytes.
Refer = Callable[[bytes], int]
#: ``n -> Transaction``: the reader's side of :data:`Refer`; raises
#: :class:`WireError` for an ``n`` it cannot resolve.
Resolve = Callable[[int], Transaction]

#: :data:`BLOCK`'s head with a u64 transaction count; per transaction a
#: u32 ``n`` follows — 0 and the transaction's :data:`TX` bytes, or the
#: :data:`Refer` answer that names it.
_LINKED_HEAD = Layout("linked block", lambda *head: head, _BLOCK_HEAD + (
    (lambda block: len(block.transactions), U64),))
_REF = struct.Struct(">I")
_INLINE = _REF.pack(0)


def encode_linked_block(block: Block, refer: Refer) -> tuple[bytes, int]:
    """``block`` for one link, and how many transactions it named.

    The header fields are :data:`BLOCK`'s; a transaction ``refer`` finds
    is named by its index, any other travels as its bytes.
    """
    parts = [_LINKED_HEAD.pack(block)]
    named = 0
    for tx in block.transactions:
        raw = TX.pack(tx)
        back = refer(raw)
        if back:
            parts.append(_REF.pack(back))
            named += 1
        else:
            parts += (_INLINE, raw)
    return b"".join(parts), named


def decode_linked_block(data: bytes, pos: int, resolve: Resolve) -> Block:
    """The linked block occupying exactly ``data[pos:]``.

    A named transaction is whatever instance ``resolve`` hands back, so
    it keeps its receipts; the block keeps no ``_wire`` — these bytes
    are one link's, not the block's.
    """
    try:
        head, pos = _LINKED_HEAD.unpack_from(data, pos, False)
        transactions = []
        for _ in range(head[-1]):
            (back,) = _REF.unpack_from(data, pos)
            pos += _REF.size
            if back:
                transactions.append(resolve(back))
            else:
                tx, pos = TX.unpack_from(data, pos, True)
                transactions.append(tx)
    except (struct.error, ValueError) as exc:  # incl. bad UTF-8
        raise WireError(f"bad linked block payload: {exc}") from exc
    if pos != len(data):
        raise WireError("trailing bytes after linked block payload")
    return Block(*head[:-1], transactions=tuple(transactions))


def _no_table(back: int) -> Transaction:
    raise WireError(f"linked block names tx frame {back} back, and no "
                    f"link table was given")


# --- Envelopes (gossip routing header + origin + body) ----------------------

#: Envelope kind -> ``(kind code, body layout)``. A kind without a wire
#: layout (e.g. the in-simulation recovery extension messages) fails
#: loudly at encode time.
ENVELOPE_LAYOUTS: dict[str, tuple[int, Layout]] = {
    "tx": (1, TX), "vote": (2, VOTE), "priority": (3, PRIORITY),
    "block": (4, BLOCK), "cert": (5, CERT), "chain": (6, CHAIN),
    "chainreq": (7, CHAIN_REQUEST),
}
_KIND_OF_CODE = {code: (kind, layout)
                 for kind, (code, layout) in ENVELOPE_LAYOUTS.items()}
#: Kind code of a ``block`` envelope whose body is a linked block: what
#: a live link carries, decodable only against that link's ``tx`` table.
LINKED_BLOCK_CODE = 8
TX_CODE = ENVELOPE_LAYOUTS["tx"][0]

#: ``msg_id`` u64 at offset 0, kind code u8 at 8, logical size u32 at 9,
#: origin length u8 at 13, body length u32 at 14; origin, then body.
ENVELOPE_HEADER = struct.Struct(">QBIBI")

#: What :data:`ENVELOPE_HEADER` unpacks to, validated:
#: ``(msg_id, kind code, size, origin length, body length)``.
EnvelopeHeader = tuple[int, int, int, int, int]


def encode_envelope(envelope: Envelope) -> bytes:
    """Serialize a gossip envelope (header + origin + body) to bytes.

    The logical ``size`` (the simulator's calibrated bandwidth charge)
    rides along so both substrates account identically. Raises
    :class:`WireError` for kinds without a registered layout.
    """
    entry = ENVELOPE_LAYOUTS.get(envelope.kind)
    if entry is None:
        raise WireError(
            f"no wire layout for envelope kind {envelope.kind!r} "
            f"(known: {sorted(ENVELOPE_LAYOUTS)})")
    code, layout = entry
    return _envelope_bytes(envelope, code, layout.pack(envelope.payload))


def encode_linked_block_envelope(envelope: Envelope,
                                 refer: Refer) -> tuple[bytes, int]:
    """A ``block`` envelope for one link (:func:`encode_linked_block`),
    and how many transactions it named. The header's ``size`` is still
    the block's logical size."""
    body, named = encode_linked_block(envelope.payload, refer)
    return _envelope_bytes(envelope, LINKED_BLOCK_CODE, body), named


def _envelope_bytes(envelope: Envelope, code: int, body: bytes) -> bytes:
    try:
        return b"".join((
            ENVELOPE_HEADER.pack(envelope.msg_id, code, envelope.size,
                                 len(envelope.origin), len(body)),
            envelope.origin, body))
    except (struct.error, TypeError) as exc:
        raise WireError(f"cannot encode envelope header: {exc}") from exc


def decode_envelope_header(data: bytes) -> EnvelopeHeader:
    """Routing metadata first, from one ``unpack_from`` on the frame.

    Touches nothing behind the header — a receiver can look ``msg_id``
    (``header[0]``) up in its seen-set and drop a duplicate without
    slicing, let alone decoding, the vote/block inside.
    :func:`decode_envelope_body` finishes the job.
    """
    try:
        header = ENVELOPE_HEADER.unpack_from(data)
    except struct.error as exc:
        raise WireError(f"bad envelope header: {exc}") from exc
    _, code, size, origin_length, body_length = header
    if code not in _KIND_OF_CODE and code != LINKED_BLOCK_CODE:
        raise WireError(f"unknown envelope kind code {code}")
    if not size:
        raise WireError("envelope size must be positive")
    if ENVELOPE_HEADER.size + origin_length + body_length != len(data):
        raise WireError("envelope lengths do not add up to the frame")
    return header


def envelope_body(header: EnvelopeHeader, data: bytes) -> bytes:
    """The body bytes behind ``header`` (a ``tx`` frame's: the
    transaction's :data:`TX` bytes)."""
    return data[ENVELOPE_HEADER.size + header[3]:]


def decode_envelope_body(
        header: EnvelopeHeader, data: bytes, resolve: Resolve = _no_table,
        hold: Callable[[bytes], Transaction] = TX.unpack) -> Envelope:
    """Decode the body behind ``header``; returns a fresh ``Envelope``.

    A linked block's named transactions come from ``resolve``; a ``tx``
    body is handed to ``hold``, which may return an instance already
    decoded from the same bytes.
    """
    msg_id, code, size, origin_length, _ = header
    body_at = ENVELOPE_HEADER.size + origin_length
    origin = data[ENVELOPE_HEADER.size:body_at]
    if code == LINKED_BLOCK_CODE:
        kind, payload = "block", decode_linked_block(data, body_at, resolve)
    elif code == TX_CODE:
        kind, payload = "tx", hold(data[body_at:])
    else:
        kind, layout = _KIND_OF_CODE[code]
        payload = layout.unpack(data, body_at)
    return Envelope(origin=origin, kind=kind, payload=payload, size=size,
                    msg_id=msg_id)

