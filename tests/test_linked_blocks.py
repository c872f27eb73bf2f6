"""Linked blocks: a live link carries each transaction once.

A ``block`` frame on a live link names each transaction that link
already carried as a ``tx`` frame by how many ``tx`` frames back it
went, and carries only the others' bytes. Both ends of a link keep a
table of its ``tx`` frames in stream order — the writer at
``PeerLink.send``, after the fault hooks; the reader as each frame is
read, duplicates included — and a new link starts both afresh.

These tests pin what the saving must not cost: a block decodes to the
same hash and the same full-layout bytes, its transactions are the
instances the receiver already holds (so decoding builds no
``Transaction`` and encodes nothing), shaping a link (delays,
duplicates, drops) leaves both ends agreeing, and a reference nobody
can resolve is a counted garbage frame, never a wrong transaction.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import socket
import struct
from collections import Counter

import pytest

import repro.ledger.block as block_module
import repro.ledger.transaction as transaction_module
from repro.crypto.backend import FastBackend
from repro.crypto.hashing import H
from repro.ledger.block import Block
from repro.ledger.transaction import Transaction, make_transaction
from repro.live.clock import LiveClock
from repro.live.transport import LINK_TX_WINDOW, PeerLink, SentTxs
from repro.network.message import (
    Envelope,
    block_envelope,
    transaction_envelope,
)
from repro.network.framing import WireError
from repro.network.wire import (
    ENVELOPE_HEADER,
    TX,
    TX_CODE,
    decode_envelope_body,
    decode_envelope_header,
    encode_block,
    encode_envelope,
    encode_linked_block_envelope,
)

from tests.fixtures import live_transport

BACKEND = FastBackend()
ALICE = BACKEND.keypair(H(b"linked-alice"))
BOB = BACKEND.keypair(H(b"linked-bob"))


def _payments(count: int, first_nonce: int = 0) -> list[Transaction]:
    return [make_transaction(BACKEND, ALICE.secret, ALICE.public,
                             BOB.public, 1, nonce, note=b"n" * 40)
            for nonce in range(first_nonce, first_nonce + count)]


def _block(transactions, round_number: int = 1) -> Block:
    return Block(round_number=round_number, prev_hash=H(b"prev"),
                 timestamp=1.5, seed=H(b"seed"), seed_proof=b"sp" * 40,
                 proposer=ALICE.public, proposer_vrf_hash=H(b"vrf"),
                 proposer_vrf_proof=b"vp" * 40,
                 proposer_priority=H(b"prio"),
                 transactions=tuple(transactions))


def _tx_envelope(tx: Transaction) -> Envelope:
    return transaction_envelope(ALICE.public, tx, tx.size)


def _block_envelope(block: Block) -> Envelope:
    return block_envelope(ALICE.public, block, block.size)


def _bare(tx: Transaction) -> Transaction:
    """The same transaction as another process would build it: no
    remembered bytes, no receipts."""
    return dataclasses.replace(tx)


class _Pair:
    """Two transports on one clock, joined by real socket pairs.

    Every arriving copy is kept and relayed (there is nobody else to
    relay to), as a node keeps and relays a transaction it admits.
    """

    def __init__(self) -> None:
        self.clock = LiveClock(tick=0.01)
        self.ends = [live_transport(index, self.clock) for index in (0, 1)]
        self.delivered: dict[int, list[Envelope]] = {0: [], 1: []}
        for end in self.ends:
            end.on_receive = (
                lambda envelope, _, kept=self.delivered[end.index]:
                kept.append(envelope) or True)

    async def connect(self) -> tuple[PeerLink, PeerLink]:
        """A fresh connection; it replaces any link the ends had."""
        loop = asyncio.get_running_loop()
        links = []
        for end, sock, peer in zip(self.ends, socket.socketpair(), (1, 0)):
            link = PeerLink(end, peer)
            await loop.create_unix_connection(lambda link=link: link,
                                              sock=sock)
            end.add_link(link)
            links.append(link)
        return links[0], links[1]

    async def settle(self, until) -> None:
        await self.clock.run_async(stop_when=until,
                                   deadline=self.clock.now + 10.0)

    def blocks(self, index: int) -> list[Block]:
        return [envelope.payload for envelope in self.delivered[index]
                if envelope.kind == "block"]

    async def close(self) -> None:
        for end in self.ends:
            await end.close()
        await asyncio.sleep(0)


class TestRoundTrip:
    def test_carried_transactions_are_named_and_come_back_as_held(self):
        carried, fresh = _payments(5), _payments(1, first_nonce=5)[0]
        # The proposer's own copies: equal bytes, other instances.
        block = _block([_bare(tx) for tx in carried] + [fresh])

        async def run():
            pair = _Pair()
            await pair.connect()
            sender, receiver = pair.ends
            for tx in carried:
                sender.broadcast(_tx_envelope(tx))
            sender.broadcast(_block_envelope(block))
            await pair.settle(lambda: pair.blocks(1))
            await pair.close()
            return pair

        pair = asyncio.run(run())
        sender, receiver = pair.ends
        *held, received = pair.delivered[1]
        assert [envelope.kind for envelope in held] == ["tx"] * 5
        assert sender.block_tx_refs == 5  # the sixth travelled as bytes
        decoded = received.payload
        assert received.size == block.size  # the logical charge
        # A linked block keeps no link's bytes as its own.
        assert getattr(decoded, "_wire", None) is None
        assert decoded.block_hash == block.block_hash
        assert encode_block(decoded) == encode_block(_block(
            [_bare(tx) for tx in carried] + [fresh]))
        for tx, envelope in zip(decoded.transactions, held):
            assert tx is envelope.payload
        assert decoded.transactions[5] == fresh
        assert receiver.garbage_frames == sender.garbage_frames == 0

    def test_the_link_moves_fewer_bytes_than_the_full_layout(self):
        txs = _payments(20)
        sent = SentTxs()
        for tx in txs:
            sent.append(TX.pack(tx))
        envelope = _block_envelope(_block(txs))
        linked, named = encode_linked_block_envelope(envelope, sent.back)
        assert named == 20
        # Each named transaction costs its four-byte index.
        full = len(encode_envelope(envelope))
        assert len(linked) <= full - sum(map(len, map(TX.pack, txs))) \
            + 4 * len(txs) + 8


class TestShapedLinks:
    """The fault hooks act before ``PeerLink.send``: a dropped copy
    reaches neither table, a late one reaches both when it is sent,
    a duplicate twice."""

    SENDS = 120

    def test_delays_duplicates_and_drops_leave_both_ends_agreeing(self):
        rng = random.Random(5)

        def shaper(src, dst, envelope, base_delay):
            return rng.choice(([], [0.0], [0.0], [0.004], [0.012],
                               [0.0, 0.006], [0.003, 0.003]))

        sent_blocks: dict[bytes, bytes] = {}

        async def run():
            pair = _Pair()
            links = await pair.connect()
            for end in pair.ends:
                end.link_shaper = shaper
            txs = _payments(self.SENDS)
            start = pair.clock.now

            def send(k: int) -> None:
                end = pair.ends[k % 2]
                if k % 9 == 8:
                    # A block of recent payments: some this end sent,
                    # some it was sent, some the link dropped.
                    block = _block(map(_bare, txs[max(0, k - 12):k]),
                                   round_number=k)
                    sent_blocks[block.block_hash] = encode_block(block)
                    end.broadcast(_block_envelope(block))
                else:
                    end.broadcast(_tx_envelope(txs[k]))

            for k in range(self.SENDS):
                pair.clock.schedule(0.002 * k, lambda k=k: send(k))
            await pair.settle(lambda: pair.clock.now - start
                              > 0.002 * self.SENDS + 0.2)
            await pair.close()
            return pair, links

        pair, links = asyncio.run(run())
        for end in pair.ends:
            assert end.garbage_frames == 0
            assert end.fault_dropped_frames > 0
            assert end.fault_delayed_frames > 0
            assert end.block_tx_refs > 0
        received = pair.blocks(0) + pair.blocks(1)
        assert received
        for block in received:
            assert encode_block(block) == sent_blocks[block.block_hash]
        # Every entry the writer can name is the entry the reader holds.
        for writer, reader in (links, links[::-1]):
            sent = writer.sent_txs
            assert sent._count == len(reader.read_txs) > 0
            for raw in sent._seq:
                assert reader.read_txs[-sent.back(raw)] == raw


class TestReplacedLink:
    def test_a_new_link_starts_both_tables_afresh(self):
        txs = _payments(3)
        raws = [TX.pack(tx) for tx in txs]

        async def run():
            pair = _Pair()
            old = await pair.connect()
            for tx in txs:
                pair.ends[0].broadcast(_tx_envelope(tx))
            await pair.settle(lambda: len(pair.delivered[1]) == 3)
            assert [old[0].sent_txs.back(raw) for raw in raws] == [3, 2, 1]
            assert list(old[1].read_txs) == raws
            new = await pair.connect()  # a reconnect replaces the link
            assert [new[0].sent_txs.back(raw) for raw in raws] == [0] * 3
            assert not new[1].read_txs
            pair.ends[0].broadcast(_block_envelope(_block(txs)))
            await pair.settle(lambda: pair.blocks(1))
            await pair.close()
            return pair, old

        pair, old = asyncio.run(run())
        assert all(link.closed for link in old)
        # Nothing was named across the reconnect: the block went inline.
        assert pair.ends[0].block_tx_refs == 0
        assert pair.blocks(1)[0].block_hash == _block(txs).block_hash
        assert pair.ends[1].garbage_frames == 0


class TestUnresolvableReference:
    """A reference the reader cannot resolve is garbage, counted."""

    @staticmethod
    def _reader(carried: list[Transaction]):
        transport = live_transport()
        transport.on_receive = lambda envelope, _: True
        link = PeerLink(transport, 1)
        for tx in carried:
            transport._on_payload(1, encode_envelope(_tx_envelope(tx)),
                                  link)
        transport._drain()
        return transport, link

    @staticmethod
    def _linked(block: Block, carried: list[Transaction]) -> bytes:
        sent = SentTxs()
        for tx in carried:
            sent.append(TX.pack(tx))
        payload, _ = encode_linked_block_envelope(_block_envelope(block),
                                                  sent.back)
        return payload

    @pytest.mark.parametrize("forged", [0xFFFFFFFF, 2, LINK_TX_WINDOW + 1])
    def test_a_forged_index_is_a_garbage_frame(self, forged):
        tx = _payments(1)[0]
        transport, link = self._reader([tx])
        payload = self._linked(_block([tx]), [tx])
        assert payload.endswith(struct.pack(">I", 1))  # its one reference
        transport._on_payload(1, payload[:-4] + struct.pack(">I", forged),
                              link)
        assert transport.garbage_frames == 1
        assert not transport._rx

    def test_an_index_past_the_window_is_not_written_nor_resolved(self):
        txs = _payments(LINK_TX_WINDOW + 1)
        sent = SentTxs()
        for tx in txs:
            sent.append(TX.pack(tx))
        assert sent.back(TX.pack(txs[0])) == 0  # out of the window: inline
        assert sent.back(TX.pack(txs[1])) == LINK_TX_WINDOW
        transport = live_transport()
        link = PeerLink(transport, 1)
        link.read_txs.extend(TX.pack(tx) for tx in txs)
        payload = self._linked(_block([txs[1]]), txs)
        transport._on_payload(1, payload, link)
        assert transport.garbage_frames == 0
        forged = payload[:-4] + struct.pack(">I", LINK_TX_WINDOW + 1)
        transport._on_payload(1, forged, link)
        assert transport.garbage_frames == 1

    def test_a_reference_the_reader_never_read_is_garbage(self):
        tx = _payments(1)[0]
        transport, link = self._reader([])
        transport._on_payload(1, self._linked(_block([tx]), [tx]), link)
        assert transport.garbage_frames == 1

    def test_a_frame_read_with_no_link_table_names_nothing(self):
        tx = _payments(1)[0]
        transport = live_transport()
        transport._on_payload(1, self._linked(_block([tx]), [tx]))
        assert transport.garbage_frames == 1

    def test_decoding_without_a_link_table_raises(self):
        """The codec's own default: a linked block decoded outside any
        link has no table to name its transactions from."""
        tx = _payments(1)[0]
        payload = self._linked(_block([tx]), [tx])
        with pytest.raises(WireError, match="no link table"):
            decode_envelope_body(decode_envelope_header(payload), payload)

    def test_a_reference_to_a_garbage_tx_body_is_garbage(self):
        tx = _payments(1)[0]
        transport, link = self._reader([])
        body = b"not a transaction"
        origin = ALICE.public
        transport._on_payload(1, ENVELOPE_HEADER.pack(
            77, TX_CODE, 100, len(origin), len(body)) + origin + body, link)
        assert list(link.read_txs) == [body]
        transport._on_payload(1, self._linked(_block([tx]), [tx]), link)
        assert transport.garbage_frames == 1  # the block that names it
        transport._drain()
        assert transport.garbage_frames == 2  # and the tx frame itself


#: What decoding a linked block of five carried transactions costs on
#: the reader: the instances come from its own table, so no
#: ``Transaction`` is built and nothing is canonically encoded. Hashing
#: the block afterwards encodes its header only — every txid is a
#: receipt of an instance the reader already hashed.
DECODE_CALLS: Counter = Counter()
HASH_CALLS = Counter({"block.encode": 1})


def test_decoding_a_linked_block_pays_nothing_per_transaction(monkeypatch):
    carried = _payments(5)
    transport = live_transport()
    held: list[Transaction] = []

    def keep(envelope, _):
        held.append(envelope.payload)
        if envelope.kind == "tx":
            envelope.payload.txid  # as the mempool does on admission
        return True
    transport.on_receive = keep
    link = PeerLink(transport, 1)
    for tx in carried:
        transport._on_payload(1, encode_envelope(_tx_envelope(tx)), link)
    transport._drain()
    payload = TestUnresolvableReference._linked(
        _block(map(_bare, carried)), carried)
    expected = _block(carried).block_hash

    calls: Counter = Counter()

    def count(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(Transaction, "__init__",
                        count("Transaction", Transaction.__init__))
    monkeypatch.setattr(transaction_module, "encode",
                        count("transaction.encode",
                              transaction_module.encode))
    monkeypatch.setattr(block_module, "encode",
                        count("block.encode", block_module.encode))
    transport._on_payload(1, payload, link)
    assert calls == DECODE_CALLS
    transport._drain()
    block = held[-1]
    assert all(tx is mine for tx, mine in zip(block.transactions, held))
    assert block.block_hash == expected
    assert calls == HASH_CALLS
