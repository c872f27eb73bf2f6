"""Pending-transaction pool.

Every user "collects a block of pending transactions that they hear about,
in case they are chosen to propose the next block" (section 4). The pool
deduplicates by txid, evicts transactions that a newly agreed block has
committed or invalidated, and assembles size-bounded candidate blocks in
arrival order (FIFO — there are no fees to order by in the paper).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.common.errors import InvalidTransaction
from repro.ledger.arraystate import ArrayState
from repro.ledger.transaction import Transaction


class Mempool:
    """FIFO transaction pool with a byte-size cap."""

    def __init__(self, max_bytes: int = 16_000_000) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self._max_bytes = max_bytes
        self._pool: OrderedDict[bytes, Transaction] = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, txid: bytes) -> bool:
        return txid in self._pool

    def add(self, tx: Transaction) -> bool:
        """Insert a transaction; returns False on duplicate or overflow."""
        if tx.txid in self._pool:
            return False
        if self._bytes + tx.size > self._max_bytes:
            return False
        self._pool[tx.txid] = tx
        self._bytes += tx.size
        return True

    def remove(self, txids: Iterable[bytes]) -> None:
        for txid in txids:
            tx = self._pool.pop(txid, None)
            if tx is not None:
                self._bytes -= tx.size

    def next_nonce_for(self, state: ArrayState, sender: bytes) -> int:
        """First nonce ``sender`` can safely use: past both committed
        state and this pool's pending transactions."""
        nonce = state.next_nonce(sender)
        for tx in self._pool.values():
            if tx.sender == sender and tx.nonce >= nonce:
                nonce = tx.nonce + 1
        return nonce

    def assemble(self, state: ArrayState, max_block_bytes: int
                 ) -> list[Transaction]:
        """Greedily pick valid transactions up to ``max_block_bytes``.

        Transactions are taken in arrival order and validated against a
        trial copy of ``state`` so the assembled list always applies
        cleanly (a malformed list would make validators reject the whole
        block, per section 8.1).
        """
        trial = state.copy()
        chosen: list[Transaction] = []
        used = 0
        for tx in self._pool.values():
            if used + tx.size > max_block_bytes:
                continue
            try:
                trial.apply(tx)
            except InvalidTransaction:
                continue
            chosen.append(tx)
            used += tx.size
        return chosen

    def prune_committed(self, block_transactions: Iterable[Transaction],
                        state: ArrayState) -> None:
        """Drop committed transactions and any now-invalid leftovers."""
        self.remove(tx.txid for tx in block_transactions)
        stale = []
        trial = state.copy()
        for txid, tx in self._pool.items():
            try:
                trial.check(tx)
            except InvalidTransaction:
                # Either replayed (old nonce) or now overspending.
                if tx.nonce < trial.next_nonce(tx.sender):
                    stale.append(txid)
        self.remove(stale)
