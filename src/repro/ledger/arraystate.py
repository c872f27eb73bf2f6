"""Account state: balances and nonces derived from the transaction log.

The list of transactions in the chain "logically translates to a set of
weights for each user's public key" (section 8.1). :class:`ArrayState`
is that translation — the only one: it applies blocks in order and
exposes the weight table sortition reads. The paper's evaluation
reaches 500,000 users, so balances live in one numpy ``int64`` array
keyed by a *stable account index*, and the weight table is a dict-like
:class:`ArrayWeights` view over a frozen buffer rather than a per-chain,
per-round python dict.

Three properties the rest of the stack builds on:

* **Stable indices.** Public keys map to array slots through a shared,
  append-only :class:`AccountIndex`. All chain replicas of one
  deployment share the registry (forks, catch-up replays and reloaded
  chains included), so the stake-pool sortition pass in
  :mod:`repro.sortition.pool` can evaluate "one array" instead of one
  dict per chain. Append-only means forks can never disagree about a
  slot: a key present on any chain owns its slot everywhere.
* **Share until written.** ``copy()`` (block assembly, agent
  materialization) allocates no array: source and clone read one
  balance buffer, and whichever writes first copies it, once.
* **A snapshot is a frozen buffer, never a copy.** ``weights()``
  freezes the current buffer as a cached :class:`ArrayWeights` (the
  state's next write moves *it* to a fresh buffer), so rounds that
  commit no balance change allocate nothing and share one snapshot
  object across the weight history and every replica of the chain.
  Shared buffers are read-only on the array itself — the only ownership
  record: a write that missed its copy raises ``ValueError`` instead of
  drifting a snapshot a round context already holds.

``weights()`` exposes exactly the keys with positive balance
(zero-balance accounts vanish from the view). The dict-backed
implementation this replaced lives on as the test suites' oracle
(``tests/reference_ledger.py``): same accepted/rejected transactions,
same balances and nonces, same weight tables.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.common.errors import InvalidTransaction
from repro.ledger.transaction import Transaction


class AccountIndex:
    """Shared append-only mapping public key -> stable array slot.

    One instance per deployment (slot == node index for its key pairs,
    see :func:`repro.node.deployment.derive_genesis`); every
    :class:`ArrayState` of every chain replica resolves keys through
    it. Growing the registry never
    invalidates existing states — their arrays simply read as zero for
    slots allocated after their last write.
    """

    __slots__ = ("_slots", "_keys")

    def __init__(self, publics: Iterable[bytes] = ()) -> None:
        self._slots: dict[bytes, int] = {}
        self._keys: list[bytes] = []
        for public in publics:
            self.slot_of(public)

    def __len__(self) -> int:
        return len(self._keys)

    def slot_of(self, public: bytes) -> int:
        """Slot for ``public``, allocating one if unseen."""
        slot = self._slots.get(public)
        if slot is None:
            slot = len(self._keys)
            self._slots[public] = slot
            self._keys.append(public)
        return slot

    def get(self, public: bytes) -> int | None:
        """Slot for ``public`` or ``None`` (never allocates)."""
        return self._slots.get(public)

    def key_of(self, slot: int) -> bytes:
        return self._keys[slot]


class ArrayWeights(Mapping[bytes, int]):
    """Frozen dict-view over one balance-array snapshot.

    Implements the full ``Mapping`` protocol over exactly the accounts
    with positive balance, without materializing a dict: lookups are one
    slot resolution plus one array read. Instances are immutable (the
    array handed in is frozen, not copied) and shared freely across
    weight histories, chain replicas, BA contexts, and the stake pool.
    """

    __slots__ = ("_index", "_balances", "total", "_nonzero")

    #: Marks the mapping as already-immutable for
    #: :class:`repro.baplus.context.BAContext`'s no-copy fast path.
    frozen = True

    def __init__(self, index: AccountIndex, balances: np.ndarray) -> None:
        self._index = index
        self._balances = balances
        self._balances.setflags(write=False)
        #: Total currency ``W`` — the sortition denominator, precomputed
        #: so contexts over 10k+ accounts skip the O(n) python sum.
        self.total = int(balances.sum())
        self._nonzero = int(np.count_nonzero(balances))

    def __getitem__(self, public: bytes) -> int:
        slot = self._index.get(public)
        if slot is None or slot >= len(self._balances):
            raise KeyError(public)
        balance = int(self._balances[slot])
        if balance == 0:
            raise KeyError(public)
        return balance

    def get(self, public: bytes, default: int = 0) -> int:
        slot = self._index.get(public)
        if slot is None or slot >= len(self._balances):
            return default
        return self._balances.item(slot) or default

    def __iter__(self) -> Iterator[bytes]:
        balances = self._balances
        key_of = self._index.key_of
        for slot in np.flatnonzero(balances):
            yield key_of(int(slot))

    def __len__(self) -> int:
        return self._nonzero

    def __contains__(self, public: object) -> bool:
        if not isinstance(public, bytes):
            return False
        slot = self._index.get(public)
        return (slot is not None and slot < len(self._balances)
                and bool(self._balances[slot]))

    @property
    def array(self) -> np.ndarray:
        """The raw (read-only) balance array, for the vectorized pool."""
        return self._balances

    @property
    def index(self) -> AccountIndex:
        return self._index

    def floored_by(self, other: "ArrayWeights") -> "ArrayWeights":
        """Per-account minimum with ``other``, a snapshot on the same index.

        Slots past the shorter buffer's end read as zero there, so the
        floor past it is zero: truncating to the common length *is* the
        zero-padded minimum.
        """
        n = min(len(self._balances), len(other._balances))
        return ArrayWeights(self._index, np.minimum(self._balances[:n],
                                                    other._balances[:n]))


class ArrayState:
    """Mutable balances/nonces; one instance per chain tip per node."""

    __slots__ = ("_index", "_balances", "_nonces", "_weights_cache")

    def __init__(self, balances: Mapping[bytes, int] | None = None,
                 index: AccountIndex | None = None) -> None:
        self._index = index if index is not None else AccountIndex()
        self._balances = np.zeros(max(len(self._index), 8), dtype=np.int64)
        self._nonces: dict[bytes, int] = {}
        self._weights_cache: ArrayWeights | None = None
        for public, balance in (balances or {}).items():
            if balance < 0:
                raise ValueError(
                    f"negative initial balance for {public.hex()}")
            self._set(public, balance)

    def _set(self, public: bytes, balance: int) -> None:
        slot = self._index.slot_of(public)
        balances = self._balances
        if slot >= len(balances):
            grown = np.zeros(max(slot + 1, 2 * len(balances)),
                             dtype=np.int64)
            grown[:len(balances)] = balances
            self._balances = balances = grown
        elif not balances.flags.writeable:
            # Frozen by copy() or weights(): somebody else reads it.
            self._balances = balances = balances.copy()
        balances[slot] = balance

    def copy(self) -> "ArrayState":
        """Clone sharing the balance buffer until either side writes."""
        self._balances.setflags(write=False)
        clone = ArrayState.__new__(ArrayState)
        clone._index = self._index
        clone._balances = self._balances
        clone._nonces = dict(self._nonces)
        clone._weights_cache = self._weights_cache
        return clone

    @property
    def index(self) -> AccountIndex:
        return self._index

    def balance(self, public: bytes) -> int:
        slot = self._index.get(public)
        if slot is None or slot >= len(self._balances):
            return 0
        return int(self._balances[slot])

    def next_nonce(self, public: bytes) -> int:
        return self._nonces.get(public, 0)

    @property
    def total_weight(self) -> int:
        """Total currency ``W`` — the sortition denominator."""
        return int(self._balances.sum())

    def weights(self) -> ArrayWeights:
        """Shared immutable snapshot of the weight table.

        The current buffer, frozen (the next write copies it); cached
        until then, so rounds without a balance change share one object.
        """
        if self._weights_cache is None:
            self._weights_cache = ArrayWeights(self._index, self._balances)
        return self._weights_cache

    def check(self, tx: Transaction) -> None:
        """Validate ``tx`` against current state (no signature check here).

        Raises:
            InvalidTransaction: on overspend or nonce mismatch.
        """
        tx.check_shape()
        if tx.nonce != self.next_nonce(tx.sender):
            raise InvalidTransaction(
                f"nonce {tx.nonce} != expected {self.next_nonce(tx.sender)}"
            )
        if self.balance(tx.sender) < tx.amount:
            raise InvalidTransaction(
                f"overspend: balance {self.balance(tx.sender)} < {tx.amount}"
            )

    def apply(self, tx: Transaction) -> None:
        """Apply a validated transaction; raises if it does not validate."""
        self.check(tx)
        self._weights_cache = None
        self._set(tx.sender, self.balance(tx.sender) - tx.amount)
        self._set(tx.recipient, self.balance(tx.recipient) + tx.amount)
        self._nonces[tx.sender] = tx.nonce + 1

    def apply_all(self, transactions: Iterable[Transaction]) -> None:
        for tx in transactions:
            self.apply(tx)

    def would_accept(self, transactions: Iterable[Transaction]) -> bool:
        """Dry-run validity of a transaction sequence (used by validators):
        sparse deltas over the arrays, O(txs), no copy."""
        deltas: dict[bytes, int] = {}
        nonces: dict[bytes, int] = {}
        for tx in transactions:
            try:
                tx.check_shape()
            except InvalidTransaction:
                return False
            sender = tx.sender
            if (tx.nonce != nonces.get(sender, self.next_nonce(sender))
                    or self.balance(sender) + deltas.get(sender, 0)
                    < tx.amount):
                return False
            deltas[sender] = deltas.get(sender, 0) - tx.amount
            deltas[tx.recipient] = deltas.get(tx.recipient, 0) + tx.amount
            nonces[sender] = tx.nonce + 1
        return True
