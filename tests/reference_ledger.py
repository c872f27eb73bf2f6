"""The dict-backed account state — the ledger suites' reference oracle.

The list of transactions in the chain "logically translates to a set of
weights for each user's public key" (section 8.1). This is that
translation written the obvious way, one python dict per chain: it was
``repro.ledger.account.AccountState`` until the array-backed
:class:`repro.ledger.arraystate.ArrayState` became the only account
state in ``src/``. The suites that compare against it
(``test_ledger_arraystate``, ``test_ledger_stateful``,
``test_population``, ``test_weight_lookback``) require the same
accepted/rejected transactions, balances, nonces and weight tables.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping

from repro.common.errors import InvalidTransaction
from repro.ledger.transaction import Transaction


class AccountState:
    """Mutable balances/nonces in two dicts."""

    def __init__(self, balances: Mapping[bytes, int] | None = None) -> None:
        self._balances: dict[bytes, int] = dict(balances or {})
        for public, balance in self._balances.items():
            if balance < 0:
                raise ValueError(f"negative initial balance for {public.hex()}")
        self._nonces: dict[bytes, int] = {}
        self._weights_cache: Mapping[bytes, int] | None = None

    def copy(self) -> "AccountState":
        clone = AccountState()
        clone._balances = dict(self._balances)
        clone._nonces = dict(self._nonces)
        return clone

    def balance(self, public: bytes) -> int:
        return self._balances.get(public, 0)

    def next_nonce(self, public: bytes) -> int:
        return self._nonces.get(public, 0)

    @property
    def total_weight(self) -> int:
        """Total currency ``W`` — the sortition denominator."""
        return sum(self._balances.values())

    def weights(self) -> Mapping[bytes, int]:
        """Shared immutable snapshot of the weight table.

        Cached until the next :meth:`apply`: every caller between two
        mutations — the node's sortition context, the chain's per-round
        weight history, recovery and catch-up — shares one frozen
        mapping instead of each rebuilding an N-entry dict. The proxy
        wraps a private copy, so later state mutations can never drift
        a snapshot that a round context already holds.
        """
        if self._weights_cache is None:
            self._weights_cache = MappingProxyType(dict(self._balances))
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
        self._balances[tx.sender] -= tx.amount
        if self._balances[tx.sender] == 0:
            del self._balances[tx.sender]
        self._balances[tx.recipient] = self.balance(tx.recipient) + tx.amount
        self._nonces[tx.sender] = tx.nonce + 1

    def apply_all(self, transactions: Iterable[Transaction]) -> None:
        for tx in transactions:
            self.apply(tx)

    def would_accept(self, transactions: Iterable[Transaction]) -> bool:
        """Dry-run validity of a transaction sequence (used by validators)."""
        trial = self.copy()
        try:
            trial.apply_all(transactions)
        except InvalidTransaction:
            return False
        return True
