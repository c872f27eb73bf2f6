"""Signed payment transactions.

A transaction transfers currency between two public keys (section 4). Each
sender orders its transactions with a per-sender nonce, which gives replay
protection and a deterministic validity rule. ``note`` carries arbitrary
payload bytes; experiments use it to pad transactions to realistic sizes so
that block-size sweeps (Figure 7) move real bytes through the gossip layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.common.encoding import encode
from repro.common.errors import InvalidTransaction
from repro.crypto.backend import CryptoBackend
from repro.crypto.hashing import H


@dataclass(frozen=True)
class Transaction:
    """A payment of ``amount`` from ``sender`` to ``recipient``.

    Immutable, so an instance carries its *receipts* the way a
    :class:`~repro.baplus.messages.VoteMessage` does — on the instance,
    outside the dataclass fields, so a forged copy and
    ``dataclasses.replace(tx, ...)`` start with none: the canonical
    signing payload (asked for by ``verify_signature``, ``txid`` and
    ``size``), the signature verdict, and, once the transaction has
    crossed the wire in either direction, its transport bytes
    (``_wire``, kept by :mod:`repro.network.wire`).
    """

    sender: bytes
    recipient: bytes
    amount: int
    nonce: int
    note: bytes = b""
    signature: bytes = field(default=b"", compare=False)

    # No verdict yet: a class-level default (not a dataclass field) that
    # an instance's own receipt shadows.
    _signature_valid = None

    def signing_payload(self) -> bytes:
        """Canonical bytes covered by the signature (computed once)."""
        cached = getattr(self, "_signing_payload", None)
        if cached is None:
            cached = encode([
                "tx", self.sender, self.recipient, self.amount, self.nonce,
                self.note,
            ])
            # Frozen dataclass: bypass __setattr__.
            object.__setattr__(self, "_signing_payload", cached)
        return cached

    @cached_property
    def txid(self) -> bytes:
        """Hash identifying this transaction (includes the signature)."""
        return H(self.signing_payload(), self.signature)

    @cached_property
    def size(self) -> int:
        """Serialized size in bytes (drives bandwidth/block accounting)."""
        return len(self.signing_payload()) + len(self.signature)

    def check_shape(self) -> None:
        """Structural validation independent of ledger state."""
        if self.amount <= 0:
            raise InvalidTransaction(f"amount must be positive: {self.amount}")
        if self.nonce < 0:
            raise InvalidTransaction(f"nonce must be >= 0: {self.nonce}")
        if self.sender == self.recipient:
            raise InvalidTransaction("self-payments are not allowed")
        if not self.sender or not self.recipient:
            raise InvalidTransaction("sender and recipient must be non-empty")

    def verify_signature(self, backend: CryptoBackend) -> None:
        """Raise :class:`InvalidTransaction` unless correctly signed.

        The backend is asked once per instance; the verdict depends on
        the bytes alone, so every later check reads it back.
        """
        valid = self._signature_valid
        if valid is None:
            valid = backend.is_valid_signature(
                self.sender, self.signing_payload(), self.signature)
            object.__setattr__(self, "_signature_valid", valid)
        if not valid:
            raise InvalidTransaction("bad transaction signature")


def make_transaction(backend: CryptoBackend, secret: bytes, sender: bytes,
                     recipient: bytes, amount: int, nonce: int,
                     note: bytes = b"") -> Transaction:
    """Build and sign a transaction in one step."""
    unsigned = Transaction(sender=sender, recipient=recipient, amount=amount,
                           nonce=nonce, note=note)
    unsigned.check_shape()
    signature = backend.sign(secret, unsigned.signing_payload())
    return Transaction(sender=sender, recipient=recipient, amount=amount,
                       nonce=nonce, note=note, signature=signature)
