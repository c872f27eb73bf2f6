"""Blocks and block validation (section 8.1).

A block carries a list of transactions plus the metadata BA* needs: the
round number, the proposer's VRF-based seed and proof, the hash of the
previous block, and a proposal timestamp. The *empty block* for a round is
a deterministic constant every honest node can construct locally — BA*
falls back to it whenever proposals are missing or invalid (Algorithm 8's
``Empty(round, H(ctx.last_block))``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.common.encoding import encode
from repro.common.errors import InvalidBlock
from repro.crypto.hashing import H
from repro.ledger.transaction import Transaction
from repro.sortition.seed import verify_seed

if TYPE_CHECKING:
    from repro.crypto.backend import CryptoBackend
    from repro.ledger.arraystate import ArrayState

#: Serialized overhead per block besides transactions (metadata, proofs).
BLOCK_HEADER_OVERHEAD = 360


@dataclass(frozen=True)
class Block:
    """One entry of the ledger.

    A block that was decoded from, or has once been encoded to, wire
    bytes keeps them on the instance (``_wire``, outside the dataclass
    fields — see :class:`repro.network.wire.Layout`), so relaying,
    catch-up serving and the end-of-run ``result`` never re-encode it.
    It keeps its seed verdict the same way (:meth:`seed_valid`), so a
    decoded copy and ``dataclasses.replace`` start with neither.
    """

    round_number: int
    prev_hash: bytes
    timestamp: float
    # Seed material (None for empty blocks — nodes use the H() fallback).
    seed: bytes | None = None
    seed_proof: bytes | None = None
    # Proposer identity and sortition credentials (None for empty blocks).
    proposer: bytes | None = None
    proposer_vrf_hash: bytes | None = None
    proposer_vrf_proof: bytes | None = None
    proposer_priority: bytes | None = None
    transactions: tuple[Transaction, ...] = field(default_factory=tuple)

    # No verdict yet: a class-level default (not a dataclass field) that
    # an instance's own receipt shadows.
    _seed_receipt = None

    @property
    def is_empty(self) -> bool:
        """Empty blocks carry no proposer and no transactions."""
        return self.proposer is None

    def header_payload(self) -> bytes:
        """Canonical bytes identifying this block."""
        if self.is_empty:
            # The deterministic Empty(round, prev_hash) constant: must not
            # depend on timestamps or any proposer-specific data.
            return encode(["empty", self.round_number, self.prev_hash])
        return encode([
            "block",
            self.round_number,
            self.prev_hash,
            self.timestamp,
            self.seed,
            self.seed_proof,
            self.proposer,
            self.proposer_vrf_hash,
            self.proposer_vrf_proof,
            [tx.txid for tx in self.transactions],
        ])

    @cached_property
    def block_hash(self) -> bytes:
        return H(self.header_payload())

    def seed_valid(self, backend: "CryptoBackend", previous_seed: bytes,
                   round_number: int) -> bool:
        """Whether this non-empty block's seed passes its proposer's VRF
        proof on ``previous_seed || round_number`` (section 5.2).

        Proposal validation and the commit ask it of one instance at
        every node, so the verdict is remembered, keyed by
        ``(previous_seed, round_number)``: another context recomputes.
        """
        receipt = self._seed_receipt
        if (receipt is not None and receipt[0] == previous_seed
                and receipt[1] == round_number):
            return receipt[2]
        valid = verify_seed(backend, self.proposer, self.seed,
                            self.seed_proof, previous_seed, round_number)
        # Frozen dataclass: bypass __setattr__.
        object.__setattr__(self, "_seed_receipt",
                           (previous_seed, round_number, valid))
        return valid

    @cached_property
    def size(self) -> int:
        """Approximate wire size in bytes."""
        return BLOCK_HEADER_OVERHEAD + sum(tx.size for tx in self.transactions)

    @property
    def payload_size(self) -> int:
        """Bytes of transaction data committed by this block."""
        return sum(tx.size for tx in self.transactions)


def empty_block(round_number: int, prev_hash: bytes) -> Block:
    """``Empty(round, prev_hash)`` — the canonical fallback block."""
    return Block(round_number=round_number, prev_hash=prev_hash,
                 timestamp=0.0)


def empty_block_hash(round_number: int, prev_hash: bytes) -> bytes:
    """Hash of the canonical empty block, computable without building it."""
    return empty_block(round_number, prev_hash).block_hash


def validate_block(block: Block, *, backend: "CryptoBackend",
                   state: "ArrayState", prev_hash: bytes,
                   round_number: int, prev_timestamp: float,
                   now: float, max_clock_skew: float = 3600.0,
                   check_signatures: bool = True) -> None:
    """Full block validation per section 8.1.

    Checks: transactions valid against ``state``; previous-block hash;
    round number; timestamp newer than the previous block's and
    approximately current. Seed validity is checked separately by the node
    (it needs the selection seed). On any failure raises
    :class:`InvalidBlock` — the caller then substitutes the empty block.
    """
    if block.is_empty:
        if block.block_hash != empty_block_hash(round_number, prev_hash):
            raise InvalidBlock("empty block does not match canonical form")
        return
    if block.prev_hash != prev_hash:
        raise InvalidBlock("previous-block hash mismatch")
    if block.round_number != round_number:
        raise InvalidBlock(
            f"round {block.round_number} != expected {round_number}"
        )
    if block.timestamp <= prev_timestamp:
        raise InvalidBlock("timestamp not greater than previous block's")
    if abs(block.timestamp - now) > max_clock_skew:
        raise InvalidBlock("timestamp not approximately current")
    if block.seed is None or block.seed_proof is None:
        raise InvalidBlock("non-empty block must carry a seed and proof")
    if check_signatures:
        for tx in block.transactions:
            tx.verify_signature(backend)
    if not state.would_accept(block.transactions):
        raise InvalidBlock("transaction list does not apply cleanly")
