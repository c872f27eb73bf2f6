"""Ledger substrate: transactions, accounts, blocks, chains, storage."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.ledger.arraystate import AccountIndex, ArrayState, ArrayWeights
    from repro.ledger.block import (
        Block, empty_block, empty_block_hash, validate_block,
    )
    from repro.ledger.blockchain import (
        GENESIS_PREV_HASH, Blockchain, make_genesis,
    )
    from repro.ledger.mempool import Mempool
    from repro.ledger.storage import (
        PAPER_CERTIFICATE_BYTES, ShardedStore, shard_of_key, stores_round,
    )
    from repro.ledger.transaction import Transaction, make_transaction

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ledger.arraystate": ("AccountIndex", "ArrayState", "ArrayWeights"),
    "repro.ledger.block": (
        "Block", "empty_block", "empty_block_hash", "validate_block",
    ),
    "repro.ledger.blockchain": (
        "GENESIS_PREV_HASH", "Blockchain", "make_genesis",
    ),
    "repro.ledger.mempool": ("Mempool",),
    "repro.ledger.storage": (
        "PAPER_CERTIFICATE_BYTES", "ShardedStore", "shard_of_key",
        "stores_round",
    ),
    "repro.ledger.transaction": ("Transaction", "make_transaction"),
})

__all__ = [
    "AccountIndex",
    "ArrayState",
    "ArrayWeights",
    "Block",
    "empty_block",
    "empty_block_hash",
    "validate_block",
    "Blockchain",
    "make_genesis",
    "GENESIS_PREV_HASH",
    "Mempool",
    "Transaction",
    "make_transaction",
    "ShardedStore",
    "shard_of_key",
    "stores_round",
    "PAPER_CERTIFICATE_BYTES",
]
