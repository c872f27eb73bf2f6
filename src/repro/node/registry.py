"""Shared block registry: the ``BlockOfHash`` fetch path, and one BA⋆
context per tip.

BA* votes on block *hashes*; a node that reaches agreement on a hash
without having received the block "must obtain it from other users (and,
since the block was agreed upon, many of the honest users must have
received it during block proposal)" — Algorithm 3's ``BlockOfHash()``.

In the simulation this fetch is modeled by a registry shared by all nodes
of one experiment: proposers register every block they originate, and a
node resolving an unseen hash performs a registry lookup (counted, so
experiments can report how often the slow path was taken). The bandwidth
cost of the normal path is fully modeled by the gossip layer; the rare
fetch path is deliberately free, which can only *under*-state Algorand's
latency by a fraction of a block transfer.

The registry also interns round contexts: every node of a deployment
that runs round ``r`` on the same tip runs it against the same
:class:`~repro.baplus.context.BAContext` object
(:meth:`repro.node.agent.Node._current_context` builds it once), so the
verdicts a vote carries for that context (its receipts) are computed
once per deployment instead of once per node. A context is a function
of the chain's history up to the tip and of the deployment's protocol
parameters, so every node that asks for a key may use the one object.
On the live substrate each process holds its own registry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import LedgerError
from repro.ledger.block import Block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baplus.context import BAContext

#: ``(round, height, tip_hash)``: which context a node needs.
ContextKey = tuple[int, int, bytes]


class BlockRegistry:
    """Hash -> block mapping shared across one simulation."""

    def __init__(self) -> None:
        self._blocks: dict[bytes, Block] = {}
        self.fetches = 0
        self._contexts: dict[ContextKey, "BAContext"] = {}

    def register(self, block: Block) -> None:
        self._blocks[block.block_hash] = block

    def fetch(self, block_hash: bytes) -> Block:
        """Resolve a hash the node never received; counts as a slow fetch."""
        try:
            block = self._blocks[block_hash]
        except KeyError:
            raise LedgerError(
                f"no proposer ever built block {block_hash.hex()[:16]}"
            ) from None
        self.fetches += 1
        return block

    def __contains__(self, block_hash: bytes) -> bool:
        return block_hash in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    # -- contexts ----------------------------------------------------------

    def context(self, key: ContextKey) -> "BAContext | None":
        """The context interned for ``key``, if some node built it."""
        return self._contexts.get(key)

    def intern_context(self, key: ContextKey, ctx: "BAContext") -> None:
        self._contexts[key] = ctx

    def drop_contexts_before(self, round_number: int) -> None:
        """Forget contexts of rounds below ``round_number``.

        A node still in such a round keeps the one it holds; one that
        asks again builds its own, equal in content.
        """
        for key in [key for key in self._contexts if key[0] < round_number]:
            del self._contexts[key]
