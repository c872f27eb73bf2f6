"""The blockchain: an append-only chain of blocks plus derived state.

Each node holds one :class:`Blockchain` per chain tip it follows. The
chain owns three synchronized views:

* the block list (round ``0`` is the genesis block),
* the account state after applying every block's transactions,
* the seed chain (section 5.2) driving sortition.

Fork handling: during recovery (section 8.2) a node may need to adopt a
different chain; :meth:`Blockchain.fork_from` rebuilds state for an
alternative block sequence sharing the same genesis.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.common.errors import LedgerError
from repro.ledger.arraystate import AccountIndex, ArrayState, ArrayWeights
from repro.ledger.block import Block
from repro.sortition.seed import SeedChain, fallback_seed

#: Sentinel previous-hash of the genesis block.
GENESIS_PREV_HASH = b"\x00" * 32


def make_genesis(genesis_seed: bytes) -> Block:
    """The canonical round-0 block (identical for all participants)."""
    return Block(round_number=0, prev_hash=GENESIS_PREV_HASH, timestamp=0.0)


class Blockchain:
    """Blocks, balances, and seeds for one chain."""

    def __init__(self, initial_balances: Mapping[bytes, int],
                 genesis_seed: bytes, seed_refresh_interval: int,
                 index: AccountIndex | None = None) -> None:
        """``index`` is the deployment's key -> slot registry; replicas,
        forks and catch-up replays inherit it. Omitted: a private one."""
        if not initial_balances:
            raise LedgerError("initial balances must be non-empty")
        self._genesis_seed = genesis_seed
        self._blocks: list[Block] = [make_genesis(genesis_seed)]
        self._certificates: dict[int, object] = {}
        # Final-step certificates (section 8.3): proof that a round's
        # block was designated final — one suffices to establish safety
        # of the whole prefix.
        self._final_certificates: dict[int, object] = {}
        self._state = ArrayState(initial_balances, index=index)
        self._seeds = SeedChain(genesis_seed, seed_refresh_interval)
        # Per-round weight snapshots (index == round number), supporting
        # the section 5.3 weight look-back. Entries are the *shared*
        # frozen mappings state.weights() caches — rounds without
        # balance changes alias one snapshot object.
        self._weight_history: list[ArrayWeights] = [self._state.weights()]

    # --- Read API ---------------------------------------------------------

    @property
    def blocks(self) -> tuple[Block, ...]:
        return tuple(self._blocks)

    @property
    def initial_balances(self) -> ArrayWeights:
        """Genesis balances — what a bootstrapping user starts from: the
        round-0 snapshot itself, frozen and shared, never a copy."""
        return self._weight_history[0]

    @property
    def index(self) -> AccountIndex:
        """The key -> slot registry this chain's state resolves through."""
        return self._state.index

    @property
    def genesis_seed(self) -> bytes:
        return self._genesis_seed

    @property
    def height(self) -> int:
        """Number of agreed rounds (genesis not counted)."""
        return len(self._blocks) - 1

    @property
    def next_round(self) -> int:
        return len(self._blocks)

    @property
    def tip_hash(self) -> bytes:
        return self._blocks[-1].block_hash

    @property
    def state(self) -> ArrayState:
        return self._state

    def block_at(self, round_number: int) -> Block:
        try:
            return self._blocks[round_number]
        except IndexError:
            raise LedgerError(f"no block for round {round_number}") from None

    def certificate_at(self, round_number: int) -> object | None:
        return self._certificates.get(round_number)

    def final_certificate_at(self, round_number: int) -> object | None:
        return self._final_certificates.get(round_number)

    def set_final_certificate(self, round_number: int,
                              certificate: object) -> None:
        """Record a final-step certificate for an already-agreed round."""
        if round_number > self.height:
            raise LedgerError(
                f"no block at round {round_number} to certify")
        self._final_certificates[round_number] = certificate

    def latest_final_round(self) -> int | None:
        """Most recent round holding a final certificate (or None)."""
        if not self._final_certificates:
            return None
        return max(self._final_certificates)

    def selection_seed(self, round_number: int) -> bytes:
        """Seed for sortition at ``round_number`` (refresh-interval rule)."""
        return self._seeds.selection_seed(round_number)

    def seed_of_round(self, round_number: int) -> bytes:
        return self._seeds.seed_of_round(round_number)

    def weights_at(self, round_number: int) -> ArrayWeights:
        """Weight table as of the end of ``round_number`` (0 == genesis).

        Backs the section 5.3 look-back: sortition may be evaluated
        against an older snapshot so an adversary acquiring stake cannot
        immediately influence committee selection. The returned mapping
        is the *shared immutable* snapshot itself (no per-caller copy);
        every consumer — contexts, recovery, catch-up, the stake pool —
        reads the same object.
        """
        try:
            return self._weight_history[round_number]
        except IndexError:
            raise LedgerError(
                f"no weight snapshot for round {round_number}") from None

    def last_nonempty_timestamp(self) -> float:
        for block in reversed(self._blocks):
            if not block.is_empty:
                return block.timestamp
        # No real block yet (only genesis/empties): no lower bound.
        return float("-inf")

    # --- Write API --------------------------------------------------------

    def append(self, block: Block, certificate: object | None = None,
               seed_override: bytes | None = None) -> None:
        """Append an agreed block and advance state and seeds.

        ``seed_override`` supplies the round seed when the block is empty
        or its embedded seed was rejected; if omitted, the canonical
        ``H(seed_{r-1} || r)`` fallback is used for empty blocks.
        """
        expected_round = self.next_round
        if block.round_number != expected_round:
            raise LedgerError(
                f"appending round {block.round_number}, expected "
                f"{expected_round}"
            )
        if block.prev_hash != self.tip_hash:
            raise LedgerError("block does not extend the current tip")
        self._state.apply_all(block.transactions)
        if seed_override is not None:
            next_seed = seed_override
        elif block.seed is not None:
            next_seed = block.seed
        else:
            next_seed = fallback_seed(
                self._seeds.seed_of_round(expected_round - 1)
                if expected_round > 0 else self._genesis_seed,
                expected_round,
            )
        self._seeds.append(next_seed)
        self._blocks.append(block)
        self._weight_history.append(self._state.weights())
        if certificate is not None:
            self._certificates[expected_round] = certificate

    def fork_from(self, blocks: Iterable[Block]) -> "Blockchain":
        """Build a fresh chain from genesis using ``blocks`` (rounds 1..n).

        Used when recovery decides a different fork wins: state and seeds
        are recomputed from scratch, validating linkage along the way.
        """
        clone = Blockchain(self.initial_balances, self._genesis_seed,
                           self._seeds.refresh_interval, index=self.index)
        for block in blocks:
            clone.append(block)
        return clone

    def replica(self) -> "Blockchain":
        """Cheap same-tip clone for materializing a new agent.

        Where :meth:`fork_from` replays every block from genesis (O(r)
        transaction re-application), a replica copies the derived views
        directly: block/seed lists are shared-ref copies, weight-history
        entries are the same frozen snapshots, and ``state.copy()``
        shares the balance buffer until one side commits a payment:
        O(rounds), nothing O(accounts). The clone is independent —
        appends to either chain never touch the other — and
        byte-identical to what a genesis replay would produce.
        """
        clone = Blockchain.__new__(Blockchain)
        clone._genesis_seed = self._genesis_seed
        clone._blocks = list(self._blocks)
        clone._certificates = dict(self._certificates)
        clone._final_certificates = dict(self._final_certificates)
        clone._state = self._state.copy()
        clone._seeds = self._seeds.copy()
        clone._weight_history = list(self._weight_history)
        return clone
