"""Catch-up: section 8.3, offline and over gossip, on either substrate.

A joining or lagging user downloads the block history with its
certificates and validates everything *in order* starting from the
genesis block: the weights used to check round ``r``'s certificate come
from the state after round ``r - 1``, and the sortition seed comes from
the replayed seed chain (:func:`replay_chain`). Final blocks are totally
ordered, so checking safety needs only the most recent final certificate
(:func:`verify_final_safety`).

:class:`ChainSync` runs that replay as a request/response pair of gossip
kinds, written against the substrate API (``clock.now``/``schedule``,
``transport.broadcast``/``disconnected``) so the same object serves a
live process and a virtual-time test:

* ``"chainreq"`` (:class:`ChainRequest`) — a node that believes it has
  fallen behind floods its height; requests relay, so a helper beyond
  the requester's direct neighbors still hears it on a partial mesh.
* ``"chain"`` (:class:`ChainAnnouncement`) — any peer strictly ahead
  answers with its full history + certificates (throttled). The
  receiver replays it from genesis, every certificate checked, and
  **stashes** the validated replica; the round loop adopts it at the
  next boundary or ConsensusHalted via the standard ``node.resync``
  hook, so the reference machine sees a legal ``catchup_adopted``.

Falling behind is detected three ways: an explicit
:meth:`ChainSync.request` at rejoin, a periodic lag probe watching the
vote buffer for rounds two or more ahead of our own (pipelining
legitimately runs one round ahead), and a stall detector in the same
probe — a node whose height has not moved for ``stall_after`` seconds
starts requesting outright, which covers the case where every peer is
already done (no fresh votes to betray the lag) and the ConsensusHalted
patience loop is polling an empty stash.

The sim chaos runner still rejoins crashed nodes through
:func:`resync_from_peers`, which reads peer ``Node`` objects directly —
a luxury a real process does not have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.baplus.certificate import Certificate, verify_certificate
from repro.common.errors import InvalidCertificate, LedgerError
from repro.common.params import ProtocolParams
from repro.crypto.backend import CryptoBackend
from repro.ledger.arraystate import AccountIndex
from repro.ledger.block import Block
from repro.ledger.blockchain import Blockchain
from repro.network.message import Envelope
from repro.node.agent import history_context
from repro.sortition.roles import RECOVERY_ROUND_BASE
from repro.sortition.seed import accepted_seed

if TYPE_CHECKING:
    from repro.node.agent import Node
    from repro.substrate.api import Clock, Transport


def replay_chain(blocks: Iterable[Block],
                 certificates: Mapping[int, Certificate],
                 *, initial_balances: Mapping[bytes, int],
                 genesis_seed: bytes, params: ProtocolParams,
                 backend: CryptoBackend,
                 index: AccountIndex | None = None) -> Blockchain:
    """Validate a downloaded history and return the reconstructed chain.

    Args:
        blocks: the chain's blocks for rounds ``1..n``, in order.
        certificates: one certificate per round (at minimum for every
            round being trusted; a missing certificate fails validation).
        index: the account index to replay onto — the caller's own
            chain's, when the result may replace it.

    Raises:
        InvalidCertificate: if any round's certificate does not verify
            against the replayed context.
        LedgerError: if blocks do not link or transactions do not apply.
    """
    chain = Blockchain(initial_balances, genesis_seed,
                       params.seed_refresh_interval, index=index)
    for block in blocks:
        round_number = chain.next_round
        if block.round_number != round_number:
            raise LedgerError(
                f"history out of order: got round {block.round_number}, "
                f"expected {round_number}"
            )
        certificate = certificates.get(round_number)
        if certificate is None:
            raise InvalidCertificate(f"no certificate for round "
                                     f"{round_number}")
        if certificate.value != block.block_hash:
            raise InvalidCertificate(
                f"round {round_number}: certificate certifies a different "
                f"block"
            )
        verify_certificate(certificate, history_context(chain, round_number),
                           backend, params)
        chain.append(block, certificate, seed_override=accepted_seed(
            backend, block, chain.seed_of_round(round_number - 1),
            round_number))
    return chain


def verify_final_safety(chain: Blockchain, *, backend: CryptoBackend,
                        params: ProtocolParams) -> int | None:
    """Verify the most recent final certificate on ``chain``.

    Section 8.3: "Since final blocks are totally ordered, users need to
    check the safety of only the most recent block." This helper finds
    the newest round carrying a final certificate, reconstructs that
    round's context from the chain's own snapshots (weights of the
    previous round, the selection seed, the previous tip), verifies the
    certificate, and returns the round number — every block at or before
    it is then final. Returns ``None`` when no final certificate is held.

    Raises:
        InvalidCertificate: if the stored certificate does not verify —
            the chain's finality claim is bogus.
    """
    round_number = chain.latest_final_round()
    if round_number is None:
        return None
    certificate = chain.final_certificate_at(round_number)
    if not isinstance(certificate, Certificate) or not certificate.is_final:
        raise InvalidCertificate("stored final certificate is malformed")
    if certificate.value != chain.block_at(round_number).block_hash:
        raise InvalidCertificate(
            "final certificate certifies a different block")
    verify_certificate(certificate, history_context(chain, round_number),
                       backend, params)
    return round_number


@dataclass(frozen=True)
class ChainAnnouncement:
    """A peer's advertised history: blocks plus their certificates."""

    blocks: tuple[Block, ...]  # rounds 1..n, in order
    certificates: Mapping[int, Certificate]

    @property
    def length(self) -> int:
        return len(self.blocks)

    @property
    def size(self) -> int:
        return 200 + sum(block.size for block in self.blocks)


@dataclass(frozen=True)
class ChainRequest:
    """A lagging peer's plea: anyone strictly ahead of ``height``, announce.

    The request/response half of live catch-up: a node that detects it
    has fallen behind (buffered future-round votes, a healed partition,
    a fresh rejoin) floods a ``"chainreq"``; any peer whose chain is
    longer answers with a ``"chain"`` announcement. Requests relay, so
    they reach helpers beyond the requester's direct neighbors on a
    partial mesh.
    """

    height: int

    @property
    def size(self) -> int:
        return 64  # fixed header-sized control message


def build_announcement(chain: Blockchain) -> ChainAnnouncement:
    """Extract a :class:`ChainAnnouncement` from a replica's own chain."""
    certificates: dict[int, Certificate] = {}
    for block in chain.blocks[1:]:
        certificate = chain.certificate_at(block.round_number)
        if isinstance(certificate, Certificate):
            certificates[block.round_number] = certificate
    return ChainAnnouncement(blocks=chain.blocks[1:],
                             certificates=certificates)


class ChainSync:
    """Request/response catch-up bound to one node."""

    def __init__(self, node: "Node", clock: "Clock",
                 transport: "Transport", *,
                 check_interval: float = 0.5,
                 serve_cooldown: float = 1.0,
                 request_cooldown: float = 1.0,
                 stall_after: float = 10.0) -> None:
        self.node = node
        self.clock = clock
        self.transport = transport
        self.check_interval = check_interval
        self.serve_cooldown = serve_cooldown
        self.request_cooldown = request_cooldown
        self.stall_after = stall_after
        self._last_height = node.chain.height
        self._last_progress = clock.now
        #: Validated, strictly-longer replica awaiting adoption at the
        #: next round boundary (or ConsensusHalted retry).
        self.pending: Blockchain | None = None
        self.served = 0
        self.adopted = 0
        self.rejected = 0
        self.requests_sent = 0
        self._last_serve = float("-inf")
        self._last_request = float("-inf")
        node.router.register("chain", self._on_announcement)
        node.router.register("chainreq", self._on_request)
        node.resync = self.take_pending
        self._probe = clock.schedule(check_interval, self._lag_probe)

    def close(self) -> None:
        """Detach from the node: no handlers, no hook, no probe."""
        self.node.router.unregister("chain")
        self.node.router.unregister("chainreq")
        self.node.resync = None
        self._probe.cancel()

    def stats(self) -> dict[str, int]:
        return {"catchup_served": self.served,
                "catchup_adopted": self.adopted,
                "catchup_requests": self.requests_sent}

    # -- requesting ------------------------------------------------------

    def request(self) -> None:
        """Flood a catch-up request (throttled)."""
        now = self.clock.now
        if now - self._last_request < self.request_cooldown:
            return
        self._last_request = now
        request = ChainRequest(height=self.node.chain.height)
        self.transport.broadcast(Envelope(
            origin=self.node.keypair.public, kind="chainreq",
            payload=request, size=request.size))
        self.requests_sent += 1

    def _lag_probe(self) -> None:
        """Request when the vote buffer or a flat height says we lag.

        Peers at the same height simply ignore the request, so a
        fully-caught-up cluster only pays a trickle of control traffic.
        A disconnected node (crashed, or inside a ``dos`` window) skips
        the request but keeps probing: only :meth:`close` ends the probe.
        """
        if not self.transport.disconnected:
            height = self.node.chain.height
            if height != self._last_height:
                self._last_height = height
                self._last_progress = self.clock.now
            ahead = max(
                (round_number
                 for round_number in self.node.buffer.rounds_buffered()
                 if round_number < RECOVERY_ROUND_BASE),
                default=0)
            stalled = (self.clock.now - self._last_progress
                       >= self.stall_after)
            if ahead >= self.node.chain.next_round + 2 or stalled:
                self.request()
        self._probe = self.clock.schedule(self.check_interval,
                                          self._lag_probe)

    # -- serving ---------------------------------------------------------

    def _on_request(self, request: ChainRequest) -> bool:
        if self.node.chain.height > request.height:
            now = self.clock.now
            if now - self._last_serve >= self.serve_cooldown:
                self._last_serve = now
                self.announce()
        return True  # relay: helpers beyond our neighbors may be longer

    def announce(self) -> None:
        """Broadcast this node's chain for lagging peers to replay."""
        announcement = build_announcement(self.node.chain)
        self.transport.broadcast(Envelope(
            origin=self.node.keypair.public, kind="chain",
            payload=announcement, size=announcement.size))
        self.served += 1

    # -- receiving -------------------------------------------------------

    def _on_announcement(self, announcement: ChainAnnouncement) -> bool:
        node = self.node
        if announcement.length <= node.chain.height:
            # Nothing to learn, but keep the flood alive for lagging
            # peers beyond the announcer's neighborhood — provided the
            # history checks out. Hash chaining makes that cheap: an
            # announced tip equal to our own block at that height means
            # the whole announced prefix is ours.
            return bool(
                announcement.blocks
                and (announcement.blocks[-1].block_hash
                     == node.chain.block_at(announcement.length).block_hash)
            )
        if (self.pending is not None
                and announcement.length <= self.pending.height):
            return True  # already holding something at least as long
        try:
            replayed = replay_chain(
                announcement.blocks, announcement.certificates,
                initial_balances=node.chain.initial_balances,
                genesis_seed=node.chain.genesis_seed,
                params=node.params, backend=node.backend,
                index=node.chain.index,
            )
        except (InvalidCertificate, LedgerError):
            self.rejected += 1
            return False  # never relay a history that failed validation
        self.pending = replayed
        return True

    def take_pending(self) -> Blockchain | None:
        """``node.resync`` hook: hand over the stashed replica, if longer."""
        replica = self.pending
        self.pending = None
        if replica is not None and replica.height > self.node.chain.height:
            self.adopted += 1
            return replica
        return None


def resync_from_peers(node: "Node",
                      peers: Iterable["Node"]) -> Blockchain | None:
    """Crash-rejoin catch-up: replay the longest valid peer chain.

    Scans ``peers`` for the longest chain strictly ahead of ``node``'s,
    then replays it from genesis with full certificate verification
    (:func:`replay_chain` via :func:`catch_up_from`) — a rejoining user
    trusts nothing it did not check. Returns the validated replica, or
    ``None`` when no peer is ahead or the best candidate fails
    validation. Designed to be bound as ``node.resync`` (consulted by
    the round loop at round boundaries and after a stalled round).
    """
    best: Blockchain | None = None
    for peer in peers:
        if peer is node or getattr(peer, "crashed", False):
            continue
        chain = peer.chain
        if chain.height > node.chain.height and (
                best is None or chain.height > best.height):
            best = chain
    if best is None:
        return None
    try:
        return catch_up_from(
            best, params=node.params, backend=node.backend,
            initial_balances=node.chain.initial_balances,
            genesis_seed=node.chain.genesis_seed, index=node.chain.index,
        )
    except (InvalidCertificate, LedgerError):
        return None


def catch_up_from(node_chain: Blockchain, *, params: ProtocolParams,
                  backend: CryptoBackend,
                  initial_balances: Mapping[bytes, int],
                  genesis_seed: bytes,
                  index: AccountIndex | None = None) -> Blockchain:
    """Bootstrap a fresh replica from another node's chain + certificates.

    Convenience wrapper used in tests and examples: extracts blocks and
    certificates from an existing replica and replays them as a new user
    would.
    """
    announcement = build_announcement(node_chain)
    return replay_chain(
        announcement.blocks, announcement.certificates,
        initial_balances=initial_balances, genesis_seed=genesis_seed,
        params=params, backend=backend, index=index,
    )
