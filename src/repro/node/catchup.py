"""Catch-up: section 8.3, offline and over gossip, on either substrate.

A joining or lagging user downloads the block history with its
certificates and validates everything *in order* starting from the
genesis block: the weights used to check round ``r``'s certificate come
from the state after round ``r - 1``, and the sortition seed comes from
the replayed seed chain (:func:`replay_chain`). Final blocks are totally
ordered, so checking safety needs only the most recent final certificate
(:func:`verify_final_safety`).

:class:`ChainSync` runs that replay as a request/response pair of gossip
kinds, written against the substrate API — the node's clock
(``now``/``schedule``) and transport (``broadcast``/``disconnected``) —
so the same object serves a live process and a simulation:

* ``"chainreq"`` (:class:`ChainRequest`) — a node that believes it has
  fallen behind floods its height; requests relay, so a helper beyond
  the requester's direct neighbors still hears it on a partial mesh.
* ``"chain"`` (:class:`ChainAnnouncement`) — any peer strictly ahead
  answers with its full history + certificates (throttled). The
  receiver replays it from genesis, every certificate checked, and
  **stashes** the validated replica; the round loop adopts it from
  ``node.catchup`` at the next boundary or after a ConsensusHalted, so
  the reference machine sees a legal ``catchup_adopted``.

It is the only catch-up, on either substrate: a live process builds
one always, a simulation one per core node whenever it injects faults.
A node asks in the two waits it runs for it (before a restarted node's
first round, and after a round without consensus) and, while its run is
in progress and nothing is stashed, when a periodic probe says it lags:
some step two or more rounds ahead holds a quorum of committee votes,
weighed by sortition under the seed the node already holds (pipelining
runs one ahead; a spammer's undecidable far-future votes never weigh
in, Conti et al. in PAPERS.md), or its height stood still for a whole
worst-case round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.baplus.certificate import (
    Certificate,
    step_parameters,
    verify_certificate,
    votes_needed,
)
from repro.common.errors import InvalidCertificate, LedgerError
from repro.common.params import ProtocolParams
from repro.crypto.backend import CryptoBackend
from repro.ledger.arraystate import AccountIndex
from repro.ledger.block import Block
from repro.ledger.blockchain import Blockchain
from repro.network.message import Envelope
from repro.node.agent import history_context, sortition_weights
from repro.sortition.roles import RECOVERY_ROUND_BASE
from repro.sortition.seed import accepted_seed, selection_round

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
    """A lagging peer's plea: anyone strictly ahead of ``height``, announce."""

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
    """Request/response catch-up bound to one node, as ``node.catchup``.

    Timings derive from ``node.params``: probe and polls every
    ``max(0.25, λ_step / 2)``, one request and one answer per ``λ_step``,
    a stall after ``round_budget``, a rejoin wait of ``6 λ_step``.
    """

    #: Polls of the stash after a ConsensusHalted before the halt stands.
    halt_polls = 60

    def __init__(self, node: "Node") -> None:
        params = node.params
        self.node = node
        self.clock: "Clock" = node.env
        self.transport: "Transport" = node.interface
        self.poll_interval = max(0.25, params.lambda_step / 2)
        self.cooldown = params.lambda_step
        self.stall_after = params.round_budget
        self.rejoin_polls = math.ceil(6 * params.lambda_step
                                      / self.poll_interval)
        self._last_height = node.chain.height
        self._last_progress = self.clock.now
        #: Validated, strictly-longer replica awaiting adoption at the
        #: next round boundary (or a poll of one of the node's waits).
        self.pending: Blockchain | None = None
        self.served = 0
        self.adopted = 0
        self.rejected = 0
        self.requests_sent = 0
        self._last_serve = float("-inf")
        self._last_request = float("-inf")
        node.router.register("chain", self._on_announcement)
        node.router.register("chainreq", self._on_request)
        node.catchup = self
        self._probe = self.clock.schedule(self.poll_interval,
                                          self._lag_probe)

    def close(self) -> None:
        """Detach from the node: no handlers, no catch-up, no probe."""
        self.node.router.unregister("chain")
        self.node.router.unregister("chainreq")
        self.node.catchup = None
        self._probe.cancel()

    def stats(self) -> dict[str, int]:
        return {"catchup_served": self.served,
                "catchup_adopted": self.adopted,
                "catchup_requests": self.requests_sent}

    # -- requesting ------------------------------------------------------

    def request(self) -> None:
        """Flood a catch-up request (throttled)."""
        now = self.clock.now
        if now - self._last_request < self.cooldown:
            return
        self._last_request = now
        # Only peers ahead of what we hold, the stash included, answer.
        height = self.node.chain.height
        if self.pending is not None:
            height = max(height, self.pending.height)
        request = ChainRequest(height=height)
        self.transport.broadcast(Envelope(
            origin=self.node.keypair.public, kind="chainreq",
            payload=request, size=request.size))
        self.requests_sent += 1

    def _lag_probe(self) -> None:
        """Request when a quorum ahead or a flat height says we lag.

        Only a run in progress lags (otherwise the stall clock resets),
        and a stashed replica is adopted, not asked for again. Peers at
        the same height ignore the request, so a caught-up cluster pays
        a trickle of control traffic. A disconnected node (crashed, or
        in a ``dos`` window) skips the request but keeps probing: only
        :meth:`close` ends the probe.
        """
        node, now = self.node, self.clock.now
        if node.chain.height != self._last_height or not node.running:
            self._last_height = node.chain.height
            self._last_progress = now
        elif self.pending is None and not self.transport.disconnected and (
                now - self._last_progress >= self.stall_after
                or self._quorum_from(node.chain.next_round + 2)):
            self.request()
        self._probe = self.clock.schedule(self.poll_interval,
                                          self._lag_probe)

    def _quorum_from(self, round_number: int) -> bool:
        """A step of ``round_number`` or later holds ``T·τ`` committee
        votes from distinct voters, weighed by sortition under the seed
        this node holds (section 5.2's look-back) and its own weights: a
        committee's bar at any deployment size, which junk or minority
        sortition never clears. A seed past the tip (just after a refresh
        boundary) leaves the round to the stall detector; ``j`` never
        exceeds the voter's weight, so a bucket short of a quorum's stake
        goes unweighed."""
        node = self.node
        chain, params = node.chain, node.params
        weights = sortition_weights(chain, params, chain.next_round)
        for (ahead, step), bucket in node.buffer.buckets_between(
                round_number, RECOVERY_ROUND_BASE):
            needed = votes_needed(step, params)
            voters = {vote.voter: vote for vote in bucket}
            if (selection_round(ahead, params.seed_refresh_interval)
                    > chain.height or sum(map(weights.get, voters)) < needed):
                continue
            seed = chain.selection_seed(ahead)
            tau, _ = step_parameters(step, params)
            if sum(vote.committee_votes(node.backend, seed, tau,
                                        weights.get(voter), weights.total)
                   for voter, vote in voters.items()) >= needed:
                return True
        return False

    # -- serving ---------------------------------------------------------

    def _on_request(self, request: ChainRequest) -> bool:
        if self.node.chain.height > request.height:
            now = self.clock.now
            if now - self._last_serve >= self.cooldown:
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
        """What the node adopts: the stashed replica, if longer."""
        replica = self.pending
        self.pending = None
        if replica is not None and replica.height > self.node.chain.height:
            self.adopted += 1
            return replica
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
