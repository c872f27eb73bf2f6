"""BA* vote messages (Algorithm 4).

A committee member's vote is a signed tuple
``(round, step, sorthash, pi, H(last_block), value)`` together with the
voter's public key. The sortition hash/proof establishes committee
membership and vote multiplicity; the previous-block hash binds the vote
to one chain (votes from other forks are discarded, section 8.2); the
value is the block hash being voted for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.common.encoding import encode
from repro.crypto.backend import CryptoBackend
from repro.crypto.hashing import HASHLEN_BITS, hash_state
from repro.sortition.roles import committee_role
from repro.sortition.selection import verify_sort

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baplus.context import BAContext

#: One past the largest possible coin hash (Algorithm 9 sentinel).
COIN_HASH_CEILING = 1 << HASHLEN_BITS


def coin_min_hash(sorthash: bytes, weight: int) -> int:
    """Algorithm 9's per-vote coin contribution: min H(sorthash || j).

    One hash per selected sub-user, each finished from one state that
    has absorbed ``sorthash``. Digests of one width order as their
    integers do, so the minimum is taken over bytes and converted once.
    Weight 0 contributes nothing (the ceiling).
    """
    if weight <= 0:
        return COIN_HASH_CEILING
    prefix = hash_state(sorthash)
    best = None
    for j in range(1, weight + 1):
        state = prefix.copy()
        state.update(j.to_bytes(8, "big"))
        digest = state.digest()
        if best is None or digest < best:
            best = digest
    return int.from_bytes(best, "big")


@dataclass(frozen=True)
class VoteMessage:
    """One committee member's vote for ``value`` at ``(round, step)``.

    A vote is immutable and every layer it passes through — admission,
    the vote handler, the relay damper, each ``CountVotes`` pass, the
    common coin, certificate building — asks the same three questions
    of it, so the instance carries its *receipts*: the canonical signing
    payload, the signature verdict, and the committee weight ``j`` with
    the Algorithm 9 coin minimum for that ``j``. The signature verdict
    depends on the bytes alone. The weight is asked under a round
    context, and a deployment holds one context object per tip (see
    :meth:`repro.node.agent.Node._current_context`), so :meth:`weigh`
    first reads a receipt keyed by that *object* — no weight-table
    lookup, no comparison of seeds — and only on a miss the one keyed
    by the full sortition context ``(seed, tau, weight, total_weight)``
    (the role is fixed by the vote's own ``(round, step)``): a node on
    another tip gets another context object, and a context with another
    seed or weight table recomputes instead of inheriting. Admission
    weighs an arriving copy once and hands its verdict to the handler
    and the damper; every node's counts then read the receipt, so a
    vote is weighed once per tip per deployment. Receipts live on the
    instance, outside the dataclass fields: a forged copy, a decoded
    copy and ``dataclasses.replace(vote, ...)`` all start with none, and
    a vote nobody could weigh (future round, foreign tip, recovery
    round) is never given a weight receipt because nobody asks for one.
    """

    voter: bytes
    round_number: int
    step: str
    sorthash: bytes
    sortproof: bytes
    prev_hash: bytes
    value: bytes
    signature: bytes = field(default=b"", compare=False)

    # No receipt yet: class-level defaults (not dataclass fields) that an
    # instance's own receipts shadow.
    _signing_payload = None
    _signature_valid = None
    _weight_receipt = None
    _context_receipt = None
    _coin_receipt = None

    def _remember(self, slot: str, receipt: Any) -> None:
        # Frozen dataclass: bypass __setattr__.
        object.__setattr__(self, slot, receipt)

    def signing_payload(self) -> bytes:
        cached = self._signing_payload
        if cached is None:
            cached = encode([
                "vote", self.round_number, self.step, self.sorthash,
                self.sortproof, self.prev_hash, self.value,
            ])
            self._remember("_signing_payload", cached)
        return cached

    def verify_signature(self, backend: CryptoBackend) -> bool:
        valid = self._signature_valid
        if valid is None:
            valid = backend.is_valid_signature(
                self.voter, self.signing_payload(), self.signature)
            self._remember("_signature_valid", valid)
        return valid

    def committee_votes(self, backend: CryptoBackend, seed: bytes,
                        tau: float, weight: int, total_weight: int) -> int:
        """Section 5.2's ``VerifySort`` for this vote's committee.

        The sub-user count ``j`` (0: not selected, or a bad proof) under
        the given sortition context. First sight — or a changed context —
        runs :func:`~repro.sortition.selection.verify_sort`.
        """
        receipt = self._weight_receipt
        if (receipt is not None and receipt[0] == seed
                and receipt[1] == tau and receipt[2] == weight
                and receipt[3] == total_weight):
            return receipt[4]
        role = committee_role(self.round_number, self.step)
        j = verify_sort(backend, self.voter, self.sorthash, self.sortproof,
                        seed, tau, role, weight, total_weight)
        self._remember("_weight_receipt",
                       (seed, tau, weight, total_weight, j))
        return j

    def weigh(self, backend: CryptoBackend, ctx: "BAContext",
              tau: float) -> int:
        """:meth:`committee_votes` under round context ``ctx``.

        Read from the receipt this vote holds for the ``ctx`` *object*
        when there is one, else computed — the voter's weight looked up
        in ``ctx`` — through the content-keyed receipt, and remembered
        for ``ctx``.
        """
        receipt = self._context_receipt
        if receipt is not None and receipt[0] is ctx and receipt[1] == tau:
            return receipt[2]
        j = self.committee_votes(backend, ctx.seed, tau,
                                 ctx.weight_of(self.voter), ctx.total_weight)
        self._remember("_context_receipt", (ctx, tau, j))
        return j

    def coin_hash(self, votes: int) -> int:
        """Algorithm 9 minimum over this vote's ``votes`` sub-users."""
        if votes <= 0:  # unweighed: contributes nothing, remembers nothing
            return COIN_HASH_CEILING
        receipt = self._coin_receipt
        if receipt is None or receipt[0] != votes:
            receipt = (votes, coin_min_hash(self.sorthash, votes))
            self._remember("_coin_receipt", receipt)
        return receipt[1]


def make_vote(backend: CryptoBackend, secret: bytes, voter: bytes,
              round_number: int, step: str, sorthash: bytes,
              sortproof: bytes, prev_hash: bytes,
              value: bytes) -> VoteMessage:
    """Build and sign a vote."""
    unsigned = VoteMessage(
        voter=voter, round_number=round_number, step=step,
        sorthash=sorthash, sortproof=sortproof, prev_hash=prev_hash,
        value=value,
    )
    signature = backend.sign(secret, unsigned.signing_payload())
    return VoteMessage(
        voter=voter, round_number=round_number, step=step,
        sorthash=sorthash, sortproof=sortproof, prev_hash=prev_hash,
        value=value, signature=signature,
    )
