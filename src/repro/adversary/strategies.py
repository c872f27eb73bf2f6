"""Byzantine node strategies (section 10.4's evaluated attack and friends).

The paper's misbehaving-user experiment (Figure 8) combines two behaviors:

* the highest-priority **proposer equivocates**, sending one version of
  its block to half of its peers and a different version to the rest;
* malicious **committee members vote for both** versions in every BA*
  step.

:class:`EquivocatingProposerNode` and :class:`DoubleVotingNode` implement
these; :class:`MaliciousNode` combines them (and is what the Figure 8
experiment deploys). All strategies still track the honest chain — a
Byzantine node that loses the chain stops being able to attack.
"""

from __future__ import annotations

from repro.baplus.messages import VoteMessage, make_vote
from repro.chaos.faults import junk_vote_loop
from repro.crypto.hashing import H
from repro.ledger.block import Block, empty_block_hash
from repro.network.message import block_envelope, priority_envelope, vote_envelope
from repro.node.agent import Node
from repro.node.proposal import ProposalTracker, make_priority_message


class EquivocatingProposerNode(Node):
    """Proposes two conflicting block versions to disjoint peer halves."""

    def propose_block(self, round_number: int, ctx, proof,
                      tracker: ProposalTracker) -> None:
        base = self.assemble_block(round_number, proof)
        # Version B drops the last transaction (or, if empty, differs by
        # timestamp) so the two blocks hash differently but both validate.
        if base.transactions:
            alt_txs = base.transactions[:-1]
        else:
            alt_txs = base.transactions
        variant = Block(
            round_number=base.round_number, prev_hash=base.prev_hash,
            timestamp=base.timestamp + 1e-6, seed=base.seed,
            seed_proof=base.seed_proof, proposer=base.proposer,
            proposer_vrf_hash=base.proposer_vrf_hash,
            proposer_vrf_proof=base.proposer_vrf_proof,
            proposer_priority=base.proposer_priority,
            transactions=alt_txs,
        )
        self.registry.register(base)
        self.registry.register(variant)
        announcement = make_priority_message(self.keypair.public,
                                             round_number, proof)
        self._seen_priorities.add((self.keypair.public, round_number))
        tracker.observe_priority(announcement, self.env)
        # The attacker itself tracks version A (it must keep a chain).
        tracker.observe_block(base, self.env)
        self.interface.broadcast(
            priority_envelope(self.keypair.public, announcement))
        neighbors = self.interface.neighbors
        half = len(neighbors) // 2
        self.interface.send_to(
            block_envelope(self.keypair.public, base, base.size),
            neighbors[:half])
        self.interface.send_to(
            block_envelope(self.keypair.public, variant, variant.size),
            neighbors[half:])


class DoubleVotingNode(Node):
    """Votes for two conflicting values in every BA* step.

    Each committee vote the honest code path would send is paired with a
    second, conflicting vote carrying the same (valid!) sortition proof,
    and the two are pushed to disjoint peer halves. Honest nodes count
    only the first vote they see per voter, so this splits the honest
    vote count between values — the strongest thing a committee member
    can do without forging sortition.
    """

    def _conflicting_value(self, vote: VoteMessage) -> bytes:
        empty = empty_block_hash(vote.round_number, vote.prev_hash)
        if vote.value != empty:
            return empty
        return H(b"equivocation", vote.prev_hash)

    def _gossip_vote(self, vote: VoteMessage) -> None:
        second = make_vote(
            self.backend, self.keypair.secret, self.keypair.public,
            vote.round_number, vote.step, vote.sorthash, vote.sortproof,
            vote.prev_hash, self._conflicting_value(vote),
        )
        self._seen_votes.add((vote.voter, vote.round_number, vote.step))
        self.buffer.add(vote)
        neighbors = self.interface.neighbors
        half = len(neighbors) // 2
        self.interface.send_to(vote_envelope(self.keypair.public, vote),
                               neighbors[:half])
        self.interface.send_to(vote_envelope(self.keypair.public, second),
                               neighbors[half:])


class MaliciousNode(DoubleVotingNode, EquivocatingProposerNode):
    """The full section 10.4 adversary: equivocate + double-vote."""


class _JunkVoter(Node):
    """Honest in everything but a background loop of junk votes.

    The loop (:func:`repro.chaos.faults.junk_vote_loop`, shared with the
    chaos ``flood``/``spam`` faults) is counter-based — no RNG — so runs
    stay deterministic.
    """

    junk_kind = ""
    junk_batch = 0
    junk_interval = 0.5

    def start(self, target_height: int) -> None:
        junk_vote_loop(self, self.junk_kind, self.junk_batch,
                       self.junk_interval, delay=self.junk_interval)
        super().start(target_height)


class FloodingNode(_JunkVoter):
    """Sprays invalid-signature votes at the network (link-level DoS).

    The junk is cheap to make and cheap to reject — the point is volume:
    without admission control every copy is relayed network-wide and
    buffered forever; with it, each neighbor rejects the votes at
    ingress (never relaying them), scores this node, and eventually
    quarantines it. Otherwise behaves honestly, so the attack isolates
    the flooding dimension.
    """

    junk_kind = "flood"
    junk_batch = 48


class SpamVoteNode(_JunkVoter):
    """Floods validly *signed* votes for far-future rounds.

    The "undecidable messages" DoS of PAPERS.md: each vote carries a real
    signature but claims a round no receiver can validate yet, so it
    passes signature checks and must be buffered on the off-chance it
    becomes relevant. Bounded vote buffers with future-first eviction
    plus the per-origin flood budget are the countermeasures this node
    exists to exercise.
    """

    junk_kind = "spam"
    junk_batch = 16


class SilentNode(Node):
    """A fail-stop node: never proposes, never votes (offline stake).

    Used by liveness-margin experiments: BA* tolerates silent weight as
    long as the remaining honest committee clears the vote threshold.
    """

    def propose_block(self, round_number: int, ctx, proof, tracker) -> None:
        return

    def _gossip_vote(self, vote: VoteMessage) -> None:
        return
