"""Block certificates (section 8.3, "Bootstrapping new users").

A certificate for a round is an aggregate of votes from the deciding step
of BinaryBA* sufficient to let anyone re-derive the agreement:
``floor(T * tau) + 1`` valid committee votes for the same value, round and
step. Users validate certificates exactly as live nodes validate votes
(Algorithm 6): signature, chain binding, and sortition proof.

A *final certificate* (step == "final") additionally proves safety of the
block: it uses the final-step committee parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baplus.buffer import VoteBuffer
from repro.baplus.context import BAContext
from repro.baplus.messages import VoteMessage
from repro.baplus.voting import process_msg
from repro.common.errors import InvalidCertificate
from repro.common.params import ProtocolParams
from repro.sortition.roles import FINAL_STEP


def step_parameters(step: str, params: ProtocolParams) -> tuple[float, float]:
    """(tau, T) in force for ``step``."""
    if step == FINAL_STEP:
        return params.tau_final, params.t_final
    return params.tau_step, params.t_step


def votes_needed(step: str, params: ProtocolParams) -> int:
    """Minimum vote weight for a valid certificate: floor(T * tau) + 1."""
    tau, threshold = step_parameters(step, params)
    return math.floor(threshold * tau) + 1


@dataclass(frozen=True)
class Certificate:
    """Verifiable evidence that a round agreed on ``value``."""

    round_number: int
    step: str
    value: bytes
    votes: tuple[VoteMessage, ...]



def build_certificate(buffer: VoteBuffer, ctx: BAContext, backend,
                      params: ProtocolParams, round_number: int, step: str,
                      value: bytes) -> Certificate | None:
    """Assemble a certificate from buffered votes; None if short of votes."""
    tau, _ = step_parameters(step, params)
    needed = votes_needed(step, params)
    chosen: list[VoteMessage] = []
    weight = 0
    voters: set[bytes] = set()
    for vote in buffer.messages(round_number, step):
        if vote.value != value or vote.voter in voters:
            continue
        votes, _, _ = process_msg(backend, ctx, tau, vote)
        if votes == 0:
            continue
        voters.add(vote.voter)
        chosen.append(vote)
        weight += votes
        if weight >= needed:
            return Certificate(round_number=round_number, step=step,
                               value=value, votes=tuple(chosen))
    return None


def verify_certificate(certificate: Certificate, ctx: BAContext, backend,
                       params: ProtocolParams) -> None:
    """Validate a certificate; raise :class:`InvalidCertificate` if bad.

    ``ctx`` must be the context of the certified round *as derived from
    the previous blocks* — this is why new users validate blocks in order
    (section 8.3).
    """
    tau, _ = step_parameters(certificate.step, params)
    needed = votes_needed(certificate.step, params)
    weight = 0
    voters: set[bytes] = set()
    for vote in certificate.votes:
        if vote.round_number != certificate.round_number:
            raise InvalidCertificate("vote for a different round")
        if vote.step != certificate.step:
            raise InvalidCertificate("vote for a different step")
        if vote.value != certificate.value:
            raise InvalidCertificate("vote for a different value")
        if vote.voter in voters:
            raise InvalidCertificate("duplicate voter in certificate")
        votes, _, _ = process_msg(backend, ctx, tau, vote)
        if votes == 0:
            raise InvalidCertificate("certificate vote fails validation")
        voters.add(vote.voter)
        weight += votes
    if weight < needed:
        raise InvalidCertificate(
            f"certificate carries {weight} votes; needs {needed}"
        )
