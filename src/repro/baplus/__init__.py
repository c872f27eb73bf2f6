"""BA*: the committee-based Byzantine agreement protocol (paper section 7)."""

from repro.baplus.buffer import VoteBuffer
from repro.baplus.certificate import (
    Certificate,
    build_certificate,
    step_parameters,
    verify_certificate,
    votes_needed,
)
from repro.baplus.context import BAContext
from repro.baplus.messages import VoteMessage, make_vote
from repro.baplus.protocol import (
    FINAL,
    TENTATIVE,
    AgreementResult,
    BinaryResult,
    ba_star,
    binary_ba_star,
    reduction,
)
from repro.baplus.voting import (
    BAParticipant,
    TIMEOUT,
    committee_vote,
    common_coin,
    count_votes,
    process_msg,
)

__all__ = [
    "BAContext",
    "BAParticipant",
    "VoteBuffer",
    "VoteMessage",
    "make_vote",
    "committee_vote",
    "count_votes",
    "process_msg",
    "common_coin",
    "TIMEOUT",
    "ba_star",
    "binary_ba_star",
    "reduction",
    "AgreementResult",
    "BinaryResult",
    "FINAL",
    "TENTATIVE",
    "Certificate",
    "build_certificate",
    "verify_certificate",
    "votes_needed",
    "step_parameters",
]
