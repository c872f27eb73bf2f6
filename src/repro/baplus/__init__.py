"""BA*: the committee-based Byzantine agreement protocol (paper section 7)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what tooling sees; at run time names resolve on demand
    from repro.baplus.buffer import VoteBuffer
    from repro.baplus.certificate import (
        Certificate, build_certificate, step_parameters, verify_certificate,
        votes_needed,
    )
    from repro.baplus.context import BAContext
    from repro.baplus.messages import VoteMessage, make_vote
    from repro.baplus.protocol import (
        FINAL, TENTATIVE, AgreementResult, BinaryResult, ba_star,
        binary_ba_star, reduction,
    )
    from repro.baplus.voting import (
        BAParticipant, TIMEOUT, committee_vote, common_coin, count_votes,
        process_msg,
    )

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baplus.buffer": ("VoteBuffer",),
    "repro.baplus.certificate": (
        "Certificate", "build_certificate", "step_parameters",
        "verify_certificate", "votes_needed",
    ),
    "repro.baplus.context": ("BAContext",),
    "repro.baplus.messages": ("VoteMessage", "make_vote"),
    "repro.baplus.protocol": (
        "FINAL", "TENTATIVE", "AgreementResult", "BinaryResult", "ba_star",
        "binary_ba_star", "reduction",
    ),
    "repro.baplus.voting": (
        "BAParticipant", "TIMEOUT", "committee_vote", "common_coin",
        "count_votes", "process_msg",
    ),
})

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
