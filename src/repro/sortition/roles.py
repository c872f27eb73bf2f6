"""Role strings for sortition.

Sortition takes a ``role`` parameter distinguishing what a user may be
selected for: proposing a block in round ``r``, serving on the committee of
step ``s`` of round ``r``, or proposing a fork during recovery. Roles are
canonically encoded so every node derives identical VRF inputs.
"""

from __future__ import annotations

from functools import lru_cache

from repro.common.encoding import encode

#: Step number reserved for the final-consensus committee (section 7.4).
#: Ordinary BinaryBA* steps are numbered 1..MaxSteps; the reduction runs as
#: steps REDUCTION_ONE and REDUCTION_TWO.
FINAL_STEP = "final"
REDUCTION_ONE = "reduction_one"
REDUCTION_TWO = "reduction_two"

#: Fork-recovery BA* executions (section 8.2) use round numbers at or
#: above this base, far above any real round, so their votes can never
#: collide with in-band consensus votes. Ingress cannot reconstruct
#: their context, relay damping does not tally them, and a fail-stop
#: crash does not kill them — each of those layers reads this constant.
RECOVERY_ROUND_BASE = 1_000_000_000


@lru_cache(maxsize=4096)
def proposer_role(round_number: int) -> bytes:
    """Role for proposing a block in ``round_number`` (section 6)."""
    return encode(["proposer", round_number])


@lru_cache(maxsize=4096)
def committee_role(round_number: int, step: int | str) -> bytes:
    """Role for the BA* committee at ``(round, step)`` (Algorithm 4)."""
    return encode(["committee", round_number, str(step)])


def fork_proposer_role(round_number: int, attempt: int) -> bytes:
    """Role for proposing a fork during recovery (section 8.2).

    ``attempt`` distinguishes repeated recovery tries; the paper re-hashes
    the seed each attempt, we fold the attempt counter into the role, which
    has the same effect of drawing fresh proposers and committees.
    """
    return encode(["fork_proposer", round_number, attempt])
