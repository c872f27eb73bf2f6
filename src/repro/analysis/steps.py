"""BA* step-count analysis (section 7 "Efficiency", Appendix C.3 flavor).

The paper's efficiency claims:

* **common case** (strong synchrony, honest highest-priority proposer):
  BA* "terminates precisely in 4 interactive steps" — two reduction
  steps, one BinaryBA* step, and the final confirmation step;
* **worst case** (malicious highest-priority proposer colluding with a
  large committee fraction): "all honest users reach consensus on the
  next block within expected 13 steps" — the reduction's two steps plus
  an expected 11 BinaryBA* steps.

The worst-case number comes from a simple Markov argument: a colluding
adversary can keep honest users split through the two deterministic
steps of every BinaryBA* loop, but the third step's common coin is
unpredictable — the split survives a loop only if the lowest sortition
hash is adversarial (probability ``1 - h``) or the coin favors the
adversary's split (probability ``1/2`` given an honest lowest hash). So
each 3-step loop ends the attack with probability ``p = h/2``, giving an
expected ``3 / p`` BinaryBA* steps plus the closing steps. This module
computes those quantities.
"""

from __future__ import annotations

#: Interactive steps in the common case: reduction (2) + BinaryBA* step 1
#: + the final confirmation step (section 7 "Efficiency").
COMMON_CASE_STEPS = 4


def loop_success_probability(honest_fraction: float) -> float:
    """P[a 3-step BinaryBA* loop ends an adversarial split] = h/2.

    The coin is the least-significant bit of the lowest sortition hash
    in the step. With probability ``h`` that hash belongs to an honest
    user (so every honest user sees the same coin), and the adversary
    guessed the coin wrong with probability 1/2.
    """
    if not 0 < honest_fraction <= 1:
        raise ValueError("honest_fraction must be in (0, 1]")
    return honest_fraction / 2.0


def expected_binary_steps_worst_case(
        honest_fraction: float = 2 / 3 + 1e-9) -> float:
    """Expected BinaryBA* steps against the strongest splitting attack.

    A geometric number of 3-step loops at success rate ``h/2`` ("at
    least an h > 2/3 probability that the lowest sortition hash holder
    will be honest, which leads to consensus with probability
    1/2 * h > 1/3 at each loop iteration", section 7.4), plus two
    closing steps: one in which the coin-aligned honest users assemble a
    quorum and one confirming return. At the paper's worst-case
    assumption h -> 2/3 this is 3 * 3 + 2 = 11 steps — the paper's
    "expected 11 steps in the worst case"; at the deployed h = 80% the
    attack is cheaper to shake off (~9.5).
    """
    p = loop_success_probability(honest_fraction)
    return 3.0 / p + 2.0


def expected_total_steps_worst_case(
        honest_fraction: float = 2 / 3 + 1e-9) -> float:
    """Reduction (2 steps) + worst-case BinaryBA* expectation.

    The paper: "all honest users reach consensus on the next block
    within expected 13 steps" — 2 + 11 at h -> 2/3.
    """
    return 2.0 + expected_binary_steps_worst_case(honest_fraction)
