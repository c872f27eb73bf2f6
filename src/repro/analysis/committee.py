"""Committee-size analysis (section 7.5, Appendix B; reproduces Figure 3).

BA*'s per-step committee must satisfy two constraints (with ``g`` honest
and ``b`` malicious selected sub-users, in expectation ``g + b = tau``):

* **liveness**:   ``g > T * tau``  — honest members alone can cross the
  vote threshold;
* **safety**:     ``g/2 + b <= T * tau`` — the adversary, even using half
  the honest votes observed so far, cannot assemble a quorum for a second
  value.

With many small-weight users, ``g ~ Poisson(h * tau)`` and
``b ~ Poisson((1-h) * tau)`` independently (the binomial sortition
converges to Poisson at cryptocurrency scale). The probability that a
step *violates* either constraint is::

    P_violation(tau, T) = P[g <= T*tau] + P[g/2 + b > T*tau]

Figure 3 plots, for each honest fraction ``h``, the smallest ``tau`` for
which some threshold ``T`` keeps this below 5e-9. At ``h = 80%`` the
paper selects ``tau_step = 2000`` with ``T_step = 0.685`` — the solver
here reproduces both (tested).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import MissingExtraError

try:
    from scipy.stats import poisson
except ModuleNotFoundError as error:
    raise MissingExtraError("scipy", "analysis", __name__) from error

#: The violation probability used for Figure 3.
FIGURE3_EPSILON = 5e-9


#: Elements per ``poisson.sf`` call in :func:`_violation_probabilities`
#: (thresholds x plausible malicious counts); bounds the working set to
#: a few tens of MB at the 200,000-member end of the Figure 3 search.
_CHUNK_ELEMENTS = 1 << 16


def _violation_probabilities(tau: float, thresholds: np.ndarray,
                             honest_fraction: float) -> np.ndarray:
    """:func:`violation_probability` for every threshold of an array.

    One vectorised scipy call per chunk instead of three per threshold;
    each element goes through the arithmetic the scalar form documents,
    in the same order, so results are bit-identical to a scalar loop.
    """
    if not 0 < honest_fraction <= 1:
        raise ValueError("honest_fraction must be in (0, 1]")
    if tau <= 0:
        raise ValueError("tau must be positive")
    quorums = thresholds * tau
    mean_honest = honest_fraction * tau
    mean_bad = (1.0 - honest_fraction) * tau

    # Liveness failure: honest members alone cannot reach the quorum.
    p_liveness = poisson.cdf(np.floor(quorums), mean_honest)

    # Safety failure: g/2 + b > quorum, i.e. g > 2*(quorum - b).
    # Sum over plausible b (the Poisson tail beyond the cut is added
    # wholesale, which is conservative).
    b_hi = int(mean_bad + 12 * math.sqrt(max(mean_bad, 1.0))) + 2
    b_values = np.arange(0, b_hi)
    b_pmf = poisson.pmf(b_values, mean_bad)
    b_tail = float(poisson.sf(b_hi - 1, mean_bad))
    out = np.empty(len(quorums))
    rows = max(1, _CHUNK_ELEMENTS // b_hi)
    for start in range(0, len(quorums), rows):
        g_needed = 2.0 * (quorums[start:start + rows, None] - b_values)
        p_g_exceeds = poisson.sf(np.floor(g_needed), mean_honest)
        p_g_exceeds[g_needed < 0] = 1.0
        for offset, row in enumerate(p_g_exceeds):
            p_safety = float(np.dot(b_pmf, row)) + b_tail
            out[start + offset] = min(
                1.0, p_liveness[start + offset] + p_safety)
    return out


def violation_probability(tau: float, threshold: float,
                          honest_fraction: float) -> float:
    """P[step violates liveness or safety] under the Poisson model."""
    return float(_violation_probabilities(
        tau, np.array([threshold]), honest_fraction)[0])


def best_threshold(tau: float, honest_fraction: float,
                   grid: int = 200) -> tuple[float, float]:
    """The threshold T minimizing the violation probability.

    Returns ``(T, P_violation)``. T is searched on a grid in
    ``(2/3, h)`` — below 2/3 BA* loses its safety argument, above ``h``
    liveness is hopeless. The first grid point wins a tie.
    """
    thresholds = np.linspace(2.0 / 3.0 + 1e-6, honest_fraction - 1e-6, grid)
    probabilities = _violation_probabilities(tau, thresholds,
                                             honest_fraction)
    best = int(np.argmin(probabilities))
    return float(thresholds[best]), float(probabilities[best])


@functools.lru_cache(maxsize=256)
def committee_size_for(honest_fraction: float,
                       epsilon: float = FIGURE3_EPSILON,
                       tau_max: int = 200_000) -> tuple[int, float]:
    """Smallest expected committee size meeting ``epsilon`` (Figure 3).

    Returns ``(tau, T)``. Binary-searches tau; each candidate picks its
    own best threshold. Memoised: the Figure 3 curve, the parameter
    table and the tests keep asking for the same few ``h``.
    """
    def feasible(tau: int) -> bool:
        return best_threshold(tau, honest_fraction)[1] <= epsilon

    lo, hi = 1, tau_max
    if not feasible(hi):
        raise ValueError(
            f"no committee up to {tau_max} meets epsilon={epsilon} at "
            f"h={honest_fraction}"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo, best_threshold(lo, honest_fraction)[0]


@dataclass(frozen=True)
class Figure3Point:
    honest_fraction: float
    committee_size: int
    threshold: float


def figure3_curve(honest_fractions: list[float] | None = None,
                  epsilon: float = FIGURE3_EPSILON) -> list[Figure3Point]:
    """Compute the Figure 3 curve: committee size vs honest fraction."""
    if honest_fractions is None:
        honest_fractions = [0.76, 0.78, 0.80, 0.82, 0.84, 0.86, 0.88, 0.90]
    points = []
    for h in honest_fractions:
        tau, threshold = committee_size_for(h, epsilon)
        points.append(Figure3Point(honest_fraction=h, committee_size=tau,
                                   threshold=threshold))
    return points


def check_paper_step_parameters(honest_fraction: float = 0.80,
                                tau: float = 2000.0,
                                threshold: float = 0.685) -> float:
    """Violation probability of the paper's chosen (tau_step, T_step).

    The paper claims ~5e-9 at h = 80%; callers assert the order of
    magnitude.
    """
    return violation_probability(tau, threshold, honest_fraction)


def final_step_safety(honest_fraction: float = 0.80,
                      tau_final: float = 10_000.0,
                      t_final: float = 0.74) -> float:
    """Probability the adversary can assemble a *final* quorum (C.1 flavor).

    For the final step, safety requires that the adversary plus half the
    honest voters cannot reach ``T_final * tau_final``; with tau = 10000
    and T = 0.74 this is astronomically unlikely, which is why one final
    vote suffices to exclude competing blocks for the round.
    """
    return violation_probability(tau_final, t_final, honest_fraction)


def certificate_forgery_log2(tau: float = 2000.0,
                             threshold: float = 0.685,
                             honest_fraction: float = 0.80) -> float:
    """log2 P[adversary alone crosses a step quorum] (section 8.3).

    An adversary hunting over steps for a forged certificate needs its own
    selected sub-users ``b > T * tau``. The paper reports < 2^-166 per
    step for tau_step > 1000; the probability is far below float
    underflow, so it is returned as a log2.
    """
    mean_bad = (1.0 - honest_fraction) * tau
    k = math.floor(threshold * tau)
    # scipy's logsf underflows this far out; bound the tail by the first
    # term times a geometric correction:
    #   P(X > k) <= pmf(k+1) / (1 - mu/(k+2))    for k+2 > mu.
    if k + 2 <= mean_bad:
        return 0.0  # not a tail at all
    log_p = float(poisson.logpmf(k + 1, mean_bad))
    log_p -= math.log(1.0 - mean_bad / (k + 2))
    return log_p / math.log(2)
