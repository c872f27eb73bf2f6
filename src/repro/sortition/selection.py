"""Cryptographic sortition (Algorithms 1 and 2 of the paper).

Given a VRF output ``hash`` (uniform in ``[0, 2**hashlen)``), a user of
weight ``w`` out of total weight ``W``, and a role threshold ``tau``, the
user is selected as ``j`` "sub-users" where ``j`` follows the binomial
distribution ``B(j; w, tau/W)``. The paper's interval walk

    while hash/2^hashlen not in [ sum_{k<=j} B(k), sum_{k<=j+1} B(k) ): j++

is exactly the inverse binomial CDF evaluated at the hash fraction, and
:func:`_inverse_cdf` is that walk, for every weight:

* **Recurrence.** ``B(k+1) = B(k) · (w-k)/(k+1) · p/(1-p)``, summed
  upward from a starting term until the running sum reaches the
  fraction. Summing small-to-large keeps the lower tail accurate to a
  relative error of a few ulp per step.
* **Start.** ``B(0) = (1-p)^w`` (as ``exp(w·log1p(-p))``, whose error
  grows with ``w·p``, not ``w``) whenever that is a normal double — any
  expected selection count below ~708, which is every workload we run.
* **Mode anchor.** When ``B(0)`` underflows (a 10 % stakeholder at
  tau_final = 10,000 expects 1,000 sub-users) the same recurrence runs
  outward from the mode with the mode's term set to 1, the sum of those
  relative terms normalizes them (the pmf sums to 1), and the walk
  starts from the first term that is not negligible against the
  fraction. ``lgamma`` would give the anchor directly but with an
  absolute error of an ulp of ``lgamma(w)`` — 2e-10 on every CDF value
  at w = 1e5 — where the normalizing sum stays near 1e-14.

Why not ``scipy.stats.binom.ppf``: it is the *reference* the tests hold
this function to (``tests/test_sortition_cdf.py``), but importing
``scipy.stats`` costs every process that runs sortition ~1 s of start-up
and ~67 MB of RSS, and a call costs ~57 us against ~2 us for the walk.

The binomial is what makes sortition Sybil-resistant: since
``B(k1; n1, p) + B(k2; n2, p)`` convolves to ``B(k1+k2; n1+n2, p)``,
splitting one's currency across pseudonyms leaves the distribution of
selected sub-users unchanged (tested property).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from repro.common.errors import CryptoError, SortitionError
from repro.crypto.backend import CryptoBackend


def hash_to_fraction(vrf_hash: bytes) -> float:
    """Map VRF output bytes to a fraction in ``[0, 1)``.

    Uses the top 53 bits so the conversion is exact in a double.
    """
    if not vrf_hash:
        raise SortitionError("empty VRF hash")
    top = int.from_bytes(vrf_hash[:8], "big") >> 11  # 53 bits
    return top / float(1 << 53)


def sub_users_selected(vrf_hash: bytes, weight: int, tau: float,
                       total_weight: int) -> int:
    """Number of selected sub-users ``j`` for this VRF output.

    Args:
        vrf_hash: the (pseudo-random) VRF output for ``seed || role``.
        weight: the user's weight ``w`` (currency units).
        tau: expected number of selected sub-users across all users.
        total_weight: total currency ``W``.

    Returns:
        ``j`` in ``[0, weight]``; ``0`` means not selected.
    """
    if weight < 0:
        raise SortitionError(f"negative weight {weight}")
    if total_weight <= 0:
        raise SortitionError(f"total weight must be positive, got {total_weight}")
    if weight > total_weight:
        raise SortitionError(
            f"weight {weight} exceeds total weight {total_weight}"
        )
    if tau <= 0:
        raise SortitionError(f"tau must be positive, got {tau}")
    if weight == 0:
        return 0
    p = tau / total_weight
    if p >= 1.0:
        # Every sub-user is selected with certainty.
        return weight
    return _inverse_cdf(hash_to_fraction(vrf_hash), weight, p)


#: Smallest normal double: below it ``B(0)`` has lost bits (or is 0.0)
#: and the walk cannot start there.
_MIN_NORMAL = sys.float_info.min

#: A term this far below what it is compared with cannot move a 53-bit
#: comparison even after the whole tail beyond it (at most a few
#: thousand times the term, for weights up to 1e7) is added.
_NEGLIGIBLE = 2.0 ** -80

#: Fractions above this are answered from the other end. The running
#: sum carries an absolute error of about an ulp of 1.0 per step, which
#: is harmless until the mass left *above* the answer is that small too
#: — and past 1 - 1e-15 the sum saturates below the fraction and the
#: walk would run to ``w``.
_UPPER_TAIL = 1.0 - 2.0 ** -20


def _inverse_cdf(fraction: float, w: int, p: float) -> int:
    """Smallest ``j`` with ``CDF(j) >= fraction`` for ``Binomial(w, p)``.

    ``w >= 1``, ``0 < p < 1`` and ``fraction`` a 53-bit value in
    ``[0, 1)``; see the module docstring for the method.
    """
    if fraction <= 0.0:
        return 0
    if fraction <= _UPPER_TAIL:
        return _first_reaching(fraction, w, math.log1p(-p), p / (1.0 - p))
    # Count the sub-users *not* selected, ``Binomial(w, 1-p)``: ``j``
    # is the smallest with ``P(X > j) <= 1 - fraction`` (exact, the
    # fraction being dyadic), i.e. ``w`` minus the first miss count
    # whose CDF exceeds ``1 - fraction``.
    above = math.nextafter(1.0 - fraction, 1.0)
    return w - _first_reaching(above, w, math.log(p), (1.0 - p) / p)


def _first_reaching(target: float, w: int, log_miss: float,
                    odds: float) -> int:
    """Smallest ``j`` whose CDF is at least ``target > 0``.

    The binomial is given by its per-trial ``log(1 - p)`` and odds
    ``p / (1 - p)`` — the two quantities the recurrence uses — so the
    mirrored call loses nothing to rounding ``1 - p`` twice.
    """
    j = 0
    term = math.exp(w * log_miss)  # B(0)
    if term < _MIN_NORMAL:
        j, term = _start_below_mode(target, w, odds)
    cumulative = term
    while cumulative < target and j < w:
        # B(k+1) = B(k) * (w-k)/(k+1) * p/(1-p)
        term *= (w - j) / (j + 1) * odds
        cumulative += term
        j += 1
    return j


def _start_below_mode(target: float, w: int, odds: float
                      ) -> tuple[int, float]:
    """``(k, B(k))`` for a ``k`` whose lower tail cannot matter.

    Terms are computed relative to the mode's (set to 1.0) by the same
    recurrence run outward in both directions; their sum is ``1/B(mode)``
    because the pmf sums to 1. The walk down stops at the first term
    negligible against ``target`` — everything below it together is
    still under half an ulp of any CDF value that could be compared
    with ``target``.
    """
    mode = min(w, int((w + 1) * (odds / (1.0 + odds))))
    total = term = 1.0
    k = mode
    while k < w and term > total * _NEGLIGIBLE:
        term *= (w - k) / (k + 1) * odds
        total += term
        k += 1
    floor = target * _NEGLIGIBLE
    term = 1.0
    k = mode
    while k > 0 and term > floor:
        term *= k / (w - k + 1) / odds
        total += term
        k -= 1
    return k, term / total


class SelectionStats:
    """One deployment's sortition tallies (observability).

    Plain int increments — negligible next to the VRF work each call
    already does — so they stay always-on. They live on the
    deployment's crypto backend (:func:`selection_stats`), which every
    selection call is handed, so two deployments in one process count
    apart.
    """

    __slots__ = ("proves", "prove_selected", "subusers_selected",
                 "verifies", "verify_selected", "pool_evaluations",
                 "pool_candidates", "pool_selected")

    def __init__(self) -> None:
        self.proves = 0
        self.prove_selected = 0
        self.subusers_selected = 0
        self.verifies = 0
        self.verify_selected = 0
        #: Vectorized pool pass (:mod:`repro.sortition.pool`): accounts
        #: screened, screen survivors confirmed by the scalar oracle,
        #: and confirmed winners. candidates/evaluations is the screen's
        #: rejectivity; selected/candidates its (near-1) precision.
        self.pool_evaluations = 0
        self.pool_candidates = 0
        self.pool_selected = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "proves": self.proves,
            "prove_selected": self.prove_selected,
            "subusers_selected": self.subusers_selected,
            "verifies": self.verifies,
            "verify_selected": self.verify_selected,
            "pool_evaluations": self.pool_evaluations,
            "pool_candidates": self.pool_candidates,
            "pool_selected": self.pool_selected,
        }


def selection_stats(backend: CryptoBackend) -> SelectionStats:
    """The tallies of every selection made with ``backend``.

    Made on first use: :mod:`repro.crypto` knows nothing of sortition,
    so the backend only reserves the attribute.
    """
    stats = backend.selection
    if stats is None:
        stats = backend.selection = SelectionStats()
    return stats


@dataclass(frozen=True)
class SortitionProof:
    """Result of running sortition: carried in every committee message."""

    vrf_hash: bytes
    vrf_proof: bytes
    j: int


def sortition(backend: CryptoBackend, secret: bytes, seed: bytes,
              tau: float, role: bytes, weight: int,
              total_weight: int) -> SortitionProof:
    """Algorithm 1: privately check selection for ``role`` under ``seed``."""
    vrf_hash, vrf_proof = backend.vrf_prove(secret, seed + role)
    j = sub_users_selected(vrf_hash, weight, tau, total_weight)
    stats = selection_stats(backend)
    stats.proves += 1
    if j > 0:
        stats.prove_selected += 1
        stats.subusers_selected += j
    return SortitionProof(vrf_hash=vrf_hash, vrf_proof=vrf_proof, j=j)


def verify_sort(backend: CryptoBackend, public: bytes, vrf_hash: bytes,
                vrf_proof: bytes, seed: bytes, tau: float, role: bytes,
                weight: int, total_weight: int) -> int:
    """Algorithm 2: publicly verify a sortition proof.

    Returns the number of selected sub-users, or ``0`` if the proof is
    invalid or the user was not selected.
    """
    stats = selection_stats(backend)
    stats.verifies += 1
    try:
        expected_hash = backend.vrf_verify(public, vrf_proof, seed + role)
    except CryptoError:
        return 0
    if expected_hash != vrf_hash:
        return 0
    j = sub_users_selected(vrf_hash, weight, tau, total_weight)
    if j > 0:
        stats.verify_selected += 1
    return j


def selection_probability(weight: int, tau: float, total_weight: int) -> float:
    """Probability that a user of ``weight`` is selected at least once."""
    if weight == 0:
        return 0.0
    p = min(1.0, tau / total_weight)
    return 1.0 - math.pow(1.0 - p, weight)
