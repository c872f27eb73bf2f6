"""Vectorized sortition over an aggregated stake pool.

The per-user path (:func:`repro.sortition.selection.sortition`) asks,
for one user at a time: "given my VRF output, how many sub-users do I
win?". Materializing only sortition winners requires the *population*
question instead: "which of these N accounts win at least one sub-user
for this (seed, role)?" — and it must be answered for every role of
every round. Asking it by running N scalar sortitions would keep the
per-round cost O(N · CDF-walk); this module answers it with one
vectorized screen over the pool's balance array plus a handful of
scalar confirmations.

The screen relies on the selection decision being a *threshold test*:
a user of weight ``w`` wins ``j >= 1`` sub-users iff their VRF fraction
exceeds ``B(0; w, p) = (1-p)^w`` — the CDF walk in
:func:`sub_users_selected` starts at that term and only continues while
the fraction is above the running sum. ``(1-p)^w`` for the whole pool
is one ``numpy`` expression; accounts whose fraction clears the
threshold (minus a conservative epsilon for the float-path difference
between numpy's and ``math``'s ``exp(w·log1p(-p))``) are then
*confirmed* through the unchanged scalar oracle, which assigns the
exact ``j``. The screen therefore can only err by letting a borderline
account through to the oracle — never by dropping a winner — and every
returned ``j`` is bit-identical to what the per-user path computes.

VRF evaluation stays per-account (that is the point of sortition: each
user's chance is their own secret's), but only the *hash* is computed
during the sweep; proofs are produced for winners alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import SortitionError
from repro.crypto.backend import CryptoBackend
from repro.sortition.selection import (
    SortitionProof,
    selection_stats,
    sub_users_selected,
)

#: Relative safety margin on the ``(1-p)^w`` screen threshold. The
#: vectorized threshold and the scalar oracle's ``B(0)`` are the same
#: expression, ``exp(w * log1p(-p))``, evaluated by numpy and by
#: ``math`` — ulps apart — and the oracle's complement walk resolves
#: ``1 - B(0)`` to a relative 1e-15, so a 1e-9 relative margin admits
#: every account the scalar oracle could select, at the cost of a
#: (rare) false candidate that the oracle then rejects.
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class PoolSelection:
    """Winners of one (seed, role) pass over the pool."""

    #: account slot -> full sortition proof (hash, proof, exact j >= 1).
    winners: dict[int, SortitionProof]
    #: How many accounts survived the screen (oracle confirmations run).
    candidates: int
    #: How many accounts held non-zero weight (VRF hashes computed).
    evaluated: int


def pool_fractions(backend: CryptoBackend, secrets: list[bytes],
                   weights: np.ndarray, alpha: bytes) -> np.ndarray:
    """VRF hash fraction per account (NaN for zero-weight slots).

    One hash per staked account — the unavoidable per-user part of
    sortition — but asked of the backend in one sweep
    (:meth:`~repro.crypto.backend.CryptoBackend.vrf_outputs`) that feeds
    the vectorized screen, instead of being interleaved with N
    python-level CDF walks.
    """
    if len(secrets) != len(weights):
        raise SortitionError(
            f"pool has {len(secrets)} secrets but {len(weights)} weights")
    staked = np.flatnonzero(weights > 0)
    outputs = backend.vrf_outputs([secrets[slot] for slot in staked.tolist()],
                                  alpha)
    # Same top-53-bits mapping as hash_to_fraction, vectorized.
    tops = np.frombuffer(b"".join([output[:8] for output in outputs]),
                         dtype=">u8") >> np.uint64(11)
    fractions = np.full(len(secrets), np.nan)
    fractions[staked] = tops.astype(np.float64) / float(1 << 53)
    return fractions


def pool_select(backend: CryptoBackend, secrets: list[bytes],
                weights: np.ndarray, tau: float, total_weight: int,
                seed: bytes, role: bytes) -> PoolSelection:
    """One vectorized selection pass: who wins ``role`` under ``seed``?

    Args:
        backend: crypto backend holding every pool key (the harness
            generates all key pairs up front either way).
        secrets: per-slot secret keys, aligned with ``weights``.
        weights: int balance array (zero = unstaked slot).
        tau: the role's expected committee size.
        total_weight: the sortition denominator ``W``.
        seed: the round's selection seed.
        role: canonical role bytes (proposer/committee/final).

    Returns:
        A :class:`PoolSelection` whose ``winners[slot].j`` equals
        exactly ``sortition(...).j`` for that account.
    """
    if total_weight <= 0:
        raise SortitionError(
            f"total weight must be positive, got {total_weight}")
    if tau <= 0:
        raise SortitionError(f"tau must be positive, got {tau}")
    weights = np.asarray(weights, dtype=np.int64)
    alpha = seed + role
    fractions = pool_fractions(backend, secrets, weights, alpha)
    evaluated = int(np.count_nonzero(weights))
    p = tau / total_weight
    if p >= 1.0:
        # Certainty: every staked account is selected with j == weight
        # (matching the scalar path's p >= 1.0 short-circuit).
        candidate_slots = np.flatnonzero(weights)
    else:
        with np.errstate(invalid="ignore"):
            thresholds = np.exp(weights * np.log1p(-p))
            screened = fractions > thresholds * (1.0 - _SCREEN_MARGIN)
        candidate_slots = np.flatnonzero(screened)

    winners: dict[int, SortitionProof] = {}
    stats = selection_stats(backend)
    for slot in candidate_slots:
        slot = int(slot)
        vrf_hash, vrf_proof = backend.vrf_prove(secrets[slot], alpha)
        j = sub_users_selected(vrf_hash, int(weights[slot]), tau,
                               total_weight)
        if j > 0:
            winners[slot] = SortitionProof(vrf_hash=vrf_hash,
                                           vrf_proof=vrf_proof, j=j)
    stats.pool_evaluations += evaluated
    stats.pool_candidates += len(candidate_slots)
    stats.pool_selected += len(winners)
    return PoolSelection(winners=winners,
                         candidates=len(candidate_slots),
                         evaluated=evaluated)
