"""Double-spend analysis for Nakamoto consensus.

The paper's motivation (sections 1-2): PoW admits forks, so merchants
must wait ~6 blocks (an hour) before trusting a payment — and even then
only probabilistically. This module quantifies that premise with the
classic race analysis (Nakamoto 2008, closed form due to Rosenfeld): an
attacker holding fraction ``q`` of the hash power secretly extends a
fork; after the merchant sees ``z`` confirmations, the attack succeeds
iff the attacker's chain ever catches up.

Algorand's counterpart needs no such analysis: BA* final consensus rules
out competing blocks outright (probability bounded by the committee
analysis in :mod:`repro.analysis.committee`, ~5e-9 per step), which the
comparison helpers below put side by side.
"""

from __future__ import annotations

from repro.common.errors import MissingExtraError

try:
    from scipy.stats import nbinom
except ModuleNotFoundError as error:
    raise MissingExtraError("scipy", "analysis", __name__) from error


def catch_up_probability(deficit: int, q: float) -> float:
    """P[attacker ever erases a ``deficit``-block disadvantage].

    Gambler's ruin: ``(q/p)^deficit`` for q < p, else 1.
    """
    if not 0 <= q < 1:
        raise ValueError("q must be in [0, 1)")
    if deficit <= 0:
        return 1.0
    p = 1.0 - q
    if q >= p:
        return 1.0
    return (q / p) ** deficit


def double_spend_probability(z: int, q: float) -> float:
    """P[double-spend succeeds] after the merchant waits ``z`` blocks.

    While the honest chain mines its ``z`` confirmation blocks, the
    attacker privately mines ``k ~ NegBinomial(z, p)`` blocks; success if
    ``k >= z`` already, else if the ``z - k`` deficit is ever closed
    (gambler's ruin). This is Rosenfeld's exact form of Nakamoto's
    calculation.
    """
    if z < 0:
        raise ValueError("z must be >= 0")
    if not 0 <= q < 1:
        raise ValueError("q must be in [0, 1)")
    if z == 0 or q == 0:
        return 1.0 if z == 0 else 0.0
    p = 1.0 - q
    total = 0.0
    # k: attacker blocks mined while the honest chain found z.
    # P(k) = NegBinomial: C(k+z-1, k) p^z q^k.
    for k in range(0, z):
        pk = float(nbinom.pmf(k, z, p))
        total += pk * catch_up_probability(z - k, q)
    # k >= z: attacker is already ahead or tied -> wins outright.
    total += float(nbinom.sf(z - 1, z, p))
    return min(1.0, total)


def confirmations_needed(q: float, risk: float = 1e-3,
                         z_max: int = 1000) -> int:
    """Smallest ``z`` with double-spend probability below ``risk``.

    Bitcoin folklore: q = 10% needs ~6 blocks for ~0.1% risk — the
    source of the paper's "about an hour to confirm" premise.
    """
    if not 0 < risk < 1:
        raise ValueError("risk must be in (0, 1)")
    for z in range(1, z_max + 1):
        if double_spend_probability(z, q) < risk:
            return z
    raise ValueError(f"no z <= {z_max} reaches risk {risk} at q={q}")


def speedup_table(qs: tuple[float, ...] = (0.05, 0.10, 0.25),
                  risk: float = 1e-3,
                  block_interval: float = 600.0,
                  algorand_round: float = 22.0
                  ) -> list[dict[str, float]]:
    """Rows of {q, z, bitcoin_wait_s, algorand_wait_s, speedup}."""
    rows = []
    for q in qs:
        z = confirmations_needed(q, risk)
        bitcoin_wait = z * block_interval
        rows.append({
            "q": q,
            "z": z,
            "bitcoin_wait_s": bitcoin_wait,
            "algorand_wait_s": algorand_round,
            "speedup": bitcoin_wait / algorand_round,
        })
    return rows
