"""The in-house inverse binomial CDF is the same function as scipy's.

``repro.sortition.selection`` no longer imports scipy at run time; scipy
stays here, as the reference the one remaining path is held to over the
whole domain sortition can reach: weights up to 1e7, any ``p`` in
``(0, 1)``, any 53-bit hash fraction — including the regime where
``(1-p)**w`` underflows (mode anchor) and the last 2**-20 below 1
(answered from the other end).

Reference: ``binom.ppf(f)`` for ``f <= 1/2`` and ``binom.isf(1 - f)``
above. They are scipy's two statements of the same quantile; ``ppf``
loses resolution as ``f -> 1`` (its CDF saturates at 1.0) where ``isf``
does not, and ``1 - f`` is exact for a 53-bit ``f``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import binom

from repro.sortition.selection import (
    _UPPER_TAIL,
    _inverse_cdf,
    sub_users_selected,
)

ULP = 2.0 ** -53


def reference(fraction: float, w: int, p: float) -> int:
    if fraction <= 0.5:
        j = binom.ppf(fraction, w, p)
    else:
        j = binom.isf(1.0 - fraction, w, p)
    return max(0, min(w, int(j)))


def first_reaching(fraction: float, j: int, w: int, p: float) -> bool:
    """The defining inequality, judged by scipy's own CDF / SF.

    ``j`` is the answer iff ``CDF(j) >= fraction > CDF(j - 1)``; above
    one half the same is asked of the survival function, which keeps
    its relative accuracy there. 1e-12 relative is the slack two
    correct summations of one CDF can differ by at a step.
    """
    if fraction <= 0.5:
        reached, before = (float(c) for c in binom.cdf([j, j - 1], w, p))
        return (reached >= fraction * (1.0 - 1e-12)
                and (j == 0 or before < fraction * (1.0 + 1e-12)))
    left = 1.0 - fraction
    reached, before = (float(c) for c in binom.sf([j, j - 1], w, p))
    return (reached <= left * (1.0 + 1e-12)
            and (j == 0 or before > left * (1.0 - 1e-12)))


def check(fraction: float, w: int, p: float) -> None:
    ours = _inverse_cdf(fraction, w, p)
    ref = reference(fraction, w, p)
    # A disagreement is excused only by scipy's own CDF: either the
    # fraction sits on a step to within rounding, or scipy's quantile
    # search failed to bracket (it does, far out in the tails — e.g.
    # isf(2**-53, 1000, 1e-12) answers 2 where sf(1) = 5e-19).
    assert ours == ref or first_reaching(fraction, ours, w, p), (
        f"w={w} p={p!r} fraction={fraction!r}: ours {ours}, scipy {ref}")


fractions = st.integers(0, (1 << 53) - 1).map(lambda top: top * ULP)
#: ``p`` uniform, log-uniform towards 0 and log-uniform towards 1.
probabilities = st.one_of(
    st.floats(1e-12, 1.0 - 1e-12),
    st.floats(-12.0, -1e-3).map(lambda e: 10.0 ** e),
    st.floats(-12.0, -1e-3).map(lambda e: 1.0 - 10.0 ** e),
)
#: Weights log-uniform over seven decades (uniform draws are all huge).
weights = st.one_of(
    st.integers(1, 64),
    st.floats(0.0, 7.0).map(lambda e: max(1, int(10.0 ** e))),
)


class TestAgainstScipy:
    @settings(max_examples=300, deadline=None)
    @given(fraction=fractions, w=weights, p=probabilities)
    @example(fraction=0.0, w=1, p=0.5)
    @example(fraction=1.0 - ULP, w=1188, p=0.11032066150845121)
    @example(fraction=0.5, w=100_000, p=0.01)  # the walk from 0 returned w
    @example(fraction=1.0 - ULP, w=10_000_000, p=0.999999)
    @example(fraction=ULP, w=10_000_000, p=1e-6)
    @example(fraction=1.0 - ULP, w=1000, p=1e-12)  # scipy's isf says 2
    def test_whole_domain(self, fraction, w, p):
        check(fraction, w, p)

    @settings(max_examples=150, deadline=None)
    @given(fraction=fractions, mean=st.floats(700.0, 1e4),
           w=st.integers(20_000, 10_000_000))
    def test_underflow_regime(self, fraction, mean, w):
        """``w·p`` from where ``(1-p)**w`` underflows up to 10**4."""
        p = mean / w
        assert math.exp(w * math.log1p(-p)) < 1e-300
        check(fraction, w, p)

    @settings(max_examples=150, deadline=None)
    @given(distance=st.integers(1, (1 << 33) - 1), w=weights, p=probabilities,
           upper=st.booleans())
    def test_both_tails(self, distance, w, p, upper):
        """Fractions within 2**-20 of either end of ``[0, 1)``."""
        fraction = 1.0 - distance * ULP if upper else distance * ULP
        assert (fraction > _UPPER_TAIL) == upper
        check(fraction, w, p)

    @settings(max_examples=100, deadline=None)
    @given(w=st.integers(1, 5000), p=probabilities, data=st.data())
    def test_one_ulp_either_side_of_a_step(self, w, p, data):
        """Just below a CDF step selects ``k``; just above, ``k + 1``.

        The step is scipy's; a margin of 1e-12 relative (far above both
        sums' rounding, far below any hash's chance of landing there)
        keeps the two sides unambiguous, and the fraction *at* the step
        may go either way.
        """
        k = data.draw(st.integers(0, w - 1))
        previous, step, following = (
            float(c) for c in binom.cdf([k - 1, k, k + 1], w, p))
        below = math.floor(step * (1.0 - 1e-12) / ULP) * ULP
        above = math.ceil(step * (1.0 + 1e-12) / ULP) * ULP
        at = round(step / ULP) * ULP
        for fraction, allowed in ((below, {k}), (at, {k, k + 1}),
                                  (above, {k + 1})):
            # Only fractions the 53-bit grid puts clear of the
            # neighbouring steps say anything about this one.
            if (previous * (1.0 + 1e-12) < fraction
                    < min(_UPPER_TAIL, following * (1.0 - 1e-12))):
                assert _inverse_cdf(fraction, w, p) in allowed


class TestExactSteps:
    """Dyadic ``p``: the CDF steps are exact doubles, so is the answer."""

    @pytest.mark.parametrize("w, p, step, k", [
        (1, 0.5, 0.5, 0),
        (2, 0.5, 0.25, 0),
        (2, 0.5, 0.75, 1),
        (3, 0.5, 0.125, 0),
        (3, 0.5, 0.5, 1),
        (1, 0.25, 0.75, 0),
        (2, 0.25, 0.5625, 0),
        (2, 0.25, 0.9375, 1),
    ])
    def test_ulp_either_side(self, w, p, step, k):
        assert float(binom.cdf(k, w, p)) == step
        for fraction, expected in ((step - ULP, k), (step, k),
                                   (step + 2 * ULP, k + 1)):
            assert _inverse_cdf(fraction, w, p) == expected
            assert reference(fraction, w, p) == expected

    def test_weight_one_is_a_coin(self):
        for p in (1e-9, 0.3, 0.5, 1.0 - 1e-9):
            step = 1.0 - p
            assert _inverse_cdf(step * 0.999, 1, p) == 0
            assert _inverse_cdf(min(1.0 - ULP, step * 1.001 + ULP), 1, p) == 1

    def test_p_towards_one_selects_nearly_everyone(self):
        w = 1000
        for fraction in (ULP, 0.25, 0.5, 0.75, 1.0 - ULP):
            ours = _inverse_cdf(fraction, w, 1.0 - 1e-9)
            assert ours == reference(fraction, w, 1.0 - 1e-9)
            assert w - 2 <= ours <= w

    def test_ten_percent_stakeholder_at_tau_final(self):
        """The case the old walk got wrong: it returned ``w``."""
        assert _inverse_cdf(0.5, 100_000, 0.01) == 1000
        half = (1 << 63).to_bytes(8, "big") + bytes(24)  # fraction 1/2
        assert sub_users_selected(half, 100_000, 10_000, 1_000_000) == 1000
