"""Tests for the committee-size analysis (Figure 3, Appendix B)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import poisson

from repro.analysis.committee import (
    FIGURE3_EPSILON,
    best_threshold,
    certificate_forgery_log2,
    check_paper_step_parameters,
    committee_size_for,
    figure3_curve,
    final_step_safety,
    violation_probability,
)


class TestViolationProbability:
    def test_paper_operating_point(self):
        """h=80%, tau=2000, T=0.685 must give ~5e-9 (the paper's claim)."""
        p = check_paper_step_parameters()
        assert 1e-9 < p < 1e-8

    def test_monotone_decreasing_in_tau(self):
        probabilities = [violation_probability(tau, 0.685, 0.80)
                         for tau in (200, 500, 1000, 2000)]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_monotone_decreasing_in_h(self):
        probabilities = [violation_probability(2000, 0.685, h)
                         for h in (0.76, 0.80, 0.85, 0.90)]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_extreme_thresholds_are_bad(self):
        """T too close to h kills liveness; T at 2/3 kills safety —
        the optimum is interior."""
        mid = violation_probability(2000, 0.685, 0.80)
        low = violation_probability(2000, 0.667, 0.80)
        high = violation_probability(2000, 0.79, 0.80)
        assert mid < low
        assert mid < high

    def test_input_validation(self):
        with pytest.raises(ValueError):
            violation_probability(0, 0.685, 0.8)
        with pytest.raises(ValueError):
            violation_probability(2000, 0.685, 0.0)


def _scalar_violation_probability(tau, threshold, honest_fraction):
    """The per-threshold arithmetic, one scipy call per term — the
    reference the vectorised grid must reproduce bit for bit."""
    quorum = threshold * tau
    mean_honest = honest_fraction * tau
    mean_bad = (1.0 - honest_fraction) * tau
    p_liveness = poisson.cdf(math.floor(quorum), mean_honest)
    b_hi = int(mean_bad + 12 * math.sqrt(max(mean_bad, 1.0))) + 2
    b_values = np.arange(0, b_hi)
    b_pmf = poisson.pmf(b_values, mean_bad)
    g_needed = 2.0 * (quorum - b_values)
    p_g_exceeds = poisson.sf(np.floor(g_needed), mean_honest)
    p_g_exceeds[g_needed < 0] = 1.0
    p_safety = float(np.dot(b_pmf, p_g_exceeds))
    p_safety += float(poisson.sf(b_hi - 1, mean_bad))
    return min(1.0, p_liveness + p_safety)


class TestBestThreshold:
    def test_paper_threshold_recovered(self):
        """The optimizer should land on T ~ 0.685 at the paper's point."""
        threshold, _ = best_threshold(2000, 0.80)
        assert abs(threshold - 0.685) < 0.02

    @pytest.mark.parametrize("tau, honest_fraction", [
        (2000, 0.80), (500, 0.90), (7, 0.76), (12_000, 0.76)])
    def test_vectorised_grid_equals_the_scalar_loop(self, tau,
                                                    honest_fraction):
        """Same arithmetic per element, so equality is exact — also at
        tau = 7 (nothing feasible: the first grid point wins the tie)
        and at 12,000, where the grid is evaluated in several chunks."""
        best = (2.0 / 3.0 + 1e-6, 1.0)
        for t in np.linspace(best[0], honest_fraction - 1e-6, 200):
            p = _scalar_violation_probability(tau, float(t),
                                              honest_fraction)
            if p < best[1]:
                best = (float(t), p)
        assert best_threshold(tau, honest_fraction) == best
        assert (violation_probability(tau, best[0], honest_fraction)
                == best[1])


class TestCommitteeSizeFor:
    def test_reproduces_paper_tau_step(self):
        """Figure 3's starred point: tau ~ 2000 at h = 80%."""
        tau, threshold = committee_size_for(0.80)
        assert 1800 <= tau <= 2200
        assert abs(threshold - 0.685) < 0.03

    def test_committee_shrinks_with_honesty(self):
        tau_80, _ = committee_size_for(0.80)
        tau_90, _ = committee_size_for(0.90)
        assert tau_90 < tau_80 / 2

    def test_committee_explodes_toward_two_thirds(self):
        """Figure 3's left edge: h -> 2/3 forces huge committees."""
        tau_76, _ = committee_size_for(0.76)
        tau_80, _ = committee_size_for(0.80)
        assert tau_76 > 1.5 * tau_80

    def test_infeasible_raises(self):
        with pytest.raises(ValueError):
            committee_size_for(0.70, epsilon=1e-18, tau_max=500)


class TestFigure3Curve:
    def test_curve_is_monotone(self):
        points = figure3_curve([0.78, 0.82, 0.86, 0.90])
        sizes = [point.committee_size for point in points]
        assert sizes == sorted(sizes, reverse=True)
        assert all(p.threshold > 2 / 3 for p in points)

    def test_default_epsilon(self):
        assert FIGURE3_EPSILON == 5e-9


class TestFinalStepAndForgery:
    def test_final_step_far_safer_than_ordinary(self):
        assert final_step_safety() < check_paper_step_parameters() / 10

    def test_certificate_forgery_beyond_paper_bound(self):
        """Paper: < 2^-166 per step for tau > 1000. Our exact tail is
        even smaller; it must at least clear the paper's bound."""
        assert certificate_forgery_log2(tau=1000, threshold=0.685) < -166
        assert certificate_forgery_log2() < -166

    def test_forgery_not_a_tail_when_adversary_dominates(self):
        assert certificate_forgery_log2(
            tau=100, threshold=0.685, honest_fraction=0.05) == 0.0

    def test_forgery_log_is_finite(self):
        value = certificate_forgery_log2()
        assert math.isfinite(value)
