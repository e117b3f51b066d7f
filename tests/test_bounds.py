"""Closed-form bounds: threshold values, the chi ladder and its closed-form
supremum, channel/gate estimates, and the inset-angle schedule."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hmdf import bounds
from hmdf.geometry import BlockedCircleDomain, CircleDomain


class TestThresholds:
    def test_reference_values(self):
        th = bounds.thresholds(0.5, 0.5)
        assert th.m1 == pytest.approx(1.0 / (math.e - 1.0), abs=1e-15)
        assert th.m1 == pytest.approx(0.58198, abs=1e-5)
        assert th.m2 == pytest.approx(0.24220, abs=1e-5)
        assert th.m3 == pytest.approx(0.09922, abs=1e-4)
        assert th.g_residual < 1e-10
        assert th.m_min == th.m3

    def test_m3_solves_g(self):
        for alpha, beta in ((0.5, 0.5), (0.25, 0.8), (0.9, 0.1)):
            th = bounds.thresholds(alpha, beta)
            assert bounds._g(th.m3, alpha) == pytest.approx(math.pi * beta,
                                                            abs=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            bounds.thresholds(0.0, 0.5)
        with pytest.raises(ValueError):
            bounds.thresholds(0.5, 1.0)


class TestChiLadder:
    def test_sum_matches_closed_form(self):
        # the geometric ladder telescopes exactly into the closed form
        for delta in np.geomspace(1e-6, 0.0991, 23):
            s = sum(bounds.chi1(delta * 2.0 ** (-q), 0.5, 1.0, 1.0992)
                    for q in range(61))
            assert abs(s - bounds.chi_inf(delta, 0.5, 1.0, 1.0992)) < 1e-10

    def test_chi_p_monotone_in_p(self):
        vals = [bounds.chi_p(0.05, p, 0.5, 1.0, 2.0) for p in range(1, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < bounds.chi_inf(0.05, 0.5, 1.0, 2.0)

    def test_inverse(self):
        for eps in (0.01, 0.1, 0.5):
            d = bounds.chi_inf_inverse(eps, 0.5, 1.0, 2.0)
            assert bounds.chi_inf(d, 0.5, 1.0, 2.0) <= eps + 1e-12
            if d < 1.0 - 1e-9:
                assert bounds.chi_inf(min(d * 1.01, 1.0), 0.5, 1.0, 2.0) > eps


class TestChannelAndGateBounds:
    def test_straight_channel_zero_length(self):
        assert bounds.channel_bound_straight([0.0], [1.0]) == pytest.approx(8 / math.pi)

    def test_straight_channel_decreasing_in_length(self):
        xs = np.linspace(0.0, 2.0, 101)
        w = np.full_like(xs, 0.5)
        v1 = bounds.channel_bound_straight(xs, w)
        v2 = bounds.channel_bound_straight(xs[:51], w[:51])
        assert v1 < v2
        assert v1 == pytest.approx((8 / math.pi) * math.exp(-math.pi * 4.0), rel=1e-6)

    def test_curved_channel(self):
        v = bounds.channel_bound_curved(1.0, 1.5, 0.2, 1.0)
        assert v == pytest.approx((16 / math.pi) * math.exp(-math.pi * 0.8), rel=1e-12)

    def test_gate_axis(self):
        assert bounds.gate_axis_bound(1.0, 2.0) == pytest.approx(2 / math.pi)

    def test_hdiff_bound_hand_value(self):
        base = CircleDomain.from_arrays([1.0, 1.5, 2.0], [1.0, 0.8, math.pi])
        d = BlockedCircleDomain(base, (0.5, 0.0))
        # gate 0: inset chi = 0.3, curved-channel term; gate 1: on-axis term
        expect = ((32 / math.pi) * math.exp(-math.pi * 1.0 * 0.3 / (2 * 0.5))
                  + (2 / math.pi) * math.sqrt(0.5 / 1.5))
        assert bounds.hdiff_bound(d) == pytest.approx(expect, rel=1e-12)


class TestArcLowerBound:
    def test_hypothesis_region(self):
        M = 2.0
        cutoff = M * (1.0 - 1.0 / math.e)
        assert bounds.arc_lower_bound(0.5, cutoff * 0.99, M) is None
        assert bounds.arc_lower_bound(0.5, cutoff * 1.01, M) is not None

    def test_at_outer_radius(self):
        assert bounds.arc_lower_bound(0.3, 2.0, 2.0) == pytest.approx(0.3 * math.pi)
        assert bounds.arc_lower_bound(0.9, 2.0, 2.0) == pytest.approx(math.pi / 2)

    def test_formula(self):
        r, M, beta = 1.9, 2.0, 0.5
        gap = (M - r) / r
        expect = math.pi * beta - (2 / math.pi) * gap * (
            2 * math.log(M / (M - r)) + math.pi ** 2)
        assert bounds.arc_lower_bound(beta, r, M) == pytest.approx(expect)


class TestKappa:
    def test_values(self):
        assert bounds.kappa(1, 1.0, 2.0) == 0.0
        assert bounds.kappa(4, 1.0, 1.0992) == pytest.approx(
            0.0992 / 4 * math.log(4), rel=1e-9)

    def test_decay_sequence_is_power_law(self):
        # the schedule collapses the decay term to n^(1 - pi/2)
        for n in (10, 100, 1000):
            term = n * math.exp(-math.pi * 1.0 * n * bounds.kappa(n, 1.0, 2.0)
                                / (2.0 * (2.0 - 1.0)))
            assert term == pytest.approx(n ** (1.0 - math.pi / 2.0), rel=1e-9)

    def test_report(self):
        rep = bounds.kappa_conditions_report(1.0, 1.0992)
        assert rep.ok
        assert rep.kappas[-1] < 1e-5
        assert rep.decay_terms[-1] < 1e-3
        assert rep.monotone_from <= 3


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_thresholds_positive_and_bounded(alpha, beta):
    th = bounds.thresholds(alpha, beta)
    assert 0 < th.m3 < 1
    assert 0 < th.m2
    assert th.m1 == pytest.approx(1 / (math.e - 1))


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, 1.0), st.floats(0.05, 1.0), st.floats(0.5, 2.0),
       st.floats(0.01, 3.0))
# M - mu rounds below width here, so delta = width must still pass
@example(delta_frac=1.0, alpha=0.5, mu=1.0, width=0.0992)
def test_chi_inf_dominates_every_chi_p(delta_frac, alpha, mu, width):
    M = mu + width
    delta = delta_frac * width
    sup = bounds.chi_inf(delta, alpha, mu, M)
    for p in (1, 2, 5, 20):
        assert bounds.chi_p(delta, p, alpha, mu, M) <= sup + 1e-12
