"""Closed-form bounds: threshold values, the chi ladder and its closed-form
supremum, gate estimates, the arc-length bound, and the inset-angle
schedule."""
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from hmdf import bounds
from hmdf.geometry import BlockedCircleDomain, CircleDomain


def chi1(delta: float, alpha: float, mu: float, M: float) -> float:
    """The chi ladder's first rung, chi_1(delta) = (2/(pi mu)) delta
    log((128/(pi alpha)) (M-mu)/delta): with ``chi_p`` the reference for
    ``bounds.chi_inf``, its supremum."""
    return (2.0 / (math.pi * mu)) * delta * math.log(
        (128.0 / (math.pi * alpha)) * (M - mu) / delta)


def chi_p(delta: float, p: int, alpha: float, mu: float, M: float) -> float:
    """chi_p(delta) = sum_{q=0}^{p-1} chi_1(2^-q delta)."""
    return sum(chi1(delta * 2.0 ** (-q), alpha, mu, M) for q in range(p))


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
    # that the ladder telescopes into chi_inf is acceptance criterion 7
    def test_chi_p_monotone_in_p(self):
        vals = [chi_p(0.05, p, 0.5, 1.0, 2.0) for p in range(1, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < bounds.chi_inf(0.05, 0.5, 1.0, 2.0)

    def test_inverse(self):
        for eps in (0.01, 0.1, 0.5):
            d = bounds.chi_inf_inverse(eps, 0.5, 1.0, 2.0)
            assert bounds.chi_inf(d, 0.5, 1.0, 2.0) <= eps + 1e-12
            if d < 1.0 - 1e-9:
                assert bounds.chi_inf(min(d * 1.01, 1.0), 0.5, 1.0, 2.0) > eps


class TestChannelAndGateBounds:
    def test_curved_channel(self):
        # one inset gate pair: twice the curved-channel estimate (16/pi)
        # exp(-pi r0 chi / (2 (r1 - r0))) with r0 = 1, r1 = 1.5, chi = 0.8
        base = CircleDomain.from_arrays([1.0, 1.5], [1.0, math.pi])
        d = BlockedCircleDomain(base, (0.2,))
        assert bounds.hdiff_bound(d) == pytest.approx(
            2 * (16 / math.pi) * math.exp(-math.pi * 0.8), rel=1e-12)

    def test_gate_axis(self):
        assert bounds.gate_axis_bound(1.0, 2.0) == pytest.approx(2 / math.pi)

    def test_hdiff_bound_hand_value(self):
        base = CircleDomain.from_arrays([1.0, 1.5, 2.0], [1.0, 0.8, math.pi])
        d = BlockedCircleDomain(base, (0.5, 0.0))
        # gate 0: inset chi = 0.3, curved-channel term; gate 1: on-axis term
        terms = [(32 / math.pi) * math.exp(-math.pi * 1.0 * 0.3 / (2 * 0.5)),
                 (2 / math.pi) * math.sqrt(0.5 / 1.5)]
        assert bounds.gate_bounds(d) == pytest.approx(terms, rel=1e-12)
        assert bounds.hdiff_bound(d) == pytest.approx(sum(terms), rel=1e-12)


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
        assert chi_p(delta, p, alpha, mu, M) <= sup + 1e-12
