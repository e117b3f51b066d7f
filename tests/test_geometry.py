"""Geometry: distance queries against a brute-force boundary sampler,
channel-depth combinatorics, and structural validation."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hmdf import geometry
from hmdf.geometry import (Arc, BlockedCircleDomain, CircleDomain,
                           NotInteriorError)


def sample_boundary(dom, n_per_unit=200_000):
    """Dense point sample of every boundary feature."""
    base = dom.base if isinstance(dom, BlockedCircleDomain) else dom
    pts = []
    for arc in base.arcs[:-1]:
        if arc.half_arclength == 0.0:
            pts.append(np.array([arc.radius + 0j]))
            continue
        n = max(2, int(2 * arc.half_arclength * arc.radius * n_per_unit))
        th = np.linspace(-arc.half_arclength, arc.half_arclength, n)
        pts.append(arc.radius * np.exp(1j * th))
    M = base.outer_radius
    n = max(2, int(2 * math.pi * M * n_per_unit))
    pts.append(M * np.exp(1j * np.linspace(-math.pi, math.pi, n)))
    if isinstance(dom, BlockedCircleDomain):
        radii = base.radii
        for k, phi in enumerate(dom.gate_angles):
            n = max(2, int((radii[k + 1] - radii[k]) * n_per_unit))
            t = np.linspace(radii[k], radii[k + 1], n)
            pts.append(t * np.exp(1j * phi))
            pts.append(t * np.exp(-1j * phi))
    return np.concatenate(pts)


@pytest.fixture(scope="module")
def blocked_example():
    base = CircleDomain.from_arrays([1.0, 1.4, 2.0], [1.1, 0.7, math.pi])
    return BlockedCircleDomain(base, (0.3, 0.0))


class TestNearestBoundary:
    def test_against_brute_force(self, blocked_example):
        bnd = sample_boundary(blocked_example)
        spacing = 1.0 / 200_000 * 3  # conservative sample-spacing bound
        rng = np.random.default_rng(42)
        z = (rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400))
        z = z[geometry.is_interior(z, blocked_example)]
        assert len(z) > 100
        dist, _, _, _ = geometry.nearest_boundary(z, blocked_example)
        brute = np.array([np.min(np.abs(zz - bnd)) for zz in z])
        assert np.all(dist <= brute + 1e-12)
        assert np.all(brute <= dist + spacing)

    def test_plain_disk(self):
        d = CircleDomain.disk(2.0)
        dist, feat = geometry.distance_to_boundary(0.5 + 0.5j, d)
        assert dist == pytest.approx(2.0 - abs(0.5 + 0.5j))
        assert feat.kind == "outer-circle"
        assert feat.modulus == 2.0

    def test_arc_endpoint_region(self):
        d = CircleDomain.from_arrays([1.0, 2.0], [0.5, math.pi])
        # point just beyond the arc endpoint: nearest is the endpoint
        z = 1.0 * np.exp(1j * 0.7)
        dist, feat = geometry.distance_to_boundary(z, d)
        end = np.exp(1j * 0.5)
        assert dist == pytest.approx(abs(z - end))
        assert feat.kind == "arc"

    def test_gate_clamping(self, blocked_example):
        # point radially inside the gate span, near the +phi gate
        z = 1.2 * np.exp(1j * 0.35)
        dist, feat = geometry.distance_to_boundary(z, blocked_example)
        assert feat.kind == "gate"
        assert feat.index == 0
        # distance to infinite line through angle 0.3 at this radius
        assert dist == pytest.approx(1.2 * math.sin(0.05), abs=1e-12)

    def test_not_interior_raises(self, blocked_example):
        with pytest.raises(NotInteriorError):
            geometry.distance_to_boundary(5.0 + 0j, blocked_example)
        with pytest.raises(NotInteriorError):
            geometry.distance_to_boundary(1.0 + 0j, blocked_example)  # on arc

    def test_pocket_excluded(self, blocked_example):
        # behind gate 0: radius in (1, 1.4), angle < 0.3
        assert not geometry.is_interior(np.array([1.2 + 0.0j]), blocked_example)[0]
        assert geometry.is_interior(np.array([1.2 * np.exp(1j * 0.5)]),
                                    blocked_example)[0]


class TestValidate:
    def test_good_domain(self, blocked_example):
        assert geometry.validate(blocked_example) == []

    def test_decreasing_radii(self):
        d = CircleDomain.from_arrays([2.0, 1.0], [0.5, math.pi])
        assert any("increasing" in v for v in geometry.validate(d))

    def test_outer_not_full(self):
        d = CircleDomain.from_arrays([1.0, 2.0], [0.5, 3.0])
        assert any("outer" in v for v in geometry.validate(d))

    def test_point_arc_warns_only(self):
        d = CircleDomain.from_arrays([1.0, 2.0], [0.0, math.pi])
        msgs = geometry.validate(d)
        assert msgs and all(m.startswith("warning:") for m in msgs)

    def test_non_finite_rejected(self):
        bad = [CircleDomain.from_arrays([1.0, math.nan], [0.5, math.pi]),
               CircleDomain.from_arrays([1.0, math.inf], [0.5, math.pi]),
               CircleDomain.from_arrays([1.0, 2.0], [math.nan, math.pi]),
               BlockedCircleDomain(
                   CircleDomain.from_arrays([1.0, 2.0], [0.5, math.pi]),
                   (math.nan,))]
        for d in bad:
            assert any("finite" in v for v in geometry.validate(d))
            with pytest.raises(ValueError, match="finite"):
                geometry.check_usable(d)

    def test_gate_exceeds_arc(self):
        base = CircleDomain.from_arrays([1.0, 2.0], [0.5, math.pi])
        d = BlockedCircleDomain(base, (0.9,))
        assert any("blocked" in v or "gate" in v for v in geometry.validate(d))


class TestEtaTheta:
    def test_hand_values(self):
        base = CircleDomain.from_arrays([1.0, 1.2, 1.5, 2.0],
                                        [1.0, 0.4, 0.8, math.pi])
        d = BlockedCircleDomain(base, (0.3, 0.35, 0.6))
        # eta(0, 2) = min(1.0, 0.8) - min(1.0, 0.4, 0.8) = 0.4
        assert geometry.eta(d, 0, 2) == pytest.approx(0.4)
        # theta(0, 2) = min(1.0, 0.8) - min(0.3, 0.35) = 0.5
        assert geometry.theta(d, 0, 2) == pytest.approx(0.5)
        # adjacent pair: eta vanishes
        assert geometry.eta(d, 1, 2) == pytest.approx(0.0)
        with pytest.raises(IndexError):
            geometry.eta(d, 2, 1)


# ---------------------------------------------------------------------------
# Property tests.


@st.composite
def blocked_domains(draw):
    n = draw(st.integers(1, 4))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n + 1, max_size=n + 1))
    radii = np.cumsum([0.5] + gaps)
    psis = [draw(st.floats(0.01, math.pi - 0.01)) for _ in range(n)] + [math.pi]
    phis = tuple(draw(st.floats(0.0, float(min(psis[k], psis[k + 1]))))
                 for k in range(n))
    return BlockedCircleDomain(CircleDomain.from_arrays(radii, psis), phis)


@settings(max_examples=60, deadline=None)
@given(blocked_domains(), st.floats(-0.95, 0.95), st.floats(-0.95, 0.95))
def test_distance_lipschitz_and_symmetric(d, a, b):
    M = d.outer_radius
    z = np.array([complex(a, b) * M, complex(a, -b) * M, 0.4 * M * a + 0j])
    inside = geometry.is_interior(z, d)
    dist, kind, idx, _ = geometry.nearest_boundary(z, d)
    # reflection symmetry: z and conj(z) see the same feature at the same
    # distance
    if inside[0] and inside[1]:
        assert dist[0] == pytest.approx(dist[1], abs=1e-12)
        assert kind[0] == kind[1] and idx[0] == idx[1]
    # 1-Lipschitz in the query point
    if inside[0] and inside[2]:
        assert abs(dist[0] - dist[2]) <= abs(z[0] - z[2]) + 1e-12


@settings(max_examples=100, deadline=None)
@given(blocked_domains())
def test_theta_le_eta_plus_max_chi_exact(d):
    """Gate depth exceeds arc depth by at most the largest inset angle,
    verified in exact rational arithmetic."""
    psis = [Fraction(p) for p in d.psis]
    phis = [Fraction(p) for p in d.phis]
    chis = [min(psis[k], psis[k + 1]) - phis[k] for k in range(len(phis))]
    max_chi = max(chis)
    n = len(psis) - 1
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            theta = min(psis[j], psis[k]) - min(phis[j:k])
            eta = min(psis[j], psis[k]) - min(psis[j:k + 1])
            assert theta <= eta + max_chi


@settings(max_examples=60, deadline=None)
@given(blocked_domains())
def test_validate_generated_domains(d):
    assert all(v.startswith("warning:") for v in geometry.validate(d))
