"""Geometry: distance queries against a brute-force boundary sampler,
channel-depth combinatorics, and structural validation."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hmdf import geometry
from hmdf.geometry import (ARC, GATE, OUTER, Arc, BlockedCircleDomain,
                           CircleDomain, NotInteriorError)
from hmdf.potential import slit_disk, wos_exit_ensemble


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
        dist = geometry.nearest_boundary(z, blocked_example)
        brute = np.array([np.min(np.abs(zz - bnd)) for zz in z])
        assert np.all(dist <= brute + 1e-12)
        assert np.all(brute <= dist + spacing)

    def test_plain_disk(self):
        d = CircleDomain.disk(2.0)
        z = np.array([0.5 + 0.5j])
        (dist,) = geometry.nearest_boundary(z, d)
        (kind,), (index,), (modulus,) = geometry.nearest_feature(z, d)
        assert dist == pytest.approx(2.0 - abs(0.5 + 0.5j))
        assert (kind, index, modulus) == (OUTER, 0, 2.0)

    def test_arc_endpoint_region(self):
        d = CircleDomain.from_arrays([1.0, 2.0], [0.5, math.pi])
        # point just beyond the arc endpoint: nearest is the endpoint
        z = 1.0 * np.exp(1j * 0.7)
        (dist,) = geometry.nearest_boundary(np.array([z]), d)
        (kind,), (index,), (modulus,) = geometry.nearest_feature(np.array([z]), d)
        end = np.exp(1j * 0.5)
        assert dist == pytest.approx(abs(z - end))
        assert (kind, index, modulus) == (ARC, 0, 1.0)

    def test_gate_clamping(self, blocked_example):
        # point radially inside the gate span, near the +phi gate
        z = np.array([1.2 * np.exp(1j * 0.35)])
        (dist,) = geometry.nearest_boundary(z, blocked_example)
        (kind,), (index,), (modulus,) = geometry.nearest_feature(
            z, blocked_example)
        assert (kind, index) == (GATE, 0)
        # distance to infinite line through angle 0.3 at this radius, from
        # the gate point at the same radial coordinate
        assert dist == pytest.approx(1.2 * math.sin(0.05), abs=1e-12)
        assert modulus == pytest.approx(1.2 * math.cos(0.05), abs=1e-12)

    def test_not_interior_raises(self, blocked_example):
        # outside the outer circle, on arc 0, at both endpoints of arc 0,
        # and on a point arc
        end = np.exp(1.1j)
        point_arc = CircleDomain.from_arrays([1.0, 2.0], [0.0, math.pi])
        for z, dom in ((5.0 + 0j, blocked_example), (1.0 + 0j, blocked_example),
                       (end, blocked_example), (end.conjugate(), blocked_example),
                       (1.0 + 0j, point_arc)):
            assert not geometry.is_interior(np.array([z]), dom)[0]
            with pytest.raises(NotInteriorError):
                wos_exit_ensemble(dom, z, 10)

    def test_pocket_excluded(self, blocked_example):
        # behind gate 0: radius in (1, 1.4), angle < 0.3
        assert not geometry.is_interior(np.array([1.2 + 0.0j]), blocked_example)[0]
        assert geometry.is_interior(np.array([1.2 * np.exp(1j * 0.5)]),
                                    blocked_example)[0]


def test_domain_arrays_read_only(blocked_example):
    # domains are frozen: their arrays are computed once and cannot be
    # written through
    for d in (blocked_example, blocked_example.base):
        for name in ("radii", "psis", "phis"):
            a = getattr(d, name)
            assert a is getattr(d, name)
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


class TestValidate:
    """Every constructor checks its invariants and names each violation."""

    def test_good_domain(self, blocked_example):
        # its base was checked when built; the gates pass their own check
        assert BlockedCircleDomain(blocked_example.base,
                                   blocked_example.gate_angles) == blocked_example

    def test_decreasing_radii(self):
        with pytest.raises(ValueError, match="increasing"):
            CircleDomain.from_arrays([2.0, 1.0], [0.5, math.pi])

    def test_outer_not_full(self):
        with pytest.raises(ValueError, match="outer"):
            CircleDomain.from_arrays([1.0, 2.0], [0.5, 3.0])

    def test_point_arc_is_legal(self):
        d = CircleDomain.from_arrays([1.0, 2.0], [0.0, math.pi])
        assert d.psis[0] == 0.0

    def test_every_violation_named(self):
        with pytest.raises(ValueError) as err:
            CircleDomain.from_arrays([2.0, -1.0], [4.0, 3.0])
        assert str(err.value) == "; ".join([
            "radii must be positive", "radii not increasing",
            "half-arclength outside [0, pi]",
            "outer boundary not full circle", "inner arc is a full circle"])
        with pytest.raises(ValueError, match="no arcs"):
            CircleDomain(())

    def test_non_finite_rejected(self):
        base = CircleDomain.from_arrays([1.0, 2.0], [0.5, math.pi])
        bad = [lambda: CircleDomain.from_arrays([1.0, math.nan], [0.5, math.pi]),
               lambda: CircleDomain.from_arrays([1.0, math.inf], [0.5, math.pi]),
               lambda: CircleDomain.from_arrays([1.0, 2.0], [math.nan, math.pi]),
               lambda: BlockedCircleDomain(base, (math.nan,))]
        for build in bad:
            with pytest.raises(ValueError, match="finite"):
                build()

    def test_gate_exceeds_arc(self):
        base = CircleDomain.from_arrays([1.0, 2.0], [0.5, math.pi])
        with pytest.raises(ValueError, match="gate"):
            BlockedCircleDomain(base, (0.9,))
        with pytest.raises(ValueError, match="gate angle negative"):
            BlockedCircleDomain(base, (-0.1,))
        with pytest.raises(ValueError, match="gate count"):
            BlockedCircleDomain(base, (0.1, 0.1))


class TestEtaTheta:
    def test_hand_values(self):
        base = CircleDomain.from_arrays([1.0, 1.2, 1.5, 2.0],
                                        [1.0, 0.4, 0.8, math.pi])
        d = BlockedCircleDomain(base, (0.3, 0.35, 0.6))
        # theta(0, 2) = min(1.0, 0.8) - min(0.3, 0.35) = 0.5
        assert geometry.theta(d, 0, 2) == pytest.approx(0.5)
        # adjacent pair: the one gate between them
        assert geometry.theta(d, 1, 2) == pytest.approx(0.4 - 0.35)
        with pytest.raises(IndexError):
            geometry.theta(d, 2, 1)


# ---------------------------------------------------------------------------
# Property tests.


@st.composite
def blocked_domains(draw):
    """Blocked domains with 1-16 arcs, some of them point arcs (psi = 0)
    and some gates on the axis (phi = 0)."""
    n = draw(st.integers(1, 16))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    radii = np.cumsum([0.5] + gaps)
    psis = [draw(st.just(0.0) | st.floats(0.01, math.pi - 0.01))
            for _ in range(n)] + [math.pi]
    phis = tuple(draw(st.just(0.0) | st.floats(0.0, float(min(psis[k], psis[k + 1]))))
                 for k in range(n))
    return BlockedCircleDomain(CircleDomain.from_arrays(radii, psis), phis)


def domains():
    """Blocked domains, their circle domains, and slit disks."""
    return (blocked_domains()
            | blocked_domains().map(lambda d: d.base)
            | st.tuples(st.floats(0.1, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
            .map(lambda t: slit_disk(t[0], t[0] + t[1], t[0] + t[1] + t[2])))


def scan_nearest_boundary(z, d):
    """Reference: the full scan over every feature that ``nearest_boundary``
    replaced, kept verbatim."""
    z = np.asarray(z, dtype=complex)
    radii, psis, gate_phi = d.radii, d.psis, d.phis
    n = len(radii) - 1
    M = radii[n]

    rho = np.abs(z)
    ang = np.abs(np.angle(z))

    best_d = M - rho
    np.abs(best_d, out=best_d)
    best_kind = np.full(z.shape, OUTER, dtype=np.int8)
    best_idx = np.full(z.shape, n, dtype=np.int64)
    best_mod = np.full(z.shape, M, dtype=float)

    # Gates first, then arcs, so that the final arc pass wins ties and the
    # arcs < gates < outer preference order holds under argmin semantics.
    for k in range(len(gate_phi) - 1, -1, -1):
        a, b, phi = radii[k], radii[k + 1], gate_phi[k]
        w = z * np.exp(-1j * phi)
        t = np.clip(w.real, a, b)
        dist = np.hypot(w.real - t, w.imag)
        if phi > 0.0:
            # mirror gate at -phi == gate at +phi seen from conj(z)
            w2 = np.conj(z) * np.exp(-1j * phi)
            t2 = np.clip(w2.real, a, b)
            dist2 = np.hypot(w2.real - t2, w2.imag)
            t = np.where(dist2 < dist, t2, t)
            dist = np.minimum(dist, dist2)
        take = dist <= best_d
        best_d = np.where(take, dist, best_d)
        best_kind = np.where(take, np.int8(GATE), best_kind)
        best_idx = np.where(take, k, best_idx)
        best_mod = np.where(take, t, best_mod)

    for k in range(n - 1, -1, -1):
        r, psi = radii[k], psis[k]
        onarc = ang <= psi
        end = r * np.exp(1j * psi)
        dist = np.where(onarc, np.abs(rho - r),
                        np.minimum(np.abs(z - end), np.abs(z - np.conj(end))))
        take = dist <= best_d
        best_d = np.where(take, dist, best_d)
        best_kind = np.where(take, np.int8(ARC), best_kind)
        best_idx = np.where(take, k, best_idx)
        best_mod = np.where(take, r, best_mod)

    return best_d, best_kind, best_idx, best_mod


def adversarial_points(d, seed):
    """Points where the nearest feature is close to a tie: arc endpoints
    nudged by an ulp or so, whole circles of radius r_k, the gate rays and
    their extensions, the real axis with both signs of zero (through the
    radii and, nudged, the midpoints between them), the origin, points
    inside r_0 at angles just past each psi_k (where the covering arc sets
    the pruning threshold), and random points inside and just outside the
    disk."""
    rng = np.random.default_rng(seed)
    radii, psis, phis = d.radii, d.psis, d.phis
    M = radii[-1]
    nudge = np.array([1.0, 1 - 1e-15, 1 + 1e-15, 1 - 4e-16, 1 + 4e-16])
    ends = radii[:-1] * np.exp(1j * psis[:-1])
    pts = [np.outer(np.concatenate([ends, ends.conj()]), nudge).ravel(),
           np.outer(radii, np.exp(1j * rng.uniform(-math.pi, math.pi, 8))).ravel(),
           np.outer(radii, np.exp(1j * np.concatenate([psis, -psis]))).ravel(),
           [0j, complex(0.0, -0.0)]]
    past = np.outer(np.concatenate([psis, -psis]), nudge[[0, 2, 4]]).ravel()
    past = np.concatenate([past, past + 1e-9, past + 1e-3])
    pts.append(np.outer(radii[0] * np.array([0.5, 0.99, 1 - 1e-15]),
                        np.exp(1j * past)).ravel())
    mids = np.outer((radii[:-1] + radii[1:]) / 2, nudge).ravel()
    axis = np.concatenate([radii, mids, -radii, rng.uniform(-M, M, 8)])
    pts.append(axis + 0j)
    pts.append(np.array([complex(x, -0.0) for x in axis]))
    for k, phi in enumerate(phis):
        t = np.concatenate([rng.uniform(radii[k], radii[k + 1], 4),
                            radii[k:k + 2], [0.5 * radii[k], radii[k + 1] + 0.1]])
        ray = np.outer(t, np.exp(1j * phi * nudge)).ravel()
        pts += [ray, ray.conj()]
    pts.append(M * rng.uniform(0, 1.2, 64) * np.exp(1j * rng.uniform(-math.pi, math.pi, 64)))
    return np.concatenate([np.asarray(p, dtype=complex) for p in pts])


@settings(max_examples=200, deadline=None)
@given(domains(), st.integers(0, 2**32 - 1))
# Arc endpoints r e^{+-i psi}, and points an ulp or so beside them, where
# a query that drops the arc hands the point to the outer circle.
@example(CircleDomain.from_arrays([1.0, 2.0], [0.9, math.pi]), 0)
@example(BlockedCircleDomain(CircleDomain.from_arrays([1.0, 1.4, 2.0],
                                                      [1.1, 0.7, math.pi]),
                             (0.3, 0.0)), 1)
# The shape of the jump-ramp n = 16 stage: 16 arcs within 0.1 in radius,
# psi increasing, every gate inset by kappa_16 below its inner arc.
@example(BlockedCircleDomain(
    CircleDomain.from_arrays([1.0 + 0.0062 * k for k in range(17)],
                             [1.52 + 0.1 * k for k in range(16)] + [math.pi]),
    tuple(1.52 + 0.1 * k - 0.0172 for k in range(16))), 2)
# psi not monotone, so the running maximum of psi differs from psi.
@example(BlockedCircleDomain(
    CircleDomain.from_arrays([1.0, 1.2, 1.4, 1.6, 2.0],
                             [2.0, 0.5, 2.5, 1.0, math.pi]),
    (0.3, 0.2, 0.0, 0.5)), 3)
def test_nearest_boundary_matches_full_scan(d, seed):
    """The distance query returns the full scan's distance, and the
    feature query its kind, index and modulus, bit for bit; the feature
    query gives the same given the distance or not."""
    z = adversarial_points(d, seed)
    dist = geometry.nearest_boundary(z, d)
    want = scan_nearest_boundary(z, d)
    got = (dist, *geometry.nearest_feature(z, d))
    given_dist = geometry.nearest_feature(z, d, dist)
    for g, w in zip(got + given_dist, want + want[1:]):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)
        assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(blocked_domains(), st.floats(-0.95, 0.95), st.floats(-0.95, 0.95))
def test_distance_lipschitz_and_symmetric(d, a, b):
    M = d.outer_radius
    z = np.array([complex(a, b) * M, complex(a, -b) * M, 0.4 * M * a + 0j])
    inside = geometry.is_interior(z, d)
    dist = geometry.nearest_boundary(z, d)
    kind, idx, _ = geometry.nearest_feature(z, d)
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


def corruptions(d):
    """Every single corruption of a valid blocked domain, each as the
    violation it makes and the arrays (radii, psis, phis) it leaves."""
    radii, psis, phis = d.radii.copy(), d.psis.copy(), d.phis.copy()
    n = len(phis)

    def put(a, k, v):
        a = a.copy()
        a[k] = v
        return a

    caps = np.minimum(psis[:-1], psis[1:])
    out = [("outer", radii, put(psis, n, math.pi - 1e-3), None),
           ("finite", put(radii, n, math.nan), psis, None),
           ("finite", radii, put(psis, 0, math.nan), None),
           ("finite", radii, psis, put(phis, 0, math.nan)),
           ("gate angle negative", radii, psis, put(phis, 0, -1e-3)),
           ("gate angle exceeds", radii, psis, put(phis, 0, caps[0] + 1e-3))]
    for k in range(n):
        out.append(("increasing", put(put(radii, k, radii[k + 1]), k + 1, radii[k]),
                    psis, None))
        out.append(("outside", radii, put(psis, k, math.pi + 1e-3), None))
    return out


@settings(max_examples=60, deadline=None)
@given(blocked_domains())
def test_corrupted_generated_domains_raise(d):
    """A generated domain builds, and every single corruption of it
    raises at construction, naming the violation: swapped radii,
    psi_n < pi, psi_k > pi, a NaN, phi_k > cap and phi_k < 0."""
    for what, radii, psis, phis in corruptions(d):
        with pytest.raises(ValueError, match=what):
            base = CircleDomain.from_arrays(radii, psis)
            BlockedCircleDomain(base, tuple(d.phis if phis is None else phis))
