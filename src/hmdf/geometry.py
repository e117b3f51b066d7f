"""Circle-type planar domains.

A circle domain is a disk ``B(0, r_n)`` minus closed concentric circular
arcs, every arc centered on the positive real axis.  A blocked circle
domain additionally carries radial "gates" that close off the annular
channels between consecutive arcs, making the domain simply connected.

All domains here are symmetric about the real axis by construction, so an
arc is described by its radius and half-arclength psi, and a gate pair by
a single nonnegative angle phi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "Arc",
    "CircleDomain",
    "BlockedCircleDomain",
    "BoundaryFeature",
    "Domain",
    "NotInteriorError",
    "KINDS",
    "ARC",
    "GATE",
    "OUTER",
    "check_usable",
    "distance_to_boundary",
    "nearest_boundary",
    "is_interior",
    "validate",
    "eta",
    "theta",
]

# Boundary-feature kinds: a feature's kind code is its index here.
KINDS = ("arc", "gate", "outer-circle")
ARC, GATE, OUTER = range(len(KINDS))


def _frozen(values) -> np.ndarray:
    """A read-only float array: domains are immutable, and their array
    views are computed once and shared by every caller."""
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


_NO_GATES = _frozen(())


class NotInteriorError(ValueError):
    """The query point is outside the domain or on its boundary."""


@dataclass(frozen=True)
class Arc:
    """Closed circular arc of half-arclength ``psi`` centered at angle 0.

    ``psi == pi`` is a full circle; ``psi == 0`` is a degenerate
    single-point arc on the positive real axis (allowed, but carries no
    harmonic measure).
    """

    radius: float
    half_arclength: float


@dataclass(frozen=True)
class CircleDomain:
    """Disk minus concentric arcs; the last arc is the full outer circle.

    It reads like a blocked circle domain without gates: ``base`` is the
    domain itself and ``phis`` is empty.  The array views are read-only.
    """

    arcs: tuple[Arc, ...]

    @property
    def base(self) -> "CircleDomain":
        return self

    @property
    def phis(self) -> np.ndarray:
        return _NO_GATES

    @cached_property
    def radii(self) -> np.ndarray:
        return _frozen([a.radius for a in self.arcs])

    @cached_property
    def psis(self) -> np.ndarray:
        return _frozen([a.half_arclength for a in self.arcs])

    @property
    def n_arcs(self) -> int:
        """Number of proper (non-outer) arcs."""
        return len(self.arcs) - 1

    @property
    def mu(self) -> float:
        return self.arcs[0].radius

    @property
    def outer_radius(self) -> float:
        return self.arcs[-1].radius

    @staticmethod
    def from_arrays(radii, psis) -> "CircleDomain":
        return CircleDomain(tuple(Arc(float(r), float(p)) for r, p in zip(radii, psis)))

    @staticmethod
    def disk(radius: float) -> "CircleDomain":
        """The plain disk ``B(0, radius)``."""
        return CircleDomain((Arc(float(radius), math.pi),))


@dataclass(frozen=True)
class BlockedCircleDomain:
    """A circle domain with each annular channel blocked by a gate pair.

    ``gate_angles[k]`` is the angle phi_k of the gates joining arc k to
    arc k+1; phi_k = 0 means a single gate on the positive real axis.
    The array views are read-only.
    """

    base: CircleDomain
    gate_angles: tuple[float, ...]

    @property
    def radii(self) -> np.ndarray:
        return self.base.radii

    @property
    def psis(self) -> np.ndarray:
        return self.base.psis

    @cached_property
    def phis(self) -> np.ndarray:
        return _frozen(self.gate_angles)

    @property
    def chis(self) -> np.ndarray:
        """Inset angles chi_k = min(psi_k, psi_{k+1}) - phi_k."""
        psi = self.psis
        return np.minimum(psi[:-1], psi[1:]) - self.phis

    @property
    def mu(self) -> float:
        return self.base.mu

    @property
    def outer_radius(self) -> float:
        return self.base.outer_radius


Domain = Union[CircleDomain, BlockedCircleDomain]


@dataclass(frozen=True)
class BoundaryFeature:
    """A boundary component hit by a walk: which feature, and the modulus
    of the feature point nearest the query."""

    kind: str  # one of KINDS
    index: int
    modulus: float


def validate(d: Domain) -> list[str]:
    """Check all structural invariants; returns violations, never raises.

    Entries starting with ``"warning:"`` are advisory (capacity-zero
    point arcs); anything else makes the domain unusable.
    """
    out: list[str] = []
    radii, psis, phi = d.radii, d.psis, d.phis
    if len(radii) == 0:
        return ["domain has no arcs"]
    if not all(np.isfinite(a).all() for a in (radii, psis, phi)):
        out.append("radii, half-arclengths and gate angles must be finite")
    if np.any(radii <= 0):
        out.append("radii must be positive")
    if np.any(np.diff(radii) <= 0):
        out.append("radii not increasing")
    if np.any((psis < 0) | (psis > math.pi)):
        out.append("half-arclength outside [0, pi]")
    if psis[-1] != math.pi:
        out.append("outer boundary not full circle")
    if np.any(psis[:-1] >= math.pi):
        out.append("inner arc is a full circle")
    for k, p in enumerate(psis[:-1]):
        if p == 0.0:
            out.append(f"warning: capacity-zero feature: arc {k} has zero arclength")
    if isinstance(d, BlockedCircleDomain):
        if len(phi) != len(radii) - 1:
            out.append("gate count must equal arc count minus one")
        else:
            cap = np.minimum(psis[:-1], psis[1:])
            if np.any(phi < 0):
                out.append("gate angle negative")
            if np.any(phi > cap + 1e-15):
                out.append("gate angle exceeds neighboring arcs; channel not blocked")
    # Symmetry about the real axis is structural for these parametric
    # classes; report it explicitly as the definition asks.
    return out


def check_usable(d: Domain) -> None:
    """Raise ValueError naming every non-advisory ``validate`` violation."""
    bad = [v for v in validate(d) if not v.startswith("warning:")]
    if bad:
        raise ValueError("; ".join(bad))


# ---------------------------------------------------------------------------
# Distance queries.  Everything is vectorized over complex arrays because the
# walk-on-spheres engine calls this in bulk.


# Slack of the pruning test per unit of |z| + M (M the outer radius): the
# computed bounds and distances each err by a few ulps of |z| + M.
_SLACK = 64 * np.finfo(float).eps


def _gate_distance(z, a, b, rot):
    """Distance from ``z`` to the gate pair at angles +-phi spanning radii
    [a, b], where ``rot = exp(-1j * phi)``, and the modulus of its nearest
    point.  The +phi gate wins a tie; at phi = 0 the two coincide."""
    w = z * rot
    t = np.clip(w.real, a, b)
    dist = np.hypot(w.real - t, w.imag)
    # mirror gate at -phi == gate at +phi seen from conj(z)
    w2 = np.conj(z) * rot
    t2 = np.clip(w2.real, a, b)
    dist2 = np.hypot(w2.real - t2, w2.imag)
    return np.minimum(dist, dist2), np.where(dist2 < dist, t2, t)


def _arc_distance(z, rho, ang, r, psi, end):
    """Distance from ``z`` (modulus ``rho``, angle ``ang`` from the
    positive axis) to the arc of radius ``r`` and half-arclength ``psi``
    with endpoint ``end``."""
    return np.where(ang <= psi, np.abs(rho - r),
                    np.minimum(np.abs(z - end), np.abs(z - np.conj(end))))


def nearest_boundary(z: np.ndarray, d: Domain):
    """Distance from points ``z`` to the nearest boundary feature.

    Returns arrays ``(dist, kind_code, index, modulus)`` where kind_code
    indexes ``KINDS``.  Ties resolve to the lowest feature index with arcs
    before gates before the outer circle.  Arc k and gate k both start at
    ``radii[k]``; the outer circle has index n.

    The query is exact but evaluates a feature only at the points where it
    can be nearest.  With ``rho = |z|`` and ``M`` the outer radius:

    - The outer circle and the arc nearest to ``rho`` in radius are
      evaluated at every point; the nearer of the two bounds the nearest
      distance from above.
    - Lower bounds: the radial gap from ``rho`` to ``r_k`` for arc k and to
      ``[r_k, r_{k+1}]`` for gate k, and for gate k also the angular bound
      ``(2/pi) sqrt(rho r_k) | |arg z| - phi_k |``, which follows from
      ``|z - t e^{ia}| >= 2 sqrt(|z| t) sin(|arg z - a| / 2)``.
    - Any other feature is evaluated only where its lower bounds are at
      most the upper bound plus ``64 eps (rho + M)``.  The computed bounds
      and distances err by a few ulps of ``rho + M`` each, well within
      this slack, so a feature skipped at a point is strictly farther
      there than the nearest one and can neither win nor tie.

    Each evaluated distance is the floating-point expression of a scan over
    every feature, both gates of a pair and both endpoints of an arc
    included: folding ``z`` into the upper half-plane would skip one of
    each, but moves near-tied distances by an ulp.  The least distance
    wins, ties going to the first of arcs 0..n-1, gates 0..n-1 and the
    outer circle, so for finite ``z`` the result is that scan's bit for
    bit.
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.ravel()
    radii, psis, gate_phi = d.radii, d.psis, d.phis
    n, g = len(radii) - 1, len(gate_phi)
    M = radii[n]

    rho = np.abs(z)
    best_d = M - rho
    np.abs(best_d, out=best_d)
    # Feature f is arc f for f < n, gate f - n for n <= f < n + g and the
    # outer circle for f = n + g.
    best_f = np.full(z.shape, n + g)
    best_mod = np.full(z.shape, M, dtype=float)
    if n:
        r, psi = radii[:n], psis[:n]
        ends = r * np.exp(1j * psi)
        ang = np.abs(np.angle(z))
        # The arc nearest in radius, at every point.
        k = ((r[:-1, None] + r[1:, None]) / 2 < rho).sum(axis=0, dtype=np.int32)
        dist_k = _arc_distance(z, rho, ang, r[k], psi[k], ends[k])
        arc_won = dist_k <= best_d
        np.minimum(best_d, dist_k, out=best_d)
        best_f = np.where(arc_won, k, best_f)
        best_mod = np.where(arc_won, r[k], best_mod)

        # Every other feature, at the points its lower bounds allow.
        thr = best_d + _SLACK * (rho + M)
        below, above = rho - thr, rho + thr
        arcs = (r[:, None] >= below) & (r[:, None] <= above)
        arcs[k, np.arange(z.size)] = False
        fa, pa = np.divmod(np.flatnonzero(arcs), z.size)
        gates = (radii[1:g + 1, None] >= below) & (radii[:g, None] <= above)
        kg, pg = np.divmod(np.flatnonzero(gates), z.size)
        keep = np.flatnonzero(2 / np.pi * np.sqrt(rho[pg] * radii[kg])
                              * np.abs(ang[pg] - gate_phi[kg]) <= thr[pg])
        kg, pg = kg[keep], pg[keep]
        dist_a = _arc_distance(z[pa], rho[pa], ang[pa], r[fa], psi[fa], ends[fa])
        dist_g, mod_g = _gate_distance(z[pg], radii[kg], radii[kg + 1],
                                       np.exp(-1j * gate_phi)[kg])
        dist = np.concatenate([dist_a, dist_g])
        mod = np.concatenate([r[fa], mod_g])
        p = np.concatenate([pa, pg])
        f = np.concatenate([fa, kg + n])

        # Least distance per point, then the first feature at it.
        bound = best_d.copy()
        np.minimum.at(best_d, p, dist)
        best_f[best_d < bound] = n + g
        tied = np.flatnonzero(dist == best_d[p])
        np.minimum.at(best_f, p[tied], f[tied])
        won = tied[f[tied] == best_f[p[tied]]]
        best_mod[p[won]] = mod[won]

    kinds = np.repeat(np.array([ARC, GATE, OUTER], dtype=np.int8), (n, g, 1))
    index = np.concatenate([np.arange(n), np.arange(g), [n]])
    return (best_d.reshape(shape), kinds[best_f].reshape(shape),
            index[best_f].reshape(shape), best_mod.reshape(shape))


def is_interior(z: np.ndarray, d: Domain) -> np.ndarray:
    """True where ``z`` lies in the open component of the domain containing 0.

    For blocked circle domains the closed-off pockets behind the gates
    (between arcs, inside the gate angle) are excluded explicitly.
    """
    z = np.asarray(z, dtype=complex)
    radii, psis, gate_phi = d.radii, d.psis, d.phis
    rho = np.abs(z)
    ang = np.abs(np.angle(z))
    ok = rho < radii[-1]
    for k in range(len(radii) - 1):
        on = (ang <= psis[k]) & (rho == radii[k])
        ok &= ~on
    for k in range(len(gate_phi)):
        pocket = (rho > radii[k]) & (rho < radii[k + 1]) & (ang < gate_phi[k])
        ok &= ~pocket
    d0, _, _, _ = nearest_boundary(z, d)
    ok &= d0 > 0.0
    return ok


def distance_to_boundary(z: complex, d: Domain) -> tuple[float, BoundaryFeature]:
    """Exact distance from an interior point to the nearest boundary feature."""
    zz = np.array([z], dtype=complex)
    if not bool(is_interior(zz, d)[0]):
        raise NotInteriorError(f"point {z} is not interior to the domain")
    dist, kind, idx, mod = nearest_boundary(zz, d)
    return float(dist[0]), BoundaryFeature(KINDS[kind[0]], int(idx[0]), float(mod[0]))


# ---------------------------------------------------------------------------
# Channel-depth combinatorics.


def eta(d: Domain, j: int, k: int) -> float:
    """Depth of the shortest arc between arcs j and k:
    min(psi_j, psi_k) - min over psi_l for j <= l <= k."""
    psi = d.psis
    if not (0 <= j < k <= len(psi) - 1):
        raise IndexError(f"need 0 <= j < k <= n, got j={j}, k={k}")
    return float(min(psi[j], psi[k]) - psi[j:k + 1].min())


def theta(d: BlockedCircleDomain, j: int, k: int) -> float:
    """Depth of the deepest gate between arcs j and k:
    min(psi_j, psi_k) - min over phi_l for j <= l < k."""
    psi = d.psis
    phi = d.phis
    if not (0 <= j < k <= len(psi) - 1):
        raise IndexError(f"need 0 <= j < k <= n, got j={j}, k={k}")
    return float(min(psi[j], psi[k]) - phi[j:k].min())
