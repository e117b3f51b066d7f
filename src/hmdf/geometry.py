"""Circle-type planar domains.

A circle domain is a disk ``B(0, r_n)`` minus closed concentric circular
arcs, every arc centered on the positive real axis.  A blocked circle
domain additionally carries radial "gates" that close off the annular
channels between consecutive arcs, making the domain simply connected.

All domains here are symmetric about the real axis by construction, so an
arc is described by its radius and half-arclength psi, and a gate pair by
a single nonnegative angle phi.

Every domain is valid by construction, so every engine, walk-on-spheres
included, sees only valid ones.  The constructors raise ValueError naming
each violated invariant: they need at least one arc; finite radii,
half-arclengths and gate angles; positive, strictly increasing radii;
every psi in [0, pi], with psi = pi for the outer circle and no other
(psi = 0 is a point arc, legal but of zero measure); and one gate angle
per channel with 0 <= phi_k <= min(psi_k, psi_{k+1}), gates inside the
arcs they join.
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
    "Domain",
    "NotInteriorError",
    "KINDS",
    "ARC",
    "GATE",
    "OUTER",
    "nearest_boundary",
    "nearest_feature",
    "is_interior",
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
_NOT_FINITE = "radii, half-arclengths and gate angles must be finite"


def _raise_if(violations) -> None:
    message = "; ".join(violations)
    if message:
        raise ValueError(message)


def _arc_violations(radii: np.ndarray, psis: np.ndarray):
    """The violated invariants of a circle domain's arcs."""
    if len(radii) == 0:
        yield "domain has no arcs"
        return
    if not (np.isfinite(radii).all() and np.isfinite(psis).all()):
        yield _NOT_FINITE
    if np.any(radii <= 0):
        yield "radii must be positive"
    if np.any(np.diff(radii) <= 0):
        yield "radii not increasing"
    if np.any((psis < 0) | (psis > math.pi)):
        yield "half-arclength outside [0, pi]"
    if psis[-1] != math.pi:
        yield "outer boundary not full circle"
    if np.any(psis[:-1] >= math.pi):
        yield "inner arc is a full circle"


def _gate_violations(psis: np.ndarray, phis: np.ndarray):
    """The violated invariants of the gates on valid arcs ``psis``."""
    if len(phis) != len(psis) - 1:
        yield "gate count must equal arc count minus one"
        return
    if not np.isfinite(phis).all():
        yield _NOT_FINITE
    if np.any(phis < 0):
        yield "gate angle negative"
    if np.any(phis > np.minimum(psis[:-1], psis[1:]) + 1e-15):
        yield "gate angle exceeds neighboring arcs; channel not blocked"


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

    def __post_init__(self):
        _raise_if(_arc_violations(self.radii, self.psis))

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
        """Raises ValueError when ``radii`` and ``psis`` differ in length."""
        return CircleDomain(tuple(Arc(float(r), float(p))
                                  for r, p in zip(radii, psis, strict=True)))

    @staticmethod
    def disk(radius: float) -> "CircleDomain":
        """The plain disk ``B(0, radius)``."""
        return CircleDomain((Arc(float(radius), math.pi),))


@dataclass(frozen=True)
class BlockedCircleDomain:
    """A circle domain with each annular channel blocked by a gate pair.

    ``gate_angles[k]`` is the angle phi_k of the gates joining arc k to
    arc k+1; phi_k = 0 means a single gate on the positive real axis.
    The array views are read-only.  Only the gates are checked here:
    ``base`` checked its arcs when it was built.
    """

    base: CircleDomain
    gate_angles: tuple[float, ...]

    def __post_init__(self):
        _raise_if(_gate_violations(self.psis, self.phis))

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


# ---------------------------------------------------------------------------
# Distance queries.  Everything is vectorized over complex arrays because the
# walk-on-spheres engine calls this in bulk: ``nearest_boundary`` at every
# walk step, ``nearest_feature`` once per batch at the exit points only.


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


def _candidates(z, rho, ang, thr, d, skip=None):
    """The arcs and gates whose lower bounds are at most ``thr`` at a point,
    each evaluated there: arrays ``(point, feature, distance, modulus)``,
    one entry per such pair, features numbered arcs 0..n-1 then gates
    n..n+g-1.  ``skip[p]`` is an arc already evaluated at point p, or n
    for none.  The angular bound ``(2/pi) sqrt(rho r_k) delta <= thr`` is
    tested as ``sqrt(r_k) delta <= (pi/2) thr / sqrt(rho)``, which errs by
    a few ulps of ``thr`` and of the bound."""
    radii, psis, gate_phi = d.radii, d.psis, d.phis
    n, g = len(radii) - 1, len(gate_phi)
    # Row k is radius k (the outer circle last) or arc k, column p point p.
    # The float rows are computed in place in one buffer: a fresh n-by-N
    # temporary per operation costs more than the operation.
    ge = radii[:, None] >= rho - thr
    le = radii[:, None] <= rho + thr
    root = np.sqrt(radii)[:, None]
    with np.errstate(divide="ignore"):  # rho = 0 prunes nothing by angle
        q = np.pi / 2 * thr / np.sqrt(rho)
    rows = np.subtract(ang, psis[:, None])
    rows *= root
    arcs = rows <= q
    arcs &= ge
    arcs &= le
    if skip is not None:
        arcs[skip, np.arange(z.size)] = False
    fa, pa = np.divmod(np.flatnonzero(arcs[:n]), z.size)
    rows = np.subtract(ang, gate_phi[:, None], out=rows[:g])
    np.abs(rows, out=rows)
    rows *= root[:g]
    gates = rows <= q
    gates &= ge[1:g + 1]
    gates &= le[:g]
    kg, pg = np.divmod(np.flatnonzero(gates), z.size)
    r, psi = radii[:n], psis[:n]
    dist_a = _arc_distance(z[pa], rho[pa], ang[pa], r[fa], psi[fa],
                           (r * np.exp(1j * psi))[fa])
    dist_g, mod_g = _gate_distance(z[pg], radii[kg], radii[kg + 1],
                                   np.exp(-1j * gate_phi)[kg])
    return (np.concatenate([pa, pg]), np.concatenate([fa, kg + n]),
            np.concatenate([dist_a, dist_g]), np.concatenate([r[fa], mod_g]))


def _distance(z, rho, d):
    """The nearest distance at the flat points ``z`` of modulus ``rho``."""
    radii, psis = d.radii, d.psis
    n = len(radii) - 1
    M = radii[n]
    best = M - rho
    np.abs(best, out=best)
    if not n:
        return best
    r, psi = radii[:n], psis[:n]
    ang = np.abs(np.angle(z))
    # The covering arc j, or the outer circle (j = n) where no arc covers.
    j = np.searchsorted(np.maximum.accumulate(psis), ang)
    np.minimum(j, n, out=j)  # NaN sorts last
    np.minimum(best, np.abs(rho - radii[j]), out=best)
    # Where no arc covers, the arc k nearest in radius bounds from above
    # without being evaluated: a path radially to its circle and along it.
    upper = best.copy()
    out = np.flatnonzero(j == n)
    k = np.searchsorted((r[:-1] + r[1:]) / 2, rho[out])
    upper[out] = np.minimum(upper[out], np.abs(rho[out] - r[k])
                            + r[k] * np.maximum(ang[out] - psi[k], 0.0))
    upper += _SLACK * (rho + M)
    p, _, dist, _ = _candidates(z, rho, ang, upper, d, skip=j)
    np.minimum.at(best, p, dist)
    return best


def nearest_boundary(z: np.ndarray, d: Domain) -> np.ndarray:
    """Distance from points ``z`` to the nearest boundary feature.

    This is the walk-on-spheres step query, so it returns the distance
    alone; ``nearest_feature`` names the feature.  The query is exact but
    evaluates a feature only at the points where it can be nearest.  With
    ``rho = |z|`` and ``M`` the outer radius:

    - Upper bounds, at every point.  The outer circle, at distance
      ``|M - rho|``.  The covering arc: the first arc j whose running
      maximum of psi reaches ``|arg z|``, found by
      ``np.searchsorted(np.maximum.accumulate(psi), |arg z|)``.  Then
      psi_j >= ``|arg z|``, so arc j's nearest point lies at the point's
      own angle and its distance is exactly ``|rho - r_j|``; where psi
      increases with the radius, as on the jump-ramp stages, it is the
      nearest arc that covers the point's angle.  And, where no arc covers
      it, the arc k nearest to ``rho`` in radius, not evaluated: a path
      radially to its circle and along it to the arc is ``|rho - r_k| +
      r_k max(|arg z| - psi_k, 0)`` long.  The least of these bounds the
      nearest distance.
    - Lower bounds: the radial gap from ``rho`` to ``r_k`` for arc k and to
      ``[r_k, r_{k+1}]`` for gate k; for gate k also the angular bound
      ``(2/pi) sqrt(rho r_k) | |arg z| - phi_k |``; and for arc k, whose
      nearest point is an endpoint where ``|arg z| > psi_k``, the angular
      bound ``(2/pi) sqrt(rho r_k) (|arg z| - psi_k)``, the same
      inequality.  Both follow from ``|z - t e^{ia}| >= 2 sqrt(|z| t)
      sin(|arg z - a| / 2)`` and ``sin(x / 2) >= x / pi`` on [0, pi].
    - Every arc and gate but the covering arc is evaluated only where its
      lower bounds are at most the upper bound plus ``64 eps (rho + M)``.
      The computed bounds and distances err by a few ulps of ``rho + M``
      each, well within this slack, so a feature skipped at a point is
      strictly farther there than the nearest one and can neither win nor
      tie.

    The result is the least evaluated distance, the outer circle's and the
    covering arc's included.  Each is the floating-point expression of a
    scan over every feature, both gates of a pair and both endpoints of an
    arc included: folding ``z`` into the upper half-plane would skip one of
    each, but moves near-tied distances by an ulp.  So for finite ``z`` the
    result is that scan's distance bit for bit.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    return _distance(flat, np.abs(flat), d).reshape(z.shape)


def nearest_feature(z: np.ndarray, d: Domain, dist: np.ndarray | None = None):
    """The nearest boundary feature of points ``z``: arrays ``(kind_code,
    index, modulus)``, where kind_code indexes ``KINDS`` and modulus is
    that of the feature's nearest point.  Arc k and gate k both start at
    ``radii[k]``; the outer circle has index n.

    ``dist`` is ``nearest_boundary(z, d)`` when the caller has it, as a
    walk does at its exit points; it is computed otherwise.  The features
    are those of ``nearest_boundary``'s candidate search with ``dist`` plus
    the same slack as threshold: every feature at distance ``dist`` passes
    it.  Ties resolve as in a scan over every feature: the least distance
    wins, ties going to the first of arcs 0..n-1, gates 0..n-1 and the
    outer circle, so for finite ``z`` the result is that scan's bit for
    bit.
    """
    z = np.asarray(z, dtype=complex)
    shape = z.shape
    z = z.ravel()
    radii = d.radii
    n, g = len(radii) - 1, len(d.phis)
    M = radii[n]
    rho = np.abs(z)
    dist = _distance(z, rho, d) if dist is None else np.ravel(dist)
    # Feature f is arc f for f < n, gate f - n for n <= f < n + g and the
    # outer circle for f = n + g.
    best_f = np.full(z.shape, n + g)
    best_mod = np.full(z.shape, M, dtype=float)
    if n:
        p, f, dist_c, mod_c = _candidates(z, rho, np.abs(np.angle(z)),
                                          dist + _SLACK * (rho + M), d)
        # The first feature at the least distance, the outer circle last.
        tied = np.flatnonzero(dist_c == dist[p])
        np.minimum.at(best_f, p[tied], f[tied])
        won = tied[f[tied] == best_f[p[tied]]]
        best_mod[p[won]] = mod_c[won]
    kinds = np.repeat(np.array([ARC, GATE, OUTER], dtype=np.int8), (n, g, 1))
    index = np.concatenate([np.arange(n), np.arange(g), [n]])
    return (kinds[best_f].reshape(shape), index[best_f].reshape(shape),
            best_mod.reshape(shape))


def is_interior(z: np.ndarray, d: Domain) -> np.ndarray:
    """True where ``z`` lies in the open component of the domain containing 0.

    For blocked circle domains the closed-off pockets behind the gates
    (between arcs, inside the gate angle) are excluded explicitly; points
    on the boundary, arcs included, have nearest distance 0.
    """
    z = np.asarray(z, dtype=complex)
    radii, gate_phi = d.radii, d.phis
    rho = np.abs(z)
    ang = np.abs(np.angle(z))
    ok = rho < radii[-1]
    for k in range(len(gate_phi)):
        pocket = (rho > radii[k]) & (rho < radii[k + 1]) & (ang < gate_phi[k])
        ok &= ~pocket
    ok &= nearest_boundary(z, d) > 0.0
    return ok


# ---------------------------------------------------------------------------
# Channel-depth combinatorics.


def theta(d: BlockedCircleDomain, j: int, k: int) -> float:
    """Depth of the deepest gate between arcs j and k:
    min(psi_j, psi_k) - min over phi_l for j <= l < k."""
    psi = d.psis
    phi = d.phis
    if not (0 <= j < k <= len(psi) - 1):
        raise IndexError(f"need 0 <= j < k <= n, got j={j}, k={k}")
    return float(min(psi[j], psi[k]) - phi[j:k].min())
