"""Harmonic-measure engines: walk-on-spheres and exact conformal-map
oracles (the polar-grid finite-difference solver is ``hmdf.fd``).

The three engines cross-validate each other: WoS is unbiased up to the
epsilon-shell classification bias, the FD solver is deterministic with a
measurable discretization error, and the closed forms are exact.
"""
from __future__ import annotations

import math
import cmath
import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import geometry
from .geometry import BlockedCircleDomain, CircleDomain, NotInteriorError

__all__ = [
    "MeasureEstimate",
    "HFunctionTable",
    "ExitEnsemble",
    "OffCenterDisk",
    "WosConfig",
    "wos_exit_ensemble",
    "estimate_h",
    "feature_measures",
    "exact_offcenter_disk_h",
    "exact_slit_disk_gate",
]

_BATCH = 1 << 15


@dataclass(frozen=True)
class MeasureEstimate:
    """One harmonic-measure value with its uncertainty and provenance."""

    value: float
    std_error: float
    method: str  # the engine that produced it, e.g. "wos"
    sample_count: int = 0
    discard_count: int = 0


@dataclass(frozen=True)
class HFunctionTable:
    """h(r) sampled at a sorted list of radii."""

    radii: tuple[float, ...]
    estimates: tuple[MeasureEstimate, ...]

    @property
    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.estimates])

    @property
    def std_errors(self) -> np.ndarray:
        return np.array([e.std_error for e in self.estimates])


@dataclass(frozen=True)
class OffCenterDisk:
    """Disk B(center, radius) containing the origin; WoS test domain with a
    continuous h-function."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and math.isfinite(self.radius)):
            raise ValueError("center and radius must be finite")
        if abs(self.center) >= self.radius:
            raise ValueError("origin must be interior: need |center| < radius")

    @property
    def mu(self) -> float:
        return self.radius - abs(self.center)

    @property
    def outer_radius(self) -> float:
        return self.radius + abs(self.center)


WosDomain = Union[CircleDomain, BlockedCircleDomain, OffCenterDisk]


@dataclass(frozen=True)
class WosConfig:
    """Walk-on-spheres settings.  ``epsilon`` is the absorbing-shell
    thickness relative to the outer radius; walks hitting ``max_steps``
    are discarded from the estimate and tallied.  Raises ValueError
    unless ``epsilon`` is positive and finite, ``max_steps`` at least 1
    and ``seed`` nonnegative."""

    epsilon: float = 1e-5
    max_steps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be positive and finite, "
                             f"got {self.epsilon}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class ExitEnsemble:
    """Terminal data of a WoS ensemble: per-walk nearest boundary feature
    (kind code, index) and the modulus of its nearest point.  ``steps``
    counts the walk positions whose distance was taken, each walk's start
    included."""

    kinds: np.ndarray
    indices: np.ndarray
    moduli: np.ndarray
    discard_count: int
    sample_count: int
    steps: int = 0


def _distance(dom: WosDomain, z: np.ndarray) -> np.ndarray:
    """The walk step query: the distance from ``z`` to the boundary."""
    if isinstance(dom, OffCenterDisk):
        return dom.radius - np.abs(z - dom.center)
    return geometry.nearest_boundary(z, dom)


def _feature(dom: WosDomain, z: np.ndarray, dist: np.ndarray):
    """Kind code, index and modulus of the nearest boundary feature at the
    exit points ``z``, whose distances ``dist`` the steps took."""
    if isinstance(dom, OffCenterDisk):
        w = z - dom.center
        aw = np.abs(w)
        with np.errstate(invalid="ignore", divide="ignore"):
            bp = dom.center + dom.radius * np.where(aw > 0, w / np.where(aw > 0, aw, 1.0), 1.0)
        return (np.full(z.shape, geometry.OUTER, dtype=np.int8),
                np.zeros(z.shape, dtype=np.int64), np.abs(bp))
    return geometry.nearest_feature(z, dom, dist)


def _check_interior(dom: WosDomain, z0: complex) -> None:
    if not cmath.isfinite(z0):
        raise NotInteriorError(f"{z0} not interior: not finite")
    if isinstance(dom, OffCenterDisk):
        if abs(z0 - dom.center) >= dom.radius:
            raise NotInteriorError(f"{z0} not interior to the disk")
        return
    if not bool(geometry.is_interior(np.array([z0]), dom)[0]):
        raise NotInteriorError(f"{z0} not interior to the domain")


def wos_exit_ensemble(dom: WosDomain, z0: complex = 0.0, n_samples: int = 10_000,
                      config: WosConfig = WosConfig(),
                      reflect: bool = False) -> ExitEnsemble:
    """Run ``n_samples`` walks from ``z0``.

    Walks jump to a uniform point of the largest inscribed circle until
    they enter the epsilon shell; the nearest feature there is the exit.
    Each step asks only for the distance (``geometry.nearest_boundary``);
    each batch names the features of its own exits at its end, in one
    ``geometry.nearest_feature`` query over its exit points only.
    Batches are seeded as (seed, batch_index) and each writes its own slice
    of the result, so results depend only on (seed, n_samples): an ensemble
    of several batches runs them on up to the usable cores, byte-identical
    to one core.
    ``reflect`` negates every angular draw (domain symmetry tests).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    _check_interior(dom, z0)
    eps_abs = config.epsilon * dom.outer_radius
    kinds = np.empty(n_samples, dtype=np.int8)
    indices = np.empty(n_samples, dtype=np.int64)
    moduli = np.empty(n_samples, dtype=float)
    done_mask = np.zeros(n_samples, dtype=bool)
    # Every walk starts at z0: one query serves the first step of all.
    start = _distance(dom, np.full(1, complex(z0)))

    def walk(batch: int) -> tuple[int, int]:
        """Walk one batch into its slice; return its discards and steps."""
        lo = batch * _BATCH
        b = min(_BATCH, n_samples - lo)
        rng = np.random.default_rng([config.seed, batch])
        z = np.full(b, complex(z0))
        alive = np.arange(b)
        exit_z = np.empty(b, dtype=complex)
        exit_d = np.empty(b, dtype=float)
        done = np.zeros(b, dtype=bool)
        steps = b
        for step in range(config.max_steps):
            if step:
                dist = _distance(dom, z)
                steps += z.size
            else:
                dist = np.repeat(start, b)
            hit = dist < eps_abs
            if hit.any():
                sel = alive[hit]
                exit_z[sel] = z[hit]
                exit_d[sel] = dist[hit]
                done[sel] = True
                keep = ~hit
                z = z[keep]
                alive = alive[keep]
                dist = dist[keep]
            if z.size == 0:
                break
            u = rng.random(z.size)
            if reflect:
                u = -u
            z = z + dist * np.exp(2j * math.pi * u)
        # The batch's exits name their features in one query.
        out = np.flatnonzero(done)
        sel = lo + out
        kinds[sel], indices[sel], moduli[sel] = _feature(dom, exit_z[out],
                                                         exit_d[out])
        done_mask[sel] = True
        return alive.size, steps

    n_batches = -(-n_samples // _BATCH)
    workers = min(n_batches, _usable_cores())
    if workers == 1:
        counts = [walk(i) for i in range(n_batches)]
    else:
        counts = _run_batches(walk, n_batches, workers)
    done = done_mask.sum()
    return ExitEnsemble(kinds[done_mask], indices[done_mask], moduli[done_mask],
                        int(sum(d for d, _ in counts)), int(done),
                        int(sum(s for _, s in counts)))


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_batches(walk, n_batches: int, workers: int) -> list:
    """``walk(i)`` for every batch ``i`` on ``workers`` threads, in batch
    order.  NumPy releases the GIL in its array loops, so batches overlap.
    The first error in batch order cancels the batches not yet started and
    is raised once the running ones end; every thread is joined before
    this returns."""
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(walk, range(n_batches)))


def feature_measures(ens: ExitEnsemble) -> dict[tuple[str, int], MeasureEstimate]:
    """Empirical harmonic measure of every boundary feature hit by the
    ensemble, with binomial standard errors."""
    out: dict[tuple[str, int], MeasureEstimate] = {}
    m = ens.sample_count
    if m == 0:
        return out
    keys = np.stack([ens.kinds.astype(np.int64), ens.indices], axis=1)
    uniq, counts = np.unique(keys, axis=0, return_counts=True)
    for (kc, idx), c in zip(uniq, counts):
        p = c / m
        se = math.sqrt(p * (1.0 - p) / m)
        out[(geometry.KINDS[kc], int(idx))] = MeasureEstimate(
            p, se, "wos", sample_count=m, discard_count=ens.discard_count)
    return out


def estimate_h(dom: WosDomain, radii: Sequence[float], z0: complex = 0.0,
               n_samples: int = 100_000,
               config: WosConfig = WosConfig()) -> HFunctionTable:
    """Estimate the h-function at the given sorted radii from one exit
    ensemble: h(r) is the CDF of the exit-point modulus (closed ball).
    Raises RuntimeError when no walk reached the boundary."""
    radii = [float(r) for r in radii]
    if not all(math.isfinite(r) for r in radii):
        raise ValueError("evaluation radii must be finite")
    if any(r2 < r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be sorted")
    ens = wos_exit_ensemble(dom, z0, n_samples, config)
    m = ens.sample_count
    if m == 0:
        raise RuntimeError(f"no walk reached the boundary: all {n_samples} "
                           f"hit max_steps={config.max_steps}")
    ests = []
    mod_sorted = np.sort(ens.moduli)
    for r in radii:
        c = int(np.searchsorted(mod_sorted, r, side="right"))
        p = c / m
        se = math.sqrt(p * (1.0 - p) / m)
        ests.append(MeasureEstimate(p, se, "wos", sample_count=m,
                                    discard_count=ens.discard_count))
    return HFunctionTable(tuple(radii), tuple(ests))


# ---------------------------------------------------------------------------
# Exact oracles.


def exact_offcenter_disk_h(center: complex, radius: float, r: float) -> float:
    """h-function of the off-center disk B(center, radius) at radius r,
    via the disk automorphism fixing 0: the measure is the normalized
    arclength of the image arc."""
    t = abs(center)
    if t >= radius:
        raise ValueError("origin must be interior: need |center| < radius")
    if r <= 0:
        raise ValueError("radius must be positive")
    if t == 0.0:
        return 1.0 if r >= radius else 0.0
    c = (r * r - t * t - radius * radius) / (2.0 * t * radius)
    if c <= -1.0:
        return 0.0
    if c >= 1.0:
        return 1.0
    theta_star = math.acos(c)
    s = t / radius
    w = (cmath.exp(1j * theta_star) + s) / (1.0 + s * cmath.exp(1j * theta_star))
    g = cmath.phase(w)  # in (0, pi) for theta_star in (0, pi)
    return 1.0 - g / math.pi


def exact_slit_disk_gate(r_k: float, r_k1: float, M: float) -> float:
    """Exact harmonic measure at 0 of the segment [r_k, r_{k+1}] in the
    slit disk B(0, M) minus [r_k, M]:
    (2/pi) arctan sqrt((r_{k+1}-r_k)(M^2 - r_{k+1} r_k) /
    (r_k (r_{k+1}+M)^2))."""
    if not (0 < r_k <= r_k1 <= M):
        raise ValueError("need 0 < r_k <= r_{k+1} <= M")
    if r_k1 == r_k:
        return 0.0
    arg = (r_k1 - r_k) * (M * M - r_k1 * r_k) / (r_k * (r_k1 + M) ** 2)
    return (2.0 / math.pi) * math.atan(math.sqrt(arg))


def slit_disk(r_k: float, r_k1: float, M: float) -> BlockedCircleDomain:
    """The slit disk B(0, M) minus [r_k, M] as a blocked circle domain:
    point arcs at r_k and r_{k+1} joined by on-axis gates."""
    base = CircleDomain.from_arrays([r_k, r_k1, M], [0.0, 0.0, math.pi])
    return BlockedCircleDomain(base, (0.0, 0.0))
