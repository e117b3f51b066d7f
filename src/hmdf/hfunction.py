"""Candidate h-functions: piecewise constant/linear nondecreasing maps 0 -> 1.

A candidate is zero up to its first breakpoint mu, one from its last
breakpoint on, right-continuous and nondecreasing in between.  Restricting
to piecewise constant/linear pieces keeps the minimal secant slope an
exact finite computation.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CandidateH",
    "StepH",
    "NecessaryReport",
    "evaluate",
    "left_limit",
    "minimal_secant_slope",
    "step_approximation",
    "necessary_checks",
    "example_jump_ramp",
]

CONSTANT = "constant"
LINEAR = "linear"
# Radii of the log grid on which necessary_checks samples a candidate.
_GRID_SIZE = 1024


@dataclass(frozen=True)
class CandidateH:
    """Piecewise constant/linear candidate h-function.

    ``values[i]`` is f(breakpoints[i]) (right-continuous).  On the interval
    [b_i, b_{i+1}) the function is either constant at values[i] or linear
    from values[i] to values[i+1].  f = 0 below b_0 = mu, f = 1 from
    b_last = M on.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        b, v, k = self.breakpoints, self.values, self.kinds
        if not all(math.isfinite(x) for x in (*b, *v)):
            raise ValueError("breakpoints and values must be finite")
        if len(b) < 2:
            raise ValueError("need at least two breakpoints (mu and M)")
        if len(v) != len(b) or len(k) != len(b) - 1:
            raise ValueError("breakpoints/values/kinds lengths inconsistent")
        if any(x2 <= x1 for x1, x2 in zip(b, b[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if b[0] <= 0:
            raise ValueError("mu must be positive")
        if any(y2 < y1 for y1, y2 in zip(v, v[1:])):
            raise ValueError("values must be nondecreasing")
        if not (0.0 <= v[0] and v[-1] == 1.0):
            raise ValueError("values must lie in [0,1] and end at exactly 1")
        if any(kk not in (CONSTANT, LINEAR) for kk in k):
            raise ValueError("segment kinds must be 'constant' or 'linear'")
        if v[0] == 0.0 and k[0] == CONSTANT:
            raise ValueError("f must be positive on (mu, M); first breakpoint is not mu")

    @property
    def mu(self) -> float:
        return self.breakpoints[0]

    @property
    def M(self) -> float:
        return self.breakpoints[-1]


@dataclass(frozen=True)
class StepH:
    """Right-continuous step function with jumps at ``radii``; cumulative
    value after the k-th jump is ``values[k]``, ending at exactly 1."""

    radii: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.radii) != len(self.values) or not self.radii:
            raise ValueError("radii/values lengths inconsistent")
        if not all(math.isfinite(x) for x in (*self.radii, *self.values)):
            raise ValueError("radii and values must be finite")
        if self.radii[0] <= 0:
            raise ValueError("jump radii must be positive")
        if any(r2 <= r1 for r1, r2 in zip(self.radii, self.radii[1:])):
            raise ValueError("jump radii must be strictly increasing")
        vals = (0.0,) + self.values
        if any(v2 <= v1 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("cumulative values must be strictly increasing")
        if self.values[-1] != 1.0:
            raise ValueError("last cumulative value must be exactly 1")

    def __call__(self, r: float) -> float:
        i = bisect.bisect_right(self.radii, r)
        return 0.0 if i == 0 else self.values[i - 1]

    @property
    def jumps(self) -> np.ndarray:
        return np.diff(np.concatenate(([0.0], self.values)))


def evaluate(f: CandidateH, r: float | np.ndarray) -> float | np.ndarray:
    """f(r), honoring right-continuity at breakpoints: a float for a
    scalar r, an array of the same shape for an array of radii."""
    rs = np.asarray(r, dtype=float)
    if not np.all(rs > 0):
        raise ValueError("radius must be positive")
    b = np.asarray(f.breakpoints)
    v = np.asarray(f.values)
    i = np.clip(np.searchsorted(b, rs, side="right") - 1, 0, len(b) - 2)
    linear = np.array([k == LINEAR for k in f.kinds])[i]
    t = (rs - b[i]) / (b[i + 1] - b[i])
    out = np.where(linear, v[i] + t * (v[i + 1] - v[i]), v[i])
    out = np.where(rs < b[0], 0.0, np.where(rs >= b[-1], 1.0, out))
    return float(out) if out.ndim == 0 else out


def left_limit(f: CandidateH, i: int) -> float:
    """lim of f at breakpoints[i] from below."""
    if i == 0:
        return 0.0
    return f.values[i - 1] if f.kinds[i - 1] == CONSTANT else f.values[i]


def minimal_secant_slope(f: CandidateH) -> float:
    """Normalized minimal secant slope alpha in [0, 1].

    alpha = (M - mu) * inf over mu <= rho1 < rho2 <= M of the secant
    slopes of f.  For piecewise constant/linear f the infimum is attained
    (or approached) on the corner set of the completed graph, so it is an
    exact minimum over finitely many pairs.
    """
    b = f.breakpoints
    m = len(b)
    # rho1 candidates use right-continuous values; rho2 candidates also use
    # left limits (approached as rho2 tends to a breakpoint from below).
    lo = [(b[i], f.values[i]) for i in range(m - 1)]
    hi = [(b[j], f.values[j]) for j in range(1, m)]
    hi += [(b[j], left_limit(f, j)) for j in range(1, m)]
    best = math.inf
    for r1, y1 in lo:
        for r2, y2 in hi:
            if r2 > r1:
                best = min(best, (y2 - y1) / (r2 - r1))
    alpha = (f.M - f.mu) * best
    return min(max(alpha, 0.0), 1.0)


def step_approximation(f: CandidateH, n: int) -> StepH:
    """Step function on the uniform grid mu + (M-mu) k/n, approximating f
    from below and agreeing with f at the grid radii.  Zero-height jumps
    are dropped."""
    if n < 1:
        raise ValueError("need n >= 1")
    mu, M = f.mu, f.M
    grid = [mu + (M - mu) * k / n for k in range(n + 1)]
    grid[-1] = M
    vals = [evaluate(f, r) for r in grid]
    radii_out: list[float] = []
    vals_out: list[float] = []
    prev = 0.0
    for r, v in zip(grid, vals):
        if v > prev:
            radii_out.append(r)
            vals_out.append(v)
            prev = v
    vals_out[-1] = 1.0
    return StepH(tuple(radii_out), tuple(vals_out))


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of the necessary-condition checks on a candidate."""

    monotone: bool
    range_ok: bool
    beurling_ok: bool
    first_violation: tuple[float, float, float] | None = None  # (r, f(r), bound)

    @property
    def ok(self) -> bool:
        return self.monotone and self.range_ok and self.beurling_ok


def beurling_bound(mu: float, r: float) -> float:
    """Lower bound 1 - (4/pi) arctan sqrt(mu/r) that the h-function of any
    simply connected domain with inner radius mu must dominate."""
    if not 0 < mu <= r:
        raise ValueError("need 0 < mu <= r")
    return 1.0 - (4.0 / math.pi) * math.atan(math.sqrt(mu / r))


def necessary_checks(f: CandidateH) -> NecessaryReport:
    """Verify monotonicity, range, and the Milloux/Beurling lower bound for
    simply connected realizability, on a log grid of ``_GRID_SIZE`` radii.
    Right-continuity is not checked: ``evaluate`` takes the right value at
    every breakpoint by construction."""
    # Monotonicity and range are structural for CandidateH, but re-verify on
    # a sample in case of pathological float breakpoints.
    mu, M = f.mu, f.M
    rs = np.geomspace(mu, M, _GRID_SIZE + 1)[1:]
    vals = evaluate(f, rs)
    monotone = bool(np.all(np.diff(vals) >= -1e-15))
    range_ok = bool(np.all((vals >= 0.0) & (vals <= 1.0)))
    # Screen with the vectorized bound, which may differ from the scalar
    # one in the last bits, then decide each candidate radius in order with
    # the scalar bound.
    screen = 1.0 - (4.0 / np.pi) * np.arctan(np.sqrt(mu / rs))
    first = None
    for i in np.flatnonzero(vals < screen - 1e-12 + 1e-14):
        r, v = float(rs[i]), float(vals[i])
        bound = beurling_bound(mu, r)
        if v < bound - 1e-12:
            first = (r, v, bound)
            break
    return NecessaryReport(monotone, range_ok, first is None, first)


def example_jump_ramp(mu: float = 1.0, gap: float = 0.0992,
                      beta: float = 0.5) -> CandidateH:
    """The jump-then-ramp candidate: 0 up to mu, jump to beta, linear ramp
    to 1 at mu + gap.  The default parameters give the function whose
    realizability was previously open."""
    return CandidateH((mu, mu + gap), (beta, 1.0), (LINEAR,))
