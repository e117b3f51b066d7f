"""Closed-form harmonic-measure estimates for channels, gates, and arcs.

Every function here is a pure evaluator of one of the quantitative bounds
used by the construction pipeline: channel estimates, the gate-difference
bound |h_X - h_Omega|, the arc-length lower bound, the chi ladder with its
closed-form supremum, the m-thresholds, and the kappa inset-angle rule.
Vacuous bounds (> 1) are returned as-is; callers compare against the
formulas verbatim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .geometry import BlockedCircleDomain

__all__ = [
    "Thresholds",
    "KappaReport",
    "channel_bound_straight",
    "channel_bound_curved",
    "gate_axis_bound",
    "hdiff_bound",
    "arc_lower_bound",
    "chi1",
    "chi_p",
    "chi_inf",
    "chi_inf_inverse",
    "thresholds",
    "kappa",
    "kappa_conditions_report",
]


def channel_bound_straight(xs, widths) -> float:
    """Harmonic measure through a straight channel of sampled width
    profile: (8/pi) exp(-pi * integral dx / width(x)), Simpson rule."""
    xs = np.asarray(xs, dtype=float)
    widths = np.asarray(widths, dtype=float)
    if np.any(widths <= 0):
        raise ValueError("channel width must be positive")
    if xs.size < 2 or xs[-1] == xs[0]:
        return 8.0 / math.pi
    integral = simpson(1.0 / widths, x=xs)
    return (8.0 / math.pi) * math.exp(-math.pi * integral)


def channel_bound_curved(r0: float, r1: float, b: float, theta0: float) -> float:
    """Harmonic measure of a set at the bottom of an annular channel with
    inner radius r0, outer radius r1, reaching from angle b to theta0:
    (16/pi) exp(-pi r0 (theta0 - b) / (2 (r1 - r0)))."""
    if not (0 < r0 < r1) or not (0 <= b <= theta0):
        raise ValueError("need 0 < r0 < r1 and 0 <= b <= theta0")
    return (16.0 / math.pi) * math.exp(-math.pi * r0 * (theta0 - b) / (2.0 * (r1 - r0)))


def gate_axis_bound(r_k: float, r_k1: float) -> float:
    """Bound (2/pi) sqrt((r_{k+1} - r_k)/r_k) for a gate on the positive
    real axis."""
    if not (0 < r_k <= r_k1):
        raise ValueError("need 0 < r_k <= r_{k+1}")
    return (2.0 / math.pi) * math.sqrt((r_k1 - r_k) / r_k)


def hdiff_bound(d: BlockedCircleDomain) -> float:
    """Upper bound on sup_r |h_X(r) - h_Omega(r)| over all radii:
    curved-channel terms for inset gate pairs plus axis terms for gates on
    the real axis.  May exceed 1 (vacuous) for weak insets."""
    r = d.radii
    phi = d.phis
    chi = d.chis
    total = 0.0
    for k in range(len(phi)):
        if phi[k] > 0.0:
            total += (32.0 / math.pi) * math.exp(
                -math.pi * r[k] * chi[k] / (2.0 * (r[k + 1] - r[k])))
        else:
            total += gate_axis_bound(r[k], r[k + 1])
    return total


def arc_lower_bound(beta: float, r_k: float, M: float) -> float | None:
    """Lower bound on the half-arclength of an arc carrying harmonic
    measure beta at radius r_k in a circle domain of outer radius M.

    Returns None when the hypothesis r_k >= M (1 - 1/e) fails (the bound
    is only asserted under it).  The value may be negative (vacuous).
    """
    if r_k > M:
        raise ValueError("arc radius exceeds outer radius")
    if r_k < M * (1.0 - 1.0 / math.e):
        return None
    if r_k == M:
        return min(math.pi / 2.0, math.pi * beta)
    gap = (M - r_k) / r_k
    val = math.pi * beta - (2.0 / math.pi) * gap * (
        2.0 * math.log(M / (M - r_k)) + math.pi ** 2)
    return min(math.pi / 2.0, val)


# ---------------------------------------------------------------------------
# The chi ladder: chi_1 counts out one third of the short arcs, chi_p the
# recursion, chi_inf the closed-form supremum.


def _check_delta(delta: float, mu: float, M: float) -> None:
    # A few ulps of slack: M - mu can round below the width M was built from.
    if not (0 < delta <= M - mu + 4.0 * math.ulp(M)):
        raise ValueError("need 0 < delta <= M - mu")


def chi1(delta: float, alpha: float, mu: float, M: float) -> float:
    """chi_1(delta) = (2/(pi mu)) delta log((128/(pi alpha)) (M-mu)/delta)."""
    _check_delta(delta, mu, M)
    if not 0 < alpha <= 1:
        raise ValueError("need alpha in (0, 1]")
    return (2.0 / (math.pi * mu)) * delta * math.log(
        (128.0 / (math.pi * alpha)) * (M - mu) / delta)


def chi_p(delta: float, p: int, alpha: float, mu: float, M: float) -> float:
    """chi_p(delta) = sum_{q=0}^{p-1} chi_1(2^-q delta)."""
    if p < 1:
        raise ValueError("need p >= 1")
    return sum(chi1(delta * 2.0 ** (-q), alpha, mu, M) for q in range(p))


def chi_inf(delta: float, alpha: float, mu: float, M: float) -> float:
    """sup_p chi_p(delta) = (4/(pi mu)) delta (log((M-mu)/(alpha delta))
    + log(256/pi)); increasing in delta with limit 0 at 0+."""
    _check_delta(delta, mu, M)
    if not 0 < alpha <= 1:
        raise ValueError("need alpha in (0, 1]")
    return (4.0 / (math.pi * mu)) * delta * (
        math.log((M - mu) / (alpha * delta)) + math.log(256.0 / math.pi))


def chi_inf_inverse(eps: float, alpha: float, mu: float, M: float) -> float:
    """Largest delta in (0, M-mu] with chi_inf(delta) <= eps (bisection;
    chi_inf is increasing)."""
    if eps <= 0:
        raise ValueError("need eps > 0")
    hi = M - mu
    if chi_inf(hi, alpha, mu, M) <= eps:
        return hi
    lo = hi * 1e-18
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi_inf(mid, alpha, mu, M) <= eps:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# m-thresholds.


@dataclass(frozen=True)
class Thresholds:
    """The three ratio thresholds; (M - mu)/mu below min(m1, m2, m3)
    certifies the jump-candidate sufficient condition."""

    m1: float
    m2: float
    m3: float
    g_residual: float

    @property
    def m_min(self) -> float:
        return min(self.m1, self.m2, self.m3)


def _g(m: float, alpha: float) -> float:
    return ((2.0 / math.pi) * m * (2.0 * math.log1p(1.0 / m) + math.pi ** 2)
            + (4.0 / math.pi) * m * math.log(256.0 / (math.pi * alpha)))


def thresholds(alpha: float, beta: float) -> Thresholds:
    """m1 = 1/(e-1); m2 = pi^2 / (8 log(256/(pi alpha))); m3 the unique
    root of g(m) = pi beta, by bisection on (1e-12, 1)."""
    if not (0 < alpha < 1) or not (0 < beta < 1):
        raise ValueError("need alpha, beta in (0, 1)")
    m1 = 1.0 / (math.e - 1.0)
    m2 = math.pi ** 2 / (8.0 * math.log(256.0 / (math.pi * alpha)))
    target = math.pi * beta
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _g(mid, alpha) < target:
            lo = mid
        else:
            hi = mid
    m3 = 0.5 * (lo + hi)
    return Thresholds(m1, m2, m3, abs(_g(m3, alpha) - target))


# ---------------------------------------------------------------------------
# Inset-angle schedule.


def kappa(n: int, mu: float, M: float) -> float:
    """Inset-angle rule kappa_n = ((M - mu)/(mu n)) log n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (M - mu) / (mu * n) * math.log(n)


@dataclass(frozen=True)
class KappaReport:
    ns: tuple[int, ...]
    kappas: tuple[float, ...]
    decay_terms: tuple[float, ...]  # n exp(-pi mu n kappa_n / (2 (M-mu)))
    kappa_to_zero: bool
    decay_to_zero: bool
    monotone_from: int

    @property
    def ok(self) -> bool:
        return self.kappa_to_zero and self.decay_to_zero


def kappa_conditions_report(mu: float, M: float, n_max: int = 10 ** 6) -> KappaReport:
    """Tabulate kappa_n and the decay sequence n exp(-pi mu n kappa_n /
    (2(M-mu))) on a log-spaced sample up to n_max and confirm both tend
    to zero, monotonically beyond a computed index."""
    ns = sorted(set(int(x) for x in np.geomspace(1, n_max, 60)))
    kaps = [kappa(n, mu, M) for n in ns]
    # with the default rule the exponent collapses to n^(1 - pi/2)
    decay = [n * math.exp(-math.pi * mu * n * kappa(n, mu, M) / (2.0 * (M - mu)))
             for n in ns]
    mono_from = 0
    for i in range(len(ns) - 1, 0, -1):
        if not (kaps[i] <= kaps[i - 1] and decay[i] <= decay[i - 1]):
            mono_from = i
            break
    return KappaReport(
        tuple(ns), tuple(kaps), tuple(decay),
        kappa_to_zero=kaps[-1] < 1e-3 * kaps[mono_from] + 1e-12 or kaps[-1] < 1e-6,
        decay_to_zero=decay[-1] < 1e-3 * max(decay) + 1e-12 or decay[-1] < 1e-3,
        monotone_from=ns[mono_from],
    )
