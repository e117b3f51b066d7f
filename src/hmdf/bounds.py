"""Closed-form harmonic-measure estimates for gates, arcs and the
inset-angle schedule.

Every public function here is a bound the construction pipeline
evaluates: the gate-difference bound |h_X - h_Omega| (``hdiff_bound``,
the sum of the per-channel ``gate_bounds``, which take
``gate_axis_bound`` for gates on the axis), the arc-length lower
bound that each stage checks against its arcs, the closed-form chi
supremum and its inverse (for the limit-uniformity diagnostics), the
m-thresholds, and the kappa inset-angle rule.  Vacuous bounds (> 1) are
returned as-is; callers compare against the formulas verbatim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import BlockedCircleDomain

__all__ = [
    "Thresholds",
    "gate_axis_bound",
    "gate_bounds",
    "hdiff_bound",
    "arc_lower_bound",
    "chi_inf",
    "chi_inf_inverse",
    "thresholds",
    "kappa",
]


def gate_axis_bound(r_k: float, r_k1: float) -> float:
    """Bound (2/pi) sqrt((r_{k+1} - r_k)/r_k) for a gate on the positive
    real axis."""
    if not (0 < r_k <= r_k1):
        raise ValueError("need 0 < r_k <= r_{k+1}")
    return (2.0 / math.pi) * math.sqrt((r_k1 - r_k) / r_k)


def gate_bounds(d: BlockedCircleDomain) -> list[float]:
    """Upper bound on each channel's gate measure, in channel order; may
    exceed 1 (vacuous) for weak insets.  A gate on the axis takes
    ``gate_axis_bound``.

    A gate at the bottom of the curved channel between radii r_k and
    r_{k+1}, chi_k deep, carries at most the curved-channel estimate
    (16/pi) exp(-pi r_k chi_k / (2 (r_{k+1} - r_k))).  A pair has one
    such gate at each of +-phi_k, so its constant is 32/pi, twice 16/pi."""
    r = d.radii
    chi = d.chis
    return [(32.0 / math.pi) * math.exp(
        -math.pi * r[k] * chi[k] / (2.0 * (r[k + 1] - r[k])))
        if phi > 0.0 else gate_axis_bound(r[k], r[k + 1])
        for k, phi in enumerate(d.phis)]


def hdiff_bound(d: BlockedCircleDomain) -> float:
    """Upper bound on sup_r |h_X(r) - h_Omega(r)| over all radii: the sum
    of ``gate_bounds``, added left to right."""
    total = 0.0  # not sum(): from Python 3.12 it compensates, moving bits
    for term in gate_bounds(d):
        total += term
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
# The chi ladder: chi_1(delta) = (2/(pi mu)) delta log((128/(pi alpha))
# (M-mu)/delta) counts out one third of the short arcs, chi_p(delta) =
# sum_{q<p} chi_1(2^-q delta) is the recursion, and the pipeline uses only
# its closed-form supremum chi_inf.


def _check_delta(delta: float, mu: float, M: float) -> None:
    # A few ulps of slack: M - mu can round below the width M was built from.
    if not (0 < delta <= M - mu + 4.0 * math.ulp(M)):
        raise ValueError("need 0 < delta <= M - mu")


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
    return _bisect(lambda d: chi_inf(d, alpha, mu, M) <= eps, hi * 1e-18, hi)[0]


def _bisect(below, lo: float, hi: float) -> tuple[float, float]:
    """The last (lo, hi) of 200 bisections for where ``below`` turns
    false: each midpoint it accepts becomes lo, each it rejects hi."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


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
    lo, hi = _bisect(lambda m: _g(m, alpha) < target, 1e-12, 1.0)
    m3 = 0.5 * (lo + hi)
    return Thresholds(m1, m2, m3, abs(_g(m3, alpha) - target))


# ---------------------------------------------------------------------------
# Inset-angle schedule.


def kappa(n: int, mu: float, M: float) -> float:
    """Inset-angle rule kappa_n = ((M - mu)/(mu n)) log n.

    Under this rule the decay term n exp(-pi mu n kappa_n / (2 (M - mu)))
    is n^(1 - pi/2) for every mu and M, so it and kappa_n tend to zero."""
    if n < 1:
        raise ValueError("need n >= 1")
    return (M - mu) / (mu * n) * math.log(n)
