"""Inverting step functions into circle domains and the full certification
pipeline for jump-type candidate h-functions.

``solve_circle_domain`` finds arc half-arclengths whose harmonic-measure
jumps match a target step function.  ``run_pipeline`` drives the whole
construction: step approximation, inversion, gate insertion with the
inset-angle schedule, closed-form error bounds, Monte Carlo verification,
and the limit-uniformity diagnostics.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import bounds, geometry, hfunction
from .fd import MIN_N_THETA, FdSolver, count_cell
from .geometry import BlockedCircleDomain, CircleDomain
from .hfunction import CandidateH, StepH
from .potential import WosConfig, estimate_h, wos_exit_ensemble

__all__ = [
    "SolveSettings",
    "SolveResult",
    "SolveError",
    "solve_circle_domain",
    "build_blocked",
    "CheckReport",
    "check_candidate",
    "UlcCheck",
    "ulc_diagnostics",
    "StageReport",
    "ConstructionReport",
    "run_pipeline",
    "boundary_profile",
]

_PSI_MIN = 1e-6
_PSI_MAX = math.pi - 1e-4
# Below this sup residual the measures move by rounding only (about 1e-15
# at convergence), so further steps cannot improve the angles.
_SUP_FLOOR = 1e-12
ENGINES = ("wos", "fd")


@dataclass(frozen=True)
class SolveSettings:
    """Knobs for the inversion loop and the pipeline's measurements."""

    engine: str = "fd"          # "fd" | "wos"
    resolution: int = 512       # fd angular resolution
    tol: float = 1e-3           # sup-norm cumulative-measure tolerance
    max_sweeps: int = 60        # budget of measure evaluations
    wos_samples: int = 200_000  # per wos measurement / sweep
    epsilon: float = 1e-5
    seed: int = 0
    warm_start: str = "proportional"  # "proportional" | "uniform"

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; "
                             f"expected one of {', '.join(ENGINES)}")
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


class SolveError(RuntimeError):
    """The inversion loop did not reach the requested tolerance."""


@dataclass(frozen=True)
class SolveResult:
    domain: CircleDomain
    residual: float
    sweeps: int
    converged: bool
    engine: str
    tol_effective: float
    # Sup-norm gap between the fd measures at resolution and at
    # resolution // 2 at the same psis: the first-order scheme's error
    # estimate (Richardson).  NaN for the wos engine and one-level solves.
    fd_error: float
    # (fd resolution or None for wos, sup residual) per measure evaluation.
    trace: tuple[tuple[int | None, float], ...]


def _initial_psis(steps: StepH, mode: str) -> np.ndarray:
    jumps = steps.jumps[:-1]
    if mode == "uniform":
        psis = np.full(len(jumps), math.pi / 3.0)
    elif mode == "proportional":
        psis = math.pi * jumps
    else:
        raise ValueError(f"unknown warm start {mode!r}")
    return np.clip(psis, 1e-3, _PSI_MAX)


def _measure_arcs(dom: CircleDomain, settings: SolveSettings, sweep: int,
                  resolution: int):
    """Per-arc measures, a zero-argument function returning their Jacobian
    in the half-arclengths, and the sampling noise, for one evaluation.
    The fd Jacobian is exact; the wos one is a diagonal of endpoint
    density estimates."""
    if settings.engine == "fd":
        solver = FdSolver(dom, n_theta=resolution)
        return solver.arc_measures(), solver.arc_measure_jacobian, 0.0
    ens = wos_exit_ensemble(dom, 0.0, settings.wos_samples,
                            WosConfig(epsilon=settings.epsilon,
                                      seed=settings.seed + 7919 * sweep))
    if ens.sample_count == 0:
        raise RuntimeError(f"no walk reached the boundary: all "
                           f"{ens.discard_count} walks were discarded")
    m = np.zeros(dom.n_arcs)
    arcs = ens.kinds == geometry.ARC
    np.add.at(m, ens.indices[arcs], np.ones(arcs.sum()))
    m /= ens.sample_count
    dens = np.maximum(m / (2.0 * dom.psis[:-1]), 0.05)
    noise = 3.0 * math.sqrt(0.25 / ens.sample_count)
    return m, lambda: np.diag(dens), noise


def _held_step(J, resid, psis, resolution):
    """The Newton step that keeps every filler-ray count of the grid at
    ``resolution`` and, within that, minimizes the sup norm of the
    linearized residual: a linear program in the step and the bound t."""
    n = len(psis)
    D, lo, hi = count_cell(psis, resolution)
    inset = 1e-6 * (hi - lo)  # stay strictly inside each count range
    t = np.concatenate((-np.ones(2 * n), np.zeros(2 * n + 2)))
    lp = linprog(np.append(np.zeros(n), 1.0),
                 A_ub=np.column_stack((np.vstack((-J, J, D, -D)), t)),
                 b_ub=np.concatenate((-resid, resid, hi - inset, -lo - inset)),
                 bounds=[(None, None)] * n + [(0.0, None)], method="highs")
    if not lp.success:
        raise np.linalg.LinAlgError(lp.message)
    return lp.x[:n]


def _solve_level(measure, trace, targets, psis, stop, budget, resolution):
    """One run of the inversion loop on one discretization.

    Damped sweeps, each arc stepped by its own cumulative residual over
    the matching diagonal entry of the Jacobian, bring the cumulative
    measures close; below a residual of 0.02 the fd engine (``resolution``
    not None) switches to Newton steps, each with the exact Jacobian of
    the evaluation it starts from, which resolve the inter-arc coupling
    the sweeps cannot.  That Jacobian holds the grid's filler-ray counts
    fixed, so a step across a count threshold can land past a jump it did
    not foresee.  When a Newton step does not improve on the best
    evaluation, the next two steps start from the best and from the failed
    one, each held to its own counts (``_held_step``): they search the
    smooth pieces on both sides of the jump.  Then free steps resume from
    the latest evaluation.  ``measure(psis)`` returns ``(cum, jac, noise, sup)``, with
    ``jac()`` the per-arc measure Jacobian, and appends one entry to
    ``trace``; the loop stops once the residual is at most ``max(stop,
    noise, _SUP_FLOOR)`` or once ``trace`` holds ``budget`` entries.
    Returns the best ``(sup, psis, cum)`` seen and the cumulative measures
    of the first evaluation.
    """
    stop = max(stop, _SUP_FLOOR)
    cum, jac, noise, sup = measure(psis)
    first_cum = cum
    best = (sup, psis, cum, jac)
    hold = []  # evaluations to step from next, each held to its counts
    while not (sup <= max(stop, noise) or len(trace) >= budget):
        held = bool(hold)
        if held:
            sup, psis, cum, jac = hold.pop(0)
        resid = targets - cum
        J = np.cumsum(jac(), axis=0)  # of the cumulative measures
        newton = resolution is not None and sup < 0.02
        if newton:
            try:
                step = (_held_step(J, resid, psis, resolution) if held
                        else np.linalg.solve(J, resid))
            except np.linalg.LinAlgError:
                step = resid / np.maximum(np.diag(J), 0.02)
            psis = np.clip(psis + np.clip(step, -0.3, 0.3), _PSI_MIN, _PSI_MAX)
        else:
            step = np.clip(resid / np.maximum(np.diag(J), 0.02), -0.5, 0.5)
            psis = np.clip(psis + 0.6 * step, _PSI_MIN, _PSI_MAX)
        cum, jac, noise, sup = measure(psis)
        if sup < best[0]:
            best = (sup, psis, cum, jac)
        elif newton and not held:
            hold = [best, (sup, psis, cum, jac)]
    return best[:3], first_cum


def solve_circle_domain(steps: StepH, settings: SolveSettings = SolveSettings()) -> SolveResult:
    """Find a circle domain whose h-function is the given step function.

    The arc radii are the jump radii; the last jump radius is the outer
    circle.  The half-arclengths are found by ``_solve_level``: damped
    sweeps, then (fd engine) Newton steps with the exact Jacobian of each
    evaluation, and steps held to the grid's filler-ray counts where a
    step across a count threshold fails.  The fd engine runs it coarse to
    fine: first at ``resolution // 2``, where a factorization costs about
    a fifth as much, then at ``resolution`` from the coarse best psis.
    The coarse level stops at ``tol`` or with a quarter of the budget
    left, since the coarse grid's own floor can lie near a small ``tol``;
    the fine level runs the same loop with the rest, so a failing solve
    spends the whole budget.  The wos engine, and the fd engine when
    ``resolution // 2`` is below the solver's minimum, run one level.
    The last level polishes well below the requested tolerance so the
    angles themselves are pinned down, and the returned residual is its
    measurement.  One measure evaluation per step, at most
    ``settings.max_sweeps`` over both levels, at least one of them at
    ``resolution``.  Raises SolveError on non-convergence.
    """
    radii = np.array(steps.radii)
    jumps = steps.jumps
    n = len(radii) - 1  # proper arcs
    if n == 0:
        return SolveResult(CircleDomain.disk(float(radii[0])), 0.0, 0, True,
                           settings.engine, settings.tol, math.nan, ())
    targets = np.cumsum(jumps)[:-1]
    psis = _initial_psis(steps, settings.warm_start)
    is_fd = settings.engine == "fd"
    budget = settings.max_sweeps
    tol_eff = settings.tol
    trace = []

    def solve_at(resolution, psis, stop, budget):
        def measure(p):
            nonlocal tol_eff
            dom = CircleDomain.from_arrays(radii, np.append(p, math.pi))
            m, jac, noise = _measure_arcs(dom, settings, len(trace) + 1,
                                          resolution)
            tol_eff = max(settings.tol, noise)
            cum = np.cumsum(m)
            sup = float(np.abs(targets - cum).max())
            trace.append((resolution if is_fd else None, sup))
            return cum, jac, noise, sup
        return _solve_level(measure, trace, targets, psis, stop, budget,
                            resolution if is_fd else None)

    fd_error = math.nan
    coarse = (is_fd and settings.resolution // 2 >= MIN_N_THETA
              and budget > 1)
    if coarse:
        (_, psis, coarse_cum), _ = solve_at(
            settings.resolution // 2, psis, settings.tol,
            budget - max(1, budget // 4))
    (sup, psis, _), fine_cum = solve_at(settings.resolution, psis,
                                        0.2 * settings.tol, budget)
    if coarse:
        # the fine level measures the coarse best psis first
        fd_error = float(np.abs(fine_cum - coarse_cum).max())
    if sup <= tol_eff:
        dom = CircleDomain.from_arrays(radii, np.append(psis, math.pi))
        return SolveResult(dom, sup, len(trace), True, settings.engine,
                           tol_eff, fd_error, tuple(trace))
    raise SolveError(
        f"inversion stalled after {len(trace)} measure evaluations: "
        f"residual {sup:.3e} > tolerance {tol_eff:.3e}")


def build_blocked(x: CircleDomain, kappa_n: float) -> BlockedCircleDomain:
    """Block every channel of a circle domain with gates inset by the
    schedule angle: phi_k = max(0, min(psi_k, psi_{k+1}) - kappa_n)."""
    psi = x.psis
    cap = np.minimum(psi[:-1], psi[1:])
    phis = np.maximum(0.0, cap - kappa_n)
    return BlockedCircleDomain(x, tuple(float(p) for p in phis))


# ---------------------------------------------------------------------------
# Candidate certification (no solving required).


@dataclass(frozen=True)
class CheckReport:
    """Fast sufficiency check for a jump-type candidate: the candidate is
    certified realizable when the gap ratio clears all three thresholds
    and the necessary conditions hold."""

    alpha: float
    beta: float
    mu: float
    M: float
    ratio: float
    thresholds: bounds.Thresholds
    necessary: hfunction.NecessaryReport
    ratio_ok: bool
    verdict: str  # "PASS" | "FAIL"

    @property
    def ok(self) -> bool:
        return self.verdict == "PASS"


def check_candidate(f: CandidateH) -> CheckReport:
    """Evaluate the sufficient condition for f to be the h-function of a
    bounded simply connected domain symmetric about the real axis."""
    alpha = hfunction.minimal_secant_slope(f)
    beta = hfunction.jump_at_mu(f)
    nec = hfunction.necessary_checks(f)
    ratio = (f.M - f.mu) / f.mu
    if not (0 < alpha and 0 < beta < 1):
        th = bounds.Thresholds(math.nan, math.nan, math.nan, math.nan)
        return CheckReport(alpha, beta, f.mu, f.M, ratio, th, nec, False, "FAIL")
    th = bounds.thresholds(min(alpha, 1.0 - 1e-12), beta)
    ratio_ok = ratio < th.m_min
    verdict = "PASS" if (ratio_ok and nec.ok) else "FAIL"
    return CheckReport(alpha, beta, f.mu, f.M, ratio, th, nec, ratio_ok, verdict)


# ---------------------------------------------------------------------------
# Limit-uniformity diagnostics.


@dataclass(frozen=True)
class UlcCheck:
    """One epsilon level of the uniform-limit diagnostics on a blocked
    domain: close radii must have shallow gate depth, and near-full arcs
    must sit near the outer circle."""

    eps: float
    delta1: float
    delta2: float
    theta_ok: bool
    radius_ok: bool
    worst_theta: float
    worst_gap: float

    @property
    def ok(self) -> bool:
        return self.theta_ok and self.radius_ok


def ulc_diagnostics(dom: BlockedCircleDomain, alpha: float,
                    eps_list=(0.5, 0.25, 0.1)) -> list[UlcCheck]:
    """For each epsilon: delta1 from the inverse chi supremum, delta2 from
    the arc-depth rule; verify on every arc pair (j, k) that radius gap
    below delta1 forces gate depth theta_{j,k} below epsilon, and on every
    arc that angular depth below delta2 forces radial depth below epsilon."""
    radii, psis = dom.radii, dom.psis
    mu, M = dom.mu, dom.outer_radius
    n = len(radii) - 1
    out = []
    for eps in eps_list:
        delta1 = bounds.chi_inf_inverse(eps / 2.0, alpha, mu, M) if alpha > 0 else 0.0
        delta2 = alpha * math.pi * eps / (M - mu) if M > mu else math.pi
        theta_ok, worst_theta = True, 0.0
        for j in range(n + 1):
            for k in range(j + 1, n + 1):
                if radii[k] - radii[j] < delta1:
                    t = geometry.theta(dom, j, k)
                    worst_theta = max(worst_theta, t)
                    if t >= eps:
                        theta_ok = False
        radius_ok, worst_gap = True, 0.0
        for k in range(n):
            if math.pi - psis[k] < delta2:
                gap = M - radii[k]
                worst_gap = max(worst_gap, gap)
                if gap >= eps:
                    radius_ok = False
        out.append(UlcCheck(eps, delta1, delta2, theta_ok, radius_ok,
                            worst_theta, worst_gap))
    return out


# ---------------------------------------------------------------------------
# The full pipeline.


@dataclass(frozen=True)
class StageReport:
    """Everything the pipeline produced at one approximation level n."""

    n: int
    steps: StepH
    circle: CircleDomain
    blocked: BlockedCircleDomain
    kappa_n: float
    sigma_n: int
    hdiff: float
    inversion_residual: float
    sweeps: int
    fd_error: float  # SolveResult.fd_error of the inversion
    eval_radii: tuple[float, ...]
    h_values: tuple[float, ...]
    h_std_errors: tuple[float, ...]
    sup_gap: float
    sup_gap_se: float
    beurling_ok: bool
    beurling_margin: float
    ulc: tuple[UlcCheck, ...]
    seconds: float


@dataclass(frozen=True)
class ConstructionReport:
    check: CheckReport
    stages: tuple[StageReport, ...]
    gaps_nonincreasing: bool
    sigma_vanishes: bool
    ulc_ok: bool
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == "PASS"


def _eval_radii(f: CandidateH, extra=()) -> np.ndarray:
    mu, M = f.mu, f.M
    pts = set(np.geomspace(max(mu * 0.5, 1e-9), M, 41))
    pts.update(float(b) for b in f.breakpoints)
    pts.update(float(r) for r in extra)
    b = sorted(pts)
    mids = [0.5 * (a + c) for a, c in zip(b, b[1:])]
    return np.array(sorted(set(b) | set(mids)))


def run_pipeline(f: CandidateH, n_list=(2, 4, 8, 16),
                 settings: SolveSettings = SolveSettings(),
                 verify_samples: int = 200_000) -> ConstructionReport:
    """Run the construction for each n: approximate f by steps, invert into
    a circle domain, block the channels with the inset schedule, bound the
    blocking error in closed form, and verify the realized h-function by
    Monte Carlo against f and against the universal lower bound."""
    check = check_candidate(f)
    alpha = check.alpha
    stages = []
    for n in n_list:
        t0 = time.perf_counter()
        steps = hfunction.step_approximation(f, n)
        res = solve_circle_domain(steps, settings)
        x = res.domain
        kap = bounds.kappa(n, f.mu, f.M)
        psis = x.psis[:-1]
        sigma = int(np.sum(psis <= kap))
        omega = build_blocked(x, kap)
        hd = bounds.hdiff_bound(omega)
        rs = _eval_radii(f, steps.radii)
        table = estimate_h(omega, rs, 0.0, verify_samples,
                           WosConfig(epsilon=settings.epsilon,
                                     seed=settings.seed + 104729 * n))
        hv = table.values
        se = table.std_errors
        fv = np.array([hfunction.evaluate(f, float(r)) for r in rs])
        gaps = np.abs(hv - fv)
        i = int(np.argmax(gaps))
        margins = []
        for r, v, s in zip(rs, hv, se):
            if r >= f.mu:
                margins.append(v - hfunction.beurling_bound(f.mu, float(r)) + 3.0 * s)
        bm = float(min(margins)) if margins else 0.0
        ulc = tuple(ulc_diagnostics(omega, alpha))
        stages.append(StageReport(
            n=n, steps=steps, circle=x, blocked=omega, kappa_n=kap,
            sigma_n=sigma, hdiff=hd, inversion_residual=res.residual,
            sweeps=res.sweeps, fd_error=res.fd_error,
            eval_radii=tuple(float(r) for r in rs),
            h_values=tuple(float(v) for v in hv),
            h_std_errors=tuple(float(s) for s in se),
            sup_gap=float(gaps[i]), sup_gap_se=float(se[i]),
            beurling_ok=bm >= 0.0, beurling_margin=bm,
            ulc=ulc, seconds=time.perf_counter() - t0))
    gaps_mono = all(
        b.sup_gap <= a.sup_gap + 3.0 * (a.sup_gap_se + b.sup_gap_se)
        for a, b in zip(stages, stages[1:]))
    sigma_ok = stages[-1].sigma_n == 0 if stages else False
    ulc_ok = all(c.ok for st in stages for c in st.ulc)
    verdict = "PASS" if (check.ok and gaps_mono and sigma_ok and ulc_ok
                         and all(st.beurling_ok for st in stages)) else "FAIL"
    return ConstructionReport(check, tuple(stages), gaps_mono, sigma_ok,
                              ulc_ok, verdict)


def boundary_profile(f: CandidateH, n_theta: int = 720) -> np.ndarray:
    """Polar profile of the limiting boundary curve implied by f: the point
    at angle theta has modulus given by the completed-graph inverse of f at
    |theta|/pi.  Returns an (n_theta, 2) array of (theta, r)."""
    b = list(f.breakpoints)
    v = [hfunction.evaluate(f, x) for x in b]
    ys, rs = [0.0], [f.mu]
    for i, (x, val) in enumerate(zip(b, v)):
        ll = hfunction.left_limit(f, i)
        if ll > ys[-1]:
            ys.append(ll)
            rs.append(x)
        if val > ll:  # jump: vertical graph segment, flat inverse
            ys.append(val)
            rs.append(x)
    if ys[-1] < 1.0:
        ys.append(1.0)
        rs.append(f.M)
    thetas = np.linspace(-math.pi, math.pi, n_theta)
    r = np.interp(np.abs(thetas) / math.pi, ys, rs)
    return np.column_stack([thetas, r])
