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

from . import bounds, geometry, hfunction
from .geometry import BlockedCircleDomain, CircleDomain
from .hfunction import CandidateH, StepH
from .potential import WosConfig, estimate_h
# perfbench/spans.py rebinds this name when it traces; nothing here calls it
from .potential import wos_exit_ensemble  # noqa: F401

__all__ = [
    "WARM_STARTS",
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

# The values of SolveSettings.warm_start.
WARM_STARTS = ("profile", "proportional", "uniform")
_PSI_MIN = 1e-6
_PSI_MAX = math.pi - 1e-4
# Below this sup residual the measures move by rounding only (about 1e-15
# at convergence), so further steps cannot improve the angles.
_SUP_FLOOR = 1e-12


@dataclass(frozen=True)
class SolveSettings:
    """Knobs for the inversion loop and the pipeline's measurements.

    ``warm_start`` picks the first half-arclengths: ``"profile"`` puts arc
    k at pi F_k, F_k the step value after it, which is the angle at r_k of
    the paper's limit boundary theta = pi f(r) (``boundary_profile``);
    ``"proportional"`` at pi times its jump; ``"uniform"`` every arc at
    pi/3.
    """

    engine: str = "fd"          # the only inversion engine
    resolution: int = 512       # fd angular resolution
    tol: float = 1e-3           # sup-norm cumulative-measure tolerance
    max_sweeps: int = 60        # budget of measure evaluations
    epsilon: float = 1e-5       # WoS verification of run_pipeline
    seed: int = 0               # WoS verification of run_pipeline
    warm_start: str = "profile"  # see WARM_STARTS

    def __post_init__(self):
        if self.engine != "fd":
            raise ValueError(f"unknown engine {self.engine!r}; expected fd")
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be at least 1, got {self.max_sweeps}")
        if self.warm_start not in WARM_STARTS:
            raise ValueError(f"unknown warm start {self.warm_start!r}; "
                             f"expected {', '.join(WARM_STARTS)}")


class SolveError(RuntimeError):
    """The inversion loop did not reach the requested tolerance."""


@dataclass(frozen=True)
class SolveResult:
    domain: CircleDomain
    residual: float
    sweeps: int
    converged: bool
    # Sup-norm gap between the fd measures at resolution and at
    # resolution // 2 at the same psis: the first-order scheme's error
    # estimate (Richardson).  NaN for one-level solves.
    fd_error: float
    # (fd resolution, sup residual) per measure evaluation.
    trace: tuple[tuple[int, float], ...]


def _initial_psis(steps: StepH, mode: str) -> np.ndarray:
    """The starting half-arclengths of the proper arcs for a
    ``SolveSettings.warm_start`` mode."""
    if mode == "profile":
        psis = math.pi * np.array(steps.values[:-1])
    elif mode == "proportional":
        psis = math.pi * steps.jumps[:-1]
    else:
        psis = np.full(len(steps.values) - 1, math.pi / 3.0)
    return np.clip(psis, 1e-3, _PSI_MAX)


def _held_step(J, resid, psis, resolution):
    """The Newton step that keeps every filler-ray count of the grid at
    ``resolution`` and, within that, minimizes the sup norm of the
    linearized residual: a linear program in the step and the bound t."""
    from scipy.optimize import linprog  # about 0.2 s to import; rarely needed

    from .fd import count_cell

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


def solve_circle_domain(steps: StepH, settings: SolveSettings = SolveSettings()) -> SolveResult:
    """Find a circle domain whose h-function is the given step function:
    the arc radii are the jump radii, the last one the outer circle.

    The loop starts from ``settings.warm_start``.  The default, the limit
    profile, lies close to the answer for fine step approximations: the
    jump-ramp stages n = 2 to 16 converge in 5 evaluations each, and n = 32
    and 64 reach ``tol`` (from the jump-proportional start n = 32 stalls).

    Each step of the loop costs one fd measure evaluation.  Damped sweeps,
    each arc stepped by its own cumulative residual over the matching
    diagonal entry of the Jacobian, bring the cumulative measures close;
    below a residual of 0.02 the loop takes Newton steps with the exact
    Jacobian of each evaluation, which resolve the inter-arc coupling the
    sweeps cannot.  That Jacobian holds the grid's filler-ray counts
    fixed, so a step across a count threshold can land past a jump it did
    not foresee: when a Newton step does not improve on the best
    evaluation, the next two steps start from the best and from the failed
    one, each held to its own counts (``_held_step``), and then free steps
    resume.

    The loop runs coarse to fine: at ``resolution // 2``, where a
    factorization costs a quarter to a third as much, until ``tol`` or a
    quarter of the budget is left (the coarse grid's own floor can lie
    near a small ``tol``), then at ``resolution`` from the coarse best psis
    with the rest, so a failing solve spends the whole budget.  When
    ``resolution // 2`` is below the solver's minimum it runs one level.
    The last level polishes to ``0.2 * tol`` to pin the angles down; the
    returned residual is its best measurement.  Raises SolveError on
    non-convergence.
    """
    radii = np.array(steps.radii)
    n = len(radii) - 1  # proper arcs
    tol, budget, res = settings.tol, settings.max_sweeps, settings.resolution
    if n == 0:
        return SolveResult(CircleDomain.disk(float(radii[0])), 0.0, 0, True,
                           math.nan, ())
    from . import fd  # scipy.sparse, kept out of `import hmdf.construct`

    targets = np.cumsum(steps.jumps)[:-1]
    trace = []
    levels = [(res, 0.2 * tol, budget)]
    if res // 2 >= fd.MIN_N_THETA and budget > 1:
        levels.insert(0, (res // 2, tol, budget - max(1, budget // 4)))

    def evaluate(psis, resolution):
        """Cumulative measures, a zero-argument per-arc Jacobian and sup
        residual at ``psis`` on the fd grid at ``resolution``."""
        dom = CircleDomain.from_arrays(radii, np.append(psis, math.pi))
        solver = fd.FdSolver(dom, n_theta=resolution)
        cum = np.cumsum(solver.arc_measures())
        sup = float(np.abs(targets - cum).max())
        trace.append((resolution, sup))
        return cum, solver.arc_measure_jacobian, sup

    psis = _initial_psis(steps, settings.warm_start)
    fd_error, best = math.nan, None
    for resolution, stop, until in levels:
        cum, jac, sup = evaluate(psis, resolution)
        if best is not None:  # the coarse best psis, measured on the fine grid
            fd_error = float(np.abs(cum - best[2]).max())
        best = (sup, psis, cum, jac)
        hold = []  # evaluations to step from next, each held to its counts
        while not (sup <= max(stop, _SUP_FLOOR) or len(trace) >= until):
            held = bool(hold)
            if held:
                sup, psis, cum, jac = hold.pop(0)
            resid = targets - cum
            J = np.cumsum(jac(), axis=0)  # of the cumulative measures
            newton = sup < 0.02
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
            cum, jac, sup = evaluate(psis, resolution)
            if sup < best[0]:
                best = (sup, psis, cum, jac)
            elif newton and not held:
                hold = [best, (sup, psis, cum, jac)]
        sup, psis = best[:2]
    if sup <= tol:
        dom = CircleDomain.from_arrays(radii, np.append(psis, math.pi))
        return SolveResult(dom, sup, len(trace), True, fd_error, tuple(trace))
    raise SolveError(
        f"inversion stalled after {len(trace)} measure evaluations: "
        f"residual {sup:.3e} > tolerance {tol:.3e}")


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
    # Least psi_k - bounds.arc_lower_bound(beta_k, r_k, M) over the arcs
    # with r_k >= M (1 - 1/e), beta_k the target jump; inf if none qualify.
    arc_bound_margin: float
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
    a circle domain, check its arcs against the arc-length lower bound,
    block the channels with the inset schedule, bound the blocking error in
    closed form, and verify the realized h-function by Monte Carlo against
    f and against the universal lower bound.  The verdict needs every
    stage's arc-bound margin to be nonnegative: gates fit only into arcs
    that long."""
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"approximation levels must be strictly increasing, "
                         f"got {', '.join(map(str, n_list))}")
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
        lows = [(p, bounds.arc_lower_bound(b, r, x.outer_radius))
                for r, p, b in zip(x.radii[:-1], psis, steps.jumps[:-1],
                                   strict=True)]
        arc_margin = min((float(p - lo) for p, lo in lows if lo is not None),
                         default=math.inf)
        sigma = int(np.sum(psis <= kap))
        omega = build_blocked(x, kap)
        hd = bounds.hdiff_bound(omega)
        rs = _eval_radii(f, steps.radii)
        table = estimate_h(omega, rs, 0.0, verify_samples,
                           WosConfig(epsilon=settings.epsilon,
                                     seed=settings.seed + 104729 * n))
        hv = table.values
        se = table.std_errors
        fv = hfunction.evaluate(f, rs)
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
            sigma_n=sigma, hdiff=hd, arc_bound_margin=arc_margin,
            inversion_residual=res.residual,
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
                         and all(st.beurling_ok and st.arc_bound_margin >= 0.0
                                 for st in stages)) else "FAIL"
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
