"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and runtime budget, and prints a single summary line
``criterion N: PASS/FAIL -- detail``.
"""
import contextlib
import io
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hmdf import bounds, cli, construct, geometry, hfunction
from hmdf.construct import SolveSettings, solve_circle_domain
from hmdf.fd import FdSolver
from hmdf.geometry import BlockedCircleDomain, CircleDomain
from hmdf.hfunction import example_jump_ramp
from hmdf.potential import (OffCenterDisk, WosConfig, estimate_h,
                            exact_offcenter_disk_h,
                            exact_slit_disk_gate, slit_disk,
                            wos_exit_ensemble)

from baseline import criterion5_targets


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def pipeline():
    """Shared full pipeline run (criteria 6 and 8): jump-ramp example at
    n = 2, 4, 8, 16 with 2e5 verification walks per domain."""
    t0 = time.monotonic()
    rep = construct.run_pipeline(example_jump_ramp(), n_list=(2, 4, 8, 16),
                                 verify_samples=200_000)
    return rep, time.monotonic() - t0


def test_criterion_1_thresholds():
    bounds.thresholds(0.5, 0.5)  # warm-up
    t0 = time.perf_counter()
    th = bounds.thresholds(0.5, 0.5)
    elapsed = time.perf_counter() - t0
    ok = (abs(th.m1 - 0.58198) <= 1e-5 and abs(th.m2 - 0.24220) <= 1e-5
          and abs(th.m3 - 0.09922) <= 1e-4 and elapsed < 1e-3)
    _report(1, ok, f"m1={th.m1:.6f} m2={th.m2:.6f} m3={th.m3:.6f} "
                   f"in {elapsed * 1e3:.3f} ms")


def test_criterion_2_example_certification(tmp_path):
    f = example_jump_ramp()
    p = tmp_path / "f.json"
    p.write_text(json.dumps({
        "kind": "candidate", "breakpoints": list(f.breakpoints),
        "values": list(f.values), "segments": list(f.kinds)}))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["check", "--function", str(p)])  # warm-up
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", "--function", str(p)])
    elapsed = time.perf_counter() - t0
    out = buf.getvalue()
    rep = construct.check_candidate(f)
    margin = rep.thresholds.m_min - rep.ratio
    ok = (code == 0 and "verdict: PASS" in out
          and rep.alpha == pytest.approx(0.5, abs=1e-12)
          and rep.beta == 0.5
          and rep.ratio == pytest.approx(0.0992, abs=1e-12)
          and margin > 0 and elapsed < 0.010)
    _report(2, ok, f"alpha={rep.alpha:.4f} beta={rep.beta:.4f} "
                   f"ratio={rep.ratio:.4f} margin={margin:.2e} "
                   f"in {elapsed * 1e3:.2f} ms")


def test_criterion_3_oracle_triangle():
    t0 = time.monotonic()
    fails = []

    # off-center disk B(0.5, 1): Monte Carlo h against the closed form
    radii = [0.55, 0.8, 1.0, 1.2, 1.45]
    tab = estimate_h(OffCenterDisk(0.5, 1.0), radii, 0.0, 1_000_000,
                     WosConfig(epsilon=1e-5, seed=101))
    for r, est in zip(tab.radii, tab.estimates):
        exact = exact_offcenter_disk_h(0.5, 1.0, r)
        if abs(est.value - exact) > max(3.0 * est.std_error, 1e-12):
            fails.append(f"offcenter r={r}")

    # slit disk B(0, 2) minus [1, 2]: Monte Carlo, grid solver with
    # Richardson extrapolation, and the closed form, pairwise
    dom = slit_disk(1.0, 1.5, 2.0)
    ens = wos_exit_ensemble(dom, 0.0, 1_000_000,
                            WosConfig(epsilon=1e-5, seed=102))
    on_slit = ens.kinds != geometry.OUTER
    lo_half = on_slit & (ens.moduli <= 1.5 + 1e-6)
    n = ens.sample_count
    wos = np.array([lo_half.sum() / n, (on_slit & ~lo_half).sum() / n])
    se = np.sqrt(wos * (1.0 - wos) / n)
    lo = FdSolver(dom, n_theta=256).gate_measures()
    hi = FdSolver(dom, n_theta=512).gate_measures()
    rich = 2.0 * hi - lo
    grid_err = float(np.abs(hi - lo).max())
    exact = np.array([exact_slit_disk_gate(1.0, 1.5, 2.0),
                      exact_slit_disk_gate(1.0, 2.0, 2.0)
                      - exact_slit_disk_gate(1.0, 1.5, 2.0)])
    for k in range(2):
        tol = max(3.0 * se[k], 2.0 * grid_err)
        if abs(wos[k] - exact[k]) > tol:
            fails.append(f"slit wos/exact k={k}")
        if abs(rich[k] - exact[k]) > tol:
            fails.append(f"slit fd/exact k={k}")
        if abs(wos[k] - rich[k]) > tol:
            fails.append(f"slit wos/fd k={k}")
    elapsed = time.monotonic() - t0
    ok = not fails and elapsed < 120.0
    _report(3, ok, f"{len(fails)} disagreements "
                   f"(grid_err={grid_err:.1e}) in {elapsed:.1f} s"
                   + (f"; {fails}" if fails else ""))


def _random_blocked(i: int):
    rng = np.random.default_rng([42, i])
    n_arcs = int(rng.integers(1, 7))
    r0 = float(rng.uniform(0.5, 1.5))
    radii = r0 + np.concatenate([[0.0],
                                 np.cumsum(rng.uniform(0.1, 0.5, n_arcs))])
    psis = np.append(rng.uniform(0.15, 2.8, n_arcs), math.pi)
    base = CircleDomain.from_arrays(radii, psis)
    caps = np.minimum(psis[:-1], psis[1:])
    phis = tuple(0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, c))
                 for c in caps)
    return base, BlockedCircleDomain(base, phis)


def test_criterion_4_bound_soundness():
    t0 = time.monotonic()
    violations = []
    for i in range(20):
        base, om = _random_blocked(i)  # raises unless valid
        radii = base.radii
        caps = np.minimum(base.psis[:-1], base.psis[1:])
        ens = wos_exit_ensemble(om, 0.0, 100_000, WosConfig(seed=1000 + i))
        m = ens.sample_count
        for k, phi in enumerate(om.phis):
            hits = np.count_nonzero((ens.kinds == geometry.GATE)
                                    & (ens.indices == k))
            if hits == 0:
                continue
            value = hits / m
            std_error = math.sqrt(value * (1.0 - value) / m)
            dr = radii[k + 1] - radii[k]
            if phi > 0.0:
                bound = (32.0 / math.pi) * math.exp(
                    -math.pi * radii[k] * (caps[k] - phi) / (2.0 * dr))
            else:
                bound = (2.0 / math.pi) * math.sqrt(dr / radii[k])
            if value > bound + 3.0 * std_error:
                violations.append(f"gate i={i} k={k}")
        rs = np.linspace(0.5 * radii[0], radii[-1], 60)
        t_om = estimate_h(om, rs, 0.0, 100_000, WosConfig(seed=3000 + i))
        t_x = estimate_h(base, rs, 0.0, 100_000, WosConfig(seed=4000 + i))
        gap = np.abs(np.array(t_x.values) - np.array(t_om.values))
        slack = 3.0 * (np.array(t_x.std_errors) + np.array(t_om.std_errors))
        if np.any(gap > bounds.hdiff_bound(om) + slack):
            violations.append(f"hdiff i={i}")
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 300.0
    _report(4, ok, f"{len(violations)} violations over 20 domains "
                   f"in {elapsed:.1f} s" + (f"; {violations}" if violations else ""))


def test_criterion_5_inversion_round_trip():
    t0 = time.monotonic()
    worst_rt = worst_ws = 0.0
    for steps in criterion5_targets():
        a = solve_circle_domain(steps, SolveSettings(
            engine="fd", tol=1e-3, warm_start="proportional"))
        hv = FdSolver(a.domain, n_theta=512).h_table(np.array(steps.radii))
        worst_rt = max(worst_rt,
                       float(np.abs(hv - np.array(steps.values)).max()))
        b = solve_circle_domain(steps, SolveSettings(
            engine="fd", tol=1e-3, warm_start="uniform"))
        worst_ws = max(worst_ws,
                       float(np.abs(a.domain.psis - b.domain.psis).max()))
    elapsed = time.monotonic() - t0
    ok = worst_rt <= 1e-3 and worst_ws <= 2e-3 and elapsed < 180.0
    _report(5, ok, f"worst re-measured residual {worst_rt:.2e}, worst "
                   f"warm-start spread {worst_ws:.2e} in {elapsed:.1f} s")


def test_criterion_6_pipeline_convergence(pipeline):
    rep, elapsed = pipeline
    last = rep.stages[-1]
    kappa_below = last.kappa_n < float(last.circle.psis[:-1].min())
    problems = []
    if not rep.check.ok:
        problems.append("certification failed")
    if not rep.gaps_nonincreasing:
        problems.append("sup-gap increased beyond 3*SE")
    if not (kappa_below and last.sigma_n == 0):
        problems.append(f"sigma_n={last.sigma_n} at n={last.n}")
    if not rep.ulc_ok:
        problems.append("a uniform-limit pair check failed")
    ok = not problems and elapsed < 600.0
    gaps = ", ".join(f"n={s.n}: {s.sup_gap:.4f}" for s in rep.stages)
    _report(6, ok, f"sup-gaps [{gaps}] in {elapsed:.1f} s"
                   + (f"; {problems}" if problems else ""))


def test_criterion_7_analytic_identities():
    t0 = time.perf_counter()
    problems = []
    # geometric ladder of channel-depth increments sums to its closed form
    def chi1(d, alpha=0.5, mu=1.0, M=1.0992):  # the ladder's first rung
        return (2.0 / (math.pi * mu)) * d * math.log(
            (128.0 / (math.pi * alpha)) * (M - mu) / d)

    for delta in np.geomspace(1e-6, 0.0991, 23):
        s = sum(chi1(delta * 2.0 ** (-q)) for q in range(61))
        if abs(s - bounds.chi_inf(delta, 0.5, 1.0, 1.0992)) > 1e-10:
            problems.append(f"chi ladder at delta={delta:.3e}")
    # the universal lower bound vanishes identically at r = mu
    for mu in (1.0, 2.5, 0.125):
        if hfunction.beurling_bound(mu, mu) != 0.0:
            problems.append(f"beurling nonzero at mu={mu}")
    # gate depth <= arc depth + worst inset, in exact rational arithmetic
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        psi = [Fraction(int(rng.integers(1, 314)), 100) for _ in range(n + 1)]
        phi = [min(psi[l], psi[l + 1]) * Fraction(int(rng.integers(0, 101)), 100)
               for l in range(n)]
        chi_max = max(min(psi[l], psi[l + 1]) - phi[l] for l in range(n))
        for j in range(n + 1):
            for k in range(j + 1, n + 1):
                theta = min(psi[j], psi[k]) - min(phi[j:k])
                eta = min(psi[j], psi[k]) - min(psi[j:k + 1])
                if theta > eta + chi_max:
                    problems.append(f"theta>eta+chi at ({j},{k})")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    _report(7, ok, f"{len(problems)} identity failures in "
                   f"{elapsed * 1e3:.0f} ms" + (f"; {problems}" if problems else ""))


def test_criterion_8_necessary_condition_gate(pipeline):
    rep, _ = pipeline
    mu = rep.check.mu
    worst = math.inf
    violations = 0
    for st in rep.stages:
        for r, v, s in zip(st.eval_radii, st.h_values, st.h_std_errors):
            if r < mu:
                continue
            margin = v - (hfunction.beurling_bound(mu, r) - 3.0 * s)
            worst = min(worst, margin)
            if margin < 0.0:
                violations += 1
    ok = violations == 0 and all(st.beurling_ok for st in rep.stages)
    _report(8, ok, f"{violations} lower-bound violations, worst margin "
                   f"{worst:.4f}")
