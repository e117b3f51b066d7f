"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and runtime budget, and prints a single summary line
``criterion N: PASS/FAIL -- detail``.
"""
import contextlib
import io
import json
import math
import pathlib
import runpy
import time
from fractions import Fraction

import numpy as np
import pytest

from hmdf import bounds, cli, construct, geometry, hfunction
from hmdf.construct import SolveSettings, solve_circle_domain
from hmdf.fd import FdSolver
from hmdf.hfunction import example_jump_ramp
from hmdf.potential import WosConfig, estimate_h, wos_exit_ensemble

from baseline import criterion5_targets
from workloads import random_blocked

ROOT = pathlib.Path(__file__).parents[1]


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
    disk, slit, grid_err = runpy.run_path(
        str(ROOT / "scripts" / "oracle_triangle.py"),
        run_name="imported")["triangle"](1_000_000, 101)
    fails = [f"offcenter r={r}" for r, value, exact, se in disk
             if abs(value - exact) > max(3.0 * se, 1e-12)]
    for k, (wos, fd, exact, se) in enumerate(slit):
        tol = max(3.0 * se, 2.0 * grid_err)
        fails += [f"slit {pair} k={k}" for pair, a, b in (
            ("wos/exact", wos, exact), ("fd/exact", fd, exact),
            ("wos/fd", wos, fd)) if abs(a - b) > tol]
    elapsed = time.monotonic() - t0
    ok = not fails and elapsed < 120.0
    _report(3, ok, f"{len(fails)} disagreements "
                   f"(grid_err={grid_err:.1e}) in {elapsed:.1f} s"
                   + (f"; {fails}" if fails else ""))


def test_criterion_4_bound_soundness():
    # the benchmark's random blocked domains, 1 to 16 arcs
    t0 = time.monotonic()
    violations = []
    for i in range(20):
        om = random_blocked(42, i)
        ens = wos_exit_ensemble(om, 0.0, 100_000, WosConfig(seed=1000 + i))
        m = ens.sample_count
        value = np.bincount(ens.indices[ens.kinds == geometry.GATE],
                            minlength=len(om.phis)) / m
        low = value - 3.0 * np.sqrt(value * (1.0 - value) / m)
        violations += [f"gate i={i} k={k}" for k in
                       np.flatnonzero(low > bounds.gate_bounds(om))]
        rs = np.linspace(0.5 * om.radii[0], om.radii[-1], 60)
        t_om = estimate_h(om, rs, 0.0, 100_000, WosConfig(seed=3000 + i))
        t_x = estimate_h(om.base, rs, 0.0, 100_000, WosConfig(seed=4000 + i))
        gap = np.abs(t_x.values - t_om.values)
        slack = 3.0 * (t_x.std_errors + t_om.std_errors)
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
