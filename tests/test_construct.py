"""Inversion of step targets, gate insertion, candidate certification, and
the limit-uniformity diagnostics."""
import dataclasses
import math

import numpy as np
import pytest

from hmdf import bounds, construct, geometry, hfunction
from hmdf.construct import (SolveError, SolveSettings, build_blocked,
                            check_candidate, solve_circle_domain,
                            ulc_diagnostics)
from hmdf.fd import FdSolver
from hmdf.geometry import BlockedCircleDomain, CircleDomain
from hmdf.hfunction import CONSTANT, LINEAR, CandidateH, StepH

# Regression value for the two-jump target (0.5 at 1, 0.5 at 2), frozen
# from the grid solver at resolution 512 after a Monte Carlo inversion
# agreed with it within their tolerances.
PSI0_TWO_JUMP = 0.860769


class TestSolveCircleDomain:
    def test_single_jump_is_disk(self):
        res = solve_circle_domain(StepH((2.0,), (1.0,)))
        assert res.converged
        assert res.domain.n_arcs == 0
        assert res.domain.outer_radius == 2.0

    def test_two_jump_frozen_regression(self):
        res = solve_circle_domain(StepH((1.0, 2.0), (0.5, 1.0)))
        assert res.converged
        assert res.domain.psis[0] == pytest.approx(PSI0_TWO_JUMP, abs=2e-3)
        assert res.domain.psis[-1] == math.pi

    def test_round_trip(self):
        steps = StepH((1.0, 1.4, 2.0), (0.3, 0.65, 1.0))
        res = solve_circle_domain(steps)
        solver = FdSolver(res.domain, n_theta=512)
        hv = solver.h_table(steps.radii)
        assert np.abs(hv - np.array(steps.values)).max() <= 1e-3

    def test_coarse_to_fine(self):
        steps = StepH((1.0, 1.4, 2.0), (0.3, 0.65, 1.0))
        settings = SolveSettings(resolution=256)
        res = solve_circle_domain(steps, settings)
        levels = [r for r, _ in res.trace]
        assert len(levels) == res.sweeps
        # the coarse level runs first, the fine level last and at least once
        n_coarse = levels.index(256)
        assert n_coarse > 0
        assert levels == [128] * n_coarse + [256] * (res.sweeps - n_coarse)
        # the returned residual is a fine-level measurement
        solver = FdSolver(res.domain, n_theta=256)
        remeasured = np.abs(np.cumsum(solver.arc_measures())
                            - np.array(steps.values[:-1])).max()
        assert res.residual == pytest.approx(remeasured, abs=1e-12)
        assert res.residual == min(s for r, s in res.trace if r == 256)
        # first-order grid error, read off the two levels at one psi
        assert 0.0 < res.fd_error < 1e-2

    @pytest.mark.parametrize("resolution", [8, 12])
    def test_one_level_below_twice_the_minimum(self, resolution):
        res = solve_circle_domain(StepH((1.0, 2.0), (0.5, 1.0)),
                                  SolveSettings(resolution=resolution, tol=1e-2))
        assert [r for r, _ in res.trace] == [resolution] * res.sweeps
        assert math.isnan(res.fd_error)

    def test_jump_ramp_fine_level_evaluations(self):
        # from the limit profile, exact-Jacobian Newton steps need only a
        # few evaluations on the hardest stage of the default pipeline
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), 16)
        res = solve_circle_domain(steps, SolveSettings(resolution=512))
        assert sum(1 for r, _ in res.trace if r == 512) <= 4
        assert res.sweeps <= 8
        assert res.residual <= 0.2e-3

    def test_warm_starts(self):
        # pi F_k, pi times the jump, or pi/3, each clipped below pi
        steps = StepH((1.0, 1.4, 1.7, 2.0), (0.3, 0.65, 0.99999, 1.0))
        cap = math.pi - 1e-4
        starts = {mode: construct._initial_psis(steps, mode)
                  for mode in construct.WARM_STARTS}
        np.testing.assert_allclose(starts["profile"],
                                   [0.3 * math.pi, 0.65 * math.pi, cap])
        np.testing.assert_allclose(starts["proportional"],
                                   math.pi * np.array([0.3, 0.35, 0.34999]))
        np.testing.assert_array_equal(starts["uniform"], np.full(3, math.pi / 3))
        assert SolveSettings().warm_start == "profile"

    def test_jump_ramp_tight_tolerance_converges(self):
        # below the coarse grid's own floor the coarse level stops with at
        # least a quarter of the budget left, and the fine level converges
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), 16)
        res = solve_circle_domain(steps, SolveSettings(resolution=512, tol=2e-4))
        assert res.converged and res.residual <= 2e-4
        assert sum(1 for r, _ in res.trace if r == 256) <= 60 - 60 // 4

    @pytest.mark.parametrize("n, resolution, tol", [
        (4, 64, 1e-3), (8, 128, 1e-3), (16, 512, 5e-5)])
    def test_jump_ramp_root_past_a_count_threshold(self, n, resolution, tol):
        # each smooth piece's own root lies past a filler-count threshold,
        # so free Newton steps alternate across the jump; the steps held
        # to the counts of either side reach tol against the threshold
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), n)
        res = solve_circle_domain(steps, SolveSettings(resolution=resolution,
                                                       tol=tol))
        assert res.converged and res.residual <= tol

    def test_jump_ramp_uniform_warm_start(self):
        # every psi starts on one ray, where the arcs share one Jacobian
        # column; the damped sweeps still separate them
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), 16)
        res = solve_circle_domain(steps, SolveSettings(warm_start="uniform"))
        assert res.converged and res.residual <= 0.2e-3

    def test_held_step_keeps_the_filler_counts(self):
        # the 256 solution linearized at 128: the free Newton step crosses
        # a count threshold and overshoots the jump, the held step stays
        # on the smooth piece, where its linear prediction holds
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), 8)
        targets = np.cumsum(steps.jumps)[:-1]
        psis = solve_circle_domain(
            steps, SolveSettings(resolution=256)).domain.psis[:-1]

        def linearize(p):
            s = FdSolver(CircleDomain.from_arrays(steps.radii,
                                                  np.append(p, math.pi)), 128)
            feats = np.sort(np.append(p, [0.0, math.pi]))
            counts = np.diff(np.searchsorted(s.thetas, feats))
            return (targets - np.cumsum(s.arc_measures()),
                    np.cumsum(s.arc_measure_jacobian(), axis=0), counts)

        resid, J, counts = linearize(psis)
        free_resid, _, free_counts = linearize(psis + np.linalg.solve(J, resid))
        assert not np.array_equal(free_counts, counts)
        step = construct._held_step(J, resid, psis, 128)
        held_resid, _, held_counts = linearize(psis + step)
        assert np.array_equal(held_counts, counts)
        assert np.abs(held_resid - (resid - J @ step)).max() <= 1e-5
        assert np.abs(held_resid).max() < 0.6 * np.abs(free_resid).max()

    def test_failed_solve_spends_the_whole_budget(self):
        # every evaluation is one step, so a stalled solve stops at the
        # budget, not short of it
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), 16)
        try:
            res = solve_circle_domain(steps, SolveSettings(resolution=128,
                                                           max_sweeps=20))
        except SolveError as err:
            assert "after 20 measure evaluations" in str(err)
        else:
            assert res.converged and res.sweeps <= 20

    def test_warm_start_uniqueness(self):
        steps = StepH((1.0, 1.4, 2.0), (0.3, 0.65, 1.0))
        a = solve_circle_domain(steps, SolveSettings(warm_start="proportional"))
        b = solve_circle_domain(steps, SolveSettings(warm_start="uniform"))
        assert np.abs(a.domain.psis - b.domain.psis).max() <= 2e-3

    def test_nonconvergence_reported(self):
        steps = StepH((1.0, 2.0), (0.5, 1.0))
        # max_sweeps bounds every measure evaluation, Newton phase and both
        # levels included
        with pytest.raises(SolveError,
                           match="after 4 measure evaluations: residual"):
            solve_circle_domain(steps, SolveSettings(tol=1e-18, max_sweeps=4))

    def test_bad_settings_rejected(self):
        # fd is the only inversion engine
        for engine in ("foo", "wos"):
            with pytest.raises(ValueError, match=f"unknown engine '{engine}'"):
                SolveSettings(engine=engine)
        for tol in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive"):
                SolveSettings(tol=tol)
        # a budget of 0 would still spend one evaluation; a bad warm start
        # would pass unseen on a one-jump target
        with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
            SolveSettings(max_sweeps=0)
        with pytest.raises(ValueError, match="unknown warm start 'foo'; "
                           "expected profile, proportional, uniform"):
            SolveSettings(warm_start="foo")


class TestBuildBlocked:
    def test_inset_formula(self):
        x = CircleDomain.from_arrays([1.0, 1.5, 2.0], [1.0, 0.4, math.pi])
        om = build_blocked(x, 0.25)
        # phi_k = max(0, min(psi_k, psi_{k+1}) - kappa)
        assert om.gate_angles == pytest.approx((0.15, 0.15))
        assert om.chis == pytest.approx([0.25, 0.25])
        assert geometry.validate(om) == []

    def test_kappa_larger_than_arcs(self):
        x = CircleDomain.from_arrays([1.0, 2.0], [0.3, math.pi])
        om = build_blocked(x, 1.0)
        assert om.gate_angles == (0.0,)
        assert om.chis[0] == pytest.approx(0.3)


class TestCheckCandidate:
    def test_jump_ramp_passes(self):
        rep = check_candidate(hfunction.example_jump_ramp())
        assert rep.verdict == "PASS"
        assert rep.alpha == pytest.approx(0.5)
        assert rep.beta == 0.5
        assert rep.ratio == pytest.approx(0.0992)
        assert rep.ratio < rep.thresholds.m_min

    def test_wide_gap_fails(self):
        f = hfunction.example_jump_ramp(gap=0.2)
        rep = check_candidate(f)
        assert rep.verdict == "FAIL"
        assert not rep.ratio_ok

    def test_flat_piece_fails(self):
        # a flat stretch kills the minimal secant slope
        f = CandidateH((1.0, 1.02, 1.05), (0.5, 0.5, 1.0), (CONSTANT, LINEAR))
        rep = check_candidate(f)
        assert rep.alpha == 0.0
        assert rep.verdict == "FAIL"


class TestUlcDiagnostics:
    def test_tight_domain_passes(self):
        x = CircleDomain.from_arrays([1.0, 1.05, 1.0992],
                                     [1.5, 2.2, math.pi])
        om = build_blocked(x, 0.02)
        checks = ulc_diagnostics(om, alpha=0.5)
        assert all(c.ok for c in checks)

    def test_adversarial_shallow_arc_fails(self):
        # an arc nearly closing the circle but far inside: angular depth
        # tiny, radial depth large
        x = CircleDomain.from_arrays([1.0, 2.0], [math.pi - 0.01, math.pi])
        om = build_blocked(x, 0.05)
        checks = ulc_diagnostics(om, alpha=0.5, eps_list=(0.5,))
        assert not checks[0].radius_ok

    def test_adversarial_deep_gate_fails(self):
        # two close radii but a gate plunging far below both arcs
        x = CircleDomain.from_arrays([1.0, 1.001, 1.1], [2.0, 2.0, math.pi])
        om = BlockedCircleDomain(x, (0.1, 1.9))
        checks = ulc_diagnostics(om, alpha=0.5, eps_list=(0.5,))
        assert not checks[0].theta_ok


class TestPipeline:
    def test_jump_ramp_small(self):
        rep = construct.run_pipeline(hfunction.example_jump_ramp(),
                                     n_list=(2, 4), verify_samples=40_000)
        assert rep.check.ok
        assert rep.stages[0].sup_gap >= rep.stages[1].sup_gap - 3 * (
            rep.stages[0].sup_gap_se + rep.stages[1].sup_gap_se)
        for st in rep.stages:
            assert geometry.validate(st.blocked) == []
            assert st.sigma_n == 0
            assert st.beurling_ok
            assert st.inversion_residual <= 1e-3
            assert 0.0 < st.fd_error < 1e-2
            assert st.arc_bound_margin >= 0.8
        assert rep.verdict == "PASS"

    def test_jump_ramp_through_n_32(self):
        # from the limit profile every stage converges at the default tol
        # and budget; n = 32 stalled from the jump-proportional start
        rep = construct.run_pipeline(hfunction.example_jump_ramp(),
                                     n_list=(2, 4, 8, 16, 32))
        assert rep.verdict == "PASS"
        assert rep.stages[-1].sigma_n == 0
        for a, b in zip(rep.stages, rep.stages[1:]):
            assert b.sup_gap <= a.sup_gap + 3.0 * (a.sup_gap_se + b.sup_gap_se)

    def test_short_arc_fails_the_arc_bound(self, monkeypatch):
        # the outermost proper arc cut to 0.2, below its arc-length lower
        # bound of about 0.30; every other check still passes
        solve = construct.solve_circle_domain

        def short_outer_arc(steps, settings):
            res = solve(steps, settings)
            psis = res.domain.psis.copy()
            psis[-2] = 0.2
            return dataclasses.replace(res, domain=CircleDomain.from_arrays(
                res.domain.radii, psis))

        monkeypatch.setattr(construct, "solve_circle_domain", short_outer_arc)
        f = hfunction.example_jump_ramp()
        rep = construct.run_pipeline(f, n_list=(2,), verify_samples=20_000)
        (st,) = rep.stages
        lo = bounds.arc_lower_bound(0.25, st.circle.radii[1], f.M)
        assert st.arc_bound_margin == pytest.approx(0.2 - lo)
        assert st.arc_bound_margin < 0.0
        assert (rep.check.ok and rep.gaps_nonincreasing and rep.sigma_vanishes
                and rep.ulc_ok and st.beurling_ok)
        assert rep.verdict == "FAIL"

    @pytest.mark.parametrize("n_list", [(4, 2), (2, 2)],
                             ids=["decreasing", "repeated"])
    def test_levels_must_increase(self, n_list):
        # out of order, the sup-gap trend and sigma_n's last stage are read
        # wrong; repeated, one level is solved and verified twice
        with pytest.raises(ValueError, match="strictly increasing, got "
                                             + ", ".join(map(str, n_list))):
            construct.run_pipeline(hfunction.example_jump_ramp(), n_list=n_list)

    def test_sigma_counts_small_arcs(self):
        x = CircleDomain.from_arrays([1.0, 1.5, 2.0], [0.01, 1.0, math.pi])
        kap = 0.05
        psis = x.psis[:-1]
        assert int(np.sum(psis <= kap)) == 1


class TestBoundaryProfile:
    @pytest.mark.parametrize("f, rs", [
        (hfunction.example_jump_ramp(), (1.0, 1.0496, 1.0992)),
        (CandidateH((1.0, 1.4, 2.0), (0.2, 0.6, 1.0), (LINEAR, LINEAR)),
         (1.0, 1.2, 1.4, 1.7, 2.0)),
    ], ids=["jump-ramp", "two-ramps"])
    def test_round_trip(self, f, rs):
        # the point at angle pi f(r) has modulus r, and the jump at mu
        # holds every angle up to pi f(mu) at mu
        thetas, prof = construct.boundary_profile(f, n_theta=361).T
        for r in rs:
            i = np.argmin(np.abs(thetas - math.pi * hfunction.evaluate(f, r)))
            assert prof[i] == pytest.approx(r)
        jump = np.abs(thetas) <= math.pi * hfunction.evaluate(f, f.mu)
        assert prof[jump] == pytest.approx(np.full(jump.sum(), f.mu))

    @pytest.mark.parametrize("f", [
        hfunction.example_jump_ramp(),
        CandidateH((1.0, 1.4, 2.0), (0.2, 0.6, 1.0), (LINEAR, LINEAR)),
    ], ids=["jump-ramp", "two-ramps"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_profile_start_lies_on_the_curve(self, f, n):
        # the inversion's default start puts arc k at the profile's angle
        # at r_k: where f strictly increases the curve passes through
        # (psi_k, r_k)
        steps = hfunction.step_approximation(f, n)
        psis = construct._initial_psis(steps, "profile")
        thetas, prof = construct.boundary_profile(f).T
        ramp = np.array(steps.radii[:-1]) > f.mu  # past the jump at mu
        assert ramp.sum() == n - 1
        rs = np.interp(psis[ramp], thetas, prof)
        np.testing.assert_allclose(rs, np.array(steps.radii[:-1])[ramp],
                                   rtol=0, atol=1e-9)

    def test_endpoints(self):
        f = hfunction.example_jump_ramp()
        prof = construct.boundary_profile(f, n_theta=361)
        thetas, rs = prof[:, 0], prof[:, 1]
        mid = np.argmin(np.abs(thetas))
        assert rs[mid] == pytest.approx(f.mu)
        assert rs[0] == pytest.approx(f.M)
        assert rs[-1] == pytest.approx(f.M)
        assert np.all(rs >= f.mu - 1e-12) and np.all(rs <= f.M + 1e-12)
