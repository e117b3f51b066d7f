"""Inversion of step targets, gate insertion, candidate certification, and
the limit-uniformity diagnostics."""
import concurrent.futures
import dataclasses
import math
import threading

import numpy as np
import pytest

from hmdf import bounds, construct, hfunction
from hmdf.construct import (SolveError, SolveSettings, build_blocked,
                            check_candidate, solve_circle_domain,
                            ulc_diagnostics)
from hmdf.fd import FdSolver
from hmdf.geometry import BlockedCircleDomain, CircleDomain
from hmdf.hfunction import CONSTANT, LINEAR, CandidateH, StepH

from baseline import criterion5_targets
from workloads import Invert

# Regression value for the two-jump target (0.5 at 1, 0.5 at 2), frozen
# from the grid solver at resolution 512 after a Monte Carlo inversion
# agreed with it within their tolerances.
PSI0_TWO_JUMP = 0.860769


def _fresh_residual(res, steps, resolution):
    """Sup residual of a solution re-measured on a fresh fd grid."""
    solver = FdSolver(res.domain, n_theta=resolution)
    return float(np.abs(np.cumsum(solver.arc_measures())
                        - np.array(steps.values[:-1])).max())


class TestSolveCircleDomain:
    def test_single_jump_is_disk(self):
        res = solve_circle_domain(StepH((2.0,), (1.0,)))
        assert res.converged
        assert len(res.domain.arcs) == 1
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
        # the returned residual is the best fine-level measurement, on the
        # grid whose filler counts the solve froze; a fresh grid picks its
        # own counts and reads within the grid's own error of it
        assert res.residual == min(s for r, s in res.trace if r == 256)
        assert abs(_fresh_residual(res, steps, 256) - res.residual) <= res.fd_error
        # first-order grid error, read off the two levels at one psi
        assert 0.0 < res.fd_error < 1e-2

    @pytest.mark.parametrize("resolution", [8, 12])
    def test_one_level_below_twice_the_minimum(self, resolution):
        res = solve_circle_domain(StepH((1.0, 2.0), (0.5, 1.0)),
                                  SolveSettings(resolution=resolution, tol=1e-2))
        assert [r for r, _ in res.trace] == [resolution] * res.sweeps
        assert math.isnan(res.fd_error)

    def test_jump_ramp_fine_level_evaluations(self):
        # from psi_k = pi F_k, exact-Jacobian Newton steps need only a
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

    def test_jump_ramp_fine_stages_converge(self):
        # n = 32 and 64 cross many count thresholds on the way in; frozen
        # counts keep the Newton steps on one smooth map
        f = hfunction.example_jump_ramp()
        res = solve_circle_domain(hfunction.step_approximation(f, 32))
        assert res.converged and res.sweeps <= 10
        res = solve_circle_domain(hfunction.step_approximation(f, 64))
        assert res.converged and res.residual <= 1e-3

    @pytest.mark.parametrize("steps, warm_start", [
        *(pytest.param(hfunction.step_approximation(
            hfunction.example_jump_ramp(), n), "profile", id=f"jump_ramp_{n}")
          for n in (2, 4, 8, 16, 32)),
        *(pytest.param(steps, mode, id=f"criterion_5_{i}_{mode}")
          for i, steps in enumerate(criterion5_targets())
          for mode in ("proportional", "uniform"))])
    def test_fresh_grid_residual(self, steps, warm_start):
        # re-measured on a fresh grid at the solve's resolution, the
        # solution still meets tol, within the grid's own error of the
        # residual the solve reports
        res = solve_circle_domain(steps, SolveSettings(warm_start=warm_start))
        fresh = _fresh_residual(res, steps, 512)
        assert fresh <= 1e-3
        assert abs(fresh - res.residual) <= res.fd_error

    @pytest.mark.parametrize("seed", [1, 5])
    def test_invert_workload_contract(self, seed):
        # the benchmark's invert workload passes its own check at its
        # resolution 256: from either warm start each solve converges and
        # meets tol re-measured on a fresh grid, and the two starts land
        # within 2e-3 of each other
        invert = Invert()
        targets = invert.inputs(seed)
        assert invert.check(targets, invert.run(targets, None)).failed == set()

    def test_jump_ramp_tight_tolerance_converges(self):
        # below the coarse grid's own floor the coarse level stops with at
        # least a quarter of the budget left, and the fine level converges
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), 16)
        res = solve_circle_domain(steps, SolveSettings(resolution=512, tol=2e-4))
        assert res.converged and res.residual <= 2e-4
        budget = construct._MAX_SWEEPS
        assert sum(1 for r, _ in res.trace if r == 256) <= budget - budget // 4

    @pytest.mark.parametrize("n, resolution, tol", [
        (4, 64, 1e-3), (8, 128, 1e-3), (16, 512, 5e-5)])
    def test_jump_ramp_root_past_a_count_threshold(self, n, resolution, tol):
        # the root of the default-count grid map lies past a filler-count
        # threshold, where the measures jump; frozen counts make the map
        # smooth across it, so Newton steps reach tol there
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), n)
        res = solve_circle_domain(steps, SolveSettings(resolution=resolution,
                                                       tol=tol))
        assert res.converged and res.residual <= tol

    def test_frozen_cells_keep_a_floor(self):
        # from the uniform start the coarse level drives psi_0 to its 1e-6
        # clip with eight frozen cells in gap 0; such cells re-freeze below
        # h/16, where the weights would no longer sum to 1
        steps = StepH((1.0001095400068059, 1.3875312193860336, 1.88319597940716),
                      (0.1110572011724411, 0.5897435043577177, 1.0))
        res = solve_circle_domain(steps, SolveSettings(resolution=128,
                                                       warm_start="uniform"))
        assert res.converged and res.residual <= 1e-3

    def test_jump_ramp_uniform_warm_start(self):
        # every psi starts on one ray, where the arcs share one Jacobian
        # column; the damped sweeps still separate them
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), 16)
        res = solve_circle_domain(steps, SolveSettings(warm_start="uniform"))
        assert res.converged and res.residual <= 0.2e-3

    def test_failed_solve_spends_the_whole_budget(self, monkeypatch):
        # every evaluation is one step, so a stalled solve stops at the
        # budget, not short of it
        monkeypatch.setattr(construct, "_MAX_SWEEPS", 20)
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), 16)
        try:
            res = solve_circle_domain(steps, SolveSettings(resolution=128))
        except SolveError as err:
            assert "after 20 measure evaluations" in str(err)
        else:
            assert res.converged and res.sweeps <= 20

    def test_warm_start_uniqueness(self):
        steps = StepH((1.0, 1.4, 2.0), (0.3, 0.65, 1.0))
        a = solve_circle_domain(steps, SolveSettings(warm_start="proportional"))
        b = solve_circle_domain(steps, SolveSettings(warm_start="uniform"))
        assert np.abs(a.domain.psis - b.domain.psis).max() <= 2e-3

    def test_nonconvergence_reported(self, monkeypatch):
        steps = StepH((1.0, 2.0), (0.5, 1.0))
        # the budget bounds every measure evaluation, Newton phase and both
        # levels included
        monkeypatch.setattr(construct, "_MAX_SWEEPS", 4)
        with pytest.raises(SolveError,
                           match="after 4 measure evaluations: residual"):
            solve_circle_domain(steps, SolveSettings(tol=1e-18))

    def test_stall_at_the_floor_counts_its_evaluations(self):
        # below the rounding floor the loop stops short of the budget; the
        # error carries the evaluations spent, not the budget
        steps = StepH((1.0, 2.0), (0.5, 1.0))
        with pytest.raises(SolveError) as info:
            solve_circle_domain(steps, SolveSettings(resolution=32, tol=1e-18))
        err = info.value
        assert err.evaluations == 13 < construct._MAX_SWEEPS
        assert str(err) == ("inversion stalled after 13 measure evaluations: "
                            f"residual {err.residual:.3e} > tolerance 1.000e-18")
        assert 0.0 < err.residual <= construct._SUP_FLOOR

    def test_bad_settings_rejected(self):
        # fd is the only inversion engine
        for engine in ("foo", "wos"):
            with pytest.raises(ValueError, match=f"unknown engine '{engine}'"):
                SolveSettings(engine=engine)
        for tol in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive"):
                SolveSettings(tol=tol)
        # a bad warm start would pass unseen on a one-jump target
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
        checks = ulc_diagnostics(om, alpha=0.5)
        assert checks[0].eps == 0.5 and not checks[0].radius_ok

    def test_adversarial_deep_gate_fails(self):
        # two close radii but a gate plunging far below both arcs
        x = CircleDomain.from_arrays([1.0, 1.001, 1.1], [2.0, 2.0, math.pi])
        om = BlockedCircleDomain(x, (0.1, 1.9))
        checks = ulc_diagnostics(om, alpha=0.5)
        assert checks[0].eps == 0.5 and not checks[0].theta_ok


class TestPipeline:
    def test_jump_ramp_small(self):
        rep = construct.run_pipeline(hfunction.example_jump_ramp(),
                                     n_list=(2, 4), verify_samples=40_000)
        assert rep.check.ok
        assert rep.stages[0].sup_gap >= rep.stages[1].sup_gap - 3 * (
            rep.stages[0].sup_gap_se + rep.stages[1].sup_gap_se)
        for st in rep.stages:
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

    @staticmethod
    def cut_arc(monkeypatch, k, psi):
        # every inversion returns its domain with arc k cut to psi
        solve = construct.solve_circle_domain

        def cut(steps, settings):
            res = solve(steps, settings)
            psis = res.domain.psis.copy()
            psis[k] = psi
            return dataclasses.replace(res, domain=CircleDomain.from_arrays(
                res.domain.radii, psis))

        monkeypatch.setattr(construct, "solve_circle_domain", cut)

    def test_short_arc_fails_the_arc_bound(self, monkeypatch):
        # the outermost proper arc cut to 0.2, below its arc-length lower
        # bound of about 0.30; every other check still passes
        self.cut_arc(monkeypatch, -2, 0.2)
        f = hfunction.example_jump_ramp()
        rep = construct.run_pipeline(f, n_list=(2,), verify_samples=20_000)
        (st,) = rep.stages
        lo = bounds.arc_lower_bound(0.25, st.circle.radii[1], f.M)
        assert st.arc_bound_margin == pytest.approx(0.2 - lo)
        assert st.arc_bound_margin < 0.0
        assert (rep.check.ok and rep.gaps_nonincreasing and rep.sigma_vanishes
                and rep.ulc_ok and st.beurling_ok)
        assert rep.verdict == "FAIL"

    def test_verify_samples_checked_before_any_inversion(self, monkeypatch):
        monkeypatch.setattr(construct, "solve_circle_domain", lambda *args:
                            pytest.fail("inverted before checking the walks"))
        with pytest.raises(ValueError, match="verify_samples must be positive"):
            construct.run_pipeline(hfunction.example_jump_ramp(), (2, 4, 8),
                                   verify_samples=0)

    @pytest.mark.parametrize("n_list", [(4, 2), (2, 2)],
                             ids=["decreasing", "repeated"])
    def test_levels_must_increase(self, n_list):
        # out of order, the sup-gap trend and sigma_n's last stage are read
        # wrong; repeated, one level is solved and verified twice
        with pytest.raises(ValueError, match="strictly increasing, got "
                                             + ", ".join(map(str, n_list))):
            construct.run_pipeline(hfunction.example_jump_ramp(), n_list=n_list)

    def test_pipelined_stages_match_a_sequential_run(self, monkeypatch):
        f = hfunction.example_jump_ramp()
        settings = SolveSettings(resolution=64)
        threads = []
        solve = construct.solve_circle_domain

        def recording(steps, settings):
            threads.append(threading.current_thread())
            return solve(steps, settings)

        monkeypatch.setattr(construct, "solve_circle_domain", recording)

        def run():
            threads.clear()
            rep = construct.run_pipeline(f, (2, 4, 8), settings,
                                         verify_samples=20_000)
            return dataclasses.replace(rep, stages=tuple(
                dataclasses.replace(st, seconds=0.0) for st in rep.stages))

        before = threading.active_count()
        piped = run()
        assert threading.active_count() == before
        assert len(threads) == 3
        assert threading.main_thread() not in threads

        class OnDemand:
            """Runs each task in the thread that asks for its result, when
            it asks: each stage inverts, then verifies, as one loop."""

            def __init__(self, workers):
                pass

            def submit(self, fn, *args):
                return type("Task", (), {"result": lambda _: fn(*args)})()

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", OnDemand)
        sequential = run()
        assert threads == [threading.main_thread()] * 3
        assert piped == sequential
        assert piped.verdict == "PASS"

    def test_stage_error_propagates_and_joins_threads(self, monkeypatch):
        # the second stage's inversion stalls; the first verifies first
        f = hfunction.example_jump_ramp()
        stall = SolveSettings(resolution=32, tol=1e-18)
        with pytest.raises(SolveError) as sequential:
            solve_circle_domain(hfunction.step_approximation(f, 4), stall)
        calls = []
        solve = construct.solve_circle_domain

        def stalls_at_stage_two(steps, settings):
            calls.append(len(steps.radii))
            return solve(steps, stall if len(calls) == 2 else settings)

        verified = []
        estimate = construct.estimate_h

        def recording(*args):
            verified.append(len(calls))
            return estimate(*args)

        monkeypatch.setattr(construct, "solve_circle_domain", stalls_at_stage_two)
        monkeypatch.setattr(construct, "estimate_h", recording)
        before = threading.active_count()
        with pytest.raises(SolveError) as piped:
            construct.run_pipeline(f, (2, 4, 8), SolveSettings(resolution=64),
                                   verify_samples=20_000)
        assert str(piped.value) == str(sequential.value)
        assert len(verified) == 1  # stage 1 verified, stage 2 raised
        assert len(calls) == 2  # stage 3 never inverted: one stage ahead
        assert threading.active_count() == before

    def test_verify_error_waits_for_one_inversion_at_most(self, monkeypatch):
        calls = []
        solve = construct.solve_circle_domain

        def recording(steps, settings):
            calls.append(len(steps.radii))
            return solve(steps, settings)

        def failing(*args):
            raise RuntimeError("verification failed")

        monkeypatch.setattr(construct, "solve_circle_domain", recording)
        monkeypatch.setattr(construct, "estimate_h", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="verification failed"):
            construct.run_pipeline(hfunction.example_jump_ramp(), (2, 4, 8, 16),
                                   SolveSettings(resolution=64))
        assert len(calls) <= 2  # stage 1 and at most the stage after it
        assert threading.active_count() == before

    def test_sigma_counts_small_arcs(self, monkeypatch):
        # the innermost arc cut to 0.02, below kappa_2 = 0.0344: sigma_n
        # counts it, so sigma does not vanish at the last stage
        self.cut_arc(monkeypatch, 0, 0.02)
        rep = construct.run_pipeline(hfunction.example_jump_ramp(), n_list=(2,),
                                     verify_samples=20_000)
        (st,) = rep.stages
        assert st.circle.psis[0] == 0.02 < st.kappa_n
        assert st.sigma_n == 1
        assert not rep.sigma_vanishes
        assert rep.verdict == "FAIL"


class TestBoundaryProfile:
    """The default warm start puts arc k at psi_k = pi F_k, F_k the step
    value after it: on the curve theta = pi f(r) at r_k."""

    @pytest.mark.parametrize("f", [
        hfunction.example_jump_ramp(),
        CandidateH((1.0, 1.4, 2.0), (0.2, 0.6, 1.0), (LINEAR, LINEAR)),
    ], ids=["jump-ramp", "two-ramps"])
    @pytest.mark.parametrize("n", [8, 16])
    def test_profile_start_lies_on_the_curve(self, f, n):
        steps = hfunction.step_approximation(f, n)
        psis = construct._initial_psis(steps, "profile")
        rs = np.array(steps.radii[:-1])
        ramp = rs > f.mu  # past the jump at mu
        assert ramp.sum() == n - 1
        np.testing.assert_allclose(psis, math.pi * np.array(steps.values[:-1]),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(psis[ramp],
                                   math.pi * hfunction.evaluate(f, rs[ramp]),
                                   rtol=0, atol=1e-12)
