"""Candidate h-functions: evaluation, secant slopes, step approximation,
and the necessary-condition screen."""
import bisect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hmdf import hfunction
from hmdf.hfunction import (CONSTANT, LINEAR, CandidateH, NecessaryReport,
                            StepH, beurling_bound, evaluate,
                            example_jump_ramp, left_limit,
                            minimal_secant_slope, necessary_checks,
                            step_approximation)


class TestCandidateH:
    def test_validation(self):
        with pytest.raises(ValueError):
            CandidateH((1.0,), (1.0,), ())  # single breakpoint
        with pytest.raises(ValueError):
            CandidateH((1.0, 2.0), (0.5, 0.9), (LINEAR,))  # does not end at 1
        with pytest.raises(ValueError):
            CandidateH((2.0, 1.0), (0.5, 1.0), (LINEAR,))  # decreasing radii
        with pytest.raises(ValueError):
            CandidateH((1.0, 2.0), (0.0, 1.0), (CONSTANT,))  # zero on (mu, M)
        for b, v in (((1.0, math.nan), (0.5, 1.0)), ((1.0, math.inf), (0.5, 1.0)),
                     ((math.nan, 2.0), (0.5, 1.0)), ((1.0, 2.0), (math.nan, 1.0))):
            with pytest.raises(ValueError, match="finite"):
                CandidateH(b, v, (LINEAR,))

    def test_evaluate_jump_ramp(self):
        f = example_jump_ramp()
        assert evaluate(f, 0.5) == 0.0
        assert evaluate(f, 1.0) == 0.5  # right-continuous at the jump
        assert evaluate(f, 1.0 + 0.0496) == pytest.approx(0.75)
        assert evaluate(f, 1.0992) == 1.0
        assert evaluate(f, 5.0) == 1.0
        for bad in (0.0, math.nan, np.array([1.0, -1.0])):
            with pytest.raises(ValueError, match="radius must be positive"):
                evaluate(f, bad)

    def test_left_limit(self):
        f = CandidateH((1.0, 1.5, 2.0), (0.3, 0.3, 1.0), (CONSTANT, LINEAR))
        assert left_limit(f, 0) == 0.0
        assert left_limit(f, 1) == 0.3       # constant piece before
        assert left_limit(f, 2) == 1.0       # linear piece is continuous

    def test_alpha_beta_example(self):
        f = example_jump_ramp()
        assert minimal_secant_slope(f) == pytest.approx(0.5)

    def test_alpha_single_linear(self):
        f = CandidateH((1.0, 2.0), (0.2, 1.0), (LINEAR,))
        # steepest constraint: ramp slope 0.8 over unit gap
        assert minimal_secant_slope(f) == pytest.approx(0.8)

    def test_alpha_zero_for_flat_piece(self):
        f = CandidateH((1.0, 1.5, 2.0), (0.3, 0.3, 1.0), (CONSTANT, LINEAR))
        assert minimal_secant_slope(f) == 0.0


class TestStepApproximation:
    def test_agrees_at_grid(self):
        f = example_jump_ramp()
        s = step_approximation(f, 4)
        for r, v in zip(s.radii, s.values):
            assert v == pytest.approx(evaluate(f, r))
        assert s.values[-1] == 1.0
        assert s.radii[0] == f.mu

    def test_single_level(self):
        f = example_jump_ramp()
        s = step_approximation(f, 1)
        assert s.radii == (f.mu, f.M)
        assert s.values == (0.5, 1.0)

    def test_drops_zero_jumps(self):
        f = CandidateH((1.0, 1.5, 2.0), (0.5, 0.5, 1.0), (CONSTANT, LINEAR))
        s = step_approximation(f, 4)
        assert all(j > 0 for j in s.jumps)


class TestStepH:
    def test_call(self):
        s = StepH((1.0, 2.0), (0.5, 1.0))
        assert s(0.9) == 0.0
        assert s(1.0) == 0.5
        assert s(1.5) == 0.5
        assert s(2.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepH((1.0, 2.0), (0.5, 0.9))
        with pytest.raises(ValueError):
            StepH((1.0, 1.0), (0.5, 1.0))
        for r, v in (((1.0, math.nan), (0.5, 1.0)), ((1.0, math.inf), (0.5, 1.0)),
                     ((1.0, 2.0), (math.nan, 1.0))):
            with pytest.raises(ValueError, match="finite"):
                StepH(r, v)
        for r in ((0.0, 1.0), (-0.5, 1.0)):
            with pytest.raises(ValueError, match="positive"):
                StepH(r, (0.5, 1.0))


class TestNecessaryChecks:
    def test_beurling_zero_at_mu(self):
        assert beurling_bound(1.0, 1.0) == 0.0  # exactly, not approximately
        assert beurling_bound(2.5, 2.5) == 0.0

    def test_beurling_rejects_bad_mu(self):
        for mu, r in ((0.0, 1.0), (-1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                beurling_bound(mu, r)

    def test_beurling_reference_value(self):
        assert beurling_bound(1.0, 4.0) == pytest.approx(0.40966553, abs=1e-7)

    def test_example_passes(self):
        rep = necessary_checks(example_jump_ramp())
        assert rep.ok

    def test_beurling_violation_detected(self):
        # nearly flat at 0.01 far beyond mu: grossly below the lower bound
        f = CandidateH((1.0, 100.0), (0.01, 1.0), (CONSTANT,))
        rep = necessary_checks(f)
        assert not rep.ok
        assert not rep.beurling_ok
        r, v, bound = rep.first_violation
        assert v < bound


# ---------------------------------------------------------------------------
# Property tests.


@st.composite
def candidates(draw):
    m = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=m - 1, max_size=m - 1))
    b = np.cumsum([1.0] + gaps)
    incs = draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))
    v = np.cumsum(incs)
    v = v / v[-1]
    kinds = tuple(draw(st.sampled_from((CONSTANT, LINEAR))) for _ in range(m - 1))
    return CandidateH(tuple(b), tuple(float(x) for x in v), kinds)


@settings(max_examples=80, deadline=None)
@given(candidates(), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
def test_evaluate_monotone(f, r1, r2):
    lo, hi = sorted((r1, r2))
    assert evaluate(f, lo) <= evaluate(f, hi) + 1e-12
    assert 0.0 <= evaluate(f, r1) <= 1.0


@settings(max_examples=80, deadline=None)
@given(candidates())
def test_alpha_in_unit_interval_and_attained(f):
    alpha = minimal_secant_slope(f)
    assert 0.0 <= alpha <= 1.0
    # alpha normalizes the worst secant: every secant slope dominates it
    rng = np.random.default_rng(0)
    rs = np.sort(rng.uniform(f.mu, f.M, 8))
    for i in range(len(rs) - 1):
        for j in range(i + 1, len(rs)):
            if rs[j] - rs[i] > 1e-9:
                sec = (evaluate(f, rs[j]) - evaluate(f, rs[i])) / (rs[j] - rs[i])
                assert (f.M - f.mu) * sec >= alpha - 1e-9


@settings(max_examples=60, deadline=None)
@given(candidates(), st.integers(1, 12))
def test_step_approximation_below_f(f, n):
    s = step_approximation(f, n)
    for r in np.linspace(f.mu, f.M, 37):
        assert s(float(r)) <= evaluate(f, float(r)) + 1e-12


def reference_evaluate(f, r):
    """Reference: f(r) by bisection, in Python floats."""
    b = f.breakpoints
    if r < b[0]:
        return 0.0
    if r >= b[-1]:
        return 1.0
    i = bisect.bisect_right(b, r) - 1
    if f.kinds[i] == CONSTANT:
        return f.values[i]
    t = (r - b[i]) / (b[i + 1] - b[i])
    return f.values[i] + t * (f.values[i + 1] - f.values[i])


@settings(max_examples=80, deadline=None)
@given(candidates(), st.lists(st.floats(0.1, 5.0), min_size=1, max_size=40))
def test_evaluate_array_matches_scalar_calls(f, rs):
    rs = np.array(rs + list(f.breakpoints))
    scalars = [evaluate(f, float(r)) for r in rs]
    assert all(type(v) is float for v in scalars)
    assert scalars == [reference_evaluate(f, float(r)) for r in rs]
    assert evaluate(f, rs).tolist() == scalars


def scalar_necessary_checks(f, grid_size=1024):
    """Reference: ``necessary_checks`` as one scalar ``evaluate`` and
    ``beurling_bound`` call per grid radius."""
    rs = np.geomspace(f.mu, f.M, grid_size + 1)[1:]
    vals = np.array([evaluate(f, float(r)) for r in rs])
    first = None
    for r, v in zip(rs, vals):
        bound = beurling_bound(f.mu, float(r))
        if v < bound - 1e-12:
            first = (float(r), float(v), bound)
            break
    return NecessaryReport(bool(np.all(np.diff(vals) >= -1e-15)),
                           bool(np.all((vals >= 0.0) & (vals <= 1.0))),
                           first is None, first)


@settings(max_examples=80, deadline=None)
@given(candidates(), st.sampled_from([16, 1024]))
@example(example_jump_ramp(), 1024)
@example(CandidateH((1.0, 1.5, 2.0), (0.0, 0.1, 1.0), (LINEAR, CONSTANT)), 1024)
def test_necessary_checks_match_scalar_loop(f, grid_size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hfunction, "_GRID_SIZE", grid_size)
        assert necessary_checks(f) == scalar_necessary_checks(f, grid_size)
