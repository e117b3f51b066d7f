"""Harmonic-measure engines: walk-on-spheres statistics against exact
conformal oracles, an independent Poisson-kernel quadrature oracle, and the
deterministic grid solver."""
import hashlib
import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from hmdf import geometry, potential
from hmdf.fd import FdSolver, filler_counts
from hmdf.geometry import BlockedCircleDomain, CircleDomain
from hmdf.potential import (OffCenterDisk, WosConfig, estimate_h,
                            exact_offcenter_disk_h, exact_slit_disk_gate,
                            feature_measures, slit_disk, wos_exit_ensemble)


def poisson_offcenter_h(a: float, R: float, r: float) -> float:
    """Independent oracle: harmonic measure of {|z| <= r} on the boundary
    of B(a, R) seen from 0, by direct Poisson-kernel quadrature."""
    c = (r * r - a * a - R * R) / (2 * a * R)
    if c <= -1:
        return 0.0
    if c >= 1:
        return 1.0
    t0 = math.acos(c)

    def kern(t):
        return (R * R - a * a) / abs(a + R * np.exp(1j * t)) ** 2

    val, _ = quad(kern, t0, math.pi, limit=200)
    return val / math.pi


class TestExactOracles:
    def test_offcenter_against_poisson_quadrature(self):
        for r in (0.55, 0.8, 1.0, 1.2, 1.45):
            assert exact_offcenter_disk_h(0.5, 1.0, r) == pytest.approx(
                poisson_offcenter_h(0.5, 1.0, r), abs=1e-10)

    def test_offcenter_limits(self):
        assert exact_offcenter_disk_h(0.5, 1.0, 0.5) == 0.0
        assert exact_offcenter_disk_h(0.5, 1.0, 1.5) == 1.0
        assert exact_offcenter_disk_h(0.0, 1.0, 0.99) == 0.0
        assert exact_offcenter_disk_h(0.0, 1.0, 1.0) == 1.0

    def test_slit_whole_slit_closed_form(self):
        # independently simplified: whole slit [r, M] has measure
        # (2/pi) arctan((M - r) / (2 sqrt(M r)))
        for r, M in ((1.0, 2.0), (0.3, 1.0), (2.0, 5.0)):
            expect = (2 / math.pi) * math.atan((M - r) / (2 * math.sqrt(M * r)))
            assert exact_slit_disk_gate(r, M, M) == pytest.approx(expect, abs=1e-14)

    def test_slit_reference_value(self):
        assert exact_slit_disk_gate(1.0, 2.0, 2.0) == pytest.approx(
            0.2163468959, abs=1e-9)

    def test_slit_monotone_in_segment(self):
        vals = [exact_slit_disk_gate(1.0, r1, 2.0) for r1 in (1.0, 1.2, 1.5, 2.0)]
        assert vals[0] == 0.0
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestWos:
    def test_deterministic_for_seed(self):
        dom = OffCenterDisk(0.5, 1.0)
        e1 = wos_exit_ensemble(dom, 0.0, 5000, WosConfig(seed=3))
        e2 = wos_exit_ensemble(dom, 0.0, 5000, WosConfig(seed=3))
        assert np.array_equal(e1.moduli, e2.moduli)
        e3 = wos_exit_ensemble(dom, 0.0, 5000, WosConfig(seed=4))
        assert not np.array_equal(e1.moduli, e3.moduli)

    def test_exit_modulus_distribution_ks(self):
        # the exit-modulus CDF is the exact h-function: KS test
        dom = OffCenterDisk(0.5, 1.0)
        ens = wos_exit_ensemble(dom, 0.0, 20_000, WosConfig(seed=11))
        res = kstest(ens.moduli, lambda r: np.array(
            [exact_offcenter_disk_h(0.5, 1.0, float(x)) for x in np.atleast_1d(r)]))
        assert res.pvalue > 0.01

    def test_offcenter_h_matches_exact(self):
        dom = OffCenterDisk(0.5, 1.0)
        table = estimate_h(dom, [0.8, 1.0, 1.2], 0.0, 50_000, WosConfig(seed=5))
        for r, est in zip(table.radii, table.estimates):
            exact = exact_offcenter_disk_h(0.5, 1.0, r)
            assert abs(est.value - exact) <= 3 * est.std_error + 1e-3

    def test_slit_disk_gate_measures(self):
        dom = slit_disk(1.0, 1.5, 2.0)
        ens = wos_exit_ensemble(dom, 0.0, 60_000, WosConfig(seed=9))
        fm = feature_measures(ens)
        seg = fm[("gate", 0)]
        exact = exact_slit_disk_gate(1.0, 1.5, 2.0)
        assert abs(seg.value - exact) <= 3 * seg.std_error + 1e-3
        # exits within the shell of a slit endpoint tie-break to the point
        # arcs; their share vanishes with epsilon and belongs to the slit
        tips = sum(fm[k].value for k in (("arc", 0), ("arc", 1)) if k in fm)
        assert tips < 5e-3
        whole = seg.value + fm[("gate", 1)].value + tips
        exact_whole = exact_slit_disk_gate(1.0, 2.0, 2.0)
        assert abs(whole - exact_whole) <= 3 * (seg.std_error +
                                                fm[("gate", 1)].std_error) + 1e-3

    def test_reflection_invariance_walkwise(self):
        # on a symmetric domain, negating every angular draw mirrors each
        # walk exactly, so exit moduli match walk for walk
        base = CircleDomain.from_arrays([1.0, 2.0], [0.9, math.pi])
        dom = BlockedCircleDomain(base, (0.4,))
        e1 = wos_exit_ensemble(dom, 0.0, 4000, WosConfig(seed=2))
        e2 = wos_exit_ensemble(dom, 0.0, 4000, WosConfig(seed=2), reflect=True)
        assert np.array_equal(e1.moduli, e2.moduli)
        assert np.array_equal(e1.kinds, e2.kinds)
        assert np.array_equal(e1.indices, e2.indices)

    @staticmethod
    def _digest(dom, n_samples, seed):
        """Counts of a seeded ensemble on ``dom`` and the digest of its
        bytes."""
        ens = wos_exit_ensemble(dom, 0.0, n_samples, WosConfig(seed=seed))
        digest = hashlib.sha256()
        for a in (ens.kinds, ens.indices, ens.moduli):
            digest.update(np.ascontiguousarray(a).tobytes())
        return ens.sample_count, ens.discard_count, digest.hexdigest()

    @classmethod
    def _golden_digest(cls, n_samples):
        """Seeded ensemble on a fixed 16-arc blocked domain, with axis gates
        every third channel: its counts and the digest of its bytes."""
        k = np.arange(16)
        radii = np.append(1.0 + 0.125 * k, 3.0)
        psis = np.append(0.2 + 2.6 * ((7 * k) % 16) / 15, math.pi)
        caps = np.minimum(psis[:-1], psis[1:])
        phis = tuple(0.0 if j % 3 == 0 else 0.5 * float(c) for j, c in enumerate(caps))
        dom = BlockedCircleDomain(CircleDomain.from_arrays(radii, psis), phis)
        return cls._digest(dom, n_samples, 2012)

    def test_golden_ensemble(self):
        """Pins one seeded one-batch ensemble to the bytes the full feature
        scan gave (x86-64, NumPy 2.4): any change to a walk shows up here."""
        assert self._golden_digest(10_000) == (
            10_000, 0,
            "8f89accd801e9e37403337dbaac19f313b2927d609e9e3b5ed9f58d4b03ee6b2")

    def test_golden_ensemble_of_three_batches(self):
        """The same domain at three batches, pinned to the bytes of the
        serial batch loop: the batch threads change no walk."""
        n = 2 * potential._BATCH + 100
        assert self._golden_digest(n) == (
            n, 0,
            "36a9bef45dc9a8f342401ea35d280ba62975652ac0882b3d3ea3b483cb2f01a5")

    # The n = 16 blocked domain of the benchmark's construct workload
    # (jump-ramp at resolution 512, psi rounded; kappa_16 = 0.0172): 16
    # arcs within 0.1 in radius, psi increasing, gates inset by kappa_16.
    _CONSTRUCT_16_PSIS = (
        1.5201, 1.6141, 1.7101, 1.8061, 1.9033, 2.0018, 2.0999, 2.1996,
        2.2994, 2.3998, 2.5009, 2.6026, 2.7052, 2.8087, 2.9135, 3.0207)
    _CONSTRUCT_16 = BlockedCircleDomain(
        CircleDomain.from_arrays([1.0 + 0.0062 * k for k in range(17)],
                                 _CONSTRUCT_16_PSIS + (math.pi,)),
        tuple(p - 0.0172 for p in _CONSTRUCT_16_PSIS))

    @pytest.mark.parametrize("n_samples, want", [
        (10_000, "548666a3103f417cb935b2bf1e91615cadfbc110e6e8913a929900196d0b4f59"),
        (2 * potential._BATCH + 100,
         "e2273425bf0fbc7a8e95338c65c3740f3fbd0eb4835119cde9d685067b56b29d")],
        ids=["one_batch", "three_batches"])
    def test_golden_ensemble_on_construct_stage(self, n_samples, want):
        """Pins seeded ensembles on the construct stage's domain to the
        bytes each step's full feature query gave, before the steps asked
        for the distance alone."""
        assert self._digest(self._CONSTRUCT_16, n_samples, 11) == (
            n_samples, 0, want)

    def test_features_resolved_once_per_batch_at_its_exits(self, monkeypatch):
        calls = []
        feature = geometry.nearest_feature

        def recording(z, d, dist=None):
            calls.append((threading.current_thread(), z.copy(), dist.copy()))
            return feature(z, d, dist)

        monkeypatch.setattr(geometry, "nearest_feature", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        dom = self._CONSTRUCT_16
        n = 2 * potential._BATCH + 100
        eps = WosConfig().epsilon * dom.outer_radius
        ens = wos_exit_ensemble(dom, 0.0, n, WosConfig(seed=11, max_steps=40))
        assert ens.discard_count > 0  # discarded walks are never resolved
        assert len(calls) == 3
        assert sum(z.size for _, z, _ in calls) == ens.sample_count
        for _, z, dist in calls:
            # exit points only, with the distances their last step took
            assert np.all(dist < eps)
            assert dist.tobytes() == geometry.nearest_boundary(z, dom).tobytes()
        assert all(t is not threading.main_thread() for t, _, _ in calls)
        # the threads may end in any order: compare the exits as sets
        z = np.concatenate([z for _, z, _ in calls])
        assert np.array_equal(np.sort(ens.moduli), np.sort(feature(z, dom)[2]))

    @pytest.mark.parametrize("max_steps, reflect", [
        (10_000, False),
        (4, False),  # about 70% of every batch's walks are discarded
        (10_000, True)])
    def test_batch_threads_match_one_core(self, monkeypatch, max_steps, reflect):
        dom = CircleDomain.from_arrays([1.0, 2.0], [0.9, math.pi])
        n = 2 * potential._BATCH + 100
        cfg = WosConfig(seed=3, max_steps=max_steps)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a lost write shows
        try:
            # one core, three threads (more than the cores of most test
            # machines), and every usable core
            for cores in ({0}, {0, 1, 2}, set(range(potential._usable_cores()))):
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, c=cores: c, raising=False)
                runs.append(wos_exit_ensemble(dom, 0.0, n, cfg, reflect=reflect))
        finally:
            sys.setswitchinterval(interval)
        one = runs[0]
        assert one.sample_count > 0 and (one.discard_count > 0) == (max_steps == 4)
        for ens in runs[1:]:
            for a, b in zip((one.kinds, one.indices, one.moduli),
                            (ens.kinds, ens.indices, ens.moduli)):
                assert a.tobytes() == b.tobytes()
            assert ((ens.sample_count, ens.discard_count, ens.steps)
                    == (one.sample_count, one.discard_count, one.steps))

    def test_steps_count_every_distance_query(self, monkeypatch):
        points = []
        nearest = geometry.nearest_boundary

        def recording(z, d):
            points.append(z.size)
            return nearest(z, d)

        monkeypatch.setattr(geometry, "nearest_boundary", recording)
        dom = CircleDomain.from_arrays([1.0, 2.0], [0.9, math.pi])
        n = 2 * potential._BATCH + 100
        ens = wos_exit_ensemble(dom, 0.0, n, WosConfig(seed=5))
        # the interior check and the shared start query take one point
        # each; every walk's start is one step
        assert points[:2] == [1, 1]
        assert ens.steps == n + sum(points) - 2

    def test_batch_error_propagates_and_joins_threads(self, monkeypatch):
        calls = []
        nearest = geometry.nearest_boundary

        def failing(z, d):
            calls.append(threading.current_thread())
            if len(calls) == 3:  # the first walk step of one batch
                raise RuntimeError("batch failed")
            return nearest(z, d)

        monkeypatch.setattr(geometry, "nearest_boundary", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        dom = CircleDomain.from_arrays([1.0, 2.0], [0.9, math.pi])
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="batch failed"):
            wos_exit_ensemble(dom, 0.0, 4 * potential._BATCH, WosConfig(seed=5))
        assert calls[2] is not threading.main_thread()
        assert threading.active_count() == before

    def test_start_point_queried_once(self, monkeypatch):
        # every walk starts at z0, so one query serves all first steps
        sizes = []
        nearest = geometry.nearest_boundary

        def recording(z, d):
            sizes.append((z.size, bool(np.all(z == 0.25))))
            return nearest(z, d)

        monkeypatch.setattr(geometry, "nearest_boundary", recording)
        dom = CircleDomain.from_arrays([1.0, 2.0], [0.9, math.pi])
        ens = wos_exit_ensemble(dom, 0.25, potential._BATCH + 100,
                                WosConfig(seed=5))
        assert ens.sample_count == potential._BATCH + 100
        assert all(size == 1 for size, at_z0 in sizes if at_z0)

    def test_not_interior_rejected(self):
        # every comparison with NaN is false, so NaN is caught on its own
        for dom in (OffCenterDisk(0.5, 1.0), CircleDomain.disk(1.0)):
            for z0 in (2.0, complex(math.nan, 0.0), complex(0.0, math.inf)):
                with pytest.raises(geometry.NotInteriorError):
                    wos_exit_ensemble(dom, z0, 10)

    def test_no_estimate_without_walks(self):
        # one step never reaches the epsilon shell: every walk is discarded
        with pytest.raises(RuntimeError, match="no walk reached the boundary"):
            estimate_h(CircleDomain.disk(1.0), [0.5, 1.0], 0.0, 100,
                       WosConfig(max_steps=1))
        with pytest.raises(ValueError, match="n_samples"):
            estimate_h(CircleDomain.disk(1.0), [0.5, 1.0], 0.0, 0)

    def test_bad_config_rejected(self):
        # max_steps = 0 would discard every walk unseen
        for eps in (0.0, -1e-5, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon must be positive "
                                                 "and finite"):
                WosConfig(epsilon=eps)
        with pytest.raises(ValueError, match="max_steps must be at least 1"):
            WosConfig(max_steps=0)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            WosConfig(seed=-1)

    @pytest.mark.parametrize("what, radii, psis, phis", [
        ("radii not increasing", [2.0, 1.5, 1.0], [1.0, 1.0, math.pi], None),
        ("outer boundary not full circle", [1.0, 1.5, 2.0], [1.0, 1.0, 3.0], None),
        ("gate angle exceeds", [1.0, 1.5, 2.0], [1.0, 0.5, math.pi], (0.2, 0.9)),
        (r"outside \[0, pi\]", [1.0, 1.5, 2.0], [3.5, 1.0, math.pi], None)],
        ids=["decreasing", "outer", "gate", "psi"])
    def test_invalid_domain_never_reaches_estimate_h(self, what, radii, psis,
                                                     phis):
        # each of these once came back from estimate_h as an h-table
        with pytest.raises(ValueError, match=what):
            dom = CircleDomain.from_arrays(radii, psis)
            if phis is not None:
                dom = BlockedCircleDomain(dom, phis)
            estimate_h(dom, [0.5, 1.0, 1.5, 2.0], 0.0, 2000, WosConfig(seed=1))


class TestFdSolver:
    def test_disk_weights_normalized(self):
        s = FdSolver(CircleDomain.disk(2.0), n_theta=128)
        assert s.weight_sum == pytest.approx(1.0, abs=1e-10)
        assert s.outer_measure() == pytest.approx(1.0, abs=1e-10)
        assert np.all(s.weights > -1e-12)

    def test_slit_disk_richardson(self):
        dom = slit_disk(1.0, 1.5, 2.0)
        lo = FdSolver(dom, n_theta=256).gate_measures()
        hi = FdSolver(dom, n_theta=512).gate_measures()
        rich = 2 * hi - lo  # first-order accurate at the slit tip
        grid_err = float(np.abs(hi - lo).max())
        exact = np.array([exact_slit_disk_gate(1.0, 1.5, 2.0),
                          exact_slit_disk_gate(1.0, 2.0, 2.0)
                          - exact_slit_disk_gate(1.0, 1.5, 2.0)])
        assert np.abs(rich - exact).max() <= 2 * grid_err

    def test_matches_wos_on_blocked_domain(self):
        base = CircleDomain.from_arrays([1.0, 1.4, 2.0], [1.1, 0.7, math.pi])
        dom = BlockedCircleDomain(base, (0.3, 0.0))
        s = FdSolver(dom, n_theta=512)
        ens = wos_exit_ensemble(dom, 0.0, 100_000, WosConfig(seed=7))
        fm = feature_measures(ens)
        for (kind, idx), est in fm.items():
            fd_val = s.measure(kind, idx)
            assert abs(fd_val - est.value) <= 3 * est.std_error + 3e-3

    def test_h_table_monotone_and_saturates(self):
        base = CircleDomain.from_arrays([1.0, 1.4, 2.0], [1.1, 0.7, math.pi])
        s = FdSolver(base, n_theta=256)
        rs = np.linspace(0.5, 2.0, 31)
        hv = s.h_table(rs)
        assert np.all(np.diff(hv) >= -1e-12)
        assert hv[0] == 0.0
        assert hv[-1] == pytest.approx(1.0, abs=1e-10)

    def test_measure_continuous_in_psi(self):
        # the adaptive rays keep the measure continuous in the arc angle
        vals = []
        for psi in (1.0, 1.0 + 1e-3):
            s = FdSolver(CircleDomain.from_arrays([1.0, 2.0], [psi, math.pi]), 256)
            vals.append(s.arc_measures()[0])
        assert abs(vals[1] - vals[0]) < 5e-3

    # jump-ramp n = 16 inverted at resolution 256, rounded: 16 arcs about
    # 0.1 rad apart, a few filler rays between neighbours
    _JUMP_RAMP_16 = CircleDomain.from_arrays(
        [1.0 + 0.0062 * k for k in range(17)],
        [1.5131, 1.6092, 1.7045, 1.8013, 1.8992, 1.9975, 2.0959, 2.1941,
         2.2959, 2.3963, 2.4974, 2.5990, 2.7015, 2.8050, 2.9097, 3.0168,
         math.pi])

    @pytest.mark.parametrize("resolution", [128, 256])
    @pytest.mark.parametrize("name", ["circle", "jump_ramp_16"])
    def test_arc_measure_jacobian_matches_centred_differences(
            self, name, resolution):
        dom = (self._MIRROR_CASES["circle"][0] if name == "circle"
               else self._JUMP_RAMP_16)
        radii, psis = dom.radii, dom.psis

        def feature_rays(s):
            # per-interval filler counts, read as the feature ray indices
            feats = np.sort(np.append(s.domain.psis[:-1], [0.0, math.pi]))
            return np.searchsorted(s.thetas, feats)

        s = FdSolver(dom, resolution)
        jac = s.arc_measure_jacobian()
        n = dom.n_arcs
        assert jac.shape == (n, n)
        delta = 1e-7
        for k in range(n):
            sides = []
            for sign in (1.0, -1.0):
                p = psis.copy()
                p[k] += sign * delta
                s2 = FdSolver(CircleDomain.from_arrays(radii, p), resolution)
                # one count interval: the derivative is that of one grid
                assert np.array_equal(feature_rays(s2), feature_rays(s))
                sides.append(s2.arc_measures())
            central = (sides[0] - sides[1]) / (2.0 * delta)
            assert np.abs(jac[:, k] - central).max() <= 1e-5
        assert np.all(np.diag(jac) > 0.0)

    @pytest.mark.parametrize("resolution", [128, 256])
    def test_arc_measure_jacobian_across_a_count_threshold(self, resolution):
        # the gap between the rays of arcs 0 and 1 is a multiple of h, so
        # fresh grids on either side of psi_1 hold different filler counts
        # and their measures jump; at the counts frozen in between, centred
        # differences see the smooth map that the Jacobian differentiates
        dom = self._MIRROR_CASES["circle"][0]
        radii, psis = dom.radii, dom.psis.copy()
        h = 2.0 * math.pi / resolution
        psis[1] = psis[0] + math.ceil(0.5 / h) * h
        s = FdSolver(CircleDomain.from_arrays(radii, psis), resolution)
        jac = s.arc_measure_jacobian()
        delta = 1e-7
        frozen, fresh = [], []
        for sign in (1.0, -1.0):
            p = psis.copy()
            p[1] += sign * delta
            moved = CircleDomain.from_arrays(radii, p)
            frozen.append(FdSolver(moved, resolution, counts=s.counts).arc_measures())
            fresh.append(FdSolver(moved, resolution))
        assert fresh[0].counts != fresh[1].counts
        # the jump (6.5e-5 at 256) dwarfs the smooth change over 2 delta
        jump = fresh[0].arc_measures() - fresh[1].arc_measures()
        assert np.abs(jump).max() > 1e-5
        central = (frozen[0] - frozen[1]) / (2.0 * delta)
        assert np.abs(jac[:, 1] - central).max() <= 1e-5

    def test_filler_counts_freeze_and_refreeze(self):
        dom = self._JUMP_RAMP_16
        radii, psis = dom.radii, dom.psis.copy()
        h = 2.0 * math.pi / 128
        fresh = filler_counts(dom, 128)
        gaps = np.diff(np.concatenate(([0.0], psis[:-1], [math.pi])))
        assert fresh == tuple(int(c) for c in np.maximum(1, np.ceil(gaps / h)))
        # the default grid is the grid of the default counts, bit for bit
        assert np.array_equal(FdSolver(dom, 128).weights,
                              FdSolver(dom, 128, counts=fresh).weights)
        # moved psis keep frozen counts while every cell stays within 4 h
        moved = psis.copy()
        moved[:-1] += np.linspace(0.0, 0.1, 16)
        moved_dom = CircleDomain.from_arrays(radii, moved)
        assert filler_counts(moved_dom, 128) != fresh
        assert filler_counts(moved_dom, 128, fresh) == fresh
        # a gap grown past 4 h cells re-freezes to the fresh counts
        wide = psis.copy()
        wide[0] -= 7.0 * h  # its gap to psi_1: 2 cells of about 4.5 h
        wide_dom = CircleDomain.from_arrays(radii, wide)
        assert filler_counts(wide_dom, 128, fresh) == filler_counts(wide_dom, 128)
        # merged rays (every psi on one ray) change the gap count
        one_ray = CircleDomain.from_arrays(radii, np.append(np.full(16, 1.0),
                                                            math.pi))
        assert len(filler_counts(one_ray, 128, fresh)) == 2

    def test_bad_filler_counts_rejected(self):
        dom = self._MIRROR_CASES["circle"][0]
        for res in (0, -4, 7):
            with pytest.raises(ValueError, match="fd resolution must be at least"):
                filler_counts(dom, res)
        counts = FdSolver(dom, 64).counts
        for bad in (counts[:-1], counts + (1,), (0,) + counts[1:]):
            with pytest.raises(ValueError, match="one filler count >= 1"):
                FdSolver(dom, 64, counts=bad)

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            FdSolver(CircleDomain.from_arrays([2.0, 1.0], [0.5, math.pi]))

    # Values of the full-circle grid solver this half-grid solver replaced,
    # at n_theta = 256: (domain, unknowns, arc_measures, gate_measures,
    # outer_measure, h_table at _MIRROR_RADII).
    _MIRROR_RADII = (0.9, 1.2, 1.5, 1.8, 2.0)
    _MIRROR_CASES = {
        # arc 2 (half-arclength 0.01) is narrower than one grid cell
        "circle": (
            CircleDomain.from_arrays([1.0, 1.3, 1.7, 2.0],
                                     [0.9, 1.4, 0.01, math.pi]),
            14882,
            [0.44532605054266516, 0.1976539853722098, 8.511504850107174e-07],
            [],
            0.3570191129335813,
            [0.0, 0.44532605054266516, 0.6429800359148746,
             0.6429808870653596, 0.9999999999989406]),
        # gate 1 lies on the axis ray phi = 0
        "blocked": (
            BlockedCircleDomain(
                CircleDomain.from_arrays([1.0, 1.4, 2.0], [1.1, 0.7, math.pi]),
                (0.3, 0.0)),
            15001,
            [0.5732281359513192, 0.00812683545142786],
            [0.00020045217192698962, 1.5165176511576077e-05],
            0.4184294112487023,
            [0.0, 0.5733385863179652, 0.5815564055281875,
             0.5815674936837568, 0.9999999999998875]),
        "slit": (
            slit_disk(1.0, 1.5, 2.0),
            14820,
            [0.0, 0.0],
            [0.20139527127347154, 0.017560139958196393],
            0.7810445887684917,
            [0.0, 0.14908827440581848, 0.20139527127347154,
             0.21638637634871769, 1.00000000000016]),
    }

    @pytest.mark.parametrize("name", sorted(_MIRROR_CASES))
    def test_mirror_half_grid_matches_full_circle(self, name):
        dom, full_unknowns, arcs, gates, outer, h = self._MIRROR_CASES[name]
        s = FdSolver(dom, n_theta=256)
        tol = 1e-10
        assert np.abs(s.arc_measures() - arcs).max() <= tol
        assert len(s.gate_measures()) == len(gates)
        if gates:
            assert np.abs(s.gate_measures() - gates).max() <= tol
        assert abs(s.outer_measure() - outer) <= tol
        assert np.abs(s.h_table(self._MIRROR_RADII) - h).max() <= tol
        # one node per mirror pair: about half the full-circle unknowns
        assert s.thetas[0] == 0.0 and s.thetas[-1] == math.pi
        assert s.n_unknowns < 0.51 * full_unknowns
