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

from hmdf import fd, geometry, potential
from hmdf.fd import FdSolver
from hmdf.geometry import ARC, GATE, OUTER, BlockedCircleDomain, CircleDomain
from hmdf.potential import (OffCenterDisk, WosConfig, estimate_h,
                            exact_offcenter_disk_h, exact_slit_disk_gate,
                            slit_disk, wos_exit_ensemble)


class _MirroredDraws:
    """A generator whose ``random`` draws are those of ``rng`` negated."""

    def __init__(self, rng):
        self._rng = rng

    def random(self, size=None, out=None):
        draws = self._rng.random(size, out=out)
        draws *= -1
        return draws


def share(ens, kind: int, index: int) -> tuple[float, float]:
    """The fraction of the ensemble's walks that exit on one boundary
    feature, and its binomial standard error."""
    m = ens.sample_count
    p = np.count_nonzero((ens.kinds == kind) & (ens.indices == index)) / m
    return p, math.sqrt(p * (1.0 - p) / m)


def mirror_draws(monkeypatch):
    """Negate every draw of every generator that ``np.random.default_rng``
    makes from here on, so a walk's angular steps turn the other way."""
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: _MirroredDraws(default_rng(seed)))


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
        seg, seg_se = share(ens, GATE, 0)
        exact = exact_slit_disk_gate(1.0, 1.5, 2.0)
        assert abs(seg - exact) <= 3 * seg_se + 1e-3
        # exits within the shell of a slit endpoint tie-break to the point
        # arcs; their share vanishes with epsilon and belongs to the slit
        tips = share(ens, ARC, 0)[0] + share(ens, ARC, 1)[0]
        assert tips < 5e-3
        rest, rest_se = share(ens, GATE, 1)
        exact_whole = exact_slit_disk_gate(1.0, 2.0, 2.0)
        assert abs(seg + rest + tips - exact_whole) <= 3 * (seg_se + rest_se) + 1e-3

    def test_reflection_invariance_walkwise(self, monkeypatch):
        # on a symmetric domain, negating every angular draw mirrors each
        # walk exactly, so exit moduli match walk for walk
        base = CircleDomain.from_arrays([1.0, 2.0], [0.9, math.pi])
        dom = BlockedCircleDomain(base, (0.4,))
        e1 = wos_exit_ensemble(dom, 0.0, 4000, WosConfig(seed=2))
        mirror_draws(monkeypatch)
        e2 = wos_exit_ensemble(dom, 0.0, 4000, WosConfig(seed=2))
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

    def test_features_resolved_once_per_group_at_its_exits(self, monkeypatch):
        calls = []
        feature = geometry.nearest_feature

        def recording(z, d, dist):
            calls.append((threading.current_thread(), z.copy(), dist.copy()))
            return feature(z, d, dist)

        monkeypatch.setattr(geometry, "nearest_feature", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        dom = self._CONSTRUCT_16
        n = 2 * potential._BATCH + 100
        eps = WosConfig().epsilon * dom.outer_radius
        monkeypatch.setattr(potential, "_MAX_STEPS", 40)
        ens = wos_exit_ensemble(dom, 0.0, n, WosConfig(seed=11))
        assert ens.discard_count > 0  # discarded walks are never resolved
        # two threads: one steps batch 0, the other batches 1 and 2 together
        assert len(calls) == 2
        assert sum(z.size for _, z, _ in calls) == ens.sample_count
        for _, z, dist in calls:
            # exit points only, with the distances their last step took
            assert np.all(dist < eps)
            assert dist.tobytes() == geometry.nearest_boundary(z, dom).tobytes()
        assert all(t is not threading.main_thread() for t, _, _ in calls)
        # the threads may end in any order: compare the exits as sets
        z = np.concatenate([z for _, z, _ in calls])
        dist = geometry.nearest_boundary(z, dom)
        assert np.array_equal(np.sort(ens.moduli),
                              np.sort(feature(z, dom, dist)[2]))

    @staticmethod
    def _one_batch_at_a_time(dom, z0, n_samples, seed):
        """Reference walker: the batches of ``wos_exit_ensemble`` walked
        one after another, each on its own, with a full distance query per
        step and one feature query per batch."""
        eps = WosConfig().epsilon * dom.outer_radius
        parts, discards, steps = [], 0, 0
        for batch, lo in enumerate(range(0, n_samples, potential._BATCH)):
            b = min(potential._BATCH, n_samples - lo)
            rng = np.random.default_rng([seed, batch])
            z, alive = np.full(b, complex(z0)), np.arange(b)
            exit_z, exit_d = np.empty(b, dtype=complex), np.empty(b)
            done = np.zeros(b, dtype=bool)
            for _ in range(potential._MAX_STEPS):
                dist = geometry.nearest_boundary(z, dom)
                steps += z.size
                hit = dist < eps
                exit_z[alive[hit]], exit_d[alive[hit]] = z[hit], dist[hit]
                done[alive[hit]] = True
                z, alive, dist = z[~hit], alive[~hit], dist[~hit]
                if z.size == 0:
                    break
                z = z + dist * np.exp(2j * math.pi * rng.random(z.size))
            discards += alive.size
            parts.append(geometry.nearest_feature(exit_z[done], dom,
                                                  exit_d[done]))
        kinds, indices, moduli = (np.concatenate(a) for a in zip(*parts))
        return kinds, indices, moduli, discards, steps

    @pytest.mark.parametrize("max_steps", [10_000, 6])
    def test_batch_groups_match_one_batch_at_a_time(self, monkeypatch,
                                                    max_steps):
        # 14 batches of 97 walks, the last of 5: more than one round of
        # groups on 1, 2 and 3 cores, and a short last batch in a group
        monkeypatch.setattr(potential, "_BATCH", 97)
        monkeypatch.setattr(potential, "_MAX_STEPS", max_steps)
        n = 13 * 97 + 5
        dom = self._CONSTRUCT_16
        want = self._one_batch_at_a_time(dom, 0.25, n, 7)
        assert (want[3] > 0) == (max_steps == 6)
        sizes = []
        nearest = geometry.nearest_boundary

        def recording(z, d):
            sizes.append(z.size)
            return nearest(z, d)

        monkeypatch.setattr(geometry, "nearest_boundary", recording)
        for cores in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, c=cores: c, raising=False)
            sizes.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads often: a lost write shows
            try:
                ens = wos_exit_ensemble(dom, 0.25, n, WosConfig(seed=7))
            finally:
                sys.setswitchinterval(interval)
            got = (ens.kinds, ens.indices, ens.moduli)
            for a, b in zip(want[:3], got):
                assert a.tobytes() == b.tobytes()
            assert (ens.discard_count, ens.steps) == want[3:]
            assert ens.sample_count == n - ens.discard_count
            # groups share step queries, within the memory bound
            assert potential._BATCH < max(sizes) <= potential._GROUP * potential._BATCH

    @pytest.mark.parametrize("max_steps, reflect", [
        (10_000, False),
        (4, False),  # about 70% of every batch's walks are discarded
        (10_000, True)])
    def test_batch_threads_match_one_core(self, monkeypatch, max_steps, reflect):
        dom = CircleDomain.from_arrays([1.0, 2.0], [0.9, math.pi])
        n = 2 * potential._BATCH + 100
        cfg = WosConfig(seed=3)
        monkeypatch.setattr(potential, "_MAX_STEPS", max_steps)
        if reflect:
            mirror_draws(monkeypatch)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a lost write shows
        try:
            # one core, three threads (more than the cores of most test
            # machines), and every usable core
            for cores in ({0}, {0, 1, 2}, set(range(potential._usable_cores()))):
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, c=cores: c, raising=False)
                runs.append(wos_exit_ensemble(dom, 0.0, n, cfg))
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

    def test_no_estimate_without_walks(self, monkeypatch):
        # one step never reaches the epsilon shell: every walk is discarded
        monkeypatch.setattr(potential, "_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match="no walk reached the boundary: "
                                               "all 100 hit max_steps=1"):
            estimate_h(CircleDomain.disk(1.0), [0.5, 1.0], 0.0, 100)
        with pytest.raises(ValueError, match="n_samples"):
            estimate_h(CircleDomain.disk(1.0), [0.5, 1.0], 0.0, 0)

    def test_bad_config_rejected(self):
        for eps in (0.0, -1e-5, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon must be positive "
                                                 "and finite"):
                WosConfig(epsilon=eps)
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
        fd_vals = {(ARC, k): m for k, m in enumerate(s.arc_measures())}
        fd_vals.update(((GATE, k), m) for k, m in enumerate(s.gate_measures()))
        fd_vals[OUTER, len(dom.radii) - 1] = s.outer_measure()
        for (kind, idx), fd_val in fd_vals.items():
            p, se = share(ens, kind, idx)
            assert abs(fd_val - p) <= 3 * se + 3e-3

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
        n = len(dom.arcs) - 1
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
            frozen.append(FdSolver(moved, resolution, frozen=s.counts).arc_measures())
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

        def counts(d, frozen=None):
            return FdSolver(d, 128, frozen=frozen).counts

        fresh = counts(dom)
        gaps = np.diff(np.concatenate(([0.0], psis[:-1], [math.pi])))
        assert fresh == tuple(int(c) for c in np.maximum(1, np.ceil(gaps / h)))
        # a grid frozen at its own fresh counts is that grid, bit for bit
        assert np.array_equal(FdSolver(dom, 128).weights,
                              FdSolver(dom, 128, frozen=fresh).weights)
        # moved psis keep frozen counts while every cell stays within 4 h
        moved = psis.copy()
        moved[:-1] += np.linspace(0.0, 0.1, 16)
        moved_dom = CircleDomain.from_arrays(radii, moved)
        assert counts(moved_dom) != fresh
        assert counts(moved_dom, fresh) == fresh
        # a gap grown past 4 h cells re-freezes to the fresh counts
        wide = psis.copy()
        wide[0] -= 7.0 * h  # its gap to psi_1: 2 cells of about 4.5 h
        wide_dom = CircleDomain.from_arrays(radii, wide)
        assert counts(wide_dom, fresh) == counts(wide_dom)
        # merged rays (every psi on one ray) change the gap count
        one_ray = CircleDomain.from_arrays(radii, np.append(np.full(16, 1.0),
                                                            math.pi))
        assert len(counts(one_ray, fresh)) == 2

    def test_filler_counts_hold_cells_between_floor_and_cap(self):
        # gap 0 holds 8 frozen cells and gap 1 the rest of the half circle,
        # 32 h at resolution 64; a frozen count stays while every cell is
        # from h/16 to 4 h wide
        h = 2.0 * math.pi / 64

        def counts(a, frozen):
            return fd._filler_counts([0.0, a, math.pi], 64, frozen)

        assert counts(0.5 * h, (8, 8)) == (8, 8)  # cells of h/16 and 3.9 h
        assert counts(0.49 * h, (8, 8)) == (1, 32)  # a cell under h/16
        assert counts(0.5 * h, (8, 7)) == (1, 32)  # cells of 4.5 h

    def test_bad_filler_counts_rejected(self):
        dom = self._MIRROR_CASES["circle"][0]
        for res in (0, -4, 7):
            with pytest.raises(ValueError, match="fd resolution must be at least"):
                FdSolver(dom, res)
        # a frozen hint that does not fit the grid yields fresh counts
        fresh = FdSolver(dom, 64)
        counts = fresh.counts
        for bad in (counts[:-1], counts + (1,), (0,) + counts[1:]):
            s = FdSolver(dom, 64, frozen=bad)
            assert s.counts == counts
            assert s.weights.tobytes() == fresh.weights.tobytes()

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            FdSolver(CircleDomain.from_arrays([2.0, 1.0], [0.5, math.pi]))

    def test_unresolved_radius_gap_raises(self, recwarn):
        # two radii one ulp-scale apart: the weights sum to 1.075 at 64
        # and 1.14 at 512, so every measure read off them would be wrong
        dom = CircleDomain.from_arrays([1.0, 1.000000000000001, 2.0],
                                       [1.0, 2.0, math.pi])
        for resolution in (64, 512):
            with pytest.raises(RuntimeError, match="fd weights sum to 1.[01]"):
                FdSolver(dom, resolution)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        # a gap the grid still resolves passes the check
        near = CircleDomain.from_arrays([1.0, 1.0 + 1e-9, 2.0],
                                        [1.0, 2.0, math.pi])
        assert FdSolver(near, 512).weight_sum == pytest.approx(1.0, abs=1e-6)

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

    # Feature angles 1.5e-9 apart: more than the 1e-9 that merges two rays,
    # so each feature has a ray of its own, and a node on its neighbour's
    # ray would belong to two features.
    _DEGENERATE = {
        "arc ends": CircleDomain.from_arrays([1.0, 1.3, 2.0],
                                             [1.0, 1.0 + 1.5e-9, math.pi]),
        "gate at an arc end": BlockedCircleDomain(
            CircleDomain.from_arrays([1.0, 1.3, 2.0], [1.0, 1.2, math.pi]),
            (1.0 - 1.5e-9, 0.5)),
    }

    @pytest.mark.parametrize("name", sorted(_DEGENERATE))
    def test_features_on_their_own_rays(self, name):
        dom = self._DEGENERATE[name]
        s = FdSolver(dom, 64)
        # no angle here merges, so each feature ray lies at its own angle
        ring = [int(np.flatnonzero(s.rho == r)[0]) for r in dom.radii]
        ray = {a: int(np.flatnonzero(s.thetas == a)[0])
               for a in np.concatenate([dom.psis, dom.phis])}
        nodes = {(ring[-1], j) for j in range(len(s.thetas))}
        for k, psi in enumerate(dom.psis[:-1]):
            nodes |= {(ring[k], j) for j in range(ray[psi] + 1)}
        for k, phi in enumerate(dom.phis):
            nodes |= {(i, ray[phi]) for i in range(ring[k], ring[k + 1] + 1)}
        assert len(s.weights) == len(nodes)
        # every node belongs to exactly one feature
        total = (s.arc_measures().sum() + s.gate_measures().sum()
                 + s.outer_measure())
        assert abs(total - s.weight_sum) <= 1e-15

    # sha256 of the weights and of the arc-measure Jacobian at resolutions
    # 64 and 256: a point arc, the slit disk's gates on the axis, and
    # inset gates beside an axis gate.
    _GOLDEN = {
        "point arc": (
            CircleDomain.from_arrays([1.0, 1.3, 1.7, 2.0],
                                     [0.8, 0.0, 1.2, math.pi]),
            {64: ("5ae0d848f750cb7490648eadc27ba41aa8d9eaafe6305185b070b0dd65a66390",
                  "5307a797218b371f7c9cac5ae30db1eb005896ba884d0ae80ecdd4f42042055e"),
             256: ("873d75275f4c3cb133717a765cd3d4cf0222a09aef991388c908dcf1c126a8f1",
                   "7245955bdce495ce47b60ab311a1977d7b53c9a5dfd33df49bfc27ec7580acff")}),
        "slit": (
            slit_disk(1.0, 1.5, 2.0),
            {64: ("f8361f9d5f7bd94a671da209ee2d9547f23c52ac555d882d6aa6c6cbb3f4fc2d",
                  "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925"),
             256: ("cf08ce7543dc81fa6fd9afe164c319c17f3d04f71cc1097015f8280e29e15200",
                   "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925")}),
        "inset gates": (
            BlockedCircleDomain(
                CircleDomain.from_arrays([0.9, 1.2, 1.5, 1.9, 2.2],
                                         [1.3, 2.1, 0.6, 1.7, math.pi]),
                (0.9, 0.0, 0.35, 1.2)),
            {64: ("1f895a59a9a43fa9c8276661e3596c7982eebff994cd91328773cbd3eff52344",
                  "ebd9de3b72e3e69872e1950ebe5cf7b03fcd4a3647d684aece2ce202f6ed74f3"),
             256: ("3bcab74047442ee24ea6cb8d85c826670b431885714466d212ac76af1cf520ff",
                   "000d014e3c13814c129429ab411b1dab038cf7392730ac2825d6596bc4070429")}),
    }

    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_golden_weights_and_jacobian(self, name):
        """Pins the weights and the Jacobian bit for bit (x86-64, NumPy
        2.4, SciPy 1.17), so a rewrite of the assembly must give the same
        matrices to the last bit."""
        dom, want = self._GOLDEN[name]
        for resolution, digests in want.items():
            s = FdSolver(dom, resolution)
            assert (hashlib.sha256(s.weights.tobytes()).hexdigest(),
                    hashlib.sha256(s.arc_measure_jacobian().tobytes()).hexdigest()
                    ) == digests, resolution

    def _golden_digest(self):
        """sha256 of the weights, the arc, gate and outer measures, the
        h-table at ``_MIRROR_RADII`` and the arc-measure Jacobian of the
        mirror cases and jump-ramp n = 16 at resolutions 64 and 256."""
        digest = hashlib.sha256()
        doms = [self._MIRROR_CASES[name][0] for name in sorted(self._MIRROR_CASES)]
        for dom in doms + [self._JUMP_RAMP_16]:
            for resolution in (64, 256):
                s = FdSolver(dom, resolution)
                for a in (s.weights, s.arc_measures(), s.gate_measures(),
                          [s.outer_measure()], s.h_table(self._MIRROR_RADII),
                          s.arc_measure_jacobian()):
                    digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
        return digest.hexdigest()

    def test_golden_outputs(self):
        """Pins every FD output bit for bit (x86-64, NumPy 2.4): any
        change to a node's feature or weight shows up here."""
        assert self._golden_digest() == (
            "5a140be8c5ecf401c5c9da483bd4339d6b6f23c5b128f001ee4cdc24b864768c")
