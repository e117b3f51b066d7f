"""Deterministic Dirichlet solver on an adaptive polar grid.

The solver discretizes the Laplacian in polar coordinates on a tensor-ish
grid whose angular rays pass exactly through every arc endpoint and gate
angle, and whose rings pass exactly through every arc radius.  Each gap
between two feature rays is cut into a filler count of equal cells,
ceil(gap / h) by default, h = 2 pi / n_theta.  At fixed counts every ray,
and the measure of each arc, moves smoothly with the feature angles; when
a gap crosses a multiple of h its default count changes and the measure
jumps (by up to 1.8e-3 at n_theta = 256 on a 32-arc domain).  So
``FdSolver`` takes the counts of an earlier grid as its ``frozen`` hint
and keeps them while they fit, which freezes them for an inversion, and
``FdSolver.arc_measure_jacobian`` is the exact derivative of the measures
at the counts of the grid solved.

Every circle-type domain is symmetric about the real axis, and so is the
harmonic measure at the origin.  The grid therefore covers only the mirror
half theta in [0, pi]: the theta-neighbours of the axis rays 0 and pi
reflect back onto the half-grid, and the origin's circle mean counts each
off-axis ray twice.  This halves the unknowns of the full circle.

The five-point stencil is assembled once, as one sparse matrix K with a
row per unknown (the interior nodes in C order, then the origin) and a
column per grid node, ring by ring, then the origin.  Its columns split
it into the half-grid interior system A u_int + B u_dir = 0: A holds the
unknowns' columns and B the Dirichlet nodes'.  Harmonic measure of every
boundary feature at the origin is read off a single adjoint solve: the
vector w = -B^T A^{-T} e_origin holds one nonnegative weight per
Dirichlet node -- the full-circle weight of that node plus that of its
mirror image off the axis -- and the measure of any feature is the sum of
its nodes' weights.  Each Dirichlet node carries the flat feature id of
``geometry.nearest_feature``: arc k is k, gate k is n + k and the outer
circle n + g, for n proper arcs and g gates.  A node two features share
goes to the arc or the outer circle over a gate, and to the lower of two
gates.  So the outer-ring node on the last gate's ray counts for the outer
circle, where ``nearest_feature`` gives that tie to the gate; moving it
would move the gate and outer measures.

A has the sparsity pattern of a symmetric matrix (every stencil link runs
both ways, the origin and ring 0 included), and with its interior rows
negated it is an M-matrix: positive diagonal, nonpositive off-diagonal,
diagonally dominant.  Gaussian elimination on such a matrix needs no
pivoting, so SuperLU factors it in symmetric mode -- a minimum-degree
order of A^T + A and diagonal pivots -- which gives the same weights as
the partial-pivoting default to rounding, with less than half the fill.
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from . import geometry

__all__ = ["FdSolver", "MIN_N_THETA"]

_MERGE = 1e-9   # rays closer than this are merged
MIN_N_THETA = 8  # coarsest usable angular resolution
# Narrowest and widest cell, in grid steps h, under a frozen count.  With
# cells held to [h/2, 3h/2], [h/4, 4h] or [0, 2h] instead, jump-ramp
# n = 64 at 512 stalls at 3.8e-3; with no floor, a gap can close under its
# count until the weights no longer sum to 1.
_MIN_CELL, _MAX_CELL = 1.0 / 16.0, 4.0
# The harmonic measure of the whole boundary is 1.  The weights sum to 1
# within 1e-12 on well-spaced grids; their error grows as two radii close
# in (0.14 at a gap of 1e-15), so a larger error means a degenerate grid.
_WEIGHT_SUM_TOL = 1e-6


def _feature_rays(d) -> list[float]:
    """The sorted feature rays on [0, pi]: the axis rays, every arc
    endpoint and gate angle, with rays closer than ``_MERGE`` merged."""
    # a valid domain has every inner psi and every phi in [0, pi)
    pos = sorted({0.0, math.pi, *d.psis[:-1].tolist(), *d.phis.tolist()})
    merged = [pos[0]]
    for a in pos[1:]:
        if a - merged[-1] > _MERGE:
            merged.append(a)
    return merged


def _filler_counts(merged, n_theta: int, frozen) -> tuple[int, ...]:
    """The cell count of each gap between the feature rays ``merged``: the
    ``frozen`` counts while they fit (no feature rays merged or separated,
    every cell from ``_MIN_CELL`` h to ``_MAX_CELL`` h wide), else the
    fresh ceil(gap / h)."""
    gaps = np.diff(merged)
    h = 2.0 * math.pi / n_theta
    if frozen is not None and len(frozen) == len(gaps):
        counts = np.asarray(frozen)
        if np.all((_MIN_CELL * h * counts <= gaps)
                  & (gaps <= _MAX_CELL * h * counts)):
            return tuple(frozen)
    return tuple(max(1, math.ceil(g / h)) for g in gaps)


def _angular_rays(d, n_theta: int, frozen):
    """Half-circle angle list on [0, pi]: the feature rays plus even
    filler, ``counts[i]`` cells in gap i, with the counts of
    ``_filler_counts``.

    Returns the angles, per ray its fraction t along the interval between
    the feature rays around it (t = 0 on them), the counts, and the ray
    index of every psi and every phi: that of the feature ray it merged
    into, the last one at or below it."""
    merged = _feature_rays(d)
    counts = _filler_counts(merged, n_theta, frozen)
    out, t = [], []
    for a, b, n_sub in zip(merged, merged[1:], counts):
        for s in range(n_sub):
            out.append(a + (b - a) * s / n_sub)
            t.append(s / n_sub)
    out.append(math.pi)
    t.append(0.0)
    first = np.cumsum((0,) + counts)  # ray index of each feature ray
    psi_ray, phi_ray = (first[np.searchsorted(merged, a, side="right") - 1]
                        for a in (d.psis, d.phis))
    return np.array(out), np.array(t), counts, psi_ray, phi_ray


def _ring_radii(d, n_theta: int):
    """Log-spaced rings through every arc radius, with an inner ring band
    from half the first radius (the origin closes the disk below it).

    Returns the radii and the ring index of every arc radius; at least two
    rings lie below the first."""
    radii = d.radii
    h = 2.0 * math.pi / n_theta
    knots = [0.5 * radii[0]] + [float(r) for r in radii]
    out, ring_of = [], []
    for a, b in zip(knots, knots[1:]):
        n_sub = max(2, math.ceil(math.log(b / a) / h))
        for s in range(n_sub):
            out.append(a * (b / a) ** (s / n_sub))
        ring_of.append(len(out))
    out.append(knots[-1])
    return np.array(out), np.array(ring_of)


class FdSolver:
    """Finite-difference harmonic measure of a circle-type domain at 0.

    One construction performs one sparse factorization and one adjoint
    solve on the mirror half-grid theta in [0, pi]; afterwards every
    feature measure and cumulative measure is a cheap array reduction.
    The factorization and the adjoint vector are kept, so
    ``arc_measure_jacobian`` costs one more solve, with one right-hand
    side per arc, on demand.  ``weights`` holds one entry per half-grid
    Dirichlet node: the sum of the full-circle weights of the node and its
    mirror image (just its own weight on the axis rays 0 and pi), so
    feature sums and ``weight_sum`` cover the whole boundary; a feature's
    measure sums the nodes labelled with its flat id (module docstring).
    ``self.counts`` holds the cell count of each gap between feature rays:
    the ``frozen`` counts (an earlier solver's ``counts``) while they fit,
    else the fresh ceil(gap / h).  ``seconds`` times the build's layers,
    ``label``, ``factor`` (``splu``), ``solve`` (the adjoint solve) and
    ``assemble`` (the rest), and ``lu_nnz`` is L + U's ``SuperLU.nnz``.
    Raises ValueError for an ``n_theta`` below ``MIN_N_THETA``, and
    RuntimeError when the weights do not sum to 1 within
    ``_WEIGHT_SUM_TOL``, as on rings too close to resolve.
    """

    def __init__(self, dom: geometry.Domain, n_theta: int = 512, frozen=None):
        if int(n_theta) < MIN_N_THETA:
            raise ValueError(f"fd resolution must be at least {MIN_N_THETA}, "
                             f"got {n_theta}")
        t0 = time.perf_counter()
        self.n_theta = int(n_theta)
        self.domain = dom
        self._psis = dom.psis
        self.thetas, self._ray_t, self.counts, self._psi_ray, phi_ray = (
            _angular_rays(dom, self.n_theta, frozen))
        self.rho, ring_of = _ring_radii(dom, self.n_theta)
        t = time.perf_counter()
        feature = self._label(ring_of, phi_ray)
        sec = self.seconds = {"label": time.perf_counter() - t}
        self._assemble_and_solve(feature)
        sec["assemble"] = time.perf_counter() - t0 - sum(sec.values())

    # -- grid labeling ----------------------------------------------------

    def _label(self, ring_of, phi_ray) -> np.ndarray:
        """The (ring, ray) grid of flat feature ids, -1 off the boundary:
        each arc on its ring from ray 0 to its psi's ray, each gate on its
        phi's ray from its inner arc's ring to its outer one's, and the
        outer circle on the last ring."""
        n, g = len(ring_of) - 1, len(phi_ray)
        feature = np.full((len(self.rho), len(self.thetas)), -1)
        # gates first, the lower overwriting the upper on a shared node;
        # arcs and the outer circle overwrite gates on their corner nodes
        for k in reversed(range(g)):
            feature[ring_of[k]:ring_of[k + 1] + 1, phi_ray[k]] = n + k
        for k in range(n):
            if self._psis[k] > 0.0:  # a point arc has capacity zero
                feature[ring_of[k], :self._psi_ray[k] + 1] = k
        feature[-1] = n + g
        return feature

    # -- assembly and the adjoint solve -----------------------------------

    def _assemble_and_solve(self, feature: np.ndarray) -> None:
        rho, thetas = self.rho, self.thetas
        nr, N = len(rho), len(thetas)
        is_dir = feature >= 0
        n_unk = int((~is_dir).sum()) + 1  # the interior nodes, then the origin
        origin = n_unk - 1
        uid = np.full((nr, N), -1, dtype=np.int64)
        uid[~is_dir] = np.arange(origin)
        did = np.full((nr, N), -1, dtype=np.int64)
        did[is_dir] = np.arange(is_dir.sum())

        h_m = np.empty(nr - 1)
        h_m[0] = rho[0]
        h_m[1:] = rho[1:nr - 1] - rho[:nr - 2]
        h_p = rho[1:] - rho[:-1]
        # the theta-neighbours of the axis rays 0 and pi reflect onto
        # rays 1 and N-2, the mirror images of rays -1 and N
        gap = np.diff(thetas)
        g_m = np.concatenate([gap[:1], gap])
        g_p = np.concatenate([gap, gap[-1:]])
        left = np.concatenate([[1], np.arange(N - 1)])
        right = np.concatenate([np.arange(1, N), [N - 2]])
        self._g_m, self._g_p = g_m, g_p
        s_in, s_out, s_ctr = self._s = (2.0 / (g_m * (g_m + g_p)),
                                        2.0 / (g_p * (g_m + g_p)),
                                        -2.0 / (g_m * g_p))

        r = rho[:nr - 1][:, None]
        hm = h_m[:, None]
        hp = h_p[:nr - 1][:, None]
        # Rings closer than rounding make these coefficients infinite; the
        # weight-sum check below reports such a grid.
        with np.errstate(divide="ignore", invalid="ignore"):
            D = hm * hp * (hm + hp)
            c_in = np.broadcast_to(hp * (2.0 - hp / r) / D, (nr - 1, N))
            c_out = np.broadcast_to(hm * (2.0 + hm / r) / D, (nr - 1, N))
            c_ctr = (-2.0 * (hm + hp) + (hp * hp - hm * hm) / r) / D
            r2 = r * r
            a_in = s_in[None, :] / r2
            a_out = s_out[None, :] / r2
            a_ctr = s_ctr[None, :] / r2

        # One stencil K, a row per unknown and a column per grid node (ring
        # by ring) and the origin: its unknown columns are A, its Dirichlet
        # ones B.  The left and right links of an axis ray meet on one node.
        I, J = np.nonzero(~is_dir[:nr - 1])
        node, o_col = I * N + J, nr * N
        cols = [node,
                np.where(I > 0, node - N, o_col),  # inward: the origin for ring 0
                node + N, I * N + left[J], I * N + right[J]]
        vals = [(c_ctr + a_ctr)[I, J], c_in[I, J], c_out[I, J], a_in[I, J],
                a_out[I, J]]
        rows = [uid[I, J]] * len(cols)
        # origin closure: the exact circle mean over the innermost ring,
        # each off-axis ray standing for itself and its mirror image
        mult = np.full(N, 2.0)
        mult[[0, -1]] = 1.0
        cell = 0.5 * (g_m + g_p)
        rows.append(np.full(N + 1, origin))
        cols.append(np.append(o_col, np.arange(N)))
        vals.append(np.append(1.0, -mult * cell / (2.0 * math.pi)))
        K = coo_matrix((np.concatenate(vals),
                        (np.concatenate(rows), np.concatenate(cols))),
                       shape=(n_unk, o_col + 1)).tocsc()
        A = K[:, np.append(np.flatnonzero(~is_dir), o_col)]
        B = K[:, np.flatnonzero(is_dir)]

        # Negating the interior rows makes A an M-matrix, so diagonal
        # pivots are stable and the symmetric pattern can be ordered as one.
        e0 = np.zeros(n_unk)
        e0[origin] = 1.0
        t = time.perf_counter()
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                  options=dict(SymmetricMode=True))
        t1 = time.perf_counter()
        y = lu.solve(e0, trans="T")
        self.seconds.update(factor=t1 - t, solve=time.perf_counter() - t1)
        w = -(B.T @ y)
        self._lu, self._y, self._B, self._mult = lu, y, B, mult
        self.lu_nnz = lu.nnz

        # Dirichlet node ids number the mask in C order, as masking does
        self._node_feature = feature[is_dir]
        self.dir_radius = rho[np.nonzero(is_dir)[0]]
        self.weights = w
        self.weight_sum = float(w.sum())
        if not abs(self.weight_sum - 1.0) <= _WEIGHT_SUM_TOL:  # NaN too
            raise RuntimeError(
                f"fd weights sum to {self.weight_sum!r}, not 1: the grid "
                f"cannot resolve this domain (radii too close?)")
        self.n_unknowns = n_unk
        self._uid, self._did = uid, did
        # every id up to the outer circle's n + g, the largest, is counted
        self._measures = np.bincount(self._node_feature, weights=w)
        self._measures.flags.writeable = False

    # -- measure queries --------------------------------------------------

    def arc_measures(self) -> np.ndarray:
        """Per-arc measures for the proper arcs 0..n-1 (capacity-zero arcs
        report 0)."""
        return self._measures[:len(self._psis) - 1]

    def gate_measures(self) -> np.ndarray:
        return self._measures[len(self._psis) - 1:-1]

    def outer_measure(self) -> float:
        return float(self._measures[-1])

    def h_table(self, radii) -> np.ndarray:
        """h(r) = measure of the boundary within the closed ball of each
        radius, from the node moduli."""
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if not np.isfinite(radii).all():
            raise ValueError("evaluation radii must be finite")
        order = np.argsort(self.dir_radius)
        rs = self.dir_radius[order]
        cw = np.cumsum(self.weights[order])
        pos = np.searchsorted(rs, radii * (1.0 + 1e-12), side="right")
        return np.where(pos > 0, cw[np.maximum(pos - 1, 0)], 0.0)

    def arc_measure_jacobian(self) -> np.ndarray:
        """Exact derivative of ``arc_measures()`` with respect to the
        half-arclengths of the proper arcs, as an (n, n) array with entry
        [i, k] = d m_i / d psi_k, at fixed filler-ray counts.

        Moving psi_k moves its own ray with speed 1 and the filler rays of
        its two adjacent intervals with their fractions along them.  Arcs
        whose psis coincide share one ray, so each of their columns is the
        joint derivative for moving that ray, and the columns are equal
        (the Jacobian is singular there).  Only the angular coefficients
        depend on the rays, so with w = -B^T y and A^T y = e_origin, dw =
        -dB^T y + B^T A^{-T} (dA^T y): one transposed solve with n
        right-hand sides on the factorization already in hand.
        """
        psis, t = self._psis[:-1], self._ray_t
        # ray j lies at fraction t[j] between feature rays q[j] and q[j] + 1
        feat_ray = np.flatnonzero(t == 0.0)
        q = np.cumsum(t == 0.0) - 1
        qk = q[self._psi_ray[:-1]]
        moves = (psis > 0.0) & (qk > 0) & (qk < len(feat_ray) - 1)
        # v[k, j] = d theta_j / d psi_k; derivatives below are (n, rays)
        v = (np.where(q == qk[:, None], 1.0 - t, 0.0)
             + np.where(q + 1 == qk[:, None], t, 0.0)) * moves[:, None]
        dgap = np.diff(v, axis=1)
        dg_m = np.concatenate([dgap[:, :1], dgap], axis=1)
        dg_p = np.concatenate([dgap, dgap[:, -1:]], axis=1)
        g_m, g_p, (s_in, s_out, s_ctr) = self._g_m, self._g_p, self._s
        ds = (dg_m + dg_p) / (g_m + g_p)
        # d a_in, d a_out, d a_ctr per unit 1/r^2 (Y below carries it):
        # each coefficient times its logarithmic derivative
        d_in = -s_in * (dg_m / g_m + ds)
        d_out = -s_out * (dg_p / g_p + ds)
        d_ctr = -s_ctr * (dg_m / g_m + dg_p / g_p)

        # T_k[i, c] = sum_r dM_k[r, (i, c)] y_r over the rows r of the
        # full system [A B]: the angular stencil of ring i scatters onto
        # rays left[j] and right[j] (rays 1 and N-2 for the axis rays).
        # It vanishes outside rays lo-1..hi+1, where lo and hi are the
        # feature rays next to psi_k's own.
        nr, N = len(self.rho), len(self.thetas)
        uid, did = self._uid[:nr - 1], self._did[:nr - 1]
        inner = uid >= 0
        Y = np.where(inner, self._y[uid], 0.0) / self.rho[:nr - 1, None] ** 2
        y0 = self._y[-1] / (4.0 * math.pi)
        R = np.zeros((self.n_unknowns, len(psis)), order="F")
        D = np.zeros((len(self.weights), len(psis)))
        for k in np.flatnonzero(moves):
            a = max(feat_ray[qk[k] - 1] - 1, 0)
            b = min(feat_ray[qk[k] + 1] + 2, N)
            Yw, d_in_w, d_out_w = Y[:, a:b], d_in[k, a:b], d_out[k, a:b]
            Tk = d_ctr[k, a:b] * Yw
            Tk[:, :-1] += d_in_w[1:] * Yw[:, 1:]
            Tk[:, 1:] += d_out_w[:-1] * Yw[:, :-1]
            if a == 0:
                Tk[:, 1] += d_in_w[0] * Yw[:, 0]
            if b == N:
                Tk[:, -2] += d_out_w[-1] * Yw[:, -1]
            # the origin row's circle mean weights the cell (g_m + g_p) / 2
            Tk[0] -= y0 * self._mult[a:b] * (dg_m[k, a:b] + dg_p[k, a:b])
            win = inner[:, a:b]
            R[uid[:, a:b][win], k] = Tk[win]
            D[did[:, a:b][~win], k] = Tk[~win]
        dw = self._B.T @ self._lu.solve(R, trans="T") - D
        arc = self._node_feature < len(psis)
        jac = np.zeros((len(psis), len(psis)))
        np.add.at(jac, self._node_feature[arc], dw[arc])
        return jac
