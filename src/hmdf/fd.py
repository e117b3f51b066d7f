"""Deterministic Dirichlet solver on an adaptive polar grid.

The solver discretizes the Laplacian in polar coordinates on a tensor-ish
grid whose angular rays pass exactly through every arc endpoint and gate
angle, and whose rings pass exactly through every arc radius.  Between two
feature rays sit ceil(gap / h) - 1 evenly spaced filler rays, h = 2 pi /
n_theta.  While those counts stay fixed, every ray moves smoothly with the
feature angles and so does the computed harmonic measure of each arc; when
a gap crosses a multiple of h its count changes and every filler ray of
the interval jumps, and so does the measure (by up to 1.8e-3 at n_theta =
256 on a 32-arc domain).  ``FdSolver.arc_measure_jacobian`` is the exact
derivative of the measures at fixed counts, the derivative of the grid
map actually solved, and ``count_cell`` bounds the changes of the arcs
over which the counts stay fixed.

Every circle-type domain is symmetric about the real axis, and so is the
harmonic measure at the origin.  The grid therefore covers only the mirror
half theta in [0, pi]: the theta-neighbours of the axis rays 0 and pi
reflect back onto the half-grid, and the origin's circle mean counts each
off-axis ray twice.  This halves the unknowns of the full circle.

Harmonic measure of every boundary feature at the origin is read off a
single adjoint solve: if A u_int + B u_dir = 0 is the half-grid interior
system, the vector w = -B^T A^{-T} e_origin holds one nonnegative weight
per Dirichlet node -- the full-circle weight of that node plus that of its
mirror image off the axis -- and the measure of any feature is the sum of
its nodes' weights.

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

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from . import geometry
from .geometry import ARC, GATE, KINDS, OUTER

__all__ = ["FdSolver", "MIN_N_THETA", "count_cell"]

_MERGE = 1e-9   # rays closer than this are merged
_MATCH = 2e-9   # membership tolerance against merged rays / rings
MIN_N_THETA = 8  # coarsest usable angular resolution


def _angular_rays(d, n_theta: int):
    """Half-circle angle list on [0, pi]: the required feature rays plus
    uniform filler to spacing <= 2*pi/n_theta.

    Returns the angles and, per ray, its fraction t along the interval
    between the feature rays around it (t = 0 on the feature rays)."""
    req = {0.0, math.pi}
    for a in (*d.psis[:-1], *d.phis):
        if 0.0 < a < math.pi:
            req.add(float(a))
    pos = sorted(req)
    merged = [pos[0]]
    for a in pos[1:]:
        if a - merged[-1] > _MERGE:
            merged.append(a)
    h = 2.0 * math.pi / n_theta
    out, t = [], []
    for a, b in zip(merged, merged[1:]):
        n_sub = max(1, math.ceil((b - a) / h))
        for s in range(n_sub):
            out.append(a + (b - a) * s / n_sub)
            t.append(s / n_sub)
    out.append(math.pi)
    t.append(0.0)
    return np.array(out), np.array(t)


def count_cell(psis, n_theta: int):
    """The smooth piece of a circle domain's measure map around ``psis``
    (its half-arclengths, without the outer circle's): ``_angular_rays``
    keeps every filler-ray count for a change ``s`` of them when
    ``lo < D @ s <= hi``, where row i of ``D`` is the derivative of the
    i-th gap between consecutive feature rays (0, sorted psis, pi).
    Returns ``(D, lo, hi)``."""
    n = len(psis)
    order = np.argsort(psis)
    D = (np.eye(n + 1, n) - np.eye(n + 1, n, -1)) @ np.eye(n)[order]
    gaps = np.diff(np.concatenate(([0.0], psis[order], [math.pi])))
    h = 2.0 * math.pi / n_theta
    count = np.maximum(1, np.ceil(gaps / h))
    return D, (count - 1) * h - gaps, count * h - gaps


def _ring_radii(d, n_theta: int) -> np.ndarray:
    """Log-spaced rings through every arc radius, with an inner ring band
    from half the first radius (the origin closes the disk below it)."""
    radii = d.radii
    h = 2.0 * math.pi / n_theta
    knots = [0.5 * radii[0]] + [float(r) for r in radii]
    out = []
    for a, b in zip(knots, knots[1:]):
        n_sub = max(2, math.ceil(math.log(b / a) / h))
        for s in range(n_sub):
            out.append(a * (b / a) ** (s / n_sub))
    out.append(knots[-1])
    return np.array(out)


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
    feature sums and ``weight_sum`` cover the whole boundary.
    """

    def __init__(self, dom: geometry.Domain, n_theta: int = 512):
        self.n_theta = int(n_theta)
        if self.n_theta < MIN_N_THETA:
            raise ValueError(f"fd resolution must be at least {MIN_N_THETA}, "
                             f"got {n_theta}")
        geometry.check_usable(dom)
        self.domain = dom
        self._radii = dom.radii
        self._psis = dom.psis
        self._phis = dom.phis
        self.thetas, self._ray_t = _angular_rays(dom, self.n_theta)
        self.rho = _ring_radii(dom, self.n_theta)
        self._label()
        self._assemble_and_solve()

    # -- grid labeling ----------------------------------------------------

    def _ring_index(self, r: float) -> int:
        i = int(np.argmin(np.abs(self.rho - r)))
        if abs(self.rho[i] - r) > _MATCH * max(1.0, r):
            raise RuntimeError(f"arc radius {r} missing from ring set")
        return i

    def _label(self) -> None:
        nr, N = len(self.rho), len(self.thetas)
        kind = np.full((nr, N), -1, dtype=np.int8)
        idx = np.full((nr, N), -1, dtype=np.int64)
        # gates first; arcs overwrite them so shared corner nodes count as
        # arc nodes, matching the arcs-before-gates tie rule.
        for k in range(len(self._phis)):
            on_ray = np.abs(self.thetas - self._phis[k]) <= _MATCH
            i0 = self._ring_index(self._radii[k])
            i1 = self._ring_index(self._radii[k + 1])
            block = np.ix_(np.arange(i0, i1 + 1), np.nonzero(on_ray)[0])
            fresh = kind[block] == -1
            kind[block] = np.where(fresh, np.int8(GATE), kind[block])
            idx[block] = np.where(fresh, k, idx[block])
        for k in range(len(self._radii) - 1):
            psi = self._psis[k]
            if psi <= 0.0:
                continue  # capacity-zero point arc
            i = self._ring_index(self._radii[k])
            on = self.thetas <= psi + _MATCH
            kind[i, on] = ARC
            idx[i, on] = k
        kind[-1, :] = OUTER
        idx[-1, :] = len(self._radii) - 1
        self._kind = kind
        self._idx = idx

    # -- assembly and the adjoint solve -----------------------------------

    def _assemble_and_solve(self) -> None:
        rho, thetas = self.rho, self.thetas
        nr, N = len(rho), len(thetas)
        is_dir = self._kind >= 0
        if is_dir[0].any():
            raise RuntimeError("innermost ring must not touch the boundary")

        uid = np.full((nr, N), -1, dtype=np.int64)
        uid[~is_dir] = np.arange((~is_dir).sum())
        n_int = int((~is_dir).sum())
        origin = n_int
        n_unk = n_int + 1
        did = np.full((nr, N), -1, dtype=np.int64)
        did[is_dir] = np.arange(is_dir.sum())
        n_dir = int(is_dir.sum())

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

        r = rho[:nr - 1][:, None]
        hm = h_m[:, None]
        hp = h_p[:nr - 1][:, None]
        D = hm * hp * (hm + hp)
        c_in = np.broadcast_to(hp * (2.0 - hp / r) / D, (nr - 1, N))
        c_out = np.broadcast_to(hm * (2.0 + hm / r) / D, (nr - 1, N))
        c_ctr = (-2.0 * (hm + hp) + (hp * hp - hm * hm) / r) / D
        r2 = r * r
        a_in = 2.0 / (g_m * (g_m + g_p))[None, :] / r2
        a_out = 2.0 / (g_p * (g_m + g_p))[None, :] / r2
        a_ctr = -2.0 / (g_m * g_p)[None, :] / r2

        I, J = np.nonzero(~is_dir[:nr - 1])
        row = uid[I, J]
        a_rows, a_cols, a_vals = [row], [row], [(c_ctr + a_ctr)[I, J]]
        b_rows, b_cols, b_vals = [], [], []

        def _push(rows, ni, nj, coeff):
            d_mask = is_dir[ni, nj]
            a_rows.append(rows[~d_mask])
            a_cols.append(uid[ni[~d_mask], nj[~d_mask]])
            a_vals.append(coeff[~d_mask])
            b_rows.append(rows[d_mask])
            b_cols.append(did[ni[d_mask], nj[d_mask]])
            b_vals.append(coeff[d_mask])

        # radial inward: origin for ring 0, ring i-1 otherwise
        inner = I == 0
        a_rows.append(row[inner])
        a_cols.append(np.full(inner.sum(), origin))
        a_vals.append(c_in[I[inner], J[inner]])
        _push(row[~inner], I[~inner] - 1, J[~inner], c_in[I[~inner], J[~inner]])
        _push(row, I + 1, J, c_out[I, J])
        _push(row, I, left[J], a_in[I, J])
        _push(row, I, right[J], a_out[I, J])

        # origin closure: the exact circle mean over the innermost ring,
        # each off-axis ray standing for itself and its mirror image
        a_rows.append(np.full(N + 1, origin))
        a_cols.append(np.concatenate([[origin], uid[0]]))
        mult = np.full(N, 2.0)
        mult[[0, -1]] = 1.0
        cell = 0.5 * (g_m + g_p)
        a_vals.append(np.concatenate([[1.0], -mult * cell / (2.0 * math.pi)]))

        A = coo_matrix((np.concatenate(a_vals),
                        (np.concatenate(a_rows), np.concatenate(a_cols))),
                       shape=(n_unk, n_unk)).tocsc()
        B = coo_matrix((np.concatenate(b_vals),
                        (np.concatenate(b_rows), np.concatenate(b_cols))),
                       shape=(n_unk, n_dir)).tocsr()

        # Negating the interior rows makes A an M-matrix, so diagonal
        # pivots are stable and the symmetric pattern can be ordered as one.
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                  options=dict(SymmetricMode=True))
        e0 = np.zeros(n_unk)
        e0[origin] = 1.0
        y = lu.solve(e0, trans="T")
        w = -(B.T @ y)
        self._lu, self._y, self._B, self._mult = lu, y, B, mult

        di, dj = np.nonzero(is_dir)
        order = did[di, dj]
        self.dir_kind = np.empty(n_dir, dtype=np.int8)
        self.dir_index = np.empty(n_dir, dtype=np.int64)
        self.dir_radius = np.empty(n_dir)
        self.dir_kind[order] = self._kind[di, dj]
        self.dir_index[order] = self._idx[di, dj]
        self.dir_radius[order] = rho[di]
        self.weights = w
        self.weight_sum = float(w.sum())
        self.n_unknowns = n_unk
        self._uid, self._did = uid, did

    # -- measure queries --------------------------------------------------

    def _measures(self, code: int) -> np.ndarray:
        """Measure of every feature of one kind code, by feature index
        (0..n, long enough for arcs, gates and the outer circle)."""
        out = np.zeros(len(self._radii))
        sel = self.dir_kind == code
        np.add.at(out, self.dir_index[sel], self.weights[sel])
        return out

    def measure(self, kind: str, index: int) -> float:
        """Harmonic measure at 0 of one boundary feature."""
        return float(self._measures(KINDS.index(kind))[index])

    def arc_measures(self) -> np.ndarray:
        """Per-arc measures for the proper arcs 0..n-1 (capacity-zero arcs
        report 0)."""
        return self._measures(ARC)[:-1]

    def gate_measures(self) -> np.ndarray:
        return self._measures(GATE)[:len(self._phis)]

    def outer_measure(self) -> float:
        return float(self._measures(OUTER)[-1])

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
        qk = np.argmin(np.abs(self.thetas[feat_ray] - psis[:, None]), axis=1)
        moves = (psis > 0.0) & (qk > 0) & (qk < len(feat_ray) - 1)
        # v[k, j] = d theta_j / d psi_k; derivatives below are (n, rays)
        v = (np.where(q == qk[:, None], 1.0 - t, 0.0)
             + np.where(q + 1 == qk[:, None], t, 0.0)) * moves[:, None]
        dgap = np.diff(v, axis=1)
        dg_m = np.concatenate([dgap[:, :1], dgap], axis=1)
        dg_p = np.concatenate([dgap, dgap[:, -1:]], axis=1)
        g_m, g_p = self._g_m, self._g_p
        ds = (dg_m + dg_p) / (g_m + g_p)
        # d a_in, d a_out, d a_ctr per unit 1/r^2 (Y below carries it):
        # each coefficient times its logarithmic derivative
        d_in = -2.0 / (g_m * (g_m + g_p)) * (dg_m / g_m + ds)
        d_out = -2.0 / (g_p * (g_m + g_p)) * (dg_p / g_p + ds)
        d_ctr = 2.0 / (g_m * g_p) * (dg_m / g_m + dg_p / g_p)

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
        out = np.zeros((len(self._radii), len(psis)))
        sel = self.dir_kind == ARC
        np.add.at(out, self.dir_index[sel], dw[sel])
        return out[:-1]
