#!/usr/bin/env python3
"""Cross-validate the three harmonic-measure engines against each other.

Off-center disk: Monte Carlo h-function against the conformal closed form.
Slit disk: Monte Carlo, the grid solver (Richardson-extrapolated from two
resolutions), and the closed form, pairwise.
"""
import argparse

import numpy as np

from hmdf import geometry
from hmdf.fd import FdSolver
from hmdf.potential import (OffCenterDisk, WosConfig, estimate_h,
                            exact_offcenter_disk_h, exact_slit_disk_gate,
                            slit_disk, wos_exit_ensemble)


def triangle(samples: int, seed: int):
    """The engines' numbers with ``samples`` walks per domain (seeds
    ``seed`` and ``seed + 1``): rows (r, Monte Carlo h, closed form, SE)
    on the off-center disk B(0.5, 1); rows (Monte Carlo, Richardson grid,
    closed form, SE) on the slit's halves [1, 1.5] and [1.5, 2]; and the
    grid error, the largest change from resolution 256 to 512."""
    tab = estimate_h(OffCenterDisk(0.5, 1.0), [0.55, 0.8, 1.0, 1.2, 1.45],
                     0.0, samples, WosConfig(seed=seed))
    exact = [exact_offcenter_disk_h(0.5, 1.0, r) for r in tab.radii]
    disk = np.column_stack([tab.radii, tab.values, exact, tab.std_errors])

    dom = slit_disk(1.0, 1.5, 2.0)
    ens = wos_exit_ensemble(dom, 0.0, samples, WosConfig(seed=seed + 1))
    on_slit = ens.kinds != geometry.OUTER
    lo_half = on_slit & (ens.moduli <= 1.5 + 1e-6)
    n = ens.sample_count
    wos = np.array([lo_half.sum() / n, (on_slit & ~lo_half).sum() / n])
    lo = FdSolver(dom, n_theta=256).gate_measures()
    hi = FdSolver(dom, n_theta=512).gate_measures()
    exact = np.array([exact_slit_disk_gate(1.0, 1.5, 2.0),
                      exact_slit_disk_gate(1.0, 2.0, 2.0)
                      - exact_slit_disk_gate(1.0, 1.5, 2.0)])
    slit = np.column_stack([wos, 2.0 * hi - lo, exact,
                            np.sqrt(wos * (1.0 - wos) / n)])
    return disk, slit, float(np.abs(hi - lo).max())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    disk, slit, grid_err = triangle(args.samples, args.seed)

    print("off-center disk B(0.5, 1):")
    print(f"{'r':>6} {'monte carlo':>12} {'closed form':>12} "
          f"{'diff':>9} {'3*SE':>9}")
    for r, value, exact, se in disk:
        print(f"{r:>6.2f} {value:>12.6f} {exact:>12.6f} "
              f"{abs(value - exact):>9.1e} {3 * se:>9.1e}")

    print("\nslit disk B(0, 2) minus [1, 2], segment measures:")
    print(f"{'segment':>12} {'monte carlo':>12} {'grid':>12} "
          f"{'closed form':>12} {'3*SE':>9}")
    for name, (wos, grid, exact, se) in zip(("[1.0, 1.5]", "[1.5, 2.0]"), slit):
        print(f"{name:>12} {wos:>12.6f} {grid:>12.6f} "
              f"{exact:>12.6f} {3 * se:>9.1e}")
    print(f"grid error estimate {grid_err:.1e}")


if __name__ == "__main__":
    main()
