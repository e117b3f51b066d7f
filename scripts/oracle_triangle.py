#!/usr/bin/env python3
"""Cross-validate the three harmonic-measure engines against each other.

Off-center disk: Monte Carlo h-function against the conformal closed form.
Slit disk: Monte Carlo, the grid solver (Richardson-extrapolated from two
resolutions), and the closed form, pairwise.
"""
import argparse
import math

import numpy as np

from hmdf import geometry
from hmdf.fd import FdSolver
from hmdf.potential import (OffCenterDisk, WosConfig, estimate_h,
                            exact_offcenter_disk_h, exact_slit_disk_gate,
                            slit_disk, wos_exit_ensemble)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("off-center disk B(0.5, 1):")
    print(f"{'r':>6} {'monte carlo':>12} {'closed form':>12} "
          f"{'diff':>9} {'3*SE':>9}")
    tab = estimate_h(OffCenterDisk(0.5, 1.0), [0.55, 0.8, 1.0, 1.2, 1.45],
                     0.0, args.samples, WosConfig(seed=args.seed))
    for r, est in zip(tab.radii, tab.estimates):
        exact = exact_offcenter_disk_h(0.5, 1.0, r)
        print(f"{r:>6.2f} {est.value:>12.6f} {exact:>12.6f} "
              f"{abs(est.value - exact):>9.1e} {3 * est.std_error:>9.1e}")

    print("\nslit disk B(0, 2) minus [1, 2], segment measures:")
    dom = slit_disk(1.0, 1.5, 2.0)
    ens = wos_exit_ensemble(dom, 0.0, args.samples,
                            WosConfig(seed=args.seed + 1))
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
    print(f"{'segment':>12} {'monte carlo':>12} {'grid':>12} "
          f"{'closed form':>12} {'3*SE':>9}")
    for k, name in enumerate(("[1.0, 1.5]", "[1.5, 2.0]")):
        print(f"{name:>12} {wos[k]:>12.6f} {rich[k]:>12.6f} "
              f"{exact[k]:>12.6f} {3 * se[k]:>9.1e}")
    print(f"grid error estimate {grid_err:.1e}")


if __name__ == "__main__":
    main()
