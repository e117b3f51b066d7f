#!/usr/bin/env python3
"""Invert a step h-function into a circle domain and verify the result.

The target is given as jump radii and cumulative values; the solver finds
arc half-arclengths whose harmonic-measure jumps reproduce it, and the
result is re-measured independently.
"""
import argparse
import math

import numpy as np

from hmdf import cli
from hmdf.construct import SolveSettings, solve_circle_domain
from hmdf.fd import FdSolver
from hmdf.hfunction import StepH


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radii", default="1.0,1.4,2.0",
                    help="comma-separated jump radii")
    ap.add_argument("--values", default="0.3,0.65,1.0",
                    help="comma-separated cumulative values, ending at 1")
    ap.add_argument("--tol", type=float, default=1e-3)
    ap.add_argument("--resolution", type=int, default=512)
    ap.add_argument("--svg", default=None, help="write the domain to SVG")
    args = ap.parse_args()

    steps = StepH(tuple(float(x) for x in args.radii.split(",")),
                  tuple(float(x) for x in args.values.split(",")))
    res = solve_circle_domain(steps, SolveSettings(
        tol=args.tol, resolution=args.resolution))
    dom = res.domain
    levels = ""
    if math.isfinite(res.fd_error):
        fine = sum(1 for r, _ in res.trace if r == args.resolution)
        levels = (f" ({fine} at resolution {args.resolution}), fd error "
                  f"{res.fd_error:.1e} (resolution {args.resolution // 2} "
                  f"against {args.resolution})")
    print(f"converged in {res.sweeps} measure evaluations, residual "
          f"{res.residual:.2e}{levels}")
    for r, psi in zip(dom.radii, dom.psis):
        print(f"  arc r={r:g}  half-arclength psi={psi:.6f}")

    hv = FdSolver(dom, n_theta=args.resolution).h_table(np.array(steps.radii))
    print("re-measured h at the jump radii:")
    for r, v, target in zip(steps.radii, hv, steps.values):
        print(f"  h({r:g}) = {v:.6f}  (target {target:g})")

    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(cli.render_domain_svg(dom))
        print(f"wrote {args.svg}")


if __name__ == "__main__":
    main()
