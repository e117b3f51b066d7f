#!/usr/bin/env python3
"""Per-layer cost of the finite-difference engine and of the inversion.

Part 1 is the inversion survey.  It inverts the jump-ramp step
approximations (n = 2 to 64) with the default settings; six cases whose
roots lie near a filler-count threshold (n = 4 at resolution 64, n = 8 at
128, n = 16 at 48, 96 and 192, and n = 16 at the full resolution with
``tol`` 5e-5); and the ten criterion-5 targets from each warm start, at
the full resolution and at half of it (the targets come from
``perfbench/baseline.py``).  For each case it prints the
measure evaluations spent per level (at resolution // 2 and at
resolution) and in total, the residual the solve reports, the residual
re-measured on a fresh grid, ``fd_error`` and the seconds, then one
summary line: cases converged and total evaluations, counting a stalled
case at the evaluations it spent (``SolveError.evaluations``).

Part 2 rebuilds ``FdSolver`` on the jump-ramp solutions and prints the
median time of each layer of one build as ``FdSolver.seconds`` records
it (labelling, assembly, factorization and the adjoint solve), of the
whole build and of the on-demand arc-measure Jacobian, with the unknown
count and the nonzeros of L + U (``FdSolver.lu_nnz``).

    PYTHONPATH=src python3 scripts/fd_cost.py [--repeats N] [--resolution R]
"""
import argparse
import pathlib
import statistics
import sys
import time

import numpy as np

from hmdf import fd, hfunction
from hmdf.construct import (WARM_STARTS, SolveError, SolveSettings,
                            solve_circle_domain)
from hmdf.hfunction import StepH

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))
from baseline import criterion5_targets

RAMP_N = (2, 4, 8, 16, 32, 64)  # jump-ramp stages at the default settings


def evaluations(name: str, steps: StepH, settings: SolveSettings):
    """Print one case's row; return the result (None if it stalled) and
    the evaluations spent."""
    t0 = time.perf_counter()
    try:
        res = solve_circle_domain(steps, settings)
    except SolveError as err:
        print(f"{name:<32} {err}")
        return None, err.evaluations
    sec = time.perf_counter() - t0
    solver = fd.FdSolver(res.domain, n_theta=settings.resolution)
    fresh = np.abs(np.cumsum(solver.arc_measures())
                   - np.array(steps.values[:-1])).max()
    levels = [r for r, _ in res.trace]
    fine = levels.count(settings.resolution)
    print(f"{name:<32} {len(levels) - fine:>6} {fine:>5} {res.sweeps:>6} "
          f"{res.residual:>9.2e} {fresh:>9.2e} {res.fd_error:>8.1e} {sec:>7.2f}")
    return res, res.sweeps


def survey_cases(resolution: int):
    """(name, steps, settings) of every case of the inversion survey."""
    ramp = hfunction.example_jump_ramp()
    for n in RAMP_N:
        yield (f"jump-ramp n={n}", hfunction.step_approximation(ramp, n),
               SolveSettings(resolution=resolution))
    for n, res, tol in ((4, 64, 1e-3), (8, 128, 1e-3), (16, 48, 1e-3),
                        (16, 96, 1e-3), (16, 192, 1e-3), (16, resolution, 5e-5)):
        yield (f"jump-ramp n={n} @{res} tol={tol:g}",
               hfunction.step_approximation(ramp, n),
               SolveSettings(resolution=res, tol=tol))
    for res in (resolution, resolution // 2):
        for i, steps in enumerate(criterion5_targets()):
            for mode in WARM_STARTS:
                yield (f"criterion-5 #{i} @{res} {mode}", steps,
                       SolveSettings(resolution=res, warm_start=mode))


def build(dom, resolution: int):
    """One build's solver and seconds: its layers, the whole build and the
    arc-measure Jacobian."""
    t0 = time.perf_counter()
    solver = fd.FdSolver(dom, n_theta=resolution)
    row = dict(solver.seconds, build=time.perf_counter() - t0)
    t0 = time.perf_counter()
    solver.arc_measure_jacobian()
    row["jacobian"] = time.perf_counter() - t0
    return solver, row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--resolution", type=int, default=512)
    args = ap.parse_args()

    print("inversion survey: evaluations at resolution // 2 and at resolution")
    print(f"{'case':<32} {'coarse':>6} {'fine':>5} {'total':>6} "
          f"{'residual':>9} {'fresh':>9} {'fd_error':>8} {'solve_s':>7}")
    solved, total, cases = {}, 0, 0
    for name, steps, settings in survey_cases(args.resolution):
        res, spent = evaluations(name, steps, settings)
        cases += 1
        total += spent
        if res is not None:
            solved[name] = res.domain
    print(f"survey: {len(solved)} of {cases} converged in {total} evaluations")
    print()
    print("FdSolver layers, median ms of one build")
    cols = ("label", "assemble", "factor", "solve", "build", "jacobian")
    print(f"{'domain':<16} {'res':>4} {'unknowns':>8} {'lu.nnz':>8} "
          + " ".join(f"{c:>8}" for c in cols))
    for n in RAMP_N:
        dom = solved.get(f"jump-ramp n={n}")
        if dom is None:
            continue
        for res in (args.resolution // 2, args.resolution):
            builds = [build(dom, res) for _ in range(args.repeats)]
            solver = builds[-1][0]
            cells = [f"{1e3 * statistics.median(r[c] for _, r in builds):>8.2f}"
                     for c in cols]
            print(f"{'jump-ramp n=' + str(n):<16} {res:>4} "
                  f"{solver.n_unknowns:>8} {solver.lu_nnz:>8} "
                  + " ".join(cells))


if __name__ == "__main__":
    main()
