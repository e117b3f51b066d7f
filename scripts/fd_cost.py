#!/usr/bin/env python3
"""Per-layer cost of the finite-difference engine and of the inversion.

Part 1 inverts the jump-ramp step approximations (n = 2, 4, 8, 16, 32)
with the default settings, and the ten criterion-5 targets from each warm
start side by side, and prints the measure evaluations each spends per
level: at resolution // 2 and at resolution.

Part 2 rebuilds ``FdSolver`` on the jump-ramp solutions and prints the
median time of each layer of one build: labelling (``_label``),
factorization (``splu``), solve (the adjoint solves of the build),
assembly (the rest of the build: rays, rings, matrix assembly and the
weight bookkeeping), and the on-demand arc-measure Jacobian, with the
unknown count and the nonzeros of L + U (``lu.nnz``).

    PYTHONPATH=src python3 scripts/fd_cost.py [--repeats N]
"""
import argparse
import statistics
import time

import numpy as np

from hmdf import fd, hfunction
from hmdf.construct import (WARM_STARTS, SolveError, SolveSettings,
                            solve_circle_domain)
from hmdf.hfunction import StepH


def criterion_5_targets() -> list[StepH]:
    """The seeded 3-arc targets of acceptance criterion 5."""
    out = []
    for i in range(10):
        rng = np.random.default_rng([7, i])
        radii = tuple(float(x) for x in np.cumsum(np.concatenate(
            [[rng.uniform(0.8, 1.2)], rng.uniform(0.2, 0.6, 2)])))
        jumps = rng.uniform(0.1, 0.5, 3)
        cum = np.cumsum(jumps) / jumps.sum()
        cum[-1] = 1.0
        out.append(StepH(radii, tuple(float(v) for v in cum)))
    return out


def evaluations(name: str, steps: StepH, settings: SolveSettings):
    """Print one target's evaluations per level; None if it stalled."""
    t0 = time.perf_counter()
    try:
        res = solve_circle_domain(steps, settings)
    except SolveError as err:
        print(f"{name:<28} {err}")
        return None
    sec = time.perf_counter() - t0
    levels = [r for r, _ in res.trace]
    fine = levels.count(settings.resolution)
    print(f"{name:<28} {len(levels) - fine:>6} {fine:>5} {res.sweeps:>6} "
          f"{res.residual:>9.2e} {sec:>7.2f}")
    return res


class _Timer:
    """Wraps ``fd.splu`` and ``FdSolver._label`` to time one build's
    layers; the factor object's ``solve`` is timed through a proxy."""

    def __init__(self):
        self.t = {}
        self.nnz = 0

    def add(self, key, dt):
        self.t[key] = self.t.get(key, 0.0) + dt

    def install(self):
        splu, label = fd.splu, fd.FdSolver._label
        timer = self

        class TimedLU:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                t0 = time.perf_counter()
                out = self._lu.solve(*args, **kwargs)
                timer.add("solve", time.perf_counter() - t0)
                return out

            def __getattr__(self, name):
                return getattr(self._lu, name)

        def timed_splu(*args, **kwargs):
            t0 = time.perf_counter()
            lu = splu(*args, **kwargs)
            timer.add("factor", time.perf_counter() - t0)
            timer.nnz = lu.nnz
            return TimedLU(lu)

        def timed_label(solver):
            t0 = time.perf_counter()
            label(solver)
            timer.add("label", time.perf_counter() - t0)

        fd.splu, fd.FdSolver._label = timed_splu, timed_label
        return lambda: (setattr(fd, "splu", splu),
                        setattr(fd.FdSolver, "_label", label))

    def build(self, dom, resolution):
        self.t = {}
        t0 = time.perf_counter()
        solver = fd.FdSolver(dom, n_theta=resolution)
        total = time.perf_counter() - t0
        row = dict(self.t)
        row["assemble"] = total - sum(self.t.values())
        row["build"] = total
        t0 = time.perf_counter()
        solver.arc_measure_jacobian()
        row["jacobian"] = time.perf_counter() - t0
        return solver, row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--resolution", type=int, default=512)
    args = ap.parse_args()
    settings = SolveSettings(resolution=args.resolution)

    print(f"evaluations per level (resolution {args.resolution // 2} / "
          f"{args.resolution})")
    print(f"{'target':<28} {'coarse':>6} {'fine':>5} {'total':>6} "
          f"{'residual':>9} {'solve_s':>7}")
    ramp = {}
    for n in (2, 4, 8, 16, 32):
        steps = hfunction.step_approximation(hfunction.example_jump_ramp(), n)
        res = evaluations(f"jump-ramp n={n}", steps, settings)
        if res is not None:
            ramp[n] = res.domain
    for i, steps in enumerate(criterion_5_targets()):
        for mode in WARM_STARTS:
            evaluations(f"criterion-5 #{i} {mode}", steps,
                        SolveSettings(resolution=args.resolution,
                                      warm_start=mode))

    print()
    print("FdSolver layers, median ms of one build")
    cols = ("label", "assemble", "factor", "solve", "build", "jacobian")
    print(f"{'domain':<16} {'res':>4} {'unknowns':>8} {'lu.nnz':>8} "
          + " ".join(f"{c:>8}" for c in cols))
    timer = _Timer()
    restore = timer.install()
    try:
        for n, dom in ramp.items():
            for res in (args.resolution // 2, args.resolution):
                rows = []
                for _ in range(args.repeats):
                    solver, row = timer.build(dom, res)
                    rows.append(row)
                cells = [f"{1e3 * statistics.median(r[c] for r in rows):>8.2f}"
                         for c in cols]
                print(f"{'jump-ramp n=' + str(n):<16} {res:>4} "
                      f"{solver.n_unknowns:>8} {timer.nnz:>8} "
                      + " ".join(cells))
    finally:
        restore()


if __name__ == "__main__":
    main()
