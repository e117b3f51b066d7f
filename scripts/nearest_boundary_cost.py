#!/usr/bin/env python3
"""Cost of the walk-on-spheres queries per point against the arc count.

For each arc count n it draws one seeded random blocked domain (radii from
a uniform start in [0.5, 1.5] with gaps in [0.1, 0.5], half-arclengths in
[0.15, 2.8], 30% of the gates on the axis), and for each n in
``--ramp-arcs`` one jump-ramp-shaped domain (n arcs within 0.1 in radius,
psi increasing from 1.52 towards pi, gates inset by 0.0172 below their
inner arc, as at the pipeline's n = 16 stage).  On each it runs one
ensemble while recording every point array the walks pass to the step
query ``nearest_boundary`` and to the exit query ``nearest_feature``, and
then replays the recorded calls.  It prints the calls and points per
ensemble and the median replay time per point of each query.

    PYTHONPATH=src python3 scripts/nearest_boundary_cost.py [--walks N]
"""
import argparse
import math
import statistics
import time

import numpy as np

from hmdf import geometry, potential
from hmdf.geometry import BlockedCircleDomain, CircleDomain


def random_blocked(n_arcs: int, seed: int) -> BlockedCircleDomain:
    rng = np.random.default_rng([seed, n_arcs])
    radii = float(rng.uniform(0.5, 1.5)) + np.concatenate(
        [[0.0], np.cumsum(rng.uniform(0.1, 0.5, n_arcs))])
    psis = np.append(rng.uniform(0.15, 2.8, n_arcs), math.pi)
    caps = np.minimum(psis[:-1], psis[1:])
    phis = tuple(0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, c))
                 for c in caps)
    return BlockedCircleDomain(CircleDomain.from_arrays(radii, psis), phis)


def jump_ramp_shaped(n_arcs: int) -> BlockedCircleDomain:
    k = np.arange(n_arcs)
    psis = 1.52 + (math.pi - 0.12 - 1.52) * k / max(n_arcs - 1, 1)
    radii = 1.0 + 0.0992 * np.arange(n_arcs + 1) / n_arcs
    base = CircleDomain.from_arrays(radii, np.append(psis, math.pi))
    return BlockedCircleDomain(base, tuple(float(p) - 0.0172 for p in psis))


def record_calls(dom, walks: int, seed: int):
    """The arguments of every step and exit query one ensemble makes."""
    steps, exits = [], []
    step_query, exit_query = geometry.nearest_boundary, geometry.nearest_feature

    def recording_step(z, d):
        steps.append(np.array(z, dtype=complex))
        return step_query(z, d)

    def recording_exit(z, d, dist=None):
        exits.append((np.array(z, dtype=complex), dist))
        return exit_query(z, d, dist)

    geometry.nearest_boundary = recording_step
    geometry.nearest_feature = recording_exit
    try:
        potential.wos_exit_ensemble(dom, 0.0, walks,
                                    potential.WosConfig(seed=seed))
    finally:
        geometry.nearest_boundary = step_query
        geometry.nearest_feature = exit_query
    return steps, exits


def replay_us(replay, points: int, repeats: int) -> float:
    """Median microseconds per point of ``replay()`` over ``repeats``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        replay()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times) / max(points, 1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--arcs", default="1,2,4,8,16",
                    help="comma-separated arc counts of the random domains")
    ap.add_argument("--ramp-arcs", default="16",
                    help="comma-separated arc counts of the jump-ramp shapes")
    ap.add_argument("--walks", type=int, default=20_000)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    cases = [("random", int(s)) for s in args.arcs.split(",") if s]
    cases += [("ramp", int(s)) for s in args.ramp_arcs.split(",") if s]
    print(f"{'domain':>6} {'arcs':>4} {'calls':>6} {'points':>9} "
          f"{'us/point':>9} {'exits':>7} {'us/exit':>8}")
    for shape, n in cases:
        dom = random_blocked(n, args.seed) if shape == "random" else jump_ramp_shaped(n)
        steps, exits = record_calls(dom, args.walks, args.seed)
        points = sum(z.size for z in steps)
        n_exits = sum(z.size for z, _ in exits)
        step_us = replay_us(lambda: [geometry.nearest_boundary(z, dom)
                                     for z in steps], points, args.repeats)
        exit_us = replay_us(lambda: [geometry.nearest_feature(z, dom, dist)
                                     for z, dist in exits], n_exits, args.repeats)
        print(f"{shape:>6} {n:>4} {len(steps):>6} {points:>9} {step_us:>9.3f} "
              f"{n_exits:>7} {exit_us:>8.3f}")


if __name__ == "__main__":
    main()
