#!/usr/bin/env python3
"""Cost of ``geometry.nearest_boundary`` per walk point against the arc count.

For each arc count n it draws one seeded random blocked domain (radii from
a uniform start in [0.5, 1.5] with gaps in [0.1, 0.5], half-arclengths in
[0.15, 2.8], 30% of the gates on the axis), runs one walk-on-spheres
ensemble on it while recording every point array the walks pass to
``nearest_boundary``, and then replays the recorded calls.  It prints the
calls and points per ensemble and the median replay time per point.

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


def record_calls(dom, walks: int, seed: int) -> list[np.ndarray]:
    """Point arrays of every ``nearest_boundary`` call one ensemble makes."""
    calls = []
    query = geometry.nearest_boundary

    def recording(z, d):
        calls.append(np.array(z, dtype=complex))
        return query(z, d)

    geometry.nearest_boundary = recording
    try:
        potential.wos_exit_ensemble(dom, 0.0, walks,
                                    potential.WosConfig(seed=seed))
    finally:
        geometry.nearest_boundary = query
    return calls


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--arcs", default="1,2,4,8,16",
                    help="comma-separated arc counts")
    ap.add_argument("--walks", type=int, default=20_000)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    print(f"{'arcs':>4} {'calls':>6} {'points':>9} {'us/point':>9}")
    for n in (int(s) for s in args.arcs.split(",")):
        dom = random_blocked(n, args.seed)
        calls = record_calls(dom, args.walks, args.seed)
        points = sum(z.size for z in calls)
        times = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            for z in calls:
                geometry.nearest_boundary(z, dom)
            times.append(time.perf_counter() - t0)
        us = 1e6 * statistics.median(times) / points
        print(f"{n:>4} {len(calls):>6} {points:>9} {us:>9.3f}")


if __name__ == "__main__":
    main()
