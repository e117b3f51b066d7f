"""Full-size reference counts for the benchmark's engines.

    python3 perfbench/baseline.py

Traces the two jobs the benchmark's workloads are cut down from, at their
full size, and writes to ``perfbench/baseline.json`` the counts that must
repeat exactly:

- ``run_pipeline(example_jump_ramp(), n_list=(2, 4, 8, 16))`` with the
  default settings and 200k verification walks per stage: FD evaluations
  per stage, ``splu`` calls, verification walks and ``nearest_boundary``
  points;
- criterion 5's ten targets at the default resolution 512, from both
  warm starts: FD evaluations per inversion.

Takes about two and a half minutes on a 2-core machine.
"""
from __future__ import annotations

import json
import platform
import sys
import time

import run


def criterion5_targets():
    """The ten step targets of acceptance criterion 5."""
    import numpy as np
    from hmdf.hfunction import StepH

    out = []
    for i in range(10):
        rng = np.random.default_rng([7, i])
        radii = np.cumsum(np.concatenate(
            [[rng.uniform(0.8, 1.2)], rng.uniform(0.2, 0.6, 2)]))
        jumps = rng.uniform(0.1, 0.5, 3)
        cum = np.cumsum(jumps) / jumps.sum()
        cum[-1] = 1.0
        out.append(StepH(tuple(float(r) for r in radii),
                         tuple(float(v) for v in cum)))
    return out


def main() -> int:
    limits = run.load_hmdf()
    if limits is None:
        return 2
    import numpy
    import scipy
    import spans
    import workloads

    run.warm_up()
    c = workloads.Construct()
    c.N_LIST = (2, 4, 8, 16)
    inv = workloads.Invert()
    inv.RESOLUTION = 512
    record = {"env": {"nproc": run.nproc(), "python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      "commit": run.git_commit(), "thread_limits": limits}}
    for name, workload, seed, inputs in (
            ("construct", c, 0, c.inputs(0)),
            ("invert", inv, 7, criterion5_targets())):
        tracer = spans.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            rnd = workload.run(inputs, tracer)
        wall = time.perf_counter() - t0
        checked = workload.check(inputs, rnd)
        layer = spans.layer_metrics(tracer, rnd.pipeline_wall)
        solves = [s for s in tracer.spans if s[spans.NAME] == spans.SOLVE]
        evals = [sum(1 for f in tracer.spans if f[spans.NAME] == spans.FDS
                     and f[spans.PARENT] == s[spans.ID]) for s in solves]
        record[name] = {
            "seed": seed, "wall_s": wall,
            "jobs": {j.name: j.seconds for j in rnd.jobs},
            "failed": sorted(checked.failed), **checked.figures,
            "fd_evals": evals,
            **{k: v for k, (v, _) in layer.items()}}
        print(f"{name}: {wall:.1f} s, FD evaluations {evals}, "
              f"failed {sorted(checked.failed)}", flush=True)
    with open(run.ROOT / "perfbench" / "baseline.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
