"""hmdf benchmark runner.

    python3 perfbench/run.py --workload {construct,invert,measure} \
        --seed N --seconds S --trace {0,1}

Builds nothing: it imports the package from ``src/`` of the checkout it
sits in, and exits with code 2 if that source is missing.  Everything runs
in one process with the BLAS/OpenMP thread limits pinned to at most the
number of usable cores.

A *round* runs every job of the workload once on the inputs made from the
seed.  With ``--trace 0`` the runner first times ``setup_s`` (import and
first calls, median over fresh interpreters), then repeats rounds while
another one fits in ``--seconds`` (at least one) and reports the
end-to-end metrics: ``setup_s`` and ``wall_s``, the median round time.
With ``--trace 1`` it runs one untraced round, which gives the job count
and the median and maximum job time (``bench.*``), and one traced round,
which gives the per-layer metrics; the spans are written to
``.perfbench_out/trace-<workload>-<seed>.jsonl``.

Per-job times are not end-to-end metrics: a run holds 2 to 67 jobs of
unlike cost, so their median and maximum move with the seed by more than
the bound a gated metric needs.

Every job's result is checked after the timed rounds; a job that raised,
failed its check, or gave a different result in a later round counts as
failed.  The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("construct", "invert", "measure")
SETUP_RUNS = 5
# Import plus the first call into each engine, in a fresh interpreter.
SETUP_CODE = """\
import hmdf
from hmdf.construct import SolveSettings, solve_circle_domain
from hmdf.geometry import CircleDomain
from hmdf.hfunction import StepH
from hmdf.potential import WosConfig, wos_exit_ensemble
solve_circle_domain(StepH((1.0, 1.5), (0.5, 1.0)), SolveSettings(resolution=64))
d = CircleDomain.from_arrays([1.0, 1.5], [1.0, 3.141592653589793])
wos_exit_ensemble(d, 0.0, 1000, WosConfig(seed=0))
"""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> dict[str, str]:
    """Cap every thread-pool variable at nproc; must run before numpy is
    imported."""
    n = nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= n):
            os.environ[var] = str(n)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                              "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> float:
    """Median wall time of SETUP_RUNS fresh interpreters importing the
    package and making their first calls."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                       env=child_env(), check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_up() -> None:
    exec(compile(SETUP_CODE, "<warm-up>", "exec"), {})


def settle(workload, inputs, rounds) -> tuple[int, int, dict[str, float]]:
    """Check the first round's results and the later rounds' agreement
    with it; returns (attempted, failed, accuracy figures)."""
    checked = workload.check(inputs, rounds[0])
    first = [workload.fingerprint(j) for j in rounds[0].jobs]
    attempted = failed = 0
    for rnd in rounds:
        for job, ref in zip(rnd.jobs, first):
            attempted += 1
            if job.name in checked.failed or workload.fingerprint(job) != ref:
                failed += 1
    return attempted, failed, checked.figures


def job_stats(rnd) -> tuple[float, float]:
    """Median and maximum job time of one round."""
    times = [j.seconds for j in rnd.jobs]
    return statistics.median(times), max(times)


def bench(workload, seed: int, seconds: float, trace: bool, tag: str):
    """Run one workload and check it; returns (attempted, failed, metrics,
    accuracy figures), metrics mapping name -> (value, unit)."""
    import spans

    inputs = workload.inputs(seed)
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        warm_up()
        base = workload.run(inputs, None)
        tracer = spans.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            traced = workload.run(inputs, tracer)
        rounds = [base, traced]
        OUT.mkdir(exist_ok=True)
        tracer.write_jsonl(OUT / f"trace-{tag}.jsonl", t0)
        metrics.update(spans.layer_metrics(tracer, traced.pipeline_wall))
        metrics["trace.coverage"] = (spans.coverage(tracer, traced.wall), "1")
        metrics["trace.overhead_s"] = (traced.wall - base.wall, "s")
        p50, worst = job_stats(base)
        metrics["bench.jobs"] = (len(base.jobs), "count")
        metrics["bench.job_s.p50"] = (p50, "s")
        metrics["bench.job_s.max"] = (worst, "s")
    else:
        setup_s = measure_setup()
        warm_up()
        rounds = []
        t0 = time.perf_counter()
        while True:
            rounds.append(workload.run(inputs, None))
            longest = max(r.wall for r in rounds)
            if time.perf_counter() - t0 + longest > seconds:
                break
        metrics["setup_s"] = (setup_s, "s")
        metrics["wall_s"] = (statistics.median(r.wall for r in rounds), "s")

    attempted, failed, figures = settle(workload, inputs, rounds)
    if trace:
        metrics["check.failed_frac"] = (failed / attempted, "1")
        for name in ("inv_residual.max", "sup_gap.last", "oracle_z.max",
                     "fd_oracle_err.max"):
            metrics[f"check.{name}"] = (figures.get(name, 0.0), "1")
    figures["rounds"] = len(rounds)
    return attempted, failed, metrics, figures


def load_hmdf() -> dict[str, str] | None:
    """Pin the thread limits and import hmdf from the checkout's src/;
    returns the limits, or None when that source is missing."""
    if not (SRC / "hmdf" / "__init__.py").is_file():
        print(f"hmdf source not found under {SRC}", file=sys.stderr)
        return None
    limits = pin_threads()
    sys.path.insert(0, str(SRC))
    import hmdf
    if SRC.resolve() not in Path(hmdf.__file__).resolve().parents:
        print(f"imported hmdf from {hmdf.__file__}, not {SRC}", file=sys.stderr)
        return None
    return limits


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    limits = load_hmdf()
    if limits is None:
        return 2
    import numpy
    import scipy
    from workloads import WORKLOADS

    tag = f"{args.workload}-{args.seed}"
    attempted, failed, metrics, figures = bench(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), tag)
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "nproc": nproc(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "commit": git_commit(),
           "thread_limits": limits}
    OUT.mkdir(exist_ok=True)
    (OUT / f"env-{tag}.json").write_text(json.dumps(env, indent=1) + "\n")
    print("env " + json.dumps(env))
    print("checks " + json.dumps({"attempted": attempted, "failed": failed,
                                  **figures}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
