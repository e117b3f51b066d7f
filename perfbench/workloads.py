"""The benchmark's workloads: inputs made from the seed, the timed jobs,
and the checks on their results.

Each workload has ``inputs(seed)``, ``run(inputs, tracer)`` returning one
timed ``Round``, ``check(inputs, round)`` returning the names of failed
jobs and the accuracy figures, and ``fingerprint(job)``, which must repeat
exactly when the same inputs run again.  Jobs call the package through its
module attributes so that the tracer's wrappers see them.
"""
from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from hmdf import construct, fd, hfunction, potential
from hmdf.geometry import BlockedCircleDomain, CircleDomain
from hmdf.hfunction import StepH

TOL = 1e-3              # inversion tolerance (the SolveSettings default)
WARM_START_SPREAD = 2e-3
ORACLE_Z = 5.0          # |WoS - exact| / SE allowed by the oracle checks
BEURLING_SE = 4.0       # standard errors of slack on the universal lower bound


@dataclass
class Job:
    name: str
    seconds: float
    output: object = None
    error: str | None = None


@dataclass
class Round:
    wall: float
    jobs: list[Job]
    pipeline_wall: float = 0.0


@dataclass
class Checked:
    failed: set[str] = field(default_factory=set)
    figures: dict[str, float] = field(default_factory=dict)


def _timed(tracer, name, fn, *args, **kwargs) -> Job:
    if tracer is not None:
        tracer.job = name
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception:  # a failed job is counted, never dropped
        tb = traceback.format_exc()
        print(f"job {name} raised:\n{tb}", file=sys.stderr)
        return Job(name, time.perf_counter() - t0, None, tb)
    return Job(name, time.perf_counter() - t0, out)


def _round(jobs_fn, inputs, tracer) -> Round:
    t0 = time.perf_counter()
    jobs = jobs_fn(inputs, tracer)
    return Round(time.perf_counter() - t0, jobs)


def _remeasure_err(dom: CircleDomain, steps: StepH, resolution: int) -> float:
    """Sup-norm gap between the target step values and an independent FD
    measurement of the domain at the step radii."""
    hv = fd.FdSolver(dom, n_theta=resolution).h_table(np.array(steps.radii))
    return float(np.abs(hv - np.array(steps.values)).max())


# ---------------------------------------------------------------------------
# construct: the full construction pipeline on the jump-ramp example.


class Construct:
    """``run_pipeline`` on the jump-ramp candidate.  A job is one stage,
    timed by the pipeline's own ``StageReport.seconds``.  The n = 16 stage
    is the slow case; n = 4 and 8 are left out so that a run stays near
    half a minute.  Only the verification walks depend on the seed."""

    N_LIST = (2, 16)
    RESOLUTION = 512
    VERIFY_WALKS = 200_000

    def inputs(self, seed: int):
        return (hfunction.example_jump_ramp(),
                construct.SolveSettings(resolution=self.RESOLUTION, seed=seed))

    def run(self, inputs, tracer) -> Round:
        f, settings = inputs
        if tracer is not None:
            tracer.job = "pipeline"
        t0 = time.perf_counter()
        try:
            rep = construct.run_pipeline(f, n_list=self.N_LIST, settings=settings,
                                         verify_samples=self.VERIFY_WALKS)
        except Exception:
            tb = traceback.format_exc()
            print(f"pipeline raised:\n{tb}", file=sys.stderr)
            wall = time.perf_counter() - t0
            return Round(wall, [Job(f"stage n={n}", wall / len(self.N_LIST),
                                    None, tb) for n in self.N_LIST], wall)
        wall = time.perf_counter() - t0
        jobs = [Job(f"stage n={st.n}", st.seconds, (st, rep)) for st in rep.stages]
        return Round(wall, jobs, wall)

    def check(self, inputs, rnd: Round) -> Checked:
        _, settings = inputs
        out = Checked()
        done = [j for j in rnd.jobs if j.error is None]
        out.failed.update(j.name for j in rnd.jobs if j.error is not None)
        if not done:
            return out
        rep = done[0].output[1]
        if rep.verdict != "PASS":
            out.failed.update(j.name for j in rnd.jobs)
        if rep.stages[-1].sigma_n != 0:
            out.failed.add(rnd.jobs[-1].name)
        for job in done:
            st = job.output[0]
            if _remeasure_err(st.circle, st.steps, settings.resolution) > settings.tol:
                out.failed.add(job.name)
        out.figures["inv_residual.max"] = max(
            j.output[0].inversion_residual for j in done)
        out.figures["sup_gap.last"] = rep.stages[-1].sup_gap
        return out

    def fingerprint(self, job: Job):
        if job.error is not None:
            return job.error
        st = job.output[0]
        return (tuple(st.circle.psis), st.blocked.gate_angles, st.h_values)


# ---------------------------------------------------------------------------
# invert: criterion-5-style 3-arc step targets, each solved from two warm
# starts.


class Invert:
    """Seeded 3-arc step targets, drawn from criterion 5's ranges, each
    inverted by the FD engine from the ``proportional`` warm start, near
    the answer, and the ``uniform`` one, far from it.  Each parameter is
    drawn as a Latin-hypercube column (one value per stratum of its range,
    shuffled), so every run spans the ranges evenly and the cost of a run
    depends little on the seed.  Resolution 256 keeps ten targets (twenty
    inversions) inside a run; the construct workload covers the default
    resolution 512."""

    TARGETS = 10
    RESOLUTION = 256
    WARM_STARTS = ("proportional", "uniform")

    def inputs(self, seed: int) -> list[StepH]:
        rng = np.random.default_rng(seed)
        k = self.TARGETS

        def column(lo, hi):
            return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k

        radii = np.cumsum(np.stack([column(0.8, 1.2), column(0.2, 0.6),
                                    column(0.2, 0.6)], axis=1), axis=1)
        jumps = np.stack([column(0.1, 0.5) for _ in range(3)], axis=1)
        out = []
        for r, j in zip(radii, jumps):
            cum = np.cumsum(j) / j.sum()
            cum[-1] = 1.0
            out.append(StepH(tuple(float(x) for x in r),
                             tuple(float(v) for v in cum)))
        return out

    def _settings(self, warm_start: str) -> construct.SolveSettings:
        return construct.SolveSettings(engine="fd", resolution=self.RESOLUTION,
                                       tol=TOL, warm_start=warm_start)

    def _jobs(self, targets, tracer) -> list[Job]:
        return [_timed(tracer, f"target {i} {ws}", construct.solve_circle_domain,
                       steps, self._settings(ws))
                for i, steps in enumerate(targets) for ws in self.WARM_STARTS]

    def run(self, inputs, tracer) -> Round:
        return _round(self._jobs, inputs, tracer)

    def check(self, inputs, rnd: Round) -> Checked:
        out = Checked()
        by_name = {j.name: j for j in rnd.jobs}
        residuals = []
        for i, steps in enumerate(inputs):
            pair = [by_name[f"target {i} {ws}"] for ws in self.WARM_STARTS]
            for job in pair:
                res = job.output
                if (job.error is not None or not res.converged
                        or res.residual > TOL
                        or _remeasure_err(res.domain, steps, self.RESOLUTION) > TOL):
                    out.failed.add(job.name)
                else:
                    residuals.append(res.residual)
            near, far = pair
            if (near.error is None and far.error is None
                    and np.abs(near.output.domain.psis
                               - far.output.domain.psis).max() > WARM_START_SPREAD):
                out.failed.add(far.name)
        out.figures["inv_residual.max"] = max(residuals, default=0.0)
        return out

    def fingerprint(self, job: Job):
        if job.error is not None:
            return job.error
        return (tuple(job.output.domain.psis), job.output.sweeps)


# ---------------------------------------------------------------------------
# measure: one-shot WoS h-tables and the exact oracles.


def random_blocked(seed: int, j: int) -> BlockedCircleDomain:
    """Criterion 4's random blocked domain, widened to 1-16 arcs: job j
    has 1 + j % 16 arcs, so every run covers each arc count equally."""
    rng = np.random.default_rng([seed, j])
    n_arcs = 1 + j % 16
    r0 = float(rng.uniform(0.5, 1.5))
    radii = r0 + np.concatenate([[0.0],
                                 np.cumsum(rng.uniform(0.1, 0.5, n_arcs))])
    psis = np.append(rng.uniform(0.15, 2.8, n_arcs), math.pi)
    base = CircleDomain.from_arrays(radii, psis)
    caps = np.minimum(psis[:-1], psis[1:])
    phis = tuple(0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, c))
                 for c in caps)
    return BlockedCircleDomain(base, phis)


@dataclass(frozen=True)
class MeasureInputs:
    domains: tuple[BlockedCircleDomain, ...]
    wos_seeds: tuple[int, ...]
    center: float                       # off-center disk B(center, 1)
    slit: tuple[float, float, float]    # slit disk (r_k, r_k1, M)


class Measure:
    """WoS h-tables on seeded random blocked domains, the off-center disk
    and slit disk against their closed forms, and the slit-disk FD pair at
    resolutions 256 and 512.  Many small domains rather than a few large
    ones, so that the geometry-dependent walk length averages out across
    seeds; the off-center disk bypasses ``nearest_boundary``."""

    DOMAINS = 64
    WALKS = 20_000
    ORACLE_WALKS = 200_000
    FD_PAIR = (256, 512)

    def inputs(self, seed: int) -> MeasureInputs:
        rng = np.random.default_rng([seed, 1 << 20])
        r_k1 = float(rng.uniform(1.2, 1.8))
        return MeasureInputs(
            domains=tuple(random_blocked(seed, j) for j in range(self.DOMAINS)),
            wos_seeds=tuple(int(s) for s in rng.integers(0, 2**31, self.DOMAINS + 2)),
            center=float(rng.uniform(0.2, 0.7)),
            slit=(1.0, r_k1, r_k1 + float(rng.uniform(0.3, 0.7))))

    @staticmethod
    def table_radii(dom: BlockedCircleDomain) -> np.ndarray:
        return np.linspace(0.5 * dom.mu, dom.outer_radius, 41)

    @staticmethod
    def offcenter_radii(c: float) -> np.ndarray:
        return np.linspace(1.0 - c, 1.0 + c, 7)[1:-1]

    def _fd_pair(self, dom):
        return tuple(fd.FdSolver(dom, n_theta=n).gate_measures()
                     for n in self.FD_PAIR)

    def _jobs(self, inp: MeasureInputs, tracer) -> list[Job]:
        cfg = potential.WosConfig
        jobs = [_timed(tracer, f"domain {j} ({len(dom.gate_angles)} arcs)",
                       potential.estimate_h, dom, self.table_radii(dom), 0.0,
                       self.WALKS, cfg(seed=inp.wos_seeds[j]))
                for j, dom in enumerate(inp.domains)]
        jobs.append(_timed(tracer, "offcenter wos", potential.estimate_h,
                           potential.OffCenterDisk(inp.center, 1.0),
                           self.offcenter_radii(inp.center), 0.0,
                           self.ORACLE_WALKS, cfg(seed=inp.wos_seeds[-2])))
        slit = potential.slit_disk(*inp.slit)
        jobs.append(_timed(tracer, "slit wos", potential.wos_exit_ensemble,
                           slit, 0.0, self.ORACLE_WALKS,
                           cfg(seed=inp.wos_seeds[-1])))
        jobs.append(_timed(tracer, "slit fd", self._fd_pair, slit))
        return jobs

    def run(self, inputs, tracer) -> Round:
        return _round(self._jobs, inputs, tracer)

    def _slit_exact(self, inp: MeasureInputs) -> np.ndarray:
        r_k, r_k1, M = inp.slit
        lo = potential.exact_slit_disk_gate(r_k, r_k1, M)
        return np.array([lo, potential.exact_slit_disk_gate(r_k, M, M) - lo])

    def check(self, inp: MeasureInputs, rnd: Round) -> Checked:
        out = Checked()
        jobs = {j.name: j for j in rnd.jobs}
        out.failed.update(j.name for j in rnd.jobs if j.error is not None)
        for j, dom in enumerate(inp.domains):
            job = rnd.jobs[j]
            if job.error is None and not self._table_ok(dom, job.output):
                out.failed.add(job.name)
        z = []
        job = jobs["offcenter wos"]
        if job.error is None:
            exact = [potential.exact_offcenter_disk_h(inp.center, 1.0, r)
                     for r in job.output.radii]
            zs = [abs(e.value - x) / max(e.std_error, 1e-12)
                  for e, x in zip(job.output.estimates, exact)]
            z += zs
            if max(zs) > ORACLE_Z:
                out.failed.add(job.name)
        exact = self._slit_exact(inp)
        job = jobs["slit wos"]
        if job.error is None:
            ens = job.output
            on_slit = ens.kinds != 2
            lo = on_slit & (ens.moduli <= inp.slit[1] + 1e-6)
            n = ens.sample_count
            est = np.array([lo.sum(), (on_slit & ~lo).sum()]) / n
            se = np.sqrt(est * (1.0 - est) / n)
            zs = list(np.abs(est - exact) / np.maximum(se, 1e-12))
            z += zs
            if max(zs) > ORACLE_Z or ens.sample_count + ens.discard_count != self.ORACLE_WALKS:
                out.failed.add(job.name)
        job = jobs["slit fd"]
        if job.error is None:
            lo_g, hi_g = job.output
            rich = 2.0 * hi_g - lo_g
            err = np.abs(rich - exact)
            out.figures["fd_oracle_err.max"] = float(err.max())
            if np.any(err > 2.0 * np.abs(hi_g - lo_g).max()):
                out.failed.add(job.name)
        out.figures["oracle_z.max"] = float(max(z, default=0.0))
        return out

    def _table_ok(self, dom: BlockedCircleDomain, table) -> bool:
        """Invariants every h-table of a blocked domain must satisfy: all
        walks accounted for, a nondecreasing CDF that is 0 inside mu and
        1 at the outer radius, and the universal lower bound for simply
        connected domains within a few standard errors."""
        v, se = table.values, table.std_errors
        r = np.array(table.radii)
        e0 = table.estimates[0]
        mu = dom.mu
        beurling = np.array([hfunction.beurling_bound(mu, float(x)) if x >= mu
                             else 0.0 for x in r])
        return bool(e0.sample_count + e0.discard_count == self.WALKS
                    and np.all(np.diff(v) >= 0.0)
                    and np.all(v[r < mu] == 0.0) and v[-1] == 1.0
                    and np.all(v >= beurling - BEURLING_SE * se))

    def fingerprint(self, job: Job):
        if job.error is not None:
            return job.error
        out = job.output
        if isinstance(out, potential.HFunctionTable):
            return tuple(out.values)
        if isinstance(out, potential.ExitEnsemble):
            return (out.kinds.tobytes(), out.moduli.tobytes(), out.discard_count)
        return tuple(tuple(a) for a in out)


WORKLOADS = {"construct": Construct(), "invert": Invert(), "measure": Measure()}
