"""Outside-in tracing of hmdf's layers.

The tracer rebinds public names of the package to wrappers that record one
span per call: name, start, end, parent span, job id, and a few counts read
from the call's arguments or result.  Nothing inside the package changes;
the wrappers are removed when the traced round ends.

Wrapped names, by layer:

- geometry:  ``hmdf.geometry.nearest_boundary``
- potential: ``hmdf.potential.wos_exit_ensemble``, ``hmdf.potential.estimate_h``
- fd:        ``FdSolver.__init__`` (on the class) and ``splu`` as bound in
             ``hmdf.fd``
- construct: ``hmdf.construct.solve_circle_domain`` and
             ``hmdf.construct.ulc_diagnostics``

``hmdf.construct`` imports ``estimate_h`` and ``wos_exit_ensemble`` by name,
so those bindings are replaced there too; ``FdSolver`` is covered by
patching the class itself.

What each layer's metrics should move (``wall_s`` is the end-to-end time):

- ``geometry.*``: ``wall_s`` on measure and the verify share of construct;
  nothing on invert.
- ``potential.wos.*``: ``wall_s`` on measure and
  ``construct.pipeline.verify_s``; zero on invert.
- ``fd.*``: ``wall_s`` on invert and construct; nothing on measure, where
  FD is under a tenth of the time.
- ``construct.solve.fd_evals_mean``: ``wall_s`` on invert and the n = 16
  stage on construct.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time

NB = "geometry.nearest_boundary"
WOS = "potential.wos_exit_ensemble"
EST = "potential.estimate_h"
FDS = "fd.FdSolver"
SPLU = "fd.splu"
SOLVE = "construct.solve_circle_domain"
ULC = "construct.ulc_diagnostics"

# span record fields
ID, NAME, START, END, PARENT, JOB, ATTRS = range(7)


class Tracer:
    """In-memory span recorder.  ``job`` is set by the caller before each
    job and stamped on every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None):
        """Return ``fn`` wrapped to record a span per call.  ``attrs`` maps
        (args, result) to a dict of counts stored on the span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, name, 0.0, 0.0, stack[-1] if stack else None,
                   self.job, None]
            spans.append(rec)
            stack.append(sid)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        from hmdf import construct, fd, geometry, potential

        def fd_attrs(args, _):
            solver = args[0]
            return {"unknowns": solver.n_unknowns,
                    "weight_sum_err": abs(1.0 - solver.weight_sum)}

        wos = self.wrap(potential.wos_exit_ensemble, WOS, lambda a, ens: {
            "walks": ens.sample_count + ens.discard_count,
            "discards": ens.discard_count})
        est = self.wrap(potential.estimate_h, EST)
        patches = [
            (geometry, "nearest_boundary",
             self.wrap(geometry.nearest_boundary, NB,
                       lambda a, _: {"points": int(a[0].size)})),
            (potential, "wos_exit_ensemble", wos),
            (construct, "wos_exit_ensemble", wos),
            (potential, "estimate_h", est),
            (construct, "estimate_h", est),
            (fd.FdSolver, "__init__",
             self.wrap(fd.FdSolver.__init__, FDS, fd_attrs)),
            # SuperLU.nnz is free; building L and U to count them would add
            # about a tenth to the traced solver time.
            (fd, "splu", self.wrap(fd.splu, SPLU,
                                   lambda a, lu: {"fill": int(lu.nnz)})),
            (construct, "solve_circle_domain",
             self.wrap(construct.solve_circle_domain, SOLVE,
                       lambda a, res: {"residual": res.residual,
                                       "sweeps": res.sweeps})),
            (construct, "ulc_diagnostics",
             self.wrap(construct.ulc_diagnostics, ULC)),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in saved:
                setattr(obj, attr, old)
            self.job = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children
        (children run inside their parent, one at a time)."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write_jsonl(self, path, t0: float) -> None:
        """Write every span as one JSON object per line, times in seconds
        from ``t0``."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s, st in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "id": s[ID], "name": s[NAME],
                    "start": round(s[START] - t0, 9),
                    "end": round(s[END] - t0, 9),
                    "self": round(st, 9), "parent": s[PARENT],
                    "job": s[JOB], **(s[ATTRS] or {})}) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, pipeline_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced round.

    ``pipeline_wall`` is the wall time of the round's ``run_pipeline``
    calls (0 when the workload runs no pipeline); the pipeline split
    assigns the top-level solve and estimate spans to invert and verify
    and the rest of the pipeline's time to other.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    by: dict[str, list[int]] = {}
    for s in spans:
        by.setdefault(s[NAME], []).append(s[ID])

    def total(name, field=None):
        ids = by.get(name, [])
        if field is None:
            return sum(spans[i][END] - spans[i][START] for i in ids)
        return sum(spans[i][ATTRS][field] for i in ids)

    def self_total(name):
        return sum(selfs[i] for i in by.get(name, []))

    def worst(name, field):
        return max((spans[i][ATTRS][field] for i in by.get(name, [])),
                   default=0.0)

    def under(child, parent):
        """Spans named ``child`` whose direct parent is named ``parent``."""
        return [i for i in by.get(child, [])
                if spans[i][PARENT] is not None
                and spans[spans[i][PARENT]][NAME] == parent]

    nb_calls = len(by.get(NB, []))
    nb_points = total(NB, "points")
    nb_s = total(NB)
    walks = total(WOS, "walks")
    wos_s = total(WOS)
    wos_points = sum(spans[i][ATTRS]["points"] for i in under(NB, WOS))
    fd_calls = len(by.get(FDS, []))
    splu_calls = len(by.get(SPLU, []))
    solve_calls = len(by.get(SOLVE, []))
    top_solve = sum(spans[i][END] - spans[i][START] for i in by.get(SOLVE, [])
                    if spans[i][PARENT] is None)
    top_est = sum(spans[i][END] - spans[i][START] for i in by.get(EST, [])
                  if spans[i][PARENT] is None)
    invert_s = top_solve if pipeline_wall else 0.0
    verify_s = top_est if pipeline_wall else 0.0
    return {
        "geometry.nearest_boundary.calls": (nb_calls, "count"),
        "geometry.nearest_boundary.points": (nb_points, "count"),
        "geometry.nearest_boundary.s": (nb_s, "s"),
        "geometry.nearest_boundary.us_per_point":
            (1e6 * _ratio(nb_s, nb_points), "us"),
        "potential.wos.walks": (walks, "count"),
        "potential.wos.discards": (total(WOS, "discards"), "count"),
        "potential.wos.s": (wos_s, "s"),
        "potential.wos.self_s": (self_total(WOS), "s"),
        "potential.wos.walks_per_s": (_ratio(walks, wos_s), "1/s"),
        "potential.wos.steps_per_walk": (_ratio(wos_points, walks), "count"),
        "fd.solver.calls": (fd_calls, "count"),
        "fd.solver.s": (total(FDS), "s"),
        "fd.solver.self_s": (self_total(FDS), "s"),
        "fd.solver.unknowns_mean":
            (_ratio(total(FDS, "unknowns"), fd_calls), "count"),
        "fd.splu.calls": (splu_calls, "count"),
        "fd.splu.s": (total(SPLU), "s"),
        "fd.splu.fill_mean": (_ratio(total(SPLU, "fill"), splu_calls), "count"),
        "fd.weight_sum_err.max": (worst(FDS, "weight_sum_err"), "1"),
        "construct.solve.calls": (solve_calls, "count"),
        "construct.solve.s": (total(SOLVE), "s"),
        "construct.solve.self_s": (self_total(SOLVE), "s"),
        "construct.solve.fd_evals_mean":
            (_ratio(len(under(FDS, SOLVE)), solve_calls), "count"),
        "construct.pipeline.invert_s": (invert_s, "s"),
        "construct.pipeline.verify_s": (verify_s, "s"),
        "construct.pipeline.other_s":
            (max(pipeline_wall - invert_s - verify_s, 0.0)
             if pipeline_wall else 0.0, "s"),
        "trace.spans": (len(spans), "count"),
    }


def coverage(tracer: Tracer, wall: float) -> float:
    """Share of ``wall`` covered by top-level spans."""
    top = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] is None)
    return _ratio(top, wall)
