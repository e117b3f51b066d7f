"""Smoke test of the benchmark's own code at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload shrunk to a few seconds, untraced and traced, and
checks that every metric named in BENCHMARK.json is emitted with its unit
and that nothing fails.  Then perturbs results on purpose (a nudged arc
half-arclength, a shifted oracle estimate, a non-monotone h-table, a
result that changes between rounds) and checks that each is counted as a
failed job, so that ``failed`` is not vacuous.  Exits 1 on any problem.
"""
from __future__ import annotations

import dataclasses
import json
import sys

import run

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def tiny(workloads):
    c = workloads.Construct()
    c.N_LIST, c.RESOLUTION, c.VERIFY_WALKS = (2,), 128, 4000
    i = workloads.Invert()
    i.TARGETS, i.RESOLUTION = 1, 96
    m = workloads.Measure()
    m.DOMAINS, m.WALKS, m.ORACLE_WALKS, m.FD_PAIR = 3, 2000, 20_000, (128, 256)
    return {"construct": c, "invert": i, "measure": m}


def nudged(dom, k=0, by=0.05):
    from hmdf.geometry import CircleDomain
    psis = dom.psis.copy()
    psis[k] += by
    return CircleDomain.from_arrays(dom.radii, psis)


def perturbations(wl) -> None:
    c, i, m = wl["construct"], wl["invert"], wl["measure"]

    inputs = i.inputs(0)
    rnd = i.run(inputs, None)
    expect(not i.check(inputs, rnd).failed, "invert: unperturbed round passes")
    job = rnd.jobs[0]
    job.output = dataclasses.replace(job.output, domain=nudged(job.output.domain))
    failed = i.check(inputs, rnd).failed
    expect(job.name in failed, "invert: nudged psi fails its re-measure")

    inputs = c.inputs(0)
    rnd = c.run(inputs, None)
    expect(not c.check(inputs, rnd).failed, "construct: unperturbed round passes")
    st, rep = rnd.jobs[0].output
    rnd.jobs[0].output = (dataclasses.replace(st, circle=nudged(st.circle)), rep)
    expect(rnd.jobs[0].name in c.check(inputs, rnd).failed,
           "construct: nudged psi fails its re-measure")

    inputs = m.inputs(0)
    rnd = m.run(inputs, None)
    expect(not m.check(inputs, rnd).failed, "measure: unperturbed round passes")
    by_name = {j.name: j for j in rnd.jobs}
    off = by_name["offcenter wos"]
    est = off.output.estimates
    off.output = dataclasses.replace(off.output, estimates=(
        dataclasses.replace(est[0], value=est[0].value + 0.05),) + est[1:])
    dom_job = rnd.jobs[0]
    est = dom_job.output.estimates
    dom_job.output = dataclasses.replace(dom_job.output, estimates=(
        est[:-1] + (dataclasses.replace(est[-1], value=0.5),)))
    failed = m.check(inputs, rnd).failed
    expect(off.name in failed, "measure: shifted off-center estimate fails")
    expect(dom_job.name in failed, "measure: non-monotone h-table fails")

    # a later round that disagrees with the first counts as failed
    first = i.run(i.inputs(0), None)
    later = i.run(i.inputs(0), None)
    attempted, failed_n, _ = run.settle(i, i.inputs(0), [first, later])
    expect(failed_n == 0, "invert: a repeated round reproduces exactly")
    later.jobs[0].output = dataclasses.replace(
        later.jobs[0].output, domain=nudged(later.jobs[0].output.domain, by=1e-12))
    attempted, failed_n, _ = run.settle(i, i.inputs(0), [first, later])
    expect(failed_n == 1 and attempted == 2 * len(first.jobs),
           "invert: a round that differs from the first counts as failed")


def main() -> int:
    if run.load_hmdf() is None:
        return 1
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.SETUP_RUNS = 1
    wl = tiny(workloads)
    for name, workload in wl.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            attempted, failed, metrics, _ = run.bench(
                workload, 0, 0.0, trace, f"smoke-{name}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: u for k, (_, u) in metrics.items()}
            expect(got == want, f"{name} trace={int(trace)}: metrics and units "
                                f"match BENCHMARK.json {key}")
            expect(attempted > 0 and failed == 0,
                   f"{name} trace={int(trace)}: {failed}/{attempted} jobs failed")
            if trace:
                cover = metrics["trace.coverage"][0]
                expect(cover >= 0.9, f"{name}: trace coverage {cover:.3f}")
    perturbations(wl)
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
