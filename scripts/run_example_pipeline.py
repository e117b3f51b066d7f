#!/usr/bin/env python3
"""Run the full construction pipeline on the built-in jump-ramp example.

For each approximation level n the pipeline approximates the candidate by a
step function, inverts it into a circle domain, blocks the channels with the
inset-angle schedule, bounds the blocking error in closed form, and verifies
the realized h-function by Monte Carlo.  Prints a per-stage table and the
final verdict; optionally writes the boundary of each blocked domain to SVG.
The inversion of stage k + 1 runs beside the verification of stage k, so the
``sec`` column is the main thread's time on a stage: waiting for its
inversion, then blocking, verifying and the diagnostics.
"""
import argparse
import pathlib

from hmdf import cli, construct, hfunction


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-list", default="2,4,8,16",
                    help="comma-separated approximation levels")
    ap.add_argument("--samples", type=int, default=200_000,
                    help="verification walks per domain")
    ap.add_argument("--svg-dir", default=None,
                    help="write one SVG per stage into this directory")
    args = ap.parse_args()

    f = hfunction.example_jump_ramp()
    n_list = tuple(int(x) for x in args.n_list.split(","))
    rep = construct.run_pipeline(f, n_list=n_list,
                                 verify_samples=args.samples)

    c = rep.check
    print(f"candidate: mu={c.mu:g} M={c.M:g} alpha={c.alpha:g} "
          f"beta={c.beta:g} ratio={c.ratio:g} "
          f"(thresholds min {c.thresholds.m_min:.5f}) -> {c.verdict}")
    print(f"{'n':>4} {'sup-gap':>9} {'3*SE':>8} {'sigma_n':>7} "
          f"{'kappa_n':>9} {'hdiff':>8} {'residual':>9} {'sec':>6}")
    for st in rep.stages:
        print(f"{st.n:>4} {st.sup_gap:>9.4f} {3 * st.sup_gap_se:>8.4f} "
              f"{st.sigma_n:>7d} {st.kappa_n:>9.4f} {st.hdiff:>8.3f} "
              f"{st.inversion_residual:>9.2e} {st.seconds:>6.1f}")
    print(f"verdict: {rep.verdict}")

    if args.svg_dir:
        out = pathlib.Path(args.svg_dir)
        out.mkdir(parents=True, exist_ok=True)
        for st in rep.stages:
            path = out / f"blocked_n{st.n}.svg"
            path.write_text(cli.render_domain_svg(st.blocked))
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
