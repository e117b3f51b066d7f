"""Command-line interface.

Subcommands:
  compute    tabulate the h-function of a domain (wos or fd engine)
  invert     fit a circle domain to a step-function target (fd engine)
  construct  run the full certification pipeline for a candidate
  check      fast threshold certification of a candidate (no solving)
  render     deterministic SVG drawing of a domain or candidate

Exit codes: 0 success; 2 invalid input or usage; 3 engine error, an
input too large to allocate included (say, a --samples count past the
memory); 4 solver non-convergence.  Verdicts (PASS/FAIL) are reported on
stdout, not via the exit code.  HMDF_<NAME> overrides the default of --<name>
where a command takes it: HMDF_ENGINE reaches compute; HMDF_SAMPLES,
HMDF_SEED and HMDF_EPS compute and construct; HMDF_RESOLUTION all three;
HMDF_TOL invert and construct.  A malformed value exits 2 for any command.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import construct, hfunction, potential
from .geometry import BlockedCircleDomain, CircleDomain
from .hfunction import CandidateH, StepH
from .potential import OffCenterDisk, WosConfig

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ENGINE = 3
EXIT_NOCONV = 4


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# File formats.


def _load_object(path: str, what: str) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:  # nested past the parser's depth
            raise InputError(f"{path}: malformed {what} file ({exc})") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: malformed {what} file (top level is not an object)")
    return data


def _numbers(values) -> tuple[float, ...]:
    """A JSON array of numbers as floats: ValueError for an entry of any
    other type, a bool or string too, OverflowError past the float range."""
    if not all(type(x) in (int, float) for x in values):
        raise ValueError(f"expected numbers, got {values!r}")
    return tuple(map(float, values))


def load_domain(path: str):
    data = _load_object(path, "domain")
    kind = data.get("kind")
    try:
        if kind in ("circle", "blocked"):
            base = CircleDomain.from_arrays(_numbers(data["radii"]),
                                            _numbers(data["half_arclengths"]))
            return base if kind == "circle" else BlockedCircleDomain(
                base, _numbers(data["gate_angles"]))
        if kind == "offcenter-disk":
            c = _numbers(data["center"])
            if len(c) != 2:
                raise ValueError(f"center must be two numbers, got {c!r}")
            return OffCenterDisk(complex(c[0], c[1]), _numbers([data["radius"]])[0])
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed domain file ({exc})") from exc
    raise InputError(f"{path}: unknown domain kind {kind!r}")


def dump_domain(dom, path: str) -> None:
    if isinstance(dom, BlockedCircleDomain):
        data = {"kind": "blocked", "radii": list(map(float, dom.radii)),
                "half_arclengths": list(map(float, dom.psis)),
                "gate_angles": list(map(float, dom.gate_angles))}
    elif isinstance(dom, CircleDomain):
        data = {"kind": "circle", "radii": list(map(float, dom.radii)),
                "half_arclengths": list(map(float, dom.psis))}
    elif isinstance(dom, OffCenterDisk):
        data = {"kind": "offcenter-disk",
                "center": [dom.center.real, dom.center.imag],
                "radius": dom.radius}
    else:
        raise InputError(f"cannot serialize {type(dom).__name__}")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_function(path: str):
    data = _load_object(path, "function")
    kind = data.get("kind")
    try:
        if kind == "candidate":
            return CandidateH(_numbers(data["breakpoints"]),
                              _numbers(data["values"]),
                              tuple(data["segments"]))
        if kind == "step":
            return StepH(_numbers(data["radii"]), _numbers(data["values"]))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed function file ({exc})") from exc
    raise InputError(f"{path}: unknown function kind {kind!r}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, rows, header) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled for byte determinism).

_SVG_SIZE = 800


def _pt(z: complex, scale: float) -> tuple[str, str]:
    # y flipped: mathematical orientation, origin at the image center
    return (format(_SVG_SIZE / 2 + z.real * scale, ".3f"),
            format(_SVG_SIZE / 2 - z.imag * scale, ".3f"))


def _svg_doc(body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" '
            f'height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">')
    return "\n".join([head, f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
                      'fill="white"/>'] + body + ["</svg>"]) + "\n"


def render_domain_svg(dom) -> str:
    body = []
    if isinstance(dom, OffCenterDisk):
        scale = (_SVG_SIZE / 2 - 20) / (abs(dom.center) + dom.radius)
        x, y = _pt(dom.center, scale)
        body.append(f'<circle cx="{x}" cy="{y}" r="{format(dom.radius * scale, ".3f")}" '
                    'fill="none" stroke="black" stroke-width="2"/>')
        x0, y0 = _pt(0j, scale)
        body.append(f'<circle cx="{x0}" cy="{y0}" r="3" fill="red"/>')
        return _svg_doc(body)
    M = dom.outer_radius
    scale = (_SVG_SIZE / 2 - 20) / M
    cx, cy = _pt(0j, scale)
    body.append(f'<circle cx="{cx}" cy="{cy}" r="{format(M * scale, ".3f")}" '
                'fill="none" stroke="black" stroke-width="2"/>')
    for arc in dom.base.arcs[:-1]:
        r, psi = arc.radius, arc.half_arclength
        if psi <= 0.0:
            x, y = _pt(complex(r, 0.0), scale)
            body.append(f'<circle cx="{x}" cy="{y}" r="2" fill="black"/>')
            continue
        a = r * complex(math.cos(psi), -math.sin(psi))
        b = r * complex(math.cos(psi), math.sin(psi))
        x0, y0 = _pt(a, scale)
        x1, y1 = _pt(b, scale)
        rr = format(r * scale, ".3f")
        large = 1 if psi > math.pi / 2 else 0
        body.append(f'<path d="M {x0} {y0} A {rr} {rr} 0 {large} 0 {x1} {y1}" '
                    'fill="none" stroke="black" stroke-width="2"/>')
    radii = dom.radii
    for k, phi in enumerate(dom.phis.tolist()):
        for sgn in ((1.0,) if phi == 0.0 else (1.0, -1.0)):
            w = complex(math.cos(sgn * phi), math.sin(sgn * phi))
            x0, y0 = _pt(radii[k] * w, scale)
            x1, y1 = _pt(radii[k + 1] * w, scale)
            body.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" '
                        'stroke="blue" stroke-width="2"/>')
    x0, y0 = _pt(0j, scale)
    body.append(f'<circle cx="{x0}" cy="{y0}" r="3" fill="red"/>')
    return _svg_doc(body)


def render_function_svg(f) -> str:
    """Graph of a candidate or step function on [0, 1.05 M]."""
    if isinstance(f, StepH):
        M = f.radii[-1]
        ev = f
    else:
        M = f.M
        ev = lambda r: hfunction.evaluate(f, r)  # noqa: E731
    pad = 60
    w = _SVG_SIZE - 2 * pad
    xs = np.linspace(1e-9, 1.05 * M, 600)
    pts = []
    for r in xs:
        x = pad + w * r / (1.05 * M)
        y = _SVG_SIZE - pad - w * ev(float(r))
        pts.append(f"{format(x, '.3f')},{format(y, '.3f')}")
    body = [
        f'<line x1="{pad}" y1="{_SVG_SIZE - pad}" x2="{_SVG_SIZE - pad}" '
        f'y2="{_SVG_SIZE - pad}" stroke="black" stroke-width="1"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{_SVG_SIZE - pad}" '
        'stroke="black" stroke-width="1"/>',
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="red" '
        'stroke-width="2"/>',
    ]
    return _svg_doc(body)


# ---------------------------------------------------------------------------
# Subcommands.


def _env(name: str, cast, default, choices=None):
    raw = os.environ.get(f"HMDF_{name}")
    if raw is None:
        return default
    try:
        value = cast(raw)
    except ValueError:
        raise InputError(f"HMDF_{name}={raw!r} is not a valid {cast.__name__}")
    # argparse checks only given values against ``choices``, not defaults
    if choices is not None and value not in choices:
        raise InputError(f"HMDF_{name}={raw!r} is not one of {', '.join(choices)}")
    return value


ENGINES = ("wos", "fd")  # of compute; the other commands invert with fd
_SOLVE = construct.SolveSettings
_SHARED = {"samples": (int, 100_000), "eps": (float, _SOLVE.epsilon),
           "seed": (int, _SOLVE.seed), "resolution": (int, _SOLVE.resolution),
           "tol": (float, _SOLVE.tol)}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hmdf",
                                description="Harmonic measure distribution "
                                            "functions of circle-type domains")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *names):
        for name in names:
            cast, default = _SHARED[name]
            sp.add_argument(f"--{name}", type=cast, default=_env(name.upper(), cast, default))

    sp = sub.add_parser("compute", help="tabulate h(r) for a domain")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--engine", choices=ENGINES, default=_env("ENGINE", str, "wos", ENGINES))
    common(sp, "samples", "eps", "seed", "resolution")
    sp.add_argument("--radii", help="comma-separated evaluation radii")
    sp.add_argument("--grid", type=int, default=65, help="size of the default radius grid")
    sp.add_argument("--out")

    sp = sub.add_parser("invert", help="fit a circle domain to a step target")
    sp.add_argument("--function", required=True)
    common(sp, "resolution", "tol")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("construct", help="run the certification pipeline")
    sp.add_argument("--function", required=True)
    common(sp, "samples", "eps", "seed", "resolution", "tol")
    sp.add_argument("--n", default="2,4,8,16", help="comma-separated approximation levels")
    sp.add_argument("--out")

    sp = sub.add_parser("check", help="fast threshold certification")
    sp.add_argument("--function", required=True)

    sp = sub.add_parser("render", help="draw a domain or function as SVG")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--domain")
    g.add_argument("--function")
    sp.add_argument("--out", required=True)
    return p


def cmd_compute(args) -> int:
    dom = load_domain(args.domain)
    mu, M = dom.mu, dom.outer_radius
    if args.radii:
        radii = sorted(float(x) for x in args.radii.split(","))
    else:
        radii = sorted(set(np.geomspace(0.5 * mu, M, args.grid)) | {mu, M})
    if args.engine == "wos":
        table = potential.estimate_h(dom, radii, 0.0, args.samples,
                                     WosConfig(epsilon=args.eps, seed=args.seed))
        rows = [(float(r), float(e.value), float(e.std_error), e.method)
                for r, e in zip(table.radii, table.estimates)]
    else:
        if isinstance(dom, OffCenterDisk):
            print("error: the fd engine supports circle-type domains only",
                  file=sys.stderr)
            return EXIT_ENGINE
        from .fd import FdSolver
        solver = FdSolver(dom, n_theta=args.resolution)
        hv = solver.h_table(radii)
        rows = [(float(r), float(v), 0.0, "fd") for r, v in zip(radii, hv)]
    write_csv(args.out, rows, ("radius", "h", "std_error", "method"))
    return EXIT_OK


def cmd_invert(args) -> int:
    f = load_function(args.function)
    if isinstance(f, CandidateH):
        raise InputError("invert expects a step function target")
    res = construct.solve_circle_domain(f, construct.SolveSettings(
        resolution=args.resolution, tol=args.tol))
    dump_domain(res.domain, args.out)
    fd_error = (f", fd error {res.fd_error:.1e}" if math.isfinite(res.fd_error)
                else "")
    print(f"converged in {res.sweeps} sweeps, residual {res.residual:.3e} "
          f"(tolerance {args.tol:.3e}){fd_error}")
    if res.fd_error > args.tol:
        print(f"note: fd error {res.fd_error:.1e} exceeds the tolerance; the "
              f"residual is measured on the solve's own grid", file=sys.stderr)
    return EXIT_OK


def _report_json(rep: construct.ConstructionReport) -> dict:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, float) and not math.isfinite(obj):
            return None  # strict JSON has no NaN (say, a one-level fd_error)
        return obj

    return clean(dataclasses.asdict(rep))


def cmd_construct(args) -> int:
    f = load_function(args.function)
    if isinstance(f, StepH):
        raise InputError("construct expects a candidate function")
    n_list = tuple(int(x) for x in args.n.split(","))
    settings = construct.SolveSettings(tol=args.tol, resolution=args.resolution,
                                       epsilon=args.eps, seed=args.seed)
    rep = construct.run_pipeline(f, n_list, settings, verify_samples=args.samples)
    for st in rep.stages:
        print(f"n={st.n}: sup-gap {st.sup_gap:.4f} (se {st.sup_gap_se:.4f}), "
              f"sigma_n={st.sigma_n}, hdiff bound {st.hdiff:.4f}, "
              f"kappa_n {st.kappa_n:.5f}")
    print(f"verdict: {rep.verdict}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(_report_json(rep), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def cmd_check(args) -> int:
    f = load_function(args.function)
    if isinstance(f, StepH):
        raise InputError("check expects a candidate function")
    rep = construct.check_candidate(f)
    print(f"mu = {rep.mu:.6g}, M = {rep.M:.6g}, "
          f"alpha = {rep.alpha:.6g}, beta = {rep.beta:.6g}")
    print(f"gap ratio (M - mu)/mu = {rep.ratio:.6g}")
    th = rep.thresholds
    print(f"thresholds: m1 = {th.m1:.6g}, m2 = {th.m2:.6g}, m3 = {th.m3:.6g} "
          f"-> min {th.m_min:.6g}")
    print(f"necessary conditions: {'ok' if rep.necessary.ok else 'violated'}")
    print(f"verdict: {rep.verdict}")
    return EXIT_OK


def cmd_render(args) -> int:
    if args.domain:
        svg = render_domain_svg(load_domain(args.domain))
    else:
        svg = render_function_svg(load_function(args.function))
    with open(args.out, "w") as fh:
        fh.write(svg)
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {"compute": cmd_compute, "invert": cmd_invert,
                "construct": cmd_construct, "check": cmd_check,
                "render": cmd_render}
    try:
        args = _parser().parse_args(argv)  # HMDF_* defaults are read here
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:  # InputError, JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except construct.SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except (RuntimeError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE


if __name__ == "__main__":
    sys.exit(main())
