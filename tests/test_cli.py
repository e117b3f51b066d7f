"""CLI: file round trips, exit codes, deterministic outputs."""
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from hmdf import cli, construct
from hmdf.geometry import BlockedCircleDomain, CircleDomain
from hmdf.hfunction import CandidateH, StepH
from hmdf.potential import OffCenterDisk


def run_cli(args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "hmdf.cli", *args],
                          capture_output=True, text=True, env=full_env)


@pytest.fixture
def files(tmp_path):
    dom = {"kind": "blocked", "radii": [1.0, 1.4, 2.0],
           "half_arclengths": [1.1, 0.7, math.pi], "gate_angles": [0.3, 0.0]}
    fn = {"kind": "candidate", "breakpoints": [1.0, 1.0992],
          "values": [0.5, 1.0], "segments": ["linear"]}
    step = {"kind": "step", "radii": [1.0, 2.0], "values": [0.5, 1.0]}
    paths = {}
    for name, data in (("dom", dom), ("fn", fn), ("step", step)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


class TestFileRoundTrips:
    def test_domain(self, tmp_path):
        doms = [
            CircleDomain.from_arrays([1.0, 2.0], [0.5, math.pi]),
            BlockedCircleDomain(
                CircleDomain.from_arrays([1.0, 2.0], [0.5, math.pi]), (0.2,)),
            OffCenterDisk(0.5 + 0.25j, 1.0),
        ]
        for i, d in enumerate(doms):
            p = str(tmp_path / f"d{i}.json")
            cli.dump_domain(d, p)
            assert cli.load_domain(p) == d

    def test_function(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text(json.dumps(_CANDIDATE))
        assert cli.load_function(str(p)) == CandidateH((1.0, 2.0), (0.5, 1.0),
                                                        ("linear",))
        p.write_text(json.dumps(_STEP))
        assert cli.load_function(str(p)) == StepH((1.0, 2.0), (0.5, 1.0))


class TestExitCodes:
    def test_check_pass_exits_zero(self, files):
        r = run_cli(["check", "--function", files["fn"]])
        assert r.returncode == 0
        assert "verdict: PASS" in r.stdout
        assert "alpha = 0.5" in r.stdout

    def test_check_fail_still_exits_zero(self, files, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "candidate",
                                 "breakpoints": [1.0, 1.5],
                                 "values": [0.5, 1.0], "segments": ["linear"]}))
        r = run_cli(["check", "--function", str(p)])
        assert r.returncode == 0
        assert "verdict: FAIL" in r.stdout

    def test_missing_file_exits_two(self):
        r = run_cli(["check", "--function", "/nonexistent.json"])
        assert r.returncode == 2

    def test_malformed_json_exits_two(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        r = run_cli(["check", "--function", str(p)])
        assert r.returncode == 2

    def test_non_object_json_exits_two(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1.0, 2.0]")
        for args in (["compute", "--domain", str(p)],
                     ["check", "--function", str(p)]):
            r = run_cli(args)
            assert r.returncode == 2
            assert r.stderr.startswith("error:") and "Traceback" not in r.stderr

    def test_bad_env_value_exits_two(self, files):
        r = run_cli(["check", "--function", files["fn"]], env={"HMDF_SEED": "abc"})
        assert r.returncode == 2
        assert r.stderr.startswith("error: HMDF_SEED")

    def test_non_finite_input_exits_two(self, tmp_path):
        dom = tmp_path / "nan_dom.json"
        dom.write_text(json.dumps({"kind": "circle", "radii": [1.0, math.nan],
                                   "half_arclengths": [0.5, math.pi]}))
        fn = tmp_path / "nan_fn.json"
        fn.write_text(json.dumps({"kind": "candidate",
                                  "breakpoints": [1.0, math.inf],
                                  "values": [0.5, 1.0], "segments": ["linear"]}))
        disk = tmp_path / "nan_disk.json"
        disk.write_text(json.dumps({"kind": "offcenter-disk",
                                    "center": [math.nan, 0.0], "radius": 1.0}))
        good_disk = tmp_path / "disk.json"
        good_disk.write_text(json.dumps({"kind": "offcenter-disk",
                                         "center": [0.5, 0.0], "radius": 1.0}))
        step = tmp_path / "step.json"
        step.write_text(json.dumps(_STEP))
        circle = tmp_path / "circle.json"
        circle.write_text(json.dumps(_CIRCLE))
        for args in (["compute", "--domain", str(dom), "--engine", "fd"],
                     ["check", "--function", str(fn)],
                     ["compute", "--domain", str(disk), "--engine", "wos"],
                     ["compute", "--domain", str(good_disk), "--engine", "wos",
                      "--eps", "inf"],
                     ["invert", "--function", str(step), "--tol", "nan",
                      "--out", str(tmp_path / "x.json")],
                     ["compute", "--domain", str(good_disk), "--engine", "wos",
                      "--radii", "1.0,nan"],
                     ["compute", "--domain", str(circle), "--engine", "wos",
                      "--radii", "1.0,inf"],
                     ["compute", "--domain", str(circle), "--engine", "fd",
                      "--radii", "1.0,nan"]):
            r = run_cli(args)
            assert r.returncode == 2
            assert "finite" in r.stderr

    def test_malformed_domain_arrays_exit_two(self, tmp_path):
        # a radius without its half-arclength, and a three-number center
        short = {"radii": [1.0, 1.4, 2.0], "half_arclengths": [1.1, math.pi]}
        for name, data in (
                ("circle", {"kind": "circle", **short}),
                ("blocked", {"kind": "blocked", **short, "gate_angles": [0.3]}),
                ("disk", {"kind": "offcenter-disk", "center": [0.5, 0.0, 0.0],
                          "radius": 1.0})):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(data))
            r = run_cli(["compute", "--domain", str(p), "--radii", "1.5"])
            assert r.returncode == 2, name
            assert r.stderr.startswith("error:") and "malformed" in r.stderr
            assert r.stdout == ""

    def test_one_step_stage_exits_zero(self, tmp_path):
        # f(mu) = 0 makes stage n = 1 the disk B(0, M), whose ULC levels
        # raised "need 0 < delta <= M - mu": exit 2, as if the file were bad
        fn, out = tmp_path / "fn.json", tmp_path / "out.json"
        fn.write_text(json.dumps({**_CANDIDATE, "values": [0.0, 1.0]}))
        r = run_cli(["construct", "--function", str(fn), "--n", "1,2",
                     "--out", str(out)], _GOOD)
        assert r.returncode == 0, r.stderr
        disk = json.loads(out.read_text())["stages"][0]
        assert [u["delta1"] for u in disk["ulc"]] == [0.0] * 3

    def test_non_positive_jump_radius_exits_two(self, tmp_path):
        step = tmp_path / "step.json"
        step.write_text(json.dumps({"kind": "step", "radii": [-0.5, 1.0],
                                    "values": [0.5, 1.0]}))
        r = run_cli(["invert", "--function", str(step),
                     "--out", str(tmp_path / "x.json")])
        assert r.returncode == 2
        assert r.stderr.startswith("error:") and "positive" in r.stderr

    def test_bad_resolution_exits_two(self, files):
        for res in ("0", "-4"):
            r = run_cli(["compute", "--domain", files["dom"], "--engine", "fd",
                         "--resolution", res])
            assert r.returncode == 2
            assert r.stderr.startswith("error: fd resolution must be at least")

    def test_unknown_engine_env_exits_two(self, files):
        r = run_cli(["compute", "--domain", files["dom"], "--radii", "1.5"],
                    env={"HMDF_ENGINE": "foo"})
        assert r.returncode == 2
        assert r.stderr.startswith("error: HMDF_ENGINE='foo' is not one of")
        assert r.stdout == ""

    def test_levels_not_increasing_exit_two(self, files):
        for levels in ("4,2", "2,2"):
            r = run_cli(["construct", "--function", files["fn"], "--n", levels])
            assert r.returncode == 2, levels
            assert r.stderr.startswith("error: approximation levels must be "
                                       "strictly increasing")
            assert r.stdout == ""

    def test_bad_eps_exits_before_any_inversion(self, files):
        # the pipeline checks its WoS settings before the n = 2 inversion
        err = io.StringIO()
        with mock.patch.object(construct, "solve_circle_domain") as solve, \
                contextlib.redirect_stderr(err):
            assert cli.main(["construct", "--function", files["fn"],
                             "--eps", "0"]) == 2
        solve.assert_not_called()
        assert err.getvalue() == ("error: epsilon must be positive and "
                                  "finite, got 0.0\n")

    def test_invalid_domain_exits_two(self, tmp_path):
        # decreasing radii: every engine and render refuse the file alike
        p = tmp_path / "dec.json"
        p.write_text(json.dumps({"kind": "circle", "radii": [2.0, 1.0],
                                 "half_arclengths": [0.5, math.pi]}))
        for args in (["compute", "--domain", str(p)],
                     ["compute", "--domain", str(p), "--engine", "fd"],
                     ["render", "--domain", str(p),
                      "--out", str(tmp_path / "dec.svg")]):
            r = run_cli(args)
            assert r.returncode == 2, args
            assert r.stderr == (f"error: {p}: malformed domain file "
                                f"(radii not increasing)\n")
            assert r.stdout == ""
        assert not (tmp_path / "dec.svg").exists()

    def test_fd_on_offcenter_exits_three(self, tmp_path):
        p = tmp_path / "oc.json"
        p.write_text(json.dumps({"kind": "offcenter-disk",
                                 "center": [0.5, 0.0], "radius": 1.0}))
        r = run_cli(["compute", "--domain", str(p), "--engine", "fd"])
        assert r.returncode == 3

    def test_fd_unresolved_radius_gap_exits_three(self, tmp_path):
        # read off this grid, h(2) was 1.0751523349308845 with exit 0
        p = tmp_path / "gap.json"
        p.write_text(json.dumps({"kind": "circle",
                                 "radii": [1.0, 1.000000000000001, 2.0],
                                 "half_arclengths": [1.0, 2.0, math.pi]}))
        r = run_cli(["compute", "--domain", str(p), "--engine", "fd",
                     "--resolution", "64", "--radii", "1.5,2.0"])
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.startswith("engine error: fd weights sum to 1.075")
        assert r.stderr.count("\n") == 1  # no RuntimeWarning lines

    def test_samples_past_memory_exit_three(self, files):
        # the first allocation of 10^13 walks fails at once, before any walk
        r = run_cli(["compute", "--domain", files["dom"], "--engine", "wos",
                     "--samples", "10000000000000"])
        assert r.returncode == 3
        assert r.stderr.startswith("engine error: Unable to allocate")
        assert r.stderr.count("\n") == 1 and r.stdout == ""

    def test_nonconvergence_exits_four(self, files):
        r = run_cli(["invert", "--function", files["step"],
                     "--tol", "1e-18", "--resolution", "96",
                     "--out", str(files["tmp"] / "x.json")])
        assert r.returncode == 4


class TestCompute:
    def test_csv_format(self, files):
        r = run_cli(["compute", "--domain", files["dom"], "--engine", "fd",
                     "--radii", "1.0,2.0"])
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "radius,h,std_error,method"
        row = lines[1].split(",")
        assert row[3] == "fd"
        # full precision: 17 significant digits survive a round trip
        assert float(row[1]) == float(format(float(row[1]), ".17g"))

    def test_env_override_seed(self, files):
        a = run_cli(["compute", "--domain", files["dom"], "--engine", "wos",
                     "--samples", "2000", "--radii", "1.5"],
                    env={"HMDF_SEED": "5"})
        b = run_cli(["compute", "--domain", files["dom"], "--engine", "wos",
                     "--samples", "2000", "--radii", "1.5", "--seed", "5"])
        assert a.stdout == b.stdout

    def test_byte_determinism(self, files):
        args = ["compute", "--domain", files["dom"], "--engine", "wos",
                "--samples", "3000", "--seed", "3", "--radii", "1.0,1.5,2.0"]
        assert run_cli(args).stdout == run_cli(args).stdout


class TestInvertRoundTrip:
    def test_invert_then_compute(self, files):
        out = str(files["tmp"] / "sol.json")
        r = run_cli(["invert", "--function", files["step"], "--out", out])
        assert r.returncode == 0
        r2 = run_cli(["compute", "--domain", out, "--engine", "fd",
                      "--radii", "1.0,2.0"])
        lines = r2.stdout.strip().splitlines()
        h1 = float(lines[1].split(",")[1])
        h2 = float(lines[2].split(",")[1])
        assert abs(h1 - 0.5) <= 1e-3
        assert abs(h2 - 1.0) <= 1e-6

    def test_golden_fd_inversion(self, tmp_path):
        # stdout and domain file of the fd inversion at resolution 256,
        # frozen byte for byte, from the default (profile) start
        radii, values = [1.0, 1.4, 2.0], [0.3, 0.65, 1.0]
        step = tmp_path / "step.json"
        step.write_text(json.dumps({"kind": "step", "radii": radii,
                                    "values": values}))
        out = tmp_path / "sol.json"
        args = ["invert", "--function", str(step), "--resolution", "256",
                "--out", str(out)]
        r = run_cli(args)
        assert r.returncode == 0
        assert r.stdout == ("converged in 7 sweeps, residual 4.441e-06 "
                            "(tolerance 1.000e-03), fd error 3.7e-03\n")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5325e3a0bb9742cc0524fda1616799d858b97af1123a0710e2fe21abf1fcc417")
        # the jump-proportional start, frozen the same way
        old = tmp_path / "proportional.json"
        res = construct.solve_circle_domain(
            StepH(tuple(radii), tuple(values)),
            construct.SolveSettings(resolution=256, warm_start="proportional"))
        cli.dump_domain(res.domain, str(old))
        assert hashlib.sha256(old.read_bytes()).hexdigest() == (
            "dc80ba71036245f684ec299abe6c430d4dc50c11308b6259b378acf6b0c6459b")
        # invert reads no engine, walk count, walk epsilon or seed
        for flag, value in (("--engine", "fd"), ("--samples", "10"),
                            ("--eps", "1e-3"), ("--seed", "1")):
            r = run_cli([*args, flag, value])
            assert r.returncode == 2, flag
            assert "unrecognized arguments" in r.stderr


    def test_fd_error_above_tol_noted(self, tmp_path):
        # a converged solve whose grid error exceeds tol says so on stderr;
        # stdout and the exit code stay those of a converged solve
        step = tmp_path / "step.json"
        step.write_text(json.dumps({"kind": "step", "radii": [1.0, 1.4, 2.0],
                                    "values": [0.3, 0.65, 1.0]}))
        r = run_cli(["invert", "--function", str(step), "--resolution", "64",
                     "--out", str(tmp_path / "sol.json")])
        assert r.returncode == 0
        assert r.stdout.startswith("converged in ")
        assert r.stdout.endswith(", fd error 1.7e-02\n")
        assert r.stderr == ("note: fd error 1.7e-02 exceeds the tolerance; the "
                            "residual is measured on the solve's own grid\n")
        r = run_cli(["invert", "--function", str(step), "--resolution", "64",
                     "--tol", "0.05", "--out", str(tmp_path / "sol.json")])
        assert r.returncode == 0 and r.stderr == ""


class TestConstructReport:
    @pytest.mark.parametrize("resolution", ["14", "32"])
    def test_strict_json_with_fd_error(self, files, resolution):
        out = str(files["tmp"] / "rep.json")
        r = run_cli(["construct", "--function", files["fn"], "--n", "2",
                     "--resolution", resolution, "--tol", "3e-2",
                     "--samples", "2000", "--out", out])
        assert r.returncode == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        with open(out) as fh:
            stage = json.load(fh, parse_constant=reject)["stages"][0]
        fd_error = stage["fd_error"]
        if resolution == "14":
            assert fd_error is None  # one level: no grid-error estimate
        else:
            assert 0.0 < fd_error < 0.1

    def test_stdout_deterministic_under_any_clock(self, files):
        # the stage wall time stays in the report, off seeded stdout
        args = ["construct", "--function", files["fn"], "--n", "2",
                "--resolution", "32", "--tol", "3e-2", "--samples", "2000"]
        outs = []
        for step in (1.0, 7.3):
            clock = itertools.count(0.0, step)
            buf = io.StringIO()
            with mock.patch.object(construct.time, "perf_counter",
                                   lambda: next(clock)), \
                    contextlib.redirect_stdout(buf):
                assert cli.main(args) == 0
            outs.append(buf.getvalue())
        assert outs[0] == outs[1] and "verdict" in outs[0]


class TestRender:
    def test_domain_svg_deterministic(self, files):
        o1 = str(files["tmp"] / "a.svg")
        o2 = str(files["tmp"] / "b.svg")
        assert run_cli(["render", "--domain", files["dom"], "--out", o1]).returncode == 0
        assert run_cli(["render", "--domain", files["dom"], "--out", o2]).returncode == 0
        s1 = open(o1, "rb").read()
        assert s1 == open(o2, "rb").read()
        assert s1.startswith(b"<svg")
        assert b"<line" in s1  # gates drawn

    def test_empty_gate_domain_without_gate_strokes(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kind": "circle", "radii": [1.0, 2.0],
                                 "half_arclengths": [0.5, math.pi]}))
        o = str(tmp_path / "c.svg")
        assert run_cli(["render", "--domain", str(p), "--out", o]).returncode == 0
        assert b"<line" not in open(o, "rb").read()

    def test_non_finite_domain_exits_two(self, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text(json.dumps({"kind": "circle", "radii": [1.0, math.nan],
                                 "half_arclengths": [0.5, math.pi]}))
        o = tmp_path / "nan.svg"
        r = run_cli(["render", "--domain", str(p), "--out", str(o)])
        assert r.returncode == 2
        assert "finite" in r.stderr
        assert not o.exists()

    def test_function_svg(self, files):
        o = str(files["tmp"] / "f.svg")
        assert run_cli(["render", "--function", files["fn"], "--out", o]).returncode == 0
        assert b"polyline" in open(o, "rb").read()


# ---------------------------------------------------------------------------
# Fuzzing: every input ends in a documented exit code, never a traceback.
# Inputs are mostly well formed, with at most one flaw each, so that
# the runs reach the engines and not only the file readers.

_BAD_NUMBERS = st.sampled_from([math.nan, math.inf, -1.0, 0.0, "a", None])


@st.composite
def _corrupted(draw, data):
    """``data`` with at most one flaw: a number replaced by a bad value, a
    list entry dropped, or a key dropped."""
    numbers = [(k, i) for k, v in data.items() if isinstance(v, list)
               for i in range(len(v))]
    numbers += [(k, None) for k, v in data.items() if isinstance(v, float)]
    flaw = draw(st.sampled_from(["none", "number", "entry", "key"]))
    if flaw == "number" and numbers:
        key, i = draw(st.sampled_from(numbers))
        bad = draw(_BAD_NUMBERS)
        if i is None:
            data[key] = bad
        else:
            data[key][i] = bad
    elif flaw == "entry" and numbers:
        key, i = draw(st.sampled_from(numbers))
        if i is None:
            del data[key]
        else:
            del data[key][i]
    elif flaw == "key":
        del data[draw(st.sampled_from(sorted(data)))]
    return data


def _increasing(n, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n,
                    unique=True).map(sorted)


@st.composite
def _domain_data(draw):
    kind = draw(st.sampled_from(["circle", "blocked", "offcenter-disk"]))
    if kind == "offcenter-disk":
        data = {"kind": kind, "radius": draw(st.floats(0.5, 2.0)),
                "center": [draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))]}
    else:
        n = draw(st.integers(0, 3))
        psis = draw(st.lists(st.floats(0.0, math.pi), min_size=n, max_size=n))
        psis.append(math.pi)
        data = {"kind": kind, "radii": draw(_increasing(n + 1, 0.5, 3.0)),
                "half_arclengths": psis}
        if kind == "blocked":
            data["gate_angles"] = [draw(st.floats(0.0, min(psis[k], psis[k + 1])))
                                   for k in range(n)]
    return draw(_corrupted(data))


@st.composite
def _function_data(draw):
    kind = draw(st.sampled_from(["candidate", "step"]))
    n = draw(st.integers(1, 3))
    values = draw(_increasing(n, 0.05, 0.95)) + [1.0]
    radii = draw(_increasing(n + 1, 0.5, 3.0))
    if kind == "step":
        data = {"kind": kind, "radii": radii, "values": values}
    else:
        segs = st.sampled_from(["linear", "constant", "bogus"])
        data = {"kind": kind, "breakpoints": radii, "values": values,
                "segments": [draw(segs) for _ in range(n)]}
    return draw(_corrupted(data))


_NON_OBJECTS = st.sampled_from([[1.0, 2.0], 3, "text", None, {"kind": "bogus"}])
_GOOD_ENV = st.fixed_dictionaries({
    "HMDF_SAMPLES": st.just("200"),  # SAMPLES and RESOLUTION are always set,
    "HMDF_RESOLUTION": st.sampled_from(["8", "24"]),  # to keep runs small
    "HMDF_ENGINE": st.sampled_from([None, "wos", "fd"]),
    "HMDF_SEED": st.sampled_from([None, "7"]),
    "HMDF_EPS": st.sampled_from([None, "1e-3"]),
    "HMDF_TOL": st.sampled_from([None, "1e-2"]),
})
_BAD_ENV = st.sampled_from([
    ("HMDF_SAMPLES", "0"), ("HMDF_SAMPLES", "x"), ("HMDF_RESOLUTION", "0"),
    ("HMDF_RESOLUTION", "-4"), ("HMDF_RESOLUTION", "x"), ("HMDF_ENGINE", "foo"),
    ("HMDF_ENGINE", ""), ("HMDF_SEED", "-1"), ("HMDF_SEED", "x"),
    ("HMDF_EPS", "0"), ("HMDF_EPS", "nan"), ("HMDF_EPS", "inf"),
    ("HMDF_TOL", "0"), ("HMDF_TOL", "nan"), ("HMDF_TOL", "x")])
_ENV = st.tuples(_GOOD_ENV, st.one_of(st.none(), _BAD_ENV)).map(
    lambda t: t[0] if t[1] is None else {**t[0], t[1][0]: t[1][1]})
_COMMANDS = (
    ("compute", "--domain", "{dom}", "--grid", "5"),
    ("render", "--domain", "{dom}", "--out", "{out}"),
    ("invert", "--function", "{fn}", "--out", "{out}"),
    ("construct", "--function", "{fn}", "--n", "2"),
    ("check", "--function", "{fn}"),
    ("render", "--function", "{fn}", "--out", "{out}"),
)


_CIRCLE = {"kind": "circle", "radii": [1.0, 2.0],
           "half_arclengths": [0.5, math.pi]}
_STEP = {"kind": "step", "radii": [1.0, 2.0], "values": [0.5, 1.0]}
_CANDIDATE = {"kind": "candidate", "breakpoints": [1.0, 2.0],
              "values": [0.5, 1.0], "segments": ["linear"]}
_GOOD = {"HMDF_SAMPLES": "200", "HMDF_RESOLUTION": "24"}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# an fd resolution of 0 divided by zero (in compute, and in construct's
# filler counts); a one-entry center list raised IndexError: all were
# tracebacks with exit code 1
@example(_COMMANDS[0], _CIRCLE, _STEP,
         {**_GOOD, "HMDF_ENGINE": "fd", "HMDF_RESOLUTION": "0"})
@example(_COMMANDS[3], _CIRCLE, _CANDIDATE,
         {**_GOOD, "HMDF_RESOLUTION": "0"})
@example(_COMMANDS[0], {"kind": "offcenter-disk", "center": [0.5], "radius": 1.0},
         _STEP, _GOOD)
# a walk count past the memory ended in a MemoryError traceback (exit 1);
# its first allocation fails at once, before any walk
@example(_COMMANDS[0], _CIRCLE, _STEP,
         {**_GOOD, "HMDF_ENGINE": "wos", "HMDF_SAMPLES": "10000000000000"})
@example(_COMMANDS[3], _CIRCLE, _CANDIDATE,
         {**_GOOD, "HMDF_SAMPLES": "10000000000000"})
@given(st.sampled_from(_COMMANDS), st.one_of(_domain_data(), _NON_OBJECTS),
       st.one_of(_function_data(), _NON_OBJECTS), _ENV)
def test_fuzzed_inputs_exit_with_documented_codes(command, dom, fn, env):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"dom": os.path.join(tmp, "dom.json"),
                 "fn": os.path.join(tmp, "fn.json"),
                 "out": os.path.join(tmp, "out")}
        for key, data in (("dom", dom), ("fn", fn)):
            with open(paths[key], "w") as fh:
                json.dump(data, fh)
        argv = [a.format(**paths) for a in command]
        with mock.patch.dict(os.environ), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for name, value in env.items():
                os.environ.pop(name, None)
                if value is not None:
                    os.environ[name] = value
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("bad", [str(10 ** 400), "true", '"1.0"',
                                 "[" * 100_000 + "]" * 100_000],
                         ids=["huge-int", "true", "string", "nested"])
@pytest.mark.parametrize("command", _COMMANDS[:5], ids=lambda c: c[0])
def test_non_number_in_file_exits_two(command, bad, tmp_path):
    # the JSON text bad stands where 1.0 makes each file valid: an integer
    # past the float range ended in an OverflowError traceback, true and
    # "1.0" read 1.0, and arrays nested past the parser's depth (which
    # json.dumps cannot write) raised RecursionError and exited 3
    fn = _STEP if command[0] == "invert" else _CANDIDATE
    paths = {"dom": tmp_path / "dom.json", "fn": tmp_path / "fn.json",
             "out": tmp_path / "out"}
    paths["dom"].write_text(
        json.dumps({**_CIRCLE, "radii": [None, 2.0]}).replace("null", bad))
    paths["fn"].write_text(
        json.dumps({**fn, "values": [0.5, None]}).replace("null", bad))
    err = io.StringIO()
    with mock.patch.dict(os.environ, _GOOD), contextlib.redirect_stderr(err):
        code = cli.main([a.format(**paths) for a in command])
    assert code == 2 and ": malformed " in err.getvalue()
