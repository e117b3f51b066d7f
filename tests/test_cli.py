"""CLI: file round trips, exit codes, deterministic outputs."""
import json
import math
import os
import subprocess
import sys

import pytest

from hmdf import cli
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
        p = str(tmp_path / "f.json")
        f = CandidateH((1.0, 2.0), (0.5, 1.0), ("linear",))
        p2 = str(tmp_path / "s.json")
        (tmp_path / "f.json").write_text(json.dumps(
            {"kind": "candidate", "breakpoints": [1.0, 2.0],
             "values": [0.5, 1.0], "segments": ["linear"]}))
        assert cli.load_function(p) == f
        (tmp_path / "s.json").write_text(json.dumps(
            {"kind": "step", "radii": [1.0, 2.0], "values": [0.5, 1.0]}))
        assert cli.load_function(p2) == StepH((1.0, 2.0), (0.5, 1.0))


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
        for args in (["compute", "--domain", str(dom), "--engine", "fd"],
                     ["check", "--function", str(fn)]):
            r = run_cli(args)
            assert r.returncode == 2
            assert "finite" in r.stderr

    def test_fd_on_offcenter_exits_three(self, tmp_path):
        p = tmp_path / "oc.json"
        p.write_text(json.dumps({"kind": "offcenter-disk",
                                 "center": [0.5, 0.0], "radius": 1.0}))
        r = run_cli(["compute", "--domain", str(p), "--engine", "fd"])
        assert r.returncode == 3

    def test_nonconvergence_exits_four(self, files):
        r = run_cli(["invert", "--function", files["step"], "--engine", "fd",
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
        r = run_cli(["invert", "--function", files["step"], "--engine", "fd",
                     "--out", out])
        assert r.returncode == 0
        r2 = run_cli(["compute", "--domain", out, "--engine", "fd",
                      "--radii", "1.0,2.0"])
        lines = r2.stdout.strip().splitlines()
        h1 = float(lines[1].split(",")[1])
        h2 = float(lines[2].split(",")[1])
        assert abs(h1 - 0.5) <= 1e-3
        assert abs(h2 - 1.0) <= 1e-6


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

    def test_function_svg(self, files):
        o = str(files["tmp"] / "f.svg")
        assert run_cli(["render", "--function", files["fn"], "--out", o]).returncode == 0
        assert b"polyline" in open(o, "rb").read()
