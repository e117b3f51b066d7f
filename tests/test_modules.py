"""Every script imports, four scripts' ``main`` run to exit 0 on small
inputs, and every name a module exports exists, so a deletion that
leaves a dangling import or ``__all__`` entry fails here;
nor does a module or script import a name it never uses, nor does a
module export a function or a settings class hold a field that only the
tests use.
SciPy loads only where an engine needs it, so commands that do not use
the fd engine start without it, an inversion loads no more of it than
the fd engine's sparse solver, and a one-batch WoS ensemble starts no
thread pool.  The benchmark's smoke check passes, so a change that breaks
its metric set, a workload check or a job fails here."""
import ast
import dataclasses
import importlib
import inspect
import math
import os
import pathlib
import pkgutil
import runpy
import subprocess
import sys

import pytest

import hmdf
from hmdf import potential
from hmdf.construct import SolveSettings
from hmdf.geometry import CircleDomain
from hmdf.potential import WosConfig

ROOT = pathlib.Path(__file__).parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(hmdf.__path__))
SOURCES = sorted(pathlib.Path(hmdf.__file__).parent.glob("*.py")) + SCRIPTS
# Every file outside the tests that may construct a settings class.
CALLERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for every name ``source`` imports and never reads.
    A ``__future__`` import, a name listed in ``__all__`` and an import
    statement marked ``# noqa: F401`` count as used."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if (getattr(node, "module", None) == "__future__"
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    # any run name but "__main__" runs the imports and skips main()
    runpy.run_path(str(path), run_name="imported")


SCRIPT_RUNS = {  # small inputs, and how each script's output begins
    "oracle_triangle": ("--samples 20000", "off-center disk B(0.5, 1):"),
    "nearest_boundary_cost": ("--walks 500 --arcs 1,2 --ramp-arcs 2 "
                              "--repeats 1", "domain arcs  calls"),
    "run_example_pipeline": ("--n-list 2 --samples 2000", "candidate: mu=1 "),
    "invert_demo": ("--resolution 64", "converged in "),
}


@pytest.mark.parametrize("name", SCRIPT_RUNS)
def test_script_main(name):
    args, header = SCRIPT_RUNS[name]
    out = run_fresh(str(ROOT / "scripts" / f"{name}.py"), *args.split())
    assert out.startswith(header)


def test_fd_cost_build_row():
    # each build records its layer seconds, which sum to at most the whole
    # build that fd_cost times around the constructor, and its LU fill
    build = runpy.run_path(str(ROOT / "scripts" / "fd_cost.py"),
                           run_name="imported")["build"]
    dom = CircleDomain.from_arrays([1.0, 1.5, 2.0], [1.0, 0.5, math.pi])
    solver, row = build(dom, 64)
    assert sorted(solver.seconds) == ["assemble", "factor", "label", "solve"]
    assert sorted(row) == ["assemble", "build", "factor", "jacobian",
                           "label", "solve"]
    assert 0.0 <= min(solver.seconds.values())
    assert sum(solver.seconds.values()) <= row["build"]
    assert solver.lu_nnz == solver._lu.nnz > 0


def test_nearest_boundary_cost_records_every_query():
    script = runpy.run_path(str(ROOT / "scripts" / "nearest_boundary_cost.py"),
                            run_name="imported")
    dom = script["random_blocked"](11, 1)  # the 2-arc domain at seed 11
    steps, exits = script["record_calls"](dom, 500, 11)
    ens = potential.wos_exit_ensemble(dom, 0.0, 500, WosConfig(seed=11))
    # the interior check and the one start query of all walks pass a point
    # each; every later step queries each live walk's point
    assert sum(z.size for z in steps) == ens.steps - 500 + 2
    assert sum(z.size for z, _ in exits) == ens.sample_count


def test_benchmark_smoke():
    # the benchmark's own smoke check: each workload at tiny sizes emits
    # the metrics of BENCHMARK.json and passes its checks, and each
    # deliberate perturbation counts as a failed job
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "0 problems"


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"hmdf.{name}")
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []


def referenced(name: str, sources) -> bool:
    """Whether any of the ``sources`` reads ``name``, as a bare name or an
    attribute, outside a ``def`` of that name (an ``__all__`` entry is a
    string, not a read)."""
    for source in sources:
        todo = [ast.parse(source)]
        while todo:
            node = todo.pop()
            if isinstance(node, ast.FunctionDef) and node.name == name:
                continue
            if getattr(node, "id", getattr(node, "attr", None)) == name:
                return True
            todo.extend(ast.iter_child_nodes(node))
    return False


def test_referenced():
    source = ("__all__ = ['f', 'g', 'h']\n"
              "def f(x):\n"
              "    return f(x - 1)\n"
              "def h():\n"
              "    return mod.g\n")
    assert [n for n in "fgh" if referenced(n, [source])] == ["g"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_used_outside_the_tests(name):
    # a public function that only the tests call is test code in disguise
    module = importlib.import_module(f"hmdf.{name}")
    sources = [p.read_text() for p in CALLERS]
    assert [n for n in getattr(module, "__all__", ())
            if inspect.isfunction(getattr(module, n))
            and not referenced(n, sources)] == []


def test_unused_import_check():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from math import (pi,\n"
              "                  tau)  # noqa: F401\n"
              "from sys import argv, path\n"
              "__all__ = ['path']\n"
              "print(argv)\n")
    assert unused_imports(source) == ["2: os", "2: osp"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def keywords_passed(name: str, sources) -> set[str]:
    """The keyword names passed to every call of a callable named ``name``
    (a bare name or an attribute) in the ``sources``."""
    out = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == name):
                out.update(k.arg for k in node.keywords if k.arg)
    return out


def test_keywords_passed():
    source = ("SolveSettings(tol=1e-3, **extra)\n"
              "construct.SolveSettings(seed=2)\n"
              "replace(settings, epsilon=1.0)\n"
              "SolveSettings.resolution\n")
    assert keywords_passed("SolveSettings", [source]) == {"tol", "seed"}


@pytest.mark.parametrize("cls", [SolveSettings, WosConfig],
                         ids=lambda c: c.__name__)
def test_every_setting_is_passed_outside_the_tests(cls):
    # a field that no caller passes by name is a constant in disguise
    passed = keywords_passed(cls.__name__, (p.read_text() for p in CALLERS))
    assert {f.name for f in dataclasses.fields(cls)} - passed == set()


def run_fresh(*argv):
    """Standard output of ``python *argv`` run in a fresh interpreter on
    this package; it must exit 0."""
    src = pathlib.Path(hmdf.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("module, prefix", [("hmdf.cli", "scipy")])
def test_import_loads_no_scipy(module, prefix):
    code = (f"import sys, {module}\n"
            f"p = {prefix!r}\n"
            "print([m for m in sys.modules if m == p or m.startswith(p + '.')])")
    assert run_fresh("-c", code) == "[]\n"


def test_import_loads_no_thread_pool():
    # run_pipeline imports the pool when it runs, so the benchmark's
    # setup, which imports construct, never loads it
    code = ("import sys, hmdf.cli, hmdf.construct\n"
            "print('concurrent.futures' in sys.modules)")
    assert run_fresh("-c", code) == "False\n"


def test_inversion_loads_no_optimizer():
    # jump-ramp n = 4 at 64 crosses filler-count thresholds on its way in
    code = """\
import sys
from hmdf import construct, hfunction
steps = hfunction.step_approximation(hfunction.example_jump_ramp(), 4)
res = construct.solve_circle_domain(steps, construct.SolveSettings(resolution=64))
print(res.converged, [m for m in sys.modules if m.startswith("scipy.optimize")])
"""
    assert run_fresh("-c", code) == "True []\n"


def test_one_batch_ensemble_starts_no_thread_pool():
    # the benchmark's setup call: one batch walks inline, so a WoS-only
    # process neither loads the pool module nor starts a thread
    code = """\
import sys, threading
from hmdf.geometry import CircleDomain
from hmdf.potential import WosConfig, wos_exit_ensemble
d = CircleDomain.from_arrays([1.0, 1.5], [1.0, 3.141592653589793])
wos_exit_ensemble(d, 0.0, 1000, WosConfig(seed=0))
print("concurrent.futures" in sys.modules, threading.active_count())
"""
    assert run_fresh("-c", code) == "False 1\n"
