"""Every script imports and every name a module exports exists, so a
deletion that leaves a dangling import or ``__all__`` entry fails here.
SciPy loads only where an engine needs it, so commands that do not use
the fd engine start without it, an inversion loads no more of it than
the fd engine's sparse solver, and a one-batch WoS ensemble starts no
thread pool."""
import importlib
import os
import pathlib
import pkgutil
import runpy
import subprocess
import sys

import pytest

import hmdf

SCRIPTS = sorted((pathlib.Path(__file__).parents[1] / "scripts").glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(hmdf.__path__))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    # any run name but "__main__" runs the imports and skips main()
    runpy.run_path(str(path), run_name="imported")


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"hmdf.{name}")
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []


def run_fresh(code, *args):
    """Standard output of ``code`` run in a fresh interpreter on this
    package."""
    src = pathlib.Path(hmdf.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("module, prefix", [("hmdf.cli", "scipy")])
def test_import_loads_no_scipy(module, prefix):
    code = (f"import sys, {module}\n"
            f"p = {prefix!r}\n"
            "print([m for m in sys.modules if m == p or m.startswith(p + '.')])")
    assert run_fresh(code) == "[]\n"


def test_inversion_loads_no_optimizer():
    # jump-ramp n = 4 at 64 crosses filler-count thresholds on its way in
    code = """\
import sys
from hmdf import construct, hfunction
steps = hfunction.step_approximation(hfunction.example_jump_ramp(), 4)
res = construct.solve_circle_domain(steps, construct.SolveSettings(resolution=64))
print(res.converged, [m for m in sys.modules if m.startswith("scipy.optimize")])
"""
    assert run_fresh(code) == "True []\n"


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
    assert run_fresh(code) == "False 1\n"
