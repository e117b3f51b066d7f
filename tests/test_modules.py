"""Every script imports and every name a module exports exists, so a
deletion that leaves a dangling import or ``__all__`` entry fails here."""
import importlib
import pathlib
import pkgutil
import runpy

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
