"""Puts ``perfbench/`` on the import path, so that the tests read the
benchmark's own workload inputs and checks instead of copies of them."""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "perfbench"))
