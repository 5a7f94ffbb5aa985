"""Public names: every module's __all__ resolves, and so does every function
the benchmark's tracer wraps (perfbench/tracing.py looks them up by name, so
deleting or renaming one would break traced runs without failing a test)."""

import ast
import functools
import importlib
import os

import pytest

import kraichnan_lab

MODULES = ("errors", "specfun", "quad", "mellin", "flux", "spectral",
           "mc_spde", "cli")
TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tracing_targets():
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"kraichnan_lab.{name}")
    for attr in getattr(mod, "__all__", ()):
        assert hasattr(mod, attr), f"kraichnan_lab.{name}.__all__ lists {attr!r}"


@pytest.mark.parametrize("target", _tracing_targets())
def test_traced_target_resolves(target):
    obj = functools.reduce(getattr, target.split("."), kraichnan_lab)
    assert callable(obj), target
