"""Public names: every module's __all__ resolves, every name a module takes
from a sibling is public there, and every function the benchmark's tracer
wraps resolves (perfbench/tracing.py looks them up by name, so deleting or
renaming one would break traced runs without failing a test).  Also the one
quadrature layer: only quad.py reaches scipy.integrate, and the tail map
t = lo + u/(1-u) is written once, inside quad.quadpack."""

import ast
import functools
import glob
import importlib
import os

import pytest

import kraichnan_lab

MODULES = ("errors", "specfun", "quad", "mellin", "flux", "spectral",
           "mc_spde", "cli")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "kraichnan_lab", "*.py"))
                 + glob.glob(os.path.join(ROOT, "tests", "*.py")))
QUAD = os.path.join(ROOT, "src", "kraichnan_lab", "quad.py")


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


def _sibling_uses(name):
    """(sibling, name) pairs the module takes from sibling modules, through
    `from .x import n` or `alias.n` after `from . import x as alias`."""
    with open(importlib.import_module(f"kraichnan_lab.{name}").__file__) as fh:
        tree = ast.parse(fh.read())
    aliases, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                aliases.update((a.asname or a.name, a.name) for a in node.names
                               if a.name in MODULES)
            elif node.module in MODULES:
                uses.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.add((aliases[node.value.id], node.attr))
    return sorted(uses)


@pytest.mark.parametrize("name", MODULES)
def test_sibling_imports_are_public(name):
    for sibling, attr in _sibling_uses(name):
        mod = importlib.import_module(f"kraichnan_lab.{sibling}")
        # a module without __all__ exports its names without a leading "_"
        public = getattr(mod, "__all__", None)
        ok = attr in public if public is not None else not attr.startswith("_")
        assert ok, f"kraichnan_lab.{name} uses {sibling}.{attr}, which is not public"


@pytest.mark.parametrize("target", _tracing_targets())
def test_traced_target_resolves(target):
    obj = functools.reduce(getattr, target.split("."), kraichnan_lab)
    assert callable(obj), target


def _imports_scipy_integrate(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("scipy.integrate") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.integrate") or (
                    node.module == "scipy"
                    and any(a.name == "integrate" for a in node.names)):
                return True
    return False


def test_only_quad_imports_scipy_integrate():
    for path in SOURCES:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        assert _imports_scipy_integrate(tree) == (path == QUAD), path


def _tail_maps(tree):
    """Line numbers of every expression v / (1 - v), in any variable v."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and isinstance(node.left, ast.Name)
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Sub)
            and isinstance(node.right.left, ast.Constant)
            and node.right.left.value == 1
            and isinstance(node.right.right, ast.Name)
            and node.right.right.id == node.left.id]


def test_tail_map_only_inside_quadpack():
    for path in SOURCES:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        allowed = set()
        if path == QUAD:
            qp = next(n for n in tree.body
                      if isinstance(n, ast.FunctionDef) and n.name == "quadpack")
            allowed = set(range(qp.lineno, qp.end_lineno + 1))
            assert len(_tail_maps(qp)) == 1
        stray = [n for n in _tail_maps(tree) if n not in allowed]
        assert not stray, f"{path}: tail map on lines {stray}"
