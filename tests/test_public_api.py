"""Public names: every module's __all__ resolves, every name in it has a
caller in the package (or is listed below as library API), every name a
module takes from a sibling is public there, and every function the
benchmark's tracer wraps resolves (perfbench/tracing.py looks them up by
name, so deleting or renaming one would break traced runs without failing a
test).  Also the one log-Gamma: only specfun.log_gamma reaches loggamma,
and nothing in the package reaches lgamma.  And the one quadrature layer:
only quad.py reaches scipy.integrate,
each tail map (the rational t = lo + u/(1-u) and the power t = lo u^{-1/p})
is written once, inside quad.quadpack, and the package calls quadpack only
from quad.radial_quad, which certifies it.
And the one table writer: no module defines a to_csv or reaches io or
csv, so every artifact is formatted by cli._csv; the one radial rule:
in spectral.py only _radial_sums calls the angular integral; and the one
panel ladder: only _ladder_sums builds ladder rules (_ladder_rules), and
only _ladder_rules reads the 12-point Gauss-Legendre rule _GL12."""

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
PACKAGE = sorted(glob.glob(os.path.join(ROOT, "src", "kraichnan_lab", "*.py")))
SOURCES = PACKAGE + sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))
QUAD = os.path.join(ROOT, "src", "kraichnan_lab", "quad.py")
SPECTRAL = os.path.join(ROOT, "src", "kraichnan_lab", "spectral.py")
SPECFUN = os.path.join(ROOT, "src", "kraichnan_lab", "specfun.py")

# Public names that no code in the package calls, each with why it stays.
LIBRARY_API = {
    "spectral.step": "the RK4 reference the exact propagator is tested "
                     "against; perfbench/tracing.py traces it",
}


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


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _function(tree, name):
    return next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == name)


def _sibling_uses(name):
    """(sibling, name) pairs the module takes from sibling modules, through
    `from .x import n` or `alias.n` after `from . import x as alias`."""
    tree = _parse(importlib.import_module(f"kraichnan_lab.{name}").__file__)
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


def _has_caller(name, attr):
    """Whether attr of module `name` is read anywhere in the package outside
    its own top-level definition: by name in its module, through
    `from .name import attr` or as `alias.attr` in a sibling."""
    tree = _parse(importlib.import_module(f"kraichnan_lab.{name}").__file__)
    own = set()
    for node in tree.body:
        targets = ([node] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   else getattr(node, "targets", []))
        if any(getattr(t, "name", getattr(t, "id", None)) == attr for t in targets):
            own.update(range(node.lineno, node.end_lineno + 1))
    if any(isinstance(n, ast.Name) and n.id == attr and n.lineno not in own
           for n in ast.walk(tree)):
        return True
    return any((name, attr) in _sibling_uses(other)
               for other in MODULES if other != name)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_have_callers(name):
    mod = importlib.import_module(f"kraichnan_lab.{name}")
    for attr in getattr(mod, "__all__", ()):
        assert _has_caller(name, attr) or f"{name}.{attr}" in LIBRARY_API, (
            f"kraichnan_lab.{name}.{attr} is public but nothing in the package "
            "calls it: move it to the tests or list it in LIBRARY_API")


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
        tree = _parse(path)
        assert _imports_scipy_integrate(tree) == (path == QUAD), path


def _references(tree, name):
    """Line numbers of every reference to `name`, bare or as an attribute."""
    return [n.lineno for n in ast.walk(tree)
            if getattr(n, "id", None) == name or getattr(n, "attr", None) == name]


def test_only_log_gamma_calls_loggamma():
    for path in PACKAGE:
        tree = _parse(path)
        assert not _references(tree, "lgamma"), path
        allowed = set()
        if path == SPECFUN:
            lg = _function(tree, "log_gamma")
            allowed = set(range(lg.lineno, lg.end_lineno + 1))
            assert len(_references(lg, "loggamma")) == 2  # scalar and array paths
        stray = [n for n in _references(tree, "loggamma") if n not in allowed]
        assert not stray, f"{path}: loggamma referenced on lines {stray}"


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


def _power_maps(tree):
    """Line numbers of every expression v ** (-1 / p), in any v and p."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Div)
            and isinstance(node.right.left, ast.UnaryOp)
            and isinstance(node.right.left.op, ast.USub)
            and isinstance(node.right.left.operand, ast.Constant)
            and node.right.left.operand.value == 1]


def test_tail_map_only_inside_quadpack():
    for path in SOURCES:
        tree = _parse(path)
        for maps in (_tail_maps, _power_maps):
            allowed = set()
            if path == QUAD:
                qp = _function(tree, "quadpack")
                allowed = set(range(qp.lineno, qp.end_lineno + 1))
                assert len(maps(qp)) == 1, maps.__name__
            stray = [n for n in maps(tree) if n not in allowed]
            assert not stray, f"{path}: {maps.__name__} on lines {stray}"


def _quadpack_calls(tree):
    """Line numbers of every call quadpack(...) or x.quadpack(...)."""
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
            and "quadpack" in (getattr(n.func, "id", None),
                               getattr(n.func, "attr", None))]


def test_quadpack_called_only_in_radial_quad():
    for path in PACKAGE:
        tree = _parse(path)
        allowed = set()
        if path == QUAD:
            rq = _function(tree, "radial_quad")
            allowed = set(range(rq.lineno, rq.end_lineno + 1))
            assert len(_quadpack_calls(rq)) == 2
        stray = [n for n in _quadpack_calls(tree) if n not in allowed]
        assert not stray, f"{path}: quadpack called on lines {stray}"


ANGULAR = ("_angular_integral",)


def test_angular_called_only_in_radial_sums():
    # one radial rule: every kernel rate is a _radial_sums of the angular
    # integral, so no second cell or panel quadrature can call it
    tree = _parse(SPECTRAL)
    rs = _function(tree, "_radial_sums")
    allowed = set(range(rs.lineno, rs.end_lineno + 1))
    calls = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
             and getattr(n.func, "id", None) in ANGULAR]
    assert [n for n in calls if n in allowed], "_radial_sums calls no angular integral"
    stray = [n for n in calls if n not in allowed]
    assert not stray, f"spectral.py: angular integral called on lines {stray}"


@pytest.mark.parametrize("name,owner", [("_ladder_rules", "_ladder_sums"),
                                        ("_GL12", "_ladder_rules")])
def test_one_panel_ladder(name, owner):
    # one evaluator of the massive panel ladder: only _ladder_sums builds
    # ladder rules, and only _ladder_rules reads the 12-point panel rule, so
    # no second per-pair or per-offset ladder can be written beside it
    tree = _parse(SPECTRAL)
    fn = _function(tree, owner)
    allowed = set(range(fn.lineno, fn.end_lineno + 1))
    reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name)
             and n.id == name and isinstance(n.ctx, ast.Load)]
    assert [n for n in reads if n in allowed], f"{owner} does not read {name}"
    stray = [n for n in reads if n not in allowed]
    assert not stray, f"spectral.py: {name} read on lines {stray}"


def _formats_tables(tree):
    """Line numbers of every to_csv definition and io/csv import."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "to_csv":
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] in ("io", "csv") for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] in ("io", "csv"):
                lines.append(node.lineno)
    return lines


def test_only_cli_formats_tables():
    for path in PACKAGE:
        stray = _formats_tables(_parse(path))
        assert not stray, f"{path}: table formatting on lines {stray}"
