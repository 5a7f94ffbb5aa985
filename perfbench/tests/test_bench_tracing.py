"""The tracer installs and removes its wrappers cleanly and computes self
time and counters correctly."""

import sys

import kraichnan_lab  # noqa: F401  (imports every module of the package)
from kraichnan_lab import mellin, quad, spectral

from tracing import LAYER_METRICS, TARGETS, Tracer


def _bindings():
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if n.startswith("kraichnan_lab")}
    classes = {"rate": spectral.KernelMatrix.__dict__["rate"],
               "__call__": mellin.GammaProduct.__dict__["__call__"]}
    return mods, classes


def test_install_wraps_every_binding_and_restore_undoes_it():
    before_mods, before_classes = _bindings()
    originals = {"quadpack": quad.quadpack, "gamma_fn": sys.modules[
        "kraichnan_lab.specfun"].gamma_fn}
    tracer = Tracer()
    tracer.install()
    try:
        # names imported by value are rebound wherever they were imported
        for mod in ("quad", "mellin", "flux"):
            bound = vars(sys.modules[f"kraichnan_lab.{mod}"])["quadpack"]
            assert bound is not originals["quadpack"]
            assert bound.__wrapped__ is originals["quadpack"]
        for mod in ("specfun", "mellin", "flux"):
            assert vars(sys.modules[f"kraichnan_lab.{mod}"])["gamma_fn"] \
                .__wrapped__ is originals["gamma_fn"]
        assert spectral.KernelMatrix.rate.__wrapped__ is before_classes["rate"]
        assert mellin.GammaProduct.__call__.__wrapped__ is before_classes["__call__"]
        for target in TARGETS:
            mod, *path = target.split(".")
            owner = sys.modules[f"kraichnan_lab.{mod}"]
            for part in path:
                owner = getattr(owner, part)
            assert hasattr(owner, "__wrapped__"), target
    finally:
        tracer.restore()
    after_mods, after_classes = _bindings()
    assert after_classes == before_classes
    for name, names in before_mods.items():
        assert all(after_mods[name][k] is v for k, v in names.items()), name


def test_self_time_on_nested_calls():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 4.0

    def outer(depth):
        now[0] += 1.0
        traced_inner()
        if depth:
            traced_outer(depth - 1)
        now[0] += 2.0

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    traced_outer(1)
    # outer(1) spans 14 s: 3 s its own, 4 s inner, 7 s the nested outer(0)
    assert tracer.stats["outer"] == [2, 14.0, 6.0]
    assert tracer.stats["inner"] == [2, 8.0, 8.0]


def test_quadpack_counters_and_metric_set():
    tracer = Tracer()
    tracer.install()
    calls = [0]

    def f(x):
        calls[0] += 1
        return x * x

    try:
        value, _, ok = quad.quadpack(f, 0.0, 1.0)
        _, _, bad = quad.quadpack(lambda x: abs(x - 0.3) ** -0.9, 0.0, 1.0, limit=2)
    finally:
        tracer.restore()
    assert ok and not bad and abs(value - 1.0 / 3.0) < 1e-14
    metrics = tracer.metrics()
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["quad.quadpack.calls"] == 2
    assert metrics["quad.quadpack.evals"] > calls[0] > 0
    assert metrics["quad.quadpack.not_converged"] == 1
    assert metrics["spectral.KernelMatrix.rate.calls"] == 0
