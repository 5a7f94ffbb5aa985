"""Spans and counters around the program's public functions, installed from
outside the program.

A span wraps one function: it counts calls and records the time inside it.
Total time counts only the outermost call of a name, so a function that
re-enters itself (nested quadrature) is not counted twice; self time is a
call's duration minus the part of it covered by child spans.  Functions
that other modules import by name (``quadpack``, ``gamma_fn``) are rebound
in every module of the package that holds them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# "module.attribute path" of every wrapped function; the span name is the
# same with __call__ written as call
TARGETS = (
    "spectral.KernelMatrix.rate",
    "spectral.step",
    "spectral.evolve",
    "spectral.sobolev_norm",
    "spectral.anomalous_dissipation_integral",
    "spectral.balance_check",
    "spectral.build_kernel",
    "mc_spde.run_ensemble",
    "mc_spde.build_noise_modes",
    "mc_spde.lattice_master_rate",
    "quad.quadpack",
    "quad.J_direct",
    "mellin.k_constant_integral",
    "mellin.k_constant_appendix",
    "mellin.expansion_terms",
    "mellin.GammaProduct.__call__",
    "specfun.gamma_fn",
    "flux.flux_F",
    "flux.asymptotic_residual_table",
    "cli.run",
)

# the per-layer metrics a traced run reports, in BENCHMARK.json order
LAYER_METRICS = (
    "spectral.KernelMatrix.rate.calls",
    "spectral.KernelMatrix.rate.total_s",
    "spectral.step.calls",
    "spectral.step.self_s",
    "spectral.evolve.self_s",
    "spectral.sobolev_norm.calls",
    "spectral.anomalous_dissipation_integral.self_s",
    "spectral.balance_check.total_s",
    "spectral.build_kernel.calls",
    "spectral.build_kernel.total_s",
    "mc_spde.run_ensemble.total_s",
    "mc_spde.run_ensemble.sample_steps",
    "mc_spde.run_ensemble.us_per_sample_step",
    "mc_spde.run_ensemble.dropped_samples",
    "mc_spde.build_noise_modes.total_s",
    "mc_spde.lattice_master_rate.calls",
    "mc_spde.lattice_master_rate.total_s",
    "quad.quadpack.calls",
    "quad.quadpack.evals",
    "quad.quadpack.not_converged",
    "quad.quadpack.self_s",
    "quad.J_direct.total_s",
    "mellin.k_constant_integral.total_s",
    "mellin.k_constant_appendix.total_s",
    "mellin.expansion_terms.total_s",
    "mellin.GammaProduct.call.calls",
    "mellin.GammaProduct.call.total_s",
    "specfun.gamma_fn.calls",
    "specfun.gamma_fn.total_s",
    "flux.flux_F.calls",
    "flux.flux_F.total_s",
    "flux.asymptotic_residual_table.total_s",
    "cli.run.self_s",
)


# metrics counted by hooks rather than read from span statistics
COUNTERS = (
    "quad.quadpack.evals",
    "quad.quadpack.not_converged",
    "mc_spde.run_ensemble.sample_steps",
    "mc_spde.run_ensemble.dropped_samples",
)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_sample_step"):
        return "us"
    return "count"


class Tracer:
    """In-memory span statistics: per span name, [calls, total_s, self_s],
    plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.counters = Counter()
        self._stack = []          # child time accumulated by each open span
        self._depth = Counter()   # open spans per name
        self._installed = []      # (owner, attribute, original)

    def wrap(self, name, fn, before=None, after=None):
        """Return fn wrapped in a span.  ``before(args, kwargs)`` may return
        replacement (args, kwargs); ``after(args, kwargs, result)`` observes
        the result."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth, clock = self._stack, self._depth, self.clock

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            child = [0.0]
            stack.append(child)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                stats[0] += 1
                if depth[name] == 0:
                    stats[1] += dt
                stats[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package="kraichnan_lab"):
        """Wrap every TARGETS function of the imported package."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        hooks = {"quad.quadpack": (self._count_evals, self._count_converged),
                 "mc_spde.run_ensemble": (None, self._count_samples)}
        for target in TARGETS:
            name = target.replace("__call__", "call")
            mod_name, *cls_path, attr = target.split(".")
            owner = sys.modules[f"{package}.{mod_name}"]
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, *hooks.get(name, (None, None)))
            if cls_path:
                self._set(owner, attr, wrapped)
                continue
            # rebind in every module that imported the function by name
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapped)

    def restore(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- counters ---------------------------------------------------------

    def _count_evals(self, args, kwargs):
        counters = self.counters
        fn = args[0] if args else kwargs["fn"]

        def counted(x):
            counters["quad.quadpack.evals"] += 1
            return fn(x)

        if args:
            return (counted,) + args[1:], kwargs
        return args, dict(kwargs, fn=counted)

    def _count_converged(self, args, kwargs, result):
        if not result[2]:
            self.counters["quad.quadpack.not_converged"] += 1

    def _count_samples(self, args, kwargs, result):
        cfg = args[0] if args else kwargs["cfg"]
        t_final = args[2] if len(args) > 2 else kwargs["t_final"]
        self.counters["mc_spde.run_ensemble.sample_steps"] += (
            cfg.n_samples * int(round(t_final / cfg.dt)))
        if result:
            self.counters["mc_spde.run_ensemble.dropped_samples"] += result[-1].n_invalid

    # -- report -----------------------------------------------------------

    def metrics(self):
        """Every LAYER_METRICS value; spans that never ran read 0."""
        out = {}
        for metric in LAYER_METRICS:
            if metric in COUNTERS:
                out[metric] = float(self.counters[metric])
                continue
            if metric.endswith(".us_per_sample_step"):
                steps = self.counters["mc_spde.run_ensemble.sample_steps"]
                total = self.stats.get("mc_spde.run_ensemble", [0, 0.0, 0.0])[1]
                out[metric] = 1e6 * total / steps if steps else 0.0
                continue
            name, stat = metric.rsplit(".", 1)
            calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[metric] = float({"calls": calls, "total_s": total,
                                 "self_s": self_s}[stat])
        return out
