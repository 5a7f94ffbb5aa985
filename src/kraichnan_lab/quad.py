"""Adaptive quadrature for the singular, semi-infinite and nested integrals.

The panel engine is QUADPACK (scipy.integrate.quad): QAGP on finite
intervals with declared singular points, and the same after the variable
change t = lo + u/(1-u) for semi-infinite tails, so algebraic tail decay
turns into an integrable endpoint singularity at u = 1.  The contract is
the error bound, not the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _sciint

from .errors import DomainError, NonFiniteIntegrand, ToleranceNotReached
from .specfun import ModelParams

__all__ = ["QuadRequest", "QuadResult", "quadpack", "integrate_1d",
           "angular_quad", "tail_quad", "f_inner", "J_direct"]


@dataclass
class QuadRequest:
    integrand: Callable[[float], float]
    interval: tuple  # (lo, hi); hi may be math.inf
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    singular_points: Sequence[float] = field(default_factory=tuple)

    def __post_init__(self):
        lo, hi = self.interval
        if not (lo < hi):
            raise DomainError("interval must satisfy lo < hi")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if math.isinf(lo):
            raise DomainError("lower endpoint must be finite")
        for p in self.singular_points:
            if not (lo <= p <= hi):
                raise DomainError(f"singular point {p} outside [{lo}, {hi}]")


@dataclass
class QuadResult:
    value: complex
    error_estimate: float
    evaluations: int


class _CountingFn:
    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, x):
        self.count += 1
        v = self.fn(x)
        if not np.all(np.isfinite(v)):
            raise NonFiniteIntegrand(f"integrand non-finite at x = {x!r}")
        return v


def quadpack(fn, lo, hi, points=None, abs_tol=0.0, rel_tol=1e-10, limit=500):
    """scipy QUADPACK call with diagnostics returned instead of warnings:
    (value, error_estimate, converged)."""
    kwargs = dict(epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=True)
    if points:
        out = _sciint.quad(fn, lo, hi, points=sorted(points), **kwargs)
    else:
        out = _sciint.quad(fn, lo, hi, **kwargs)
    value, err = out[0], out[1]
    ok = len(out) < 4  # no error message appended
    return value, err, ok


def integrate_1d(req: QuadRequest) -> QuadResult:
    """Adaptive integral of req.integrand over req.interval.

    Declared singular points become panel boundaries; a semi-infinite upper
    endpoint is mapped by t = lo + u/(1-u).  Raises ToleranceNotReached
    (carrying the best value) when the estimate misses the target, and
    NonFiniteIntegrand on NaN/inf integrand values.
    """
    lo, hi = req.interval
    probe = req.integrand(lo + (1.0 if math.isinf(hi) else (hi - lo) / 3.0))
    is_complex = np.iscomplexobj(probe)

    def run(component):
        fn = _CountingFn(component)
        if math.isinf(hi):
            def mapped(u):
                t = lo + u / (1.0 - u)
                return fn(t) / (1.0 - u) ** 2
            pts = [ (p - lo) / (1.0 + (p - lo)) for p in req.singular_points ]
            value, err, ok = quadpack(mapped, 0.0, 1.0, pts, req.abs_tol, req.rel_tol)
        else:
            pts = [p for p in req.singular_points if lo < p < hi]
            value, err, ok = quadpack(fn, lo, hi, pts, req.abs_tol, req.rel_tol)
        return value, err, ok, fn.count

    if is_complex:
        re, ere, okr, n1 = run(lambda x: np.real(req.integrand(x)))
        im, eim, oki, n2 = run(lambda x: np.imag(req.integrand(x)))
        value, err, ok, count = complex(re, im), ere + eim, okr and oki, n1 + n2
    else:
        value, err, ok, count = run(req.integrand)

    budget = max(req.abs_tol, req.rel_tol * abs(value))
    if not ok and err > budget:
        raise ToleranceNotReached(
            f"quadrature: estimate {err:.3e} exceeds budget {budget:.3e}",
            value=value, error_estimate=err)
    return QuadResult(value=value, error_estimate=min(err, budget), evaluations=count)


def angular_quad(g, r: float, rel_tol: float, limit: int) -> float:
    """int_0^pi g(t) dt for an angular integrand built on
    |1 - 2 r cos t + r^2|^{-s}, whose near-singularity sits at (r, t) = (1, 0).

    Close to r = 1 the substitution t = u^2 concentrates nodes at the peak,
    with the split point well clear of it.
    """
    if abs(r - 1.0) < 1e-3:
        tc = 0.25
        def g_sub(u):
            return 2.0 * u * g(u * u)
        v1, _, _ = quadpack(g_sub, 0.0, math.sqrt(tc), rel_tol=rel_tol, limit=limit)
        v2, _, _ = quadpack(g, tc, math.pi, rel_tol=rel_tol, limit=limit)
        return v1 + v2
    v, _, _ = quadpack(g, 0.0, math.pi, rel_tol=rel_tol, limit=limit)
    return v


def tail_quad(body, lo: float, abs_tol: float, rel_tol: float, limit: int):
    """int_lo^inf body(r) dr through r = lo + u/(1-u), which turns algebraic
    decay into an integrable endpoint singularity at u = 1; returns
    quadpack's (value, error_estimate, converged)."""
    def mapped(u):
        r = lo + u / (1.0 - u)
        return body(r) / (1.0 - u) ** 2
    return quadpack(mapped, 0.0, 1.0, abs_tol=abs_tol, rel_tol=rel_tol, limit=limit)


def f_inner(r: float, params: ModelParams, rel_tol: float = 1e-12) -> float:
    """Radial profile f(r) = r^{d-1} int_0^pi sin^d(t) |1-2r cos t + r^2|^{-s} dt."""
    if r < 0:
        raise DomainError("f_inner requires r >= 0")
    if r == 0.0:
        return 0.0
    d, s = params.d, params.s

    def g(t):
        q = 1.0 - 2.0 * r * math.cos(t) + r * r
        return math.sin(t) ** d * abs(q) ** (-s)
    return r ** (d - 1) * angular_quad(g, r, rel_tol, 500)


def J_direct(lam: float, params: ModelParams, rel_tol: float = 1e-9) -> float:
    """J(lam) = int_0^inf (1 + (lam r)^2)^{-d/2-alpha} f(r) dr by nested
    quadrature; the inner tolerance is tightened by a factor 10 over the
    outer one."""
    if lam <= 0:
        raise DomainError("J_direct requires lambda > 0")
    d, a = params.d, params.alpha
    inner_tol = rel_tol / 10.0

    def body(r):
        return (1.0 + (lam * r) ** 2) ** (-(d / 2.0 + a)) * f_inner(r, params, inner_tol)

    # r = 1 is a kink of f (angular near-singularity); beyond r ~ 4 the
    # integrand is smooth with algebraic decay r^{-1-2a-2s}
    v1, e1, ok1 = quadpack(body, 0.0, 4.0, [1.0], 0.0, rel_tol)
    v2, e2, ok2 = tail_quad(body, 4.0, max(1e-300, rel_tol * abs(v1)), rel_tol, 500)

    value = v1 + v2
    err = e1 + e2
    if not (ok1 and ok2) and err > rel_tol * abs(value) * 10.0:
        raise ToleranceNotReached("J_direct tolerance not reached",
                                  value=value, error_estimate=err)
    return value
