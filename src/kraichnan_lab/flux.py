"""The spectral flux function F and its mass-regularized variant.

F(xi) is assembled from the split F = (2 pi)^{-d/2} [I - G]: G is a closed
form, I = omega_{d-2} |xi|^{d+2-2s} J(|xi|) with J evaluated either by
radial quadrature of the closed-form angular profile (J_direct) or, at
large |xi|, by the residue expansion.
The two leading contributions of I and G cancel exactly, so the expansion
path skips them analytically instead of subtracting two nearly equal
numbers.  The independent quadrature oracles (the unsplit polar integral
and the direct massive integral) live with the tests, in tests/oracles.py.
"""

from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

from . import mellin, quad
from .errors import DomainError
from .specfun import ModelParams, gamma_fn, sin_power_integral, sphere_surface

__all__ = [
    "G_term", "flux_F", "flux_F_m", "asymptotic_residual_table",
]

# below this |xi| the quadrature route is used unconditionally; above it the
# residue expansion takes over once its remainder estimate clears tolerance.
MELLIN_SWITCH = 20.0

# bound of the residue-expansion cache, one entry per ModelParams
_PARAM_CACHE = 64


def G_term(xi_abs: float, params: ModelParams) -> float:
    """Closed form of the loss-side integral:
    omega_{d-2} * [G(d/2) G(a) / (2 G(d/2+a))] * [sqrt(pi) G((d+1)/2)/G((d+2)/2)]
    * |xi|^{2-2s}."""
    if xi_abs <= 0:
        raise DomainError("G_term requires |xi| > 0")
    d, a, s = params.d, params.alpha, params.s
    radial = gamma_fn(d / 2.0).real * gamma_fn(a).real / (2.0 * gamma_fn(d / 2.0 + a).real)
    angular = sin_power_integral(d, 0.0)
    return sphere_surface(d - 2) * radial * angular * xi_abs ** (2.0 - 2.0 * s)


@functools.lru_cache(maxsize=_PARAM_CACHE)
def _deep_terms(params: ModelParams):
    """Residue expansion of J past the exponents used in the two-term
    asymptotics; needed to hit 1e-5 two-path agreement already at |xi|=20."""
    return tuple(mellin.expansion_terms(params, params.d + params.alpha + 7.0))


def _flux_mellin(params: ModelParams, xi_abs: float) -> Tuple[float, float]:
    """F(|xi|) by the residue expansion, and the size of its last term, the
    estimate of the expansion's remainder."""
    d, s = params.d, params.s
    terms = _deep_terms(params)
    pref = (2.0 * math.pi) ** (-d / 2.0) * sphere_surface(d - 2)
    total = 0.0
    for t in terms:
        if abs(t.exponent - d) < 1e-9:
            continue  # cancels exactly against G_term
        total += t.coefficient * xi_abs ** (d + 2.0 - 2.0 * s - t.exponent)
    last = terms[-1]
    tail = abs(last.coefficient) * xi_abs ** (d + 2.0 - 2.0 * s - last.exponent)
    return pref * total, pref * tail


def _flux_quadrature(params: ModelParams, xi_abs: float, rel_tol: float) -> float:
    d, s = params.d, params.s
    J = quad.J_direct(xi_abs, params, rel_tol=rel_tol)
    I = sphere_surface(d - 2) * xi_abs ** (d + 2.0 - 2.0 * s) * J
    return (2.0 * math.pi) ** (-d / 2.0) * (I - G_term(xi_abs, params))


def flux_F(xi_abs: float, params: ModelParams, method: str = "auto",
           rel_tol: float = 1e-10) -> float:
    """F(|xi|), radial by isotropy.

    method: "quadrature" forces the J_direct route, "mellin" the
    residue expansion (only valid at large |xi|), "auto" switches at
    |xi| = 20 provided the expansion's last term is below 1e-7 of its sum.
    """
    if xi_abs <= 0:
        raise DomainError("flux_F requires |xi| > 0")
    if method == "quadrature":
        return _flux_quadrature(params, xi_abs, rel_tol)
    if method == "mellin":
        return _flux_mellin(params, xi_abs)[0]
    if method != "auto":
        raise DomainError(f"unknown flux_F method {method!r}")
    if xi_abs > MELLIN_SWITCH:
        total, tail = _flux_mellin(params, xi_abs)
        if tail <= 1e-7 * abs(total):
            return total
    return _flux_quadrature(params, xi_abs, rel_tol)


def flux_F_m(xi_abs: float, params: ModelParams, m: float,
             method: str = "auto") -> float:
    """Flux regularized by the covariance mass m, via the rescaling identity
    F^m(xi) = m^{2-2s-2a} F(xi/m)."""
    if m <= 0:
        raise DomainError("flux_F_m requires m > 0")
    if xi_abs <= 0:
        raise DomainError("flux_F_m requires |xi| > 0")
    a, s = params.alpha, params.s
    return m ** (2.0 - 2.0 * s - 2.0 * a) * flux_F(xi_abs / m, params, method=method)


def asymptotic_residual_table(params: ModelParams, xi_grid: Sequence[float]
                              ) -> Tuple[List[float], List[float], float]:
    """(F values, residuals, K) on a grid of |xi|, with the residuals
    |F + K |xi|^{2-2a-2s}| |xi|^{2s}; their max is the empirical
    bound-constant estimate."""
    xi_grid = list(xi_grid)
    if any(x <= 0 for x in xi_grid):
        raise DomainError("xi grid must be positive")
    K = mellin.k_constant_gamma(params)
    a, s = params.alpha, params.s
    F_vals = [flux_F(x, params) for x in xi_grid]
    residuals = [abs(F + K * x ** (2.0 - 2.0 * a - 2.0 * s)) * x ** (2.0 * s)
                 for x, F in zip(xi_grid, F_vals)]
    return F_vals, residuals, K
