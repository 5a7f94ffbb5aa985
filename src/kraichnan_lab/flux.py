"""The spectral flux function F.

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
from .specfun import (ModelParams, model_prefactor, sin_power_integral,
                      sphere_surface)

__all__ = [
    "G_term", "flux_F", "asymptotic_residual_table",
]

# below this |xi| the quadrature route is used unconditionally; above it the
# residue expansion takes over once its remainder estimate clears tolerance.
MELLIN_SWITCH = 20.0

# bound of the residue-expansion cache, one entry per ModelParams
_PARAM_CACHE = 64


def G_term(xi_abs: float, params: ModelParams) -> float:
    """Closed form of the loss-side integral:
    omega_{d-2} * M[h](d) * B(1/2, (d+1)/2) * |xi|^{2-2s}, where
    M[h](d) = G(d/2) G(a) / (2 G(d/2+a)) is mellin.h_product at z = d."""
    if xi_abs <= 0:
        raise DomainError("G_term requires |xi| > 0")
    return _g_coefficient(params) * xi_abs ** (2.0 - 2.0 * params.s)


# G_term / |xi|^{2-2s}, once per ModelParams
@functools.lru_cache(maxsize=_PARAM_CACHE)
def _g_coefficient(params: ModelParams) -> float:
    d = params.d
    return (sphere_surface(d - 2) * mellin.h_product(params)(d).real
            * sin_power_integral(d))


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
    pref = model_prefactor(d)
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
