"""Complex special functions and the closed-form integrals used everywhere else.

log_gamma is the one log-Gamma of the library (scipy's principal-branch
``loggamma`` with pole and finiteness checks); gamma_fn, the sphere measures,
B(1/2, (d+1)/2) and mellin.GammaProduct read it.  The Mellin transforms of
the model's radial profiles, and K, are Gamma products in the mellin module.
The angular integral of the model is a closed form here: the Gegenbauer
generating-function integral (a 2F1) behind f, K, F and the scale-free
kernel, and, integrated radially, two more 2F1s: the scale-free kernel's
rates to the modes off a grid.  The covariance defect D needs none: it is
a Gamma quotient (mellin.d_constant).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _scisp
from scipy.special import cython_special as _cysp

from .errors import DomainError, PoleError

__all__ = [
    "ModelParams",
    "log_gamma",
    "gamma_fn",
    "sin_power_integral",
    "gegenbauer_integral",
    "gegenbauer_2f1",
    "gegenbauer_tails",
    "gegenbauer_defect",
    "sphere_surface",
    "model_prefactor",
    "POLE_TOL",
    "gamma_pole_index",
]

# A Gamma argument closer than this to a nonpositive integer is treated as
# *at* the pole, by log_gamma, by GammaProduct evaluation and by the residue
# bookkeeping alike.  Near-pole values must go through residues instead
# (mellin module).
POLE_TOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Parameter tuple (d, alpha, s, nu) governing every formula.

    d >= 2 integer dimension, alpha in (0,1) noise roughness, s in (0, d/2)
    negative-Sobolev index, nu >= 0 viscosity.  The covariance mass is 1
    (the scale-free routes take its limit 0).
    """

    d: int
    alpha: float
    s: float
    nu: float = 0.0

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 2:
            raise DomainError("d must be an integer >= 2")
        object.__setattr__(self, "d", int(self.d))
        if not (0.0 < self.alpha < 1.0):
            raise DomainError("alpha must lie in (0,1)")
        if not (0.0 < self.s < self.d / 2.0):
            raise DomainError("s must lie in the open range s in (0, d/2)")
        if self.nu < 0.0:
            raise DomainError("nu must be >= 0")


@functools.lru_cache(maxsize=64)
def sphere_surface(n: int) -> float:
    """Total measure of the unit sphere S^n in R^{n+1}: 2 pi^{(n+1)/2} / G((n+1)/2).

    sphere_surface(0) = 2 (two points), sphere_surface(1) = 2 pi, ...  Cached.
    """
    if n < 0:
        raise DomainError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.exp(log_gamma((n + 1) / 2.0).real)


def model_prefactor(d: int) -> float:
    """(2 pi)^{-d/2} omega_{d-2}: the Fourier normalization times the
    transverse sphere, in front of K, F and the scale-free kernel."""
    return (2.0 * math.pi) ** (-d / 2.0) * sphere_surface(d - 2)


def gamma_pole_index(arg):
    """n >= 0 where arg lies within POLE_TOL of the pole -n of Gamma, and -1
    elsewhere (elementwise; the one pole test of the library)."""
    arg = np.asarray(arg, dtype=complex)
    n = np.rint(-arg.real)
    return np.where((n >= 0) & (abs(arg + n) < POLE_TOL), n, -1).astype(int)


def log_gamma(z):
    """Principal-branch log Gamma(z), elementwise.  A scalar goes to scipy's
    compiled scalar loggamma (cython_special) and returns a complex, an array
    to the ufunc: the same routine, so both paths agree bitwise.  Raises
    PoleError within POLE_TOL of a nonpositive integer, and DomainError where
    an argument or value is not finite."""
    if np.ndim(z) == 0:
        z = complex(z)
        if gamma_pole_index(z) >= 0:
            raise PoleError(f"log_gamma pole at z = {z!r}")
        out = _cysp.loggamma(z)
        if not cmath.isfinite(out):
            raise DomainError(f"log_gamma is not finite at z = {z!r}")
        return out
    z = np.asarray(z, dtype=complex)
    if (gamma_pole_index(z) >= 0).any():
        raise PoleError("log_gamma pole in its argument array")
    out = _scisp.loggamma(z)
    if not np.isfinite(out).all():
        raise DomainError("log_gamma is not finite in its argument array")
    return out


def gamma_fn(z) -> complex:
    """Gamma(z) at a scalar z by exponentiating log_gamma."""
    return cmath.exp(log_gamma(z))


# the scalar Gegenbauer routines ask for B(1/2, (d+1)/2) at every point
@functools.lru_cache(maxsize=64)
def sin_power_integral(d: float) -> float:
    """int_0^pi sin^d(t) dt = B(1/2, (d+1)/2)
    = G((d+1)/2) G(1/2) / G((d+2)/2) for real d > -1.  Cached per d."""
    if d <= -1.0:
        raise DomainError("sin_power_integral requires d > -1")
    return math.exp(log_gamma((d + 1.0) / 2.0).real + log_gamma(0.5).real
                    - log_gamma((d + 2.0) / 2.0).real)


def gegenbauer_2f1(d: float, s: float, x):
    """int_0^pi sin^d(t) |1 - 2 x cos t + x^2|^{-s} dt
    = B(1/2, (d+1)/2) 2F1(s, s - d/2; d/2 + 1; x^2) for 0 <= x <= 1 (DLMF
    15.4, 18.12); elementwise on arrays, unchecked.  A float x goes to
    scipy's compiled scalar hyp2f1 (cython_special), the same routine as the
    ufunc without its per-call overhead, so both paths agree bitwise.  The
    one angular 2F1 identity of the library: gegenbauer_integral reflects
    r > 1 onto it, the kernel's angular series calls it with
    x = rho_< / rho_>, and gegenbauer_tails integrates its series term by
    term."""
    hyp2f1 = _cysp.hyp2f1 if isinstance(x, float) else _scisp.hyp2f1
    return sin_power_integral(d) * hyp2f1(
        s, s - d / 2.0, d / 2.0 + 1.0, x * x)


def gegenbauer_tails(d: float, alpha: float, x, y):
    """The two radial integrals of the scale-free kernel off a grid, for
    0 <= x, y < 1, with a = alpha, s' = (d + 2a + 2)/2, B = B(1/2, (d+1)/2)
    and G(u) = gegenbauer_2f1(d, s', u):

        int_0^x u^{d+1} G(u) du = B x^{d+2}/(d+2) 2F1(s', a+1; d/2+2; x^2)
        int_0^y u^{2a-1} G(u) du = B y^{2a}/(2a) 2F1(s', a; d/2+1; y^2)

    G's series integrated term by term.  Returns their sum, elementwise,
    unchecked.  In both 2F1s the lower parameter minus the two upper ones
    is -2a, so they grow like (1 - z)^{-2a} as z -> 1; at a = 1/2 that
    difference is an integer, the logarithmic case of the connection
    formula at z = 1 (DLMF 15.8(ii))."""
    sig = (d + 2.0 * alpha + 2.0) / 2.0
    below = x ** (d + 2.0) / (d + 2.0) * _scisp.hyp2f1(
        sig, alpha + 1.0, d / 2.0 + 2.0, x * x)
    above = y ** (2.0 * alpha) / (2.0 * alpha) * _scisp.hyp2f1(
        sig, alpha, d / 2.0 + 1.0, y * y)
    return sin_power_integral(d) * (below + above)


def gegenbauer_integral(d: float, s: float, r: float) -> float:
    """int_0^pi sin^d(t) |1 - 2 r cos t + r^2|^{-s} dt for scalar r >= 0:
    gegenbauer_2f1 for r <= 1, and r^{-2s} times it at 1/r for r > 1."""
    if r < 0.0:
        raise DomainError("gegenbauer_integral requires r >= 0")
    if r > 1.0:
        return r ** (-2.0 * s) * float(gegenbauer_2f1(d, s, 1.0 / r))
    return float(gegenbauer_2f1(d, s, r))


def gegenbauer_defect(d: float, s: float, r: float) -> float:
    """int_0^pi sin^d(t) (1 - |1 - 2 r cos t + r^2|^{-s}) dt.  Below r = 0.3,
    where 1 - 2F1 cancels, it is -B(1/2, (d+1)/2) times the power series of
    2F1 - 1, summed until a term is below 1e-17 of the sum, at most 30
    terms (term ratios tend to r^2 <= 0.09)."""
    if 0.0 <= r < 0.3:
        a, b, c, z = s, s - d / 2.0, d / 2.0 + 1.0, r * r
        term = total = a * b / c * z
        for n in range(1, 30):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
            total += term
            if abs(term) <= 1e-17 * abs(total):
                break
        return -sin_power_integral(d) * total
    return sin_power_integral(d) - gegenbauer_integral(d, s, r)
