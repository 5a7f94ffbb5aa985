"""Meromorphic Gamma-product engine: pole bookkeeping, residues,
residue-shift asymptotics, and the three independent routes to the
dissipation constant K: its Gamma quotient (k_product, one GammaProduct in
s), one certified radial quadrature (quad.radial_quad) of the scale-free
integral, and the real-space route through the covariance defect D, itself
a Gamma quotient.

A GammaProduct stores prefactor * prod_i Gamma(coef_i z + offset_i)^{+-1},
so pole locations and residues are exact affine data rather than output of
numerical root finding.  It evaluates through specfun.log_gamma, the one
log-Gamma of the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CaseOutOfRange, DomainError, HigherOrderPole, PoleError
from .quad import radial_quad
from .specfun import (ModelParams, gamma_fn, gamma_pole_index,
                      gegenbauer_defect, log_gamma, model_prefactor,
                      sphere_surface)

__all__ = [
    "GammaProduct", "AsymptoticTerm",
    "h_product", "f_product", "jl_product",
    "poles_in_strip", "residue_at", "expansion_terms",
    "k_product", "k_constant_gamma", "k_constant_integral", "k_constant_appendix",
    "riesz_constant", "d_constant",
]


@dataclass(frozen=True)
class GammaProduct:
    """prefactor * prod Gamma(coef*z + offset)^power with power in {+1, -1}.

    Factors must have real nonzero coef and real offset, which keeps every
    pole on the real axis and makes residue extraction exact algebra.
    """

    prefactor: complex
    factors: tuple  # of (coef, offset, power)

    def __post_init__(self):
        for coef, offset, power in self.factors:
            if coef == 0.0:
                raise DomainError("GammaProduct factor with coef == 0")
            if power not in (+1, -1):
                raise DomainError("GammaProduct power must be +1 or -1")

    def __mul__(self, other: "GammaProduct") -> "GammaProduct":
        return GammaProduct(self.prefactor * other.prefactor,
                            self.factors + other.factors)

    def pole_order(self, x: float) -> int:
        """Net pole order at real location x (cancellation-aware); <= 0 means
        regular (or a zero)."""
        return sum(power for coef, offset, power in self.factors
                   if gamma_pole_index(coef * x + offset) >= 0)

    def __call__(self, z):
        """Evaluate at complex z (scalar or array) through log space."""
        zs = np.asarray(z, dtype=complex)
        # one row per factor, broadcast against z
        coefs, offs, pows = (np.reshape(c, (-1,) + (1,) * zs.ndim)
                             for c in zip(*self.factors))
        args = coefs * zs + offs
        # reject evaluation at poles of any retained factor; a reciprocal
        # factor at a pole of its Gamma is a zero of the product
        near = gamma_pole_index(args) >= 0
        if (near & (pows == 1)).any():
            raise PoleError("GammaProduct evaluated at a pole; use residue_at")
        tot = ((pows * log_gamma(np.where(near, 1.0, args))).sum(axis=0)
               + np.log(complex(self.prefactor)))
        out = np.where(near.any(axis=0), 0.0, np.exp(tot))
        return complex(out) if zs.ndim == 0 else out


@dataclass(frozen=True)
class AsymptoticTerm:
    """One term coefficient * lambda^{-exponent} of a residue expansion."""
    exponent: float
    coefficient: float


def h_product(params: ModelParams) -> GammaProduct:
    """M[h, z] for h(r) = (1+r^2)^{-d/2-alpha} as a GammaProduct in z."""
    d, a = params.d, params.alpha
    pref = 1.0 / (2.0 * gamma_fn(d / 2.0 + a).real)
    return GammaProduct(pref, ((0.5, 0.0, +1), (-0.5, d / 2.0 + a, +1)))


def f_product(params: ModelParams) -> GammaProduct:
    """M[f, 1-z] as a GammaProduct in z (poles at d+2N0 and d-2s-2N0)."""
    d, s = params.d, params.s
    pref = (math.sqrt(math.pi)
            * gamma_fn((d - 2.0 * s + 2.0) / 2.0).real
            * gamma_fn((d + 1.0) / 2.0).real
            / (2.0 * gamma_fn(s).real))
    return GammaProduct(pref, (
        (0.5, (2.0 * s - d) / 2.0, +1),
        (-0.5, d / 2.0, +1),
        (0.5, 1.0, -1),
        (-0.5, d - s + 1.0, -1),
    ))


def jl_product(params: ModelParams) -> GammaProduct:
    """The full Parseval integrand factor M[h, z] * M[f, 1-z]."""
    return h_product(params) * f_product(params)


def poles_in_strip(expr: GammaProduct, lo: float, hi: float):
    """All real poles of expr with lo < Re z < hi, as sorted (location, order)
    pairs with factor cancellations accounted for."""
    if not lo < hi:
        raise DomainError("poles_in_strip requires lo < hi")
    found = []
    for coef, offset, power in expr.factors:
        if power != +1:
            continue  # reciprocal factors only cancel poles (pole_order)
        # Gamma(coef z + offset) has its pole -n at z = -(n + offset) / coef
        n_lo, n_hi = sorted(-(coef * z + offset) for z in (lo, hi))
        for n in range(max(0, math.floor(n_lo)), math.ceil(n_hi) + 1):
            x = -(n + offset) / coef
            if lo < x < hi and not any(gamma_pole_index(coef * y + offset) == n
                                       for y in found):
                found.append(x)
    return sorted((x, o) for x, o in ((x, expr.pole_order(x)) for x in found)
                  if o >= 1)


def residue_at(expr: GammaProduct, pole: float) -> AsymptoticTerm:
    """Asymptotic term from the simple pole of -lambda^{-z} expr(z) at z=pole:
    coefficient = -lim (z-pole) expr(z), exponent = pole.

    The limit is exact Gamma algebra: a factor Gamma(a z + b) whose argument
    hits -n contributes (-1)^n / (n! a) to the residue, and a reciprocal
    factor hitting -m contributes (-1)^m m! a as a zero.
    """
    hits_pole = []
    hits_zero = []
    regular = []
    for coef, offset, power in expr.factors:
        n = int(gamma_pole_index(coef * pole + offset))
        if n >= 0:
            (hits_pole if power == +1 else hits_zero).append((coef, n))
        else:
            regular.append((coef, offset, power))
    if len(hits_pole) - len(hits_zero) != 1:
        raise HigherOrderPole(
            f"pole at z = {pole} has net order {len(hits_pole) - len(hits_zero)}")
    res = complex(expr.prefactor)
    for coef, n in hits_pole:
        res *= (-1.0) ** n / (math.factorial(n) * coef)
    for coef, n in hits_zero:
        res *= (-1.0) ** n * math.factorial(n) * coef
    if regular:
        res *= GammaProduct(1.0, tuple(regular))(complex(pole))
    if abs(res.imag) > 1e-10 * max(1.0, abs(res.real)):
        raise DomainError(f"residue at {pole} came out non-real: {res!r}")
    return AsymptoticTerm(exponent=pole, coefficient=-res.real)


def expansion_terms(params: ModelParams, r_prime: float):
    """Residue terms of J(lambda) for all poles between the fundamental strip
    and Re z = r_prime, sorted by increasing exponent.  r_prime must not sit
    on a pole of either Mellin factor; a pole of higher order raises
    HigherOrderPole from residue_at."""
    d, s = params.d, params.s
    prod = jl_product(params)
    base = d - s  # mid-strip
    if prod.pole_order(r_prime) > 0:
        raise DomainError(f"r_prime = {r_prime} sits on a pole")
    return [residue_at(prod, x) for x, _ in poles_in_strip(prod, base, r_prime)]


def k_product(d: int, alpha: float) -> GammaProduct:
    """The dissipation constant K(d, alpha, s) as a GammaProduct in s:

        K = -(d-1) 2^{-d/2-1} G(-a) / G((d+2a+2)/2)
            * G(s+a) G((d+2)/2 - s) / [ G(s) G((d+2-2a)/2 - s) ],

    -(2 pi)^{-d/2} omega_{d-2} times the lambda^{-d-2a} coefficient of the J
    expansion.  Its poles, s = -a - N0 and (d+2)/2 + N0, lie outside the
    strip 0 < Re s < d/2; G(-a) < 0 makes it positive for real s there."""
    a = alpha
    pref = (-(d - 1.0) * 2.0 ** (-d / 2.0 - 1.0) * gamma_fn(-a).real
            / gamma_fn((d + 2.0 * a + 2.0) / 2.0).real)
    return GammaProduct(pref, ((1.0, a, +1), (-1.0, (d + 2.0) / 2.0, +1),
                               (1.0, 0.0, -1), (-1.0, (d + 2.0 - 2.0 * a) / 2.0, -1)))


def k_constant_gamma(params: ModelParams) -> float:
    """K in closed form: k_product at the real s of params (> 0)."""
    val = k_product(params.d, params.alpha)(params.s).real
    if not val > 0.0:
        raise DomainError(f"K came out non-positive ({val!r}) for {params!r}")
    return val


def k_constant_integral(params: ModelParams) -> float:
    """K as the rescaled-and-rotated scale-free integral

        (2 pi)^{-d/2} omega_{d-2}
            int_0^inf r^{-1-2a} int_0^pi sin^d(t) (1 - (1-2r cos t+r^2)^{-s}) dt dr,

    one radial quadrature of the closed-form angular integral
    (specfun.gegenbauer_defect, which vanishes like r^2 at the origin).
    Raises ToleranceNotReached when the radial quadrature is not certified.
    """
    d, a, s = params.d, params.alpha, params.s

    def body(r):
        return r ** (-1.0 - 2.0 * a) * gegenbauer_defect(d, s, r)

    # r = 1 is the kink left by the angular near-singularity at (r, t) = (1, 0);
    # the defect tends to B(1/2, (d+1)/2), so body decays like r^{-1-2a}
    v, _, _ = radial_quad(body, 1.0, 1e-10, 400, 2.0 * a)
    return model_prefactor(d) * v


def riesz_constant(d: int, sigma: float) -> float:
    """c_R(sigma) = pi^{d/2} 2^{2 sigma} G(sigma)/G(d/2 - sigma), the constant
    with <|x|^{2 sigma - d} * phi, phi> = c_R(sigma) ||phi||^2 in the
    homogeneous Sobolev norm of index -sigma."""
    if not (0.0 < sigma < d / 2.0):
        raise DomainError("riesz_constant requires 0 < sigma < d/2")
    return (math.pi ** (d / 2.0) * 2.0 ** (2.0 * sigma)
            * gamma_fn(sigma).real / gamma_fn(d / 2.0 - sigma).real)


def d_constant(d: int, alpha: float) -> float:
    """Amplitude of the scale-free covariance defect, in closed form:

        D = (2 pi)^{-d/2} (d-1) omega_{d-1} / (d+2a)
            * (-G(d/2) G(-a) 2^{-2a-1} / G(d/2+a))  > 0.

    D is the trace of the defect divided by (d + 2a): the transverse part
    carries weight (1 + 2a/(d-1)) relative to the longitudinal one.  The
    trace is (2 pi)^{-d/2} (d-1) omega_{d-2} int_0^inf r^{-1-2a}
    int_0^pi (1 - cos(r cos t)) sin^{d-2}(t) dt dr; Poisson's integral makes
    the angular factor B(1/2, (d-1)/2) (1 - 0F1(; d/2; -r^2/4)), the Beta
    turns omega_{d-2} into omega_{d-1}, and the radial Mellin transform is
    the Gamma quotient (DLMF 10.22.43 with 10.16.9, continued to 0 < a < 1).
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0,1)")
    a = alpha
    radial = (-gamma_fn(d / 2.0).real * gamma_fn(-a).real * 2.0 ** (-2.0 * a - 1.0)
              / gamma_fn(d / 2.0 + a).real)
    return ((2.0 * math.pi) ** (-d / 2.0) * (d - 1.0) * sphere_surface(d - 1)
            * radial / (d + 2.0 * a))


def k_constant_appendix(params: ModelParams) -> float:
    """K via the real-space kernel route, valid when the contracted kernel is
    again a Riesz potential (s + alpha > 1):

        K = D_{alpha,d} * 2 (d-2s)(s+alpha-1) * c_R(s+alpha-1) / c_R(s).
    """
    d, a, s = params.d, params.alpha, params.s
    if s + a <= 1.0:
        raise CaseOutOfRange("appendix route requires s + alpha > 1")
    return (d_constant(d, a) * 2.0 * (d - 2.0 * s) * (s + a - 1.0)
            * riesz_constant(d, s + a - 1.0) / riesz_constant(d, s))

