"""Meromorphic Gamma-product engine: pole bookkeeping, residues, vertical
contour evaluation, residue-shift asymptotics, and the three independent
routes to the dissipation constant K.

A GammaProduct stores prefactor * prod_i Gamma(coef_i z + offset_i)^{+-1},
so pole locations and residues are exact affine data rather than output of
numerical root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special as _scisp

from .errors import (CaseOutOfRange, DomainError, HigherOrderPole, PoleError,
                     StripViolation, ToleranceNotReached)
from .quad import quadpack, radial_quad
from .specfun import (ModelParams, gamma_fn, gamma_pole_index,
                      gegenbauer_defect, poisson_bessel_defect,
                      sin_power_integral, sphere_surface)

__all__ = [
    "GammaProduct", "AsymptoticTerm", "KReport",
    "h_product", "f_product", "jl_product",
    "poles_in_strip", "residue_at", "parseval_contour",
    "expand_J", "expansion_terms",
    "k_constant_gamma", "k_constant_integral", "k_constant_appendix",
    "riesz_constant", "d_constant", "k_report",
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
        scalar = zs.ndim == 0
        flat = np.atleast_1d(zs).ravel()
        coefs = np.array([f[0] for f in self.factors])
        offs = np.array([f[1] for f in self.factors])
        pows = np.array([f[2] for f in self.factors])
        args = coefs[:, None] * flat[None, :] + offs[:, None]
        # reject evaluation at poles of any retained factor; a reciprocal
        # factor at a pole of its Gamma is a zero of the product
        near = gamma_pole_index(args) >= 0
        if np.any(near & (pows[:, None] == 1)):
            raise PoleError("GammaProduct evaluated at a pole; use residue_at")
        lg = _scisp.loggamma(np.where(near, 1.0, args))
        tot = (pows[:, None] * lg).sum(axis=0)
        if self.prefactor != 1.0:
            tot = tot + np.log(complex(self.prefactor))
        out = np.where(near.any(axis=0), 0.0, np.exp(tot))
        return complex(out[0]) if scalar else out.reshape(zs.shape)


@dataclass(frozen=True)
class AsymptoticTerm:
    """One term coefficient * lambda^{-exponent} of a residue expansion."""
    exponent: float
    coefficient: float


@dataclass
class KReport:
    """The dissipation constant computed along independent routes."""
    k_gamma: float
    k_integral: float
    k_appendix: Optional[float]
    params: ModelParams

    def max_relative_deviation(self) -> float:
        devs = [abs(self.k_integral - self.k_gamma) / self.k_gamma]
        if self.k_appendix is not None:
            devs.append(abs(self.k_appendix - self.k_gamma) / self.k_gamma)
        return max(devs)


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


def residue_at(expr: GammaProduct, pole: float,
               lambda_exponent_shift: float = 0.0) -> AsymptoticTerm:
    """Asymptotic term from the simple pole of -lambda^{-z} expr(z) at z=pole:
    coefficient = -lim (z-pole) expr(z), exponent = pole (+ optional shift).

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
    return AsymptoticTerm(exponent=pole + lambda_exponent_shift,
                          coefficient=-res.real)


def _gamma_tail_integral(p: float, y0: float) -> float:
    """Upper bound for int_y0^inf y^p e^{-pi y/2} dy."""
    x = math.pi * y0 / 2.0
    if p > -1.0:
        return (2.0 / math.pi) ** (p + 1.0) * math.exp(
            math.lgamma(p + 1.0)) * _scisp.gammaincc(p + 1.0, x)
    # p <= -1: monotone bound y^p <= y0^p
    return y0 ** p * (2.0 / math.pi) * math.exp(-x)


def parseval_contour(lam: float, params: ModelParams, line_re: float,
                     rel_tol: float = 1e-10) -> float:
    """J(lambda) as the vertical-line integral
    (1/2 pi) int_{-Y}^{Y} Re[ lambda^{-(r+iy)} M[h] M[f,1-.] ] dy,
    with the truncation height Y grown until the Gamma-asymptotics tail bound
    (algebraic factor times e^{-pi y / 2}) drops below 1e-10 of the integral.
    """
    if lam <= 0:
        raise DomainError("parseval_contour requires lambda > 0")
    d, a, s = params.d, params.alpha, params.s
    lo, hi = d - 2.0 * s, float(d)
    if not (lo < line_re < hi):
        raise StripViolation(
            f"line Re z = {line_re} outside the fundamental strip ({lo}, {hi})")
    prod = jl_product(params)
    for x, _ in poles_in_strip(prod, line_re - 1.0, line_re + 1.0):
        if abs(x - line_re) < 1e-9:
            raise StripViolation(f"line Re z = {line_re} within 1e-9 of pole {x}")

    loglam = math.log(lam)

    def g(y):
        z = complex(line_re, y)
        return (prod(z) * np.exp(-z * loglam)).real

    # integrate upward in blocks until the analytic tail bound is negligible
    p_alg = a + 2.0 * s - 3.0 - d / 2.0  # algebraic growth power on the line
    edges = [0.0, 30.0]
    total = 0.0
    nmax_y = 400.0
    while True:
        y0, y1 = edges[-2], edges[-1]
        val, err, _ = quadpack(g, y0, y1, rel_tol=rel_tol, limit=800)
        total += val
        # amplitude constant fitted on the Gamma asymptotic profile
        ys = np.array([max(6.0, y1 / 4.0), y1 / 2.0, y1])
        amp = 0.0
        for yy in ys:
            z = complex(line_re, yy)
            amp = max(amp, abs(prod(z)) * math.exp(math.pi * yy / 2.0)
                      * yy ** (-p_alg))
        tail = 2.0 * amp * lam ** (-line_re) * _gamma_tail_integral(p_alg, y1)
        if tail <= 1e-10 * max(abs(total), 1e-300):
            break
        if y1 >= nmax_y:
            raise ToleranceNotReached(
                f"contour truncation height capped at {nmax_y} with tail bound {tail:.2e}",
                value=total / math.pi, error_estimate=tail)
        edges.append(min(nmax_y, 2.0 * y1))
    return total / math.pi


def expansion_terms(params: ModelParams, r_prime: float):
    """Residue terms of J(lambda) for all poles between the fundamental strip
    and Re z = r_prime, sorted by increasing exponent.  r_prime must not sit
    on a pole of either Mellin factor."""
    d, s = params.d, params.s
    prod = jl_product(params)
    base = d - s  # mid-strip
    if prod.pole_order(r_prime) > 0:
        raise DomainError(f"r_prime = {r_prime} sits on a pole")
    poles = poles_in_strip(prod, base, r_prime)
    terms = []
    for x, order in poles:
        if order > 1:
            raise HigherOrderPole(f"pole of order {order} at z = {x}")
        terms.append(residue_at(prod, x))
    return terms, r_prime


def expand_J(params: ModelParams, r_prime: float):
    """Three-term residue expansion of J: exponents d, d+2 alpha, d+2, with
    remainder O(lambda^{-r_prime}); r_prime must lie in (d+2, d+2 alpha+2)."""
    d, a = params.d, params.alpha
    if not (d + 2.0 < r_prime < d + 2.0 * a + 2.0):
        raise DomainError(
            f"r_prime must lie in ({d + 2.0}, {d + 2.0 * a + 2.0})")
    return expansion_terms(params, r_prime)


def k_constant_gamma(params: ModelParams) -> float:
    """Closed Gamma-quotient form of the dissipation constant:

        K = -(d-1) 2^{-d/2-1} G(s+a) G(-a) G((d-2s+2)/2)
            / [ G(s) G((d+2a+2)/2) G((d-2s+2-2a)/2) ]  > 0.

    Equivalently -(2 pi)^{-d/2} omega_{d-2} times the lambda^{-d-2a}
    coefficient of the J expansion (G(-a) < 0 makes the sign work out).
    """
    d, a, s = params.d, params.alpha, params.s
    val = -(d - 1.0) * 2.0 ** (-d / 2.0 - 1.0) \
        * gamma_fn(s + a).real * gamma_fn(-a).real \
        * gamma_fn((d - 2.0 * s + 2.0) / 2.0).real \
        / (gamma_fn(s).real
           * gamma_fn((d + 2.0 * a + 2.0) / 2.0).real
           * gamma_fn((d - 2.0 * s + 2.0 - 2.0 * a) / 2.0).real)
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

    # r = 1 is the kink left by the angular near-singularity at (r, t) = (1, 0)
    v, _, _ = radial_quad(body, 1.0, 1e-10, 400)
    return (2.0 * math.pi) ** (-d / 2.0) * sphere_surface(d - 2) * v


def riesz_constant(d: int, sigma: float) -> float:
    """c_R(sigma) = pi^{d/2} 2^{2 sigma} G(sigma)/G(d/2 - sigma), the constant
    with <|x|^{2 sigma - d} * phi, phi> = c_R(sigma) ||phi||^2 in the
    homogeneous Sobolev norm of index -sigma."""
    if not (0.0 < sigma < d / 2.0):
        raise DomainError("riesz_constant requires 0 < sigma < d/2")
    return (math.pi ** (d / 2.0) * 2.0 ** (2.0 * sigma)
            * gamma_fn(sigma).real / gamma_fn(d / 2.0 - sigma).real)


def d_constant(d: int, alpha: float, z_abs: float = 1.0) -> float:
    """Amplitude of the scale-free covariance defect, from the trace identity
    evaluated at separation |z| = z_abs (the return value scales as
    |z|^{2 alpha}; at the default z_abs = 1 it is the amplitude itself)."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0,1)")
    if z_abs <= 0:
        raise DomainError("z_abs must be positive")
    # trace of the scale-free covariance defect at |z| = z_abs, divided by
    # (d + 2a): the transverse part carries weight (1 + 2a/(d-1)) relative to
    # the longitudinal one, so Tr = (longitudinal coeff) * (d + 2a).  The
    # angular factor is Poisson's Bessel integral, which tends to a_inf.
    a, a_inf = alpha, sin_power_integral(d - 2.0, 0.0)

    def body(r):
        return r ** (-1.0 - 2.0 * a) * poisson_bessel_defect(d, z_abs * r)

    r_cut = 60.0 / z_abs
    v1, _, _ = quadpack(body, 0.0, 1.0 / z_abs, rel_tol=1e-10, limit=400)
    v2, _, _ = quadpack(body, 1.0 / z_abs, r_cut, rel_tol=1e-10, limit=2000)

    # tail: split 1 - cos into the constant part (integrated exactly) and the
    # oscillatory remainder, summed over 72 half-period chunks with iterated
    # averaging to accelerate the alternating series
    tail_const = a_inf * r_cut ** (-2.0 * a) / (2.0 * a)

    def osc(r):
        return r ** (-1.0 - 2.0 * a) * (a_inf - poisson_bessel_defect(d, z_abs * r))

    edges = r_cut + (math.pi / z_abs) * np.arange(73)
    partial = np.cumsum([quadpack(osc, lo, hi, abs_tol=1e-14, rel_tol=1e-9,
                                  limit=200)[0]
                         for lo, hi in zip(edges[:-1], edges[1:])])
    for _ in range(12):
        partial = 0.5 * (partial[1:] + partial[:-1])

    total = v1 + v2 + tail_const - partial[-1]
    return ((2.0 * math.pi) ** (-d / 2.0) * (d - 1.0) * sphere_surface(d - 2)
            * total / (d + 2.0 * a))


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


def k_report(params: ModelParams) -> KReport:
    """All available K routes for one parameter point."""
    kg = k_constant_gamma(params)
    ki = k_constant_integral(params)
    ka = None
    if params.s + params.alpha > 1.0:
        ka = k_constant_appendix(params)
    return KReport(k_gamma=kg, k_integral=ki, k_appendix=ka, params=params)
