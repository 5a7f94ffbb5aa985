"""Independent oracles for the closed forms of the package, and the
test-only routes the package itself does not run.

The defining angular integrals by QUADPACK, so the tests compare the 2F1
forms and the massive kernel (and everything built on them) with a
separate computation; the continuum integral over the modes outside a
radial grid, by adaptive QUADPACK; the covariance defect D by radial
quadrature of Poisson's Bessel integral, against the Gamma quotient
mellin.d_constant; J on a vertical Mellin contour and its three-term
residue expansion; the unsplit polar and the direct massive flux
integrals, the scale-free flux -K |xi|^{2-2a-2s}, the continuum right
side of the balance identity and the grid flux of a weight summed pair
by pair; mode access to a lattice sample, the single-sample
Euler-Maruyama step, the exact second-moment recursion of that scheme,
and the Sobolev estimate of an ensemble record."""

import math

import numpy as np
from scipy import special as _scisp

from kraichnan_lab.errors import DomainError, ToleranceNotReached
from kraichnan_lab.flux import flux_F
from kraichnan_lab.mc_spde import FieldSample, _BandStepper, lattice_master_rate
from kraichnan_lab.mellin import (expansion_terms, jl_product, k_constant_gamma,
                                  poles_in_strip)
from kraichnan_lab.quad import quadpack, radial_quad
from kraichnan_lab.specfun import (gegenbauer_defect, sin_power_integral,
                                   sphere_surface)


def gegenbauer_quad(d, s, r, defect=False, rel_tol=1e-13):
    """int_0^pi sin^d(t) |1 - 2 r cos t + r^2|^{-s} dt by QUADPACK, or of
    1 - |...|^{-s} when `defect`.  Near r = 1 the peak at t = 0 is resolved
    by t = u^2 on [0, 1/4].  The base is (1 - r)^2 + 4 r sin^2(t/2), a sum
    of squares that keeps its digits next to r = 1; for the defect it is
    1 + w with w = r (r - 2 cos t) through log1p/expm1, so small r loses no
    digits."""
    def g(t):
        if defect:
            p = -s * math.log1p(r * (r - 2.0 * math.cos(t)))
            return -math.sin(t) ** d * math.expm1(p)
        base = (1.0 - r) ** 2 + 4.0 * r * math.sin(0.5 * t) ** 2
        return math.sin(t) ** d * base ** -s

    if abs(r - 1.0) < 1e-3:
        tc = 0.25
        v1, _, _ = quadpack(lambda u: 2.0 * u * g(u * u), 0.0, math.sqrt(tc),
                            rel_tol=rel_tol, limit=500)
        v2, _, _ = quadpack(g, tc, math.pi, rel_tol=rel_tol, limit=500)
        return v1 + v2
    return quadpack(g, 0.0, math.pi, rel_tol=rel_tol, limit=500)[0]


def massive_ang_quad(rho_i, rho_j, d, alpha, rel_tol=1e-13):
    """Massive angular kernel int_0^pi sin^d(t) (rho_i rho_j)^2 D^-2
    (1 + D^2)^-(d+2a)/2 dt by QUADPACK, with
    D^2 = (rho_> - rho_<)^2 + 4 rho_< rho_> sin^2(t/2); independent of the
    panel ladder and of the 2F1 series.  The integrand peaks at
    t ~ (rho_> - rho_<) / sqrt(rho_< rho_>); a quarter of that and every
    4^k times it below pi are declared as break points.  Past the peak the
    integrand differs from its limit by a relative peak^2/t^2, which one
    Gauss-Kronrod panel from a few peaks to pi neither samples nor sees in
    its error estimate: with break points at 1/4, 1 and 4 peaks only, d = 2
    and (1, 1 + 1e-7) read 2.8e-8 low under an estimate of 4e-14."""
    lo, hi = min(rho_i, rho_j), max(rho_i, rho_j)
    beta = (d + 2.0 * alpha) / 2.0
    p = lo * hi

    def g(t):
        D2 = (hi - lo) ** 2 + 4.0 * p * math.sin(0.5 * t) ** 2
        return math.sin(t) ** d * p * p / D2 * (1.0 + D2) ** -beta

    points, c = [], 0.25 * (hi - lo) / math.sqrt(p)
    while 0.0 < c < math.pi:
        points.append(c)
        c *= 4.0
    return quadpack(g, 0.0, math.pi, points, rel_tol=rel_tol, limit=500)[0]


def off_grid_quad(ang, rho, rho_min, rho_max, d, alpha, rel_tol=1e-13):
    """The continuum absorb rate of a node at rho: (2 pi)^{-d/2} omega_{d-2}
    times int ang(rho, r) r^{d-1} dr over r < rho_min and r > rho_max, by
    QUADPACK of the scalar angular integral ang(rho, r), independent of the
    package's radial points.  Each side maps onto x in (0, 1], with
    x = (r/rho_min)^{d+2} below the grid and x = (rho_max/r)^{2a} above it:
    the powers with which the integrand vanishes at r = 0 and decays at
    r = inf, so it tends to a constant at x = 0, and adaptive bisection
    resolves the peak next to the grid end at x = 1.  Raises
    ToleranceNotReached when QUADPACK flags a side."""
    def side(end, p):
        def g(x):
            r = end * x ** (1.0 / p)
            return ang(rho, r) * r ** d / (abs(p) * x)
        value, err, ok = quadpack(g, 0.0, 1.0, rel_tol=rel_tol, limit=1000)
        if not ok:
            raise ToleranceNotReached("off-grid quadrature flagged",
                                      value=value, error_estimate=err)
        return value

    total = side(rho_min, d + 2.0) + side(rho_max, -2.0 * alpha)
    return (2.0 * math.pi) ** (-d / 2.0) * sphere_surface(d - 2) * total


def f_inner_quad(r, params, rel_tol=1e-12):
    """f(r) = r^{d-1} int_0^pi sin^d(t) |1 - 2 r cos t + r^2|^{-s} dt with the
    angular integral by QUADPACK."""
    if r == 0.0:
        return 0.0
    return r ** (params.d - 1) * gegenbauer_quad(params.d, params.s, r,
                                                 rel_tol=rel_tol)


def poisson_quad(d, x, rel_tol=1e-13):
    """int_0^pi (1 - cos(x cos t)) sin^{d-2}(t) dt by QUADPACK, with
    1 - cos y written as 2 sin^2(y/2) so small x loses no digits."""
    def g(t):
        return 2.0 * math.sin(0.5 * x * math.cos(t)) ** 2 * math.sin(t) ** (d - 2)
    return quadpack(g, 0.0, math.pi, rel_tol=rel_tol,
                    limit=max(200, int(10 + x)))[0]


def poisson_bessel_defect(d, x):
    """int_0^pi (1 - cos(x cos t)) sin^{d-2}(t) dt
    = B(1/2, (d-1)/2) (1 - 0F1(; d/2; -x^2/4)), by Poisson's integral for
    G(nu+1) (2/x)^nu J_nu(x) = 0F1(; nu+1; -x^2/4) with nu = (d-2)/2 (DLMF
    10.9.4, 10.16.9).  Below x = 1, where 1 - 0F1 cancels, it is minus 16
    terms of the power series of 0F1 - 1."""
    if x < 0.0:
        raise DomainError("poisson_bessel_defect requires x >= 0")
    if x < 1.0:
        k = np.arange(1.0, 17.0)
        terms = np.cumprod(-x * x / (4.0 * (d / 2.0 + k - 1.0) * k))
        return -sin_power_integral(d - 2.0, 0.0) * float(terms.sum())
    return sin_power_integral(d - 2.0, 0.0) * (
        1.0 - float(_scisp.hyp0f1(d / 2.0, -x * x / 4.0)))


def d_constant_quad(d, alpha, z_abs):
    """Amplitude of the scale-free covariance defect by radial quadrature of
    Poisson's Bessel integral, from the trace identity evaluated at
    separation |z| = z_abs (the return value scales as |z|^{2 alpha}; at
    z_abs = 1 it is the amplitude itself)."""
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


def _gamma_tail_integral(p, y0):
    """Upper bound for int_y0^inf y^p e^{-pi y/2} dy."""
    x = math.pi * y0 / 2.0
    if p > -1.0:
        return (2.0 / math.pi) ** (p + 1.0) * math.exp(
            math.lgamma(p + 1.0)) * _scisp.gammaincc(p + 1.0, x)
    # p <= -1: monotone bound y^p <= y0^p
    return y0 ** p * (2.0 / math.pi) * math.exp(-x)


class StripViolation(DomainError):
    """Contour line outside the admissible fundamental strip."""


def parseval_contour(lam, params, line_re, rel_tol=1e-10):
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


def expand_J(params, r_prime):
    """Three-term residue expansion of J: exponents d, d+2 alpha, d+2, with
    remainder O(lambda^{-r_prime}); r_prime must lie in (d+2, d+2 alpha+2)."""
    d, a = params.d, params.alpha
    if not (d + 2.0 < r_prime < d + 2.0 * a + 2.0):
        raise DomainError(
            f"r_prime must lie in ({d + 2.0}, {d + 2.0 * a + 2.0})")
    return expansion_terms(params, r_prime)


def flux_F_reference_2d(xi_abs, params, rel_tol=1e-9):
    """Unsplit polar quadrature of the defining difference-form integral;
    independent of the I/G split and of the Mellin machinery."""
    if xi_abs <= 0:
        raise DomainError("requires |xi| > 0")
    d, a, s = params.d, params.alpha, params.s
    lam = xi_abs

    def inner(r):
        def g(t):
            D2 = lam * lam - 2.0 * lam * r * math.cos(t) + r * r
            proj = r * r * lam * lam * math.sin(t) ** 2 / D2 if D2 > 0 else 0.0
            w = (1.0 + D2) ** (-(d + 2.0 * a) / 2.0)
            return proj * w * math.sin(t) ** (d - 2) * (r ** (-2.0 * s) - lam ** (-2.0 * s))
        v, _, _ = quadpack(g, 0.0, math.pi, rel_tol=rel_tol, limit=400)
        return v * r ** (d - 1)

    v, _, _ = radial_quad(inner, lam, rel_tol, 400)
    return (2.0 * math.pi) ** (-d / 2.0) * sphere_surface(d - 2) * v


def flux_F_m_direct(xi_abs, params, m, rel_tol=1e-8):
    """Direct quadrature of the flux integral regularized by the covariance
    mass m (oracle for the rescaling identity)."""
    if m <= 0 or xi_abs <= 0:
        raise DomainError("requires m > 0 and |xi| > 0")
    d, a, s = params.d, params.alpha, params.s
    lam = xi_abs

    def inner(r):
        # int_0^pi sin^d(t) (|r^2 - 2 r lam cos t + lam^2|^{-s} - lam^{-2s}) dt
        v = -lam ** (-2.0 * s) * gegenbauer_defect(d, s, r / lam)
        return v * lam * lam * r ** (d - 1) * (m * m + r * r) ** (-(d / 2.0 + a))

    v, _, _ = radial_quad(inner, lam, rel_tol, 400)
    return (2.0 * math.pi) ** (-d / 2.0) * sphere_surface(d - 2) * v


def flux_F_selfsimilar(xi_abs, params):
    """Scale-free limit of the flux: -K |xi|^{2-2a-2s} (always negative)."""
    if xi_abs <= 0:
        raise DomainError("flux_F_selfsimilar requires |xi| > 0")
    a, s = params.alpha, params.s
    return -k_constant_gamma(params) * xi_abs ** (2.0 - 2.0 * a - 2.0 * s)


def continuum_rhs(state, kernel):
    """sum a w F(rho): the right side of the balance identity with the
    continuum flux F (flux_F, or its scale-free limit for a scale-free
    kernel) in place of the grid flux.  The absorbed outflow is part of F
    already."""
    flux_fn = flux_F_selfsimilar if kernel.selfsimilar else flux_F
    f = np.array([flux_fn(float(r), state.params) for r in state.grid.nodes])
    return float(np.sum(state.values * state.grid.weights * f))


def grid_flux(kernel, psi):
    """The kernel's grid flux of the weight psi, summed pair by pair:
    sum_j sigma_ij (psi_j - psi_i) / w_i - absorb_i psi_i
    - 2 nu rho_i^2 psi_i."""
    grid = kernel.grid
    exchange = np.einsum("ij,ij->i", kernel.sigma, psi[None, :] - psi[:, None])
    return (exchange / grid.weights - kernel.absorb * psi
            - 2.0 * kernel.params.nu * grid.nodes ** 2 * psi)


def amplitude(sample, k):
    """rho(k) of a band sample for any lattice mode k = (kx, ky), the kx < 0
    half read as the conjugate of its partner."""
    kx, ky = k
    n = sample.n_max
    if max(abs(kx), abs(ky)) > n:
        raise DomainError(f"mode {k} outside the lattice")
    if kx >= 0:
        return complex(sample.spec[ky + n, kx])
    return complex(np.conj(sample.spec[n - ky, -kx]))


def mode_dict(sample):
    """Every lattice mode of a band sample as {(kx, ky): rho(k)}."""
    n = sample.n_max
    return {(kx, ky): amplitude(sample, (kx, ky))
            for kx in range(-n, n + 1) for ky in range(-n, n + 1)}


def em_step(sample, noise, dt, rng=None, dbeta=None):
    """Single-sample Euler-Maruyama step.  Complex mode increments dbeta
    (E|dbeta|^2 = dt) may be passed explicitly; otherwise they are drawn from
    rng."""
    if dbeta is None:
        if rng is None:
            raise DomainError("em_step needs either rng or explicit dbeta")
        z = rng.standard_normal((noise.n_half, 2))
        dbeta = math.sqrt(dt / 2.0) * (z[:, 0] + 1j * z[:, 1])
    spec = sample.spec.copy()
    _BandStepper(noise).step(spec[:, None, :], dt, np.asarray(dbeta)[None, :])
    return FieldSample(spec=spec)


def em_second_moments(noise, spectrum, dt, n_steps):
    """Exact mean power spectrum of the lattice Euler-Maruyama scheme.  The
    step is linear in rho, its increments are independent of rho with
    E dbeta_j conj(dbeta_j') = dt delta_jj' and E dbeta_j^2 = 0, so

        a_k <- a_k + dt R_k(a) + (c_k dt / 2)^2 a_k

    with R = lattice_master_rate and c = corrector_grid.  `spectrum` maps
    every band mode to E|rho(k)|^2 (reality-symmetric); returns maps of the
    same form after steps 1..n_steps."""
    n = noise.cfg.n_max
    a = dict(spectrum)
    out = []
    for _ in range(n_steps):
        half = {}
        for (kx, ky), rate in lattice_master_rate(noise, a).items():
            c = noise.corrector_grid[ky + n, kx]
            half[(kx, ky)] = a[(kx, ky)] + dt * rate + (0.5 * c * dt) ** 2 * a[(kx, ky)]
        a = {**half, **{(-kx, -ky): v for (kx, ky), v in half.items() if kx > 0}}
        out.append(a)
    return out


def sobolev_estimate(stats, s_query):
    """(value, std_err) of sum_{k != 0} |k|^{-2s} E|rho(k)|^2; the k = 0 mode
    is excluded (homogeneous norm).  Standard errors are combined assuming
    independent modes, which overstates nothing at the 3-sigma level used in
    the acceptance checks."""
    k2 = (stats.modes.astype(float) ** 2).sum(axis=1)
    keep = k2 > 0
    w = stats.multiplicity[keep] * k2[keep] ** (-s_query)
    value = float((w * stats.mean_spectrum[keep]).sum())
    err = float(math.sqrt(((w * stats.std_err[keep]) ** 2).sum()))
    return value, err
