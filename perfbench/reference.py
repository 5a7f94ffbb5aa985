"""Reference values computed apart from the program: closed forms with
scipy.special, adaptive scipy quadrature of defining integrals, and a direct
sum over the lattice noise modes.  Nothing here imports kraichnan_lab."""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


def k_closed_form(d: int, alpha: float, s: float) -> float:
    """Dissipation constant from the closed Gamma quotient,

        K = -(d-1) 2^{-d/2-1} G(s+a) G(-a) G((d-2s+2)/2)
            / [G(s) G((d+2a+2)/2) G((d-2s+2-2a)/2)].
    """
    g = special.gamma
    a = alpha
    return float(-(d - 1.0) * 2.0 ** (-d / 2.0 - 1.0)
                 * g(s + a) * g(-a) * g((d - 2.0 * s + 2.0) / 2.0)
                 / (g(s) * g((d + 2.0 * a + 2.0) / 2.0)
                    * g((d - 2.0 * s + 2.0 - 2.0 * a) / 2.0)))


def sphere_measure(n: int) -> float:
    """Surface measure of the unit sphere S^n."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / special.gamma((n + 1) / 2.0)


def log_bump_norm(d: int, alpha: float, center: float, width: float) -> float:
    """int |xi|^{2 alpha - 2} a(|xi|) d xi for the log-normal bump
    a = exp(-(ln(rho/c))^2 / (2 w^2)) in d = 2:
    2 pi c^{2 alpha} w sqrt(2 pi) e^{2 alpha^2 w^2}."""
    if d != 2:
        raise ValueError("closed form written for d = 2")
    return (2.0 * math.pi * center ** (2.0 * alpha) * width
            * math.sqrt(2.0 * math.pi) * math.exp(2.0 * alpha ** 2 * width ** 2))


def angular_kernel(rho_i: float, rho_j: float, d: int, alpha: float,
                   scale_free: bool) -> float:
    """Defining angular integral of the radial kernel,

        int_0^pi sin^d(t) rho_i^2 rho_j^2 / D^2 W(D^2) dt,
        D^2 = rho_i^2 + rho_j^2 - 2 rho_i rho_j cos t,

    with W = <D>^{-(d+2a)} (massive) or D^{-(d+2a)} (scale-free): the
    projection |P_perp xi|^2 = rho_i^2 rho_j^2 sin^2 t / D^2 times the
    covariance, on the angular measure sin^{d-2} t dt."""
    def f(t):
        D2 = rho_i ** 2 + rho_j ** 2 - 2.0 * rho_i * rho_j * math.cos(t)
        w = D2 ** (-(d + 2.0 * alpha) / 2.0) if scale_free else \
            (1.0 + D2) ** (-(d + 2.0 * alpha) / 2.0)
        return math.sin(t) ** d * rho_i ** 2 * rho_j ** 2 / D2 * w

    # the integrand peaks at t ~ |rho_i - rho_j| / sqrt(rho_i rho_j)
    peak = min(abs(rho_i - rho_j) / math.sqrt(rho_i * rho_j), 1.0)
    value, _ = integrate.quad(f, 0.0, math.pi, points=[peak / 4.0, peak],
                              epsabs=0.0, epsrel=2e-14, limit=400)
    return value


def far_field_sigma(nodes, log_step: float, i: int, j: int, d: int,
                    alpha: float, scale_free: bool) -> float:
    """Flux-form kernel entry sigma_ij = w_i kappa_ij for cells i, j outside
    the near band: midpoint rule in log for the cell integral, with cell
    weights omega_{d-1} rho^d h."""
    pref = ((2.0 * math.pi) ** (-d / 2.0) * sphere_measure(d - 2)
            * sphere_measure(d - 1))
    v_i = nodes[i] ** d * log_step
    v_j = nodes[j] ** d * log_step
    return pref * v_i * v_j * angular_kernel(nodes[i], nodes[j], d, alpha,
                                             scale_free)


def lattice_rates(n_max: int, alpha: float, spectrum: dict) -> dict:
    """Master-equation rate of the truncated lattice model by a direct sum
    over noise modes j (all nonzero j with |j|_inf <= n_max),

        d/dt a(k) = sum_j s_j^2 (e_j . k)^2 [a(k - j) 1{k-j in band} - a(k)],

    with s_j^2 = (1 + |j|^2)^{-(1 + alpha)} and e_j = j_perp / |j| (d = 2).
    Returns rates on the half band kx >= 0, keyed like the spectrum."""
    n = n_max
    axis = np.arange(-n, n + 1)
    band = np.array([(x, y) for x in axis for y in axis])          # sources
    targets = np.array([(x, y) for x in range(0, n + 1) for y in axis])
    a_band = np.array([spectrum.get((int(x), int(y)), 0.0) for x, y in band])

    jump = targets[:, None, :] - band[None, :, :]                   # j = k - q
    j2 = (jump ** 2).sum(axis=2).astype(float)
    is_mode = (np.abs(jump).max(axis=2) <= n) & (j2 > 0)
    # (e_j . k)^2 = (k x j)^2 / |j|^2 with k x j = kx jy - ky jx
    cross = (targets[:, None, 0] * jump[:, :, 1]
             - targets[:, None, 1] * jump[:, :, 0]).astype(float)
    weight = np.where(is_mode, (1.0 + j2) ** (-(1.0 + alpha)) * cross ** 2
                      / np.where(is_mode, j2, 1.0), 0.0)
    gain = weight @ a_band

    # loss: every noise mode, including jumps that leave the band
    modes = np.array([(x, y) for x in axis for y in axis if (x, y) != (0, 0)])
    m2 = (modes ** 2).sum(axis=1).astype(float)
    mcross = (targets[:, None, 0] * modes[None, :, 1]
              - targets[:, None, 1] * modes[None, :, 0]).astype(float)
    loss_rate = ((1.0 + m2) ** (-(1.0 + alpha)) * mcross ** 2 / m2).sum(axis=1)
    a_target = np.array([spectrum.get((int(x), int(y)), 0.0) for x, y in targets])
    rates = gain - loss_rate * a_target
    return {(int(x), int(y)): float(r) for (x, y), r in zip(targets, rates)}
