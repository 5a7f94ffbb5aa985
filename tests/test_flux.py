"""Flux function: closed-form loss term, the dual evaluation routes, the
flux at other covariance masses (by the rescaling identity, against the
direct massive integral), and the residual diagnostics."""

import math

import numpy as np
import pytest

from kraichnan_lab import flux, mellin
from kraichnan_lab.errors import DomainError
from kraichnan_lab.flux import G_term, asymptotic_residual_table, flux_F
from kraichnan_lab.quad import quadpack
from kraichnan_lab.specfun import ModelParams, sphere_surface
from oracles import (expand_J, flux_F_m_direct, flux_F_reference_2d,
                     flux_F_selfsimilar)

P = ModelParams(d=2, alpha=0.5, s=0.75)


def flux_at_mass(xi_abs, params, m, method="auto"):
    """The flux at covariance mass m by the rescaling identity
    F^m(xi) = m^{2-2s-2a} F(xi/m)."""
    return (m ** (2.0 - 2.0 * params.s - 2.0 * params.alpha)
            * flux_F(xi_abs / m, params, method=method))


class TestGTerm:
    def test_power_law_scaling(self):
        p = ModelParams(d=3, alpha=0.3, s=1.1)
        ratio = G_term(2.0, p) / G_term(1.0, p)
        assert ratio == pytest.approx(2.0 ** (2.0 - 2.0 * p.s), rel=1e-14)

    @pytest.mark.parametrize("d,a", [(2, 0.5), (3, 0.4)])
    def test_vs_quadrature(self, d, a):
        # G(xi)/|xi|^{2-2s} equals the integral of (1-eta_1^2/|eta|^2) <eta>^{-d-2a}
        p = ModelParams(d=d, alpha=a, s=0.5)
        got = G_term(1.0, p)

        def radial(r):
            return r ** (d - 1.0) * (1.0 + r * r) ** (-(d / 2.0 + a))
        rad, _, _ = quadpack(radial, 0.0, math.inf, None, 1e-13, 1e-11)
        ang, _, _ = quadpack(lambda t: math.sin(t) ** d, 0.0, math.pi, None,
                             1e-13, 1e-11)
        ref = sphere_surface(d - 2) * rad * ang
        assert abs(got - ref) <= 1e-8 * abs(ref)

    def test_domain(self):
        with pytest.raises(DomainError):
            G_term(0.0, P)


class TestFluxF:
    def test_large_xi_negative(self):
        for d, a, f in ((2, 0.25, 0.5), (2, 0.75, 0.8), (3, 0.5, 0.2)):
            p = ModelParams(d=d, alpha=a, s=f * d / 2.0)
            for xi in (10.0, 100.0):
                assert flux_F(xi, p) < 0.0

    def test_unsplit_2d_oracle(self):
        got = flux_F(3.0, P, method="quadrature")
        ref = flux_F_reference_2d(3.0, P)
        assert abs(got - ref) <= 1e-5 * abs(ref)

    def test_dual_paths_agree_in_window(self):
        for xi in (20.0, 35.0, 50.0):
            fq = flux_F(xi, P, method="quadrature", rel_tol=1e-11)
            fm = flux_F(xi, P, method="mellin")
            assert abs(fq - fm) <= 1e-5 * abs(fq)

    @pytest.mark.parametrize("d,a,s", [(2, 0.02, 0.02), (3, 0.02, 0.03)])
    def test_quadrature_certified_at_slow_decay(self, d, a, s):
        # J's body decays like r^{-1-2a-2s}; at small alpha and s the
        # quadrature route is certified (it raises ToleranceNotReached
        # otherwise) from small to large |xi|, and meets the expansion
        p = ModelParams(d=d, alpha=a, s=s)
        for xi in (0.1, 2.0, 30.0):
            fq = flux_F(xi, p, method="quadrature", rel_tol=1e-11)
            assert math.isfinite(fq)
        fm = flux_F(30.0, p, method="mellin")
        assert abs(fq - fm) <= 1e-5 * abs(fq)

    def test_ig_cancellation_closed_form(self):
        # the exponent-d term of the expansion times omega_{d-2}|xi|^{d+2-2s}
        # reproduces G_term exactly
        for d, a, s in ((2, 0.5, 0.75), (3, 0.25, 1.0), (2, 0.75, 0.3),
                        (3, 0.75, 1.2), (2, 0.3, 0.33)):
            p = ModelParams(d=d, alpha=a, s=s)
            terms = expand_J(p, d + 2.0 + a)
            c_d = [t.coefficient for t in terms if abs(t.exponent - d) < 1e-9][0]
            for xi in (0.7, 5.0):
                lhs = sphere_surface(d - 2) * c_d * xi ** (2.0 - 2.0 * s)
                assert abs(lhs - G_term(xi, p)) <= 1e-10 * G_term(xi, p)

    def test_caches_bounded(self):
        # the residue-expansion cache, keyed on ModelParams, stays bounded in
        # parameter sweeps
        assert flux._deep_terms.cache_info().maxsize is not None

    def test_method_validation(self):
        with pytest.raises(DomainError):
            flux_F(1.0, P, method="nope")
        with pytest.raises(DomainError):
            flux_F(-1.0, P)


class TestFluxFm:
    def test_m_one_is_identity(self):
        # the direct massive integral at the unit mass is the flux itself
        assert flux_F_m_direct(3.0, P, 1.0) == pytest.approx(flux_F(3.0, P), rel=1e-8)

    def test_requires_positive_m(self):
        with pytest.raises(DomainError):
            flux_F_m_direct(1.0, P, 0.0)
        with pytest.raises(DomainError):
            flux_F_m_direct(1.0, P, -0.5)

    def test_direct_quadrature_cross_check(self):
        got = flux_at_mass(2.0, P, 0.5, method="quadrature")
        ref = flux_F_m_direct(2.0, P, 0.5)
        assert abs(got - ref) <= 1e-5 * abs(ref)

    def test_rescaling_identity_random_pairs(self):
        rng = np.random.default_rng(7)
        pbase = ModelParams(d=2, alpha=0.4, s=0.6)
        for _ in range(10):
            m = float(rng.uniform(0.2, 2.0))
            xi = float(rng.uniform(0.5, 8.0))
            lhs = flux_at_mass(xi, pbase, m)
            assert lhs == pytest.approx(flux_F_m_direct(xi, pbase, m), rel=1e-8)

    def test_selfsimilar_limit_rate(self):
        # |F^m - F^0| shrinks like m^{2-2a} at fixed xi
        xi = 1.0
        f0 = flux_F_selfsimilar(xi, P)
        errs = []
        ms = (0.5, 0.1, 0.02)
        for m in ms:
            errs.append(abs(flux_at_mass(xi, P, m) - f0))
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert abs(slope - (2.0 - 2.0 * P.alpha)) < 0.2

    def test_selfsimilar_bound_with_constant(self):
        # |F^m + K |xi|^{2-2a-2s}| <= C m^{2-2a} |xi|^{-2s} with C the
        # empirical bound constant from the residual table
        p = ModelParams(d=2, alpha=0.5, s=0.75)
        _, residuals, _ = asymptotic_residual_table(p, list(np.geomspace(1.0, 1e3, 25)))
        C = max(residuals)
        K = mellin.k_constant_gamma(p)
        for m in (0.5, 0.25):
            for xi in (1.0, 3.0, 10.0):
                lhs = abs(flux_at_mass(xi, p, m) + K * xi ** (2.0 - 2.0 * p.alpha - 2.0 * p.s))
                rhs = 1.05 * C * m ** (2.0 - 2.0 * p.alpha) * xi ** (-2.0 * p.s)
                assert lhs <= rhs


class TestSelfSimilarFlux:
    def test_always_negative(self):
        for xi in (0.01, 1.0, 100.0):
            assert flux_F_selfsimilar(xi, P) < 0.0

    def test_exact_power_scaling(self):
        v1 = flux_F_selfsimilar(1.0, P)
        v2 = flux_F_selfsimilar(2.0, P)
        assert v2 / v1 == pytest.approx(
            2.0 ** (2.0 - 2.0 * P.alpha - 2.0 * P.s), rel=1e-14)


class TestResidualTable:
    def test_empty_grid(self):
        F, residuals, K = asymptotic_residual_table(P, [])
        assert F == [] and residuals == [] and K > 0

    def test_residual_bounded_at_large_xi(self):
        xs = np.geomspace(1.0, 1e3, 25)
        rs = np.array(asymptotic_residual_table(P, list(xs))[1])
        sel = xs >= 10.0
        slope = np.polyfit(np.log(xs[sel]), np.log(rs[sel]), 1)[0]
        assert slope <= 0.1

    def test_small_xi_F_bounded(self):
        vals = [abs(flux_F(x, P)) for x in (0.05, 0.2, 1.0)]
        assert max(vals) < 10.0
