"""Gamma-product engine: pole bookkeeping, residues, the contour route for J,
the residue expansion, and the three-way K cross-validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kraichnan_lab import quad
from kraichnan_lab.errors import (CaseOutOfRange, DomainError, HigherOrderPole,
                                  PoleError, ToleranceNotReached)
from kraichnan_lab.mellin import (GammaProduct, d_constant, expansion_terms,
                                  f_product, h_product, jl_product,
                                  k_constant_appendix, k_constant_gamma,
                                  k_constant_integral, k_product,
                                  poles_in_strip, residue_at, riesz_constant)
from kraichnan_lab.quad import quadpack
from kraichnan_lab.specfun import (ModelParams, gegenbauer_defect,
                                   sin_power_integral, sphere_surface)
from oracles import (StripViolation, d_constant_quad, expand_J,
                     f_residue_at_d, f_residue_at_d_plus_2, k_gamma_quotient,
                     parseval_contour)

P2 = ModelParams(d=2, alpha=0.5, s=0.5)


class TestPoles:
    def test_h_poles(self):
        assert poles_in_strip(h_product(P2), 0.0, 10.0) == [
            (3.0, 1), (5.0, 1), (7.0, 1), (9.0, 1)]

    def test_f_poles(self):
        assert poles_in_strip(f_product(P2), 1.0, 5.0) == [(2.0, 1), (4.0, 1)]

    def test_cancelling_pair(self):
        expr = GammaProduct(1.0, ((1.0, 0.0, +1), (1.0, 0.0, -1)))
        assert poles_in_strip(expr, -10.0, 10.0) == []

    def test_left_ladder(self):
        # poles of M[f,1-z] descending from d-2s
        assert poles_in_strip(f_product(P2), -4.0, 1.5) == [
            (-3.0, 1), (-1.0, 1), (1.0, 1)]


class TestResidues:
    def test_gamma_at_zero(self):
        term = residue_at(GammaProduct(1.0, ((1.0, 0.0, +1),)), 0.0)
        assert term.exponent == 0.0
        assert term.coefficient == pytest.approx(-1.0, rel=1e-14)

    def test_h_residue_is_minus_one(self):
        # residue of M[h, z] at z = d + 2 alpha equals -1 exactly
        d, a = P2.d, P2.alpha
        term = residue_at(h_product(P2), d + 2.0 * a)
        assert term.coefficient == pytest.approx(1.0, rel=1e-12)  # -(-1)

    def test_f_residue_at_d(self):
        # -sqrt(pi) G((d+1)/2) / G((d+2)/2)
        for d, s in ((2, 0.5), (3, 1.2), (4, 0.7)):
            p = ModelParams(d=d, alpha=0.5, s=s)
            term = residue_at(f_product(p), float(d))
            assert -term.coefficient == pytest.approx(f_residue_at_d(d), rel=1e-12)

    def test_f_residue_at_d_plus_2(self):
        # sqrt(pi) s (d-2s) G((d+1)/2) / (2 G((d+4)/2)); confirmed against the
        # lambda^{-(d+2)} remainder of J in TestExpand::test_remainder_slope
        for d, s in ((2, 0.6), (3, 0.8)):
            p = ModelParams(d=d, alpha=0.4, s=s)
            term = residue_at(f_product(p), float(d + 2))
            assert -term.coefficient == pytest.approx(f_residue_at_d_plus_2(d, s),
                                                      rel=1e-12)

    def test_product_residue_at_d_2alpha(self):
        # coefficient equals M[f, 1-z] at z = d+2alpha, in closed form
        # sqrt(pi) G((d-2s+2)/2) G((d+1)/2) / (2 G(s))
        #   * G((2s-d+z)/2) G((d-z)/2) / [G((z+2)/2) G((2d-2s+2-z)/2)]
        from scipy.special import gamma as G
        p = ModelParams(d=2, alpha=0.4, s=0.8)
        d, s, z = p.d, p.s, p.d + 2.0 * p.alpha
        term = residue_at(jl_product(p), z)
        target = (math.sqrt(math.pi) * G((d - 2 * s + 2) / 2) * G((d + 1) / 2)
                  / (2 * G(s)) * G((2 * s - d + z) / 2) * G((d - z) / 2)
                  / (G((z + 2) / 2) * G((2 * d - 2 * s + 2 - z) / 2)))
        assert term.coefficient == pytest.approx(target, rel=1e-12)

    def test_higher_order_rejected(self):
        expr = GammaProduct(1.0, ((1.0, 0.0, +1), (1.0, 0.0, +1)))
        with pytest.raises(HigherOrderPole):
            residue_at(expr, 0.0)


class TestParseval:
    @pytest.mark.parametrize("d,a,s,lam,line", [
        (2, 0.5, 0.5, 5.0, 1.5),
        (3, 0.25, 1.0, 50.0, 2.0),
        (2, 0.75, 0.3, 2.0, 1.7),
        (3, 0.75, 1.2, 20.0, 1.4),
    ])
    def test_vs_direct_quadrature(self, d, a, s, lam, line):
        p = ModelParams(d=d, alpha=a, s=s)
        pc = parseval_contour(lam, p, line)
        jd = quad.J_direct(lam, p, rel_tol=1e-10)
        assert abs(pc - jd) <= 1e-6 * abs(jd)

    def test_line_independence(self):
        v1 = parseval_contour(5.0, P2, 1.2)
        v2 = parseval_contour(5.0, P2, 1.8)
        assert abs(v1 - v2) <= 1e-8 * abs(v1)

    def test_strip_enforced(self):
        with pytest.raises(StripViolation):
            parseval_contour(5.0, P2, 0.5)   # below d - 2s = 1
        with pytest.raises(StripViolation):
            parseval_contour(5.0, P2, 2.5)   # above d = 2

    def test_residue_shift_identity(self):
        # contour at r equals residues in (r, r') plus contour shifted past
        # the first pole ladder; checked through the expansion terms
        p = ModelParams(d=2, alpha=0.4, s=0.6)
        rp = p.d + 2.0 + p.alpha
        terms = expand_J(p, rp)
        for lam in (5.0, 20.0):
            base = parseval_contour(lam, p, 1.5)
            total = sum(t.coefficient * lam ** -t.exponent for t in terms)
            assert abs(base - total) <= max(1e-6 * abs(base),
                                            2.0 * lam ** -rp)


class TestExpand:
    def test_r_prime_window(self):
        with pytest.raises(DomainError):
            expand_J(P2, P2.d + 1.0)
        with pytest.raises(DomainError):
            expand_J(P2, P2.d + 2.0 * P2.alpha + 3.0)

    def test_term_structure(self):
        p = ModelParams(d=2, alpha=0.4, s=0.6)
        terms = expand_J(p, 4.5)
        exps = [t.exponent for t in terms]
        assert exps == sorted(exps)
        assert exps == pytest.approx([2.0, 2.8, 4.0])
        # leading coefficient positive (product of positive Gammas)
        assert terms[0].coefficient > 0.0
        # the z = d+2 coefficient is positive as well
        assert terms[2].coefficient > 0.0

    def test_remainder_slope(self):
        # J minus the two leading terms scales like lambda^{-(d+2)}
        p = ModelParams(d=2, alpha=0.4, s=0.6)
        terms = expand_J(p, 4.5)
        two = [t for t in terms if t.exponent < p.d + 2.0 - 1e-9]
        lams = np.array([20.0, 40.0, 80.0])
        rem = []
        for lam in lams:
            jd = quad.J_direct(float(lam), p, rel_tol=1e-11)
            rem.append(jd - sum(t.coefficient * lam ** -t.exponent for t in two))
        slope = np.polyfit(np.log(lams), np.log(np.abs(rem)), 1)[0]
        assert abs(slope + (p.d + 2.0)) < 0.15

    def test_deep_expansion_matches_direct(self):
        p = ModelParams(d=3, alpha=0.3, s=0.8)
        terms = expansion_terms(p, p.d + p.alpha + 7.0)
        lam = 30.0
        total = sum(t.coefficient * lam ** -t.exponent for t in terms)
        jd = quad.J_direct(lam, p, rel_tol=1e-11)
        assert abs(total - jd) <= 1e-8 * abs(jd)


K_GRID = [(d, a, f) for d in (2, 3) for a in (0.25, 0.5, 0.75)
          for f in (0.2, 0.5, 0.8)]


class TestKConstants:
    @pytest.mark.parametrize("d,a,f", K_GRID)
    def test_gamma_positive(self, d, a, f):
        p = ModelParams(d=d, alpha=a, s=f * d / 2.0)
        assert k_constant_gamma(p) > 0.0

    @pytest.mark.parametrize("d,a,s", [(2, 0.5, 0.5), (3, 0.25, 1.0),
                                       (2, 0.75, 0.3)])
    def test_gamma_vs_integral_spot(self, d, a, s):
        p = ModelParams(d=d, alpha=a, s=s)
        kg = k_constant_gamma(p)
        ki = k_constant_integral(p)
        assert abs(ki - kg) <= 1e-6 * kg

    @pytest.mark.parametrize("d,a,f", K_GRID)
    def test_integral_certified_on_grid(self, d, a, f):
        # k_constant_integral raises ToleranceNotReached when its radial
        # quadrature is not certified; every grid point passes and agrees
        # with the Gamma quotient to 1e-10
        p = ModelParams(d=d, alpha=a, s=f * d / 2.0)
        kg = k_constant_gamma(p)
        assert abs(k_constant_integral(p) - kg) <= 1e-10 * kg

    @pytest.mark.parametrize("d,a,s", [
        (2, 0.02, 0.02), (2, 0.02, 0.5), (2, 0.1, 0.02), (3, 0.02, 0.03),
        (3, 0.1, 0.03), (4, 0.02, 0.04), (4, 0.1, 0.04), (5, 0.02, 0.05),
        (5, 0.02, 1.25), (5, 0.1, 0.05)])
    def test_integral_certified_at_slow_decay(self, d, a, s):
        # small alpha: the body decays like r^{-1-2a}, a tail the rational
        # map does not certify; the radial quadrature declares the decay
        p = ModelParams(d=d, alpha=a, s=s)
        kg = k_constant_gamma(p)
        assert abs(k_constant_integral(p) - kg) <= 1e-10 * kg

    def test_integral_uncertified_raises(self, monkeypatch):
        monkeypatch.setattr(quad, "quadpack", lambda *a, **k: (1.0, 1.0, False))
        with pytest.raises(ToleranceNotReached):
            k_constant_integral(P2)

    def test_integral_inner_vanishes_second_order_at_origin(self):
        # the odd first-order term of the angular average cancels, so the
        # body's angular factor over r^2 approaches the finite limit
        # -B(1/2, (d+1)/2) s (s - d/2) / (d/2 + 1) as r -> 0 (series branch)
        d, s = 2, 0.5
        vals = [gegenbauer_defect(d, s, r) / r ** 2 for r in (1e-2, 1e-3)]
        assert abs(vals[1] - vals[0]) <= 1e-3 * abs(vals[0])
        limit = -sin_power_integral(d) * s * (s - d / 2.0) / (d / 2.0 + 1.0)
        assert abs(vals[1] - limit) <= 1e-5 * abs(limit)

    def test_gamma_vs_residue_route(self):
        # K = -(2 pi)^{-d/2} omega_{d-2} * (coefficient of the lambda^{-d-2a}
        # term), including the |xi|^{d+2-2s} prefactor bookkeeping
        for d, a, s in ((2, 0.5, 0.5), (3, 0.25, 1.0), (2, 0.75, 0.3)):
            p = ModelParams(d=d, alpha=a, s=s)
            terms = expand_J(p, d + 2.0 + a)
            coeff = [t.coefficient for t in terms
                     if abs(t.exponent - (d + 2.0 * a)) < 1e-9][0]
            route = -(2.0 * math.pi) ** (-d / 2.0) * sphere_surface(d - 2) * coeff
            assert route == pytest.approx(k_constant_gamma(p), rel=1e-12)

    @pytest.mark.parametrize("d,a,f", K_GRID)
    def test_gamma_is_k_product_at_real_s(self, d, a, f):
        s = f * d / 2.0
        kg = k_constant_gamma(ModelParams(d=d, alpha=a, s=s))
        assert kg == k_product(d, a)(s).real
        assert kg == pytest.approx(k_gamma_quotient(d, a, s), rel=1e-14)

    @pytest.mark.parametrize("d,a", [(2, 0.25), (2, 0.75), (3, 0.5), (5, 0.1)])
    def test_k_product_at_complex_s(self, d, a):
        # inside the strip 0 < Re s < d/2, against the quotient written with
        # scipy.special.gamma
        for s in (0.1 * d / 2 + 0.3j, 0.5 * d / 2 - 2.0j, 0.9 * d / 2 + 7.5j):
            ref = k_gamma_quotient(d, a, s)
            assert abs(k_product(d, a)(s) - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("d,a", [(2, 0.25), (2, 0.75), (3, 0.5), (5, 0.1)])
    def test_k_product_poles(self, d, a):
        # the nearest poles on each side of the strip, and none inside it
        kp = k_product(d, a)
        assert poles_in_strip(kp, 0.0, d / 2.0) == []
        assert poles_in_strip(kp, -a - 0.5, d / 2.0 + 1.5) == [
            (-a, 1), (d / 2.0 + 1.0, 1)]

    def test_appendix_spot(self):
        p = ModelParams(d=2, alpha=0.75, s=0.75)
        kg = k_constant_gamma(p)
        ka = k_constant_appendix(p)
        assert abs(ka - kg) <= 1e-4 * kg

    def test_appendix_case_range(self):
        with pytest.raises(CaseOutOfRange):
            k_constant_appendix(ModelParams(d=2, alpha=0.4, s=0.5))

    def test_limit_consistency_near_case_boundary(self):
        # approaching s + alpha = 1 from above, the (s+alpha-1) zero of the
        # kernel coefficient is compensated by the Gamma(s+alpha-1) pole of
        # the Riesz constant, so both routes stay finite and equal
        for eps in (0.05, 0.01):
            p = ModelParams(d=2, alpha=0.6, s=0.4 + eps)
            kg = k_constant_gamma(p)
            ka = k_constant_appendix(p)
            assert abs(ka - kg) <= 1e-3 * abs(kg) + 1e-12
        # K itself is continuous across the case boundary
        below = k_constant_gamma(ModelParams(d=2, alpha=0.6, s=0.399))
        above = k_constant_gamma(ModelParams(d=2, alpha=0.6, s=0.401))
        assert abs(above - below) < 0.01 * above


class TestRiesz:
    def test_exact_values(self):
        assert riesz_constant(2, 0.5) == pytest.approx(2.0 * math.pi, rel=1e-13)
        assert riesz_constant(3, 1.0) == pytest.approx(4.0 * math.pi, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            riesz_constant(2, 1.0)

    def test_gaussian_identity(self):
        # <G^sigma * phi, phi> for the unit Gaussian in d = 2 against the
        # Fourier-side weighted integral, both by radial quadrature
        sigma = 0.7
        # physical side: phi*phi(z) = pi e^{-|z|^2/4}; kernel |z|^{2 sigma - 2}
        lhs, _, _ = quadpack(
            lambda r: (2.0 * math.pi) * r * r ** (2.0 * sigma - 2.0)
            * math.pi * math.exp(-r * r / 4.0),
            0.0, math.inf, None, 1e-12, 1e-10)
        rhs = riesz_constant(2, sigma) * quadpack(
            lambda r: (2.0 * math.pi) * r * r ** (-2.0 * sigma) * math.exp(-r * r),
            0.0, math.inf, None, 1e-12, 1e-10)[0]
        assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


class TestDConstant:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.75, 0.9, 0.95])
    def test_vs_quadrature(self, d, a):
        # the Gamma quotient against the radial quadrature of Poisson's
        # Bessel integral it replaced
        ref = d_constant_quad(d, a, 1.0)
        assert abs(d_constant(d, a) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("d,a,exact", [(2, 0.5, 1.0 / 3.0),
                                           (4, 0.5, 1.0 / 5.0),
                                           (3, 0.25, 16.0 / 21.0)])
    def test_exact_values(self, d, a, exact):
        assert d_constant(d, a) == pytest.approx(exact, rel=1e-14)

    def test_scale_independence(self):
        a = 0.5
        ref = d_constant(2, a)
        for z in (0.5, 1.0, 2.0):
            v = d_constant_quad(2, a, z)
            assert abs(v - ref * z ** (2.0 * a)) <= 1e-6 * abs(v)

    def test_positive(self):
        for d, a in ((2, 0.25), (2, 0.75), (3, 0.5)):
            assert d_constant(d, a) > 0.0


class TestGammaProductProperties:
    @given(st.floats(1.1, 1.9), st.floats(0.2, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry_on_lines(self, x, y):
        prod = jl_product(P2)
        z = complex(x, y)
        assert prod(z.conjugate()) == pytest.approx(prod(z).conjugate(),
                                                    rel=1e-12)

    def test_rejects_zero_coef(self):
        with pytest.raises(DomainError):
            GammaProduct(1.0, ((0.0, 1.0, +1),))

    def test_rejects_eval_at_pole(self):
        with pytest.raises(PoleError):
            h_product(P2)(3.0)

    def test_pole_rule_shared_by_order_and_evaluation(self):
        # a point 1e-10 from the pole at z = 3 is the pole both for the
        # residue bookkeeping and for evaluation
        z = 3.0 + 1e-10
        assert h_product(P2).pole_order(z) == 1
        with pytest.raises(PoleError):
            h_product(P2)(z)

    def test_reciprocal_factor_at_pole_is_zero(self):
        inv = GammaProduct(1.0, ((1.0, 0.0, -1),))
        assert inv(0.0) == 0.0
        np.testing.assert_allclose(inv(np.array([-2.0, 1.0, 4.0])),
                                   [0.0, 1.0, 1.0 / 6.0], rtol=1e-14)
