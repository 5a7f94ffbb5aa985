"""Special-function layer: Gamma identities, the closed-form angular
integrals, the closed-form Mellin transforms (Gamma products of the mellin
module), and their quadrature cross-checks."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kraichnan_lab.errors import DomainError, PoleError
from kraichnan_lab.mellin import GammaProduct, f_product, h_product
from kraichnan_lab.quad import quadpack
from kraichnan_lab.specfun import (ModelParams, gamma_fn, gegenbauer_2f1,
                                   gegenbauer_defect, gegenbauer_integral,
                                   log_gamma, sin_power_integral,
                                   sphere_surface)
from oracles import (f_inner_quad, gegenbauer_quad, poisson_bessel_defect,
                     poisson_quad)

# value of log Gamma(2.3 + 1.7i) from a 40-digit arbitrary-precision
# evaluation, frozen before the implementation existed
LOG_GAMMA_2p3_1p7 = complex(-0.5481359172186003, 1.2149462812383989)


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) < 1e-14

    def test_at_half(self):
        assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-14

    def test_complex_point_vs_frozen_oracle(self):
        got = log_gamma(2.3 + 1.7j)
        assert abs(got - LOG_GAMMA_2p3_1p7) <= 1e-12 * abs(LOG_GAMMA_2p3_1p7)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0, -2.0 + 1e-10])
    def test_poles_rejected(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            log_gamma(complex(float("nan"), 0.0))

    def test_scalar_path_is_the_array_path(self):
        # a scalar takes the compiled scalar loggamma, an array the ufunc;
        # elementwise they agree bitwise, off the axis and on it
        rng = np.random.default_rng(3)
        z = np.concatenate((rng.uniform(-30.0, 30.0, 400)
                            + 1j * rng.uniform(-30.0, 30.0, 400),
                            rng.uniform(-30.0, 30.0, 200) + 0j,
                            np.arange(1, 40) / 2.0 + 0j))
        z = z[np.abs(z - np.round(z.real)) > 1e-6]  # off the poles
        scalar = [log_gamma(v) for v in z]
        assert all(type(v) is complex for v in scalar)
        assert np.array_equal(log_gamma(z), scalar)

    def test_array_poles_rejected(self):
        with pytest.raises(PoleError):
            log_gamma(np.array([0.5, -3.0]))
        with pytest.raises(DomainError):
            log_gamma(np.array([0.5, np.inf]))

    @given(st.floats(0.05, 0.95), st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_reflection(self, x, y):
        z = complex(x, y)
        lhs = gamma_fn(z) * gamma_fn(1.0 - z) * cmath.sin(math.pi * z)
        assert abs(lhs - math.pi) < 1e-10 * math.pi

    @given(st.floats(0.05, 0.95), st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_duplication(self, x, y):
        z = complex(x, y)
        lhs = gamma_fn(z) * gamma_fn(z + 0.5)
        rhs = math.sqrt(math.pi) * 2.0 ** (1.0 - 2.0 * z) * gamma_fn(2.0 * z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @given(st.floats(-40.0, 60.0), st.floats(-60.0, 60.0))
    @settings(max_examples=200, deadline=None)
    def test_functional_equation(self, x, y):
        z = complex(x, y)
        if abs(z) < 1e-3 or min(abs(z - n) for n in range(-45, 1)) < 1e-3:
            return
        assert abs(z * gamma_fn(z) - gamma_fn(z + 1.0)) <= 1e-12 * abs(gamma_fn(z + 1.0))

    @given(st.floats(-20.0, 30.0), st.floats(0.1, 80.0))
    @settings(max_examples=150, deadline=None)
    def test_conjugate_symmetry(self, x, y):
        z = complex(x, y)
        if min(abs(x - n) for n in range(-25, 1)) < 1e-3 and abs(y) < 1e-3:
            return
        a = log_gamma(z)
        b = log_gamma(z.conjugate())
        assert abs(a - b.conjugate()) <= 1e-12 * max(1.0, abs(a))


def beta_product(s_exp, z):
    """Mellin transform of (1+t^2)^(-s_exp) as a Gamma product:
    G(z/2) G(s_exp - z/2) / (2 G(s_exp)), fundamental strip 0 < Re z < 2 s_exp."""
    expr = GammaProduct(1.0 / (2.0 * gamma_fn(s_exp).real),
                        ((0.5, 0.0, +1), (-0.5, s_exp, +1)))
    return expr(z)


class TestBetaMellin:
    def test_arctan_case(self):
        # integral of 1/(1+t^2)
        assert abs(beta_product(1.0, 1.0) - math.pi / 2.0) < 1e-13

    def test_unit_case(self):
        assert abs(beta_product(1.5, 2.0) - 1.0) < 1e-13

    def test_vs_quadrature(self):
        s_exp, z = 1.2, 0.7
        got = beta_product(s_exp, z)
        ref, _, _ = quadpack(lambda t: t ** (z - 1.0) * (1.0 + t * t) ** (-s_exp),
                             0.0, math.inf, None, 1e-14, 1e-12)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_conjugate_symmetry(self):
        z = 0.8 + 0.6j
        assert beta_product(1.3, z.conjugate()) == pytest.approx(
            beta_product(1.3, z).conjugate(), rel=1e-13)


class TestSinPowerIntegral:
    def test_sin_squared(self):
        assert sin_power_integral(2.0) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_plain_interval(self):
        assert sin_power_integral(0.0) == pytest.approx(math.pi, rel=1e-14)

    def test_vs_quadrature(self):
        g = 3.4
        got = sin_power_integral(g)
        ref, _, _ = quadpack(lambda t: math.sin(t) ** g, 0.0, math.pi, None,
                             1e-14, 1e-12)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_rejects_bad_exponents(self):
        with pytest.raises(DomainError):
            sin_power_integral(-1.5)


# where the defects switch from the closed form to the power series
G_SWITCH, B_SWITCH = 0.3, 1.0
GEGENBAUER_R = [1e-3, G_SWITCH * (1.0 - 1e-4), G_SWITCH * (1.0 + 1e-4),
                1.0 - 1e-5, 1.0 + 1e-5, 3.0, 1e3]


def _defect_series_terms(d, s, r):
    """The first 40 terms of 2F1(s, s - d/2; d/2 + 1; r^2) - 1, each from
    its Pochhammer symbols."""
    return [math.prod((s + k) * (s - d / 2.0 + k) / ((d / 2.0 + 1.0 + k)
                                                      * (k + 1.0))
                      for k in range(n)) * r ** (2 * n)
            for n in range(1, 41)]


class TestGegenbauerIntegral:
    """The 2F1 form and its defect against the angular integral by
    QUADPACK, on both sides of the series switch and of r = 1."""

    @pytest.mark.parametrize("d,s", [(2, 0.2), (2, 0.5), (2, 0.95),
                                     (3, 0.5), (3, 0.75), (3, 1.4)])
    @pytest.mark.parametrize("r", GEGENBAUER_R)
    def test_vs_quadrature(self, d, s, r):
        ref = gegenbauer_quad(d, s, r)
        assert abs(gegenbauer_integral(d, s, r) - ref) <= 1e-12 * abs(ref)
        # the oracle's defect itself cancels at small r and next to r = 1
        ref = gegenbauer_quad(d, s, r, defect=True)
        assert abs(gegenbauer_defect(d, s, r) - ref) <= 1e-11 * abs(ref)

    def test_value_at_one_is_gauss_sum(self):
        # 2F1(a, b; c; 1) = G(c) G(c-a-b) / (G(c-a) G(c-b))
        d, s = 2, 0.75
        a, b, c = s, s - d / 2.0, d / 2.0 + 1.0
        gauss = (gamma_fn(c) * gamma_fn(c - a - b)
                 / (gamma_fn(c - a) * gamma_fn(c - b))).real
        assert gegenbauer_integral(d, s, 1.0) == pytest.approx(
            sin_power_integral(d) * gauss, rel=1e-13)

    def test_series_branch_is_continuous(self):
        d, s = 3, 0.75
        below = gegenbauer_defect(d, s, math.nextafter(G_SWITCH, 0.0))
        above = gegenbauer_defect(d, s, G_SWITCH)
        assert abs(below - above) <= 1e-13 * abs(above)

    @pytest.mark.parametrize("d,s", [(2, 0.2), (2, 0.95), (3, 0.5), (3, 1.4),
                                     (5, 0.1), (5, 2.4)])
    def test_series_meets_closed_form_at_switch(self, d, s):
        # both branches evaluated on each side of the switch, to 1e-14 of
        # B, the size of the two terms that cancel in the closed form
        b = sin_power_integral(d)
        for r in (G_SWITCH - 1e-9, G_SWITCH + 1e-9):
            series = -b * sum(_defect_series_terms(d, s, r))
            closed = b - gegenbauer_integral(d, s, r)
            assert abs(series - closed) <= 1e-14 * b
            branch = series if r < G_SWITCH else closed
            assert gegenbauer_defect(d, s, r) == pytest.approx(branch,
                                                               rel=1e-15)

    @pytest.mark.parametrize("d,s", [(2, 0.2), (2, 0.95), (3, 0.5), (3, 1.4),
                                     (5, 0.1), (5, 2.4)])
    def test_series_leading_term(self, d, s):
        # defect = -B s(s-d/2)/(d/2+1) r^2 (1 + c1 r^2 + O(r^4)) with
        # c1 = (s+1)(s-d/2+1)/(2(d/2+2)), the ratio of the first two terms;
        # (3, 0.5) terminates after one term (c1 = 0)
        r = 1e-3
        lead = (-sin_power_integral(d) * s * (s - d / 2.0)
                / (d / 2.0 + 1.0) * r * r)
        c1 = (s + 1.0) * (s - d / 2.0 + 1.0) / (2.0 * (d / 2.0 + 2.0))
        got = gegenbauer_defect(d, s, r)
        assert abs((got / lead - 1.0) / (r * r) - c1) <= 1e-6

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_float_path_is_the_array_path(self, d):
        # a float x takes the compiled scalar 2F1, an array the ufunc;
        # elementwise they agree bitwise
        x = np.linspace(0.0, 1.0, 101)
        for s in (0.01, 0.3, 0.5, 0.77, 1.0, 1.9, 2.3, 3.7, 5.6):
            arr = gegenbauer_2f1(d, s, x)
            scalar = [gegenbauer_2f1(d, s, float(v)) for v in x]
            assert all(type(v) is float for v in scalar)
            assert np.array_equal(arr, scalar, equal_nan=True)

    @pytest.mark.parametrize("d,s", [(2, 0.5), (2, 2.5), (3, 1.4), (3, 3.2)])
    def test_array_form_is_the_scalar_form(self, d, s):
        # gegenbauer_2f1 is the r <= 1 branch of gegenbauer_integral,
        # evaluated elementwise on arrays (the scale-free kernel's path)
        r = np.concatenate((np.linspace(0.0, 1.0, 41), [0.99999]))
        ref = np.array([gegenbauer_integral(d, s, x) for x in r])
        assert np.array_equal(gegenbauer_2f1(d, s, r), ref)

    def test_rejects_negative_r(self):
        with pytest.raises(DomainError):
            gegenbauer_integral(2, 0.5, -0.1)
        with pytest.raises(DomainError):
            gegenbauer_defect(2, 0.5, -0.1)


class TestShiftedOrders:
    """gegenbauer_2f1 at the orders of the massive kernel's binomial series
    (spectral._binomial_series) against QUADPACK: s = sigma + k for far
    pairs, where c - a - b = -1 - 2 alpha - 2k is a negative integer at
    alpha = 1/2, and s = 1 - k for small pairs, a terminating polynomial
    for k >= 1.  k runs to 30, past the most terms a series takes (31 at
    q = 1/4 and beta = 2.45); x runs to 0.99, past the largest rho_< / rho_>
    of a far pair on the test grids (0.9887, on 512 nodes over
    [1e-2, 1e3])."""

    K = range(31)

    @pytest.mark.parametrize("d,alpha", [(2, 0.5), (2, 0.1), (3, 0.75),
                                         (3, 0.95)])
    @pytest.mark.parametrize("x", [0.05, 0.5, 0.9, 0.99])
    def test_far_orders(self, d, alpha, x):
        sig = (d + 2.0 * alpha + 2.0) / 2.0
        for k in self.K:
            ref = gegenbauer_quad(d, sig + k, x)
            assert abs(float(gegenbauer_2f1(d, sig + k, x)) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("x", [0.05, 0.5, 0.9, 0.99])
    def test_small_orders(self, d, x):
        for k in self.K:
            ref = gegenbauer_quad(d, 1.0 - k, x)
            assert abs(float(gegenbauer_2f1(d, 1.0 - k, x)) - ref) <= 1e-12 * ref


class TestPoissonBesselDefect:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("x", [1e-3, 0.1, B_SWITCH * (1.0 - 1e-4),
                                   B_SWITCH * (1.0 + 1e-4), 200.0])
    def test_vs_quadrature(self, d, x):
        ref = poisson_quad(d, x)
        assert abs(poisson_bessel_defect(d, x) - ref) <= 1e-13 * abs(ref)

    def test_large_x_limit(self):
        # the Bessel term decays, leaving int_0^pi sin^{d-2}
        assert poisson_bessel_defect(3, 1e8) == pytest.approx(
            sin_power_integral(1.0), rel=1e-7)

    def test_rejects_negative_x(self):
        with pytest.raises(DomainError):
            poisson_bessel_defect(2, -1.0)


class TestMellinH:
    def test_exact_point(self):
        p = ModelParams(d=2, alpha=0.5, s=0.5)
        assert h_product(p)(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_vs_quadrature_in_strip(self):
        p = ModelParams(d=3, alpha=0.7, s=1.0)
        z = 2.0
        got = h_product(p)(z)
        ref, _, _ = quadpack(
            lambda t: t ** (z - 1.0) * (1.0 + t * t) ** (-(p.d / 2.0 + p.alpha)),
            0.0, math.inf, None, 1e-14, 1e-12)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_poles(self):
        p = ModelParams(d=2, alpha=0.5, s=0.5)
        for z in (0.0, -2.0, 3.0, 5.0):
            with pytest.raises(PoleError):
                h_product(p)(z)

    def test_continuation_outside_strip(self):
        # analytic continuation is defined left of the strip and right of it
        p = ModelParams(d=2, alpha=0.5, s=0.5)
        assert math.isfinite(abs(h_product(p)(-1.0)))
        assert math.isfinite(abs(h_product(p)(4.0)))

    @given(st.floats(0.5, 2.5), st.floats(-30.0, 30.0))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_symmetry(self, x, y):
        p = ModelParams(d=2, alpha=0.5, s=0.5)
        z = complex(x, y)
        assert h_product(p)(z.conjugate()) == pytest.approx(
            h_product(p)(z).conjugate(), rel=1e-12)


class TestMellinF:
    def _quad_ref(self, d, s, z):
        p = ModelParams(d=d, alpha=0.5, s=s)
        return quadpack(lambda r: r ** (-z) * f_inner_quad(r, p, rel_tol=1e-12),
                        0.0, math.inf, [1.0], 1e-14, 1e-10)[0]

    def test_vs_nested_quadrature(self):
        p = ModelParams(d=2, alpha=0.5, s=0.5)
        got = f_product(p)(1.5)
        ref = self._quad_ref(2, 0.5, 1.5)
        assert abs(got - ref) <= 1e-8 * abs(ref)

    def test_poles(self):
        p = ModelParams(d=2, alpha=0.5, s=0.5)
        for z in (2.0, 4.0, 1.0, -1.0):
            with pytest.raises(PoleError):
                f_product(p)(z)

    def test_conjugate_symmetry(self):
        p = ModelParams(d=3, alpha=0.3, s=1.2)
        z = 2.2 + 3.0j
        assert f_product(p)(z.conjugate()) == pytest.approx(
            f_product(p)(z).conjugate(), rel=1e-12)


class TestModelParams:
    def test_alpha_range_message(self):
        with pytest.raises(DomainError, match=r"alpha must lie in \(0,1\)"):
            ModelParams(d=2, alpha=1.5, s=0.5)

    def test_s_open_boundary(self):
        with pytest.raises(DomainError, match=r"s in \(0, d/2\)"):
            ModelParams(d=2, alpha=0.5, s=1.0)

    def test_d_minimum(self):
        with pytest.raises(DomainError):
            ModelParams(d=1, alpha=0.5, s=0.4)

    def test_defaults(self):
        p = ModelParams(d=2, alpha=0.5, s=0.5)
        assert p.nu == 0.0
        assert not hasattr(p, "m")  # the covariance mass is 1


def test_sphere_surface_values():
    assert sphere_surface(0) == pytest.approx(2.0, rel=1e-14)
    assert sphere_surface(1) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_surface(2) == pytest.approx(4.0 * math.pi, rel=1e-14)
