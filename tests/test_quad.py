"""Quadrature layer: certified tolerances, declared singularities, and the
radial integrals behind the flux function, with their closed-form angular
factors checked against nested quadrature."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kraichnan_lab import flux, mellin, quad
from kraichnan_lab.errors import (DomainError, NonFiniteIntegrand,
                                  ToleranceNotReached)
from kraichnan_lab.quad import J_direct, f_inner, quadpack, radial_quad
from kraichnan_lab.specfun import ModelParams, sin_power_integral
import oracles
from oracles import f_inner_quad


class TestIntegrate1d:
    """One-dimensional integrals through quad.quadpack."""

    def test_semi_infinite_arctan(self):
        value, _, _ = quadpack(lambda t: 1.0 / (1.0 + t * t), 0.0, math.inf,
                               None, 1e-13, 1e-13)
        assert abs(value - math.pi / 2.0) < 1e-12

    def test_endpoint_singularity(self):
        value, _, _ = quadpack(lambda t: t ** -0.5, 0.0, 1.0, [0.0], 1e-12, 1e-12)
        assert abs(value - 2.0) < 1e-10

    def test_against_beta_mellin(self):
        # int_0^inf t^{z-1} (1+t^2)^{-s} dt = B(z/2, s - z/2) / 2
        from scipy.special import beta
        value, err, _ = quadpack(lambda t: t ** (0.7 - 1.0) * (1.0 + t * t) ** -1.2,
                                 0.0, math.inf, None, 1e-13, 1e-11)
        ref = beta(0.35, 1.2 - 0.35) / 2.0
        assert abs(value - ref) <= 1e-10 * abs(ref) + err

    def test_semi_infinite_with_interior_point(self):
        # int_0^inf t^{x-1} (1+t)^{-x-y} dt = B(x, y); the declared point
        # t = 1 moves with the tail map to u = 1/2
        from scipy.special import beta
        x, y = 0.7, 1.5
        value, err, ok = quadpack(lambda t: t ** (x - 1.0) * (1.0 + t) ** (-x - y),
                                  0.0, math.inf, [1.0], 1e-13, 1e-11)
        ref = beta(x, y)
        assert ok
        assert abs(value - ref) <= 1e-10 * abs(ref) + err

    @pytest.mark.parametrize("y", [0.02, 0.3, 1.5])
    def test_power_tail_map(self, y):
        # the same Beta integral with its tail t^{-1-y} declared to the
        # power map t = 2 u^{-1/y}
        from scipy.special import beta
        x = 0.7
        fn = lambda t: t ** (x - 1.0) * (1.0 + t) ** (-x - y)
        head, e1, _ = quadpack(fn, 0.0, 2.0, [0.0], 1e-13, 1e-11)
        tail, e2, ok = quadpack(fn, 2.0, math.inf, None, 1e-13, 1e-11,
                                decay=y)
        ref = beta(x, y)
        assert ok
        assert abs(head + tail - ref) <= 1e-10 * abs(ref) + e1 + e2

    def test_power_tail_map_moves_points(self):
        # a singularity at t = 3, declared, lands at u = (3/2)^{-p} under
        # the power map; the integral matches the one split there
        p = 0.8
        fn = lambda t: t ** -1.3 * abs(t - 3.0) ** -0.5
        left = quadpack(fn, 2.0, 3.0, None, 0.0, 1e-11)
        right = quadpack(fn, 3.0, math.inf, None, 0.0, 1e-11, decay=p)
        value, err, ok = quadpack(fn, 2.0, math.inf, [3.0], 0.0, 1e-11,
                                  decay=p)
        assert ok
        assert abs(value - left[0] - right[0]) <= 1e-10 * value

    def test_overflowing_integrand(self):
        # past the float range a Python power raises OverflowError; the
        # quadrature reports it as a non-finite integrand
        with pytest.raises(NonFiniteIntegrand):
            quadpack(lambda t: t ** -1.0001, 1.0, math.inf, None, 0.0, 1e-10,
                     decay=1e-4)

    def test_error_budget_invariant(self):
        value, err, _ = quadpack(lambda t: math.exp(-t), 0.0, math.inf, None,
                                 1e-12, 1e-10)
        assert err <= max(1e-12, 1e-10 * abs(value))

    def test_non_finite_integrand(self):
        with pytest.raises(NonFiniteIntegrand):
            quadpack(lambda t: float("nan"), 0.0, 1.0, None, 1e-10, 1e-8)

    # known-antiderivative corpus: |value - exact| <= 10 * error_estimate
    @pytest.mark.parametrize("fn,lo,hi,exact", [
        (lambda t: math.cos(t), 0.0, 2.0, math.sin(2.0)),
        (lambda t: 3.0 * t * t, 0.0, 2.0, 8.0),
        (lambda t: math.exp(-t), 0.0, math.inf, 1.0),
        (lambda t: 1.0 / math.sqrt(t), 0.0, 4.0, 4.0),
    ])
    def test_error_estimate_honest(self, fn, lo, hi, exact):
        value, err, _ = quadpack(fn, lo, hi, [0.0] if lo == 0.0 else None,
                                 1e-12, 1e-10)
        assert abs(value - exact) <= 10.0 * max(err, 1e-15)

    @given(st.floats(0.15, 0.85))
    @settings(max_examples=30, deadline=None)
    def test_split_additivity(self, split):
        fn = lambda t: math.sin(3.0 * t) + t * t
        whole = quadpack(fn, 0.0, 1.0, None, 1e-13, 1e-12)
        left = quadpack(fn, 0.0, split, None, 1e-13, 1e-12)
        right = quadpack(fn, split, 1.0, None, 1e-13, 1e-12)
        tol = whole[1] + left[1] + right[1]
        assert abs(whole[0] - (left[0] + right[0])) <= tol + 1e-14


class TestRadialQuad:
    def test_against_scaled_beta(self):
        # int_0^inf r^{x-1} (k+r)^{-x-y} dr = k^{-y} B(x, y)
        from scipy.special import beta
        x, y, k = 0.7, 1.5, 2.0
        value, err, ok = radial_quad(lambda r: r ** (x - 1.0) * (k + r) ** (-x - y),
                                     k, 1e-11, 500)
        ref = k ** -y * beta(x, y)
        assert ok
        assert abs(value - ref) <= 1e-10 * abs(ref) + err

    def test_slow_decay_needs_the_power_map(self):
        # at y = 0.02 the rational tail map leaves a (1-u)^{y-1} endpoint
        # singularity that QUADPACK does not certify; declaring the decay
        # r^{-1-y} maps the tail to a smooth integrand
        from scipy.special import beta
        x, y, k = 0.7, 0.02, 2.0
        body = lambda r: r ** (x - 1.0) * (k + r) ** (-x - y)
        ref = k ** -y * beta(x, y)
        with pytest.raises(ToleranceNotReached) as info:
            radial_quad(body, k, 1e-11, 500)
        # the message states the uncertified value and the error estimate
        # that failed 10 rel_tol |value|
        value, err = map(float, re.fullmatch(r".*: value (\S+), error estimate (\S+)",
                                             str(info.value)).groups())
        assert abs(value - ref) <= 1e-6 * ref and err > 1e-10 * value
        value, err, ok = radial_quad(body, k, 1e-11, 500, y)
        assert ok
        assert abs(value - ref) <= 1e-10 * abs(ref) + err

    @pytest.mark.parametrize("err,raises", [(1e-20, False), (1.0, True)])
    def test_uncertified_raises(self, monkeypatch, err, raises):
        # a flagged piece is accepted only while its error estimate stays
        # within 10 rel_tol |value|
        monkeypatch.setattr(quad, "quadpack", lambda *a, **k: (1.0, err, False))
        if raises:
            with pytest.raises(ToleranceNotReached):
                radial_quad(lambda r: 1.0, 1.0, 1e-10, 400)
        else:
            assert radial_quad(lambda r: 1.0, 1.0, 1e-10, 400)[0] == 2.0


class TestFInner:
    P2 = ModelParams(d=2, alpha=0.5, s=0.5)

    def test_zero_at_origin(self):
        assert f_inner(0.0, self.P2) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            f_inner(-1.0, self.P2)

    def test_positive(self):
        for r in (0.3, 0.999, 1.0, 1.001, 5.0):
            assert f_inner(r, self.P2) > 0.0

    def test_continuous_across_one(self):
        rs = np.linspace(0.99, 1.01, 21)
        vals = [f_inner(float(r), self.P2) for r in rs]
        jumps = np.abs(np.diff(vals)) / np.max(np.abs(vals))
        assert jumps.max() < 0.01

    def test_large_r_asymptote(self):
        # f(r) / r^{d-1-2s} -> int_0^pi sin^d = sin_power_integral(d)
        d, s = self.P2.d, self.P2.s
        target = sin_power_integral(float(d))
        r = 2e3
        got = f_inner(r, self.P2) / r ** (d - 1.0 - 2.0 * s)
        assert abs(got - target) <= 2e-3 * target


@pytest.fixture
def profile_nodes(monkeypatch):
    """The r of every closed-form profile evaluation, from a cold cache."""
    nodes = []
    original = quad.gegenbauer_integral

    def counting(d, s, r):
        nodes.append(r)
        return original(d, s, r)
    monkeypatch.setattr(quad, "gegenbauer_integral", counting)
    quad._profile.cache_clear()
    yield nodes
    quad._profile.cache_clear()


class TestProfileCache:
    """J_direct's quadrature nodes do not depend on lambda, so a flux table
    evaluates the closed-form profile once per distinct node."""
    P = ModelParams(d=2, alpha=0.5, s=0.75)
    XI = [float(x) for x in np.linspace(1.0, 19.0, 8)]  # quadrature route

    def test_one_evaluation_per_distinct_node(self, profile_nodes):
        J_direct(self.XI[0], self.P, rel_tol=1e-10)
        one = len(profile_nodes)
        quad._profile.cache_clear()
        profile_nodes.clear()
        flux.asymptotic_residual_table(self.P, self.XI)
        # uncached, the table makes about 8x the evaluations of one J
        assert len(profile_nodes) == len(set(profile_nodes))
        assert len(profile_nodes) < 2 * one

    def test_alpha_not_in_key(self, profile_nodes):
        d, s = self.P.d, self.P.s
        for r in (1e-3, 0.5, 1.0, 3.0, 1e3):
            ref = r ** (d - 1) * quad.gegenbauer_integral(d, s, r)
            for a in (0.3, 0.7):
                assert f_inner(r, ModelParams(d=d, alpha=a, s=s)) == ref

    def test_cold_and_warm_tables_agree(self, profile_nodes):
        cold = flux.asymptotic_residual_table(self.P, self.XI)
        warm = flux.asymptotic_residual_table(self.P, self.XI)
        assert cold == warm


class TestJDirect:
    def test_positive(self):
        p = ModelParams(d=2, alpha=0.5, s=0.5)
        for lam in (0.5, 2.0, 20.0):
            assert J_direct(lam, p) > 0.0

    def test_large_lambda_leading_term(self):
        # lam^d J(lam) -> M[h](d) B(1/2, (d+1)/2)
        p = ModelParams(d=2, alpha=0.5, s=0.5)
        d, a = p.d, p.alpha
        target = oracles.j_leading_coefficient(d, a)
        lam = 4e3
        got = lam ** d * J_direct(lam, p, rel_tol=1e-10)
        assert abs(got - target) <= 2e-3 * target

    def test_lambda_domain(self):
        with pytest.raises(DomainError):
            J_direct(0.0, ModelParams(d=2, alpha=0.5, s=0.5))

    @pytest.mark.parametrize("d,a,s", [(2, 0.5, 0.75), (3, 0.4, 1.0)])
    def test_vs_nested_quadrature(self, d, a, s):
        # the same radial quadrature (split, tail map and decay) over f with
        # its angular integral by QUADPACK instead of the closed form
        p = ModelParams(d=d, alpha=a, s=s)
        for lam in (0.5, 1.0005, 5.0, 50.0):
            ref, _, _ = radial_quad(
                lambda r: (1.0 + (lam * r) ** 2) ** (-(d / 2.0 + a))
                * f_inner_quad(r, p), 1.0, 1e-9, 500, 2.0 * (a + s))
            assert abs(J_direct(lam, p) - ref) <= 1e-12 * abs(ref)


@pytest.fixture
def quadpack_depths(monkeypatch):
    """Counts QUADPACK calls made at the top level and from inside another
    QUADPACK call's integrand, in every module that holds the name (the
    package calls it only from quad.radial_quad)."""
    counts = {"outer": 0, "nested": 0}
    depth = [0]
    original = quad.quadpack

    def counting(*args, **kwargs):
        counts["nested" if depth[0] else "outer"] += 1
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1
    for mod in (quad, oracles):
        monkeypatch.setattr(mod, "quadpack", counting)
    return counts


P_NEST = ModelParams(d=2, alpha=0.75, s=0.75)
ROUTES = {
    "J_direct": lambda: J_direct(5.0, P_NEST),
    "k_constant_integral": lambda: mellin.k_constant_integral(P_NEST),
    "d_constant": lambda: oracles.d_constant_quad(2, 0.75, 1.0),
    "flux_F_m_direct": lambda: oracles.flux_F_m_direct(2.0, P_NEST, 0.5),
}


class TestNoNestedQuadrature:
    def test_f_inner_calls_no_quadrature(self, quadpack_depths):
        for r in (1e-3, 0.5, 1.0 - 1e-5, 1.0, 1.0 + 1e-5, 3.0, 1e3):
            f_inner(r, P_NEST)
        assert quadpack_depths == {"outer": 0, "nested": 0}

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_integrands_call_no_quadrature(self, quadpack_depths, route):
        ROUTES[route]()
        assert quadpack_depths["outer"] > 0
        assert quadpack_depths["nested"] == 0
