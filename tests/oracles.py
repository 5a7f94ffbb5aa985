"""Independent oracles for the closed-form angular integrals of specfun:
the defining integrals by QUADPACK over the angle, so the tests compare the
2F1 and Bessel forms (and everything built on them) with a separate
computation."""

import math

from kraichnan_lab.quad import quadpack


def gegenbauer_quad(d, s, r, defect=False, rel_tol=1e-13):
    """int_0^pi sin^d(t) |1 - 2 r cos t + r^2|^{-s} dt by QUADPACK, or of
    1 - |...|^{-s} when `defect`.  Near r = 1 the peak at t = 0 is resolved
    by t = u^2 on [0, 1/4], and 1 - 2 r cos t + r^2 = 1 + w with
    w = r (r - 2 cos t) goes through log1p/expm1, so small r loses no
    digits."""
    def g(t):
        p = -s * math.log1p(r * (r - 2.0 * math.cos(t)))
        return math.sin(t) ** d * (-math.expm1(p) if defect else math.exp(p))

    if abs(r - 1.0) < 1e-3:
        tc = 0.25
        v1, _, _ = quadpack(lambda u: 2.0 * u * g(u * u), 0.0, math.sqrt(tc),
                            rel_tol=rel_tol, limit=500)
        v2, _, _ = quadpack(g, tc, math.pi, rel_tol=rel_tol, limit=500)
        return v1 + v2
    return quadpack(g, 0.0, math.pi, rel_tol=rel_tol, limit=500)[0]


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
