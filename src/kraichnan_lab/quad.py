"""Adaptive quadrature for the singular and semi-infinite radial integrals.

The panel engine is QUADPACK (scipy.integrate.quad) behind one entry point,
`quadpack`: QAGP on finite intervals with declared singular points, and the
same after a variable change onto [0, 1] for semi-infinite tails.  The
default map t = lo + u/(1-u) turns algebraic tail decay into an integrable
endpoint singularity at u = 1, which QUADPACK fails to resolve when the
decay t^{-1-p} is slow (p near 0).  A caller that knows p passes it as
`decay`, and the tail is mapped by t = lo u^{-1/p} instead, under which the
leading t^{-1-p} term is constant in u.  The contract is the error bound,
not the rule.  Angular integrals are closed forms (specfun), so no
integrand here calls QUADPACK again, and radial_quad is the only caller of
quadpack in the package: every production quadrature is certified or
raises ToleranceNotReached.

QUADPACK's Gauss-Kronrod nodes depend only on the interval, and J_direct's
intervals (the head [0, 4] split at 1, the power-mapped tail) do not depend
on lambda, so a table of J over many lambda asks for the profile f(r) at
the same r again and again.  f_inner therefore caches f per (r, d, s), up
to _PROFILE_CACHE entries; the values are those of the uncached closed
form, bit for bit.
"""

from __future__ import annotations

import functools
import math

from scipy import integrate as _sciint

from .errors import DomainError, NonFiniteIntegrand, ToleranceNotReached
from .specfun import ModelParams, gegenbauer_integral

__all__ = ["quadpack", "radial_quad", "f_inner", "J_direct"]

# bound of the radial-profile cache, one entry per (r, d, s): a 20-point
# flux table at one parameter triple visits about a thousand distinct r
_PROFILE_CACHE = 4096


def quadpack(fn, lo, hi, points=None, abs_tol=0.0, rel_tol=1e-10, limit=500,
             decay=None):
    """int_lo^hi fn by scipy QUADPACK, with diagnostics returned instead of
    warnings: (value, error_estimate, converged).

    hi may be math.inf: the tail is mapped onto [0, 1) by t = lo + u/(1-u),
    or, given decay = p > 0 for an integrand that falls like t^{-1-p} (and
    lo > 0), onto (0, 1] by t = lo u^{-1/p}, dt = t/(p u) du.  Declared
    points inside (lo, hi) move with the map.  Raises NonFiniteIntegrand
    when the value is not finite or the integrand overflows.
    """
    points = [p for p in points or () if lo < p < hi]
    if math.isinf(hi):
        # the maps bind origin, not lo, which is reset to 0 below
        origin, integrand = lo, fn
        if decay is None:
            def fn(u):
                return integrand(origin + u / (1.0 - u)) / (1.0 - u) ** 2
            points = [(p - origin) / (1.0 + (p - origin)) for p in points]
        else:
            def fn(u):
                t = origin * u ** (-1.0 / decay)
                return integrand(t) * t / (decay * u)
            points = [(p / origin) ** -decay for p in points]
        lo, hi = 0.0, 1.0
    kwargs = dict(epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=True)
    if points:
        kwargs["points"] = sorted(points)
    try:
        out = _sciint.quad(fn, lo, hi, **kwargs)
    except OverflowError as exc:  # a Python float power past the float range
        raise NonFiniteIntegrand(f"integrand overflowed: {exc}") from exc
    value, err = out[0], out[1]
    if not math.isfinite(value):
        raise NonFiniteIntegrand(f"quadrature returned {value!r}")
    ok = len(out) < 4  # no error message appended
    return value, err, ok


def radial_quad(body, kink: float, rel_tol: float, limit: int, decay=None):
    """int_0^inf body(r) dr for a radial integrand with a kink at r = kink
    and algebraic decay beyond it: [0, 4 kink] with the kink declared, then
    the mapped tail to the absolute tolerance rel_tol |head|, by the power
    map when the caller gives the decay r^{-1-decay} of body (see
    quadpack).  Returns (value, error_estimate, converged); raises
    ToleranceNotReached when QUADPACK flags a piece and the error estimate
    exceeds 10 rel_tol |value|."""
    split = 4.0 * kink
    v1, e1, ok1 = quadpack(body, 0.0, split, [kink], 0.0, rel_tol, limit)
    v2, e2, ok2 = quadpack(body, split, math.inf, None,
                           max(1e-300, rel_tol * abs(v1)), rel_tol, limit,
                           decay)
    value, err, ok = v1 + v2, e1 + e2, ok1 and ok2
    if not ok and err > rel_tol * abs(value) * 10.0:
        raise ToleranceNotReached("radial quadrature tolerance not reached: "
                                  f"value {value!r}, error estimate {err!r}")
    return value, err, ok


@functools.lru_cache(maxsize=_PROFILE_CACHE)
def _profile(r: float, d: int, s: float) -> float:
    return r ** (d - 1) * gegenbauer_integral(d, s, r)


def f_inner(r: float, params: ModelParams) -> float:
    """Radial profile f(r) = r^{d-1} int_0^pi sin^d(t) |1-2r cos t + r^2|^{-s} dt,
    the angular integral in closed form (specfun.gegenbauer_integral).

    Cached per (r, d, s): J_direct's quadrature nodes repeat from one lambda
    to the next.  alpha is not in the key because f does not read it; the
    covariance exponent enters J_direct's body outside f."""
    return _profile(r, params.d, params.s)


def J_direct(lam: float, params: ModelParams, rel_tol: float = 1e-9) -> float:
    """J(lam) = int_0^inf (1 + (lam r)^2)^{-d/2-alpha} f(r) dr by radial
    quadrature of the closed-form f."""
    if lam <= 0:
        raise DomainError("J_direct requires lambda > 0")
    d, a = params.d, params.alpha

    def body(r):
        return (1.0 + (lam * r) ** 2) ** (-(d / 2.0 + a)) * f_inner(r, params)

    # r = 1 is a kink of f (angular near-singularity); beyond r ~ 4 the
    # integrand is smooth with algebraic decay r^{-1-2a-2s}
    return radial_quad(body, 1.0, rel_tol, 500, 2.0 * (a + params.s))[0]
