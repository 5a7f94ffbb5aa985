"""Radial discretization of the Fourier-space master equation

    da/dt(xi) = (2 pi)^{-d/2} int <xi-eta>^{-(d+2a)} |P_perp_{xi-eta} xi|^2
                (a(eta) - a(xi)) d eta

on a log-spaced grid of |xi|, plus Sobolev-norm tracking, balance checks and
the anomalous-dissipation time integral.

The kernel is stored in symmetric "flux form" sigma_ij = w_i kappa_ij, which
the builder makes exactly symmetric.  Each kernel entry is one radial sum of
the angular integral of the covariance (m^2 + |k|^2)^-(d/2+a), with mass
m = 1 for the massive kernel and m = 0 for the scale-free one: the far
field at the nodes and the near band on 16 Gauss-Legendre points per cell
(build_kernel holds the rules).  The angular integral has two evaluators:
a binomial series of Gegenbauer 2F1s (_binomial_series), one 2F1 per pair
at m = 0, and, for massive pairs near the unit scale, where no series
converges, Gauss-Legendre panels doubling away from the peak
(_ladder_sums, on the layout of _ladder_rules), one ladder per class of
pairs that share a peak width.  The massive kernel runs both radial rules
on every pair.  Its points lie on the log lattice, where the peak width
is fixed by the log offset, so every entry takes the ladder, one class per
offset shared by every row (_lattice_sums).  Its absorbing boundary is one
more radial sum (_radial_sums) of the per-pair angular integral
(_angular_integral: the series, or the ladder with one class per pair) on
log panels outside the grid, h/2 wide at each grid end and doubling
outward, with the tail past the last panel as one more point.  The
scale-free kernel is homogeneous, so on the log grid it is sigma = D T D
with D diagonal and T Toeplitz: the two rules run on row 0 alone
(_radial_sums), and its absorb rates are two closed-form 2F1s per node
(specfun.gegenbauer_tails).

The rate operator is L a = sigma a / w - loss a, with one loss diagonal:
the row sums of sigma over w, the absorption to off-grid modes and the
viscous decay 2 nu rho^2.  Because sigma is symmetric and the loss is
diagonal, L is self-adjoint in the w-weighted inner product (the balance
identity of `balance_check`) and similar to the symmetric
S = W^{1/2} L W^{-1/2}.  One eigendecomposition S = V diag(lam) V^T gives
the exact solution a(t) = W^{-1/2} V e^{lam t} V^T W^{1/2} a(0) at any t,
with no stability limit, and the time integral of the mass in closed form.
The explicit RK4 `step` is kept as the independent reference the tests
compare against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (ComputeError, DomainError, NegativityError,
                     StabilityViolation, TruncationWarning)
from .specfun import (ModelParams, gegenbauer_2f1, gegenbauer_tails,
                      model_prefactor, sin_power_integral, sphere_surface)

__all__ = [
    "RadialGrid", "SpectrumState", "KernelMatrix", "BalanceReport",
    "Trajectory", "build_kernel", "step", "propagate", "default_dt",
    "sobolev_norm", "balance_check", "evolve", "anomalous_dissipation_integral",
]

_NEAR_BAND = 4          # cells each side of the diagonal with sub-cell radial quadrature
# massive angular integral per pair (the absorb points): binomial series in
# D^-2 for rho_> - rho_< >= _FAR_GAP, in D^2 for rho_< + rho_> <= _SMALL_SUM,
# panel ladder in between.  The series need _FAR_GAP > 1 and _SMALL_SUM < 1
_FAR_GAP = 2.0
_SMALL_SUM = 0.5
_SERIES_TOL = 1e-16     # bound on the series truncation, relative to the sum
# bound on the (rho, r) pairs per angular call, on the ladder points per
# piece of rules and on the (pair, point) terms per chunk of a ladder sum
_CHUNK_PAIRS = 16384
# the absorb rule leaves out e^-37 < 1e-16 of each rate: the r^(d+2) integrand
# below 37/(d+2) e-folds under rho_min, and the relative (rho/R*)^2 (plus
# m^2/R*^2) of the tail's leading term past R* = rho_max e^(37/2)
_EFOLDS = 37.0
_GL12 = leggauss(12)
_GL16 = leggauss(16)
# memory cap on the block of record states evolve holds at once
_RECORD_BLOCK_BYTES = 8 << 20


@dataclass(frozen=True)
class RadialGrid:
    """Log-spaced radial grid with midpoint-in-log cell weights encoding the
    measure omega_{d-1} rho^{d-1} d rho."""
    nodes: np.ndarray
    weights: np.ndarray
    d: int
    log_step: float
    rho_min: float
    rho_max: float

    @staticmethod
    def log_spaced(rho_min: float, rho_max: float, n: int, d: int) -> "RadialGrid":
        if not (0 < rho_min < rho_max) or n < 2:
            raise DomainError("need 0 < rho_min < rho_max and n >= 2")
        lo, hi = math.log(rho_min), math.log(rho_max)
        edges = np.linspace(lo, hi, n + 1)
        # linspace's own step; edges[1] - edges[0] is a rounded difference,
        # off by 1.4e-14 relative at n = 512 on [1e-2, 1e3]
        h = (hi - lo) / n
        nodes = np.exp(0.5 * (edges[:-1] + edges[1:]))
        weights = sphere_surface(d - 1) * nodes ** d * h
        return RadialGrid(nodes=nodes, weights=weights, d=int(d), log_step=h,
                          rho_min=rho_min, rho_max=rho_max)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def log_edges(self) -> np.ndarray:
        return np.linspace(math.log(self.rho_min), math.log(self.rho_max),
                           self.n + 1)


@dataclass
class SpectrumState:
    grid: RadialGrid
    values: np.ndarray
    time: float
    params: ModelParams

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.nodes.shape:
            raise DomainError("spectrum shape does not match grid")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("spectrum has non-finite entries")


@dataclass
class KernelMatrix:
    """sigma is the exactly-symmetric flux form w_i kappa_ij (diagonal zero);
    absorb holds the extra per-node loss rate to off-grid modes (zeros for a
    closed boundary).  loss is the diagonal of the rate operator,
    sigma.sum(1) / w + absorb + 2 nu rho^2, computed once."""
    sigma: np.ndarray
    absorb: np.ndarray
    grid: RadialGrid
    params: ModelParams
    selfsimilar: bool
    loss: np.ndarray = field(init=False, repr=False)
    _modes: Optional[Tuple[np.ndarray, np.ndarray]] = field(default=None,
                                                            repr=False)

    def __post_init__(self):
        self.loss = (self.sigma.sum(axis=1) / self.grid.weights + self.absorb
                     + 2.0 * self.params.nu * self.grid.nodes ** 2)

    def modes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Eigenvalues lam (ascending, <= 0 up to round-off) and orthonormal
        eigenvectors V of S = W^{-1/2} sigma W^{-1/2} - diag(loss), the
        symmetric operator similar to the rate: L = W^{-1/2} S W^{1/2}."""
        if self._modes is None:
            r = 1.0 / np.sqrt(self.grid.weights)
            sym = self.sigma * np.outer(r, r)
            sym[np.diag_indices_from(sym)] -= self.loss
            self._modes = np.linalg.eigh(sym)
        return self._modes

    def rate(self, a: np.ndarray) -> np.ndarray:
        """The rate L a = sigma a / w - loss a."""
        return self.sigma @ a / self.grid.weights - self.loss * a


def _angular_integral(rho_i, rho_j, d: int, alpha: float, mass: float):
    """The one angular integral of the kernel, vectorized over pairs:
    int_0^pi sin^d(t) rho_i^2 rho_j^2 D^-2 (m^2 + D^2)^-beta dt with
    D^2 = (rho_i-rho_j)^2 + 4 rho_i rho_j sin^2(t/2), beta = (d+2a)/2 and
    mass m = 1 (the massive kernel) or 0 (the scale-free one).

    D ranges over [rho_> - rho_<, rho_> + rho_<], and (m^2+D^2)^-beta is a
    binomial series in m^2 D^-2 where D > m throughout and in D^2 where
    D < m throughout (_binomial_series): for far pairs,
    rho_> - rho_< >= _FAR_GAP m, and small pairs, rho_< + rho_> <= _SMALL_SUM m,
    both in powers of a q <= 1/4; at m = 0 every pair is far.  Massive pairs
    near the unit scale, whose D reaches or crosses 1 where neither series
    converges, take the panel ladder (_ladder_sums), each pair its own
    class with t_w = (rho_> - rho_<) / sqrt(rho_< rho_>).  Every operation
    reads rho_< and rho_> only, so the result is bitwise symmetric in
    (rho_i, rho_j).

    This per-pair path serves the pairs off the log lattice: the massive
    absorb points and the scale-free kernel's row.  The massive kernel's
    own entries take the same ladder, one class per log offset
    (_lattice_sums).
    """
    lo, hi = np.minimum(rho_i, rho_j), np.maximum(rho_i, rho_j)
    shape, lo, hi = lo.shape, lo.ravel(), hi.ravel()
    beta = (d + 2.0 * alpha) / 2.0
    if not mass:
        return _binomial_series(lo, hi, d, beta, mass, far=True).reshape(shape)
    out = np.empty_like(lo)
    far = hi - lo >= _FAR_GAP
    small = hi + lo <= _SMALL_SUM
    ladder = ~(far | small)
    out[far] = _binomial_series(lo[far], hi[far], d, beta, mass, far=True)
    out[small] = _binomial_series(lo[small], hi[small], d, beta, mass, far=False)
    a, b = lo[ladder], hi[ladder]
    p = a * b
    out[ladder] = _ladder_sums(p, (b - a) / np.sqrt(p), np.arange(p.size), d, alpha)
    return out.reshape(shape)


def _binomial_series(lo, hi, d: int, beta: float, mass: float, far: bool):
    """(lo hi)^2 int_0^pi sin^d(t) D^-2 (m^2+D^2)^-beta dt, m = mass,
    as (lo hi)^2 sum_k C(-beta, k) m^2k J(s_k) with
    J(s) = int_0^pi sin^d(t) D^-2s dt = hi^-2s gegenbauer_2f1(d, s, lo/hi).

    Far pairs expand in m^2 D^-2 <= q = m^2 (hi-lo)^-2, with
    s_k = beta + 1 + k, a single term at m = 0; small pairs (m = 1) in
    D^2 <= q = (hi+lo)^2, with s_k = 1 - k and J(0) = B(1/2, (d+1)/2).
    Past the first two orders the terms follow from the three-term
    recurrence that integrating sin^(d+1)(t) D^-2s by parts gives, with
    A = lo^2 + hi^2 and P = (hi^2 - lo^2)^2,

        s P J(s+1) = (2s-d-1) A J(s) + (d+1-s) J(s-1),

    run upward for far pairs and downward for small ones: the direction in
    which J(s) is the dominant solution, so the recurrence is stable.

    Term k is at most |C(-beta, k)| q^k times the leading one, and the sum
    at least (1+q)^-beta times it.  A pair leaves the sum once the
    geometric bound on its remaining terms falls below _SERIES_TOL of the
    sum, so each pair takes as many terms as its own q needs."""
    x = lo / hi

    def J(s):
        return hi ** (-2.0 * s) * gegenbauer_2f1(d, s, x)

    s, ds = (beta + 1.0, 1.0) if far else (1.0, -1.0)
    j0 = J(s)
    if not mass:    # q = 0: the first term is the sum
        return (lo * hi) ** 2 * j0
    if far:
        q, j1 = (hi - lo) ** -2.0, J(s + 1.0)
    else:
        q, j1 = (hi + lo) ** 2, np.full_like(lo, sin_power_integral(d))
    A = lo * lo + hi * hi
    P = ((hi - lo) * (hi + lo)) ** 2
    total = j0.copy()
    idx = np.arange(lo.size)
    bound = (1.0 + q) ** beta    # (1+q)^beta |C(-beta, k)| q^k
    coef, k = 1.0, 0
    while idx.size:
        ratio = (beta + k) / (k + 1.0)
        coef *= -ratio
        k += 1
        s += ds
        # J(s + ds) from J(s) = j1 and J(s - ds) = j0
        if far:
            j2 = ((2.0 * s - d - 1.0) * A[idx] * j1 + (d + 1.0 - s) * j0) / (s * P[idx])
        else:
            j2 = (s * P[idx] * j0 - (2.0 * s - d - 1.0) * A[idx] * j1) / (d + 1.0 - s)
        bound = bound * ratio * q[idx]
        # tail from term k on: term ratios only shrink, so a geometric sum bounds it
        live = bound > _SERIES_TOL * (1.0 - q[idx] * (beta + k) / (k + 1.0))
        idx, bound, j0, j1 = idx[live], bound[live], j1[live], j2[live]
        total[idx] += coef * j0
    return (lo * hi) ** 2 * total


def _gauss_panels(lo, hi, rule):
    """Points and weights of the Gauss-Legendre rule (x, w) on [-1, 1] mapped
    to each panel [lo, hi], as arrays with one row per panel."""
    x, w = rule
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid[..., None] + half[..., None] * x, half[..., None] * w


def _ladder_rules(t_w):
    """The panel ladders of the massive angular integral for the peak
    widths t_w (a 1-d array).  A ladder is 12-point Gauss-Legendre panels
    [0, t0] with t0 = t_w/8 (clipped to [1e-9, pi/4]), then [t0, 2 t0],
    [2 t0, 4 t0], ... up to pi, 1 + ceil(log2(pi/t0)) panels.  The
    integrand peaks at t = 0 with width t_w, and its singularities (near
    t = +-i t_w) lie on the lines Re t = 0 and 2 pi, outside the Bernstein
    ellipse of parameter 3 + sqrt(8) of every panel [a, 2a], so each such
    panel is exact to about (3 + sqrt(8))^-24 ~ 4e-19.

    Returns the piece of each ladder and an iterator over the pieces in
    turn, (members, t, wt): the points and weights of the ladders members,
    one row each.  A piece holds ladders of one length, so none is padded,
    and at most _CHUNK_PAIRS points (or one ladder); each is built only
    when it is reached."""
    t0 = np.clip(0.125 * t_w, 1e-9, math.pi / 4.0)
    # k, the least number of doublings with 2^k t0 >= pi, from the binary
    # exponents (pi = (pi/4) 2^2); 2^k t0 is exact, and so are the edges
    frac, expo = np.frexp(t0)
    k = 2 - expo + (frac < math.pi / 4.0)
    order = np.argsort(k, kind="stable")
    counts, end = np.bincount(k), 0
    piece, layout = np.empty(t0.size, dtype=int), []
    for c in np.flatnonzero(counts):
        start, end = end, end + counts[c]
        size = max(1, _CHUNK_PAIRS // (_GL12[0].size * (c + 1)))
        for s in range(start, end, size):
            members = order[s:min(s + size, end)]
            piece[members] = len(layout)
            layout.append((c, members))

    def rules():
        for c, members in layout:
            edges = np.minimum(np.ldexp(t0[members, None], np.arange(-1, c + 1)),
                               math.pi)
            edges[:, 0] = 0.0
            t, wt = _gauss_panels(edges[:, :-1], edges[:, 1:], _GL12)
            yield members, t.reshape(members.size, -1), wt.reshape(members.size, -1)

    return piece, rules()


def _ladder_sums(p, t_w, cls, d: int, alpha: float):
    """The massive angular integral of _angular_integral by the panel
    ladder, for the pairs with products p = rho r (a 1-d array): pair k is
    in class cls[k], and the pairs of a class share the peak width t_w[cls]
    and so one ladder.  With t_w = |r - rho| / sqrt(rho r),
    D^2 = p E, E = t_w^2 + 4 sin^2(t/2), the integral is
    p sum_m c_m (1 + p E_m)^-beta with c_m = wt_m sin^d(t_m) / E_m: each
    class takes one rule (t, E, c) and each (pair, point) one power.  The
    pairs are taken a piece of rules at a time, and a chunk holds at most
    _CHUNK_PAIRS (pair, point) terms; each pair's terms are summed in one
    chunk, so the values do not depend on where the chunks cut, nor on the
    other pairs of the call."""
    beta = (d + 2.0 * alpha) / 2.0
    piece, rules = _ladder_rules(t_w)
    pair_piece = piece[cls]
    slot = np.empty(t_w.size, dtype=int)
    vals = np.empty(p.size)
    for q, (members, t, wt) in enumerate(rules):
        slot[members] = np.arange(members.size)
        E = t_w[members, None] ** 2 + 4.0 * np.sin(0.5 * t) ** 2
        c = wt * np.sin(t) ** d / E
        pairs = np.flatnonzero(pair_piece == q)
        chunk = max(1, _CHUNK_PAIRS // t.shape[1])
        for k0 in range(0, pairs.size, chunk):
            k = pairs[k0:k0 + chunk]
            which = slot[cls[k]]
            term = E[which]
            term *= p[k, None]
            term += 1.0
            term **= -beta
            term *= c[which]
            vals[k] = p[k] * term.sum(axis=1)
    return vals


def _radial_sums(rho, r, wr, d: int, alpha: float, mass: float):
    """sum_k wr_k _angular_integral(rho, r_k) for each row rho: the radial
    rule of the scale-free row, whose angular integral is one 2F1 per pair,
    and of the massive absorb rates, whose points lie off the log lattice of
    _lattice_sums.  The points r and weights wr are (m, K) arrays, one row
    per rho, or (K,) arrays shared by every row.  The angular integral sees
    at most _CHUNK_PAIRS (rho, r) pairs per call, and a row is summed once
    all its values are in, so the sums do not depend on where the chunks
    cut."""
    shape = (rho.size, r.shape[-1])
    rows = np.broadcast_to(rho[:, None], shape).ravel()
    pts = np.broadcast_to(r, shape).ravel()
    vals = np.empty(rows.size)
    for k0 in range(0, rows.size, _CHUNK_PAIRS):
        k1 = k0 + _CHUNK_PAIRS
        vals[k0:k1] = _angular_integral(rows[k0:k1], pts[k0:k1], d, alpha, mass)
    return (vals.reshape(shape) * wr).sum(axis=1)


def _log_panels(lo_log, hi_log, d: int):
    """Radial points r and weights r^d dlog r of the 16-point Gauss-Legendre
    rule on each log panel [lo_log, hi_log], one row per panel."""
    t, wt = _gauss_panels(lo_log, hi_log, _GL16)
    r = np.exp(t)
    return r, wt * r ** d


def _lattice_sums(rho, r, wr, k, x, h: float, d: int, alpha: float):
    """_radial_sums of the massive angular integral for points on the log
    lattice: rho is (m,), r and wr are (m, K) arrays, and point (m, g) sits
    at log offset ell = (k_m + x_g/2) h from rho_m, r = rho e^ell.

    The ladder sees a pair only through t_w = |r - rho| / sqrt(rho r)
    = 2 sinh(|ell| / 2), so each offset present is one class of
    _ladder_sums, whose rule every row shares.  t_w comes from ell, not
    from r - rho of the rounded values, which next to the diagonal has lost
    digits."""
    lo = k.min(initial=0)
    present = np.bincount(k - lo, minlength=1) > 0
    index = np.cumsum(present) - 1
    cls = (index[k - lo][:, None] * x.size + np.arange(x.size)).ravel()
    ell = h * ((np.flatnonzero(present) + lo)[:, None] + 0.5 * x).ravel()
    vals = _ladder_sums((rho[:, None] * r).ravel(), 2.0 * np.sinh(0.5 * np.abs(ell)),
                        cls, d, alpha)
    return (vals.reshape(r.shape) * wr).sum(axis=1)


def _upper_entries(grid: RadialGrid, i, j, pref: float, sums):
    """sigma_ij for the node pairs i < j, by build_kernel's far-field and
    near-band rules.  sums(rho, r, wr, k, x) is the radial sum of the
    angular integral for the rows rho over the points r, weights wr ((m, K)
    arrays), point (m, g) at log offset (k_m + x_g/2) h from rho_m."""
    d, nodes, w, h = grid.d, grid.nodes, grid.weights, grid.log_step
    edges = grid.log_edges()
    out = np.empty(i.size)
    band = j - i <= _NEAR_BAND

    # node j seen from node i: log offset (j - i) h, the node its cell's one point
    fi, fj = i[~band], j[~band]
    v = nodes[fj, None] ** d * h
    out[~band] = w[fi] * (pref * sums(nodes[fi], nodes[fj, None], v, fj - fi,
                                      np.zeros(1)))

    # point g of cell j seen from node i: log offset (j - i + x_g/2) h
    bi, bj = i[band], j[band]
    rows, cells = np.concatenate((bi, bj)), np.concatenate((bj, bi))
    kappa = pref * sums(nodes[rows], *_log_panels(edges[cells], edges[cells + 1], d),
                        cells - rows, _GL16[0])
    out[band] = 0.5 * (w[bi] * kappa[:bi.size] + w[bj] * kappa[bi.size:])
    return out


def build_kernel(grid: RadialGrid, params: ModelParams, selfsimilar: bool = False,
                 boundary: str = "absorbing") -> KernelMatrix:
    """Assemble the jump-kernel matrix on the grid.

    kappa_ij = (2 pi)^{-d/2} omega_{d-2} int_{cell j} ang(rho_i, r) r^d dlog r
    is a radial sum of the angular integral, by two rules:

    - far field, j - i > _NEAR_BAND: the node rho_j as its cell's single
      point, with weight v_j = rho_j^d h;
    - near band, 0 < j - i <= _NEAR_BAND, where the kernel peaks sharply:
      16 Gauss-Legendre points in log over cell j, and sigma_ij the mean of
      w_i kappa_ij and w_j kappa_ji.

    The massive kernel (mass 1) runs the rules on every pair i < j,
    mirrored, so sigma = w kappa is exactly symmetric with a zero diagonal.
    Every point of either rule sits at a fixed log offset from its row's
    node, (j - i) h or (j - i + x/2) h, so _lattice_sums makes each offset
    one class of _ladder_sums: one panel ladder per offset, and one power
    per pair and ladder point; no binomial series runs.  The scale-free kernel
    (selfsimilar, mass 0) is homogeneous of degree c = d + 2 - 2a in
    (rho_i, rho_j), and the grid, the cells and the symmetrization are
    shift-invariant in log index, so sigma = D T D with
    D = diag(rho^{c/2}) and T Toeplitz: the rules run on row 0 alone, by
    _radial_sums of _angular_integral at mass 0 (one 2F1 per point), and
    sigma_ij = sigma_{0,|i-j|} (rho_min(i,j) / rho_0)^c, bitwise symmetric
    with a zero diagonal.  The scale uses node ratios, not e^{c h i}: the
    entries are evaluated at the nodes' own rounded values.

    absorb, the rate to the modes outside an absorbing boundary, is for the
    scale-free kernel (2 pi)^{-d/2} omega_{d-2} rho^{2-2a} times
    specfun.gegenbauer_tails at x = rho_min/rho and y = rho/rho_max, the
    radial integrals below and above the grid in closed form.  For the
    massive kernel it is a _radial_sums of _angular_integral (per pair:
    the series, or near the unit scale the ladder, one class per pair) on
    16-point Gauss-Legendre log panels outside the grid, h/2 wide at each
    grid end, where the edge node's kernel peaks, and doubling outward: to
    _EFOLDS/(d+2) e-folds below rho_min, past which the integrand
    ~ r^{d+2} in log r leaves less than 1e-16, and to
    R* = rho_max e^{_EFOLDS/2} above.
    Beyond R* the integrand is B rho^2 r^{-1-2a} (B = int_0^pi sin^d t dt)
    up to a relative (rho^2 + m^2) / R*^2, so the tail is one more point,
    R*, with weight R*^d / (2a): that integral's leading term.

    Raises DomainError for an unknown boundary and for a grid whose
    dimension is not params.d.
    """
    if boundary not in ("absorbing", "closed"):
        raise DomainError("boundary must be 'absorbing' or 'closed'")
    if grid.d != params.d:
        raise DomainError(f"grid dimension {grid.d} differs from params.d = {params.d}")

    d, a = grid.d, params.alpha
    nodes = grid.nodes
    n = grid.n
    pref = model_prefactor(d)
    if selfsimilar:
        def sums(rho, r, wr, k, x):
            return _radial_sums(rho, r, wr, d, a, 0.0)

        j = np.arange(1, n)
        row = np.r_[0.0, _upper_entries(grid, np.zeros_like(j), j, pref, sums)]
        # toeplitz[i, j] = row[|i - j|], a view of one 2n - 1 array
        toeplitz = np.lib.stride_tricks.sliding_window_view(
            np.r_[row[:0:-1], row], n)[::-1]
        # (rho_i / rho_0)^c rises with i, so its minimum over i, j is at min(i, j)
        scale = (nodes / nodes[0]) ** (d + 2.0 - 2.0 * a)
        sigma = toeplitz * np.minimum.outer(scale, scale)
    else:
        def sums(rho, r, wr, k, x):
            return _lattice_sums(rho, r, wr, k, x, grid.log_step, d, a)

        iu, ju = np.triu_indices(n, 1)
        sigma = np.zeros((n, n))
        sigma[iu, ju] = _upper_entries(grid, iu, ju, pref, sums)
        sigma += sigma.T

    if np.any(sigma < 0.0):
        raise ComputeError("kernel entries must be nonnegative")

    if boundary == "closed":
        absorb = np.zeros(n)
    elif selfsimilar:
        absorb = (pref * nodes ** (2.0 - 2.0 * a)
                  * gegenbauer_tails(d, a, grid.rho_min / nodes, nodes / grid.rho_max))
    else:
        h = grid.log_step
        ends = 0.5 * h * (2.0 ** np.arange(1 + math.ceil(math.log2(1 + _EFOLDS / h))) - 1)
        lower = math.log(grid.rho_min) - np.unique(np.minimum(ends, _EFOLDS / (d + 2)))
        upper = math.log(grid.rho_max) + np.unique(np.minimum(ends, _EFOLDS / 2))
        r, wr = _log_panels(np.r_[lower[1:], upper[:-1]], np.r_[lower[:-1], upper[1:]], d)
        r_star = math.exp(upper[-1])
        absorb = pref * _radial_sums(nodes, np.append(r, r_star),
                                     np.append(wr, r_star ** d / (2.0 * a)), d, a, 1.0)

    return KernelMatrix(sigma=sigma, absorb=absorb, grid=grid, params=params,
                        selfsimilar=selfsimilar)


def default_dt(kernel: KernelMatrix) -> float:
    """dt = 0.25 / max loss rate."""
    return 0.25 / float(kernel.loss.max())


def _check_spectrum(values: np.ndarray, where: str):
    """Reject non-finite values, and values below -1e-12 times the maximum of
    their column; negative values are never clamped."""
    if not np.all(np.isfinite(values)):
        raise ComputeError(f"non-finite spectrum after {where}")
    peak = np.atleast_1d(values.max(axis=0, initial=0.0))
    low = np.atleast_1d(values.min(axis=0))
    bad = np.flatnonzero((peak > 0) & (low < -1e-12 * peak))
    if bad.size:
        k = bad[0]
        raise NegativityError(
            f"spectrum negative beyond tolerance after {where}: "
            f"min = {low[k]:.3e}, max = {peak[k]:.3e}")


def step(state: SpectrumState, kernel: KernelMatrix, dt: float) -> SpectrumState:
    """One explicit RK4 step of the gain-loss system: the reference the exact
    propagator is tested against.  Negative values are a hard error beyond
    the round-off band; they are never clamped."""
    if dt <= 0:
        raise DomainError("dt must be positive")
    max_loss = float(kernel.loss.max())
    if dt * max_loss > 0.5 + 1e-12:
        raise StabilityViolation(
            f"dt * max loss rate = {dt * max_loss:.3f} exceeds 0.5")
    a = state.values
    k1 = kernel.rate(a)
    k2 = kernel.rate(a + 0.5 * dt * k1)
    k3 = kernel.rate(a + 0.5 * dt * k2)
    k4 = kernel.rate(a + dt * k3)
    new = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    _check_spectrum(new, "step")
    return SpectrumState(grid=state.grid, values=new, time=state.time + dt,
                         params=state.params)


def _mode_values(kernel: KernelMatrix, a: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Exact states a(t0 + tau) for each tau in taus, as the columns of an
    (n, len(taus)) array: one matrix product for the whole block."""
    lam, vecs = kernel.modes()
    sw = np.sqrt(kernel.grid.weights)
    coef = vecs.T @ (sw * a)
    return (vecs @ (coef[:, None] * np.exp(np.outer(lam, taus)))) / sw[:, None]


def propagate(state: SpectrumState, kernel: KernelMatrix, t: float) -> SpectrumState:
    """Exact solution of the master equation at time t >= state.time:
    W^{-1/2} V e^{lam (t - t0)} V^T W^{1/2} a from the kernel's modes.
    Negative values beyond the round-off band are a hard error, as in
    `step`; they are never clamped."""
    if t < state.time:
        raise DomainError("propagate runs forward in time only")
    new = _mode_values(kernel, state.values, np.array([t - state.time]))[:, 0]
    _check_spectrum(new, "propagation")
    return SpectrumState(grid=state.grid, values=new, time=t, params=state.params)


def _norm_weights(grid: RadialGrid, s_query: float) -> np.ndarray:
    return grid.nodes ** (-2.0 * s_query) * grid.weights


def sobolev_norm(state: SpectrumState, s_query: float) -> float:
    """Quadrature of int |xi|^{-2 s_query} a(|xi|) d xi on the grid
    (s_query = 0 gives the total spectral mass)."""
    return float(_norm_weights(state.grid, s_query) @ state.values)


@dataclass
class BalanceReport:
    lhs: float
    rhs: float


def balance_check(state: SpectrumState, kernel: KernelMatrix,
                  s_query: float) -> BalanceReport:
    """Discrete balance identity for the norm of index -s_query, with
    psi = rho^{-2 s_query}: lhs = sum psi w L(a), the norm's rate of change
    under the kernel, and rhs = sum a w L(psi), the state weighted by the
    grid flux of psi (absorbed outflow and viscous decay included).  They
    agree to round-off because L is self-adjoint in the w-weighted inner
    product."""
    w, a = state.grid.weights, state.values
    psi = state.grid.nodes ** (-2.0 * s_query)
    return BalanceReport(lhs=float(np.sum(psi * w * kernel.rate(a))),
                         rhs=float(np.sum(a * w * kernel.rate(psi))))


@dataclass
class Trajectory:
    times: np.ndarray
    mass: np.ndarray
    norms: Dict[float, np.ndarray]
    boundary_fraction: np.ndarray
    truncation_time: Optional[float]
    final_state: SpectrumState

    @property
    def truncated(self) -> bool:
        return self.truncation_time is not None


def _boundary_fraction(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Share of the mass held by the outer 5% of nodes on either end, for
    each column of values (zero where the mass is not positive)."""
    k = max(1, math.ceil(0.05 * grid.n))
    wa = grid.weights[:, None] * values.reshape(grid.n, -1)
    total = wa.sum(axis=0)
    edge = wa[:k].sum(axis=0) + wa[-k:].sum(axis=0)
    return np.where(total > 0, edge / np.where(total > 0, total, 1.0), 0.0)


def evolve(initial: SpectrumState, kernel: KernelMatrix, t_final: float,
           dt: Optional[float] = None, trackers: Sequence[float] = ()) -> Trajectory:
    """Solve the master equation to t_final exactly from the kernel's modes,
    recording mass, the tracked Sobolev norms and the boundary mass fraction
    at t0, every dt and at t_final (at t0 alone when t_final = t0).  Records
    are computed in blocks of bounded memory.  Raises DomainError for
    dt <= 0 or t_final < t0.

    Stops with a TruncationWarning at the first record, t0 included, where
    the outer 5% of nodes on either end hold more than 1% of the mass; that
    record is the last one.
    """
    if dt is None:
        dt = default_dt(kernel)
    if dt <= 0:
        raise DomainError("dt must be positive")
    grid, t0 = initial.grid, initial.time
    if t_final < t0:
        raise DomainError("evolve runs forward in time only")
    # a step count a rounding error above an integer adds no record, and
    # t_final = t0 records t0 alone
    n_steps = math.ceil((t_final - t0) / dt * (1.0 - 1e-12))
    taus = np.minimum(dt * np.arange(1, n_steps + 1), t_final - t0)
    probes = np.array([_norm_weights(grid, s) for s in (0.0, *trackers)])
    sums = [probes @ initial.values[:, None]]
    bfrac = [_boundary_fraction(grid, initial.values)]
    last = initial.values
    t_trunc = t0 if bfrac[0][0] > 0.01 else None
    block = max(1, _RECORD_BLOCK_BYTES // (8 * grid.n))
    for b0 in range(0, n_steps if t_trunc is None else 0, block):
        vals = _mode_values(kernel, initial.values, taus[b0:b0 + block])
        bf = _boundary_fraction(grid, vals)
        first = next(iter(np.flatnonzero(bf > 0.01)), None)
        if first is not None:
            vals, bf = vals[:, :first + 1], bf[:first + 1]
        _check_spectrum(vals, "propagation")
        sums.append(probes @ vals)
        bfrac.append(bf)
        last = vals[:, -1]
        if first is not None:
            t_trunc = t0 + float(taus[b0 + first])
            break
    if t_trunc is not None:
        warnings.warn(
            f"boundary cells hold {bfrac[-1][-1]:.1%} of the mass at t = {t_trunc:.4g};"
            " full-space comparisons are invalid beyond this time",
            TruncationWarning)
    sums = np.concatenate(sums, axis=1)
    times = np.concatenate(([t0], t0 + taus[:sums.shape[1] - 1]))
    final = SpectrumState(grid=grid, values=last.copy(), time=float(times[-1]),
                          params=initial.params)
    return Trajectory(times=times, mass=sums[0],
                      norms={float(s): sums[1 + i] for i, s in enumerate(trackers)},
                      boundary_fraction=np.concatenate(bfrac),
                      truncation_time=t_trunc, final_state=final)


def anomalous_dissipation_integral(initial: SpectrumState, kernel: KernelMatrix):
    """int_0^inf mass dt = w^T M^-1 (w a_0) by one linear solve, with
    M = diag(w loss) - sigma = -W L symmetric positive definite.  On the
    scale-free kernel the energy-decay identity compares it with ||a_0|| in
    the norm of index alpha-1 divided by the dissipation constant at
    s = 1 - alpha.

    Raises DomainError for a kernel with neither absorption nor viscosity,
    where the mass is conserved and the integral diverges."""
    if not kernel.absorb.any() and kernel.params.nu == 0.0:
        raise DomainError("a closed boundary with nu = 0 conserves mass: "
                          "the time integral of the mass diverges")
    w = initial.grid.weights
    M = np.diag(w * kernel.loss) - kernel.sigma
    return float(w @ np.linalg.solve(M, w * initial.values))
