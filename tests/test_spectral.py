"""Spectral master equation: kernel structure, conservation, balance
identities, evolution diagnostics."""

import functools
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from kraichnan_lab import mellin, spectral
from kraichnan_lab.errors import (DomainError, StabilityViolation,
                                  TruncationWarning)
from kraichnan_lab.spectral import (_FAR_GAP, _NEAR_BAND, _SMALL_SUM,
                                    KernelMatrix, RadialGrid, SpectrumState,
                                    _angular_integral, _binomial_series,
                                    _ladder_sums,
                                    anomalous_dissipation_integral,
                                    balance_check, build_kernel, default_dt,
                                    evolve, propagate, sobolev_norm, step)
from kraichnan_lab.specfun import ModelParams, gegenbauer_2f1, sphere_surface
from oracles import (absorb_panels, continuum_rhs, gegenbauer_quad, grid_flux,
                     massive_ang_quad, off_grid_quad, scale_free_kernel_pairwise)

P = ModelParams(d=2, alpha=0.5, s=0.75)
P_NU = ModelParams(d=2, alpha=0.5, s=0.75, nu=0.05)


@pytest.fixture(scope="module")
def small_grid():
    return RadialGrid.log_spaced(0.05, 50.0, 128, 2)


@pytest.fixture(scope="module")
def small_kernel(small_grid):
    return build_kernel(small_grid, P, selfsimilar=False, boundary="absorbing")


@pytest.fixture(scope="module")
def small_kernel_closed(small_grid):
    return build_kernel(small_grid, P, selfsimilar=False, boundary="closed")


@pytest.fixture(scope="module")
def ss_kernel(small_grid):
    return build_kernel(small_grid, P, selfsimilar=True, boundary="absorbing")


@pytest.fixture(scope="module")
def nu_kernel(small_grid, small_kernel):
    # the exchange kernel is nu-independent; viscosity only adds the
    # diagonal decay 2 nu |xi|^2, so the viscous kernel reuses sigma
    return KernelMatrix(sigma=small_kernel.sigma, absorb=small_kernel.absorb,
                        grid=small_grid, params=P_NU, selfsimilar=False)


def entries(kernel):
    """kappa_ij = sigma_ij / w_i, the rate coefficients of the row of node i."""
    return kernel.sigma / kernel.grid.weights[:, None]


def bump_state(grid, center=1.0, width=0.4):
    a = np.exp(-0.5 * ((np.log(grid.nodes) - math.log(center)) / width) ** 2)
    return SpectrumState(grid=grid, values=a, time=0.0, params=P)


class TestRadialGrid:
    def test_basic_invariants(self, small_grid):
        assert np.all(np.diff(small_grid.nodes) > 0)
        assert np.all(small_grid.weights > 0)

    def test_quadrature_of_smooth_function(self):
        # integral of e^{-rho^2} against the 2-d radial measure is pi
        grid = RadialGrid.log_spaced(1e-6, 30.0, 400, 2)
        val = float(np.sum(np.exp(-grid.nodes ** 2) * grid.weights))
        assert val == pytest.approx(math.pi, rel=1e-8)

    def test_rejects_bad_extents(self):
        with pytest.raises(DomainError):
            RadialGrid.log_spaced(1.0, 0.5, 16, 2)


class TestKernel:
    def test_rejects_grid_of_another_dimension(self, small_grid):
        # the kernel would be built in the grid's d and carry params.d, which
        # the dissipation reference and the balance ratio read
        with pytest.raises(DomainError, match="dimension"):
            build_kernel(small_grid, ModelParams(d=3, alpha=0.5, s=0.75))

    def test_flux_form_exactly_symmetric(self, small_kernel):
        assert np.array_equal(small_kernel.sigma, small_kernel.sigma.T)

    def test_nonnegative_zero_diagonal(self, small_kernel):
        assert np.all(small_kernel.sigma >= 0.0)
        assert np.all(np.diag(small_kernel.sigma) == 0.0)
        assert np.all(entries(small_kernel) >= 0.0)

    def test_monte_carlo_spot_entry(self, small_kernel):
        # kappa_ij = (2 pi)^{-1} int over the annulus cell j of
        # <xi - eta>^{-d-2a} |P_perp_{xi-eta} xi|^2 d eta, at xi near rho = 1
        # and the cell nearest rho = 2
        grid = small_kernel.grid
        i = int(np.argmin(np.abs(grid.nodes - 1.0)))
        j = int(np.argmin(np.abs(grid.nodes - 2.0)))
        edges = np.exp(grid.log_edges())
        rng = np.random.default_rng(123)
        n_mc = 2_000_000
        u = rng.uniform(edges[j] ** 2, edges[j + 1] ** 2, n_mc)
        r = np.sqrt(u)  # uniform in the annulus area
        th = rng.uniform(0.0, 2.0 * math.pi, n_mc)
        xi = grid.nodes[i]
        ex, ey = r * np.cos(th), r * np.sin(th)
        dx, dy = xi - ex, ey
        D2 = dx * dx + dy * dy
        proj = ex * ex + ey * ey - (ex * dx - ey * dy) ** 2 / D2
        vals = proj * (1.0 + D2) ** (-(2.0 + 2.0 * P.alpha) / 2.0)
        area = math.pi * (edges[j + 1] ** 2 - edges[j] ** 2)
        mc = area * float(vals.mean()) / (2.0 * math.pi)
        se = area * float(vals.std()) / math.sqrt(n_mc) / (2.0 * math.pi)
        kappa = float(entries(small_kernel)[i, j])
        assert abs(kappa - mc) <= max(0.01 * abs(mc), 4.0 * se)

    def test_absorb_rates_positive(self, small_kernel):
        assert np.all(small_kernel.absorb > 0.0)

    def test_absorb_rates_match_pointwise_sum(self, small_kernel):
        # absorb is one _radial_sums over the points outside the grid,
        # shared by every node: the same angular values (2F1 series or
        # panel ladder, by region) as a loop over the points one at a time,
        # summed in another order
        idx = np.array([0, 40, 127])
        ref = absorb_panels(small_kernel.grid, P,
                            functools.partial(_angular_integral, mass=1.0), idx)
        got = small_kernel.absorb[idx]
        assert np.max(np.abs(got - ref) / ref) <= 1e-14


def _scale_free_ang_quad(rho_i, r, d, alpha):
    """rho_i^2 r^2 int_0^pi sin^d(t) D^-(d+2a+2) dt with the angular integral
    by QUADPACK (oracles.gegenbauer_quad), independent of the 2F1."""
    lo, hi = min(rho_i, r), max(rho_i, r)
    sig = (d + 2.0 * alpha + 2.0) / 2.0
    return (rho_i * r) ** 2 * hi ** (-2.0 * sig) * gegenbauer_quad(d, sig, lo / hi)


def _pointwise(ang):
    """A scalar angular oracle as the (nodes, r) form absorb_panels
    takes: one call per node."""
    def vec(rho, r, d, a):
        return np.array([ang(x, r, d, a) for x in rho])
    return vec


def _far_field_reference(kernel, i, j, ang):
    """kappa_ij beyond the near band, midpoint in log:
    (2 pi)^{-d/2} omega_{d-2} ang(rho_i, rho_j) rho_j^d h."""
    grid, d, a = kernel.grid, kernel.grid.d, kernel.params.alpha
    rho = grid.nodes
    return ((2.0 * math.pi) ** (-d / 2.0) * sphere_surface(d - 2)
            * ang(rho[i], rho[j], d, a) * rho[j] ** d * grid.log_step)


def _near_band_reference(kernel, i, j, ang):
    """sigma_ij = pref (v_i q_ij + v_j q_ji) / 2 with q_ij the 16-point
    Gauss-Legendre integral of ang(rho_i, r) r^d over cell j in log r."""
    grid, d, a = kernel.grid, kernel.grid.d, kernel.params.alpha
    rho, edges = grid.nodes, grid.log_edges()
    x16, w16 = leggauss(16)

    def q(k, cell):
        mid = 0.5 * (edges[cell] + edges[cell + 1])
        half = 0.5 * grid.log_step
        r = np.exp(mid + half * x16)
        return half * sum(wk * ang(rho[k], rk, d, a) * rk ** d
                          for wk, rk in zip(w16, r))

    v = rho ** d * grid.log_step
    pref = ((2.0 * math.pi) ** (-d / 2.0) * sphere_surface(d - 2)
            * sphere_surface(d - 1))
    return 0.5 * pref * (v[i] * q(i, j) + v[j] * q(j, i))


# (rho_i, rho_j) pairs in each region of the massive angular integral and
# next to the region boundaries rho_> - rho_< = _FAR_GAP and
# rho_< + rho_> = _SMALL_SUM
MASSIVE_PAIRS = [
    (1e-3, 0.2), (0.05, 0.4), (0.2, 0.25),              # small pairs
    (0.3, 1.2), (0.9, 1.1), (1.0, 1.0001), (5.0, 6.5),   # unit scale
    (0.01, 3.0), (2.0, 40.0), (40.0, 45.0), (3e3, 3.1e3),  # far pairs
] + [(lo, lo + _FAR_GAP * (1.0 + e)) for lo in (0.01, 0.5, 30.0)
     for e in (-1e-9, 1e-9)] + [
    (x * hi, hi) for x in (0.01, 0.5, 0.95) for e in (-1e-9, 1e-9)
    for hi in [_SMALL_SUM * (1.0 + e) / (1.0 + x)]]


ANGULAR_PARAMS = [(2, 0.25), (2, 0.75), (3, 0.25), (3, 0.75)]


def _check_angular_vs_quadrature(d, alpha, mass, oracle):
    lo, hi = np.array(MASSIVE_PAIRS).T
    got = _angular_integral(lo, hi, d, alpha, mass)
    ref = np.array([oracle(x, y, d, alpha) for x, y in MASSIVE_PAIRS])
    assert np.max(np.abs(got - ref) / ref) <= 1e-12


@pytest.fixture
def pair_ladder(monkeypatch):
    """The massive _angular_integral with neither series' region open, so
    every pair takes the panel ladder, one class per pair."""
    monkeypatch.setattr(spectral, "_FAR_GAP", math.inf)
    monkeypatch.setattr(spectral, "_SMALL_SUM", 0.0)
    return functools.partial(_angular_integral, mass=1.0)


def _check_exchange_symmetry(mass):
    rng = np.random.default_rng(17)
    a, b = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), (2, 4000)))
    near = rng.uniform(size=a.size) < 0.5
    b[near] = a[near] * np.exp(rng.uniform(-0.1, 0.1, near.sum()))
    for d, alpha in ((2, 0.25), (3, 0.75)):
        assert np.array_equal(_angular_integral(a, b, d, alpha, mass),
                              _angular_integral(b, a, d, alpha, mass))


class TestScaleFreeKernel:
    """The scale-free kernel, the mass-zero angular integral, against the
    angular integral by QUADPACK on the same discretization, and its exact
    scale covariance."""

    @pytest.mark.parametrize("d,alpha", ANGULAR_PARAMS)
    def test_angular_vs_quadrature(self, d, alpha):
        _check_angular_vs_quadrature(d, alpha, 0.0, _scale_free_ang_quad)

    def test_exchange_symmetry_bitwise(self):
        _check_exchange_symmetry(0.0)

    def test_one_2f1_per_pair(self, monkeypatch):
        # at mass 0 every pair is far with q = 0, so the series is its first
        # term: a second term would add evaluations, a ladder pass take some
        evaluated = []

        def counting(d, s, x):
            evaluated.append(np.size(x))
            return gegenbauer_2f1(d, s, x)

        monkeypatch.setattr(spectral, "gegenbauer_2f1", counting)
        lo, hi = np.array(MASSIVE_PAIRS).T
        _angular_integral(lo, hi, 2, 0.75, 0.0)
        assert sum(evaluated) == lo.size

    N = 48

    @pytest.fixture(scope="class", params=[(2, 0.25), (2, 0.75), (3, 0.25),
                                           (3, 0.75)])
    def ss(self, request):
        d, a = request.param
        grid = RadialGrid.log_spaced(0.05, 50.0, self.N, d)
        return build_kernel(grid, ModelParams(d=d, alpha=a, s=0.6),
                            selfsimilar=True)

    def test_flux_form_exactly_symmetric(self, ss):
        assert np.array_equal(ss.sigma, ss.sigma.T)

    @pytest.mark.parametrize("i,j", [(3, 40), (20, 25), (31, 5), (0, 47)])
    def test_far_field_vs_quadrature(self, ss, i, j):
        ref = _far_field_reference(ss, i, j, _scale_free_ang_quad)
        assert abs(entries(ss)[i, j] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("i,j", [(30, 31), (12, 16), (47, 45)])
    def test_near_band_vs_quadrature(self, ss, i, j):
        ref = _near_band_reference(ss, i, j, _scale_free_ang_quad)
        assert abs(ss.sigma[i, j] - ref) <= 1e-12 * ref

    def test_absorb_vs_quadrature(self, ss):
        # the closed-form rates against the log-panel rule on the angular
        # integral by QUADPACK; the panels hold the continuum to 1e-12
        idx = np.array([0, 24, self.N - 1])
        ref = absorb_panels(ss.grid, ss.params, _pointwise(_scale_free_ang_quad),
                            idx)
        assert np.max(np.abs(ss.absorb[idx] - ref) / ref) <= 1e-12

    def test_lambda_scaled_grid(self, ss):
        # the scale-free angular integral is homogeneous of degree 2-d-2a,
        # so on the grid scaled by lam every rate scales by lam^{2-2a}
        lam = 2.7
        grid = ss.grid
        scaled = RadialGrid.log_spaced(lam * grid.rho_min, lam * grid.rho_max,
                                       grid.n, grid.d)
        kern = build_kernel(scaled, ss.params, selfsimilar=True)
        factor = lam ** (2.0 - 2.0 * ss.params.alpha)
        off = ~np.eye(grid.n, dtype=bool)
        ref = factor * entries(ss)[off]
        assert np.max(np.abs(entries(kern)[off] - ref) / ref) <= 1e-12
        ref = factor * ss.absorb
        assert np.max(np.abs(kern.absorb - ref) / ref) <= 1e-12


class TestShiftStructure:
    """The scale-free kernel from one row, sigma = D T D on the log grid,
    against its three rules run on every entry
    (oracles.scale_free_kernel_pairwise), and its grid symbol."""

    @staticmethod
    def _check_vs_pairwise(grid, params):
        sigma, absorb = scale_free_kernel_pairwise(grid, params)
        off = ~np.eye(grid.n, dtype=bool)
        for boundary in ("absorbing", "closed"):
            kern = build_kernel(grid, params, selfsimilar=True, boundary=boundary)
            assert np.array_equal(kern.sigma, kern.sigma.T)
            assert not np.diag(kern.sigma).any()
            assert np.max(np.abs(kern.sigma - sigma)[off] / sigma[off]) <= 1e-12
            if boundary == "closed":
                assert not kern.absorb.any()
            else:
                assert np.max(np.abs(kern.absorb - absorb) / absorb) <= 1e-12

    @pytest.mark.parametrize("extent", [(0.05, 50.0, 48), (1e-2, 1e3, 64),
                                        (1e-2, 1e3, 512)])
    @pytest.mark.parametrize("d,alpha", [(2, 0.25), (2, 0.75), (3, 0.25),
                                         (3, 0.75)])
    def test_row_build_vs_pairwise(self, d, alpha, extent):
        lo, hi, n = extent
        self._check_vs_pairwise(RadialGrid.log_spaced(lo, hi, n, d),
                                ModelParams(d=d, alpha=alpha, s=0.6))

    # n = 2 and 5: the band holds the whole row; n = 2048: the rounding of
    # the log nodes, ~1e-15 against a gap h = 5.6e-3, moves the dense
    # build's near-band entries by up to 8e-13 from the exact shift
    @pytest.mark.parametrize("n", [2, 5, 2048])
    def test_row_build_vs_pairwise_sizes(self, n):
        self._check_vs_pairwise(RadialGrid.log_spaced(1e-2, 1e3, n, 2),
                                ModelParams(d=2, alpha=0.75, s=0.6))

    @pytest.mark.parametrize("d,alpha,s", [(2, 0.5, 0.75), (3, 0.25, 0.6)])
    def test_grid_symbol(self, d, alpha, s):
        # rate(rho^-2s)_i = rho_i^{2-2a-2s} (omega_{d-1} h)^-1
        # sum_m T_m e^{cmh/2} (e^{-2smh} - 1) at every node, the sum over
        # the nodes that exist, with T_m = sigma_{0,m} (rho_0 rho_m)^{-c/2}
        grid = RadialGrid.log_spaced(1e-3, 1e4, 700, d)
        params = ModelParams(d=d, alpha=alpha, s=s)
        kern = build_kernel(grid, params, selfsimilar=True, boundary="closed")
        sigma, _ = scale_free_kernel_pairwise(grid, params, boundary="closed")
        rho, h, c = grid.nodes, grid.log_step, d + 2.0 - 2.0 * alpha
        t_row = sigma[0] / (rho[0] * rho) ** (c / 2.0)
        i = grid.n // 2
        m = np.arange(-i, grid.n - i)
        symbol = (np.sum(t_row[np.abs(m)] * np.exp(c * m * h / 2.0)
                         * np.expm1(-2.0 * s * m * h))
                  / (sphere_surface(d - 1) * h))
        got = kern.rate(rho ** (-2.0 * s))[i] / rho[i] ** (2.0 - 2.0 * alpha - 2.0 * s)
        assert abs(got - symbol) <= 1e-12 * abs(symbol)


class TestMassiveKernel:
    """The massive kernel against its angular integral by QUADPACK
    (oracles.massive_ang_quad) on the same discretization: entries with
    node pairs in each region of the angular evaluation, absorb rates, and
    the angular function itself on both sides of its region boundaries."""

    N = 48

    @pytest.fixture(scope="class", params=[(2, 0.25), (2, 0.75), (3, 0.25),
                                           (3, 0.75)])
    def mk(self, request):
        d, a = request.param
        grid = RadialGrid.log_spaced(0.05, 50.0, self.N, d)
        return build_kernel(grid, ModelParams(d=d, alpha=a, s=0.6))

    def test_flux_form_exactly_symmetric(self, mk):
        assert np.array_equal(mk.sigma, mk.sigma.T)

    # small (2, 9), (5, 13); unit scale (20, 25), (24, 29), (6, 14);
    # far (3, 40), (24, 30), (31, 5), (0, 47)
    @pytest.mark.parametrize("i,j", [(2, 9), (5, 13), (20, 25), (24, 29),
                                     (6, 14), (3, 40), (24, 30), (31, 5),
                                     (0, 47)])
    def test_far_field_vs_quadrature(self, mk, i, j):
        ref = _far_field_reference(mk, i, j, massive_ang_quad)
        assert abs(entries(mk)[i, j] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("i,j", [(3, 5), (30, 31), (12, 16), (47, 45)])
    def test_near_band_vs_quadrature(self, mk, i, j):
        ref = _near_band_reference(mk, i, j, massive_ang_quad)
        assert abs(mk.sigma[i, j] - ref) <= 1e-12 * ref

    def test_absorb_vs_quadrature(self, mk):
        idx = np.array([0, 24, self.N - 1])
        ref = absorb_panels(mk.grid, mk.params, _pointwise(massive_ang_quad),
                            idx)
        assert np.max(np.abs(mk.absorb[idx] - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("d,alpha", ANGULAR_PARAMS)
    def test_angular_vs_quadrature(self, d, alpha):
        _check_angular_vs_quadrature(d, alpha, 1.0, massive_ang_quad)

    def test_exchange_symmetry_bitwise(self):
        _check_exchange_symmetry(1.0)

    @pytest.mark.parametrize("d,alpha", [(2, 0.25), (2, 0.75), (3, 0.25),
                                         (3, 0.75)])
    @pytest.mark.parametrize("far", [True, False], ids=["far", "small"])
    def test_ladder_vs_series(self, pair_ladder, d, alpha, far):
        # the ladder just outside its region, where either series converges
        # fast: rho_> - rho_< in [2, 2.5] or rho_< + rho_> in [0.4, 0.5]; far
        # pairs keep rho_< <= 30, so x = rho_< / rho_> <= 0.94, short of
        # where the series' 2F1 of x^2 loses digits
        rng = np.random.default_rng(19)
        if far:
            lo = np.exp(rng.uniform(math.log(1e-3), math.log(30.0), 200))
            hi = lo + rng.uniform(2.0, 2.5, lo.size)
        else:
            x = rng.uniform(0.01, 1.0, 200)
            hi = rng.uniform(0.4, 0.5, x.size) / (1.0 + x)
            lo = x * hi
        got = pair_ladder(lo, hi, d, alpha)
        ref = _binomial_series(lo, hi, d, (d + 2.0 * alpha) / 2.0, 1.0, far)
        assert np.max(np.abs(got - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("d,alpha", [(2, 0.25), (3, 0.75)])
    def test_ladder_at_clip(self, pair_ladder, d, alpha):
        # t_w/8 = 1.25e-10 is clipped to a first panel [0, 1e-9]
        got = pair_ladder(np.array([1.0]), np.array([1.0 + 1e-9]), d, alpha)
        ref = massive_ang_quad(1.0, 1.0 + 1e-9, d, alpha)
        assert abs(got[0] - ref) <= 1e-12 * ref

    # [0, t0], then panels doubling to pi: 1 + ceil(log2(pi/t0)) panels of
    # 12 points; t0 = pi/4 (clipped) takes 3, t0 = 9.96e-4 takes 13
    @pytest.mark.parametrize("lo,hi,panels", [(0.01, 1.5, 3), (1.0, 1.008, 13)])
    def test_ladder_panels_double(self, monkeypatch, pair_ladder, lo, hi, panels):
        gauss_panels, evaluated = spectral._gauss_panels, []

        def counting(a, b, rule):
            t, wt = gauss_panels(a, b, rule)
            evaluated.append(t.size)
            return t, wt

        monkeypatch.setattr(spectral, "_gauss_panels", counting)
        pair_ladder(np.array([lo]), np.array([hi]), 2, 0.5)
        assert sum(evaluated) == 12 * panels

    def test_ladder_rules_built_in_pieces(self, monkeypatch, pair_ladder):
        # 2000 pairs, each its own class with t_w ~ 1e-6: 26 panels, 312
        # points per ladder.  The rules are built a piece at a time, each at
        # most _CHUNK_PAIRS points, never all 624 000 at once
        gauss_panels, evaluated = spectral._gauss_panels, []

        def counting(a, b, rule):
            t, wt = gauss_panels(a, b, rule)
            evaluated.append(t.size)
            return t, wt

        monkeypatch.setattr(spectral, "_gauss_panels", counting)
        lo = np.linspace(1.0, 2.0, 2000)
        pair_ladder(lo, lo * (1.0 + 1e-6), 2, 0.5)
        assert sum(evaluated) == 2000 * 312
        assert max(evaluated) <= spectral._CHUNK_PAIRS


class TestLatticeSums:
    """The massive kernel's entries, one ladder per log offset
    (_lattice_sums), against ladders built per pair and against QUADPACK."""

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [64, 512])
    def test_equals_panel_ladder(self, pair_ladder, n, d, alpha):
        # every log offset of a massive build on n nodes over [1e-2, 1e3]:
        # (j - i) h in the far field, (j - i + x_g/2) h in the near band,
        # one class per ratio q = r/rho with t_w = 2 sinh(|log q|/2), shared
        # by 18 rows, against one class per pair with t_w = (r - rho) /
        # sqrt(rho r).  Ratios rounded to 40 bits and rows that are powers
        # of two make r = rho q exact, so both see the same (rho, r)
        h = math.log(1e5) / n
        x = leggauss(16)[0]
        offsets = np.concatenate((np.arange(_NEAR_BAND + 1, n), (
            np.arange(-_NEAR_BAND, _NEAR_BAND + 1)[:, None] + 0.5 * x).ravel()))
        frac, expo = np.frexp(np.exp(offsets * h))
        q = np.ldexp(np.round(np.ldexp(frac, 40)), expo - 40)
        scales = 2.0 ** np.arange(-7, 11)
        rho = np.repeat(scales, q.size)
        r = rho * np.tile(q, scales.size)
        cls = np.tile(np.arange(q.size), scales.size)
        got = _ladder_sums(rho * r, 2.0 * np.sinh(0.5 * np.abs(np.log(q))), cls,
                           d, alpha)
        ref = pair_ladder(rho, r, d, alpha)
        assert np.max(np.abs(got - ref) / ref) <= 1e-14

    @pytest.fixture(scope="class", params=[(2, 0.75), (3, 0.25)])
    def mk512(self, request):
        d, a = request.param
        grid = RadialGrid.log_spaced(1e-2, 1e3, 512, d)
        return build_kernel(grid, ModelParams(d=d, alpha=a, s=0.6),
                            boundary="closed")

    # the far field over the whole offset range: a relative error e in h
    # moves t_w = 2 sinh((j - i) h / 2) by (j - i) h e / 2 relative, 5.7 e
    # at (0, 511), so h must be the lattice's step, not a rounded difference
    @pytest.mark.parametrize("i,j", [(0, 511), (3, 508), (200, 300), (400, 407)])
    def test_far_field_vs_quadrature(self, mk512, i, j):
        ang = functools.partial(massive_ang_quad, rel_tol=2e-14)
        ref = _far_field_reference(mk512, i, j, ang)
        assert abs(entries(mk512)[i, j] - ref) <= 1e-13 * ref

    # rho > 100, where the series' 2F1 next to x = 1 loses digits and the
    # log offset of a point, not r - rho, fixes its ladder
    @pytest.mark.parametrize("i,j", [(420, 421), (450, 454), (505, 503),
                                     (511, 510)])
    def test_near_band_vs_quadrature(self, mk512, i, j):
        assert mk512.grid.nodes[min(i, j)] > 100.0
        ref = _near_band_reference(mk512, i, j, massive_ang_quad)
        assert abs(mk512.sigma[i, j] - ref) <= 1e-12 * ref


class TestRadialSums:
    @pytest.mark.parametrize("selfsimilar", [False, True],
                             ids=["massive", "scale-free"])
    def test_chunk_size_invariance(self, monkeypatch, selfsimilar):
        # 37 divides neither the 16 points of a band cell nor the 273 shared
        # points outside the grid, so the absorb rows and the scale-free row
        # are cut through by chunks; each row is summed only once all its
        # values are in, so the kernel is the same to the bit.  The massive
        # entries (_lattice_sums) take max(1, 37 // L) = 1 pair per chunk,
        # every ladder having L >= 36 points, so for them this compares
        # one-pair chunks with whole ones
        grid = RadialGrid.log_spaced(0.05, 50.0, 48, 2)
        params = ModelParams(d=2, alpha=0.75, s=0.6)
        ref = build_kernel(grid, params, selfsimilar=selfsimilar)
        monkeypatch.setattr(spectral, "_CHUNK_PAIRS", 37)
        got = build_kernel(grid, params, selfsimilar=selfsimilar)
        assert np.array_equal(got.sigma, ref.sigma)
        assert np.array_equal(got.absorb, ref.absorb)


class TestOffGridIntegral:
    """Absorb rates against the continuum integral over the modes outside
    the grid by QUADPACK (oracles.off_grid_quad), with the same angular
    integral: the nodes next to each grid end, whose kernel peaks h/2
    beyond it, and the middle node, far from both."""

    N = 512

    def _check_nodes(self, rho_max, mass, d, alpha):
        grid = RadialGrid.log_spaced(1e-2, rho_max, self.N, d)
        kern = build_kernel(grid, ModelParams(d=d, alpha=alpha, s=0.5),
                            selfsimilar=not mass)

        def ang(rho, r):
            return float(_angular_integral(np.array(rho), np.array(r), d, alpha,
                                           mass))

        for i in (0, 1, self.N // 2, self.N - 2, self.N - 1):
            ref = off_grid_quad(ang, grid.nodes[i], grid.rho_min, grid.rho_max,
                                d, alpha)
            assert abs(kern.absorb[i] - ref) <= 1e-12 * ref, i

    @pytest.mark.parametrize("alpha", [0.25, 0.75])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("mass", [0.0, 1.0], ids=["scale-free", "massive"])
    @pytest.mark.parametrize("rho_max", [1e3, 30.0])
    def test_nodes_vs_quadpack(self, rho_max, mass, d, alpha):
        self._check_nodes(rho_max, mass, d, alpha)

    # the scale-free rates are two 2F1s per node with c - a - b = -2 alpha,
    # at z up to e^-h next to each grid end: alpha = 0.5 is the integer
    # case of the connection formula at z = 1, and alpha -> 0 and 1 the
    # slowest and fastest growth there
    @pytest.mark.parametrize("alpha", [0.02, 0.5, 0.98])
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("rho_max", [1e3, 30.0])
    def test_scale_free_closed_form_vs_quadpack(self, rho_max, d, alpha):
        self._check_nodes(rho_max, 0.0, d, alpha)


class TestStep:
    def test_zero_state_stays_zero(self, small_kernel, small_grid):
        st = SpectrumState(small_grid, np.zeros(small_grid.n), 0.0, P)
        out = step(st, small_kernel, default_dt(small_kernel))
        assert np.all(out.values == 0.0)

    def test_constant_state_equilibrium_closed(self, small_kernel_closed, small_grid):
        c = 0.7
        st = SpectrumState(small_grid, np.full(small_grid.n, c), 0.0, P)
        rate = small_kernel_closed.rate(st.values)
        assert np.abs(rate).max() / c <= 1e-12

    def test_single_bump_spreads(self, small_kernel, small_grid):
        a = np.zeros(small_grid.n)
        a[small_grid.n // 2] = 1.0
        st = SpectrumState(small_grid, a, 0.0, P)
        out = step(st, small_kernel, default_dt(small_kernel))
        thresh = 1e-12 * out.values.max()
        assert (out.values > thresh).sum() > 1

    def test_stability_guard(self, small_kernel, small_grid):
        st = bump_state(small_grid)
        with pytest.raises(StabilityViolation):
            step(st, small_kernel, 10.0 / small_kernel.loss.max())

    def test_mass_conserved_closed(self, small_kernel_closed, small_grid):
        st = bump_state(small_grid)
        m0 = sobolev_norm(st, 0.0)
        dt = default_dt(small_kernel_closed)
        state = st
        for _ in range(50):
            state = step(state, small_kernel_closed, dt)
        drift = abs(sobolev_norm(state, 0.0) - m0) / m0
        assert drift <= 1e-10 * max(1.0, state.time)


class TestRate:
    """The rate of the weight psi = rho^{-2s} against the grid flux summed
    pair by pair (oracles.grid_flux), on absorbing, closed and viscous
    kernels, massive and scale-free."""

    @pytest.mark.parametrize("s", [0.4, 0.75, 0.9])
    @pytest.mark.parametrize("variant", ["absorbing", "closed", "viscous"])
    @pytest.mark.parametrize("selfsimilar", [False, True])
    def test_rate_of_weight_vs_grid_flux(self, small_kernel, ss_kernel,
                                         selfsimilar, variant, s):
        base = ss_kernel if selfsimilar else small_kernel
        grid = base.grid
        kernel = KernelMatrix(
            sigma=base.sigma,
            absorb=np.zeros(grid.n) if variant == "closed" else base.absorb,
            grid=grid, params=P_NU if variant == "viscous" else P,
            selfsimilar=selfsimilar)
        psi = grid.nodes ** (-2.0 * s)
        # round-off scale of each node: the gain and the loss term
        scale = kernel.sigma @ psi / grid.weights + kernel.loss * psi
        err = np.abs(kernel.rate(psi) - grid_flux(kernel, psi))
        assert np.all(err <= 1e-12 * scale)


class TestSobolevNorm:
    def test_mass_is_s_zero(self, small_grid):
        st = bump_state(small_grid)
        assert sobolev_norm(st, 0.0) == pytest.approx(
            float(np.sum(st.values * small_grid.weights)), rel=1e-14)

    def test_monotone_in_s_for_high_support(self):
        grid = RadialGrid.log_spaced(1.5, 100.0, 64, 2)
        a = np.exp(-0.1 * (np.log(grid.nodes) - 1.0) ** 2)
        st = SpectrumState(grid, a, 0.0, P)
        ns = [sobolev_norm(st, s) for s in (0.0, 0.3, 0.6, 0.9)]
        assert all(b < a_ for a_, b in zip(ns, ns[1:]))

    def test_gaussian_closed_form(self):
        # d = 2, s = 1/2: integral of |xi|^{-1} e^{-|xi|^2} = pi Gamma(1/2)
        grid = RadialGrid.log_spaced(3e-8, 30.0, 512, 2)
        st = SpectrumState(grid, np.exp(-grid.nodes ** 2), 0.0, P)
        target = math.pi * math.sqrt(math.pi)
        assert sobolev_norm(st, 0.5) == pytest.approx(target, rel=1e-6)


class TestBalance:
    def test_identity_exact(self, small_kernel, small_grid):
        st = bump_state(small_grid)
        dt = default_dt(small_kernel)
        for k in range(1, 26):
            rep = balance_check(propagate(st, small_kernel, k * dt), small_kernel, P.s)
            assert abs(rep.lhs - rep.rhs) <= 1e-12 * abs(rep.lhs)

    def test_continuum_agreement(self, small_kernel, small_grid):
        st = bump_state(small_grid)
        rep = balance_check(st, small_kernel, P.s)
        cont = continuum_rhs(st, small_kernel)
        assert abs(rep.rhs - cont) <= 0.02 * abs(cont)

    def test_selfsimilar_ratio_near_K(self, ss_kernel, small_grid):
        t = 200 * default_dt(ss_kernel)
        state = propagate(bump_state(small_grid), ss_kernel, t)
        rep = balance_check(state, ss_kernel, P.s)
        Y = sobolev_norm(state, P.s + P.alpha - 1.0)
        K = mellin.k_constant_gamma(P)
        assert -rep.lhs / Y == pytest.approx(K, rel=0.02)


class TestEvolve:
    def test_mass_monotone_absorbing(self, small_kernel, small_grid):
        traj = evolve(bump_state(small_grid), small_kernel, 0.02)
        assert np.all(np.diff(traj.mass) <= 1e-12 * traj.mass[0])

    def test_truncation_warning(self, small_kernel, small_grid):
        st = bump_state(small_grid, center=40.0, width=0.3)
        with pytest.warns(TruncationWarning):
            traj = evolve(st, small_kernel, 0.05)
        assert traj.truncated and traj.truncation_time is not None

    @pytest.mark.parametrize("duration", [0.5, 0.05, 0.0])
    def test_truncated_at_t0_records_t0_alone(self, small_kernel, small_grid,
                                              duration):
        # a bump in the outer nodes is truncated before any step: t0 is the
        # first record over the threshold, so it is the last one
        st = SpectrumState(small_grid, bump_state(small_grid, center=45.0,
                                                  width=0.1).values, 0.5, P)
        with pytest.warns(TruncationWarning, match=r"at t = 0\.5;"):
            traj = evolve(st, small_kernel, st.time + duration)
        assert traj.times.tolist() == [st.time]
        assert traj.truncated and traj.truncation_time == st.time
        assert traj.boundary_fraction.size == 1
        assert traj.boundary_fraction[0] > 0.01
        assert np.array_equal(traj.final_state.values, st.values)

    def test_last_record_at_t_final(self, small_kernel, small_grid):
        # 2.5 steps record at 0, dt, 2 dt and t_final, none past it; 0.07 /
        # 0.01 rounds a hair above 7, which adds no eighth record
        for t_final, n_records in ((0.025, 4), (0.07, 8)):
            traj = evolve(bump_state(small_grid), small_kernel, t_final, dt=0.01)
            assert len(traj.times) == n_records
            assert traj.times[-1] == traj.final_state.time == t_final
            assert np.all(np.diff(traj.times) > 0)
        with pytest.raises(DomainError):
            evolve(bump_state(small_grid), small_kernel, -0.01)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_rejects_nonpositive_dt(self, small_kernel, small_grid, dt):
        with pytest.raises(DomainError):
            evolve(bump_state(small_grid), small_kernel, 0.02, dt=dt)

    def test_zero_duration_records_t0_once(self, small_kernel, small_grid):
        st = bump_state(small_grid)
        traj = evolve(st, small_kernel, st.time, trackers=[0.5])
        assert traj.times.tolist() == [st.time]
        assert traj.mass.size == traj.norms[0.5].size == 1
        assert traj.boundary_fraction.size == 1
        assert traj.final_state.time == st.time
        assert np.array_equal(traj.final_state.values, st.values)


class TestPropagate:
    @pytest.mark.parametrize("kernel_name",
                             ["small_kernel", "small_kernel_closed", "nu_kernel"])
    def test_matches_rk4(self, request, small_grid, kernel_name):
        kernel = request.getfixturevalue(kernel_name)
        st = SpectrumState(small_grid, bump_state(small_grid).values, 0.0,
                           kernel.params)
        ref = st
        dt = default_dt(kernel)
        for _ in range(40):
            ref = step(ref, kernel, dt)
        got = propagate(st, kernel, ref.time)
        assert got.time == ref.time
        assert np.max(np.abs(got.values - ref.values)) <= 1e-10 * ref.values.max()

    def test_rejects_backward_time(self, small_kernel, small_grid):
        with pytest.raises(DomainError):
            propagate(bump_state(small_grid), small_kernel, -1e-3)


class TestDissipationIntegral:
    def test_zero_state(self, ss_kernel, small_grid):
        st = SpectrumState(small_grid, np.zeros(small_grid.n), 0.0, P)
        assert anomalous_dissipation_integral(st, ss_kernel) == 0.0

    def test_closed_scale_free_kernel_diverges(self, ss_kernel, small_grid):
        closed = KernelMatrix(sigma=ss_kernel.sigma, absorb=np.zeros(small_grid.n),
                              grid=small_grid, params=P, selfsimilar=True)
        with pytest.raises(DomainError):
            anomalous_dissipation_integral(bump_state(small_grid), closed)

    def test_linearity_ratio_invariant(self, ss_kernel, small_grid):
        # the integral and the norm it is compared with both scale with a_0
        st = bump_state(small_grid)
        st4 = SpectrumState(small_grid, 4.0 * st.values, 0.0, P)
        i1 = anomalous_dissipation_integral(st, ss_kernel)
        i4 = anomalous_dissipation_integral(st4, ss_kernel)
        r1, r4 = (sobolev_norm(x, 1.0 - P.alpha) for x in (st, st4))
        assert i4 / r4 == pytest.approx(i1 / r1, rel=1e-10)

    @pytest.mark.parametrize("case", ["absorbing", "viscous-closed",
                                      "massive-absorbing"])
    def test_solve_matches_modal_sum(self, ss_kernel, small_kernel, small_grid,
                                     case):
        # int_0^inf mass dt = sum_k (sqrt(w).v_k) (v_k.sqrt(w) a_0) / -lam_k
        kernel = small_kernel if case == "massive-absorbing" else ss_kernel
        if case == "viscous-closed":
            kernel = KernelMatrix(sigma=ss_kernel.sigma, absorb=np.zeros(small_grid.n),
                                  grid=small_grid, params=P_NU, selfsimilar=True)
        st = SpectrumState(small_grid, bump_state(small_grid).values, 0.0,
                           kernel.params)
        lam, vecs = kernel.modes()
        sw = np.sqrt(small_grid.weights)
        modal = float(np.sum((sw @ vecs) * (vecs.T @ (sw * st.values)) / -lam))
        integral = anomalous_dissipation_integral(st, kernel)
        assert integral == pytest.approx(modal, rel=1e-12)

    def test_closed_form_is_trapezoid_plus_remainder(self, ss_kernel, small_grid):
        # dense (geometrically graded) trapezoid of the propagated mass on
        # [0, T], plus the exact remainder int_T^inf mass dt from the modes
        st = bump_state(small_grid)
        T = 1.0
        times = np.concatenate(([0.0], np.geomspace(1e-5, T, 2000)))
        mass = [sobolev_norm(propagate(st, ss_kernel, t), 0.0) for t in times]
        lam, vecs = ss_kernel.modes()
        sw = np.sqrt(small_grid.weights)
        tail = float(np.sum((sw @ vecs) * (vecs.T @ (sw * st.values))
                            * np.exp(lam * T) / -lam))
        integral = anomalous_dissipation_integral(st, ss_kernel)
        assert np.trapezoid(mass, times) + tail == pytest.approx(integral, rel=1e-6)


class TestViscousDrift:
    def test_viscosity_speeds_decay_and_keeps_identity(self, small_grid,
                                                       small_kernel, nu_kernel):
        st = SpectrumState(small_grid, bump_state(small_grid).values, 0.0, P_NU)
        dt = default_dt(nu_kernel)
        for k in range(1, 21):
            state = propagate(st, nu_kernel, k * dt)
            rep = balance_check(state, nu_kernel, P_NU.s)
            assert abs(rep.lhs - rep.rhs) <= 1e-12 * abs(rep.lhs)
        # inviscid twin loses strictly less mass over the same horizon
        state0 = propagate(bump_state(small_grid), small_kernel, state.time)
        assert sobolev_norm(state, 0.0) < sobolev_norm(state0, 0.0)


class TestRegularizationSignature:
    def test_intermediate_norm_integral_stable_under_refinement(self):
        # spectrum with a heavy power tail (finite H^{-s}, cutoff-divergent
        # mass); the time integral of the intermediate norm must be finite
        # and grid-stable
        p = ModelParams(d=2, alpha=0.75, s=0.6)
        eps = 0.1
        results = []
        for n in (96, 192):
            grid = RadialGrid.log_spaced(1e-2, 1e2, n, 2)
            a = np.where(grid.nodes >= 1.0,
                         grid.nodes ** (-p.d + 2.0 * p.s - eps),
                         grid.nodes ** 2)
            st = SpectrumState(grid, a, 0.0, p)
            kern = build_kernel(grid, p, boundary="absorbing")
            # a left Riemann sum at whole steps of the default dt; evolve
            # would stop at t = 0, where the outer nodes hold 41% of the mass
            dt = default_dt(kern)
            n_steps = max(2, int(round(0.02 / dt)))
            total = dt * sum(sobolev_norm(propagate(st, kern, k * dt),
                                          p.s + p.alpha - 1.0)
                             for k in range(1, n_steps + 1))
            assert math.isfinite(total) and total > 0.0
            results.append(total)
        assert abs(results[1] - results[0]) <= 0.1 * abs(results[0])
