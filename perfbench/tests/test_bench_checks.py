"""Each independent check accepts the program's output and rejects a
slightly perturbed one."""

import numpy as np
import pytest

from kraichnan_lab import mc_spde, mellin, spectral
from kraichnan_lab.specfun import ModelParams

import reference as ref
import workloads as wl


def test_k_routes_reject_K_off_by_1e5():
    k = ref.k_closed_form(2, 0.55, 0.7)
    params = ModelParams(d=2, alpha=0.55, s=0.7)
    routes = {"gamma": mellin.k_constant_gamma(params),
              "integral": mellin.k_constant_integral(params), "appendix": k}
    assert wl.check_k_routes(routes, k, True)["passed"]
    # the appendix route is held to 1e-4, the others tighter
    for route, off in (("gamma", 1e-5), ("integral", 1e-5), ("appendix", 2e-4)):
        bad = dict(routes, **{route: routes[route] * (1.0 + off)})
        assert not wl.check_k_routes(bad, k, True)["passed"], route
    assert not wl.check_k_routes({"gamma": k, "integral": k}, k, True)["passed"]


def test_radial_checks_reject_perturbed_results():
    k = ref.k_closed_form(2, 0.5, 0.7)
    assert wl.check_selfsimilar_ratios([k * 1.01] * 10, k)["passed"]
    assert not wl.check_selfsimilar_ratios([k * 1.01] * 9 + [k * 1.03], k)["passed"]
    reference = (ref.log_bump_norm(2, 0.5, wl.BUMP_CENTER, wl.BUMP_WIDTH)
                 / ref.k_closed_form(2, 0.5, 0.5))
    assert wl.check_dissipation_integral(reference * 1.05, 2, 0.5)["passed"]
    assert not wl.check_dissipation_integral(reference * 1.15, 2, 0.5)["passed"]


def test_residual_slope_rejects_wrong_leading_term():
    d, a, s = 2, 0.5, 0.75
    k = ref.k_closed_form(d, a, s)
    xi = np.geomspace(1.0, 1e3, 16)
    leading = -k * xi ** (2 - 2 * a - 2 * s)
    flux = leading + 0.3 * xi ** (-2 * s)
    assert wl.check_residual_slope(xi, flux, d, a, s)["passed"]
    # a leading coefficient off by 1% leaves a residual growing like |xi|
    assert not wl.check_residual_slope(xi, flux + 1e-2 * leading, d, a, s)["passed"]


@pytest.fixture(scope="module")
def kernels():
    params = ModelParams(d=2, alpha=0.5, s=0.7)
    grid = spectral.RadialGrid.log_spaced(1e-2, 1e2, 24, 2)
    scaled = spectral.RadialGrid.log_spaced(2e-2, 2e2, 24, 2)
    return {"massive": spectral.build_kernel(grid, params),
            "scalefree": spectral.build_kernel(grid, params, selfsimilar=True),
            "scaled": spectral.build_kernel(scaled, params, selfsimilar=True),
            "closed": spectral.build_kernel(grid, params, boundary="closed")}


def test_kernel_checks_reject_one_scaled_entry(kernels):
    k = kernels["massive"]
    g = k.grid
    pairs = [(1, 12), (3, 23)]
    assert wl.check_kernel_structure("m", k.sigma)["passed"]
    assert wl.check_far_field("m", k.sigma, g.nodes, g.log_step, pairs, 2, 0.5,
                              False)["passed"]
    bad = k.sigma.copy()
    bad[1, 12] *= 1.0 + 1e-9
    assert not wl.check_kernel_structure("m", bad)["passed"]
    bad[12, 1] = bad[1, 12]
    assert wl.check_kernel_structure("m", bad)["passed"]
    assert not wl.check_far_field("m", bad, g.nodes, g.log_step, pairs, 2, 0.5,
                                  False)["passed"]


def test_scaling_conservation_and_balance_checks(kernels):
    a = np.exp(-np.log(kernels["massive"].grid.nodes) ** 2)
    rates = kernels["scalefree"].rate(a)
    scaled = kernels["scaled"].rate(a)
    assert wl.check_scaled_rates(rates, scaled, 2.0, 0.5)["passed"]
    bumped = scaled.copy()
    bumped[5] += 1e-9 * np.abs(scaled).max()
    assert not wl.check_scaled_rates(rates, bumped, 2.0, 0.5)["passed"]

    closed = kernels["closed"]
    w = closed.grid.weights
    assert wl.check_conservation(closed.sigma, w, a, closed.rate(a))["passed"]
    assert not wl.check_conservation(closed.sigma, w, a,
                                      kernels["massive"].rate(a))["passed"]

    state = spectral.SpectrumState(closed.grid, a, 0.0, closed.params)
    report = spectral.balance_check(state, closed, 0.7)
    assert wl.check_balance("c", report, closed.sigma, closed.grid.nodes, a,
                            0.7)["passed"]
    report.rhs *= 1.0 + 1e-9
    assert not wl.check_balance("c", report, closed.sigma, closed.grid.nodes, a,
                                0.7)["passed"]


def test_lattice_checks_reject_one_shifted_rate():
    noise = mc_spde.build_noise_modes(
        mc_spde.LatticeConfig(n_max=4, alpha=0.5, dt=1e-3, n_samples=1))
    rng = np.random.default_rng(3)
    spectrum = {(x, y): float(rng.random()) for x in range(-4, 5) for y in range(-4, 5)}
    for x in range(1, 5):   # reality: a(-k) = a(k)
        for y in range(-4, 5):
            spectrum[(-x, -y)] = spectrum[(x, y)]
    for y in range(1, 5):
        spectrum[(0, -y)] = spectrum[(0, y)]
    program = mc_spde.lattice_master_rate(noise, spectrum)
    direct = ref.lattice_rates(4, 0.5, spectrum)
    assert wl.check_rate_agreement(direct, program)["passed"]
    shifted = dict(program)
    shifted[(2, -1)] += 1e-9 * max(abs(v) for v in direct.values())
    assert not wl.check_rate_agreement(direct, shifted)["passed"]

    modes = list(direct)
    emp = np.array([direct[m] for m in modes])
    se = np.full(len(modes), 1e-3)
    assert wl.check_rates_within_3_sigma(modes, emp, se, direct)["passed"]
    emp[: len(modes) // 10] += 1.0
    assert not wl.check_rates_within_3_sigma(modes, emp, se, direct)["passed"]


def test_csv_float_reads_numpy_scalar_repr():
    assert wl._csv_float("np.float64(0.25)") == 0.25
    assert wl._csv_float("0.5") == 0.5
