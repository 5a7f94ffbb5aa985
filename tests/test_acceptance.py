"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  Tolerances are fixed here, not calibrated at run time.
"""

import math

import numpy as np
import pytest

from kraichnan_lab import flux, mc_spde, mellin, quad, spectral
from kraichnan_lab.specfun import ModelParams, gamma_fn
from oracles import (continuum_rhs, em_second_moments, f_inner_quad, mode_dict,
                     parseval_contour)

K_GRID = [(d, a, f * d / 2.0) for d in (2, 3) for a in (0.25, 0.5, 0.75)
          for f in (0.2, 0.5, 0.8)]

REF = ModelParams(d=2, alpha=0.5, s=0.75)


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ref_grid():
    return spectral.RadialGrid.log_spaced(1e-2, 1e3, 512, 2)


@pytest.fixture(scope="module")
def ref_kernel(ref_grid):
    return spectral.build_kernel(ref_grid, REF, selfsimilar=False)


@pytest.fixture(scope="module")
def ss_kernel(ref_grid):
    return spectral.build_kernel(ref_grid, REF, selfsimilar=True)


def log_bump(grid, params, center=1.0, width=0.5):
    a = np.exp(-0.5 * ((np.log(grid.nodes) - math.log(center)) / width) ** 2)
    return spectral.SpectrumState(grid=grid, values=a, time=0.0, params=params)


def test_c01_three_way_k_cross_validation():
    worst_int, worst_app = 0.0, 0.0
    n_app = 0
    for d, a, s in K_GRID:
        p = ModelParams(d=d, alpha=a, s=s)
        kg = mellin.k_constant_gamma(p)
        ki = mellin.k_constant_integral(p)
        worst_int = max(worst_int, abs(ki - kg) / kg)
        if s + a > 1.0:
            ka = mellin.k_constant_appendix(p)
            worst_app = max(worst_app, abs(ka - kg) / kg)
            n_app += 1
    ok = worst_int <= 1e-6 and worst_app <= 1e-4 and n_app > 0
    report(1, ok, f"K gamma-vs-integral worst rel {worst_int:.2e} (<=1e-6), "
                  f"gamma-vs-appendix worst rel {worst_app:.2e} (<=1e-4, "
                  f"{n_app} points)")


def test_c02_parseval_vs_direct_quadrature():
    points = [ModelParams(2, 0.5, 0.5), ModelParams(2, 0.75, 0.3),
              ModelParams(3, 0.25, 1.0), ModelParams(3, 0.75, 1.2)]
    worst = 0.0
    for p in points:
        line = p.d - p.s
        for lam in (2.0, 5.0, 20.0, 50.0):
            pc = parseval_contour(lam, p, line)
            jd = quad.J_direct(lam, p, rel_tol=1e-10)
            worst = max(worst, abs(pc - jd) / abs(jd))
    report(2, worst <= 1e-6,
           f"contour vs direct J, worst rel {worst:.2e} (<= 1e-6)")


def test_c03_closed_form_vs_double_integral():
    from kraichnan_lab.quad import quadpack
    cases = [(2, 0.5, 0.2), (2, 0.5, 0.4), (2, 0.8, 0.3), (2, 0.8, 0.6),
             (2, 0.95, 0.5), (3, 0.6, 0.25), (3, 0.9, 0.45), (3, 1.2, 0.5),
             (3, 1.2, 0.9), (3, 1.4, 0.7)]
    worst = 0.0
    for d, s, w in cases:
        p = ModelParams(d=d, alpha=0.5, s=s)
        closed = mellin.f_product(p)(float(d) - w).real

        def body(t):
            return t ** (w - d) * f_inner_quad(t, p, 1e-12)
        v1, _, _ = quadpack(body, 0.0, 2.0, points=[1.0], rel_tol=1e-11)
        v2, _, _ = quadpack(body, 2.0, math.inf, abs_tol=abs(v1) * 1e-12,
                            rel_tol=1e-11)
        worst = max(worst, abs(closed - (v1 + v2)) / abs(closed))
    report(3, worst <= 1e-8,
           f"closed-form angular Mellin transform vs nested quadrature at 10 "
           f"(d,s,w) points, worst rel {worst:.2e} (<= 1e-8)")


def _residual_slope_and_dual(p):
    xi = np.geomspace(1.0, 1e3, 40)
    _, residuals, _ = flux.asymptotic_residual_table(p, list(xi))
    rs = np.array(residuals)
    sel = (xi >= 10.0) & (rs > 0)
    slope = float(np.polyfit(np.log(xi[sel]), np.log(rs[sel]), 1)[0])
    dual = 0.0
    for x in (20.0, 35.0, 50.0):
        fq = flux.flux_F(x, p, method="quadrature", rel_tol=1e-11)
        fm = flux.flux_F(x, p, method="mellin")
        dual = max(dual, abs(fq - fm) / abs(fq))
    return residuals, slope, dual


def test_c04_asymptotic_bound():
    worst_slope, worst_dual = -math.inf, 0.0
    for d, a, s in K_GRID:
        p = ModelParams(d=d, alpha=a, s=s)
        _, slope, dual = _residual_slope_and_dual(p)
        worst_slope = max(worst_slope, slope)
        worst_dual = max(worst_dual, dual)
    ok = worst_slope <= 0.1 and worst_dual <= 1e-5
    report(4, ok, f"residual log-log slope worst {worst_slope:+.3f} (<= 0.1), "
                  f"dual-path worst rel {worst_dual:.2e} (<= 1e-5)")


def test_c05_discrete_balance_identity(ref_grid, ref_kernel):
    state = log_bump(ref_grid, REF)
    rep0 = spectral.balance_check(state, ref_kernel, REF.s)
    cont = continuum_rhs(state, ref_kernel)
    cont_rel = abs(rep0.rhs - cont) / abs(cont)
    dt = spectral.default_dt(ref_kernel)
    worst_id = 0.0
    for _ in range(40):
        state = spectral.step(state, ref_kernel, dt)
        rep = spectral.balance_check(state, ref_kernel, REF.s)
        worst_id = max(worst_id, abs(rep.lhs - rep.rhs)
                       / max(abs(rep.lhs), abs(rep.rhs)))
    ok = worst_id <= 1e-12 and cont_rel <= 0.02
    report(5, ok, f"lhs=rhs worst rel {worst_id:.2e} (<= 1e-12) along the "
                  f"trajectory; continuum-flux agreement {cont_rel:.3%} (<= 2%)")


def test_c06_gronwall_bound():
    p = REF
    grid = spectral.RadialGrid.log_spaced(1e-2, 30.0, 512, 2)
    kern = spectral.build_kernel(grid, p, selfsimilar=False)
    state = spectral.SpectrumState(grid, np.exp(-grid.nodes ** 2), 0.0, p)
    K = mellin.k_constant_gamma(p)
    residuals, _, _ = _residual_slope_and_dual(p)
    C = max(residuals)
    traj = spectral.evolve(state, kern, 1.0,
                           trackers=(p.s, p.s + p.alpha - 1.0))
    X = traj.norms[p.s]
    Y = traj.norms[p.s + p.alpha - 1.0]
    lhs = float(X.max()) + K * float(np.trapezoid(Y, traj.times))
    rhs = 2.0 * math.exp(C * 1.0) * X[0]
    ok = lhs <= rhs
    report(6, ok, f"sup norm + K int = {lhs:.6g} <= 2 e^(CT) X0 = {rhs:.6g} "
                  f"(K={K:.4g}, C={C:.4g})")


def test_c07_selfsimilar_exact_balance(ref_grid, ss_kernel):
    p = REF
    K = mellin.k_constant_gamma(p)
    dt = spectral.default_dt(ss_kernel)
    initial = log_bump(ref_grid, p)
    n_steps = int(round(1.1 / dt))
    sample_at = {int(round(n_steps * (i + 1.5) / 11.5)) for i in range(10)}
    t_mark = int(round(0.3 / dt))
    sample_at.add(t_mark)
    worst = 0.0
    ratio_512_at_03 = None
    for k in sorted(sample_at):
        state = spectral.propagate(initial, ss_kernel, k * dt)
        rep = spectral.balance_check(state, ss_kernel, p.s)
        Y = spectral.sobolev_norm(state, p.s + p.alpha - 1.0)
        ratio = -rep.lhs / Y
        worst = max(worst, abs(ratio - K) / K)
        if k == t_mark:
            ratio_512_at_03 = ratio
    # one grid-refinement doubling
    grid2 = spectral.RadialGrid.log_spaced(1e-2, 1e3, 1024, 2)
    kern2 = spectral.build_kernel(grid2, p, selfsimilar=True)
    dt2 = spectral.default_dt(kern2)
    n2 = int(round(0.3 / dt2))
    state2 = spectral.propagate(log_bump(grid2, p), kern2, n2 * dt2)
    rep2 = spectral.balance_check(state2, kern2, p.s)
    ratio_1024 = -rep2.lhs / spectral.sobolev_norm(state2, p.s + p.alpha - 1.0)
    refine_change = abs(ratio_1024 - ratio_512_at_03) / ratio_512_at_03
    ok = worst <= 0.02 and refine_change <= 0.01
    report(7, ok, f"-(d/dt X)/Y vs K worst rel {worst:.2e} (<= 2e-2) at 10 "
                  f"mid-trajectory times; refinement change {refine_change:.2e}"
                  f" (<= 1e-2)")


def test_c08_anomalous_dissipation_integral(ref_grid, ss_kernel):
    state = log_bump(ref_grid, REF, center=4.0)
    integral = spectral.anomalous_dissipation_integral(state, ss_kernel)
    a = REF.alpha
    k_ref = mellin.k_constant_gamma(ModelParams(d=REF.d, alpha=a, s=1.0 - a))
    ratio = integral / (spectral.sobolev_norm(state, 1.0 - a) / k_ref)
    ok = 0.9 <= ratio <= 1.1
    report(8, ok, f"time-integrated mass / (||a0||_(alpha-1) / K) = "
                  f"{ratio:.4f} (in [0.9, 1.1])")


def test_c09_monte_carlo_lattice_master_equation():
    # default dt = 0.1 / max per-mode corrector; records every
    # MC_RECORD_STRIDE steps, the precondition of mc_spde.rate_agreement
    probe = mc_spde.build_noise_modes(
        mc_spde.LatticeConfig(n_max=16, alpha=0.5, dt=1.0, n_samples=1))
    c_max = float(probe.corrector_grid.max())
    dt = 0.1 / c_max
    n_steps, stride = 160, mc_spde.MC_RECORD_STRIDE
    T = n_steps * dt
    records = [k * stride * dt for k in range(n_steps // stride + 1)]

    cfg = mc_spde.LatticeConfig(n_max=16, alpha=0.5, dt=dt, n_samples=2000,
                                seed=99)
    noise = mc_spde.build_noise_modes(cfg)
    modes = {(kx, ky): 1.0 / (1.0 + kx * kx + ky * ky)
             for kx in range(-2, 3) for ky in range(-2, 3) if (kx, ky) != (0, 0)}
    initial = mc_spde.FieldSample.from_modes(noise, modes)
    stats = mc_spde.run_ensemble(cfg, initial, T, record_times=records)

    # (a) the measured per-mode rates over the last record interval
    frac = mc_spde.rate_agreement(noise, stats)

    # (b) the measured L2 at T against the scheme's exact mean: the
    # Euler-Maruyama mean power spectrum closes on itself, weak bias included
    a0 = {k: abs(v) ** 2 for k, v in mode_dict(initial).items()}

    def l2(spectrum):
        # a kx > 0 mode stands for its reality partner as well
        return sum((1.0 if kx == 0 else 2.0) * v
                   for (kx, _), v in spectrum.items() if kx >= 0)

    def em_records(dt_run):
        # the scheme's exact mean spectra at the record times
        per_record = round(stride * dt / dt_run)
        steps = em_second_moments(noise, a0, dt_run, n_steps * per_record // stride)
        return [a0] + steps[per_record - 1::per_record]

    exact = em_records(dt)
    z = (stats[-1].l2_mean - l2(exact[-1])) / stats[-1].l2_std_err

    # (c) the truncated model loses L2 through the absorbing band edge at the
    # master-equation rate; what the scheme loses beyond that rate,
    # integrated over the records, is its weak bias, which is O(dt) and so
    # halves with dt.  Taken on the exact means, the ratio has no sampling
    # error.
    def l2_residual(spectra):
        drifts = [l2(mc_spde.lattice_master_rate(noise, a)) for a in spectra]
        return l2(spectra[-1]) - l2(spectra[0]) - np.trapezoid(drifts, records)

    r1, r2 = l2_residual(exact), l2_residual(em_records(dt / 2.0))
    ok = frac >= 0.95 and abs(z) <= 3.0 and 1.9 <= r1 / r2 <= 2.1
    report(9, ok, f"master-equation rate match {frac:.1%} of modes within "
                  f"3 sigma (>= 95%); L2(T) {stats[-1].l2_mean:.6f} vs exact "
                  f"EM mean {l2(exact[-1]):.6f}, z = {z:+.2f} (|z| <= 3); "
                  f"L2 residual {r1:.3e} at dt, {r2:.3e} at dt/2, ratio "
                  f"{r1 / r2:.3f} (in [1.9, 2.1])")


def test_c10_special_function_identity_suite():
    worst = 0.0
    # reflection / duplication / functional equation on a deterministic grid
    for x in np.linspace(0.05, 0.95, 7):
        for y in np.linspace(-40.0, 40.0, 9):
            z = complex(x, y)
            refl = gamma_fn(z) * gamma_fn(1.0 - z) * np.sin(math.pi * z)
            worst = max(worst, abs(refl - math.pi) / math.pi)
            dup = gamma_fn(z) * gamma_fn(z + 0.5)
            ref = math.sqrt(math.pi) * 2.0 ** (1.0 - 2.0 * z) * gamma_fn(2.0 * z)
            worst = max(worst, abs(dup - ref) / abs(ref))
            worst = max(worst, abs(z * gamma_fn(z) - gamma_fn(z + 1.0))
                        / abs(gamma_fn(z + 1.0)))

    def numeric_residue(expr, pole, radius=0.2, n_nodes=64):
        # contour integral on a small circle: exponentially accurate since
        # the nearest other pole is at distance >= 0.5 in all cases below
        theta = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
        ring = np.exp(1j * theta)
        vals = expr(pole + radius * ring)
        return float((radius * np.mean(vals * ring)).real)

    res_worst = 0.0
    for d, a, s in ((2, 0.5, 0.5), (3, 0.25, 1.0), (2, 0.75, 0.3)):
        p = ModelParams(d=d, alpha=a, s=s)
        hp, fp = mellin.h_product(p), mellin.f_product(p)
        # residue of M[h] at z = d + 2 alpha is exactly -1
        exact = mellin.residue_at(hp, d + 2.0 * a).coefficient
        res_worst = max(res_worst, abs(exact - 1.0))
        res_worst = max(res_worst, abs(numeric_residue(hp, d + 2.0 * a) + 1.0))
        # z = d: -sqrt(pi) G((d+1)/2)/G((d+2)/2)
        target_d = -math.sqrt(math.pi) * gamma_fn((d + 1.0) / 2.0).real \
            / gamma_fn((d + 2.0) / 2.0).real
        exact_d = -mellin.residue_at(fp, float(d)).coefficient
        res_worst = max(res_worst, abs(exact_d - target_d) / abs(target_d))
        res_worst = max(res_worst,
                        abs(numeric_residue(fp, float(d)) - target_d)
                        / abs(target_d))
        # z = d + 2: sqrt(pi) s (d-2s) G((d+1)/2) / (2 G((d+4)/2)); this is
        # the value the meromorphic continuation actually has (it also fixes
        # the lambda^{-(d+2)} remainder scaling checked in criterion 4)
        target_d2 = (math.sqrt(math.pi) * s * (d - 2.0 * s)
                     * gamma_fn((d + 1.0) / 2.0).real
                     / (2.0 * gamma_fn((d + 4.0) / 2.0).real))
        exact_d2 = -mellin.residue_at(fp, float(d + 2)).coefficient
        res_worst = max(res_worst, abs(exact_d2 - target_d2) / abs(target_d2))
        res_worst = max(res_worst,
                        abs(numeric_residue(fp, float(d + 2)) - target_d2)
                        / abs(target_d2))
    ok = worst <= 1e-10 and res_worst <= 1e-10
    report(10, ok, f"Gamma identities worst rel {worst:.2e} (<= 1e-10); "
                   f"residues worst rel {res_worst:.2e} (<= 1e-10)")
