"""Lattice SPDE: noise construction, one-step algebra, ensemble machinery."""

import math

import numpy as np
import pytest

from kraichnan_lab import flux, mc_spde
from kraichnan_lab.errors import DomainError, InvalidSampleRate
from kraichnan_lab.mc_spde import (LATTICE_D, FieldSample, LatticeConfig,
                                   build_noise_modes, lattice_master_rate,
                                   run_ensemble)
from kraichnan_lab.specfun import ModelParams
from oracles import (amplitude, em_second_moments, em_step, mode_dict,
                     sobolev_estimate)

CFG4 = LatticeConfig(n_max=4, alpha=0.5, dt=1e-3, n_samples=64, seed=11)


@pytest.fixture(scope="module")
def noise4():
    return build_noise_modes(CFG4)


class TestNoiseModes:
    def test_polarizations_orthogonal(self, noise4):
        k = noise4.k_half.astype(float)
        # the direction (-ky, kx) is orthogonal exactly in floating point
        raw = k[:, 0] * (-k[:, 1]) + k[:, 1] * k[:, 0]
        assert np.abs(raw).max() == 0.0
        # the stored unit vector differs only by the normalizing scalar
        dots = np.einsum("mi,mi->m", k, noise4.e_pol)
        kn = np.linalg.norm(k, axis=1)
        assert np.abs(dots / kn).max() < 1e-15
        norms = np.linalg.norm(noise4.e_pol, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-14

    def test_sigma_monotone_in_k(self, noise4):
        k2 = (noise4.k_half ** 2).sum(axis=1)
        order = np.argsort(k2)
        assert np.all(np.diff(noise4.sigma[order]) <= 1e-15)

    def test_half_lattice_count(self, noise4):
        n = CFG4.n_max
        assert noise4.n_half == ((2 * n + 1) ** 2 - 1) // 2

    def test_corrector_isotropy_at_32(self):
        cfg = LatticeConfig(n_max=32, alpha=0.5, dt=1e-3, n_samples=1)
        cov = build_noise_modes(cfg).covariance_matrix
        mean = 0.5 * (cov[0, 0] + cov[1, 1])
        aniso = max(abs(cov[0, 0] - mean), abs(cov[1, 1] - mean),
                    abs(cov[0, 1])) / mean
        assert aniso < 0.02

    def test_config_validation(self):
        with pytest.raises(DomainError):
            LatticeConfig(n_max=2, alpha=0.5, dt=1e-3, n_samples=8)
        with pytest.raises(DomainError):
            LatticeConfig(n_max=8, alpha=0.5, dt=-1.0, n_samples=8)


class TestFieldSample:
    def test_amplitude_roundtrip(self, noise4):
        fs = FieldSample.from_modes(noise4, {(1, 2): 0.3 + 0.4j, (0, 1): 1.0 - 2.0j})
        assert amplitude(fs, (1, 2)) == pytest.approx(0.3 + 0.4j)
        assert amplitude(fs, (-1, -2)) == pytest.approx(0.3 - 0.4j)
        assert amplitude(fs, (0, -1)) == pytest.approx(1.0 + 2.0j)

    def test_reality_exact(self, noise4):
        rng = np.random.default_rng(3)
        fs = FieldSample.from_modes(noise4, {(1, 1): 0.5 + 0.2j, (0, 2): 1.0j})
        out = em_step(fs, noise4, CFG4.dt, rng=rng)
        d = mode_dict(out)
        worst = max(abs(d[(kx, ky)] - d[(-kx, -ky)].conjugate())
                    for kx in range(-4, 5) for ky in range(-4, 5))
        assert worst == 0.0

    def test_outside_lattice_rejected(self, noise4):
        with pytest.raises(DomainError):
            FieldSample.from_modes(noise4, {(9, 0): 1.0})

    @pytest.mark.parametrize("k", [(-2, 3), (-4, -4), (0, -3), (0, 3), (2, 0)])
    def test_mode_and_partner_on_the_band(self, noise4, k):
        # spec[ky + n, kx] holds kx >= 0; a kx < 0 mode, or a (0, ky < 0)
        # one, lands on its partner (-kx, -ky) as the conjugate, unhalved
        n = CFG4.n_max
        val = 0.3 - 1.7j
        fs = FieldSample.from_modes(noise4, {k: val})
        kx, ky = k
        stored = {(kx, ky): val, (-kx, -ky): np.conj(val)}
        expect = np.zeros((2 * n + 1, n + 1), dtype=complex)
        for (qx, qy), v in stored.items():
            if qx >= 0:
                expect[qy + n, qx] = v
        assert np.array_equal(fs.spec, expect)
        assert amplitude(fs, k) == val
        assert amplitude(fs, (-kx, -ky)) == np.conj(val)

    def test_zero_column_hermitian_and_origin_real(self, noise4):
        rng = np.random.default_rng(4)
        n = CFG4.n_max
        modes = {(kx, ky): complex(*rng.normal(size=2))
                 for kx in range(-n, n + 1) for ky in range(-n, n + 1)}
        col = FieldSample.from_modes(noise4, modes).spec[:, 0]
        assert np.array_equal(col, np.conj(col[::-1]))
        assert col[n].imag == 0.0
        origin = FieldSample.from_modes(noise4, {(0, 0): 2.0 + 5.0j})
        assert amplitude(origin, (0, 0)) == 2.0


def _direct_step(noise, amps, dbeta, dt, xi):
    """rho'(xi) = rho(xi) - i sum_k sigma_k (e_k.xi)[rho(xi-k) dB_k
    + rho(xi+k) conj dB_k] - (c_xi/2) rho(xi) dt, sources in the band."""
    n = noise.cfg.n_max
    qx, qy = xi
    acc = 0.0 + 0.0j
    for (kv, sig, e, db) in zip(noise.k_half, noise.sigma, noise.e_pol, dbeta):
        edotxi = e[0] * qx + e[1] * qy
        for sgn, inc in ((+1, db), (-1, np.conj(db))):
            src = (qx - sgn * kv[0], qy - sgn * kv[1])
            if max(abs(src[0]), abs(src[1])) <= n:
                acc += sig * edotxi * inc * amps[src]
    cov = noise.covariance_matrix
    c_xi = cov[0, 0] * qx ** 2 + 2 * cov[0, 1] * qx * qy + cov[1, 1] * qy ** 2
    return amps[xi] - 1j * acc - 0.5 * c_xi * dt * amps[xi]


class TestEmStep:
    def test_zero_stays_zero(self, noise4):
        fs = FieldSample.zeros(noise4)
        out = em_step(fs, noise4, CFG4.dt, rng=np.random.default_rng(0))
        assert np.all(out.spec == 0.0)

    def test_fft_convolution_matches_direct_sum(self, noise4):
        """The padded-FFT product equals the exact convolution
        rho'(xi) = rho(xi) - i sum_k sigma_k (e_k.xi)[rho(xi-k) dB_k
                   + rho(xi+k) conj dB_k] - (c_xi/2) rho(xi) dt."""
        rng = np.random.default_rng(5)
        modes = {}
        for kx in range(-2, 3):
            for ky in range(-2, 3):
                if (kx, ky) != (0, 0):
                    z = complex(*rng.normal(size=2))
                    modes[(kx, ky)] = z
        fs = FieldSample.from_modes(noise4, modes)
        amps = mode_dict(fs)
        z = rng.standard_normal((noise4.n_half, 2))
        dbeta = math.sqrt(CFG4.dt / 2.0) * (z[:, 0] + 1j * z[:, 1])
        out = em_step(fs, noise4, CFG4.dt, dbeta=dbeta)

        for xi in [(0, 1), (2, -1), (-3, 2), (4, 4), (1, 0)]:
            expect = _direct_step(noise4, amps, dbeta, CFG4.dt, xi)
            assert amplitude(out, xi) == pytest.approx(expect, abs=1e-12)

    def test_band_edge_products_alias_free_at_n16(self):
        """The same direct sum at production size (n_max = 16 on the N = 50
        grid), for a batch of three samples whose inputs fill the band edge
        |k|_inf = 16, where a grid smaller than 3 n_max + 1 would alias."""
        cfg = LatticeConfig(n_max=16, alpha=0.5, dt=1e-3, n_samples=3, seed=1)
        noise = build_noise_modes(cfg)
        n = cfg.n_max
        stepper = mc_spde._BandStepper(noise)
        assert stepper.grid_size == 50
        rng = np.random.default_rng(21)
        edge = [(kx, ky) for kx in range(-n, n + 1) for ky in range(-n, n + 1)
                if max(abs(kx), abs(ky)) == n and (kx > 0 or (kx == 0 and ky > 0))]
        samples = []
        for _ in range(3):
            picks = edge + [tuple(rng.integers(-n + 1, n, size=2)) for _ in range(8)]
            samples.append(FieldSample.from_modes(
                noise, {k: complex(*rng.normal(size=2)) for k in picks}))
        band = np.stack([fs.spec for fs in samples], axis=1)
        z = rng.standard_normal((3, noise.n_half, 2))
        dbeta = math.sqrt(cfg.dt / 2.0) * (z[..., 0] + 1j * z[..., 1])
        stepper.step(band, cfg.dt, dbeta)

        outputs = [(16, 0), (16, -16), (16, 16), (0, 16), (-16, 5), (3, -16),
                   (15, 15), (0, 1), (1, 0), (-7, 9)]
        for i, fs in enumerate(samples):
            out = FieldSample(spec=band[:, i, :])
            amps = mode_dict(fs)
            for xi in outputs:
                expect = _direct_step(noise, amps, dbeta[i], cfg.dt, xi)
                assert amplitude(out, xi) == pytest.approx(expect, abs=1e-12)

    def test_single_mode_one_step_loss(self, noise4):
        # the origin mode of the bump has no gain partners, so its one-step
        # power is deterministic: (1 - c dt / 2)^2
        k0 = (2, 1)
        fs = FieldSample.from_modes(noise4, {k0: 1.0})
        cov = noise4.covariance_matrix
        c = (cov[0, 0] * k0[0] ** 2 + 2 * cov[0, 1] * k0[0] * k0[1]
             + cov[1, 1] * k0[1] ** 2)
        rng = np.random.default_rng(17)
        out = em_step(fs, noise4, CFG4.dt, rng=rng)
        got = abs(amplitude(out, k0)) ** 2
        assert got == pytest.approx((1.0 - 0.5 * c * CFG4.dt) ** 2, rel=1e-12)

    def test_single_mode_neighbor_gain_expectation(self, noise4):
        # E|rho'(k0 + k)|^2 = sigma_k^2 (e_k . (k0+k))^2 dt within 3 SE
        k0 = (2, 1)
        target_mode = (3, 1)  # gain through the noise mode k = (1, 0)
        cfg = LatticeConfig(n_max=4, alpha=0.5, dt=1e-3, n_samples=20000, seed=5)
        noise = build_noise_modes(cfg)
        fs = FieldSample.from_modes(noise, {k0: 1.0})
        stats = run_ensemble(cfg, fs, cfg.dt, record_times=[cfg.dt])[0]
        idx = [i for i, m in enumerate(map(tuple, stats.modes))
               if m == target_mode][0]
        got = stats.mean_spectrum[idx]
        se = stats.std_err[idx]
        kvec = np.array([1.0, 0.0])
        e = np.array([0.0, 1.0])
        sig2 = (1.0 + 1.0) ** (-(LATTICE_D / 2.0 + cfg.alpha))
        xi = np.array(target_mode, dtype=float)
        # both +k and -k transfer routes start from k0 with |amp|^2 = 1
        expect = sig2 * (e @ xi) ** 2 * cfg.dt
        assert abs(got - expect) <= 3.0 * se + 0.05 * expect


class TestRunEnsemble:
    def test_deterministic(self, noise4):
        fs = FieldSample.from_modes(noise4, {(1, 0): 1.0, (0, 2): 0.5j})
        a = run_ensemble(CFG4, fs, 5e-3, record_times=[0.0, 5e-3])
        b = run_ensemble(CFG4, fs, 5e-3, record_times=[0.0, 5e-3])
        assert np.array_equal(a[-1].mean_spectrum, b[-1].mean_spectrum)
        assert np.array_equal(a[-1].std_err, b[-1].std_err)

    def test_stderr_scaling(self):
        fs_modes = {(1, 0): 1.0, (1, 1): 0.5, (0, 1): 0.3j}
        errs = []
        ns = (250, 1000, 4000)
        for n in ns:
            cfg = LatticeConfig(n_max=4, alpha=0.5, dt=1e-3, n_samples=n, seed=2)
            noise = build_noise_modes(cfg)
            fs = FieldSample.from_modes(noise, fs_modes)
            st = run_ensemble(cfg, fs, 5e-3, record_times=[5e-3])[0]
            errs.append(float(np.linalg.norm(st.std_err)))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert abs(slope + 0.5) < 0.1

    def test_l2_linearity(self, noise4):
        fs1 = FieldSample.from_modes(noise4, {(1, 0): 1.0, (2, 1): 0.5})
        fs2 = FieldSample.from_modes(noise4, {(1, 0): 2.0, (2, 1): 1.0})
        s1 = run_ensemble(CFG4, fs1, 2e-3, record_times=[2e-3])[0]
        s2 = run_ensemble(CFG4, fs2, 2e-3, record_times=[2e-3])[0]
        v1, _ = sobolev_estimate(s1, 0.5)
        v2, _ = sobolev_estimate(s2, 0.5)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)

    def test_sample_for_another_lattice_rejected(self, noise4):
        other = build_noise_modes(LatticeConfig(n_max=6, alpha=0.5, dt=1e-3,
                                                n_samples=1))
        fs = FieldSample.from_modes(other, {(1, 0): 1.0})
        with pytest.raises(DomainError):
            run_ensemble(CFG4, fs, 1e-3, record_times=[1e-3])

    def test_overflow_detection(self):
        cfg = LatticeConfig(n_max=4, alpha=0.5, dt=5e3, n_samples=8, seed=1)
        noise = build_noise_modes(cfg)
        fs = FieldSample.from_modes(noise, {(1, 0): 1.0})
        with pytest.raises(InvalidSampleRate):
            run_ensemble(cfg, fs, 5e3 * 400, record_times=[5e3 * 400])

    def test_sobolev_estimate_s_zero_is_l2(self, noise4):
        fs = FieldSample.from_modes(noise4, {(1, 0): 1.0, (0, 2): 0.5})
        st = run_ensemble(CFG4, fs, 1e-3, record_times=[0.0])[0]
        v, err = sobolev_estimate(st, 0.0)
        assert v == pytest.approx(st.l2_mean, rel=1e-12)

    def test_mixing_norm_decays(self):
        # H^{-s} estimate of a smooth datum decreases significantly by t = 1
        cfg = LatticeConfig(n_max=6, alpha=0.5, dt=8e-4, n_samples=200, seed=4)
        noise = build_noise_modes(cfg)
        modes = {}
        for kx in range(-2, 3):
            for ky in range(-2, 3):
                if (kx, ky) != (0, 0):
                    modes[(kx, ky)] = 1.0 / (1.0 + kx * kx + ky * ky)
        fs = FieldSample.from_modes(noise, modes)
        t_final = 1.0
        stats = run_ensemble(cfg, fs, t_final, record_times=[0.0, t_final])
        v0, e0 = sobolev_estimate(stats[0], 0.5)
        v1, e1 = sobolev_estimate(stats[1], 0.5)
        assert v0 - v1 > 3.0 * math.sqrt(e0 * e0 + e1 * e1)

    def test_chunk_size_invariance(self, monkeypatch):
        # 300 samples: three chunks at the default size, sixty at 5.  BLAS
        # picks different kernels for different product shapes, so the
        # agreement is to round-off, not to the bit
        cfg = LatticeConfig(n_max=6, alpha=0.5, dt=2e-3, n_samples=300, seed=8)
        noise = build_noise_modes(cfg)
        fs = FieldSample.from_modes(noise, {(1, 0): 1.0, (2, -1): 0.5j,
                                            (0, 2): 0.3})
        records = [0.0, 5 * cfg.dt, 10 * cfg.dt]
        ref = run_ensemble(cfg, fs, records[-1], record_times=records)
        monkeypatch.setattr(mc_spde, "_CHUNK_SAMPLES", 5)
        got = run_ensemble(cfg, fs, records[-1], record_times=records)

        def rel(a, b):
            return np.abs(np.asarray(a) - b).max() / np.abs(a).max()
        for a, b in zip(ref, got):
            assert rel(a.mean_spectrum, b.mean_spectrum) <= 1e-14
            assert rel(a.std_err, b.std_err) <= 1e-14
            assert rel(a.l2_mean, b.l2_mean) <= 1e-14
        assert rel(ref[-1].diff_mean, got[-1].diff_mean) <= 1e-14

    def test_second_moments_follow_em_recursion(self):
        """The EM scheme's mean power spectrum closes exactly:
        a_k <- a_k + dt R_k(a) + (c_k dt/2)^2 a_k (oracles.em_second_moments).
        Every nonzero half-band mode at every one of 20 records lies within
        4.5 standard errors; a plain Euler step of the master equation,
        without the (c_k dt/2)^2 term, does not.  k = 0 carries only
        round-off and is left out."""
        probe = build_noise_modes(LatticeConfig(n_max=6, alpha=0.5, dt=1.0,
                                                n_samples=1))
        dt = 0.3 / float(probe.corrector_grid.max())
        cfg = LatticeConfig(n_max=6, alpha=0.5, dt=dt, n_samples=4000, seed=3)
        noise = build_noise_modes(cfg)
        fs = FieldSample.from_modes(noise, {
            (kx, ky): 1.0 / (1.0 + kx * kx + ky * ky)
            for kx in range(-2, 3) for ky in range(-2, 3) if (kx, ky) != (0, 0)})
        n_steps = 20
        stats = run_ensemble(cfg, fs, n_steps * dt,
                             record_times=[k * dt for k in range(n_steps + 1)])
        expect = em_second_moments(noise, stats[0].spectrum_map(), dt, n_steps)
        nonzero = np.any(stats[0].modes != 0, axis=1)
        for st, ex in zip(stats[1:], expect):
            model = np.array([ex[(int(kx), int(ky))] for kx, ky in st.modes])
            dev = np.abs(st.mean_spectrum - model)[nonzero] / st.std_err[nonzero]
            assert dev.max() <= 4.5


class TestLatticeMasterRate:
    def test_total_rate_is_pure_absorption(self, noise4):
        # for a reality-symmetric spectrum the in-band exchange conserves the
        # total, so the full-lattice drift is the (negative) boundary flux
        rng = np.random.default_rng(9)
        spec = {}
        n = CFG4.n_max
        for kx in range(0, n + 1):
            for ky in range(-n, n + 1):
                v = float(rng.uniform(0.0, 1.0))
                spec[(kx, ky)] = v
                spec[(-kx, -ky)] = v
        rates = lattice_master_rate(noise4, spec)
        total = sum((1.0 if kx == 0 else 2.0) * r
                    for (kx, ky), r in rates.items())
        assert total < 0.0  # absorbing boundary only removes mass

    def test_matches_direct_sum_over_noise_modes(self, noise4):
        """d/dt a(k) = sum_j sigma_j^2 (e_j.k)^2 [a(k-j) 1{k-j in band}
        - a(k)], j over both members of every noise pair."""
        rng = np.random.default_rng(12)
        n = CFG4.n_max
        # not reality-symmetric: a(-k) != a(k)
        spec = {(kx, ky): float(rng.uniform(0.0, 1.0))
                for kx in range(-n, n + 1) for ky in range(-n, n + 1)}
        rates = lattice_master_rate(noise4, spec)
        expect = {}
        for kx in range(0, n + 1):
            for ky in range(-n, n + 1):
                acc = 0.0
                for kv, sig, e in zip(noise4.k_half, noise4.sigma, noise4.e_pol):
                    w = sig ** 2 * (e[0] * kx + e[1] * ky) ** 2
                    for sgn in (+1, -1):
                        src = (kx - sgn * kv[0], ky - sgn * kv[1])
                        gain = spec[src] if max(map(abs, src)) <= n else 0.0
                        acc += w * (gain - spec[(kx, ky)])
                expect[(kx, ky)] = acc
        assert set(rates) == set(expect)
        scale = max(abs(v) for v in expect.values())
        err = max(abs(rates[k] - expect[k]) for k in expect)
        assert err <= 1e-13 * scale


class TestRateAgreement:
    def test_needs_two_records(self, noise4):
        fs = FieldSample.from_modes(noise4, {(1, 0): 1.0})
        stats = run_ensemble(CFG4, fs, 1e-3, record_times=[1e-3])
        with pytest.raises(DomainError):
            mc_spde.rate_agreement(noise4, stats)


class TestMidBandConsistency:
    @staticmethod
    def _ratios(n_max, s, alpha):
        cfg = LatticeConfig(n_max=n_max, alpha=alpha, dt=1e-3, n_samples=1)
        noise = build_noise_modes(cfg)
        spec = {}
        for kx in range(-n_max, n_max + 1):
            for ky in range(-n_max, n_max + 1):
                k2 = kx * kx + ky * ky
                spec[(kx, ky)] = k2 ** (-s) if k2 else 0.0
        rates = lattice_master_rate(noise, spec)
        p = ModelParams(d=2, alpha=alpha, s=s)
        out = []
        for (kx, ky), rate in rates.items():
            kabs = math.hypot(kx, ky)
            if 2.0 <= kabs <= n_max / 4.0:
                # the rate of the |k|^{-2s} state is the flux integral without
                # the (2 pi)^{-d/2} normalization
                F = flux.flux_F(kabs, p)
                out.append(rate / ((2.0 * math.pi) * F))
        return out

    def test_rate_against_continuum_flux(self):
        # coarse lattice/continuum consistency band for the rate of a
        # |k|^{-2s}-emulating state, and the n_max tightening trend.  The
        # deficit is dominated by the loss the truncated lattice does not
        # carry (noise modes beyond n_max); at alpha = 0.5 it grazes ~0.69
        # at |k| = n_max/4, so the band is checked at alpha = 0.6.
        r16 = self._ratios(16, 0.5, 0.6)
        r32 = self._ratios(32, 0.5, 0.6)
        assert r16 and all(0.7 <= r <= 1.3 for r in r16)
        assert r32 and all(0.7 <= r <= 1.3 for r in r32)
        worst16 = max(abs(r - 1.0) for r in r16)
        worst32 = max(abs(r - 1.0) for r in r32)
        assert worst32 < worst16
