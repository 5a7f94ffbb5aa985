"""Monte Carlo transport SPDE on a truncated 2D Fourier lattice.

The scalar is advected by a divergence-free Gaussian field built from
lattice modes k with weights sigma_k^2 = (1+|k|^2)^{-(d/2+alpha)} and
polarization k_perp/|k|, so the velocity increment is the skew gradient of
one stream function.  The state lives on the mode band |k|_inf <= n_max,
held as its kx >= 0 half with ky first, entry [ky + n_max, kx]; the kx < 0
half follows from reality, rho(-k) = conj rho(k).  Samples, the ensemble
state and the Ito corrector all use this one layout.  The advection product
is formed on an N x N grid, N >= 3 n_max + 1, through dense DFT matrices
that map the band to the grid and the grid back to the band only (exact: no
aliasing into the band), so modes generated outside the band are dropped,
which acts as an absorbing spectral boundary.  The Ito drift uses the exact
per-mode corrector c_{Lam,xi} = xi^T Q_Lam(0) xi.

Randomness comes from counter-based Philox streams keyed by (seed, step
index), so an identical LatticeConfig gives bit-identical output.  Each
step's increments are drawn into one reused buffer, and the stepper forms
the stream function from them in the order they are drawn.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, InvalidSampleRate

__all__ = [
    "LatticeConfig", "NoiseModes", "FieldSample", "EnsembleStats",
    "build_noise_modes", "run_ensemble", "lattice_master_rate",
    "rate_agreement", "RATE_AGREEMENT_MIN", "MC_RECORD_STRIDE", "LATTICE_D",
]

# the lattice dimension: the runs are 2-d only
LATTICE_D = 2

# steps between ensemble records for the master-equation rate check
MC_RECORD_STRIDE = 5

# samples per pass through the transforms: bounds the stepper's working set
# (26.4 MB of reused buffers at n_max = 16) whatever n_samples is; the
# noise buffer adds 16 n_half bytes per sample (8.7 kB at n_max = 16)
_CHUNK_SAMPLES = 128


@dataclass(frozen=True)
class LatticeConfig:
    """Truncated-lattice run configuration (d = LATTICE_D = 2)."""
    n_max: int
    alpha: float
    dt: float
    n_samples: int
    seed: int = 0

    def __post_init__(self):
        if self.n_max < 4:
            raise DomainError("n_max must be >= 4")
        if self.dt <= 0:
            raise DomainError("dt must be positive")
        if self.n_samples < 1:
            raise DomainError("n_samples must be >= 1")
        if self.alpha <= 0:
            raise DomainError("alpha must be positive")


@dataclass
class NoiseModes:
    """Half-lattice noise description and the per-mode Ito corrector, the
    latter on the band layout of FieldSample.spec."""
    cfg: LatticeConfig
    k_half: np.ndarray        # (n_half, 2) int, kx>0 or (kx=0, ky>0)
    sigma: np.ndarray         # (n_half,)
    e_pol: np.ndarray         # (n_half, 2) unit polarizations, e . k = 0
    covariance_matrix: np.ndarray   # 2x2: sum over full lattice sigma^2 e e^T
    corrector_grid: np.ndarray      # (2n+1, n+1): c_{Lam,xi} at [ky + n, kx]

    @property
    def n_half(self) -> int:
        return len(self.sigma)


def build_noise_modes(cfg: LatticeConfig) -> NoiseModes:
    """Weights, polarizations and the exact per-mode Ito corrector."""
    n = cfg.n_max
    reps = []
    for kx in range(0, n + 1):
        for ky in range(-n, n + 1):
            if kx == 0 and ky <= 0:
                continue
            reps.append((kx, ky))
    k_half = np.array(reps, dtype=int)
    k2 = (k_half ** 2).sum(axis=1).astype(float)
    sigma = (1.0 + k2) ** (-(LATTICE_D / 2.0 + cfg.alpha) / 2.0)
    norm = np.sqrt(k2)
    e_pol = np.stack([-k_half[:, 1] / norm, k_half[:, 0] / norm], axis=1)

    # full lattice covariance at zero separation: the +-k pair doubles e x e
    cov = 2.0 * np.einsum("m,mi,mj->ij", sigma ** 2, e_pol, e_pol)

    KY = np.arange(-n, n + 1, dtype=float)[:, None]
    KX = np.arange(n + 1, dtype=float)[None, :]
    corrector = (cov[0, 0] * KX ** 2 + 2.0 * cov[0, 1] * KX * KY
                 + cov[1, 1] * KY ** 2)

    return NoiseModes(cfg=cfg, k_half=k_half, sigma=sigma, e_pol=e_pol,
                      covariance_matrix=cov, corrector_grid=corrector)


@dataclass
class FieldSample:
    """One realization of the real scalar, stored as its band of Fourier
    modes: spec[ky + n, kx] = rho(kx, ky) for |ky| <= n, 0 <= kx <= n.  The
    kx < 0 half is implicit, rho(-k) = conj rho(k), and the kx = 0 column is
    exactly Hermitian in ky."""
    spec: np.ndarray   # (2n+1, n+1) complex

    @property
    def n_max(self) -> int:
        return self.spec.shape[1] - 1

    @staticmethod
    def zeros(noise: NoiseModes) -> "FieldSample":
        n = noise.cfg.n_max
        return FieldSample(spec=np.zeros((2 * n + 1, n + 1), dtype=complex))

    @staticmethod
    def from_modes(noise: NoiseModes, modes: Dict[Tuple[int, int], complex]) -> "FieldSample":
        """Build a sample from mode amplitudes; the conjugate partner of every
        supplied mode is set automatically so the field is real."""
        out = FieldSample.zeros(noise)
        n = out.n_max
        for (kx, ky), val in modes.items():
            if max(abs(kx), abs(ky)) > n:
                raise DomainError(f"mode {(kx, ky)} outside the lattice")
            if kx >= 0:
                out.spec[ky + n, kx] = val
            if kx <= 0:
                out.spec[n - ky, -kx] = np.conj(val)
        _make_real(out.spec)
        return out


def _make_real(band: np.ndarray) -> None:
    """Make the kx = 0 column of a band (ky first, kx last) exactly Hermitian
    in ky, in place: rho(0, -ky) = conj rho(0, ky) and rho(0, 0) real."""
    col = band[..., 0]
    col[...] = 0.5 * (col + np.conj(col[::-1]))
    col[len(col) // 2] = col[len(col) // 2].real


class _BandStepper:
    """Euler-Maruyama step on the band layout (ky = -n..n, sample, kx = 0..n).

    With e_k = k_perp/|k| the velocity increment is u = grad_perp psi, with
    psi_k = -i sigma_k dbeta_k/|k|, so u.grad rho = psi_x rho_y - psi_y rho_x.
    The four derivatives come from dense DFT matrices: complex products in y
    give f and f_y on the y grid for f = psi, rho, and real products on the
    interleaved (re, im) kx axis give f_x and f_y on the N x N grid.  The
    forward transform (real in x, complex in y) produces band outputs only.

    psi is formed in the order the increments are drawn, (sample, kx, ky):
    in the build_noise_modes order each sample's kx >= 1 modes are one
    (n, 2n+1) block after its n kx = 0 modes, whose row is completed by their
    conjugate mirror and a zero origin.  The y product reads that array
    transposed and rho's reads the band slice in place, each writing its own
    column block of one buffer.  Samples pass through the transforms
    _CHUNK_SAMPLES at a time."""

    def __init__(self, noise: NoiseModes):
        n = noise.cfg.n_max
        # the quadratic product has support |k|_inf <= 2n, so any N >= 3n + 1
        # keeps its aliases out of the band
        self.grid_size = N = 3 * n + 2
        ky = np.arange(-n, n + 1)
        kx = np.arange(n + 1)
        grid = np.arange(N)
        e_y = np.exp(2j * np.pi * (np.outer(grid, ky) % N) / N)       # (N, 2n+1)
        self.inv_y = np.vstack([e_y, e_y * (1j * ky)])                 # f, f_y
        self.fwd_y = np.conj(e_y.T) / (N * N)
        phase = 2.0 * np.pi * (np.outer(kx, grid) % N) / N             # (n+1, N)
        cos, sin = np.cos(phase), np.sin(phase)
        w = np.where(kx == 0, 1.0, 2.0)[:, None]   # Hermitian partner of kx > 0
        wk = w * kx[:, None]
        # rows alternate (re, im) of each kx: Re(f_k e^{i kx x}) and its x-derivative
        self.inv_x = np.stack([w * cos, -w * sin], axis=1).reshape(2 * n + 2, N)
        self.inv_dx = np.stack([-wk * sin, -wk * cos], axis=1).reshape(2 * n + 2, N)
        self.fwd_x = np.stack([cos.T, -sin.T], axis=2).reshape(N, 2 * n + 2)
        self.half_corrector = 0.5 * noise.corrector_grid[:, None, :]
        k_norm = np.sqrt((noise.k_half ** 2).sum(axis=1))
        psi_amp = -1j * noise.sigma / k_norm
        # (0, ky) for ky = 1..n, then the kx = 1..n rows, as the noise lists them
        self.psi_zero = psi_amp[:n]
        self.psi_rows = psi_amp[n:].reshape(n, 2 * n + 1)
        self._work: Dict[str, np.ndarray] = {}

    def _buffer(self, name, shape, dtype=float):
        """Work array reused across chunks and steps: at these sizes the page
        faults of fresh temporaries cost about as much as the products."""
        size = math.prod(shape)
        buf = self._work.get(name)
        if buf is None or buf.size < size:
            buf = self._work[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def _psi_y(self, dbeta: np.ndarray, out: np.ndarray) -> None:
        """psi's (f, f_y) on the y grid into out, (2N, c (n+1)) with columns
        (sample, kx), from the increments dbeta of c samples."""
        c, (n, n1) = len(dbeta), self.psi_rows.shape
        psi = self._buffer("psi", (c, n + 1, n1), complex)
        np.multiply(dbeta[:, n:].reshape(c, n, n1), self.psi_rows, out=psi[:, 1:])
        np.multiply(dbeta[:, :n], self.psi_zero, out=psi[:, 0, n + 1:])
        np.conjugate(psi[:, 0, :n:-1], out=psi[:, 0, :n])
        psi[:, 0, n] = 0.0
        np.matmul(self.inv_y, psi.reshape(c * (n + 1), n1).T, out=out)

    def step(self, band: np.ndarray, dt: float, dbeta: np.ndarray) -> None:
        """One step, in place, of band (2n+1, S, n+1) with half-lattice
        increments dbeta of shape (S, n_half)."""
        n1, n_samples, nx = band.shape
        N = self.grid_size
        decay = 1.0 - self.half_corrector * dt
        with np.errstate(over="ignore", invalid="ignore"):
            for s0 in range(0, n_samples, _CHUNK_SAMPLES):
                rho = band[:, s0:s0 + _CHUNK_SAMPLES]
                c = rho.shape[1]
                # (f, f_y) of psi, then of rho read in place, on the y grid:
                # columns (field, sample, kx), kx as interleaved floats below
                fy = self._buffer("fy", (2 * N, 2 * c * nx), complex)
                self._psi_y(dbeta[s0:s0 + c], fy[:, :c * nx])
                np.matmul(self.inv_y, rho.reshape(n1, c * nx), out=fy[:, c * nx:])
                fy = fy.view(float).reshape(2, N * 2 * c, 2 * nx)
                dx = self._buffer("dx", (N * 2 * c, N))
                dy = self._buffer("dy", (N * 2 * c, N))
                np.matmul(fy[0], self.inv_dx, out=dx)
                np.matmul(fy[1], self.inv_x, out=dy)
                dx, dy = dx.reshape(N, 2, c, N), dy.reshape(N, 2, c, N)
                # u.grad rho = psi_x rho_y - psi_y rho_x on the (y, s, x) grid
                prod = self._buffer("prod", (N, c, N))
                tmp = self._buffer("tmp", (N, c, N))
                np.multiply(dx[:, 0], dy[:, 1], out=prod)
                np.multiply(dy[:, 0], dx[:, 1], out=tmp)
                prod -= tmp
                px = self._buffer("px", (N * c, 2 * nx))
                np.matmul(prod.reshape(N * c, N), self.fwd_x, out=px)
                adv = self._buffer("adv", (n1, c * nx), complex)
                np.matmul(self.fwd_y, px.view(complex).reshape(N, c * nx), out=adv)
                rho *= decay
                rho -= adv.reshape(n1, c, nx)
            _make_real(band)


def _step_noise(cfg: LatticeConfig, step_index: int, out: np.ndarray) -> np.ndarray:
    """Counter-based stream for one global step: Philox keyed by
    (seed, step index); sample i reads block i of the stream.  Fills out,
    (n_samples, n_half, 2) floats, with the scaled (re, im) pairs in place
    and returns them as the (n_samples, n_half) complex increments."""
    key = np.array([np.uint64(cfg.seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(step_index)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    gen.standard_normal(out=out)
    out *= math.sqrt(cfg.dt / 2.0)
    return out.view(complex)[..., 0]


@functools.lru_cache(maxsize=8)
def _band_modes(n_max: int):
    """Distinct representatives covering the full band: kx = 0 column in full
    plus kx >= 1 half; with multiplicity 2 for the implicit (-kx, -ky).
    Built once per n_max and shared, so the arrays are read-only."""
    reps = [(kx, ky) for kx in range(n_max + 1) for ky in range(-n_max, n_max + 1)]
    mult = [1.0 if kx == 0 else 2.0 for kx, _ in reps]
    modes, mult = np.array(reps, dtype=int), np.array(mult)
    modes.flags.writeable = mult.flags.writeable = False
    return modes, mult


@dataclass
class EnsembleStats:
    """Per-mode spectrum estimates at one record time.  mode list covers the
    half band (kx >= 0); |rho(-k)|^2 = |rho(k)|^2 by reality."""
    time: float
    n_samples: int
    modes: np.ndarray            # (M, 2) int
    multiplicity: np.ndarray     # 1 for kx = 0, else 2
    mean_spectrum: np.ndarray    # (M,)
    std_err: np.ndarray          # (M,)
    l2_mean: float
    l2_std_err: float
    diff_mean: Optional[np.ndarray] = None      # per-mode mean of the power
    diff_std_err: Optional[np.ndarray] = None   # increment since last record
    diff_dt: Optional[float] = None
    n_invalid: int = 0

    def spectrum_map(self) -> Dict[Tuple[int, int], float]:
        """Every lattice mode's mean power: each half-band mode, followed by
        its partner (-kx, -ky) when kx > 0."""
        pair = np.stack([self.modes, -self.modes], axis=1)      # (M, 2, 2)
        keep = np.stack([np.ones(len(pair), bool), self.modes[:, 0] > 0], axis=1)
        values = np.repeat(self.mean_spectrum[:, None], 2, axis=1)
        return dict(zip(map(tuple, pair[keep].tolist()), values[keep].tolist()))



def _collect_stats(batch, noise, t, prev_powers, prev_time, valid):
    n = noise.cfg.n_max
    modes, mult = _band_modes(n)
    # (sample, kx, ky) flattens to the _band_modes order
    powers = np.abs(batch.transpose(1, 2, 0).reshape(batch.shape[1], -1)) ** 2
    pw = powers[valid]
    nv = pw.shape[0]
    mean = pw.mean(axis=0)
    serr = pw.std(axis=0, ddof=1) / math.sqrt(nv) if nv > 1 else np.zeros_like(mean)
    l2 = (pw * mult[None, :]).sum(axis=1)
    stats = EnsembleStats(
        time=t, n_samples=nv, modes=modes, multiplicity=mult,
        mean_spectrum=mean, std_err=serr,
        l2_mean=float(l2.mean()),
        l2_std_err=float(l2.std(ddof=1) / math.sqrt(nv)) if nv > 1 else 0.0,
        n_invalid=int((~valid).sum()))
    if prev_powers is not None:
        diff = (powers - prev_powers)[valid]
        stats.diff_mean = diff.mean(axis=0)
        stats.diff_std_err = diff.std(axis=0, ddof=1) / math.sqrt(nv) if nv > 1 else np.zeros_like(mean)
        stats.diff_dt = t - prev_time
    return stats, powers


def run_ensemble(cfg: LatticeConfig, initial: FieldSample, t_final: float,
                 record_times: Sequence[float]) -> List[EnsembleStats]:
    """Evolve n_samples independent copies of `initial` and return spectrum
    statistics at the requested times (snapped to the step grid).

    Bit-identical output for identical cfg; samples that overflow are
    dropped from the statistics, and more than 1% of them is an error.
    """
    record_times = sorted(set(float(t) for t in record_times))
    if any(t < 0 or t > t_final + 1e-12 for t in record_times):
        raise DomainError("record times must lie in [0, t_final]")
    n = cfg.n_max
    if initial.spec.shape != (2 * n + 1, n + 1):
        raise DomainError("initial sample does not match the lattice config")
    noise = build_noise_modes(cfg)
    n_steps = int(round(t_final / cfg.dt))
    record_steps = sorted(set(min(int(round(t / cfg.dt)), n_steps)
                              for t in record_times))

    stepper = _BandStepper(noise)
    batch = np.repeat(initial.spec[:, None, :], cfg.n_samples, axis=1)
    z = np.empty((cfg.n_samples, noise.n_half, 2))
    valid = np.ones(cfg.n_samples, dtype=bool)
    out: List[EnsembleStats] = []
    prev_powers = None
    prev_time = None

    def record(step_index):
        nonlocal prev_powers, prev_time
        t = step_index * cfg.dt
        stats, prev_powers = _collect_stats(batch, noise, t, prev_powers,
                                            prev_time, valid)
        prev_time = t
        out.append(stats)

    if 0 in record_steps:
        record(0)
    for step_index in range(1, n_steps + 1):
        stepper.step(batch, cfg.dt, _step_noise(cfg, step_index - 1, z))
        # one reduction while every sample is finite; the per-sample mask
        # only when it is not
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(batch.sum())
        if not finite:
            bad = ~np.isfinite(batch).all(axis=(0, 2))
            valid &= ~bad
            batch[:, bad] = 0.0
            frac_bad = 1.0 - valid.sum() / cfg.n_samples
            if frac_bad > 0.01:
                raise InvalidSampleRate(
                    f"{frac_bad:.1%} of samples overflowed by t = "
                    f"{step_index * cfg.dt:.4g}")
        if step_index in record_steps:
            record(step_index)
    return out


def lattice_master_rate(noise: NoiseModes, spectrum: Dict[Tuple[int, int], float]):
    """Exact master-equation rate of the truncated lattice model,

        d/dt E|rho(k)|^2 = sum_j kappa(k, k-j) [a(k-j)] - c_k a(k),

    with gains only from in-band modes (dropped modes act as absorbers).
    kappa(k, k-j) = sigma_j^2 (e_j.k)^2 expands into three zero-padded FFT
    convolutions of the band spectrum, and c_k is the stepper's Ito
    corrector.  Returns a map over the half band, like EnsembleStats."""
    n = noise.cfg.n_max
    a = np.zeros((2 * n + 1, 2 * n + 1))
    keys = np.array(list(spectrum), dtype=int).reshape(-1, 2)
    a[keys[:, 0] + n, keys[:, 1] + n] = np.fromiter(spectrum.values(), float,
                                                    len(spectrum))
    # weights of kx^2, kx ky and ky^2 in sigma_j^2 (e_j.k)^2, at j and -j
    ex, ey = noise.e_pol.T
    jx, jy = noise.k_half.T + n
    weights = np.zeros((3,) + a.shape)
    weights[:, jx, jy] = weights[:, 2 * n - jx, 2 * n - jy] = (
        noise.sigma ** 2 * np.array([ex * ex, 2.0 * ex * ey, ey * ey]))
    # padded to the 4n + 1 support of the linear convolution: no wrap-around
    shape = (4 * n + 1, 4 * n + 1)
    conv = np.fft.irfft2(np.fft.rfft2(weights, s=shape)
                         * np.fft.rfft2(a, s=shape), s=shape)
    kx, ky = _band_modes(n)[0].T
    gain = conv[:, kx + 2 * n, ky + 2 * n]
    rates = (kx * kx * gain[0] + kx * ky * gain[1] + ky * ky * gain[2]
             - noise.corrector_grid[ky + n, kx] * a[kx + n, ky + n])
    return dict(zip(zip(kx.tolist(), ky.tolist()), rates.tolist()))


# the share of modes rate_agreement must find within 3 standard errors
RATE_AGREEMENT_MIN = 0.95


def rate_agreement(noise: NoiseModes, stats: Sequence[EnsembleStats]) -> float:
    """Fraction of half-band modes whose measured rate over the last record
    interval, diff_mean / diff_dt, lies within 3 standard errors
    (+ 1e-9 max|model|) of lattice_master_rate at the interval's midpoint
    spectrum.  Records MC_RECORD_STRIDE steps apart keep the fast modes from
    relaxing within the interval."""
    if len(stats) < 2:
        raise DomainError("the rate check needs at least two ensemble records")
    prev, last = stats[-2], stats[-1]
    smap_last = last.spectrum_map()
    mid = {k: 0.5 * (v + smap_last[k]) for k, v in prev.spectrum_map().items()}
    rates = lattice_master_rate(noise, mid)
    model = np.array([rates[(int(kx), int(ky))] for kx, ky in last.modes])
    slack = 1e-9 * np.abs(model).max()
    hits = (np.abs(last.diff_mean / last.diff_dt - model)
            <= 3.0 * (last.diff_std_err / last.diff_dt) + slack)
    return float(hits.mean())
