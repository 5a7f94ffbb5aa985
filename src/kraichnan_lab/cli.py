"""Experiment runner: validated JSON configs in, reproducible CSV tables and
a machine-readable summary out.  Run it as `kraichnan-lab` or
`python -m kraichnan_lab`.

Every config sets experiment, d, alpha and s, and may set output_dir.  An
experiment accepts only the other fields it reads, with these defaults
(EXPERIMENTS); grid is 512 nodes on [1e-2, 1e3] unless given here:

    k-constants           none
    flux-table            grid
    asymptotics           grid: 40 nodes on [1, 1e3]
    spectral-evolve       grid, time: t_final 1, trackers: [s],
                          selfsimilar: false, nu: 0
    selfsimilar-balance   grid, time, selfsimilar: true, nu: 0
    dissipation-integral  as selfsimilar-balance; it reads no time, but the
                          benchmark's radial-decay configs send one
    mc-ensemble           time, seed: 0,
                          lattice: n_max 16, n_samples 2000, dt 1e-3

The schema (one validator, built at import) checks shape, types and the
ranges no constructor checks; `_setup` then builds the inputs, whose
constructors check the rest.  `validate` runs both and computes nothing
else, so it refuses exactly the configs `run` refuses.  `_csv` alone
writes every table.

Exit codes: 0 all asserted checks passed, 1 a check failed, 2 config error,
3 compute error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import tempfile
import time
import warnings
from typing import Optional

import numpy as np
import jsonschema

from . import __version__
from . import flux as _flux
from . import mc_spde as _mc
from . import mellin as _mellin
from . import spectral as _spectral
from .errors import (ConfigError, DomainError, KraichnanLabError,
                     TruncationWarning)
from .specfun import ModelParams

# the residual slope of `asymptotics` is fitted over |xi| >= this
_SLOPE_XI_MIN = 10.0


def _check(check_id: str, passed: bool, value, target: str) -> dict:
    return {"id": check_id, "passed": bool(passed), "value": value,
            "target": target}


def _cell(v) -> str:
    """Strings verbatim, integers in decimal, every other number as the repr
    of its float, which reads back to the same value."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _csv(header, rows) -> str:
    """The one table writer: a header line, then one line per row."""
    return "".join(",".join(map(_cell, line)) + "\n" for line in [header, *rows])


def _exp_k_constants(cfg, params):
    k = {"gamma": _mellin.k_constant_gamma(params),
         "integral": _mellin.k_constant_integral(params)}
    # the real-space route needs a Riesz-potential contracted kernel
    if params.s + params.alpha > 1.0:
        k["appendix"] = _mellin.k_constant_appendix(params)
    kg = k["gamma"]
    checks = [_check("k.gamma_positive", kg > 0, kg, "> 0")]
    for route, tol, target in (("integral", 1e-6, "rel <= 1e-6"),
                               ("appendix", 1e-4, "rel <= 1e-4")):
        if route in k:
            dev = abs(k[route] - kg)
            checks.append(_check(f"k.gamma_vs_{route}", dev <= tol * kg,
                                 dev / kg, target))
    return {"k_constants.csv": _csv(("route", "value"), k.items())}, checks


def _flux_csv(params, xi, F, residuals, K) -> str:
    return _csv(("xi", "F", "residual", "K", "d", "alpha", "s"),
                [(x, f, r, K, params.d, params.alpha, params.s)
                 for x, f, r in zip(xi, F, residuals)])


def _exp_flux_table(cfg, params, xi):
    F, residuals, K = _flux.asymptotic_residual_table(params, xi)
    checks = []
    if xi:
        # the first non-finite residual: max() skips a NaN that is not first
        bad = [r for r in residuals if not math.isfinite(r)]
        checks.append(_check("flux.residuals_finite", not bad,
                             bad[0] if bad else max(residuals), "finite"))
    return {"flux_table.csv": _flux_csv(params, xi, F, residuals, K)}, checks


def _residual_slope(xi, residuals) -> float:
    """Log-log slope of the positive residuals at |xi| >= _SLOPE_XI_MIN;
    NaN, which fails the check, where fewer than two remain."""
    xs, rs = np.array(xi), np.array(residuals)
    sel = (xs >= _SLOPE_XI_MIN) & (rs > 0)
    if sel.sum() < 2:
        return math.nan
    slope, _ = np.polyfit(np.log(xs[sel]), np.log(rs[sel]), 1)
    return float(slope)


def _exp_asymptotics(cfg, params, xi):
    F, residuals, K = _flux.asymptotic_residual_table(params, xi)
    slope = _residual_slope(xi, residuals)
    checks = [_check("asym.residual_slope", slope <= 0.1, slope, "<= 0.1")]
    worst = 0.0
    for x in (20.0, 27.0, 35.0, 42.0, 50.0):
        fq = _flux.flux_F(x, params, method="quadrature", rel_tol=1e-11)
        fm = _flux.flux_F(x, params, method="mellin")
        worst = max(worst, abs(fq - fm) / abs(fq))
    checks.append(_check("asym.dual_path_agreement", worst <= 1e-5, worst,
                         "rel <= 1e-5 on [20,50]"))
    return {"asymptotics.csv": _flux_csv(params, xi, F, residuals, K)}, checks


def _initial_gaussian(grid: _spectral.RadialGrid, params) -> _spectral.SpectrumState:
    a = np.exp(-grid.nodes ** 2)
    return _spectral.SpectrumState(grid=grid, values=a, time=0.0, params=params)


def _initial_log_bump(grid: _spectral.RadialGrid, params, center: float = 1.0,
                      width: float = 0.5) -> _spectral.SpectrumState:
    a = np.exp(-0.5 * ((np.log(grid.nodes) - math.log(center)) / width) ** 2)
    return _spectral.SpectrumState(grid=grid, values=a, time=0.0, params=params)


def _balance_scale(state, kernel, s_query) -> float:
    rho = state.grid.nodes
    psi = rho ** (-2.0 * s_query)
    diff = np.abs(psi[None, :] - psi[:, None])
    scale = float(np.einsum("ij,ij->", kernel.sigma, diff * np.abs(state.values)[:, None]))
    return scale + 1e-300


def _exp_spectral_evolve(cfg, params, grid):
    kernel = _spectral.build_kernel(grid, params, selfsimilar=cfg["selfsimilar"])
    state = _initial_gaussian(grid, params)
    with warnings.catch_warnings():
        # reported in the summary's diagnostics instead
        warnings.simplefilter("ignore", TruncationWarning)
        traj = _spectral.evolve(state, kernel, cfg["time"]["t_final"],
                                dt=cfg["time"].get("dt"),
                                trackers=cfg["trackers"])
    rep = _spectral.balance_check(traj.final_state, kernel, params.s)
    rel = abs(rep.lhs - rep.rhs) / _balance_scale(traj.final_state, kernel, params.s)
    # evolve raises NegativityError (exit 3) on any record below -1e-12 max,
    # so negativity needs no check here
    checks = [_check("spectral.balance_identity", rel <= 1e-12, rel,
                     "rel <= 1e-12")]
    diagnostics = {"truncated": traj.truncated,
                   "truncation_time": traj.truncation_time}
    cols = sorted(traj.norms)
    table = _csv(("t", "mass", *(f"norm_{_cell(s)}" for s in cols),
                  "boundary_fraction"),
                 zip(traj.times, traj.mass, *(traj.norms[s] for s in cols),
                     traj.boundary_fraction))
    return {"trajectory.csv": table}, checks, diagnostics


def _exp_selfsimilar_balance(cfg, params, grid, times):
    kernel = _spectral.build_kernel(grid, params, selfsimilar=True)
    state = _initial_log_bump(grid, params)
    K = _mellin.k_constant_gamma(params)
    rows = []
    worst = 0.0
    for t in times:
        at_t = _spectral.propagate(state, kernel, t)
        rep = _spectral.balance_check(at_t, kernel, params.s)
        denom = _spectral.sobolev_norm(at_t, params.s + params.alpha - 1.0)
        ratio = -rep.lhs / denom
        worst = max(worst, abs(ratio - K) / K)
        rows.append((t, ratio, K))
    checks = [_check("selfsimilar.ratio_matches_K", worst <= 0.02, worst,
                     f"rel <= 2e-2 at {len(times)} mid-trajectory times")]
    return {"selfsimilar_balance.csv": _csv(("t", "ratio", "K"), rows)}, checks


def _exp_dissipation_integral(cfg, params, grid):
    kernel = _spectral.build_kernel(grid, params, selfsimilar=True)
    state = _initial_log_bump(grid, params, center=4.0)
    integral = _spectral.anomalous_dissipation_integral(state, kernel)
    a = params.alpha
    k_ref = _mellin.k_constant_gamma(ModelParams(d=params.d, alpha=a, s=1.0 - a))
    reference = _spectral.sobolev_norm(state, 1.0 - a) / k_ref
    ratio = integral / reference if reference else float("nan")
    checks = [_check("dissipation.integral_vs_reference",
                     0.9 <= ratio <= 1.1, ratio, "in [0.9, 1.1]")]
    table = _csv(("integral", "reference", "ratio"), [(integral, reference, ratio)])
    return {"dissipation_integral.csv": table}, checks


def _exp_mc_ensemble(cfg, params, lattice, times):
    noise = _mc.build_noise_modes(lattice)
    modes = {(kx, ky): 1.0 / (1.0 + kx * kx + ky * ky)
             for kx in range(-2, 3) for ky in range(-2, 3) if (kx, ky) != (0, 0)}
    initial = _mc.FieldSample.from_modes(noise, modes)
    stats = _mc.run_ensemble(lattice, initial, times[-1], record_times=times)
    frac = _mc.rate_agreement(noise, stats)
    gate = _mc.RATE_AGREEMENT_MIN
    checks = [_check("mc.master_equation_rates", frac >= gate, frac,
                     f">= {gate} of modes within 3 sigma")]
    artifacts = {f"ensemble_t{idx}.csv": _csv(
        ("t", "kx", "ky", "mean_sq", "std_err"),
        [(st.time, kx, ky, m, e)
         for (kx, ky), m, e in zip(st.modes, st.mean_spectrum, st.std_err)])
        for idx, st in enumerate(stats)}
    diagnostics = {"dropped_samples": stats[-1].n_invalid,
                   "samples": lattice.n_samples}
    return artifacts, checks, diagnostics


_GRID = {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 512}
_TIME = {"t_final": 1.0}

# experiment -> (runner, {optional field it reads: default or function of
# the config}); runner(cfg, **_setup(cfg)) -> (artifacts, checks[, diagnostics])
EXPERIMENTS = {
    "k-constants": (_exp_k_constants, {}),
    "flux-table": (_exp_flux_table, {"grid": _GRID}),
    "asymptotics": (_exp_asymptotics,
                    {"grid": {"rho_min": 1.0, "rho_max": 1e3, "nodes": 40}}),
    "spectral-evolve": (_exp_spectral_evolve, {
        "grid": _GRID, "time": _TIME, "trackers": lambda cfg: [cfg["s"]],
        "selfsimilar": False, "nu": 0.0}),
    "selfsimilar-balance": (_exp_selfsimilar_balance, {
        "grid": _GRID, "time": _TIME, "selfsimilar": True, "nu": 0.0}),
    # reads no time, but the benchmark's radial-decay configs send one
    "dissipation-integral": (_exp_dissipation_integral, {
        "grid": _GRID, "time": _TIME, "selfsimilar": True, "nu": 0.0}),
    "mc-ensemble": (_exp_mc_ensemble, {
        "time": _TIME, "lattice": {"n_max": 16, "n_samples": 2000, "dt": 1e-3},
        "seed": 0}),
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment", "d", "alpha", "s"],
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "d": {"type": "integer"},
        "alpha": {"type": "number"},
        "s": {"type": "number"},
        "nu": {"type": "number"},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["rho_min", "rho_max", "nodes"],
            "properties": {
                "rho_min": {"type": "number", "exclusiveMinimum": 0},
                "rho_max": {"type": "number", "exclusiveMinimum": 0},
                "nodes": {"type": "integer", "minimum": 0},
            },
        },
        "time": {
            "type": "object",
            "additionalProperties": False,
            "required": ["t_final"],
            "properties": {
                "t_final": {"type": "number", "exclusiveMinimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "trackers": {"type": "array", "items": {"type": "number"}},
        "lattice": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n_max", "n_samples", "dt"],
            "properties": {
                "n_max": {"type": "integer"},
                "n_samples": {"type": "integer"},
                "dt": {"type": "number"},
            },
        },
        "seed": {"type": "integer"},
        "selfsimilar": {"type": "boolean"},
        "output_dir": {"type": "string"},
    },
}

# `$schema` picks the draft; check_schema runs in the tests, not per config
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
_COMMON = frozenset(CONFIG_SCHEMA["required"]) | {"output_dir"}


def _setup(cfg: dict) -> dict:
    """The runner's inputs besides cfg, by keyword, built before anything is
    computed; raises DomainError for a config the experiment cannot run."""
    exp, g = cfg["experiment"], cfg.get("grid")
    params = ModelParams(d=cfg["d"], alpha=cfg["alpha"], s=cfg["s"],
                         nu=cfg.get("nu", 0.0))
    setup = {"params": params}
    if "selfsimilar" in cfg:  # the experiments that build a radial kernel
        if exp != "spectral-evolve" and not (cfg["selfsimilar"] and params.nu == 0.0):
            raise DomainError(f"{exp} compares with the inviscid K on the scale-free "
                              "kernel only: selfsimilar must be true and nu 0")
        setup["grid"] = _spectral.RadialGrid.log_spaced(
            g["rho_min"], g["rho_max"], g["nodes"], params.d)
    if exp == "selfsimilar-balance":
        # propagate is exact, so the samples need no time step
        setup["times"] = [cfg["time"]["t_final"] * (i + 1) / 11.0 for i in range(10)]
    elif exp in ("flux-table", "asymptotics"):
        if exp == "flux-table" and g["nodes"] == 0:
            raise DomainError("a flux table needs at least one node")
        if g["nodes"] > 1 and not g["rho_min"] < g["rho_max"]:
            raise DomainError("a flux grid of more than one node needs "
                              "rho_min < rho_max")
        xi = np.geomspace(g["rho_min"], g["rho_max"], g["nodes"]).tolist()
        if exp == "asymptotics" and sum(x >= _SLOPE_XI_MIN for x in xi) < 2:
            raise DomainError("the residual slope needs at least two "
                              f"|xi| >= {_SLOPE_XI_MIN:g}")
        setup["xi"] = xi
    elif exp == "mc-ensemble":
        lat, t_final = cfg["lattice"], cfg["time"]["t_final"]
        if params.d != _mc.LATTICE_D:
            raise DomainError("Monte Carlo lattice runs are 2-d only")
        setup["lattice"] = _mc.LatticeConfig(
            n_max=lat["n_max"], alpha=cfg["alpha"], dt=lat["dt"],
            n_samples=lat["n_samples"], seed=cfg["seed"])
        n_steps = int(round(t_final / lat["dt"]))
        if n_steps < 1:
            raise DomainError("t_final is shorter than half a lattice step: "
                              "the rate check needs at least one step")
        stride = _mc.MC_RECORD_STRIDE
        setup["times"] = [min(k * stride * lat["dt"], t_final)
                          for k in range(n_steps // stride + 1)] + [t_final]
    return setup


def load_config(path: str):
    """(resolved config, set-up); raises ConfigError for a config that is
    unreadable, breaks the schema, sets an unread field or cannot be set up."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # best_match picks the error jsonschema.validate would raise
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config schema violation: {error.message}") from error
    _, fields = EXPERIMENTS[raw["experiment"]]
    unread = ", ".join(sorted(raw.keys() - _COMMON - fields.keys()))
    if unread:
        raise ConfigError(f"{raw['experiment']} does not read {unread}")
    resolved = {key: default(raw) if callable(default) else copy.deepcopy(default)
                for key, default in fields.items()}
    resolved.update(raw)
    try:
        return resolved, _setup(resolved)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _atomic_write(path: str, text: str):
    dirname = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(config_path: str, output_dir: Optional[str] = None) -> int:
    try:
        cfg, setup = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = output_dir or cfg.get("output_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    t0 = time.monotonic()
    try:
        runner, _ = EXPERIMENTS[cfg["experiment"]]
        artifacts, checks, *diagnostics = runner(cfg, **setup)
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KraichnanLabError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3
    elapsed = time.monotonic() - t0

    passed = all(c["passed"] for c in checks)
    manifest = {
        "config": cfg,
        "config_path": os.path.abspath(config_path),
        "version": __version__,
        "timings": {"wall_seconds": elapsed},
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for name, text in artifacts.items():
        _atomic_write(os.path.join(out_dir, name), text)
    summary = {"experiment": cfg["experiment"], "checks": checks,
               "passed": passed}
    if diagnostics:
        summary["diagnostics"] = diagnostics[0]
    _atomic_write(os.path.join(out_dir, "summary.json"),
                  json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for c in checks:
        state = "pass" if c["passed"] else "FAIL"
        print(f"[{state}] {c['id']}: value={c['value']!r} target={c['target']}")
    if not passed:
        print("invariant failure", file=sys.stderr)
        return 1
    return 0


def validate(config_path: str) -> int:
    try:
        cfg, _ = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print("ok")
    print(json.dumps(cfg, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kraichnan-lab",
        description="run or validate verification experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_val = sub.add_parser("validate", help="validate a config without computing")
    p_val.add_argument("config")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.output_dir)
    return validate(args.config)


if __name__ == "__main__":
    sys.exit(main())
