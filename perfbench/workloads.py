"""The benchmark's four workloads.

Each workload makes its inputs from a seed (``make_inputs``), computes its
results through the program's public entry points (``solve``, the only
timed part) and checks them against values computed apart from the
program (``check``).  An operation is one call of an entry point; it fails
when it raises, or when the CLI exits with a config or compute error
(codes 2 and 3).  The check functions take plain values so the tests can
feed them perturbed outputs.

Sizes are chosen so that one round (a fresh interpreter) takes a few
seconds on two cores; see README.md for the make-up and the seed boxes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import traceback
import warnings

import numpy as np

import reference as ref


def _check(check_id, passed, value, target):
    return {"id": check_id, "passed": bool(passed), "value": value,
            "target": target}


def _op(name, fn, *args):
    """Run one operation; exceptions are recorded, never raised."""
    try:
        return {"name": name, "failed": False, "result": fn(*args)}
    except Exception:  # the benchmark keeps going and counts the failure
        return {"name": name, "failed": True, "error": traceback.format_exc()}


def _run_cli(config_path):
    from kraichnan_lab import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(config_path)
    if code in (2, 3):
        raise RuntimeError(f"cli.run({config_path}) exited with {code}")
    return code


def _write_configs(configs, workdir):
    paths = {}
    for name, cfg in configs.items():
        cfg = dict(cfg, output_dir=os.path.join(workdir, name))
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh, indent=2)
    return paths


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _csv_float(text):
    """A number from a CLI table.  The CLI writes some numbers as
    ``np.float64(x)``, the repr of a numpy scalar (the appendix route of
    k_constants.csv, the xi column of asymptotics.csv); x is read."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def _exit_checks(ops):
    return [_check(f"{op['name']}.exit_code", op["result"] == 0, op["result"], "== 0")
            for op in ops if not op["failed"]]


def _rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# radial-decay: the CLI's self-similar balance and dissipation integral

RADIAL_D, RADIAL_ALPHA = 2, 0.5
RADIAL_GRID = {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 64}
SELFSIMILAR_T, DISSIPATION_T = 0.5, 2.0
# initial datum of the CLI's dissipation-integral experiment (README.md)
BUMP_CENTER, BUMP_WIDTH = 4.0, 0.5


def check_selfsimilar_ratios(ratios, k_ref):
    worst = max((_rel(r, k_ref) for r in ratios), default=math.inf)
    return _check("selfsimilar.ratio_vs_K", len(ratios) == 10 and worst <= 0.02,
                  worst, "10 ratios, rel <= 2e-2 of closed-form K")


def check_dissipation_integral(integral, d, alpha):
    norm = ref.log_bump_norm(d, alpha, BUMP_CENTER, BUMP_WIDTH)
    ratio = integral / (norm / ref.k_closed_form(d, alpha, 1.0 - alpha))
    return _check("dissipation.integral_vs_closed_form", 0.9 <= ratio <= 1.1,
                  ratio, "in [0.9, 1.1]")


class RadialDecay:
    name = "radial-decay"

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        s = float(rng.uniform(0.55, 0.9))
        base = {"d": RADIAL_D, "alpha": RADIAL_ALPHA, "s": s,
                "grid": RADIAL_GRID, "selfsimilar": True}
        configs = {
            "selfsimilar-balance": dict(base, experiment="selfsimilar-balance",
                                        time={"t_final": SELFSIMILAR_T}),
            "dissipation-integral": dict(base, experiment="dissipation-integral",
                                         time={"t_final": DISSIPATION_T}),
        }
        return {"s": s, "configs": _write_configs(configs, workdir)}

    def solve(self, inputs):
        return [_op(name, _run_cli, path)
                for name, path in inputs["configs"].items()]

    def check(self, inputs, ops):
        checks = _exit_checks(ops)
        done = {op["name"] for op in ops if not op["failed"]}
        out = os.path.dirname(inputs["configs"]["selfsimilar-balance"])
        if "selfsimilar-balance" in done:
            rows = _read_csv(os.path.join(out, "selfsimilar-balance",
                                          "selfsimilar_balance.csv"))
            k_ref = ref.k_closed_form(RADIAL_D, RADIAL_ALPHA, inputs["s"])
            checks.append(check_selfsimilar_ratios(
                [_csv_float(r["ratio"]) for r in rows], k_ref))
        if "dissipation-integral" in done:
            (row,) = _read_csv(os.path.join(out, "dissipation-integral",
                                            "dissipation_integral.csv"))
            checks.append(check_dissipation_integral(
                _csv_float(row["integral"]), RADIAL_D, RADIAL_ALPHA))
        return checks


# ---------------------------------------------------------------------------
# kernel-assembly: four kernel builds, each followed by a short evolution

KERNEL_D, KERNEL_ALPHA = 2, 0.5
KERNEL_GRID = (1e-2, 1e3, 64)
KERNEL_STEPS = 40
# far-field pairs sit well off the band the builder integrates per sub-cell
FAR_OFFSET = 8
KERNEL_CASES = (
    ("massive-absorbing", False, "absorbing", False),
    ("massive-closed", False, "closed", False),
    ("scalefree-absorbing", True, "absorbing", False),
    ("scalefree-scaled", True, "absorbing", True),
)


def check_kernel_structure(name, sigma):
    ok = (np.array_equal(sigma, sigma.T) and bool(np.all(sigma >= 0.0))
          and not np.any(np.diag(sigma)))
    return _check(f"{name}.symmetric_nonnegative_zero_diagonal", ok,
                  float(np.max(np.abs(sigma - sigma.T))), "exact")


def check_far_field(name, sigma, nodes, log_step, pairs, d, alpha, scale_free):
    worst = max(_rel(sigma[i, j], ref.far_field_sigma(nodes, log_step, i, j, d,
                                                      alpha, scale_free))
                for i, j in pairs)
    return _check(f"{name}.far_field_vs_quad", worst <= 1e-12, worst,
                  "rel <= 1e-12 against adaptive quadrature")


def check_scaled_rates(rates, scaled_rates, lam, alpha):
    expected = lam ** (2.0 - 2.0 * alpha) * np.asarray(rates)
    err = float(np.max(np.abs(np.asarray(scaled_rates) - expected))
                / np.max(np.abs(expected)))
    return _check("scalefree.rates_scale_as_lambda^(2-2alpha)", err <= 1e-11,
                  err, "max rel <= 1e-11")


def check_conservation(sigma, weights, values, rates):
    total = float(np.sum(weights * rates))
    scale = float(np.sum(sigma @ values) + np.sum(values * sigma.sum(axis=1)))
    rel = abs(total) / scale
    return _check("massive-closed.conserves_sum_w_rate", rel <= 1e-12, rel,
                  "rel <= 1e-12")


def check_balance(name, report, sigma, nodes, values, s):
    psi = nodes ** (-2.0 * s)
    scale = float(np.einsum("ij,ij->", sigma, np.abs(psi[None, :] - psi[:, None])
                            * np.abs(values)[:, None]))
    rel = abs(report.lhs - report.rhs) / scale
    return _check(f"{name}.balance_identity", rel <= 1e-12, rel, "rel <= 1e-12")


class KernelAssembly:
    name = "kernel-assembly"

    def make_inputs(self, seed, workdir):
        from kraichnan_lab import spectral
        from kraichnan_lab.specfun import ModelParams
        rng = np.random.default_rng(seed)
        s = float(rng.uniform(0.55, 0.9))
        lam = float(rng.uniform(1.5, 4.0))
        center = float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        lo, hi, n = KERNEL_GRID
        pairs = []
        while len(pairs) < 6:
            i, j = sorted(int(x) for x in rng.integers(0, n, size=2))
            if j - i >= FAR_OFFSET:
                pairs.append((i, j))
        grid = spectral.RadialGrid.log_spaced(lo, hi, n, KERNEL_D)
        scaled = spectral.RadialGrid.log_spaced(lam * lo, lam * hi, n, KERNEL_D)
        values = np.exp(-0.5 * (np.log(grid.nodes / center) / 0.5) ** 2)
        return {"s": s, "lam": lam, "pairs": pairs, "values": values,
                "params": ModelParams(d=KERNEL_D, alpha=KERNEL_ALPHA, s=s),
                "grid": grid, "scaled_grid": scaled}

    @staticmethod
    def _case(inputs, grid, selfsimilar, boundary):
        from kraichnan_lab import spectral
        from kraichnan_lab.errors import TruncationWarning
        params, s = inputs["params"], inputs["s"]
        kernel = spectral.build_kernel(grid, params, selfsimilar=selfsimilar,
                                       boundary=boundary)
        state = spectral.SpectrumState(grid=grid, values=inputs["values"],
                                       time=0.0, params=params)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            traj = spectral.evolve(state, kernel,
                                   KERNEL_STEPS * spectral.default_dt(kernel),
                                   trackers=[s])
        report = spectral.balance_check(traj.final_state, kernel, s)
        return kernel, traj, report

    def solve(self, inputs):
        return [_op(name, self._case, inputs,
                    inputs["scaled_grid"] if scaled else inputs["grid"],
                    selfsimilar, boundary)
                for name, selfsimilar, boundary, scaled in KERNEL_CASES]

    def check(self, inputs, ops):
        s, values = inputs["s"], inputs["values"]
        done = {op["name"]: op["result"] for op in ops if not op["failed"]}
        checks = []
        for name, (kernel, traj, report) in done.items():
            final = traj.final_state.values
            checks.append(check_kernel_structure(name, kernel.sigma))
            checks.append(check_balance(name, report, kernel.sigma,
                                        kernel.grid.nodes, final, s))
            checks.append(_check(f"{name}.evolve_nonnegative",
                                 final.min() >= -1e-12 * final.max(),
                                 float(final.min()), ">= -1e-12 * max"))
            if name in ("massive-absorbing", "scalefree-absorbing"):
                grid = kernel.grid
                checks.append(check_far_field(
                    name, kernel.sigma, grid.nodes, grid.log_step, inputs["pairs"],
                    KERNEL_D, KERNEL_ALPHA, kernel.selfsimilar))
        if "massive-closed" in done:
            kernel = done["massive-closed"][0]
            checks.append(check_conservation(kernel.sigma, kernel.grid.weights,
                                             values, kernel.rate(values)))
        if {"scalefree-absorbing", "scalefree-scaled"} <= set(done):
            checks.append(check_scaled_rates(
                done["scalefree-absorbing"][0].rate(values),
                done["scalefree-scaled"][0].rate(values),
                inputs["lam"], KERNEL_ALPHA))
        return checks


# ---------------------------------------------------------------------------
# lattice-mc: Euler-Maruyama ensemble at the acceptance suite's cadence

LATTICE_N_MAX, LATTICE_ALPHA = 16, 0.5
LATTICE_SAMPLES, LATTICE_STEPS, LATTICE_STRIDE = 32, 160, 5


def check_rate_agreement(direct, program):
    scale = max(abs(v) for v in direct.values())
    err = max(abs(direct[k] - program.get(k, math.inf)) for k in direct) / scale
    ok = set(direct) == set(program) and err <= 1e-12
    return _check("lattice.direct_sum_vs_lattice_master_rate", ok, err,
                  "max rel <= 1e-12")


def check_rates_within_3_sigma(modes, emp, se, direct):
    scale = max(abs(v) for v in direct.values())
    hits = sum(abs(e - direct[(int(kx), int(ky))]) <= 3.0 * s + 1e-9 * scale
               for (kx, ky), e, s in zip(modes, emp, se))
    frac = hits / len(modes)
    return _check("lattice.rates_within_3_sigma", frac >= 0.95, frac,
                  ">= 0.95 of modes")


class LatticeMC:
    name = "lattice-mc"

    def make_inputs(self, seed, workdir):
        from kraichnan_lab import mc_spde
        probe = mc_spde.build_noise_modes(mc_spde.LatticeConfig(
            n_max=LATTICE_N_MAX, alpha=LATTICE_ALPHA, dt=1.0, n_samples=1))
        dt = 0.1 / float(probe.corrector_grid.max())
        cfg = mc_spde.LatticeConfig(n_max=LATTICE_N_MAX, alpha=LATTICE_ALPHA,
                                    dt=dt, n_samples=LATTICE_SAMPLES, seed=seed)
        noise = mc_spde.build_noise_modes(cfg)
        modes = {(kx, ky): 1.0 / (1.0 + kx * kx + ky * ky)
                 for kx in range(-2, 3) for ky in range(-2, 3) if (kx, ky) != (0, 0)}
        records = [k * LATTICE_STRIDE * dt
                   for k in range(LATTICE_STEPS // LATTICE_STRIDE + 1)]
        return {"cfg": cfg, "noise": noise, "t_final": LATTICE_STEPS * dt,
                "initial": mc_spde.FieldSample.from_modes(noise, modes),
                "records": records}

    @staticmethod
    def _master_rate(noise, stats):
        """lattice_master_rate at the midpoint spectrum of the last interval."""
        from kraichnan_lab import mc_spde
        last = stats[-1].spectrum_map()
        mid = {k: 0.5 * (v + last.get(k, 0.0))
               for k, v in stats[-2].spectrum_map().items()}
        return mid, mc_spde.lattice_master_rate(noise, mid)

    def solve(self, inputs):
        from kraichnan_lab import mc_spde
        ens = _op("ensemble", mc_spde.run_ensemble, inputs["cfg"],
                  inputs["initial"], inputs["t_final"], inputs["records"])
        if ens["failed"]:
            return [ens, {"name": "master-rate", "failed": True,
                          "error": "not run: the ensemble failed"}]
        return [ens, _op("master-rate", self._master_rate, inputs["noise"],
                         ens["result"])]

    def check(self, inputs, ops):
        if any(op["failed"] for op in ops):
            return []
        stats = ops[0]["result"]
        mid, program = ops[1]["result"]
        last = stats[-1]
        direct = ref.lattice_rates(LATTICE_N_MAX, LATTICE_ALPHA, mid)
        dropped = sum(st.n_invalid for st in stats)
        return [
            _check("lattice.records", len(stats) == len(inputs["records"]),
                   len(stats), f"== {len(inputs['records'])}"),
            _check("lattice.no_dropped_samples", dropped == 0, dropped, "== 0"),
            check_rate_agreement(direct, program),
            check_rates_within_3_sigma(last.modes, last.diff_mean / last.diff_dt,
                                       last.diff_std_err / last.diff_dt, direct),
        ]


# ---------------------------------------------------------------------------
# constants: k-constants and asymptotics configs through the CLI

# the appendix route's cost depends on (d, alpha) only and varies by 1.6x
# over alpha, so its point keeps alpha fixed and the seed moves s; the other
# points draw alpha and s
APPENDIX_D, APPENDIX_ALPHA = 2, 0.55
ASYMPTOTICS_GRID = {"rho_min": 1.0, "rho_max": 1000.0, "nodes": 16}


def check_k_routes(routes, k_ref, expect_appendix):
    tol = {"gamma": 1e-12, "integral": 1e-6, "appendix": 1e-4}
    want = {"gamma", "integral"} | ({"appendix"} if expect_appendix else set())
    errs = {r: _rel(v, k_ref) for r, v in routes.items()}
    ok = set(routes) == want and all(errs[r] <= tol[r] for r in errs)
    return _check("k_constants.routes_vs_closed_form", ok, errs,
                  "gamma 1e-12, integral 1e-6, appendix 1e-4")


def check_residual_slope(xi, F, d, alpha, s):
    k_ref = ref.k_closed_form(d, alpha, s)
    xi, F = np.asarray(xi), np.asarray(F)
    res = np.abs(F + k_ref * xi ** (2.0 - 2.0 * alpha - 2.0 * s)) * xi ** (2.0 * s)
    sel = (xi >= 10.0) & (res > 0)
    slope = (float(np.polyfit(np.log(xi[sel]), np.log(res[sel]), 1)[0])
             if sel.sum() >= 2 else math.inf)
    return _check("asymptotics.residual_slope", slope <= 0.1, slope,
                  "<= 0.1 past |xi| = 10")


class Constants:
    name = "constants"

    def make_inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        points = {"k-constants-appendix-d2": (
            "k-constants", APPENDIX_D, APPENDIX_ALPHA, float(rng.uniform(0.6, 0.9)))}
        for d in (2, 3):
            points[f"k-constants-d{d}"] = (
                "k-constants", d, float(rng.uniform(0.3, 0.5)),
                float(rng.uniform(0.2, 0.45)))
        # in this box the quadrature work of the table varies by 6% (cv);
        # over alpha in [0.4, 0.6], s in [0.6, 0.9] it varies by 15%
        points["asymptotics-d2"] = ("asymptotics", 2, float(rng.uniform(0.45, 0.55)),
                                    float(rng.uniform(0.65, 0.8)))
        configs = {}
        for name, (experiment, d, alpha, s) in points.items():
            configs[name] = {"experiment": experiment, "d": d, "alpha": alpha, "s": s}
            if experiment == "asymptotics":
                configs[name]["grid"] = ASYMPTOTICS_GRID
        return {"points": points, "configs": _write_configs(configs, workdir)}

    def solve(self, inputs):
        return [_op(name, _run_cli, path)
                for name, path in inputs["configs"].items()]

    def check(self, inputs, ops):
        checks = _exit_checks(ops)
        for op in ops:
            if op["failed"]:
                continue
            experiment, d, alpha, s = inputs["points"][op["name"]]
            out = os.path.join(os.path.dirname(inputs["configs"][op["name"]]),
                               op["name"])
            if experiment == "k-constants":
                rows = _read_csv(os.path.join(out, "k_constants.csv"))
                check = check_k_routes({r["route"]: _csv_float(r["value"]) for r in rows},
                                       ref.k_closed_form(d, alpha, s),
                                       s + alpha > 1.0)
            else:
                rows = _read_csv(os.path.join(out, "asymptotics.csv"))
                check = check_residual_slope([_csv_float(r["xi"]) for r in rows],
                                             [_csv_float(r["F"]) for r in rows],
                                             d, alpha, s)
            check["id"] = f"{op['name']}.{check['id']}"
            checks.append(check)
        return checks


WORKLOADS = {w.name: w for w in (RadialDecay(), KernelAssembly(), LatticeMC(),
                                  Constants())}
