"""Experiment runner: schema validation, exit codes, artifact layout,
reproducibility."""

import csv
import glob
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from kraichnan_lab import cli
from kraichnan_lab.errors import TruncationWarning

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "scripts", "configs")


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {"experiment": "flux-table", "d": 2, "alpha": 0.5, "s": 0.75}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestValidate:
    def test_ok_echoes_resolved_defaults(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert cli.main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok")
        resolved = json.loads(out.split("\n", 1)[1])
        assert "m" not in resolved
        assert resolved["grid"]["nodes"] == 512

    def test_mass_field_rejected(self, tmp_path, capsys):
        # the kernel and the flux always use unit mass, so a config mass
        # would be reported without being used
        path = write_cfg(tmp_path, m=0.0)
        assert cli.main(["validate", path]) == 2
        assert "schema" in capsys.readouterr().err

    def test_alpha_out_of_range(self, tmp_path, capsys):
        path = write_cfg(tmp_path, alpha=1.5)
        assert cli.main(["validate", path]) == 2
        assert "alpha must lie in (0,1)" in capsys.readouterr().err

    def test_s_at_open_boundary(self, tmp_path, capsys):
        path = write_cfg(tmp_path, s=1.0)
        assert cli.main(["validate", path]) == 2
        assert "s in (0, d/2)" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, bogus=1)
        assert cli.main(["validate", path]) == 2
        assert "schema" in capsys.readouterr().err

    def test_unknown_experiment_rejected(self, tmp_path):
        path = write_cfg(tmp_path, experiment="nope")
        assert cli.main(["validate", path]) == 2

    def test_unreadable_config(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "missing.json")]) == 2


class TestSchema:
    def test_schema_passes_its_metaschema(self):
        # the metaschema check, run once here instead of once per config
        cls = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
        assert cls is jsonschema.Draft202012Validator
        cls.check_schema(cli.CONFIG_SCHEMA)

    def test_runs_skip_the_metaschema_check(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("check_schema ran for a config")
        cls = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)
        monkeypatch.setattr(cls, "check_schema", refuse)
        path = write_cfg(tmp_path, experiment="k-constants", alpha=0.25, s=0.5)
        assert cli.main(["validate", path]) == 0
        assert cli.main(["run", path, "--output-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("overrides", [
        {"bogus": 1, "d": 2.5},
        # the nested grid error comes first, the top-level seed error wins
        {"grid": {"rho_min": 1.0, "rho_max": 2.0, "nodes": 1.5}, "seed": "x"},
    ], ids=["unknown-field-and-fractional-d", "nested-error-first"])
    def test_message_is_the_best_match(self, tmp_path, capsys, overrides):
        # two violations: the message is the one jsonschema.validate picks
        path = write_cfg(tmp_path, **overrides)
        with open(path) as fh:
            raw = json.load(fh)
        with pytest.raises(jsonschema.ValidationError) as exc:
            jsonschema.validate(raw, cli.CONFIG_SCHEMA)
        expected = f"config error: config schema violation: {exc.value.message}\n"
        assert cli.main(["validate", path]) == 2
        assert capsys.readouterr().err == expected
        assert cli.main(["run", path, "--output-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == expected


# configs the schema accepts but no experiment can set up
UNRUNNABLE = {
    "spectral-evolve-reversed-grid": {
        "experiment": "spectral-evolve",
        "grid": {"rho_min": 10.0, "rho_max": 1.0, "nodes": 16}},
    "selfsimilar-balance-one-node": {
        "experiment": "selfsimilar-balance",
        "grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 1}},
    "selfsimilar-balance-no-nodes": {
        "experiment": "selfsimilar-balance",
        "grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 0}},
    "mc-ensemble-3d": {
        "experiment": "mc-ensemble", "d": 3, "s": 0.5,
        "time": {"t_final": 12e-4},
        "lattice": {"n_max": 4, "n_samples": 64, "dt": 1e-4}},
    "mc-ensemble-under-half-a-step": {
        "experiment": "mc-ensemble", "s": 0.5, "time": {"t_final": 1e-5},
        "lattice": {"n_max": 4, "n_samples": 64, "dt": 1e-4}},
    # a table of no rows would pass with no check run
    "flux-table-no-nodes": {
        "grid": {"rho_min": 1.0, "rho_max": 10.0, "nodes": 0}},
    "flux-table-reversed-grid": {
        "grid": {"rho_min": 10.0, "rho_max": 1.0, "nodes": 4}},
    # the residual slope is fitted over |xi| >= 10 and needs two such nodes
    "asymptotics-below-slope-window": {
        "experiment": "asymptotics",
        "grid": {"rho_min": 1.0, "rho_max": 5.0, "nodes": 8}},
    "asymptotics-one-node": {
        "experiment": "asymptotics",
        "grid": {"rho_min": 20.0, "rho_max": 20.0, "nodes": 1}},
    # the comparison with K runs the scale-free kernel only
    "dissipation-integral-massive": {
        "experiment": "dissipation-integral", "selfsimilar": False,
        "grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 32}},
    # ... and compares with the inviscid K
    "selfsimilar-balance-viscous": {
        "experiment": "selfsimilar-balance", "nu": 0.01,
        "grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 32}},
    "dissipation-integral-viscous": {
        "experiment": "dissipation-integral", "nu": 0.01,
        "grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 32}},
    "asymptotics-no-nodes": {
        "experiment": "asymptotics",
        "grid": {"rho_min": 1.0, "rho_max": 1e3, "nodes": 0}},
    # an experiment refuses every optional field it does not read: selfsimilar
    # and nu belong to the radial kernel, which k-constants does not build
    "k-constants-selfsimilar": {"experiment": "k-constants", "selfsimilar": True},
    "k-constants-nu": {"experiment": "k-constants", "nu": 0.01},
    "k-constants-lattice": {
        "experiment": "k-constants",
        "lattice": {"n_max": 4, "n_samples": 64, "dt": 1e-4}},
    "k-constants-trackers": {"experiment": "k-constants", "trackers": [0.5]},
    "k-constants-time": {"experiment": "k-constants", "time": {"t_final": 1.0}},
    "k-constants-seed": {"experiment": "k-constants", "seed": 1},
    "flux-table-nu": {"nu": 0.0},
    "flux-table-seed": {"seed": 1},
    "asymptotics-nu": {"experiment": "asymptotics", "nu": 0.01},
    "selfsimilar-balance-trackers": {
        "experiment": "selfsimilar-balance", "trackers": [0.75],
        "grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 32}},
    "dissipation-integral-trackers": {
        "experiment": "dissipation-integral", "trackers": [0.75],
        "grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 32}},
    "mc-ensemble-nu": {
        "experiment": "mc-ensemble", "s": 0.5, "nu": 0.01,
        "time": {"t_final": 12e-4},
        "lattice": {"n_max": 4, "n_samples": 64, "dt": 1e-4}},
    "mc-ensemble-reversed-grid": {
        "experiment": "mc-ensemble", "s": 0.5,
        "grid": {"rho_min": 5.0, "rho_max": 1.0, "nodes": 8},
        "time": {"t_final": 12e-4},
        "lattice": {"n_max": 4, "n_samples": 64, "dt": 1e-4}},
}


class TestSetUp:
    @pytest.mark.parametrize("overrides", UNRUNNABLE.values(), ids=UNRUNNABLE)
    def test_validate_and_run_refuse_alike(self, tmp_path, capsys, overrides):
        path = write_cfg(tmp_path, **overrides)
        assert cli.main(["validate", path]) == 2
        refused = capsys.readouterr()
        assert refused.out == "" and refused.err.startswith("config error: ")
        assert refused.err.count("\n") == 1
        out = tmp_path / "out"
        assert cli.main(["run", path, "--output-dir", str(out)]) == 2
        assert capsys.readouterr() == refused
        assert not out.exists()

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS, "*.json"))),
                             ids=os.path.basename)
    def test_shipped_config_validates(self, path):
        assert cli.main(["validate", path]) == 0


class TestTableWriter:
    def test_cell_rules(self):
        # strings verbatim, integers in decimal, other numbers by float repr
        table = cli._csv(("a", "b", "c", "d", "e"),
                         [(1, np.int64(3), np.float64(0.1), 1e-300, "gamma")])
        assert table == "a,b,c,d,e\n1,3,0.1,1e-300,gamma\n"

    def test_header_alone(self):
        assert cli._csv(("t", "ratio"), []) == "t,ratio\n"

    def test_too_few_residuals_fail_the_slope(self):
        # a zero residual leaves one usable point: no slope, no pass
        slope = cli._residual_slope([10.0, 20.0, 40.0], [0.0, 0.0, 1e-3])
        assert math.isnan(slope) and not slope <= 0.1


def test_python_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "kraichnan_lab", "validate",
         os.path.join(CONFIGS, "k_constants.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok")
    assert "RuntimeWarning" not in proc.stderr


class TestRun:
    def test_malformed_config_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, alpha=1.5)
        assert cli.main(["run", path]) == 2

    def test_k_constants_summary(self, tmp_path):
        path = write_cfg(tmp_path, experiment="k-constants", alpha=0.75,
                         s=0.75)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        ids = {c["id"] for c in summary["checks"]}
        assert {"k.gamma_positive", "k.gamma_vs_integral",
                "k.gamma_vs_appendix"} <= ids
        assert summary["passed"] is True
        body = (out / "k_constants.csv").read_text().strip().split("\n")
        assert body[0] == "route,value" and len(body) == 4

    def test_k_constants_without_appendix_route(self, tmp_path):
        # s + alpha <= 1: the real-space route does not apply, so no row
        path = write_cfg(tmp_path, experiment="k-constants", alpha=0.25,
                         s=0.5)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--output-dir", str(out)]) == 0
        with open(out / "k_constants.csv", newline="") as fh:
            routes = [row["route"] for row in csv.DictReader(fh)]
        assert routes == ["gamma", "integral"]
        summary = json.loads((out / "summary.json").read_text())
        assert [c["id"] for c in summary["checks"]] == [
            "k.gamma_positive", "k.gamma_vs_integral"]

    @pytest.mark.parametrize("overrides,table", [
        ({"grid": {"rho_min": 1.0, "rho_max": 30.0, "nodes": 4}},
         "flux_table.csv"),
        # the two below read the kernel's LAPACK eigendecomposition
        ({"experiment": "selfsimilar-balance", "selfsimilar": True,
          "grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 64},
          "time": {"t_final": 0.5}},
         "selfsimilar_balance.csv"),
        ({"experiment": "dissipation-integral", "selfsimilar": True,
          "grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 64}},
         "dissipation_integral.csv"),
        # three strides of MC_RECORD_STRIDE steps: records 0, 5, 10, 15
        ({"experiment": "mc-ensemble", "s": 0.5, "time": {"t_final": 1.5e-3},
          "lattice": {"n_max": 4, "n_samples": 64, "dt": 1e-4}, "seed": 1},
         "ensemble_t3.csv"),
    ], ids=["flux-table", "selfsimilar-balance", "dissipation-integral",
            "mc-ensemble"])
    def test_rerun_byte_identical(self, tmp_path, overrides, table):
        path = write_cfg(tmp_path, **overrides)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["run", path, "--output-dir", str(out1)]) == 0
        assert cli.main(["run", path, "--output-dir", str(out2)]) == 0
        assert (out1 / table).read_bytes() == (out2 / table).read_bytes()
        assert (out1 / "summary.json").read_bytes() == \
            (out2 / "summary.json").read_bytes()

    @pytest.mark.parametrize("overrides,table", [
        ({"experiment": "k-constants", "alpha": 0.75, "s": 0.75},
         "k_constants.csv"),
        ({"grid": {"rho_min": 1.0, "rho_max": 30.0, "nodes": 4}},
         "flux_table.csv"),
        ({"experiment": "asymptotics",
          "grid": {"rho_min": 10.0, "rho_max": 1000.0, "nodes": 4}},
         "asymptotics.csv"),
    ])
    def test_tables_hold_plain_floats(self, tmp_path, overrides, table):
        path = write_cfg(tmp_path, **overrides)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--output-dir", str(out)]) == 0
        with open(out / table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            for key, cell in row.items():
                if key != "route":
                    float(cell)

    def test_selfsimilar_samples_ignore_time_dt(self, tmp_path):
        # samples at t_final (i+1)/11 even when time.dt exceeds t_final
        path = write_cfg(tmp_path, experiment="selfsimilar-balance",
                         selfsimilar=True,
                         grid={"rho_min": 1e-2, "rho_max": 1e3, "nodes": 64},
                         time={"t_final": 0.1, "dt": 1.0})
        out = tmp_path / "out"
        assert cli.main(["run", path, "--output-dir", str(out)]) == 0
        with open(out / "selfsimilar_balance.csv", newline="") as fh:
            times = [float(row["t"]) for row in csv.DictReader(fh)]
        assert len(times) == 10 and max(times) <= 0.1

    @pytest.mark.parametrize("experiment,selfsimilar", [
        ("selfsimilar-balance", True), ("dissipation-integral", True),
        ("spectral-evolve", False)])
    def test_manifest_records_the_kernel_run(self, tmp_path, experiment,
                                             selfsimilar):
        # a config without "selfsimilar" or "nu" records the kernel the
        # runner builds
        path = write_cfg(tmp_path, experiment=experiment,
                         grid={"rho_min": 1e-2, "rho_max": 1e3, "nodes": 32},
                         time={"t_final": 0.1})
        out = tmp_path / "out"
        assert cli.main(["run", path, "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["selfsimilar"] is selfsimilar
        assert manifest["config"]["nu"] == 0.0

    # the optional fields each experiment reads, on small inputs
    READS = {
        "k-constants": ({}, set()),
        "flux-table": ({"grid": {"rho_min": 1.0, "rho_max": 1.0, "nodes": 1}},
                       {"grid"}),
        "asymptotics": ({}, {"grid"}),
        "spectral-evolve": (
            {"grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 32},
             "time": {"t_final": 0.1}},
            {"grid", "time", "trackers", "selfsimilar", "nu"}),
        "selfsimilar-balance": (
            {"grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 32}},
            {"grid", "time", "selfsimilar", "nu"}),
        "dissipation-integral": (
            {"grid": {"rho_min": 1e-2, "rho_max": 1e3, "nodes": 32}},
            {"grid", "time", "selfsimilar", "nu"}),
        "mc-ensemble": (
            {"s": 0.5, "time": {"t_final": 1.5e-3},
             "lattice": {"n_max": 4, "n_samples": 64, "dt": 1e-4}},
            {"time", "lattice", "seed"}),
    }

    @pytest.mark.parametrize("experiment", READS)
    def test_manifest_records_what_the_experiment_reads(self, tmp_path,
                                                        experiment):
        overrides, reads = self.READS[experiment]
        assert set(cli.EXPERIMENTS[experiment][1]) == reads
        path = write_cfg(tmp_path, experiment=experiment, **overrides)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["config"]) == {"experiment", "d", "alpha", "s"} | reads

    def test_output_dir_from_config(self, tmp_path):
        out = tmp_path / "from_cfg"
        path = write_cfg(tmp_path, output_dir=str(out),
                         grid={"rho_min": 1.0, "rho_max": 1.0, "nodes": 1})
        assert cli.main(["run", path]) == 0
        assert (out / "summary.json").exists()


class TestSmallSpectralRun:
    CFG = {
        "experiment": "spectral-evolve", "d": 2, "alpha": 0.5, "s": 0.75,
        "grid": {"rho_min": 5e-2, "rho_max": 20.0, "nodes": 64},
        "time": {"t_final": 0.02},
        "trackers": [0.75, 0.25],
    }

    @staticmethod
    def _run(tmp_path, recwarn, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
        assert not [w for w in recwarn if w.category is TruncationWarning]
        return out, json.loads((out / "summary.json").read_text())

    def test_spectral_evolve_small(self, tmp_path, recwarn):
        out, summary = self._run(tmp_path, recwarn, self.CFG)
        traj = (out / "trajectory.csv").read_text().strip().split("\n")
        assert traj[0] == "t,mass,norm_0.25,norm_0.75,boundary_fraction"
        assert len(traj) > 2
        assert summary["diagnostics"] == {"truncated": False,
                                          "truncation_time": None}

    def test_truncation_recorded_not_checked(self, tmp_path, recwarn):
        # by t = 10 the outer 5% of this grid holds too much mass: evolve
        # stops there, and the summary records when without failing a check
        cfg = dict(self.CFG, time={"t_final": 10.0})
        _, summary = self._run(tmp_path, recwarn, cfg)
        assert summary["passed"] is True
        assert summary["diagnostics"]["truncated"] is True
        assert summary["diagnostics"]["truncation_time"] == pytest.approx(5.09, abs=0.01)

    def test_shipped_config_does_not_truncate(self, tmp_path, recwarn):
        with open(os.path.join(CONFIGS, "spectral_evolve.json")) as fh:
            cfg = json.load(fh)
        _, summary = self._run(tmp_path, recwarn, cfg)
        assert summary["diagnostics"] == {"truncated": False,
                                          "truncation_time": None}


class TestSmallMcEnsemble:
    def test_records_every_stride_steps(self, tmp_path):
        # 12 steps: records at steps 0, 5, 10 and the final step 12
        dt = 1e-4
        cfg = {
            "experiment": "mc-ensemble", "d": 2, "alpha": 0.5, "s": 0.5,
            "time": {"t_final": 12 * dt},
            "lattice": {"n_max": 4, "n_samples": 64, "dt": dt},
            "seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--output-dir", str(out)]) in (0, 1)
        tables = sorted(p.name for p in out.iterdir()
                        if p.name.startswith("ensemble_t"))
        assert tables == [f"ensemble_t{i}.csv" for i in range(4)]
        n = cfg["lattice"]["n_max"]
        for name in tables:
            lines = (out / name).read_text().splitlines()
            # the half band: every ky, and kx = 0..n
            assert lines[0] == "t,kx,ky,mean_sq,std_err"
            assert len(lines) == 1 + (2 * n + 1) * (n + 1)
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                for cell in row.values():
                    float(cell)
        summary = json.loads((out / "summary.json").read_text())
        assert [c["id"] for c in summary["checks"]] == ["mc.master_equation_rates"]

    def test_three_dimensional_config_exits_2(self, tmp_path, capsys):
        # the lattice is 2-d only; a config asking for d = 3 is refused
        # instead of running the 2-d lattice
        cfg = {
            "experiment": "mc-ensemble", "d": 3, "alpha": 0.5, "s": 0.5,
            "time": {"t_final": 12e-4},
            "lattice": {"n_max": 4, "n_samples": 64, "dt": 1e-4},
            "seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--output-dir",
                         str(tmp_path / "out")]) == 2
        assert "2-d only" in capsys.readouterr().err

    def test_run_shorter_than_half_a_step_exits_2(self, tmp_path):
        # t_final < dt / 2 rounds to zero steps: a single record, no rate
        cfg = {
            "experiment": "mc-ensemble", "d": 2, "alpha": 0.5, "s": 0.5,
            "time": {"t_final": 1e-4},
            "lattice": {"n_max": 4, "n_samples": 8, "dt": 1e-3},
            "seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--output-dir",
                         str(tmp_path / "out")]) == 2
