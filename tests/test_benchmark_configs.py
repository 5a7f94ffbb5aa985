"""The CLI configs the benchmark writes (perfbench/workloads.py) pass
`validate`, so a config refusal that would fail a benchmark round fails
here first."""

import importlib
import os

import pytest

from kraichnan_lab import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["RadialDecay", "Constants"])
def test_benchmark_configs_validate(tmp_path, monkeypatch, capsys, workload, seed):
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    inputs = getattr(workloads, workload)().make_inputs(seed, str(tmp_path))
    assert inputs["configs"]
    for name, path in inputs["configs"].items():
        assert cli.validate(path) == 0, f"{name}: {capsys.readouterr().err}"
