import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from sdlab.cli import (
    SCENARIOS,
    ConfigError,
    _null_nonfinite,
    main,
    validate_config_data,
)
from sdlab.grids import read_field


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def baseline_run(runner, tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    result = runner.invoke(main, ["run", "--scenario", "brownian-baseline", "--out", str(out)])
    return result, out


def test_list_scenarios(runner):
    result = runner.invoke(main, ["list-scenarios"])
    assert result.exit_code == 0
    for name in SCENARIOS:
        assert name in result.output


def test_validate_config_accepts_scenario_dump(runner, tmp_path):
    path = tmp_path / "good.yaml"
    path.write_text(yaml.safe_dump(SCENARIOS["brownian-baseline"]))
    result = runner.invoke(main, ["validate-config", str(path)])
    assert result.exit_code == 0
    assert "ok" in result.output


def test_validate_config_rejects_unknown_key(runner, tmp_path):
    cfg = dict(SCENARIOS["brownian-baseline"])
    cfg["typo_section"] = {"a": 1}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    result = runner.invoke(main, ["validate-config", str(path)])
    assert result.exit_code == 2
    assert "typo_section" in result.output


def test_validate_config_rejects_nested_unknown_and_bad_version():
    with pytest.raises(ConfigError):
        validate_config_data({"schema_version": 1, "grid": {"dim": 2, "warp": 9}, "drift": {}})
    with pytest.raises(ConfigError):
        validate_config_data({"schema_version": 99, "grid": {}, "drift": {}})
    with pytest.raises(ConfigError):
        validate_config_data({"schema_version": 1, "grid": {}, "drift": {},
                              "verifiers": [{"name": "x", "tolerance": -1}]})


def test_run_requires_exactly_one_source(runner):
    assert runner.invoke(main, ["run"]).exit_code != 0


def test_baseline_scenario_passes(baseline_run):
    result, out = baseline_run
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["all_passed"]
    assert {"solution", "ensemble", "reports"} <= set(manifest["artifacts"])
    for art in manifest["artifacts"].values():
        assert Path(art["path"]).exists()
        assert len(art["sha256"]) == 64
    names = [v["name"] for v in manifest["verifiers"]]
    assert names == ["brownian-variance", "density-ks", "feynman_kac", "max-principle"]
    assert all(v["passed"] for v in manifest["verifiers"])


def test_baseline_artifacts_deterministic(runner, baseline_run, tmp_path):
    _, out1 = baseline_run
    out2 = tmp_path / "again"
    result = runner.invoke(main, ["run", "--scenario", "brownian-baseline", "--out", str(out2)])
    assert result.exit_code == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]
    for name in m1["artifacts"]:
        assert m1["artifacts"][name]["sha256"] == m2["artifacts"][name]["sha256"]


def test_unit_diffusion_control_fails(runner, tmp_path):
    result = runner.invoke(main, ["run", "--scenario", "unit-diffusion-control",
                                  "--out", str(tmp_path / "ctl")])
    assert result.exit_code == 1
    assert "FAIL" in result.output
    manifest = json.loads((tmp_path / "ctl" / "manifest.json").read_text())
    assert not manifest["all_passed"]


def test_emit_plots_writes_columnar_files(runner, baseline_run):
    _, out = baseline_run
    result = runner.invoke(main, ["emit-plots", str(out / "manifest.json")])
    assert result.exit_code == 0
    dat = out / "density_slices.dat"
    assert dat.exists()
    lines = dat.read_text().splitlines()
    assert lines[0].startswith("#")
    assert all(len(line.split()) == 3 for line in lines[1:])


def test_emit_plots_missing_reports(runner, tmp_path):
    manifest = {"artifacts": {}, "stages": []}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    result = runner.invoke(main, ["emit-plots", str(path)])
    assert result.exit_code == 2


def test_unknown_verifier_reported_failed(runner, tmp_path):
    cfg = {
        "schema_version": 1,
        "name": "bad-verifier",
        "seed": 3,
        "grid": {"dim": 2, "extent": 8.0, "points": 16, "t0": 0.0, "t1": 0.2, "steps": 20},
        "drift": {"kind": "zero"},
        "ensemble": {"start": [0.0, 0.0], "s": 0.0, "horizon": 0.2, "dt": 0.01,
                     "paths": 200, "store_stride": 20},
        "verifiers": [{"name": "nonexistent-check"}],
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    result = runner.invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    reports = (tmp_path / "o" / "reports.jsonl").read_text().splitlines()
    rep = json.loads(reports[0])
    assert not rep["passed"]
    assert "unknown verifier" in rep["error"]


@pytest.mark.parametrize("dim", [1, 3])
def test_bump_source_outside_2d(runner, tmp_path, dim):
    cfg = {
        "schema_version": 1,
        "name": f"bump-{dim}d",
        "seed": 3,
        "grid": {"dim": dim, "extent": 4.0, "points": 8, "t0": 0.0, "t1": 0.1, "steps": 4},
        "drift": {"kind": "zero"},
        "source": {"kind": "bump", "width": 0.5},
        "pde": {"direction": "backward"},
        "verifiers": [{"name": "max-principle"}],
    }
    path = tmp_path / "bump.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "run"
    result = runner.invoke(main, ["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    solution = read_field(out / "solution.sdlf")
    assert solution.values.shape == (5,) + (8,) * dim


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("ignore:All-NaN slice")
def test_failed_theta_fit_writes_strict_json(runner, tmp_path):
    cfg = {
        "schema_version": 1,
        "name": "krylov-one-delta",
        "seed": 3,
        "grid": {"dim": 2, "extent": 4.0, "points": 8, "t0": 0.0, "t1": 0.2, "steps": 4},
        "drift": {"kind": "zero"},
        "ensemble": {"start": [0.0, 0.0], "s": 0.0, "horizon": 0.1, "dt": 0.01,
                     "paths": 200, "store_stride": 10},
        "verifiers": [{"name": "krylov", "deltas": [0.1]}],  # one delta: theta cannot be fitted
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "o"
    result = runner.invoke(main, ["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 1, result.output
    lines = (out / "reports.jsonl").read_text().splitlines()
    rep = json.loads(lines[0], parse_constant=_reject_constant)
    assert rep["meta_theta"] is None and not rep["passed"]
    assert rep["nonfinite"] == ["rhs", "constant", "meta_theta", "meta_uniform_ratio"]
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert manifest["verifiers"] == [rep]


def test_null_nonfinite_paths_and_finite_records():
    rec = {"a": 1.5, "b": [np.float32("inf"), {"c": np.nan, "d": 2}], "e": -np.inf}
    assert _null_nonfinite(rec) == {"a": 1.5, "b": [None, {"c": None, "d": 2}], "e": None,
                                    "nonfinite": ["b[0]", "b[1].c", "e"]}
    finite = {"x": 0.1, "y": [1, 2.5], "z": {"w": True}}
    assert json.dumps(_null_nonfinite(finite)) == json.dumps(finite)
