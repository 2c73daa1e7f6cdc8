import copy
import json
import re
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


def _artifact_hashes(outdir):
    manifest = json.loads((outdir / "manifest.json").read_text())
    return {name: art["sha256"] for name, art in manifest["artifacts"].items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_validate_config_accepts_scenario_dump(runner, tmp_path, name):
    path = tmp_path / "good.yaml"
    path.write_text(yaml.safe_dump(SCENARIOS[name]))
    result = runner.invoke(main, ["validate-config", str(path)])
    assert result.exit_code == 0
    assert "ok" in result.output
    # --config and --scenario are one code path: the same artifacts, bit for bit
    codes = [runner.invoke(main, ["run", *how, "--out", str(tmp_path / out)]).exit_code
             for how, out in [(["--config", str(path)], "c"), (["--scenario", name], "s")]]
    assert codes[0] == codes[1] == (1 if name == "unit-diffusion-control" else 0)
    assert _artifact_hashes(tmp_path / "c") == _artifact_hashes(tmp_path / "s")


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
    assert result.exit_code == 2
    assert "unknown verifier" in result.output
    assert not (tmp_path / "o").exists()


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


def test_failed_theta_fit_writes_strict_json(runner, tmp_path):
    cfg = {
        "schema_version": 1,
        "name": "khasminskii-overflow",
        "seed": 3,
        "grid": {"dim": 2, "extent": 4.0, "points": 8, "t0": 0.0, "t1": 0.2, "steps": 4},
        "drift": {"kind": "zero"},
        "source": {"kind": "ones"},
        "ensemble": {"start": [0.0, 0.0], "s": 0.0, "horizon": 0.1, "dt": 0.01,
                     "paths": 200, "store_stride": 10},
        # exp(1000 * 1) overflows: the report carries inf and NaN
        "verifiers": [{"name": "khasminskii", "lambda": 1000}],
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "o"
    result = runner.invoke(main, ["run", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 1, result.output
    lines = (out / "reports.jsonl").read_text().splitlines()
    rep = json.loads(lines[0], parse_constant=_reject_constant)
    assert rep["lhs"] is None and rep["constant"] is None and not rep["passed"]
    assert rep["nonfinite"] == ["lhs", "se", "rhs", "constant"]
    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=_reject_constant)
    assert manifest["verifiers"] == [rep]


def test_null_nonfinite_paths_and_finite_records():
    rec = {"a": 1.5, "b": [np.float32("inf"), {"c": np.nan, "d": 2}], "e": -np.inf}
    assert _null_nonfinite(rec) == {"a": 1.5, "b": [None, {"c": None, "d": 2}], "e": None,
                                    "nonfinite": ["b[0]", "b[1].c", "e"]}
    finite = {"x": 0.1, "y": [1, 2.5], "z": {"w": True}}
    assert json.dumps(_null_nonfinite(finite)) == json.dumps(finite)


def _probe(change):
    cfg = copy.deepcopy(SCENARIOS["brownian-baseline"])
    change(cfg)
    return cfg


# brownian-baseline with one fault each, and the words the rejection must name
PROBES = {
    "points-30": (lambda c: c["grid"].update(points=30), ["grid", "points", "30"]),
    "radial-without-c": (lambda c: c.update(drift={"kind": "radial"}), ["drift", "'c'"]),
    "tolerance": (lambda c: c["verifiers"][0].update(tolerance=0.1), ["verifiers[0]", "tolerance"]),
    "no-dt": (lambda c: c["ensemble"].pop("dt"), ["ensemble", "'dt'"]),
    "no-ensemble": (lambda c: c.pop("ensemble"), ["ensemble", "brownian-variance"]),
    "spiral": (lambda c: c["drift"].update(kind="spiral"), ["drift", "spiral"]),
    "implcit": (lambda c: c["pde"].update(scheme="implcit"), ["pde", "scheme"]),
    "one-delta": (lambda c: c["verifiers"].append({"name": "krylov", "deltas": [0.1]}),
                  ["verifiers[4]", "deltas"]),
    "3d-start": (lambda c: c["ensemble"].update(start=[0.0, 0.0, 0.0]), ["ensemble", "start"]),
    "off-grid-horizon": (lambda c: c["ensemble"].update(horizon=0.3, dt=0.04),
                         ["ensemble", "horizon", "dt"]),
    "paths-string": (lambda c: c["ensemble"].update(paths="400"), ["ensemble", "paths"]),
    "unknown-top-level": (lambda c: c.update(typo=1), ["config", "typo"]),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_bad_config_rejected_before_run(runner, tmp_path, probe):
    change, words = PROBES[probe]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_probe(change)))
    for args in (["validate-config", str(path)],
                 ["run", "--config", str(path), "--out", str(tmp_path / "o")]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        message = result.output.splitlines()[-1]
        assert message.startswith("invalid: ")
        for word in words:
            assert word in message
    assert not (tmp_path / "o").exists()



# value checks the loader makes besides the twelve probes
VALUE_FAULTS = {
    "negative-seed": (lambda c: c.update(seed=-1), "seed"),
    "store-stride-0": (lambda c: c["ensemble"].update(store_stride=0), "store_stride"),
    "nan-dt": (lambda c: c["ensemble"].update(dt=float("nan")), "ensemble.dt"),
    "bool-points": (lambda c: c["grid"].update(points=True), "grid.points"),
    "markov-t0-after-t1": (lambda c: c["verifiers"].append({"name": "markov", "t0": 0.4, "t1": 0.2}),
                           "t0"),
    "bump-width-0": (lambda c: c.update(source={"kind": "bump", "width": 0}), "width"),
    "constant-1d-on-2d": (lambda c: c.update(drift={"kind": "constant", "value": [1.0]}), "value"),
    "external-missing": (lambda c: c.update(drift={"kind": "external", "path": "no/such.sdlf"}),
                         "path"),
    "rising-ladder": (lambda c: c.update(sweep={"eps_levels": [0.1, 0.2]}), "eps_levels"),
}


@pytest.mark.parametrize("fault", sorted(VALUE_FAULTS))
def test_value_faults_rejected_at_load(fault):
    change, word = VALUE_FAULTS[fault]
    with pytest.raises(ConfigError, match=re.escape(word)):
        validate_config_data(_probe(change))

def test_config_hash_covers_resolved_config(runner, tmp_path):
    terse = {
        "schema_version": 1,
        "grid": {"dim": 2, "extent": 4, "points": 8, "t0": 0, "t1": 0.1, "steps": 4},
        "drift": {"kind": "zero"},
        "pde": {},
        "ensemble": {"start": [0, 0], "s": 0, "horizon": 0.1, "dt": 0.01, "paths": 200},
        "verifiers": [{"name": "max-principle"}],
    }
    explicit = copy.deepcopy(terse)
    explicit.update(name="unnamed", seed=0, source={"kind": "ones"})
    explicit["pde"].update(direction="backward", scheme="implicit")
    explicit["ensemble"].update(store_stride=1, start=[0.0, 0.0])
    changed = copy.deepcopy(terse)
    changed["ensemble"]["paths"] = 201

    def config_hash(cfg, name):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        result = runner.invoke(main, ["run", "--config", str(path), "--out", str(tmp_path / name)])
        assert result.exit_code == 0, result.output
        return json.loads((tmp_path / name / "manifest.json").read_text())["config_hash"]

    terse_hash = config_hash(terse, "terse")
    assert config_hash(explicit, "explicit") == terse_hash
    assert config_hash(changed, "changed") != terse_hash
