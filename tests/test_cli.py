import copy
import itertools
import json
import os
import pkgutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import sdlab
from sdlab import pde as pde_mod
from sdlab import sde as sde_mod
from sdlab.cli import (
    SCENARIOS,
    VERIFIERS,
    ConfigError,
    _load,
    _null_nonfinite,
    _run_config,
    main,
    validate_config_data,
)
from sdlab.drifts import radial_drift
from sdlab.grids import GridSpec, SpaceTimeField, read_field, write_field


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


# sha256 of each built-in scenario's artifacts (numpy 2.4.6, scipy 1.17.1);
# a change here is a change to the scenario's results
SCENARIO_DIGESTS = {
    "brownian-baseline": {
        "solution": "11dfce2e92194d028dad7d9e51549803db39e11f7461a20240eabc9fd959ac11",
        "ensemble": "23cdcaf723731cc65d6506c6a201e5dc14998cf625b258cc3888b5ede66ef858",
        "reports": "8b9137e41d29af14eb62c2e3a8925d551f9d7b1060ff71256863f556c2bbe3d8",
    },
    "radial-c0.5-sweep": {
        "solution": "f3c5e16be94fd3ced999a4826516293a067d6744f00a446339f13a916e234c85",
        "ensemble": "a29f530c09c30ca46134efad86d2ed3c2c23c2c1b76cbabe98b972917a67594f",
        "reports": "73add312d11bd8be7e6b38fef2c7aecc50877bc3fdc036d1de4e7b41725642ee",
    },
    "unit-diffusion-control": {
        "ensemble": "a0c4722862cb5cdffc91c558b71cfd9c839aaf6498ec886fe58baf26457d6a77",
        "reports": "88ac3d11f92e34d9ce0c00869845914dab87306fc43a7bc113e3ae6d6666558e",
    },
}


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
    assert _artifact_hashes(tmp_path / "s") == SCENARIO_DIGESTS[name]


def test_validate_config_rejects_unknown_key(runner, tmp_path):
    cfg = dict(SCENARIOS["brownian-baseline"])
    cfg["typo_section"] = {"a": 1}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    result = runner.invoke(main, ["validate-config", str(path)])
    assert result.exit_code == 2
    assert "typo_section" in result.output


@pytest.mark.parametrize("width, code", [("1e3", 0), ("1E-2", 0), ("'1e3'", 2), (".nan", 2)])
def test_yaml_exponent_floats_load_as_floats(runner, tmp_path, width, code):
    # YAML 1.2 reads 1e3 as a float, where YAML 1.1 reads a string
    path = tmp_path / "width.yaml"
    path.write_text("schema_version: 1\n"
                    "grid: {dim: 2, extent: 4.0, points: 8, t0: 0.0, t1: 0.1, steps: 2}\n"
                    f"drift: {{kind: zero}}\nsource: {{kind: bump, width: {width}}}\n")
    result = runner.invoke(main, ["validate-config", str(path)])
    assert result.exit_code == code, result.output
    if code == 0:
        assert _load(None, path).resolved["source"]["width"] == float(width)


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


def test_reports_write_every_verdict_as_a_json_boolean(baseline_run):
    # density-ks and feynman-kac's panel rows compare numpy floats, which give numpy bools
    _, out = baseline_run
    verdicts = []
    hook = lambda obj: verdicts.extend(v for k, v in obj.items() if k in ("pass", "passed")) or obj
    for line in (out / "reports.jsonl").read_text().splitlines():
        json.loads(line, object_hook=hook)
    assert len(verdicts) == 10
    assert all(type(v) is bool for v in verdicts), verdicts


# every verifier, on a small grid and few paths; the zero drift, which
# brownian-variance and density-ks need
EVERY_VERIFIER = {
    "schema_version": 1,
    "seed": 5,
    "grid": {"dim": 2, "extent": 4.0, "points": 16, "t0": 0.0, "t1": 0.5, "steps": 10},
    "drift": {"kind": "zero"},
    "source": {"kind": "bump"},
    "pde": {},
    "ensemble": {"start": [0.5, 0.0], "s": 0.0, "horizon": 0.5, "dt": 0.05, "paths": 400},
    # stability draws no noise, and its sweep needs a drift with a mollification family
    "verifiers": [{"name": name} for name in VERIFIERS if name != "stability"],
}


def test_verifiers_draw_disjoint_noise_keys(monkeypatch, tmp_path):
    run = validate_config_data(EVERY_VERIFIER)
    seeds, stage = {}, ["ensemble"]
    draw = sde_mod.step_normals

    def record(seed, step, *shape):
        seeds.setdefault(stage[0], set()).add(seed)
        return draw(seed, step, *shape)

    def tagged(name, check):
        def tagged_check(output):
            stage[0] = name
            return check(output)
        return tagged_check

    monkeypatch.setattr(sde_mod, "step_normals", record)
    checks = tuple((section, tagged(v["name"], check))
                   for v, (section, check) in zip(run.resolved["verifiers"], run.verifiers))
    _run_config(replace(run, verifiers=checks), tmp_path)
    assert set(seeds) == {"ensemble", "feynman-kac", "krylov"}
    for a, b in itertools.combinations(seeds, 2):
        assert not seeds[a] & seeds[b], f"{a} and {b} share seeds {seeds[a] & seeds[b]}"


def test_unit_diffusion_control_fails(runner, tmp_path):
    result = runner.invoke(main, ["run", "--scenario", "unit-diffusion-control",
                                  "--out", str(tmp_path / "ctl")])
    assert result.exit_code == 1
    assert "FAIL" in result.output
    manifest = json.loads((tmp_path / "ctl" / "manifest.json").read_text())
    assert not manifest["all_passed"]


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


def test_failed_theta_fit_writes_strict_json(runner, tmp_path, monkeypatch):
    # no built-in verifier overflows on a small run: a stand-in reports inf and NaN
    nonfinite = sde_mod.EstimateReport("nonfinite", np.inf, -np.inf, np.nan, np.nan, False, {})
    monkeypatch.setitem(VERIFIERS, "nonfinite", (lambda run: lambda _: nonfinite.record(), None))
    cfg = {
        "schema_version": 1,
        "name": "nonfinite-report",
        "seed": 3,
        "grid": {"dim": 2, "extent": 4.0, "points": 8, "t0": 0.0, "t1": 0.2, "steps": 4},
        "drift": {"kind": "zero"},
        "verifiers": [{"name": "nonfinite"}],
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
    # the khasminskii verifier is gone: its name is rejected like any unknown verifier
    "khasminskii": (lambda c: c["verifiers"].append({"name": "khasminskii"}),
                    ["verifiers[4]", "unknown verifier 'khasminskii'"]),
}


# config paths that hold no UTF-8 text, each with the words its rejection must name
UNREADABLE = {
    "directory": (lambda path: path.mkdir(), ["Is a directory", "bad.yaml"]),
    "utf-16": (lambda path: path.write_text("\ufeffschema_version: 1\n", encoding="utf-16-le"),
               ["'utf-8' codec", "0xff"]),
}


def _assert_rejected(runner, path, words):
    """validate-config and run both reject the config at ``path``.

    Each exits 2, its last line is ``invalid: ...`` holding every word, and no output is written.
    """
    out = path.parent / "o"
    for args in (["validate-config", str(path)], ["run", "--config", str(path), "--out", str(out)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        message = result.output.splitlines()[-1]
        assert message.startswith("invalid: "), message
        for word in words:
            assert word in message, message
        assert not out.exists()


@pytest.mark.parametrize("probe", sorted(PROBES) + sorted(UNREADABLE))
def test_bad_config_rejected_before_run(runner, tmp_path, probe):
    path = tmp_path / "bad.yaml"
    if probe in UNREADABLE:
        write, words = UNREADABLE[probe]
        write(path)
    else:
        change, words = PROBES[probe]
        path.write_text(yaml.safe_dump(_probe(change)))
    _assert_rejected(runner, path, words)


# value checks the loader makes besides the probes; a relative path is read from the test's tmp_path
VALUE_FAULTS = {
    "negative-seed": (lambda c: c.update(seed=-1), "seed"),
    "store-stride-0": (lambda c: c["ensemble"].update(store_stride=0), "store_stride"),
    "nan-dt": (lambda c: c["ensemble"].update(dt=float("nan")), "ensemble.dt"),
    "bool-points": (lambda c: c["grid"].update(points=True), "grid.points"),
    "bump-width-0": (lambda c: c.update(source={"kind": "bump", "width": 0}), "width"),
    "constant-1d-on-2d": (lambda c: c.update(drift={"kind": "constant", "value": [1.0]}), "value"),
    "external-missing": (lambda c: c.update(drift={"kind": "external", "path": "no/such.sdlf"}),
                         "path"),
    # nan.sdlf holds one NaN: read_field rejects it before the drift is built
    "external-nan": (lambda c: c.update(drift={"kind": "external", "path": "nan.sdlf"}),
                     "drift (external): field values must be finite"),
    # brownian-variance and density-ks check the law of b = 0, whatever the drift
    "b0-law-constant": (lambda c: c.update(drift={"kind": "constant", "value": [1.0, 0.0]}),
                        "(brownian-variance): checks the law of b = 0: needs drift kind 'zero', "
                        "got 'constant'"),
    "b0-law-linear": (lambda c: c.update(drift={"kind": "linear"},
                                         verifiers=[{"name": "density-ks"}]),
                      "(density-ks): checks the law of b = 0: needs drift kind 'zero', "
                      "got 'linear'"),
    "rising-ladder": (lambda c: c.update(sweep={"eps_levels": [0.1, 0.2]}), "eps_levels"),
    # brownian-baseline's source is f = 1: u = T - t at every level, distances are round-off
    "stability-constant-source": (lambda c: c.update(drift={"kind": "radial", "c": 0.5},
                                                     sweep={"eps_levels": [0.4, 0.2, 0.1]},
                                                     verifiers=[{"name": "stability"}]),
                                  "verifiers[0] (stability): needs a source that varies in "
                                  "space"),
    # two levels give one distance, so "each distance below the one before" cannot fail
    "stability-two-levels": (lambda c: c.update(drift={"kind": "radial", "c": 0.5},
                                                sweep={"eps_levels": [0.4, 0.2]},
                                                verifiers=[{"name": "stability"}]),
                             "verifiers[0] (stability): judges each distance against the one "
                             "before: needs at least three sweep.eps_levels, got 2"),
    # a drift without a mollification family solves one problem at every sweep level
    "sweep-zero": (lambda c: c.update(sweep={"eps_levels": [0.4, 0.2]}),
                   "sweep: refines the drift's mollification: needs drift kind 'radial' or "
                   "'lattice', got 'zero'"),
    "sweep-linear": (lambda c: c.update(drift={"kind": "linear"}, sweep={"eps_levels": [0.4, 0.2]},
                                        verifiers=[{"name": "stability"}]),
                     "sweep: refines the drift's mollification: needs drift kind 'radial' or "
                     "'lattice', got 'linear'"),
    "grid-dim-64": (lambda c: c["grid"].update(dim=64), "grid: spatial_dim"),
    # the pde section has one scheme, so no key to choose it
    "imex": (lambda c: c["pde"].update(scheme="imex"),
             "pde: unknown key 'scheme' (known: direction)"),
    # the verifiers' own spans must be whole numbers of dt too
    "feynman-kac-off-grid": (lambda c: c["ensemble"].update(horizon=0.48, dt=0.04),
                             "verifiers[2] (feynman-kac): t1 - 0 = 0.5"),
    # feynman-kac's solution must solve the terminal-value problem
    "feynman-kac-forward": (lambda c: c["pde"].update(direction="forward"),
                            "verifiers[2] (feynman-kac): checks the terminal-value problem: "
                            "needs pde.direction 'backward', got 'forward'"),
    # feynman-kac reads the solution at its mid-window panel time 0.25, not a time of 5 steps
    "feynman-kac-off-pde-grid": (lambda c: c["grid"].update(steps=5),
                                 "verifiers[2] (feynman-kac): time 0.25 is not a grid time"),
    "krylov-off-grid": (lambda c: c["verifiers"].append({"name": "krylov",
                                                        "deltas": [0.05, 0.1025]}),
                        "(krylov): delta = 0.1025"),
}


def _write_nan_sdlf(path):
    """A 2-D velocity field on a 4x4 grid whose last value is NaN."""
    grid = GridSpec(2, 8.0, 4, 0.0, 0.5, 1)
    write_field(path, SpaceTimeField(grid, np.zeros((grid.nt, 2, 4, 4)), 2))
    with open(path, "r+b") as fh:  # SpaceTimeField refuses a NaN: put it in the file
        fh.seek(-8, os.SEEK_END)
        fh.write(np.float64(np.nan).tobytes())


@pytest.mark.parametrize("fault", sorted(VALUE_FAULTS))
def test_value_faults_rejected_at_load(runner, tmp_path, monkeypatch, fault):
    change, word = VALUE_FAULTS[fault]
    monkeypatch.chdir(tmp_path)
    _write_nan_sdlf(tmp_path / "nan.sdlf")
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_probe(change)))
    _assert_rejected(runner, path, [word])


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
    explicit["pde"].update(direction="backward")
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


@pytest.mark.parametrize("section, key, value, solves", [
    (None, None, None, 4),  # the pde stage is the sweep's eps = 0.1 level
    ("drift", "eps", 0.15, 5),  # a level the ladder does not hold
], ids=["default", "off-ladder"])
def test_sweep_level_serves_the_pde_stage(monkeypatch, tmp_path, section, key, value, solves):
    cfg = copy.deepcopy(SCENARIOS["radial-c0.5-sweep"])
    if section is not None:
        cfg[section][key] = value
    real, calls = pde_mod.solve, []
    monkeypatch.setattr(pde_mod, "solve", lambda *a, **k: calls.append(a) or real(*a, **k))
    manifest = _run_config(validate_config_data(cfg), tmp_path)
    assert len(calls) == solves
    assert [s["stage"] for s in manifest["stages"]] == ["pde", "sweep", "ensemble"]


@pytest.mark.parametrize("drift", [{"kind": "radial", "c": 0.5}, {"kind": "lattice"}],
                         ids=lambda drift: drift["kind"])
def test_reused_sweep_solution_is_the_standalone_solve(tmp_path, drift):
    run = validate_config_data({
        "schema_version": 1,
        "grid": {"dim": 2, "extent": 4.0, "points": 16, "t0": 0.0, "t1": 0.2, "steps": 10},
        "drift": drift, "source": {"kind": "bump"}, "pde": {},
        "sweep": {"eps_levels": [0.4, 0.1, 0.05]}, "verifiers": [{"name": "stability"}],
    })
    manifest = _run_config(run, tmp_path)
    alone = pde_mod.solve(run.problem)
    assert np.array_equal(read_field(tmp_path / "solution.sdlf").values, alone.u.values)
    stage = manifest["stages"][0]
    assert (stage["stage"], stage["sup_norm"], stage["residual"]) \
        == ("pde", alone.sup_norm, alone.residual)


def test_sweep_without_pde_stage_solves_each_level_once(monkeypatch, tmp_path):
    cfg = copy.deepcopy(SCENARIOS["radial-c0.5-sweep"])
    del cfg["pde"]
    cfg["verifiers"] = [{"name": "stability"}]
    real, calls = pde_mod.solve, []
    monkeypatch.setattr(pde_mod, "solve", lambda *a, **k: calls.append(a) or real(*a, **k))
    manifest = _run_config(validate_config_data(cfg), tmp_path)
    assert len(calls) == len(cfg["sweep"]["eps_levels"])
    assert not (tmp_path / "solution.sdlf").exists()
    assert [s["stage"] for s in manifest["stages"]] == ["sweep", "ensemble"]


def _fresh_interpreter(code: str, *args: str) -> tuple[int, list]:
    """(exit code, the scipy modules loaded) of ``python -c code args`` in a new process."""
    src = str(Path(sdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    report = ("import atexit, json, sys; atexit.register(lambda: print(json.dumps(sorted("
              "m for m in sys.modules if m.split('.')[0] == 'scipy'))))\n")
    out = subprocess.run([sys.executable, "-c", report + code, *args], env=env,
                         capture_output=True, text=True)
    return out.returncode, json.loads(out.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.sparse and scipy.special cost a fresh interpreter about 0.4 s and 27 MB on a
    # 2-vCPU VM: sdlab loads the first on its first matrix, the second in normal_ks
    assert "scipy.stats" not in _fresh_interpreter("import sdlab.cli")[1]
    modules = sorted(m.name for m in pkgutil.iter_modules(sdlab.__path__))
    assert {"cli", "pde", "sde"} <= set(modules)
    assert _fresh_interpreter("".join(f"import sdlab.{m}\n" for m in modules)) == (0, [])
    cli = "from sdlab.cli import main; main()"
    path = tmp_path / "baseline.yaml"
    path.write_text(yaml.safe_dump(SCENARIOS["brownian-baseline"]))
    assert _fresh_interpreter(cli, "validate-config", str(path)) == (0, [])
    # unit-diffusion-control fails by design; density-ks loads scipy.special, nothing a PDE needs
    code, loaded = _fresh_interpreter(cli, "run", "--scenario", "unit-diffusion-control",
                                      "--out", str(tmp_path / "control"))
    assert code == 1
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.sparse")]


def test_every_factor_goes_through_the_module_spla(monkeypatch):
    # perfbench's tracer times splu and each factor's solve by swapping pde.spla
    real, factors, solves = pde_mod.spla, [], []

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(rhs)
            return self.lu.solve(rhs)

    def splu(*args, **kwargs):
        factors.append(args)
        return CountingLU(real.splu(*args, **kwargs))

    grid = GridSpec(2, 4.0, 8, 0.0, 0.5, 5)
    bump = SpaceTimeField.from_function(grid, lambda t, x, y: np.exp(-x**2 - y**2))
    problem = pde_mod.PDEProblem(radial_drift(0.5, 2, 0.2), bump, grid)
    monkeypatch.setattr(pde_mod, "spla", types.SimpleNamespace(splu=splu))
    counted = pde_mod.solve(problem)
    monkeypatch.undo()
    assert (len(factors), len(solves)) == (1, grid.time_steps)
    assert np.array_equal(counted.u.values, pde_mod.solve(problem).u.values)
    # in a fresh process the first read of pde.spla binds scipy's own module
    code, loaded = _fresh_interpreter("import sdlab.pde as p\nspla, sp = p.spla, p.sp\n"
                                      "import scipy.sparse.linalg\n"
                                      "assert (spla, sp) == (scipy.sparse.linalg, scipy.sparse)")
    assert code == 0 and "scipy.sparse.linalg" in loaded
