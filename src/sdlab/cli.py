"""Config-driven scenario runner.

Verbs: run, emit-plots, list-scenarios, validate-config.  Configs are
YAML with a strict schema (unknown keys are errors); a run writes every
artifact plus a manifest with content hashes, and exits nonzero iff any
verifier fails, so the tool doubles as a CI acceptance gate.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import click
import numpy as np
import scipy.stats
import yaml

from sdlab import drifts as drift_mod
from sdlab import pde as pde_mod
from sdlab import sde as sde_mod
from sdlab.grids import GridSpec, SpaceTimeField, write_field

SCHEMA_VERSION = 1

_SCHEMA = {
    "schema_version": None,
    "name": None,
    "seed": None,
    "diffusion": None,
    "grid": {"dim": None, "extent": None, "points": None, "t0": None, "t1": None, "steps": None},
    "drift": {"kind": None, "c": None, "rate": None, "value": None, "eps": None,
              "gamma_max": None, "alpha_sing": None, "drift_seed": None, "path": None},
    "source": {"kind": None, "width": None},
    "pde": {"direction": None, "scheme": None},
    "sweep": {"eps_levels": None},
    "ensemble": {"start": None, "s": None, "horizon": None, "dt": None, "paths": None,
                 "store_stride": None},
    "verifiers": None,
}

_VERIFIER_KEYS = {
    "name": None, "tolerance": None, "deltas": None, "lambda": None,
    "t0": None, "t1": None, "panel": None, "observable": None,
}


class ConfigError(ValueError):
    pass


def _check_keys(data, schema, path=""):
    if not isinstance(data, dict):
        return
    for key, val in data.items():
        if key not in schema:
            raise ConfigError(f"unknown config key: {path}{key}")
        sub = schema[key]
        if isinstance(sub, dict):
            _check_keys(val, sub, f"{path}{key}.")


def validate_config_data(data: dict) -> dict:
    _check_keys(data, _SCHEMA)
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    for v in data.get("verifiers", []) or []:
        _check_keys(v, _VERIFIER_KEYS, "verifiers[].")
        if "name" not in v:
            raise ConfigError("each verifier needs a name")
        if v.get("tolerance") is not None and v["tolerance"] <= 0:
            raise ConfigError("tolerances must be positive")
    if "grid" not in data or "drift" not in data:
        raise ConfigError("grid and drift sections are required")
    return data


# ---------------------------------------------------------------------------
# built-in scenarios

SCENARIOS = {
    "brownian-baseline": {
        "schema_version": 1,
        "name": "brownian-baseline",
        "seed": 7,
        "grid": {"dim": 2, "extent": 8.0, "points": 32, "t0": 0.0, "t1": 0.5, "steps": 100},
        "drift": {"kind": "zero"},
        "source": {"kind": "ones"},
        "pde": {"direction": "backward"},
        "ensemble": {"start": [0.0, 0.0], "s": 0.0, "horizon": 0.5, "dt": 0.005,
                     "paths": 20000, "store_stride": 100},
        "verifiers": [
            {"name": "brownian-variance"},
            {"name": "density-ks"},
            {"name": "feynman-kac"},
            {"name": "max-principle"},
        ],
    },
    "radial-c0.5-sweep": {
        "schema_version": 1,
        "name": "radial-c0.5-sweep",
        "seed": 11,
        "grid": {"dim": 2, "extent": 4.0, "points": 64, "t0": 0.0, "t1": 0.5, "steps": 100},
        "drift": {"kind": "radial", "c": 0.5},
        "source": {"kind": "bump", "width": 0.5},
        "pde": {"direction": "backward"},
        "sweep": {"eps_levels": [0.4, 0.2, 0.1, 0.05]},
        "ensemble": {"start": [0.5, 0.0], "s": 0.0, "horizon": 0.5, "dt": 0.005,
                     "paths": 8000, "store_stride": 20},
        "verifiers": [
            {"name": "stability"},
            {"name": "feynman-kac"},
            {"name": "max-principle"},
            {"name": "krylov", "deltas": [0.05, 0.1, 0.2, 0.4]},
        ],
    },
    "unit-diffusion-control": {
        "schema_version": 1,
        "name": "unit-diffusion-control",
        "seed": 7,
        "diffusion": 1.0,
        "grid": {"dim": 2, "extent": 8.0, "points": 32, "t0": 0.0, "t1": 0.5, "steps": 100},
        "drift": {"kind": "zero"},
        "source": {"kind": "ones"},
        "ensemble": {"start": [0.0, 0.0], "s": 0.0, "horizon": 0.5, "dt": 0.005,
                     "paths": 20000, "store_stride": 100},
        "verifiers": [{"name": "brownian-variance"}, {"name": "density-ks"}],
    },
}


def _build_grid(cfg) -> GridSpec:
    g = cfg["grid"]
    return GridSpec(g["dim"], g["extent"], g["points"], g["t0"], g["t1"], g["steps"])


def _build_drift(cfg) -> drift_mod.DriftField:
    d = cfg["drift"]
    dim = cfg["grid"]["dim"]
    kind = d["kind"]
    eps = d.get("eps", 0.0)
    if kind == "zero":
        return drift_mod.zero_drift(dim).mollified(1.0)
    if kind == "constant":
        return drift_mod.constant_drift(d["value"]).mollified(1.0)
    if kind == "linear":
        return drift_mod.linear_drift(d.get("rate", 1.0), dim).mollified(1.0)
    if kind == "radial":
        b = drift_mod.radial_drift(d["c"], dim, eps)
        return b
    if kind == "lattice":
        return drift_mod.lattice_drift(d.get("gamma_max", 1.0), d.get("alpha_sing", 1.5),
                                       dim, seed=d.get("drift_seed", 0), eps=eps)
    if kind == "external":
        return drift_mod.load_external(d["path"])
    raise ConfigError(f"unresolvable drift kind: {kind}")


def _build_source(cfg, grid: GridSpec) -> SpaceTimeField:
    s = cfg.get("source", {"kind": "ones"})
    if s["kind"] == "ones":
        return SpaceTimeField(grid, np.ones((grid.nt,) + grid.spatial_shape()), 1)
    if s["kind"] == "bump":
        w = s.get("width", 0.5)
        rho2 = sum(m**2 for m in grid.meshgrid())
        reps = (grid.nt,) + (1,) * grid.spatial_dim
        return SpaceTimeField(grid, np.tile(np.exp(-rho2 / w**2), reps), 1)
    raise ConfigError(f"unknown source kind: {s['kind']}")


def _source_fn(cfg):
    s = cfg.get("source", {"kind": "ones"})
    if s["kind"] == "ones":
        return lambda t, X: np.ones(len(X))
    w = s.get("width", 0.5)
    return lambda t, X: np.exp(-np.sum(X**2, axis=1) / w**2)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _run_config(cfg: dict, outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    grid = _build_grid(cfg)
    drift = _build_drift(cfg)
    seed = cfg.get("seed", 0)
    diffusion = cfg.get("diffusion", float(sde_mod.SQRT2))
    manifest = {
        "config_hash": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "schema_version": SCHEMA_VERSION,
        "name": cfg.get("name", "unnamed"),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "stages": [],
        "artifacts": {},
        "verifiers": [],
    }
    reports = []

    def stage(name, status, **extra):
        manifest["stages"].append({"stage": name, "status": status, **extra})

    def artifact(name, path: Path):
        manifest["artifacts"][name] = {"path": str(path), "sha256": _sha256(path)}

    source = _build_source(cfg, grid)
    solution = None
    mollified = drift if drift.mollification_level > 0 else drift.mollified(0.1)

    if "pde" in cfg:
        prob = pde_mod.PDEProblem(mollified, source, grid,
                                  cfg["pde"].get("direction", "backward"))
        solution = pde_mod.solve(prob, pde_mod.SolverConfig(cfg["pde"].get("scheme", "implicit")))
        path = outdir / "solution.sdlf"
        write_field(path, solution.u)
        artifact("solution", path)
        stage("pde", "ok", sup_norm=solution.sup_norm, residual=solution.residual)

    sweep_report = None
    if "sweep" in cfg:
        levels = cfg["sweep"]["eps_levels"]
        try:
            sweep_report = pde_mod.stability_sweep(drift, levels, source, grid,
                                                   direction=cfg.get("pde", {}).get("direction", "backward"))
            stage("sweep", "ok", distances=sweep_report["distances"])
        except ValueError as exc:
            stage("sweep", "failed", error=str(exc))
            reports.append({"name": "stability", "passed": False, "error": str(exc)})

    ensemble = None
    if "ensemble" in cfg:
        e = cfg["ensemble"]
        econf = sde_mod.EnsembleConfig(
            mollified, (e["s"], e["start"]), e["horizon"], e["dt"], e["paths"], seed,
            store_stride=e.get("store_stride", 1), diffusion=diffusion)
        ensemble = sde_mod.simulate(econf)
        path = outdir / "ensemble.sden"
        sde_mod.save_ensemble(ensemble, path)
        artifact("ensemble", path)
        stage("ensemble", "ok", paths=e["paths"])

    for v in cfg.get("verifiers", []) or []:
        rep = _run_verifier(v, cfg, grid, mollified, source, solution, sweep_report,
                            ensemble, seed, diffusion)
        reports.append(rep)
        manifest["verifiers"].append(rep)

    rpath = outdir / "reports.jsonl"
    with open(rpath, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep, default=float) + "\n")
    artifact("reports", rpath)

    manifest["all_passed"] = all(r.get("passed", False) for r in reports) if reports else True
    mpath = outdir / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, default=float))
    return manifest


def _run_verifier(v, cfg, grid, drift, source, solution, sweep_report, ensemble,
                  seed, diffusion) -> dict:
    name = v["name"]
    e = cfg.get("ensemble", {})
    if name == "brownian-variance":
        span = e["horizon"] - e["s"]
        disp = ensemble.final_states - np.asarray(e["start"])[None]
        target = diffusion**2 * span  # declared convention: sqrt(2) diffusion
        expected = 2.0 * span
        out = []
        for ax in range(disp.shape[1]):
            m, se = sde_mod.batch_stats(disp[:, ax] ** 2)
            out.append({"axis": ax, "var": m, "se": se, "pass": abs(m - expected) <= 3 * se})
        return {"name": name, "passed": all(o["pass"] for o in out), "per_axis": out,
                "expected": expected, "simulated_target": target}
    if name == "density-ks":
        span = e["horizon"] - e["s"]
        crit = 1.628 / np.sqrt(ensemble.config.paths)
        out = []
        for ax in range(ensemble.dim):
            samples = ensemble.final_states[:, ax]
            ks = scipy.stats.kstest(
                samples, lambda x: scipy.stats.norm.cdf(x, e["start"][ax], np.sqrt(2 * span))
            ).statistic
            out.append({"axis": ax, "ks": float(ks), "critical_1pct": crit, "pass": ks < crit})
        return {"name": name, "passed": all(o["pass"] for o in out), "per_axis": out}
    if name == "max-principle":
        if solution is None:
            return {"name": name, "passed": False, "error": "no PDE stage"}
        nviol = pde_mod.max_principle_violations(solution)
        return {"name": name, "passed": nviol == 0, "violations": nviol}
    if name == "feynman-kac":
        if solution is None:
            return {"name": name, "passed": False, "error": "no PDE stage"}
        T = grid.time_end
        panel = [(grid.time_start, list(np.asarray(e.get("start", [0.0] * grid.spatial_dim))))]
        mid = grid.time_start + 0.5 * (T - grid.time_start)
        panel.append((mid, [0.25] * grid.spatial_dim))
        rep = sde_mod.feynman_kac_check(solution, drift, _source_fn(cfg), panel, T,
                                        dt=e.get("dt", 1e-3), paths=max(e.get("paths", 2000) // 4, 400),
                                        seed=seed + 1)
        return rep.record()
    if name == "stability":
        if sweep_report is None:
            return {"name": name, "passed": False, "error": "sweep stage missing or failed"}
        d = sweep_report["distances"]
        ok = all(b < a for a, b in zip(d, d[1:])) and len(d) >= 1
        return {"name": name, "passed": ok, "distances": d,
                "uniform_bound": sweep_report["uniform_bound"]}
    if name == "krylov":
        # symmetric panel: uniformity of the bound constant is only
        # meaningful across comparable starting points
        starts = []
        for ax in range(grid.spatial_dim):
            for sign in (1.0, -1.0):
                p = [0.0] * grid.spatial_dim
                p[ax] = sign * 0.25
                starts.append(p)
        rep = sde_mod.krylov_verify(drift, starts, _source_fn(cfg),
                                    v.get("deltas", [0.05, 0.1, 0.2]),
                                    dt=e.get("dt", 1e-3), paths=1000, seed=seed + 2)
        return rep.record()
    if name == "khasminskii":
        rep = sde_mod.khasminskii_verify(drift, e.get("start", [0.0] * grid.spatial_dim),
                                         _source_fn(cfg), v.get("lambda", 1.0),
                                         dt=e.get("dt", 1e-3), paths=1000, seed=seed + 3)
        return rep.record()
    if name == "markov":
        rep = sde_mod.markov_check(drift, e["start"], v.get("t0", 0.2), v.get("t1", 0.4),
                                   lambda X: np.cos(X[:, 0]), s=e["s"],
                                   dt=e.get("dt", 1e-3), paths=e.get("paths", 2000), seed=seed + 4)
        return rep.record()
    return {"name": name, "passed": False, "error": f"unknown verifier {name}"}


# ---------------------------------------------------------------------------
# plot-data emitters


def _emit_plot_files(manifest: dict, outdir: Path) -> list:
    written = []
    reports = []
    rpath = manifest["artifacts"].get("reports", {}).get("path")
    if rpath and Path(rpath).exists():
        reports = [json.loads(line) for line in Path(rpath).read_text().splitlines()]
    else:
        raise FileNotFoundError("reports artifact missing")

    for rep in reports:
        if rep["name"] == "krylov" and "meta_table" in rep:
            path = outdir / "krylov_fit.dat"
            with open(path, "w") as fh:
                fh.write("# delta estimate se\n")
                deltas = rep["meta_deltas"]
                table = np.asarray(rep["meta_table"])
                for j, d in enumerate(deltas):
                    col = table[:, j]
                    fh.write(f"{d} {col.mean()} {col.std() / np.sqrt(len(col))}\n")
            written.append(path)
        if rep["name"] == "stability" and "distances" in rep:
            path = outdir / "stability.dat"
            with open(path, "w") as fh:
                fh.write("# pair_index l2_distance\n")
                for i, d in enumerate(rep["distances"]):
                    fh.write(f"{i} {d}\n")
            written.append(path)
        if rep["name"] == "density-ks":
            path = outdir / "density_slices.dat"
            with open(path, "w") as fh:
                fh.write("# axis ks critical\n")
                for row in rep["per_axis"]:
                    fh.write(f"{row['axis']} {row['ks']} {row['critical_1pct']}\n")
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# click entry points


@click.group()
def main():
    """Numerical laboratory for SDE/PDE experiments with singular drifts."""


@main.command("list-scenarios")
def list_scenarios():
    for name, cfg in SCENARIOS.items():
        click.echo(f"{name}: drift={cfg['drift']['kind']}, verifiers="
                   f"{[v['name'] for v in cfg['verifiers']]}")


@main.command("validate-config")
@click.argument("config_path", type=click.Path(exists=True))
def validate_config(config_path):
    try:
        validate_config_data(yaml.safe_load(Path(config_path).read_text()))
    except ConfigError as exc:
        click.echo(f"invalid: {exc}", err=True)
        raise SystemExit(2)
    click.echo("ok")


@main.command("run")
@click.option("--scenario", type=str, default=None, help="built-in scenario name")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "outdir", type=click.Path(), default="runs/latest")
def run(scenario, config_path, outdir):
    """Execute a scenario; exit 0 iff every verifier passes."""
    if (scenario is None) == (config_path is None):
        raise click.UsageError("give exactly one of --scenario / --config")
    if scenario is not None:
        if scenario not in SCENARIOS:
            raise click.UsageError(f"unknown scenario {scenario}")
        cfg = SCENARIOS[scenario]
    else:
        cfg = validate_config_data(yaml.safe_load(Path(config_path).read_text()))
    manifest = _run_config(cfg, Path(outdir))
    status = "PASS" if manifest["all_passed"] else "FAIL"
    click.echo(f"{manifest['name']}: {status} "
               f"({len(manifest['verifiers'])} verifiers, manifest at {outdir}/manifest.json)")
    raise SystemExit(0 if manifest["all_passed"] else 1)


@main.command("emit-plots")
@click.argument("manifest_path", type=click.Path(exists=True))
def emit_plots(manifest_path):
    manifest = json.loads(Path(manifest_path).read_text())
    outdir = Path(manifest_path).parent
    try:
        files = _emit_plot_files(manifest, outdir)
    except FileNotFoundError as exc:
        click.echo(f"missing upstream artifact: {exc}", err=True)
        raise SystemExit(2)
    for f in files:
        click.echo(str(f))


if __name__ == "__main__":
    main()
