"""Config-driven scenario runner.

Verbs: run, emit-plots, list-scenarios, validate-config.  A config is
YAML; ``validate_config_data`` turns it into a ``Run`` that holds every
object the run uses, and rejects it before anything is written when a
key is unknown, missing or of the wrong type, or a value is out of
range.  A run writes every artifact plus a manifest with content
hashes.  Exit codes: 0 every verifier passed, 1 a verifier failed,
2 invalid config, so the tool doubles as a CI acceptance gate.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import time
import typing
from dataclasses import dataclass, field, replace
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


class ConfigError(ValueError):
    pass


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


# ---------------------------------------------------------------------------
# the loader: each section's keys are the keyword-only parameters of the
# function that builds it, with their types and defaults


def _typed(where: str, value, ann):
    """``value`` checked against the annotation ``ann``; an int is taken for a float."""
    if typing.get_origin(ann) is list and type(value) is list:
        return [_typed(where, v, typing.get_args(ann)[0]) for v in value]
    if ann is float and type(value) in (int, float) and math.isfinite(value):
        return float(value)
    if ann is not float and type(value) is ann:
        return value
    raise ConfigError(f"{where}: expected {ann.__name__}, got {value!r}")


def _bind(section: str, fn, data, *args):
    """Call ``fn(*args, **data)``; return its result and ``data`` with defaults filled in.

    ``data`` must match fn's keyword-only parameters (``lambda_`` stands for ``lambda``);
    a ValueError (or an OverflowError from an absurd number) from fn becomes a ConfigError
    naming the section."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected a mapping, got {data!r}")
    declared = inspect.signature(fn, eval_str=True).parameters.values()
    params = {p.name.rstrip("_"): p for p in declared if p.kind is p.KEYWORD_ONLY}
    if unknown := [k for k in data if k not in params]:
        known = ", ".join(params) or "none"
        raise ConfigError(f"{section}: unknown key {unknown[0]!r} (known: {known})")
    if missing := [k for k, p in params.items() if p.default is p.empty and k not in data]:
        raise ConfigError(f"{section}: missing key {missing[0]!r}")
    resolved = {k: _typed(f"{section}.{k}", data[k], p.annotation) if k in data else p.default
                for k, p in params.items()}
    try:
        return fn(*args, **{params[k].name: v for k, v in resolved.items()}), resolved
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _choose(section: str, table: dict, data, tag: str, what: str):
    """(name, table[name], the other keys) for the entry that ``data[tag]`` names."""
    if not isinstance(data, dict) or tag not in data:
        raise ConfigError(f"{section}: missing key {tag!r}")
    name = data[tag]
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{section}: unknown {what} {name!r} (known: {', '.join(table)})")
    return name, table[name], {k: v for k, v in data.items() if k != tag}


def _grid(*, dim: int, extent: float, points: int, t0: float, t1: float, steps: int) -> GridSpec:
    return GridSpec(dim, extent, points, t0, t1, steps)


def _constant(dim, *, value: list[float]):
    if len(value) != dim:
        raise ValueError(f"value has {len(value)} components, the grid has dim {dim}")
    return drift_mod.constant_drift(value)


def _linear(dim, *, rate: float = 1.0):
    return drift_mod.linear_drift(rate, dim)


def _radial(dim, *, c: float, eps: float = 0.0):
    return drift_mod.radial_drift(c, dim, eps)


def _lattice(dim, *, gamma_max: float = 1.0, alpha_sing: float = 1.5, drift_seed: int = 0,
             eps: float = 0.0):
    return drift_mod.lattice_drift(gamma_max, alpha_sing, dim, seed=drift_seed, eps=eps)


def _external(dim, *, path: str):
    try:
        b = drift_mod.load_external(path)
    except OSError as exc:
        raise ValueError(f"path: {exc}") from None
    if b.dim != dim:
        raise ValueError(f"{path} holds a {b.dim}-D field, the grid has dim {dim}")
    return b


_DRIFTS = {"zero": drift_mod.zero_drift, "constant": _constant, "linear": _linear,
           "radial": _radial, "lattice": _lattice, "external": _external}


def _ones(t, X):
    return np.ones(len(X))


def _bump(*, width: float = 0.5):
    if not width > 0:
        raise ValueError("width must be positive")
    return lambda t, X: np.exp(-np.sum(X**2, axis=1) / width**2)


_SOURCES = {"ones": lambda: _ones, "bump": _bump}


def _pde(drift, source, grid, *, direction: str = "backward", scheme: str = "implicit"):
    return pde_mod.PDEProblem(drift, source, grid, direction), pde_mod.SolverConfig(scheme)


def _sweep(*, eps_levels: list[float]) -> list:
    return pde_mod.check_eps_levels(eps_levels)


def _ensemble(drift, seed, diffusion, *, start: list[float], s: float, horizon: float, dt: float,
              paths: int, store_stride: int = 1) -> sde_mod.EnsembleConfig:
    if len(start) != drift.dim:
        raise ValueError(f"start has {len(start)} coordinates, the grid has dim {drift.dim}")
    if store_stride < 1:
        raise ValueError("store_stride must be >= 1")
    config = sde_mod.EnsembleConfig(drift, (s, start), horizon, dt, paths, seed,
                                    store_stride=store_stride, diffusion=diffusion)
    # EnsembleConfig rounds to whole steps, which would move the end time
    steps = (horizon - s) / dt
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"horizon - s = {horizon - s:g} is not a whole number of dt = {dt:g}")
    return config


@dataclass(frozen=True)
class Run:
    """Every object a run uses, built from a config before anything is written."""

    name: str
    seed: int
    problem: pde_mod.PDEProblem  # grid, mollified drift, source field and direction of every stage
    source: typing.Callable  # the source profile f(t, X) that problem.source samples
    pde: pde_mod.SolverConfig | None = None
    sweep: list | None = None  # mollification levels
    ensemble: sde_mod.EnsembleConfig | None = None
    verifiers: tuple = ()  # (stage the check takes the output of, or None; check)
    resolved: dict = field(default_factory=dict)  # the config with every default filled in

    @property
    def sampling(self) -> tuple:
        """(start, dt, paths) of verifiers that draw their own paths: the ensemble's or defaults."""
        if self.ensemble is None:
            return [0.0] * self.problem.grid.spatial_dim, 1e-3, 2000
        return self.ensemble.start[1], self.ensemble.dt, self.ensemble.paths


def _config(*, schema_version: int, grid: dict, drift: dict, name: str = "unnamed", seed: int = 0,
            diffusion: float = float(sde_mod.SQRT2), source: dict = None, pde: dict = None,
            sweep: dict = None, ensemble: dict = None, verifiers: list[dict] = ()) -> Run:
    if schema_version != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}")
    if seed < 0:  # noise keys are unsigned
        raise ValueError("seed must be >= 0")
    resolved = {"schema_version": schema_version, "name": name, "seed": seed,
                "diffusion": diffusion}
    spec, resolved["grid"] = _bind("grid", _grid, grid)
    kind, make, keys = _choose("drift", _DRIFTS, drift, "kind", "drift kind")
    b, keys = _bind(f"drift ({kind})", make, keys, spec.spatial_dim)
    resolved["drift"] = {"kind": kind, **keys}
    if not b.mollification_level > 0:
        b = b.mollified(0.1)
    source = source or {"kind": "ones"}
    kind, make, keys = _choose("source", _SOURCES, source, "kind", "source kind")
    profile, keys = _bind(f"source ({kind})", make, keys)
    resolved["source"] = {"kind": kind, **keys}
    # the profiles do not depend on time: sample one slice and repeat it
    values = profile(spec.time_start, spec.nodes()).reshape(spec.spatial_shape())
    sampled = SpaceTimeField(spec, np.tile(values, (spec.nt,) + (1,) * spec.spatial_dim), 1)
    # the sweep solves in the pde section's direction even when nothing else is solved
    (problem, solver), keys = _bind("pde", _pde, pde or {}, b, sampled, spec)
    stages = {}
    if pde is not None:
        stages["pde"], resolved["pde"] = solver, keys
    if sweep is not None:
        stages["sweep"], resolved["sweep"] = _bind("sweep", _sweep, sweep)
    if ensemble is not None:
        stages["ensemble"], resolved["ensemble"] = _bind("ensemble", _ensemble, ensemble,
                                                         b, seed, diffusion)
    run = Run(name, seed, problem, profile, **stages)
    checks, resolved["verifiers"] = [], []
    for i, v in enumerate(verifiers):
        vname, (build, stage), keys = _choose(f"verifiers[{i}]", VERIFIERS, v, "name", "verifier")
        if stage is not None and stage not in stages:
            raise ConfigError(f"verifiers[{i}]: {vname} needs the {stage} section")
        check, keys = _bind(f"verifiers[{i}] ({vname})", build, keys, run)
        checks.append((stage, check))
        resolved["verifiers"].append({"name": vname, **keys})
    return replace(run, verifiers=tuple(checks), resolved=resolved)


def validate_config_data(data) -> Run:
    """The run a config describes; ConfigError names the section and key of the first fault."""
    return _bind("config", _config, data)[0]


# ---------------------------------------------------------------------------
# verifiers: a check takes the output of the stage that VERIFIERS names


def _brownian_variance(ens) -> dict:
    c = ens.config
    span = c.horizon - c.start[0]
    disp = ens.final_states - np.asarray(c.start[1])[None]
    expected = 2.0 * span
    out = []
    for ax in range(disp.shape[1]):
        m, se = sde_mod.batch_stats(disp[:, ax] ** 2)
        out.append({"axis": ax, "var": m, "se": se, "pass": abs(m - expected) <= 3 * se})
    # declared convention: sqrt(2) diffusion
    return {"name": "brownian-variance", "passed": all(o["pass"] for o in out), "per_axis": out,
            "expected": expected, "simulated_target": c.diffusion**2 * span}


def _density_ks(ens) -> dict:
    c = ens.config
    span = c.horizon - c.start[0]
    crit = 1.628 / np.sqrt(c.paths)
    out = []
    for ax in range(ens.dim):
        ks = scipy.stats.kstest(
            ens.final_states[:, ax],
            lambda x: scipy.stats.norm.cdf(x, c.start[1][ax], np.sqrt(2 * span)),
        ).statistic
        out.append({"axis": ax, "ks": float(ks), "critical_1pct": crit, "pass": ks < crit})
    return {"name": "density-ks", "passed": all(o["pass"] for o in out), "per_axis": out}


def _max_principle(solution) -> dict:
    nviol = pde_mod.max_principle_violations(solution)
    return {"name": "max-principle", "passed": nviol == 0, "violations": nviol}


def _stability(sweep) -> dict:
    d = sweep["distances"]
    return {"name": "stability", "passed": all(b < a for a, b in zip(d, d[1:])) and len(d) >= 1,
            "distances": d, "uniform_bound": sweep["uniform_bound"]}


# the checks below need the run and their own keys: their builders return them


def _feynman_kac(run):
    g = run.problem.grid
    start, dt, paths = run.sampling
    panel = [(g.time_start, list(start)),
             (g.time_start + 0.5 * (g.time_end - g.time_start), [0.25] * g.spatial_dim)]
    return lambda solution: sde_mod.feynman_kac_check(
        solution, run.problem.drift, run.source, panel, g.time_end, dt=dt,
        paths=max(paths // 4, 400), seed=run.seed + 1).record()


def _krylov(run, *, deltas: list[float] = (0.05, 0.1, 0.2)):
    if len(set(deltas)) < 2 or min(deltas) <= 0:
        raise ValueError("deltas needs at least two distinct positive values to fit theta")
    # symmetric panel: uniformity of the bound constant is only
    # meaningful across comparable starting points
    d = run.problem.grid.spatial_dim
    starts = [[sign * 0.25 if i == ax else 0.0 for i in range(d)]
              for ax in range(d) for sign in (1.0, -1.0)]
    _, dt, _ = run.sampling
    return lambda _: sde_mod.krylov_verify(run.problem.drift, starts, run.source, deltas, dt=dt,
                                           paths=1000, seed=run.seed + 2).record()


def _khasminskii(run, *, lambda_: float = 1.0):
    start, dt, _ = run.sampling
    return lambda _: sde_mod.khasminskii_verify(run.problem.drift, start, run.source, lambda_,
                                                dt=dt, paths=1000, seed=run.seed + 3).record()


def _markov(run, *, t0: float = 0.2, t1: float = 0.4):
    e = run.ensemble
    s, start = e.start
    if not s <= t0 < t1:
        raise ValueError(f"needs s <= t0 < t1, got s = {s:g}, t0 = {t0:g}, t1 = {t1:g}")
    return lambda _: sde_mod.markov_check(run.problem.drift, start, t0, t1,
                                          lambda X: np.cos(X[:, 0]), s=s, dt=e.dt, paths=e.paths,
                                          seed=run.seed + 4).record()


# name -> (builder(run, **its keys) -> check, the section whose stage output the check takes)
VERIFIERS = {
    "brownian-variance": (lambda run: _brownian_variance, "ensemble"),
    "density-ks": (lambda run: _density_ks, "ensemble"),
    "max-principle": (lambda run: _max_principle, "pde"),
    "feynman-kac": (_feynman_kac, "pde"),
    "stability": (lambda run: _stability, "sweep"),
    "krylov": (_krylov, None),
    "khasminskii": (_khasminskii, None),
    "markov": (_markov, "ensemble"),
}


# ---------------------------------------------------------------------------
# the run


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _null_nonfinite(rec: dict) -> dict:
    """``rec`` with each NaN or infinity as None, their key paths listed under "nonfinite".

    Keeps reports.jsonl and manifest.json strict JSON; a finite record is
    returned unchanged, so its bytes do not move.
    """
    found = []

    def clean(v, path):
        if isinstance(v, (float, np.floating)) and not np.isfinite(v):
            found.append(path)
            return None
        if isinstance(v, dict):
            return {k: clean(x, f"{path}.{k}" if path else str(k)) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x, f"{path}[{i}]") for i, x in enumerate(v)]
        return v

    out = clean(rec, "")
    if found:
        out["nonfinite"] = found
    return out


def _run_config(run: Run, outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config_hash": hashlib.sha256(
            json.dumps(run.resolved, sort_keys=True).encode()
        ).hexdigest(),
        "schema_version": SCHEMA_VERSION,
        "name": run.name,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "stages": [],
        "artifacts": {},
    }

    def stage(name, status, **extra):
        manifest["stages"].append(_null_nonfinite({"stage": name, "status": status, **extra}))

    def artifact(name, path: Path):
        manifest["artifacts"][name] = {"path": str(path), "sha256": _sha256(path)}

    outputs = {None: None}
    problem = run.problem
    if run.pde is not None:
        solution = outputs["pde"] = pde_mod.solve(problem, run.pde)
        path = outdir / "solution.sdlf"
        write_field(path, solution.u)
        artifact("solution", path)
        stage("pde", "ok", sup_norm=solution.sup_norm, residual=solution.residual)

    if run.sweep is not None:
        # mollified(eps) rebuilds the drift from its family, so the run's
        # mollified drift serves as the sweep's base
        sweep = outputs["sweep"] = pde_mod.stability_sweep(
            problem.drift, run.sweep, problem.source, problem.grid, direction=problem.direction)
        stage("sweep", "ok", distances=sweep["distances"])

    if run.ensemble is not None:
        ensemble = outputs["ensemble"] = sde_mod.simulate(run.ensemble)
        path = outdir / "ensemble.sden"
        sde_mod.save_ensemble(ensemble, path)
        artifact("ensemble", path)
        stage("ensemble", "ok", paths=run.ensemble.paths)

    reports = manifest["verifiers"] = [_null_nonfinite(check(outputs[stage]))
                                       for stage, check in run.verifiers]
    rpath = outdir / "reports.jsonl"
    with open(rpath, "w") as fh:
        for rep in reports:
            fh.write(json.dumps(rep, default=float, allow_nan=False) + "\n")
    artifact("reports", rpath)

    manifest["all_passed"] = all(r["passed"] for r in reports)
    mpath = outdir / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, default=float, allow_nan=False))
    return manifest


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


def _load(scenario, config_path) -> Run:
    """The run of a built-in scenario or of a YAML file; on a bad config, exit 2 with the reason."""
    try:
        data = SCENARIOS[scenario] if config_path is None else yaml.safe_load(
            Path(config_path).read_text())
        return validate_config_data(data)
    except (yaml.YAMLError, ConfigError) as exc:
        click.echo(f"invalid: {exc}", err=True)
        raise SystemExit(2)


@main.command("validate-config")
@click.argument("config_path", type=click.Path(exists=True))
def validate_config(config_path):
    """Exit 0 if the config loads, 2 with the reason if it does not."""
    _load(None, config_path)
    click.echo("ok")


@main.command("run")
@click.option("--scenario", type=str, default=None, help="built-in scenario name")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "outdir", type=click.Path(), default="runs/latest")
def run(scenario, config_path, outdir):
    """Execute a scenario; exit 0 if every verifier passes, 1 if one fails, 2 on a bad config."""
    if (scenario is None) == (config_path is None):
        raise click.UsageError("give exactly one of --scenario / --config")
    if scenario is not None and scenario not in SCENARIOS:
        raise click.UsageError(f"unknown scenario {scenario}")
    config = _load(scenario, config_path)
    manifest = _run_config(config, Path(outdir))
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
