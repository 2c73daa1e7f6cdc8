"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from a seed (``__init__``), runs one
pass through sdlab's public functions (``run_pass``) and checks what
that pass returned (``check``).  A pass returns a digest of its
artifacts; every pass of a run uses the same inputs, so every digest
must equal the first one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from sdlab import cli, degiorgi, drifts, norms, pde, sde
from sdlab.grids import GridSpec, SpaceTimeField, read_field


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def determinism_check(digest, reference) -> Check:
    """Two passes over the same inputs must give bit-identical artifacts."""
    same = digest == reference
    return Check("determinism", same, "" if same else f"{digest} != {reference}")


def _null_region(name):
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# scenario-suite: the three built-in CLI scenarios, in process


EXPECTED_EXIT = {"brownian-baseline": 0, "radial-c0.5-sweep": 0, "unit-diffusion-control": 1}


def scenario_exit_check(name: str, code, expected: int) -> Check:
    ok = code == expected
    return Check(f"exit:{name}", ok, "" if ok else f"exit code {code}, expected {expected}")


def scenario_digest(names, outdir: Path) -> str:
    """sha256 over the artifact hashes that each run's manifest records."""
    parts = []
    for name in names:
        manifest = json.loads((outdir / name / "manifest.json").read_text())
        parts += [f"{name}/{k}={v['sha256']}" for k, v in sorted(manifest["artifacts"].items())]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class ScenarioSuite:
    """``sdlab run --scenario <name> --out <tmp>`` for each built-in scenario.

    The scenarios carry their own seeds, so ``seed`` only fixes the
    order in which they run.
    """

    name = "scenario-suite"

    def __init__(self, seed: int, scratch: Path):
        self.order = sorted(EXPECTED_EXIT)
        random.Random(seed).shuffle(self.order)
        self.scratch = scratch
        self._pass = 0

    def run_pass(self, region=_null_region):
        self._pass += 1
        outdir = self.scratch / f"pass{self._pass}"
        codes, walls = {}, {}
        for name in self.order:
            t0 = perf_counter()
            with region("bench.scenario." + name):
                try:
                    cli.main(["run", "--scenario", name, "--out", str(outdir / name)],
                             standalone_mode=False)
                    codes[name] = 0
                except SystemExit as exc:
                    codes[name] = exc.code
            walls[name] = perf_counter() - t0
        return codes, outdir, walls

    @staticmethod
    def part_walls(out) -> dict:
        """Seconds per scenario in one pass."""
        return out[2]

    def check(self, out, reference):
        codes, outdir, _ = out
        checks = []
        try:
            for name in self.order:
                checks.append(scenario_exit_check(name, codes[name], EXPECTED_EXIT[name]))
                checks.append(Check(f"finite:{name}", _artifacts_finite(outdir / name)))
            digest = scenario_digest(self.order, outdir)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if reference is not None:
            checks.append(determinism_check(digest, reference))
        return checks, digest


def _artifacts_finite(rundir: Path) -> bool:
    ok = True
    if (rundir / "solution.sdlf").exists():
        ok &= bool(np.all(np.isfinite(read_field(rundir / "solution.sdlf").values)))
    if (rundir / "ensemble.sden").exists():
        _, _, states = sde.load_ensemble_arrays(str(rundir / "ensemble.sden"))
        ok &= bool(np.all(np.isfinite(states)))
    return ok


# ---------------------------------------------------------------------------
# ensemble-3d: one large Euler-Maruyama ensemble


def second_moment_check(final, x0, c: float, d: int, horizon: float, dt: float,
                        eps: float) -> Check:
    """E|X_T|^2 for the radial drift -c x/(|x|^2 + eps^2) and diffusion sqrt(2).

    x.b lies in [-c, 0] and |b|^2 <= (c/2eps)^2, so the Euler chain has
    |x0|^2 + (2d - 2c)T <= E|X_T|^2 <= |x0|^2 + 2dT + T dt (c/2eps)^2;
    the estimate must fall inside within 3 batch standard errors.
    """
    mean, se = sde.batch_stats(np.sum(np.asarray(final) ** 2, axis=1))
    x02 = float(np.sum(np.square(x0)))
    lo = x02 + (2 * d - 2 * c) * horizon
    hi = x02 + 2 * d * horizon + horizon * dt * (c / (2 * eps)) ** 2
    ok = lo - 3 * se <= mean <= hi + 3 * se
    return Check("second_moment", ok, f"E|X_T|^2 = {mean:.4f} +- {se:.4f} in [{lo:.4f}, {hi:.4f}]")


class Ensemble3D:
    """``sde.simulate`` of radial_drift(0.5, 3, 0.1) from (0.5, 0, 0).

    10^5 paths in d = 3: each per-step array (2.4 MB) is larger than
    the L2 cache, unlike the small ensembles of scenario-suite.
    """

    name = "ensemble-3d"
    C, D, EPS, X0, HORIZON, DT, PATHS = 0.5, 3, 0.1, (0.5, 0.0, 0.0), 0.5, 0.005, 100_000

    def __init__(self, seed: int, scratch: Path):
        steps = int(round(self.HORIZON / self.DT))
        self.config = sde.EnsembleConfig(
            drifts.radial_drift(self.C, self.D, self.EPS), (0.0, self.X0), self.HORIZON,
            self.DT, self.PATHS, seed, store_stride=steps)

    def run_pass(self, region=_null_region):
        return sde.simulate(self.config).final_states

    def check(self, final, reference):
        checks = [
            Check("finite", bool(np.all(np.isfinite(final)))),
            second_moment_check(final, self.X0, self.C, self.D, self.HORIZON, self.DT, self.EPS),
        ]
        digest = digest_arrays(final)
        if reference is not None:
            checks.append(determinism_check(digest, reference))
        return checks, digest


# ---------------------------------------------------------------------------
# lattice-transport, the first part of lattice-analysis: mass transport
# through a lattice of spikes


class LatticeTransport:
    """``sde.jacobian_semigroup`` for lattice_drift(1.0, 1.5, 2, eps=0.2).

    16 spikes whose weights come from the seed; 8000 paths, dt 0.005,
    horizon 0.25.  Almost all of the time goes to lattice drift
    evaluation and divergence along the forward and backward flows.
    """

    name = "lattice-transport"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.drift = drifts.lattice_drift(1.0, 1.5, 2, seed=seed % 2**32, eps=0.2)
        self.grid = GridSpec(2, 4.0, 32, 0.0, 0.25, 4)

    @staticmethod
    def bump(X):
        return np.exp(-np.sum(X**2, axis=1))

    def run_pass(self, region=_null_region):
        return sde.jacobian_semigroup(self.drift, self.bump, self.grid, 0.0, 0.25,
                                      dt=0.005, paths=8000, seed=self.seed)

    def check(self, rep, reference):
        det = rep.meta["det_mean"]
        checks = [
            Check("report_passed", bool(rep.passed), json.dumps(rep.record(), default=float)),
            Check("det_mean_finite", bool(np.isfinite(det)), f"det_mean = {det}"),
        ]
        digest = digest_arrays([rep.lhs, rep.se, rep.rhs, rep.constant, det, rep.meta["det_se"]])
        if reference is not None:
            checks.append(determinism_check(digest, reference))
        return checks, digest


# ---------------------------------------------------------------------------
# analysis-ladder, the second part of lattice-analysis: De Giorgi
# threshold, localized norm, admissibility


class AnalysisLadder:
    """The analysis layers that scenario-suite barely touches.

    ``degiorgi.threshold_kappa`` on a 32^2 x 60 backward radial solve
    (solved while the inputs are built), ``norms.localized_norm`` of a
    seeded random field over the default lattice of 1728 cutoff centers,
    and ``drifts.check_admissibility`` of the 3-D radial drift at N = 32
    refined to 64.
    """

    name = "analysis-ladder"
    EXPONENTS = [norms.NormSpec(0.0, 10.0, 10.0)] * 3
    LOCAL_SPEC = norms.NormSpec(0.0, 3.0, 4.0, 1.0)

    def __init__(self, seed: int, scratch: Path):
        grid = GridSpec(2, 6.0, 32, -4.5, 4.5, 60)
        rho2 = sum(m**2 for m in grid.meshgrid())
        source = SpaceTimeField(grid, np.tile(np.exp(-rho2 / 0.25), (grid.nt, 1, 1)), 1)
        self.solution = pde.solve(pde.PDEProblem(drifts.radial_drift(0.5, 2, 0.2), source, grid,
                                                 direction="backward"))
        g = GridSpec(2, 12.0, 32, 0.0, 1.0, 6)
        rng = np.random.default_rng(seed)
        self.field = SpaceTimeField(g, rng.standard_normal((g.nt, 32, 32)), 1)
        self.admissibility_drift = drifts.radial_drift(0.5, 3, 0.2)
        self.admissibility_grid = GridSpec(3, 4.0, 32, 0.0, 0.5, 2)

    def run_pass(self, region=_null_region):
        thr = degiorgi.threshold_kappa(self.solution, self.EXPONENTS)
        spec = self.LOCAL_SPEC
        local = norms.localized_norm(self.field, spec)
        whole = norms.mixed_norm(self.field, spec.p, spec.q, spec.alpha)
        adm = drifts.check_admissibility(self.admissibility_drift, 2.5, 12.0, 1.8, 12.0,
                                         self.admissibility_grid)
        return thr, local, whole, adm

    def check(self, out, reference):
        thr, local, whole, adm = out
        certified = bool(thr["certified"] and not thr.get("floor", False)
                         and np.isfinite(thr["kappa"]))
        checks = [
            Check("threshold_certified", certified, f"kappa = {thr['kappa']}"),
            Check("localized_le_global", bool(local <= whole * (1 + 1e-9)),
                  f"localized {local} vs global {whole}"),
            Check("admissible", bool(adm.admissible), json.dumps(adm.as_dict(), default=float)),
        ]
        digest = digest_arrays([thr["kappa"], local, whole, adm.drift_norm, adm.div_norm,
                                adm.drift_norm_refined, adm.div_norm_refined])
        if reference is not None:
            checks.append(determinism_check(digest, reference))
        return checks, digest


# ---------------------------------------------------------------------------
# lattice-analysis: the two parts above, one after the other in each pass


class LatticeAnalysis:
    """lattice-transport, then analysis-ladder, in every pass.

    Neither part draws noise after its set-up, apart from the lattice
    flows' 1.5%, so a noise change predicts no move here.  They share
    one workload so that a run can be long enough for a steady mean on a
    shared host; ``part_walls`` still gives each part's seconds.
    """

    name = "lattice-analysis"

    def __init__(self, seed: int, scratch: Path):
        self.parts = (LatticeTransport(seed, scratch), AnalysisLadder(seed, scratch))

    def run_pass(self, region=_null_region):
        outs, walls = [], {}
        for part in self.parts:
            t0 = perf_counter()
            with region("bench.part." + part.name):
                outs.append(part.run_pass(region))
            walls[part.name] = perf_counter() - t0
        return outs, walls

    @staticmethod
    def part_walls(out) -> dict:
        """Seconds per part in one pass."""
        return out[1]

    def check(self, out, reference):
        checks, digests = [], []
        for i, (part, part_out) in enumerate(zip(self.parts, out[0])):
            part_checks, digest = part.check(part_out, None if reference is None else reference[i])
            checks += part_checks
            digests.append(digest)
        return checks, digests


WORKLOADS = {w.name: w for w in (ScenarioSuite, Ensemble3D, LatticeAnalysis)}
