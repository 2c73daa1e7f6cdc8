"""Euler-Maruyama laboratory for dX = b(t,X) dt + sqrt(2) dW.

Ensembles are driven by a counter-based generator keyed by (seed, step),
so increments can be regenerated on demand (backward flows, refinement
couplings) instead of stored, and results are independent of evaluation
order.  Large steps are cut into row blocks with their own counters and
filled on all cores; the stream depends on the block size, never on the
number of threads.  Time integrals of path functionals use left-endpoint
Riemann sums, which makes the f == 1 identities exact rather than
approximate.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import struct
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import scipy.stats

from sdlab.drifts import DriftField
from sdlab.grids import interp_space

SQRT2 = np.sqrt(2.0)


# rows per noise block, at most; a step of up to this many paths is one block
BLOCK_ROWS = 2**15
_POOL = None


def _pool() -> concurrent.futures.ThreadPoolExecutor:
    global _POOL
    if _POOL is None:
        # the cores this process may run on (sched_getaffinity is Linux-only)
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        _POOL = concurrent.futures.ThreadPoolExecutor(cores or 1)
    return _POOL


def _forget_pool():
    # a forked child inherits the executor but not its threads
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_pool)


def _fill_block(seed: int, step: int, block: int, out: np.ndarray) -> None:
    bits = np.random.Philox(key=[np.uint64(seed), np.uint64(step)], counter=[0, 0, 0, block])
    np.random.Generator(bits).standard_normal(out=out)


def step_normals(seed: int, step: int, paths: int, dim: int) -> np.ndarray:
    """Standard normal increments for one step, reproducible by key.

    The rows are cut into ceil(paths / BLOCK_ROWS) near-equal blocks;
    block b is the Philox stream keyed by (seed, step) from counter b in
    its top word, so block 0 is the unsplit stream.  Blocks run on the
    module's thread pool (numpy releases the GIL while filling).  The
    workers call numpy only, so a profiler keeping one span stack per
    thread sees the whole draw inside this call.
    """
    out = np.empty((paths, dim))
    nb = -(-paths // BLOCK_ROWS)
    if nb <= 1:
        _fill_block(seed, step, 0, out)
        return out
    edges = [b * paths // nb for b in range(nb + 1)]
    pool = _pool()
    futures = [pool.submit(_fill_block, seed, step, b, out[edges[b]:edges[b + 1]])
               for b in range(nb)]
    for fut in futures:
        fut.result()
    return out


def batch_stats(values: np.ndarray, n_batches: int = 20):
    """Mean and batch-means standard error (>= 20 batches)."""
    values = np.asarray(values, float)
    n = len(values)
    if n < n_batches:
        raise ValueError("too few samples for batch means")
    usable = n - n % n_batches
    means = values[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(values.mean()), float(means.std(ddof=1) / np.sqrt(n_batches))


@dataclass
class EnsembleConfig:
    drift: DriftField
    start: tuple  # (s, x)
    horizon: float
    dt: float
    paths: int
    seed: int
    store_stride: int = 1
    diffusion: float = SQRT2

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.paths < 100:
            raise ValueError("at least 100 paths required")
        s, _ = self.start
        if self.horizon <= s:
            raise ValueError("horizon must exceed the start time")
        if not self.drift.mollification_level > 0:
            raise ValueError("simulation requires a mollified drift")

    @property
    def n_steps(self) -> int:
        s, _ = self.start
        return int(round((self.horizon - s) / self.dt))


@dataclass
class TrajectoryEnsemble:
    config: EnsembleConfig
    times: np.ndarray  # stored times, stride subset of the step grid
    states: np.ndarray  # (paths, len(times), dim)
    integrals: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def state_at(self, t: float) -> np.ndarray:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 0.5 * self.config.dt * self.config.store_stride:
            raise ValueError(f"time {t} not stored (nearest {self.times[k]})")
        return self.states[:, k]

    @property
    def final_states(self) -> np.ndarray:
        return self.states[:, -1]


def _start_array(config: EnsembleConfig) -> np.ndarray:
    _, x = config.start
    x = np.atleast_1d(np.asarray(x, float))
    d = config.drift.dim
    if x.ndim == 1:
        x0 = np.tile(x, (config.paths, 1))
    else:
        if x.shape != (config.paths, d):
            raise ValueError("start array must be (paths, dim)")
        x0 = x.copy()
    # nudge starts sitting exactly on a drift singularity
    sd = config.drift.singular_distance
    if sd is not None:
        bad = sd(x0) < 1e-12
        if np.any(bad):
            x0[bad] += 1e-6
    return x0


def _increment(config: EnsembleConfig, k: int) -> np.ndarray:
    """Brownian increment of step k: diffusion * sqrt(dt) * N(0, I), keyed by (seed, k)."""
    z = step_normals(config.seed, k, config.paths, config.drift.dim)
    z *= config.diffusion * np.sqrt(config.dt)
    return z


def simulate(config: EnsembleConfig, integrands: dict | None = None,
             integral_marks=None, increment=None) -> TrajectoryEnsemble:
    """March the ensemble; optionally accumulate path-time integrals.

    ``integrands`` maps names to callables f(t, X) -> (paths,) whose
    left-endpoint Riemann sums are returned per path.  With
    ``integral_marks`` the running sums are also snapshotted at those
    times (used by the short-horizon scaling fits); a mark at or before
    the start time snapshots zeros.  ``increment(k)`` is the noise added
    at step k, by default diffusion * sqrt(dt) * step_normals(seed, k).
    """
    s, _ = config.start
    K = config.n_steps
    dt = config.dt
    x = _start_array(config)
    stride = config.store_stride
    integrands = integrands or {}
    if increment is None:
        increment = partial(_increment, config)

    stored = [x.copy()]
    stored_times = [s]
    sums = {name: np.zeros(config.paths) for name in integrands}
    marks = list(integral_marks) if integral_marks is not None else []
    snaps = {name: [] for name in sums}

    next_mark = 0
    for k in range(K + 1):
        t = s + k * dt
        while next_mark < len(marks) and marks[next_mark] <= t + 1e-12:
            for name in snaps:
                snaps[name].append(sums[name].copy())
            next_mark += 1
        if k == K:
            break
        for name, f in integrands.items():
            sums[name] += f(t, x) * dt
        # in place: the drift's own array is never written to
        x += config.drift(t, x) * dt
        x += increment(k)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError(f"non-finite state at step {k}")
        if (k + 1) % stride == 0 or k == K - 1:
            stored.append(x.copy())
            stored_times.append(s + (k + 1) * dt)

    ens = TrajectoryEnsemble(
        config=config,
        times=np.array(stored_times),
        states=np.stack(stored, axis=1),
    )
    for name in sums:
        ens.integrals[name] = sums[name]
        if marks:
            ens.integrals[name + "@marks"] = np.stack(snaps[name], axis=0)
    return ens


# ---------------------------------------------------------------------------
# persistence (header + per-path blocks)

_ENS_MAGIC = b"SDEN"


def save_ensemble(ens: TrajectoryEnsemble, path: str) -> None:
    cfg = ens.config
    meta = json.dumps(
        {
            "start_time": cfg.start[0],
            "horizon": cfg.horizon,
            "dt": cfg.dt,
            "paths": cfg.paths,
            "seed": cfg.seed,
            "store_stride": cfg.store_stride,
            "drift": cfg.drift.provenance,
        }
    ).encode()
    M, K1, d = ens.states.shape
    with open(path, "wb") as fh:
        fh.write(_ENS_MAGIC)
        fh.write(struct.pack("<IIII", len(meta), M, K1, d))
        fh.write(meta)
        fh.write(ens.times.astype("<f8").tobytes())
        for m in range(M):
            fh.write(ens.states[m].astype("<f8").tobytes())


def load_ensemble_arrays(path: str):
    """Raw (meta, times, states) from disk; drift is not reconstructed."""
    with open(path, "rb") as fh:
        if fh.read(4) != _ENS_MAGIC:
            raise ValueError("not an ensemble file")
        meta_len, M, K1, d = struct.unpack("<IIII", fh.read(16))
        meta = json.loads(fh.read(meta_len))
        times = np.frombuffer(fh.read(8 * K1), "<f8")
        states = np.frombuffer(fh.read(8 * M * K1 * d), "<f8").reshape(M, K1, d)
    return meta, times, states


@dataclass
class EstimateReport:
    name: str
    lhs: float
    se: float
    rhs: float
    constant: float
    passed: bool
    meta: dict = field(default_factory=dict)

    def record(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "se": self.se,
            "rhs": self.rhs,
            "constant": self.constant,
            "passed": bool(self.passed),
            **{f"meta_{k}": v for k, v in self.meta.items()},
        }


# ---------------------------------------------------------------------------
# short-horizon occupation scaling


def krylov_verify(drift: DriftField, starts, f, deltas, s: float = 0.0,
                  dt: float = 1e-3, paths: int = 2000, seed: int = 0,
                  f_norm: float | None = None) -> EstimateReport:
    """Scaling of E int_0^delta f(t, X_t) dt over a panel of starts.

    Fits log E = theta * log delta + const per start; requires f >= 0.
    Reports theta (pooled), its spread, and the panel-uniform constant
    sup_x E / delta^theta, optionally normalized by a supplied norm of f.
    """
    deltas = sorted(deltas)
    table = np.zeros((len(starts), len(deltas)))
    ses = np.zeros_like(table)
    for i, x in enumerate(starts):
        cfg = EnsembleConfig(drift, (s, x), s + deltas[-1], dt, paths, seed + i,
                             store_stride=max(1, int(round(deltas[-1] / dt))))

        def fpos(t, X):
            vals = f(t, X)
            if np.any(vals < -1e-12):
                raise ValueError("krylov_verify requires f >= 0")
            return vals

        ens = simulate(cfg, integrands={"f": fpos}, integral_marks=[s + d_ for d_ in deltas])
        snaps = ens.integrals["f@marks"]
        for j in range(len(deltas)):
            table[i, j], ses[i, j] = batch_stats(snaps[j])

    thetas = []
    for i in range(len(starts)):
        pos = table[i] > 0
        if pos.sum() >= 2:
            thetas.append(np.polyfit(np.log(deltas)[pos], np.log(table[i][pos]), 1)[0])
    theta = float(np.mean(thetas)) if thetas else np.nan
    theta_sd = float(np.std(thetas)) if len(thetas) > 1 else 0.0
    consts = table / np.power(deltas, theta)[None]
    c_emp = float(np.nanmax(consts))
    c_min = float(np.nanmin(np.where(table > 0, consts, np.nan)))
    uniform = c_emp <= 2.0 * max(c_min, 1e-300)
    if f_norm:
        c_emp /= f_norm
    passed = np.isfinite(theta) and theta > 3 * (theta_sd / max(np.sqrt(len(thetas)), 1)) and uniform
    return EstimateReport(
        "krylov", float(table.max()), float(ses.max()), c_emp * max(deltas) ** theta,
        c_emp, bool(passed),
        {"theta": theta, "theta_sd": theta_sd, "deltas": deltas,
         "uniform_ratio": c_emp * (f_norm or 1.0) / max(c_min, 1e-300),
         "table": table.tolist()},
    )


def khasminskii_verify(drift: DriftField, start, f, lam: float, s: float = 0.0,
                       dt: float = 1e-3, paths: int = 4000, seed: int = 0) -> EstimateReport:
    """Exponential moment E exp(lam * int_s^{s+1} |f(t,X_t)| dt)."""
    cfg = EnsembleConfig(drift, (s, start), s + 1.0, dt, paths, seed,
                         store_stride=cfg_stride(dt))
    ens = simulate(cfg, integrands={"absf": lambda t, X: np.abs(f(t, X))})
    expo = lam * ens.integrals["absf"]
    if expo.max() > 700:
        q = float(np.quantile(expo, 0.999))
        return EstimateReport("khasminskii", np.inf, np.inf, np.nan, np.nan, False,
                              {"overflow_quantile_999": q})
    vals = np.exp(expo)
    mean, se = batch_stats(vals)
    half, _ = batch_stats(vals[: len(vals) // 2])
    stable = abs(half - mean) <= 3 * se + 1e-12
    return EstimateReport("khasminskii", mean, se, mean + 3 * se, mean, bool(stable),
                          {"lambda": lam, "half_sample_mean": half})


def cfg_stride(dt: float, target_slices: int = 20) -> int:
    return max(1, int(round(1.0 / dt / target_slices)))


# ---------------------------------------------------------------------------
# backward flow, Jacobian determinant, L1 mass transport


def backward_flow_det(ens: TrajectoryEnsemble) -> np.ndarray:
    """det J per path via exp{-int div b along the reconstructed reverse flow}.

    The reverse flow re-uses the forward increments (regenerated from the
    step keys), inverting each Euler step to first order.
    """
    cfg = ens.config
    if cfg.drift.div_fn is None:
        raise ValueError("drift divergence required for the determinant formula")
    s, _ = cfg.start
    dt = cfg.dt
    y = ens.final_states.copy()
    div_int = np.zeros(cfg.paths)
    for k in range(cfg.n_steps - 1, -1, -1):
        t = s + k * dt
        y -= cfg.drift(t, y) * dt
        y -= _increment(cfg, k)
        div_int += cfg.drift.divergence(t, y) * dt
    return np.exp(-div_int)


def jacobian_semigroup(drift: DriftField, f, grid, t0: float, t1: float,
                       dt: float = 1e-3, paths: int = 5000, seed: int = 0,
                       divergence_free: bool | None = None) -> EstimateReport:
    """Mass transport bound ||T f||_1 <= C ||f||_1 with C from det J.

    ||T f||_1 = int E|f|(X_{t0,t1}(x)) dx is estimated with uniform
    starting points over the grid box; det J comes from the backward-flow
    exponential formula.  For divergence-free drifts the determinant is
    exactly one and C must not exceed 1 + 3 se.
    """
    d = drift.dim
    L = grid.extent
    gen = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(2**32)]))
    x0 = gen.uniform(-L / 2, L / 2, size=(paths, d))
    cfg = EnsembleConfig(drift, (t0, x0), t1, dt, paths, seed,
                         store_stride=max(1, int(round((t1 - t0) / dt))))
    ens = simulate(cfg)
    vol = L**d
    vals = vol * np.abs(f(ens.final_states))
    l1_out, se = batch_stats(vals)
    l1_in = vol * float(np.abs(f(x0)).mean())

    dets = backward_flow_det(ens)
    det_mean, det_se = batch_stats(dets)
    c_emp = l1_out / l1_in if l1_in > 0 else np.nan

    if divergence_free is None:
        probe = drift.divergence(t0, x0)
        divergence_free = float(np.abs(probe).max()) < 1e-10
    if divergence_free:
        passed = c_emp <= 1.0 + 3 * se / max(l1_in, 1e-300)
    else:
        passed = np.isfinite(c_emp) and c_emp <= det_mean + 3 * (det_se + se / max(l1_in, 1e-300)) + 0.1
    return EstimateReport("jacobian_semigroup", l1_out, se, l1_in * max(det_mean, 1.0),
                          float(c_emp), bool(passed),
                          {"det_mean": det_mean, "det_se": det_se,
                           "divergence_free": bool(divergence_free)})


# ---------------------------------------------------------------------------
# duality with the backward PDE


def feynman_kac_check(solution, drift: DriftField, f, panel, T: float,
                      dt: float = 1e-3, paths: int = 4000, seed: int = 0,
                      disc_constant: float | None = None) -> EstimateReport:
    """u(s,x) against the Monte Carlo value of int_s^T f(t, X_t) dt.

    ``solution`` must solve the terminal-value problem for the same
    (drift, f, T).  The discretization allowance C*(dt^{1/2} + h^2) uses
    a constant fitted from a step-halving refinement at the first panel
    point unless supplied.
    """
    grid = solution.u.grid
    if abs(grid.time_end - T) > 1e-9:
        raise ValueError("solution horizon does not match T")

    def mc_value(s, x, dt_, seed_):
        cfg = EnsembleConfig(drift, (s, np.asarray(x, float)), T, dt_, paths, seed_,
                             store_stride=max(1, int(round((T - s) / dt_))))
        ens = simulate(cfg, integrands={"f": f})
        return batch_stats(ens.integrals["f"])

    if disc_constant is None:
        s0, x0 = panel[0]
        v1, _ = mc_value(s0, x0, dt, seed + 900)
        v2, _ = mc_value(s0, x0, dt / 2, seed + 900)
        gap = max(np.sqrt(dt) - np.sqrt(dt / 2), 1e-12)
        disc_constant = abs(v1 - v2) / gap + 1.0

    allowance = disc_constant * (np.sqrt(dt) + grid.h**2)
    worst, worst_se, rows = 0.0, 0.0, []
    for i, (s, x) in enumerate(panel):
        k = int(np.argmin(np.abs(grid.times - s)))
        pde = float(interp_space(grid, np.asarray(x, float), solution.u.values[k][None])[0])
        mc, se = mc_value(s, x, dt, seed + i)
        gap = abs(pde - mc)
        rows.append({"s": s, "x": list(np.atleast_1d(x)), "pde": pde, "mc": mc, "se": se,
                     "pass": gap <= 3 * se + allowance})
        if gap > worst:
            worst, worst_se = gap, se
    passed = all(r["pass"] for r in rows)
    return EstimateReport("feynman_kac", worst, worst_se, 3 * worst_se + allowance,
                          disc_constant, bool(passed),
                          {"panel": rows, "allowance": allowance})


# ---------------------------------------------------------------------------
# martingale problem defect


@dataclass
class ProbeFunction:
    f: callable  # (paths, d) -> (paths,)
    grad: callable  # (paths, d) -> (paths, d)
    lap: callable  # (paths, d) -> (paths,)


def martingale_defect(drift: DriftField, start, probe: ProbeFunction, t0: float, t1: float,
                      G=None, s: float = 0.0, dt: float = 1e-3, paths: int = 4000,
                      seed: int = 0, bias_constant: float | None = None) -> EstimateReport:
    """E[(M_{t1} - M_{t0}) G] for M_t = f(X_t) - f(X_s) - int L f(X_r) dr.

    t0 is read at the first step time within dt/2 of it; G defaults to 1.
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if t0 < s:
        raise ValueError("t0 must not precede the start time s")

    def lf(t, X):
        return probe.lap(X) + np.sum(drift(t, X) * probe.grad(X), axis=1)

    def run(dt_):
        cfg = EnsembleConfig(drift, (s, start), t1, dt_, paths, seed)
        K = cfg.n_steps
        k0 = next((k for k in range(K) if abs(s + k * dt_ - t0) < dt_ / 2), K)
        t = s + k0 * dt_
        # stride k0 (K if k0 = 0) stores steps 0, k0 and K instead of every step
        ens = simulate(replace(cfg, store_stride=k0 or K), integrands={"Lf": lf}, integral_marks=[t])
        x0, x_t0, x_t1 = (np.ascontiguousarray(ens.states[:, i]) for i in (0, min(k0, 1), -1))
        f0 = probe.f(x0)
        m_t0 = probe.f(x_t0) - f0 - ens.integrals["Lf@marks"][0]
        m_t1 = probe.f(x_t1) - f0 - ens.integrals["Lf"]
        g_val = G(t, x_t0) if G is not None else np.ones(cfg.paths)
        return batch_stats((m_t1 - m_t0) * g_val)

    defect, se = run(dt)
    if bias_constant is None:
        d2, _ = run(2 * dt)
        bias_constant = abs(d2 - defect) / dt + 1.0
    allowance = bias_constant * dt
    passed = abs(defect) <= 3 * se + allowance
    return EstimateReport("martingale_defect", defect, se, 3 * se + allowance,
                          bias_constant, bool(passed), {"t0": t0, "t1": t1, "dt": dt})


# ---------------------------------------------------------------------------
# marginal densities


@dataclass
class DensityEstimate:
    t: float
    edges: list
    histogram: np.ndarray
    kernel: np.ndarray
    bandwidth: float
    paths: int
    truncated_mass: float

    def marginal_ks(self, axis_samples: np.ndarray, cdf) -> float:
        return float(scipy.stats.kstest(axis_samples, cdf).statistic)


def density_estimate(ens: TrajectoryEnsemble, t: float, grid, bandwidth: float | None = None) -> DensityEstimate:
    """Histogram and smoothed-kernel density of the time-t marginal."""
    X = ens.state_at(t)
    M, d = X.shape
    if M < 10**4:
        raise ValueError("at least 1e4 paths required for a histogram density")
    L, N = grid.extent, grid.points_per_axis
    edges = [np.linspace(-L / 2, L / 2, N + 1)] * d
    inside = np.all(np.abs(X) <= L / 2, axis=1)
    hist, _ = np.histogramdd(X[inside], bins=edges, density=False)
    h = L / N
    hist = hist / (M * h**d)
    if bandwidth is None:
        bandwidth = 1.06 * X.std() * M ** (-1.0 / (4 + d))
    kernel = _gaussian_smooth(hist, bandwidth / h)
    return DensityEstimate(t, edges, hist, kernel, bandwidth, M,
                           truncated_mass=float(1.0 - inside.mean()))


def _gaussian_smooth(hist: np.ndarray, sigma_cells: float) -> np.ndarray:
    out = np.asarray(hist, float)
    n = out.shape[0]
    k = np.fft.fftfreq(n) * n
    # frequency response of a periodic Gaussian of std sigma_cells
    g = np.exp(-2 * (np.pi * k / n) ** 2 * sigma_cells**2)
    f = np.fft.fftn(out)
    for ax in range(out.ndim):
        shape = [1] * out.ndim
        shape[ax] = n
        f = f * g.reshape(shape)
    return np.real(np.fft.ifftn(f))


# ---------------------------------------------------------------------------
# weak convergence across mollification levels


def tightness_modulus(ens: TrajectoryEnsemble, deltas) -> list:
    """E sup_{t <= T-delta} |X_{t+delta} - X_t|^{1/2} per delta."""
    dt_store = ens.times[1] - ens.times[0]
    out = []
    for delta in deltas:
        lag = max(1, int(round(delta / dt_store)))
        diff = ens.states[:, lag:] - ens.states[:, :-lag]
        sup = np.sqrt(np.sum(diff**2, axis=2)).max(axis=1)
        out.append(float(np.sqrt(sup).mean()))
    return out


def weak_convergence_scan(base_drift: DriftField, eps_levels, observables, start,
                          horizon: float, dt: float = 1e-3, paths: int = 2000,
                          seed: int = 0, deltas=(0.01, 0.04, 0.16)) -> dict:
    """Cylinder observables and tightness moduli across mollification levels.

    ``observables`` is a list of (t_i, f_i) with f_i bounded on states.
    Reports per-level estimates with batch standard errors, consecutive
    Cauchy gaps, and a fit of the modulus to C * (delta^{theta/2} + delta^{1/4}).
    """
    rows = []
    for eps in eps_levels:
        cfg = EnsembleConfig(base_drift.mollified(eps), start, horizon, dt, paths, seed)
        ens = simulate(cfg)
        obs = []
        for (t_i, f_i) in observables:
            vals = f_i(ens.state_at(t_i))
            if np.abs(vals).max() > 1e6:
                raise ValueError("observable not bounded")
            obs.append(batch_stats(vals))
        rows.append({"eps": eps, "observables": obs,
                     "modulus": tightness_modulus(ens, deltas)})
    gaps = []
    for a, b in zip(rows, rows[1:]):
        gaps.append(max(abs(x[0] - y[0]) for x, y in zip(a["observables"], b["observables"])))
    mod = np.array([r["modulus"] for r in rows])
    shape = np.power(deltas, 0.5) + np.power(deltas, 0.25)  # theta = 1 reference shape
    c_fit = float(np.max(mod / shape[None]))
    return {
        "levels": rows,
        "cauchy_gaps": gaps,
        "deltas": list(deltas),
        "modulus_uniform_bound": float(mod.max()),
        "modulus_shape_constant": c_fit,
    }


# ---------------------------------------------------------------------------
# Markov restart consistency


def markov_check(drift: DriftField, start, t0: float, t1: float, f,
                 s: float = 0.0, dt: float = 1e-3, paths: int = 4000,
                 seed: int = 0) -> EstimateReport:
    """One-shot law at t1 versus restart from the empirical t0 marginal."""
    cfg = EnsembleConfig(drift, (s, start), t1, dt, paths, seed,
                         store_stride=max(1, int(round((t0 - s) / dt))))
    ens = simulate(cfg)
    one, se1 = batch_stats(f(ens.final_states))

    mid = ens.state_at(t0)
    gen = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(2**33)]))
    restart = mid[gen.integers(0, paths, size=paths)]
    cfg2 = EnsembleConfig(drift, (t0, restart), t1, dt, paths, seed + 77,
                          store_stride=max(1, int(round((t1 - t0) / dt))))
    ens2 = simulate(cfg2)
    two, se2 = batch_stats(f(ens2.final_states))
    se = np.hypot(se1, se2)
    passed = abs(one - two) <= 3 * se
    return EstimateReport("markov_restart", one, se, two, abs(one - two) / max(se, 1e-300),
                          bool(passed), {"restart_estimate": two, "t0": t0})


# ---------------------------------------------------------------------------
# strong-order refinement


def refinement_gap(config: EnsembleConfig) -> float:
    """E|X^{dt} - X^{dt/2}|(T) with both chains on the same Brownian path.

    Coarse step k adds the fine chain's increments 2k and 2k+1.
    """
    s, _ = config.start
    K = config.n_steps
    dt = config.dt
    d = config.drift.dim
    coarse = replace(config, store_stride=K)
    fine = replace(coarse, dt=dt / 2, horizon=s + K * dt)
    scale = config.diffusion * np.sqrt(dt / 2)

    def coupled(k):
        return scale * (step_normals(config.seed, 2 * k, config.paths, d)
                        + step_normals(config.seed, 2 * k + 1, config.paths, d))

    xc = simulate(coarse, increment=coupled).final_states
    xf = simulate(fine).final_states
    return float(np.sqrt(np.sum((xc - xf) ** 2, axis=1)).mean())


def strong_order_fit(drift: DriftField, start, horizon: float, dts, paths: int = 2000,
                     seed: int = 0) -> dict:
    gaps = [
        refinement_gap(EnsembleConfig(drift, start, horizon, dt_, paths, seed))
        for dt_ in dts
    ]
    slope = float(np.polyfit(np.log(dts), np.log(gaps), 1)[0])
    return {"dts": list(dts), "gaps": gaps, "order": slope}
