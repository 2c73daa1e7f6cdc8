"""Euler-Maruyama laboratory for dX = b(t,X) dt + sqrt(2) dW.

Ensembles are driven by a counter-based generator keyed by (seed, step),
so results are independent of evaluation order.  A coupled run steps a
dt chain and a dt/2 chain on one Brownian path: each fine key (seed, j)
is drawn once, and coarse step k adds fine increments 2k and 2k+1.
An ensemble of more than BLOCK_ROWS paths is cut into row blocks, each
with its own noise counter, and one task on all cores takes a block
through every step (drift, update, noise, finiteness check); the stream
depends on the block size, never on the number of threads, and drifts
act row by row, so the split changes no bit.  Time integrals of
path functionals use left-endpoint Riemann sums, which makes the
f == 1 identities exact rather than approximate.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from sdlab.drifts import DriftField, row_dot
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


def _block_edges(paths: int) -> list:
    """Edges of a step's near-equal row blocks: block b is rows edges[b]:edges[b + 1]."""
    nb = -(-paths // BLOCK_ROWS)
    return [b * paths // nb for b in range(nb + 1)]


def step_normals(seed: int, step: int, paths: int, dim: int) -> np.ndarray:
    """Standard normal increments for one step, reproducible by key.

    The rows are cut at ``_block_edges(paths)``; block b is the Philox
    stream keyed by (seed, step) from counter b in its top word, so block
    0 is the unsplit stream.
    """
    out = np.empty((paths, dim))
    edges = _block_edges(paths)
    for b, (lo, hi) in enumerate(zip(edges, edges[1:])):
        _fill_block(seed, step, b, out[lo:hi])
    return out


def batch_stats(values: np.ndarray):
    """Mean and batch-means standard error over 20 batches."""
    values = np.asarray(values, float)
    n_batches = 20
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
        if self.store_stride < 1:
            raise ValueError("store_stride must be >= 1")
        s, _ = self.start
        if self.horizon <= s:
            raise ValueError("horizon must exceed the start time")
        if self.n_steps < 1:
            raise ValueError(f"horizon - s = {self.horizon - s:g} rounds to no step of dt = {self.dt:g}")
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
    integrals: dict = field(default_factory=dict)  # name -> (paths, len(times))
    fine: TrajectoryEnsemble | None = None  # the dt/2 chain of a coupled run

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def state_at(self, t: float) -> np.ndarray:
        """The states at stored time t; any other time raises."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9 * self.config.dt:
            raise ValueError(f"time {t} not stored (nearest {self.times[k]})")
        return self.states[:, k]

    @property
    def final_states(self) -> np.ndarray:
        return self.states[:, -1]


def _start_array(config: EnsembleConfig) -> np.ndarray:
    _, x = config.start
    x = np.atleast_1d(np.asarray(x, float))
    if x.ndim == 1:
        return np.tile(x, (config.paths, 1))
    if x.shape != (config.paths, config.drift.dim):
        raise ValueError("start array must be (paths, dim)")
    return x.copy()


class _Chain:
    """One Euler-Maruyama chain of ``simulate``: its state, running sums and stored columns.

    A step runs on a slice of rows, and its one drift call gives each
    integrand f(t, X, b) its b.  ``block`` None is the whole step on the
    calling thread, through ``DriftField``'s methods and ``step_normals``.
    A block number marks a pool task: it draws its block of the noise and
    calls only numpy and the kernel ``fn``, so a profiler keeping one span
    stack per thread sees its work inside the ``simulate`` call that waits.
    """

    def __init__(self, config: EnsembleConfig, integrands: dict, divergence: bool):
        self.config, self.integrands, self.divergence = config, integrands, divergence
        self.x = _start_array(config)
        s, _ = config.start
        K, stride = config.n_steps, config.store_stride
        n = 1 + K // stride + (K % stride != 0)  # the start, every stride-th step, the end
        self.times = np.array([s] + [s + min(j * stride, K) * config.dt for j in range(1, n)])
        self.states = np.empty((config.paths, n, config.drift.dim))
        self.states[:, 0] = self.x
        names = [*integrands, "div"] if divergence else list(integrands)
        self.sums = {name: np.zeros(config.paths) for name in names}
        # one row per stored time, handed out transposed so that each column is contiguous
        self.columns = {name: np.zeros((n, config.paths)) for name in names}

    def noise(self, k: int, rows: slice, block: int | None,
              out: np.ndarray | None = None) -> np.ndarray:
        """Brownian increment of step k on ``rows``: diffusion * sqrt(dt) * N(0, I).

        Inline it is ``step_normals(seed, k)``; a pool task fills its block
        of that array, keyed by (seed, k, block), into ``out`` or a new array.
        """
        c = self.config
        if block is None:
            out = step_normals(c.seed, k, c.paths, c.drift.dim)
        else:
            out = np.empty((rows.stop - rows.start, c.drift.dim)) if out is None else out
            _fill_block(c.seed, k, block, out)
        out *= c.diffusion * np.sqrt(c.dt)
        return out

    def drift(self, t: float, x: np.ndarray, rows: slice, block: int | None) -> np.ndarray:
        """b(t, x), the kernel's own array; with ``divergence``, div b * dt joins the "div" sum."""
        c, drift = self.config, self.config.drift
        if block is not None:
            b, div = drift.fn(t, x, self.divergence)
        elif self.divergence:
            b, div = drift.value_and_divergence(t, x)
        else:
            b = drift(t, x)
        if self.divergence:
            self.sums["div"][rows] += div * c.dt
        return b

    def step(self, k: int, rows: slice, block: int | None, *increments: np.ndarray) -> bool:
        """Step k on ``rows``: the drift and the integrands at its left end, then each
        increment given or else the step's own noise; False if a state is not finite."""
        c = self.config
        x = self.x[rows]
        t = c.start[0] + k * c.dt
        b = self.drift(t, x, rows, block)
        for name, f in self.integrands.items():
            self.sums[name][rows] += f(t, x, b) * c.dt
        x += (bdt := b * c.dt)
        # a pool task draws its noise into b * dt's buffer, never into the kernel's own array
        for dw in increments or (self.noise(k, rows, block, bdt),):
            x += dw
        finite = bool(np.isfinite(x).all())
        if (k + 1) % c.store_stride == 0 or k == c.n_steps - 1:
            col = -(-(k + 1) // c.store_stride)
            self.states[rows, col] = x
            for name, total in self.sums.items():
                self.columns[name][col, rows] = total[rows]
        return finite

    def ensemble(self, fine: TrajectoryEnsemble | None = None) -> TrajectoryEnsemble:
        integrals = {name: cols.T for name, cols in self.columns.items()}
        return TrajectoryEnsemble(self.config, self.times, self.states, integrals, fine)


def _march(coarse: _Chain, fine: _Chain | None, rows: slice, block: int | None,
           limit: list) -> int:
    """Steps 0 to K - 1 of one chain, or of the coupled pair, on one row block.

    Returns the first step whose state is not finite, else K.  ``limit``,
    shared by the blocks of one run, holds a step at which every block
    may stop: 0 once the caller has gone or a block has raised, else the
    step of a block's non-finite state.  Only a failing step is ever
    written, so no block stops before the earliest one.
    """
    K = coarse.config.n_steps
    for k in range(K):
        if k >= limit[0]:
            return k
        try:
            if fine is None:
                finite = coarse.step(k, rows, block)
            else:
                dws = fine.noise(2 * k, rows, block), fine.noise(2 * k + 1, rows, block)
                finite = (fine.step(2 * k, rows, block, dws[0])
                          and fine.step(2 * k + 1, rows, block, dws[1])
                          and coarse.step(k, rows, block, *dws))
        except BaseException:
            limit[0] = 0
            raise
        if not finite:
            limit[0] = min(limit[0], k)
            return k
    return K


def simulate(config: EnsembleConfig, integrands: dict | None = None,
             coupled: bool = False, divergence: bool = False) -> TrajectoryEnsemble:
    """March the ensemble; optionally accumulate path-time integrals.

    States are stored at the start, at every ``store_stride``-th step and
    at the end.  ``integrands`` maps names to callables f(t, X, b) -> (paths,)
    of the rows X and the read-only b the step's one drift call returned;
    their left-endpoint Riemann sums are stored at the same steps:
    ``integrals[name]`` is (paths, len(times)), its first column zeros and
    its last the sum over the whole horizon.  Step k adds
    diffusion * sqrt(dt) * step_normals(seed, k).  With ``coupled`` the
    result's ``fine`` is the dt/2 chain on the same Brownian path, stored
    at the same times with the same integrals: it draws fine keys 0 to
    2K - 1 once each, and coarse step k adds fine increments 2k and 2k+1.
    With ``divergence`` that drift call is ``drift.value_and_divergence``
    and the ensemble carries the integral of div b as ``"div"``, a name
    no integrand may take.

    An ensemble of more than ``BLOCK_ROWS`` paths is cut at ``step_normals``'
    block edges, and each block is one task on the thread pool that takes
    its rows through every step: drift, integrands, update, its block of
    the noise and the finiteness check.  Such a task calls the drift's
    kernel ``fn`` directly, and the integrands on its rows and their b, so
    integrands and drifts must act row by row.  The bits do not depend on
    the split or on the number of threads.  A block stops at its first
    non-finite state and the others once past that step; the error names
    the earliest such step.  An exception raised in a block stops them all
    and is raised here.
    """
    integrands = integrands or {}
    if "div" in integrands:
        raise ValueError("the 'div' integral comes from simulate(..., divergence=True)")
    s, _ = config.start
    K = config.n_steps
    coarse = _Chain(config, integrands, divergence)
    fine = _Chain(replace(config, dt=config.dt / 2, horizon=s + K * config.dt,
                          store_stride=2 * config.store_stride),
                  integrands, divergence) if coupled else None

    edges = _block_edges(config.paths)
    blocks = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    limit = [K]
    if len(blocks) == 1:
        first = _march(coarse, fine, blocks[0], None, limit)
    else:
        futures = [_pool().submit(_march, coarse, fine, rows, b, limit)
                   for b, rows in enumerate(blocks)]
        try:
            concurrent.futures.wait(futures)
        finally:
            limit[0] = 0  # an interrupted caller does not wait for the whole horizon
        first = min(fut.result() for fut in futures)
    if first < K:
        raise FloatingPointError(f"non-finite state at step {first}")
    return coarse.ensemble(None if fine is None else fine.ensemble())


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
        fh.write(np.ascontiguousarray(ens.states, dtype="<f8").tobytes())


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


def krylov_verify(drift: DriftField, starts, f, deltas,
                  dt: float = 1e-3, paths: int = 2000, seed: int = 0) -> EstimateReport:
    """Scaling of E int_0^delta f(t, X_t) dt over a panel of starts.

    Fits log E = theta * log delta + const per start; requires f >= 0.
    Reports theta (pooled), its spread, and the panel-uniform constant
    sup_x E / delta^theta.
    """
    deltas = sorted(deltas)
    steps = [int(round(d_ / dt)) for d_ in deltas]
    # every delta's step is a multiple of the stride, so it is stored
    stride = max(1, math.gcd(*steps))
    table = np.zeros((len(starts), len(deltas)))
    ses = np.zeros_like(table)
    for i, x in enumerate(starts):
        cfg = EnsembleConfig(drift, (0.0, x), deltas[-1], dt, paths, seed + i, store_stride=stride)

        def fpos(t, X, b):
            vals = f(t, X)
            if np.any(vals < -1e-12):
                raise ValueError("krylov_verify requires f >= 0")
            return vals

        sums = simulate(cfg, integrands={"f": fpos}).integrals["f"]
        for j, steps_j in enumerate(steps):
            table[i, j], ses[i, j] = batch_stats(sums[:, steps_j // stride])

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
    passed = np.isfinite(theta) and theta > 3 * (theta_sd / max(np.sqrt(len(thetas)), 1)) and uniform
    return EstimateReport(
        "krylov", float(table.max()), float(ses.max()), c_emp * max(deltas) ** theta,
        c_emp, bool(passed),
        {"theta": theta, "theta_sd": theta_sd, "deltas": deltas,
         "uniform_ratio": c_emp / max(c_min, 1e-300),
         "table": table.tolist()},
    )


# ---------------------------------------------------------------------------
# Jacobian determinant of the inverse flow, L1 mass transport


def backward_flow_det(ens: TrajectoryEnsemble) -> np.ndarray:
    """det of the inverse flow's Jacobian per path, by Liouville's formula.

    The noise is additive, so along the forward path
    det grad X_{s,t}(x)^{-1} = exp(-int_s^t div b(r, X_r) dr).  The
    integral is the ensemble's ``"div"`` sum: simulate with
    ``divergence=True``.
    """
    if "div" not in ens.integrals:
        raise ValueError("ensemble has no 'div' integral; simulate it with divergence=True")
    return np.exp(-ens.integrals["div"][:, -1])


def jacobian_semigroup(drift: DriftField, f, grid, t0: float, t1: float,
                       dt: float = 1e-3, paths: int = 5000, seed: int = 0) -> EstimateReport:
    """Mass transport bound ||T f||_1 <= C ||f||_1 with C from det J.

    ||T f||_1 = int E|f|(X_{t0,t1}(x)) dx is estimated with uniform
    starting points over the grid box; det J comes from the divergence
    integrated along the same forward paths (``backward_flow_det``).  For
    a drift divergence-free along every path (|int div b| <= 1e-10 (t1 - t0))
    the determinant is exactly one and C must not exceed 1 + 3 se.
    """
    d = drift.dim
    L = grid.extent
    gen = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(2**32)]))
    x0 = gen.uniform(-L / 2, L / 2, size=(paths, d))
    cfg = EnsembleConfig(drift, (t0, x0), t1, dt, paths, seed,
                         store_stride=max(1, int(round((t1 - t0) / dt))))
    ens = simulate(cfg, divergence=True)
    vol = L**d
    vals = vol * np.abs(f(ens.final_states))
    l1_out, se = batch_stats(vals)
    l1_in = vol * float(np.abs(f(x0)).mean())

    dets = backward_flow_det(ens)
    det_mean, det_se = batch_stats(dets)
    c_emp = l1_out / l1_in if l1_in > 0 else np.nan

    # det J = 1 needs div b = 0 along every path, not only at its start
    divergence_free = float(np.abs(ens.integrals["div"][:, -1]).max()) <= 1e-10 * (t1 - t0)
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
                      dt: float = 1e-3, paths: int = 4000, seed: int = 0) -> EstimateReport:
    """u(s,x) against the Monte Carlo value of int_s^T f(t, X_t) dt.

    ``solution`` must solve the terminal-value problem for the same
    (drift, f, T), and each panel time must be one of its grid times.
    The discretization allowance C*(dt^{1/2} + h^2) uses a constant
    fitted from the coupled dt and dt/2 chains at the first panel point;
    the dt chain is also that point's Monte Carlo estimate.
    """
    grid = solution.u.grid
    if abs(grid.time_end - T) > 1e-9:
        raise ValueError("solution horizon does not match T")
    slices = [grid.time_index(s) for s, _ in panel]

    def mc_run(s, x, seed_, coupled=False):
        cfg = EnsembleConfig(drift, (s, np.asarray(x, float)), T, dt, paths, seed_,
                             store_stride=max(1, int(round((T - s) / dt))))
        return simulate(cfg, integrands={"f": lambda t, X, b: f(t, X)}, coupled=coupled)

    pair = mc_run(*panel[0], seed, coupled=True)
    v1, v2 = (batch_stats(ens.integrals["f"][:, -1])[0] for ens in (pair, pair.fine))
    gap = max(np.sqrt(dt) - np.sqrt(dt / 2), 1e-12)
    disc_constant = abs(v1 - v2) / gap + 1.0

    allowance = disc_constant * (np.sqrt(dt) + grid.h**2)
    worst, worst_se, rows = 0.0, 0.0, []
    for i, ((s, x), k) in enumerate(zip(panel, slices)):
        pde = float(interp_space(grid, np.asarray(x, float), solution.u.values[k][None])[0])
        ens = pair if i == 0 else mc_run(s, x, seed + i)
        mc, se = batch_stats(ens.integrals["f"][:, -1])
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
                      seed: int = 0) -> EstimateReport:
    """E[(M_{t1} - M_{t0}) G] for M_t = f(X_t) - f(X_s) - int L f(X_r) dr.

    t0 is read at the first step time within dt/2 of it, which must come
    before t1; G defaults to 1.
    The bias constant comes from the coupled dt/2 chain read at the same
    times: a first-order weak bias C dt makes the two defects differ by C dt/2.
    """
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    if t0 < s:
        raise ValueError("t0 must not precede the start time s")

    def lf(t, X, b):
        return probe.lap(X) + row_dot(b, probe.grad(X))

    cfg = EnsembleConfig(drift, (s, start), t1, dt, paths, seed)
    K = cfg.n_steps
    k0 = next((k for k in range(K) if abs(s + k * dt - t0) < dt / 2), K)
    if k0 == K:  # t0 would be read at t1, and the defect would be 0 on any probe
        raise ValueError(f"no step before t1 = {t1:g} lies within dt/2 of t0 = {t0:g}")
    t = s + k0 * dt
    # stride k0 (K if k0 = 0) stores every multiple of k0 and the end, so
    # column min(k0, 1) is step k0 (fine step 2 k0)
    pair = simulate(replace(cfg, store_stride=k0 or K), integrands={"Lf": lf}, coupled=True)
    levels = []
    for ens in (pair, pair.fine):
        x0, x_t0, x_t1 = (np.ascontiguousarray(ens.states[:, i]) for i in (0, min(k0, 1), -1))
        f0 = probe.f(x0)
        m_t0 = probe.f(x_t0) - f0 - ens.integrals["Lf"][:, min(k0, 1)]
        m_t1 = probe.f(x_t1) - f0 - ens.integrals["Lf"][:, -1]
        g_val = G(t, x_t0) if G is not None else np.ones(paths)
        levels.append(batch_stats((m_t1 - m_t0) * g_val))

    (defect, se), (fine, _) = levels
    bias_constant = 2 * abs(defect - fine) / dt + 1.0
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
    paths: int
    truncated_mass: float


def normal_ks(samples: np.ndarray, mean: float, sd: float) -> float:
    """One-sample Kolmogorov-Smirnov statistic of samples against N(mean, sd^2).

    The index arrays are built as scipy's ``kstest`` builds them, so the
    two statistics agree bit for bit.
    """
    F = ndtr((np.sort(samples) - mean) / sd)
    n = len(F)
    return float(max((np.arange(1.0, n + 1) / n - F).max(), (F - np.arange(0.0, n) / n).max()))


def density_estimate(ens: TrajectoryEnsemble, t: float, grid) -> DensityEstimate:
    """Histogram density of the time-t marginal, one cell centred on each grid node."""
    X = ens.state_at(t)
    M, d = X.shape
    if M < 10**4:
        raise ValueError("at least 1e4 paths required for a histogram density")
    N, h = grid.points_per_axis, grid.h
    edges = [-grid.extent / 2 + (np.arange(N + 1) - 0.5) * h] * d
    # samples outside the cells are dropped and counted as truncated mass
    hist, _ = np.histogramdd(X, bins=edges)
    return DensityEstimate(t, edges, hist / (M * h**d), M,
                           truncated_mass=float(1.0 - hist.sum() / M))


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
