"""Monotone solver for d_t u = Lap u + b.grad u + f on the periodic box.

Diffusion is treated implicitly; advection uses first-order upwinding
inside the implicit operator, so every step inverts an M-matrix and the
discrete comparison principle (f >= 0 implies u >= 0) holds exactly.
A Crank-Nicolson variant is available for smooth accuracy studies and
an explicit-advection variant with a CFL guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sdlab.drifts import DriftField
from sdlab.grids import GridSpec, SpaceTimeField
from sdlab.norms import (
    CutoffFamily,
    NormSpec,
    conjugate_exponents,
    mixed_norm,
    spatial_gradient,
    vnorm,
)


class CFLError(RuntimeError):
    pass


@dataclass
class PDEProblem:
    drift: DriftField
    source: SpaceTimeField
    grid: GridSpec
    direction: str = "forward"  # forward: u(t0)=0; backward: u(t1)=0

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if not self.drift.mollification_level > 0:
            raise ValueError("solver requires a regularized drift (mollification_level > 0)")
        if self.source.grid != self.grid:
            raise ValueError("source grid does not match problem grid")
        if not self.source.is_scalar:
            raise ValueError("source must be scalar")


@dataclass
class SolverConfig:
    scheme: str = "implicit"  # implicit | cn | imex
    check_cfl: bool = True

    def __post_init__(self):
        if self.scheme not in ("implicit", "cn", "imex"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class SolutionBundle:
    u: SpaceTimeField
    sup_norm: float
    v_norm: float
    residual: float
    meta: dict = field(default_factory=dict)


def _neighbor_indices(grid: GridSpec):
    idx = np.arange(grid.points_per_axis**grid.spatial_dim).reshape(grid.spatial_shape())
    plus, minus = [], []
    for ax in range(grid.spatial_dim):
        plus.append(np.roll(idx, -1, axis=ax).ravel())
        minus.append(np.roll(idx, 1, axis=ax).ravel())
    return idx.ravel(), plus, minus


def build_operator(grid: GridSpec, b_nodes: np.ndarray) -> sp.csr_matrix:
    """Sparse discretization of Lap + b.grad with upwind advection.

    ``b_nodes`` has shape (n, d).  Off-diagonals are nonnegative and row
    sums vanish, so I - dt*A is an M-matrix for any dt > 0.
    """
    n = grid.points_per_axis**grid.spatial_dim
    h = grid.h
    rows, cols, data = [], [], []
    center, plus, minus = _neighbor_indices(grid)
    diag = np.zeros(n)
    for ax in range(grid.spatial_dim):
        # Laplacian
        rows += [center, center]
        cols += [plus[ax], minus[ax]]
        data += [np.full(n, 1.0 / h**2), np.full(n, 1.0 / h**2)]
        diag -= 2.0 / h**2
        # upwind advection: b>0 pulls from the +1 neighbor
        bj = b_nodes[:, ax]
        bp = np.maximum(bj, 0.0)
        bm = np.minimum(bj, 0.0)
        rows += [center, center]
        cols += [plus[ax], minus[ax]]
        data += [bp / h, -bm / h]
        diag -= (bp - bm) / h
    rows.append(center)
    cols.append(center)
    data.append(diag)
    A = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return A.tocsr()


def solve(problem: PDEProblem, config: SolverConfig | None = None) -> SolutionBundle:
    """March the problem over the grid's time interval.

    The backward problem is reduced to the forward one by the
    substitution t -> T - t (drift and source time-reversed).  A drift
    marked ``time_dependent`` is sampled at every step; any other at the
    first step only.
    """
    config = config or SolverConfig()
    grid = problem.grid
    n = grid.points_per_axis**grid.spatial_dim
    dt = grid.dt
    nodes = grid.nodes()

    fvals = problem.source.values.reshape(grid.nt, n)
    times = grid.times
    backward = problem.direction == "backward"
    if backward:
        fvals = fvals[::-1]

    def drift_at(k: int) -> np.ndarray:
        t = times[k] if not backward else times[-1] - (times[k] - times[0])
        return problem.drift(t, nodes)

    b0 = drift_at(0)
    if config.scheme == "imex" and config.check_cfl:
        bmax = float(np.abs(b0).max())
        if bmax * dt / grid.h > 1.0:
            raise CFLError(
                f"explicit advection violates CFL: |b|max*dt/h = {bmax * dt / grid.h:.3g} > 1"
            )

    ident = sp.identity(n, format="csr")
    if config.scheme == "imex":
        lap = build_operator(grid, np.zeros_like(b0))
        lu_lap = spla.splu((ident - dt * lap).tocsc())

    def step_operators(b):
        """(A, factored implicit matrix, explicit matrix) of one step with drift samples b."""
        A = build_operator(grid, b)
        if config.scheme == "implicit":
            return A, spla.splu((ident - dt * A).tocsc()), None
        if config.scheme == "cn":
            return A, spla.splu((ident - 0.5 * dt * A).tocsc()), ident + 0.5 * dt * A
        return A, lu_lap, A - lap

    A, lu, E = step_operators(b0)
    u = np.zeros((grid.nt, n))
    residual = 0.0
    for k in range(grid.time_steps):
        if k > 0 and problem.drift.time_dependent:
            A, lu, E = step_operators(drift_at(k))
        if config.scheme == "implicit":
            rhs = u[k] + dt * fvals[k]
        elif config.scheme == "cn":
            rhs = E @ u[k] + dt * 0.5 * (fvals[k] + fvals[k + 1])
        else:
            rhs = u[k] + dt * (E @ u[k] + fvals[k])
        u[k + 1] = lu.solve(rhs)
        if config.scheme == "implicit":
            # discrete defect of this step's implicit relation (solver
            # consistency, not discretization error)
            r = (u[k + 1] - u[k]) / dt - A @ u[k + 1] - fvals[k]
            residual = max(residual, float(np.abs(r).max()))

    if backward:
        u = u[::-1]
    ufield = SpaceTimeField(grid, u.reshape(grid.nt, *grid.spatial_shape()), 1)
    return SolutionBundle(
        u=ufield,
        sup_norm=float(np.abs(u).max()),
        v_norm=vnorm(ufield),
        residual=residual,
        meta={
            "scheme": config.scheme,
            "dt": dt,
            "direction": problem.direction,
            "mollification_level": problem.drift.mollification_level,
        },
    )


def max_principle_violations(bundle: SolutionBundle, tol: float = 1e-12) -> int:
    """Count nodes where u < -tol*scale; zero for f >= 0 by monotonicity."""
    u = bundle.u.values
    scale = max(1.0, float(np.abs(u).max()))
    return int(np.count_nonzero(u < -tol * scale))


# ---------------------------------------------------------------------------
# Energy monitor


def _restrict_time(values: np.ndarray, times: np.ndarray, t: float) -> np.ndarray:
    out = values.copy()
    out[times > t + 1e-12] = 0.0
    return out


def energy_monitor(
    bundle: SolutionBundle,
    problem: PDEProblem,
    center,
    radius: float,
    kappa: float,
    exponents: list[NormSpec],
    eval_times=None,
) -> dict:
    """Empirical constant of the truncated local energy inequality.

    For w = (u - kappa)^+ and the cutoff eta at the given center and
    radius, compares ||eta w (restricted to time <= t)|| in the energy
    norm against the three right-hand norm groups.  The ratio must
    stabilize under refinement.
    """
    grid = problem.grid
    fam = CutoffFamily(radius=radius)
    fam2 = CutoffFamily(radius=2 * radius)
    eta = fam.evaluate(grid, center)
    chi2 = fam2.evaluate(grid, center)
    w = np.maximum(bundle.u.values - kappa, 0.0)

    conj = [conjugate_exponents(s.alpha, s.p, s.q) for s in exponents]
    (r1, s1), (r2, s2), (r3, s3) = conj

    eta_field = SpaceTimeField(grid, eta, 1)
    grad_eta = spatial_gradient(eta_field)
    dteta = np.gradient(eta, grid.dt, axis=0)
    grad2 = max(
        float(np.abs(spatial_gradient(SpaceTimeField(grid, grad_eta[:, i], 1))).max())
        for i in range(grid.spatial_dim)
    )
    xi_eta = (
        1.0
        + float(np.abs(dteta).max())
        + float(np.abs(grad_eta).max()) ** 2
        + grad2
    )

    if eval_times is None:
        eval_times = grid.times[:: max(1, grid.time_steps // 4)][1:]

    f3 = exponents[2]
    records = []
    for t in eval_times:
        wt = _restrict_time(w, grid.times, t)
        lhs = vnorm(SpaceTimeField(grid, wt * eta, 1))
        supp = (np.abs(eta) > 1e-10).astype(float)
        g1 = mixed_norm(SpaceTimeField(grid, wt * supp, 1), r1, s1)
        g2 = mixed_norm(SpaceTimeField(grid, wt * eta, 1), r2, s2)
        fnorm = mixed_norm(
            SpaceTimeField(grid, _restrict_time(problem.source.values * chi2, grid.times, t), 1),
            f3.p,
            f3.q,
            f3.alpha,
        )
        ind = (np.abs(wt * eta) > 0).astype(float)
        g3 = fnorm * mixed_norm(SpaceTimeField(grid, ind, 1), r3, s3)
        rhs = np.sqrt(xi_eta) * (g1 + g2 + g3)
        records.append(
            {
                "t": float(t),
                "lhs": lhs,
                "rhs": rhs,
                "c_emp": lhs / rhs if rhs > 0 else 0.0,
            }
        )
    return {
        "xi_eta": xi_eta,
        "kappa": kappa,
        "radius": radius,
        "records": records,
        "c_emp_max": max(r["c_emp"] for r in records),
    }


# ---------------------------------------------------------------------------
# Mollification stability sweep


def check_eps_levels(eps_levels) -> list:
    """``eps_levels`` as a list; ValueError unless positive and strictly decreasing."""
    levels = list(eps_levels)
    if not levels or min(levels) <= 0 or any(b >= a for a, b in zip(levels, levels[1:])):
        raise ValueError("eps_levels must be positive and strictly decreasing")
    return levels


def stability_sweep(
    base_drift: DriftField,
    eps_levels,
    source: SpaceTimeField,
    grid: GridSpec,
    config: SolverConfig | None = None,
    direction: str = "forward",
) -> dict:
    """Solve at each mollification level; report Cauchy behavior.

    Distances are L^2 norms of consecutive differences on the central
    compact sub-box |x_i| <= L/4, time in [t0, t1].
    """
    eps_levels = check_eps_levels(eps_levels)
    sols = []
    for eps in eps_levels:
        prob = PDEProblem(base_drift.mollified(eps), source, grid, direction)
        sols.append(solve(prob, config))

    mask = _central_mask(grid)
    cell = grid.cell_volume
    dists = []
    for a, b in zip(sols, sols[1:]):
        diff = (a.u.values - b.u.values) * mask
        val = float(
            np.sqrt(np.trapezoid(np.sum(diff**2, axis=tuple(range(1, diff.ndim))) * cell, grid.times))
        )
        dists.append(val)

    # geometric Cauchy-rate fit: log dist vs level index
    rate = np.nan
    if len(dists) >= 2 and all(d > 0 for d in dists):
        slope = np.polyfit(np.arange(len(dists)), np.log(dists), 1)[0]
        rate = float(np.exp(slope))
    return {
        "eps_levels": eps_levels,
        "distances": dists,
        "cauchy_rate": rate,
        "sup_norms": [s.sup_norm for s in sols],
        "v_norms": [s.v_norm for s in sols],
        "uniform_bound": max(s.sup_norm + s.v_norm for s in sols),
        "solutions": sols,
    }


def _central_mask(grid: GridSpec) -> np.ndarray:
    mesh = grid.meshgrid()
    inside = np.ones(grid.spatial_shape(), dtype=bool)
    for m in mesh:
        inside &= np.abs(m) <= grid.extent / 4
    return inside.astype(float)[None]
