"""Monotone solver for d_t u = Lap u + b.grad u + f on the periodic box.

Diffusion is treated implicitly; advection uses first-order upwinding
inside the implicit operator, so every step inverts an M-matrix and the
discrete comparison principle (f >= 0 implies u >= 0) holds exactly.
A Crank-Nicolson variant is available for smooth accuracy studies.
``stability_sweep`` solves one problem along a ladder of mollification
levels of its drift, and hands back the level that is the problem itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sdlab.drifts import DriftField
from sdlab.grids import GridSpec, SpaceTimeField, slabs
from sdlab.norms import (
    CutoffFamily,
    NormSpec,
    conjugate_exponents,
    mixed_norm,
    spatial_gradient,
    vnorm,
)


@dataclass
class PDEProblem:
    drift: DriftField
    source: SpaceTimeField
    grid: GridSpec
    direction: str = "forward"  # forward: u(t0)=0; backward: u(t1)=0
    scheme: str = "implicit"  # implicit | cn

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.scheme not in ("implicit", "cn"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.drift.mollification_level > 0:
            raise ValueError("solver requires a regularized drift (mollification_level > 0)")
        if self.source.grid != self.grid:
            raise ValueError("source grid does not match problem grid")
        if not self.source.is_scalar:
            raise ValueError("source must be scalar")


@dataclass
class SolutionBundle:
    u: SpaceTimeField
    sup_norm: float
    residual: float


def build_operator(grid: GridSpec, b_nodes: np.ndarray) -> sp.csr_matrix:
    """Sparse discretization of Lap + b.grad with upwind advection.

    ``b_nodes`` has shape (n, d).  Off-diagonals are nonnegative and row
    sums vanish, so I - dt*A is an M-matrix for any dt > 0.  Each row
    holds the 2d+1 stencil entries, distinct columns for N >= 4, filled
    straight into CSR arrays with the columns sorted.
    """
    d, h = grid.spatial_dim, grid.h
    n, k = grid.points_per_axis**d, 2 * d + 1
    index = np.int32 if n * k <= np.iinfo(np.int32).max else np.int64
    idx = np.arange(n, dtype=index).reshape(grid.spatial_shape())
    cols, data = np.empty((n, k), dtype=index), np.empty((n, k))
    cols[:, 0] = idx.ravel()
    diag = np.zeros(n)
    for ax in range(d):
        # Laplacian plus upwind advection: b>0 pulls from the +1 neighbor
        bp = np.maximum(b_nodes[:, ax], 0.0)
        bm = np.minimum(b_nodes[:, ax], 0.0)
        cols[:, 2 * ax + 1] = np.roll(idx, -1, axis=ax).ravel()
        cols[:, 2 * ax + 2] = np.roll(idx, 1, axis=ax).ravel()
        data[:, 2 * ax + 1] = 1.0 / h**2 + bp / h
        data[:, 2 * ax + 2] = 1.0 / h**2 - bm / h
        diag -= 2.0 / h**2
        diag -= (bp - bm) / h
    data[:, 0] = diag
    order = np.argsort(cols, axis=1)
    return sp.csr_matrix((np.take_along_axis(data, order, 1).ravel(),
                          np.take_along_axis(cols, order, 1).ravel(),
                          np.arange(0, n * k + 1, k, dtype=index)), shape=(n, n))


def _factor(M: sp.spmatrix):
    """Sparse LU of a step matrix I - theta*dt*A, ordered to keep the fill low.

    The stencil is structurally symmetric and I - theta*dt*A is a
    nonsingular M-matrix, so its diagonal pivots exist and are positive:
    a minimum-degree ordering of A + A^T applied to rows and columns
    alike needs no row exchange.
    """
    return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


def solve(problem: PDEProblem) -> SolutionBundle:
    """March the problem over the grid's time interval.

    The backward problem is reduced to the forward one by the
    substitution t -> T - t (drift and source time-reversed).  A drift
    marked ``time_dependent`` is sampled at every step; any other at the
    first step only.
    """
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

    ident = sp.identity(n, format="csr")

    def step_operators(b):
        """(A, factored implicit matrix, explicit matrix) of one step with drift samples b."""
        A = build_operator(grid, b)
        if problem.scheme == "implicit":
            return A, _factor(ident - dt * A), None
        return A, _factor(ident - 0.5 * dt * A), ident + 0.5 * dt * A

    A, lu, E = step_operators(drift_at(0))
    u = np.zeros((grid.nt, n))
    # march step k fills row rows[k + 1]: a backward solution is stored in time order
    rows = range(grid.nt)[::-1] if backward else range(grid.nt)
    residual = 0.0
    for k in range(grid.time_steps):
        if k > 0 and problem.drift.time_dependent:
            A, lu, E = step_operators(drift_at(k))
        old = u[rows[k]]
        # each step's solve, and the discrete defect of its relation (solver
        # consistency, not discretization error)
        if problem.scheme == "implicit":
            new = u[rows[k + 1]] = lu.solve(old + dt * fvals[k])
            r = (new - old) / dt - A @ new - fvals[k]
        else:
            half_f = 0.5 * (fvals[k] + fvals[k + 1])
            new = u[rows[k + 1]] = lu.solve(E @ old + dt * half_f)
            r = (new - old) / dt - A @ (new + old) * 0.5 - half_f
        residual = max(residual, float(np.abs(r).max()))

    return SolutionBundle(
        u=SpaceTimeField(grid, u.reshape(grid.nt, *grid.spatial_shape()), 1),
        sup_norm=float(max(u.max(), -u.min())),
        residual=residual,
    )


def max_principle_violations(bundle: SolutionBundle) -> int:
    """Count nodes where u < -1e-12*scale; zero for f >= 0 by monotonicity."""
    return int(np.count_nonzero(bundle.u.values < -1e-12 * max(1.0, bundle.sup_norm)))


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


def stability_sweep(problem: PDEProblem, eps_levels) -> dict:
    """Solve ``problem`` at each mollification level of its drift with the implicit scheme.

    The drift must have a mollification family (``mollifier``): without
    one every level would solve the same problem.  Distances are L^2
    norms of consecutive differences on the central compact sub-box
    |x_i| <= L/4, time in [t0, t1].  Only the previous level's solution
    is held, and the level that is ``solve(problem)``, returned as
    "kept": the one at the drift's own mollification level, if
    ``problem`` is implicit (None otherwise, or off the ladder).
    """
    eps_levels = check_eps_levels(eps_levels)
    drift = problem.drift
    if drift.mollifier is None:
        raise ValueError(f"a {drift.provenance} drift has no mollification family to refine")
    prev = kept = None
    sups, vs, dists = [], [], []
    for eps in eps_levels:
        sol = solve(replace(problem, drift=drift.mollified(eps), scheme="implicit"))
        sups.append(sol.sup_norm)
        vs.append(vnorm(sol.u))
        if prev is not None:
            dists.append(_central_distance(prev.u, sol.u))
        prev = sol
        if eps == drift.mollification_level and problem.scheme == "implicit":
            kept = sol
    return {
        "distances": dists,
        "sup_norms": sups,
        "v_norms": vs,
        "uniform_bound": max(s + v for s, v in zip(sups, vs)),
        "kept": kept,
    }


def _central_distance(a: SpaceTimeField, b: SpaceTimeField) -> float:
    """Space-time L^2 norm of a - b on the central sub-box, its slices summed in time slabs."""
    grid = a.grid
    mask = _central_mask(grid)
    sq = np.empty(grid.nt)
    for s in slabs(a.values.shape):
        diff = (a.values[s] - b.values[s]) * mask
        sq[s] = np.sum(diff**2, axis=tuple(range(1, diff.ndim)))
    return float(np.sqrt(np.trapezoid(sq * grid.cell_volume, grid.times)))


def _central_mask(grid: GridSpec) -> np.ndarray:
    mesh = grid.meshgrid()
    inside = np.ones(grid.spatial_shape(), dtype=bool)
    for m in mesh:
        inside &= np.abs(m) <= grid.extent / 4
    return inside.astype(float)[None]
