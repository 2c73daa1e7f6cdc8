"""Catalog of singular drift fields with divergence bookkeeping.

Fields are evaluable callables b(t, x) with optional analytic
divergence; mollified variants are produced in closed form for the
analytic entries and by grid convolution for ingested ones.  Evaluation
is pure and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sdlab.grids import GridSpec, SpaceTimeField, interp_space, read_field
from sdlab.norms import (
    CutoffFamily,
    NormSpec,
    localized_norm,
    mixed_norm,
    smooth_transition,
    smooth_transition_with_deriv,
    spatial_gradient,
)


@dataclass
class DriftField:
    """An evaluable vector field with divergence info.

    ``eval_fn(t, X)`` takes X of shape (..., d) and returns the same
    shape; ``div_fn`` returns shape (...).  ``mollifier(eps)`` builds
    the field regularized at scale eps > 0.  A solver freezes the field
    at its first time unless ``time_dependent`` is set.
    """

    dim: int
    eval_fn: Callable
    div_fn: Callable | None = None
    mollification_level: float = 0.0
    provenance: str = "custom"
    singular_distance: Callable | None = None
    metadata: dict = field(default_factory=dict)
    mollifier: Callable | None = None
    time_dependent: bool = False

    def __call__(self, t, X) -> np.ndarray:
        return np.asarray(self.eval_fn(t, np.asarray(X, dtype=np.float64)))

    def divergence(self, t, X) -> np.ndarray:
        if self.div_fn is None:
            raise ValueError("drift has no divergence information")
        return np.asarray(self.div_fn(t, np.asarray(X, dtype=np.float64)))

    def div_negative(self, t, X) -> np.ndarray:
        """(div b)^-, the negative part of the divergence."""
        return np.maximum(-self.divergence(t, X), 0.0)

    def mollified(self, eps: float) -> "DriftField":
        if eps <= 0:
            raise ValueError("mollification level must be positive")
        if self.mollifier is None:
            raise ValueError(f"{self.provenance} drift has no mollifier")
        return self.mollifier(eps)

    def sample_speed(self, grid: GridSpec) -> SpaceTimeField:
        """|b| sampled on the grid as a scalar space-time field.

        Nodes within h/2 of the singular set are evaluated at
        mollification level h so the samples stay finite while keeping
        the supercritical profile at resolvable scales.
        """
        return self._sample_scalar(grid, lambda b, t, X: np.linalg.norm(b(t, X), axis=-1))

    def sample_div_negative(self, grid: GridSpec) -> SpaceTimeField:
        return self._sample_scalar(grid, lambda b, t, X: b.div_negative(t, X))

    def _sample_scalar(self, grid: GridSpec, extract) -> SpaceTimeField:
        X = grid.nodes()
        shape = grid.spatial_shape()
        needs_fallback = None
        if self.singular_distance is not None and self.mollification_level == 0.0:
            needs_fallback = self.singular_distance(X) < grid.h / 2
        slices = []
        fallback = self.mollified(grid.h) if needs_fallback is not None and needs_fallback.any() else None
        for t in grid.times:
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = extract(self, t, X)
            if fallback is not None:
                vals = np.where(needs_fallback, extract(fallback, t, X), vals)
            slices.append(vals.reshape(shape))
        return SpaceTimeField(grid, np.stack(slices), 1)


# ---------------------------------------------------------------------------
# Radial drift  b(x) = -c x |x|^{-2}


def radial_drift(c: float, d: int, eps: float = 0.0) -> DriftField:
    """Centripetal drift -c x / |x|^2 with divergence -c(d-2)|x|^{-2}.

    With eps > 0 the field is the smooth regularization
    -c x / (|x|^2 + eps^2), which converges to the singular field
    locally uniformly away from the origin.
    """
    if d < 2:
        raise ValueError("radial drift requires d >= 2")

    e2 = eps * eps

    def ev(t, X):
        u = np.sum(X * X, axis=-1, keepdims=True)
        return -c * X / (u + e2) if e2 > 0 else -c * X / u

    def dv(t, X):
        u = np.sum(X * X, axis=-1)
        if e2 > 0:
            return -c * ((d - 2) * u + d * e2) / (u + e2) ** 2
        return -c * (d - 2) / u

    return DriftField(
        dim=d,
        eval_fn=ev,
        div_fn=dv,
        mollification_level=eps,
        provenance="radial",
        singular_distance=(None if eps > 0 else lambda X: np.linalg.norm(X, axis=-1)),
        metadata={"c": c},
        mollifier=lambda e: radial_drift(c, d, e),
    )


# ---------------------------------------------------------------------------
# Lattice drift of periodically repeated power-law spikes


def _phi(rho):
    """Radial cutoff: 1 on [0,1], 0 beyond 2, smooth in between."""
    return smooth_transition(rho, 1.0, 2.0)


def _phi_and_prime(rho):
    """(_phi, its derivative) from one evaluation of the profile."""
    return smooth_transition_with_deriv(rho, 1.0, 2.0)


def lattice_drift(
    gamma_max: float,
    alpha_sing: float,
    d: int,
    period: int = 4,
    seed: int = 0,
    eps: float = 0.0,
) -> DriftField:
    """Periodic field of radial spikes gamma_z (x-z)/|x-z|^alpha phi(|x-z|).

    Spike weights gamma_z are i.i.d. uniform on (0, gamma_max), seeded;
    one weight per integer lattice point of the periodic cell
    [-period/2, period/2)^d.
    """
    if alpha_sing >= 3:
        raise ValueError("spike exponent must be < 3")
    if gamma_max < 0:
        raise ValueError("gamma_max must be nonnegative")
    if period < 4:
        # spikes reach radius 2 and the minimum-image wrap keeps one image each
        raise ValueError(f"period must be >= 4 (twice the spike radius), got {period}")
    rng = np.random.default_rng(seed)
    zs = np.stack(
        [m.ravel() for m in np.meshgrid(*([np.arange(period) - period // 2] * d), indexing="ij")],
        axis=-1,
    ).astype(np.float64)
    gammas = rng.uniform(0.0, gamma_max, size=len(zs))
    e2 = eps * eps
    a = alpha_sing
    Lp = float(period)

    def wrap(v):
        # minimum image; rint is far cheaper per element than float %
        return v - Lp * np.rint(v / Lp)

    def _terms(X):
        # yields (gamma, displacement, rho2) per lattice point; coordinates
        # lead, shape (d, ...), so every array operation runs over the points
        Xt = np.ascontiguousarray(np.moveaxis(X, -1, 0))
        lead = (slice(None),) + (None,) * (X.ndim - 1)
        for gamma, z in zip(gammas, zs):
            disp = wrap(Xt - z[lead])
            rho2 = sum(c * c for c in disp)
            yield gamma, disp, rho2

    def ev(t, X):
        out = np.zeros((d,) + X.shape[:-1])
        for gamma, disp, rho2 in _terms(X):
            u = rho2 + e2
            rho = np.sqrt(rho2)
            with np.errstate(divide="ignore", invalid="ignore"):
                g = u ** (-a / 2.0) * _phi(rho)
            out += gamma * disp * g
        return np.ascontiguousarray(np.moveaxis(out, 0, -1))

    def dv(t, X):
        out = np.zeros(X.shape[:-1])
        for gamma, disp, rho2 in _terms(X):
            u = rho2 + e2
            rho = np.sqrt(rho2)
            with np.errstate(divide="ignore", invalid="ignore"):
                g = u ** (-a / 2.0)
                phi, dphi = _phi_and_prime(rho)
                term = g * ((d - a * rho2 / u) * phi + rho * dphi)
            out += gamma * term
        return out

    def sdist(X):
        frac = X - np.round(X)
        return np.linalg.norm(frac, axis=-1)

    return DriftField(
        dim=d,
        eval_fn=ev,
        div_fn=dv,
        mollification_level=eps,
        provenance="lattice",
        singular_distance=(None if eps > 0 or alpha_sing <= 1 else sdist),
        metadata={
            "gamma_max": gamma_max,
            "alpha_sing": alpha_sing,
            "seed": seed,
            "period": period,
        },
        mollifier=lambda e: lattice_drift(gamma_max, alpha_sing, d, period, seed, e),
    )


# ---------------------------------------------------------------------------
# Simple analytic entries used as oracles


def zero_drift(d: int) -> DriftField:
    z = DriftField(
        dim=d,
        eval_fn=lambda t, X: np.zeros_like(X),
        div_fn=lambda t, X: np.zeros(X.shape[:-1]),
        mollification_level=np.inf,
        provenance="custom",
        metadata={"name": "zero"},
    )
    z.mollifier = lambda e: z
    return z


def constant_drift(v) -> DriftField:
    v = np.asarray(v, dtype=np.float64)
    b = DriftField(
        dim=len(v),
        eval_fn=lambda t, X: np.broadcast_to(v, X.shape).copy(),
        div_fn=lambda t, X: np.zeros(X.shape[:-1]),
        mollification_level=np.inf,
        provenance="custom",
        metadata={"name": "constant", "v": v.tolist()},
    )
    b.mollifier = lambda e: b
    return b


def linear_drift(rate: float, d: int) -> DriftField:
    """Ornstein-Uhlenbeck style drift b(x) = -rate * x; div = -rate*d."""
    b = DriftField(
        dim=d,
        eval_fn=lambda t, X: -rate * X,
        div_fn=lambda t, X: np.full(X.shape[:-1], -rate * d),
        mollification_level=np.inf,
        provenance="custom",
        metadata={"name": "linear", "rate": rate},
    )
    b.mollifier = lambda e: b
    return b


# ---------------------------------------------------------------------------
# External fields (SDLF ingestion)


def load_external(path, grid: GridSpec | None = None, divergence_path=None) -> DriftField:
    """Ingest a velocity field from an SDLF file.

    Evaluation uses multilinear interpolation, periodic in space and
    clamped in time.  Divergence is computed spectrally per slice when a
    companion field is not supplied.  The returned metadata carries the
    energy-class quantities sup_t ||u(t)||_2 and ||grad u||_{2;2}.
    """
    fld = read_field(path)
    g = fld.grid
    if grid is not None and grid != g:
        raise ValueError("grid mismatch between file and request")
    if fld.components != g.spatial_dim:
        raise ValueError(
            f"external field has {fld.components} components, expected {g.spatial_dim}"
        )
    if not np.all(np.isfinite(fld.values)):
        raise ValueError("external field has non-finite values")

    if divergence_path is not None:
        div_field = read_field(divergence_path)
    else:
        div_vals = np.zeros((g.nt, *g.spatial_shape()))
        for i in range(g.spatial_dim):
            comp = SpaceTimeField(g, fld.values[:, i], 1)
            div_vals += spatial_gradient(comp)[:, i]
        div_field = SpaceTimeField(g, div_vals, 1)

    # energy-class quantities
    cell = g.cell_volume
    l2 = np.sqrt(np.sum(fld.values**2, axis=tuple(range(1, fld.values.ndim))) * cell)
    grad_sq = 0.0
    for i in range(g.spatial_dim):
        gr = spatial_gradient(SpaceTimeField(g, fld.values[:, i], 1))
        grad_sq += np.sum(gr**2, axis=tuple(range(1, gr.ndim))) * cell
    grad_l2l2 = float(np.sqrt(np.trapezoid(grad_sq, g.times)))

    def interp(t, X, data):
        # data shape (nt, c, N, ..., N) -> multilinear, periodic space
        tt = np.clip((t - g.time_start) / g.dt, 0, g.time_steps)
        k0 = int(np.floor(tt))
        k1 = min(k0 + 1, g.time_steps)
        wt = tt - k0
        lo = interp_space(g, X, data[k0])
        if wt == 0.0:
            return lo
        hi = interp_space(g, X, data[k1])
        return (1 - wt) * lo + wt * hi

    def ev(t, X):
        vals = interp(t, X, fld.values)  # (c, ...)
        return np.moveaxis(vals, 0, -1)

    def dv(t, X):
        return interp(t, X, div_field.values[:, None])[0]

    b = DriftField(
        dim=g.spatial_dim,
        eval_fn=ev,
        div_fn=dv,
        mollification_level=g.h,  # grid-resolved fields count as regularized
        provenance="external",
        metadata={
            "path": str(path),
            "energy_linf_l2": float(l2.max()),
            "energy_grad_l2l2": grad_l2l2,
        },
        time_dependent=bool(np.any(fld.values != fld.values[:1])),
    )
    b.mollifier = lambda e: b
    return b


# ---------------------------------------------------------------------------
# Admissibility


@dataclass
class AdmissibilityReport:
    p1: float
    q1: float
    p2: float
    q2: float
    drift_norm: float
    div_norm: float
    drift_norm_refined: float
    div_norm_refined: float
    exponents_ok: bool
    drift_stable: bool
    div_stable: bool

    @property
    def admissible(self) -> bool:
        return self.exponents_ok and self.drift_stable and self.div_stable

    def as_dict(self) -> dict:
        from dataclasses import asdict

        rec = asdict(self)
        rec["admissible"] = self.admissible
        return rec


def _exponent_ok(d, p, q):
    lhs = d / p + (0.0 if np.isinf(q) else 2.0 / q)
    return lhs < 2.0


def check_admissibility(
    b: DriftField,
    p1: float,
    q1: float,
    p2: float,
    q2: float,
    grid: GridSpec,
    centers=None,
    stability_tol: float = 0.05,
) -> AdmissibilityReport:
    """Localized-norm finiteness check for the drift and its divergence.

    Finiteness of the continuum norm is operationalized as refinement
    stability: the grid norm must move by less than ``stability_tol``
    relatively when N doubles.  The reported values are lower bounds of
    the continuum sup over translates.
    """
    fine = GridSpec(
        grid.spatial_dim,
        grid.extent,
        grid.points_per_axis * 2,
        grid.time_start,
        grid.time_end,
        grid.time_steps,
    )
    if centers is None:
        mid = 0.5 * (grid.time_start + grid.time_end)
        centers = [
            (mid, np.zeros(grid.spatial_dim)),
            (mid, np.full(grid.spatial_dim, 0.5)),
        ]
    fam = CutoffFamily(radius=1.0, centers=centers)

    def loc(sample_fn, g, p, q):
        f = sample_fn(g)
        return localized_norm(f, NormSpec(0.0, p, q, 1.0), fam)

    bn = loc(b.sample_speed, grid, p1, q1)
    bn2 = loc(b.sample_speed, fine, p1, q1)
    dn = loc(b.sample_div_negative, grid, p2, q2)
    dn2 = loc(b.sample_div_negative, fine, p2, q2)

    def stable(v, v2):
        if v2 == 0.0:
            return True
        return abs(v2 - v) / max(v2, 1e-300) < stability_tol

    return AdmissibilityReport(
        p1=p1,
        q1=q1,
        p2=p2,
        q2=q2,
        drift_norm=bn,
        div_norm=dn,
        drift_norm_refined=bn2,
        div_norm_refined=dn2,
        exponents_ok=_exponent_ok(b.dim, p1, q1) and _exponent_ok(b.dim, p2, q2),
        drift_stable=stable(bn, bn2),
        div_stable=stable(dn, dn2),
    )
