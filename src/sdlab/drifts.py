"""Catalog of singular drift fields with divergence bookkeeping.

Each field is one kernel ``fn(t, X, div)`` that returns (b, div b) from
one pass, sharing their common terms, or (b, None) when ``div`` is
False; b has the same bits either way.  Mollified variants are produced
in closed form for the analytic entries, and an ingested field,
resolved on its grid, is its own mollification.  Evaluation is pure and
reentrant.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from sdlab.grids import GridSpec, SpaceTimeField, interp_space, read_field, slabs
from sdlab.norms import (
    CutoffFamily,
    NormSpec,
    localized_norms,
    smooth_transition,
    smooth_transition_with_deriv,
    spatial_gradient,
)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, summed coordinate by coordinate.

    The order is np.sum's, so the bits are the same for fewer than 8
    coordinates (from 8 on np.sum splits the axis into eight partial
    sums); a reduction over the short last axis is several times slower.
    """
    out = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        out += a[..., i] * b[..., i]
    return out


@dataclass
class DriftField:
    """An evaluable vector field and its divergence, from one kernel.

    ``fn(t, X, div)`` takes X of shape (..., d) and returns (b, div b),
    of shapes (..., d) and (...), when ``div`` is True, else (b, None);
    b must not depend on ``div``.  ``mollifier(eps)`` builds the field
    regularized at scale eps > 0.  A solver freezes the field at its
    first time unless ``time_dependent`` is set.
    """

    dim: int
    fn: Callable
    mollification_level: float = 0.0
    provenance: str = "custom"
    singular_distance: Callable | None = None
    metadata: dict = field(default_factory=dict)
    mollifier: Callable | None = None
    time_dependent: bool = False

    def __call__(self, t, X) -> np.ndarray:
        return self.fn(t, np.asarray(X, dtype=np.float64), False)[0]

    def divergence(self, t, X) -> np.ndarray:
        return self.fn(t, np.asarray(X, dtype=np.float64), True)[1]

    def value_and_divergence(self, t, X) -> tuple[np.ndarray, np.ndarray]:
        return self.fn(t, np.asarray(X, dtype=np.float64), True)

    def mollified(self, eps: float) -> "DriftField":
        if eps <= 0:
            raise ValueError("mollification level must be positive")
        if self.mollifier is not None:
            return self.mollifier(eps)
        # a regular field without a family is its own mollification
        if self.mollification_level > 0:
            return self
        raise ValueError(f"{self.provenance} drift has no mollifier")

    def sample(self, grid: GridSpec) -> tuple[SpaceTimeField, SpaceTimeField]:
        """(|b|, (div b)^-) sampled on the grid as scalar space-time fields.

        Nodes within h/2 of the singular set are evaluated at
        mollification level h so the samples stay finite while keeping
        the supercritical profile at resolvable scales.  The kernel runs
        on first-axis slabs of at most ``grids.SLAB_NODES`` nodes and
        writes into the two outputs, so no other array is grid-sized; it
        acts row by row, so the bits do not depend on the slabs.
        """
        shape = grid.spatial_shape()
        # a frozen field is sampled once, at the first time, and repeated as a view
        times = grid.times if self.time_dependent else grid.times[:1]
        speed, div_neg = np.empty((len(times), *shape)), np.empty((len(times), *shape))
        fallback = None
        for rows in slabs(shape):
            X = grid.nodes(rows)
            near = None
            if self.singular_distance is not None and self.mollification_level == 0.0:
                near = self.singular_distance(X) < grid.h / 2
                if near.any():
                    fallback = fallback or self.mollified(grid.h)
                else:
                    near = None
            for k, t in enumerate(times):
                with np.errstate(divide="ignore", invalid="ignore"):
                    b, div = self.value_and_divergence(t, X)
                if near is not None:
                    fb, fdiv = fallback.value_and_divergence(t, X)
                    b, div = np.where(near[..., None], fb, b), np.where(near, fdiv, div)
                np.sqrt(row_dot(b, b), out=speed[k, rows].reshape(-1))
                np.maximum(-div, 0.0, out=div_neg[k, rows].reshape(-1))
        return tuple(SpaceTimeField(grid, np.broadcast_to(v, (grid.nt, *shape)), 1)
                     for v in (speed, div_neg))


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

    def fn(t, X, div):
        u = row_dot(X, X)
        if e2 > 0:
            v = u + e2
            return -c * X / v[..., None], (-c * ((d - 2) * u + d * e2) / v**2 if div else None)
        return -c * X / u[..., None], (-c * (d - 2) / u if div else None)

    return DriftField(
        dim=d,
        fn=fn,
        mollification_level=eps,
        provenance="radial",
        singular_distance=(None if eps > 0 else lambda X: np.linalg.norm(X, axis=-1)),
        metadata={"c": c},
        mollifier=lambda e: radial_drift(c, d, e),
    )


# ---------------------------------------------------------------------------
# Lattice drift of periodically repeated power-law spikes


def lattice_drift(
    gamma_max: float,
    alpha_sing: float,
    d: int,
    period: int = 4,
    seed: int = 0,
    eps: float = 0.0,
) -> DriftField:
    """Periodic field of radial spikes gamma_z (x-z)/|x-z|^alpha phi(|x-z|).

    With eps > 0 each spike is mollified in closed form:
    gamma_z (x-z) (|x-z|^2 + eps^2)^(-alpha/2) phi(|x-z|).  phi is 1 on
    [0, 1] and 0 from 2 on.  Spike weights gamma_z are i.i.d. uniform on
    (0, gamma_max), seeded; one weight per integer lattice point of the
    periodic cell [-period/2, period/2)^d, displacements taken minimum
    image.  With eps = 0 and alpha > 0 a spike's own point evaluates
    0 * inf, so grid sampling falls back to the h-mollified field within
    h/2 of a spike.
    """
    if alpha_sing >= 3:
        raise ValueError("spike exponent must be < 3")
    if gamma_max < 0:
        raise ValueError("gamma_max must be nonnegative")
    if period < 4:
        # spikes reach radius 2 and the minimum-image wrap keeps one image each
        raise ValueError(f"period must be >= 4 (twice the spike radius), got {period}")
    rng = np.random.default_rng(seed)
    # each spike's per-axis index into arange(period); its coordinates are index - period // 2
    ks = np.stack(
        [m.ravel() for m in np.meshgrid(*([np.arange(period)] * d), indexing="ij")], axis=-1
    )
    coords = (np.arange(period) - period // 2).astype(np.float64)
    gammas = rng.uniform(0.0, gamma_max, size=len(ks))
    e2 = eps * eps
    a = alpha_sing
    Lp = float(period)

    def wrap(v):
        # minimum image; rint is far cheaper per element than float %
        return v - Lp * np.rint(v / Lp)

    def spikes(X, with_div):
        # one pass over the lattice points builds b, and div b when asked, from
        # the terms they share; coordinates lead, shape (d, ...), so every array
        # operation runs over the points.  Without div b the profile's
        # derivative is never taken.
        Xt = np.ascontiguousarray(np.moveaxis(X, -1, 0))
        # a spike's displacement on axis i depends only on its coordinate there,
        # one of `period` values: d * period wrapped displacements and squares
        # serve all period^d spikes
        disps = [[wrap(x - c) for c in coords] for x in Xt]
        squares = [[v * v for v in row] for row in disps]
        b = np.zeros(Xt.shape)
        div = np.zeros(X.shape[:-1]) if with_div else None
        for gamma, k in zip(gammas, ks):
            rho2 = squares[0][k[0]]
            for i in range(1, d):
                rho2 = rho2 + squares[i][k[i]]
            u = rho2 + e2
            rho = np.sqrt(rho2)
            with np.errstate(divide="ignore", invalid="ignore"):
                g = u ** (-a / 2.0)
                if with_div:
                    phi, dphi = smooth_transition_with_deriv(rho, 1.0, 2.0)
                    div += gamma * (g * ((d - a * rho2 / u) * phi + rho * dphi))
                else:
                    phi = smooth_transition(rho, 1.0, 2.0)
                gp = g * phi
                for i in range(d):
                    b[i] += gamma * disps[i][k[i]] * gp
        return np.ascontiguousarray(np.moveaxis(b, 0, -1)), div

    def sdist(X):
        frac = X - np.round(X)
        return np.linalg.norm(frac, axis=-1)

    return DriftField(
        dim=d,
        fn=lambda t, X, div: spikes(X, div),
        mollification_level=eps,
        provenance="lattice",
        singular_distance=(None if eps > 0 else sdist),
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
    return DriftField(
        dim=d,
        fn=lambda t, X, div: (np.zeros_like(X), np.zeros(X.shape[:-1]) if div else None),
        mollification_level=np.inf,
        provenance="custom",
        metadata={"name": "zero"},
    )


def constant_drift(v) -> DriftField:
    v = np.asarray(v, dtype=np.float64)
    return DriftField(
        dim=len(v),
        fn=lambda t, X, div: (np.broadcast_to(v, X.shape).copy(),
                              np.zeros(X.shape[:-1]) if div else None),
        mollification_level=np.inf,
        provenance="custom",
        metadata={"name": "constant", "v": v.tolist()},
    )


def linear_drift(rate: float, d: int) -> DriftField:
    """Ornstein-Uhlenbeck style drift b(x) = -rate * x; div = -rate*d."""
    return DriftField(
        dim=d,
        fn=lambda t, X, div: (-rate * X, np.full(X.shape[:-1], -rate * d) if div else None),
        mollification_level=np.inf,
        provenance="custom",
        metadata={"name": "linear", "rate": rate},
    )


# ---------------------------------------------------------------------------
# External fields (SDLF ingestion)


def load_external(path) -> DriftField:
    """Ingest a velocity field from an SDLF file.

    Evaluation uses multilinear interpolation, periodic in space and
    clamped in time.  Divergence is computed spectrally per slice.  The
    returned metadata carries the energy-class quantities
    sup_t ||u(t)||_2 and ||grad u||_{2;2}.
    """
    fld = read_field(path)
    g = fld.grid
    if fld.components != g.spatial_dim:
        raise ValueError(
            f"external field has {fld.components} components, expected {g.spatial_dim}"
        )
    # (nt, d, N, ..., N); SDLF stores a 1-D field as a scalar, without the component axis
    values = fld.values if g.spatial_dim > 1 else fld.values[:, None]

    # d_i b_i spectrally: one transform pair per component, as spatial_gradient's column i
    axes = tuple(range(1, 1 + g.spatial_dim))
    div_vals = np.zeros((g.nt, *g.spatial_shape()))
    grad_sq = 0.0
    for i, k in enumerate(g.wavenumbers()):
        div_vals += np.fft.ifftn(1j * k * np.fft.fftn(values[:, i], axes=axes), axes=axes).real
        grad_sq += spatial_gradient(SpaceTimeField(g, values[:, i], 1), energy=True)

    # energy-class quantities
    l2 = np.sqrt(np.sum(values**2, axis=tuple(range(1, values.ndim))) * g.cell_volume)
    grad_l2l2 = float(np.sqrt(np.trapezoid(grad_sq, g.times)))

    # div b as component d after b's, so one interpolation serves both
    d = g.spatial_dim
    data = np.concatenate([values, div_vals[:, None]], axis=1)

    def fn(t, X, div):
        # multilinear, periodic in space, between the two slices around t
        tt = np.clip((t - g.time_start) / g.dt, 0, g.time_steps)
        k0 = int(np.floor(tt))
        k1 = min(k0 + 1, g.time_steps)
        wt = tt - k0
        c = d + 1 if div else d
        vals = interp_space(g, X, data[k0, :c])  # (c, ...)
        if wt != 0.0:
            vals = (1 - wt) * vals + wt * interp_space(g, X, data[k1, :c])
        return np.moveaxis(vals[:d], 0, -1), (vals[d] if div else None)

    return DriftField(
        dim=d,
        fn=fn,
        mollification_level=g.h,  # grid-resolved fields count as regularized
        provenance="external",
        metadata={
            "path": str(path),
            "energy_linf_l2": float(l2.max()),
            "energy_grad_l2l2": grad_l2l2,
        },
        time_dependent=bool(np.any(values != values[:1])),
    )


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
) -> AdmissibilityReport:
    """Localized-norm finiteness check for the drift and its divergence.

    Finiteness of the continuum norm is operationalized as refinement
    stability: the grid norm must move by less than 5% relatively when
    N doubles.  The reported values are lower bounds of the continuum
    sup over translates at two centers, the origin and (1/2, ..., 1/2),
    both at mid-time.
    """
    fine = replace(grid, points_per_axis=2 * grid.points_per_axis)
    mid = 0.5 * (grid.time_start + grid.time_end)
    centers = [(mid, np.zeros(grid.spatial_dim)), (mid, np.full(grid.spatial_dim, 0.5))]
    fam = CutoffFamily(radius=1.0, centers=centers)

    specs = [NormSpec(0.0, p1, q1, 1.0), NormSpec(0.0, p2, q2, 1.0)]
    # |b| and (div b)^- are read in each cutoff window, built once per grid
    bn, dn = localized_norms(b.sample(grid), specs, fam)
    bn2, dn2 = localized_norms(b.sample(fine), specs, fam)

    def stable(v, v2):
        if v2 == 0.0:
            return True
        return abs(v2 - v) / max(v2, 1e-300) < 0.05

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
