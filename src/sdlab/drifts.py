"""Catalog of singular drift fields with divergence bookkeeping.

Fields are evaluable callables b(t, x) with optional analytic
divergence; mollified variants are produced in closed form for the
analytic entries, and an ingested field, resolved on its grid, is its
own mollification.  Evaluation is pure and reentrant.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from sdlab.grids import GridSpec, SpaceTimeField, interp_space, read_field
from sdlab.norms import (
    CutoffFamily,
    NormSpec,
    localized_norm,
    smooth_transition,
    smooth_transition_with_deriv,
    spatial_gradient,
)


@dataclass
class DriftField:
    """An evaluable vector field with divergence info.

    ``eval_fn(t, X)`` takes X of shape (..., d) and returns the same
    shape; ``div_fn`` returns shape (...).  ``joint_fn``, if set, returns
    both from one pass, bit-equal to the two.  ``mollifier(eps)`` builds
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
    joint_fn: Callable | None = None

    def __call__(self, t, X) -> np.ndarray:
        return np.asarray(self.eval_fn(t, np.asarray(X, dtype=np.float64)))

    def divergence(self, t, X) -> np.ndarray:
        if self.div_fn is None:
            raise ValueError("drift has no divergence information")
        return np.asarray(self.div_fn(t, np.asarray(X, dtype=np.float64)))

    def value_and_divergence(self, t, X) -> tuple[np.ndarray, np.ndarray]:
        """(b(t, X), div b(t, X)), from one ``joint_fn`` call where there is one."""
        if self.joint_fn is None:
            return self(t, X), self.divergence(t, X)
        return self.joint_fn(t, np.asarray(X, dtype=np.float64))

    def div_negative(self, t, X) -> np.ndarray:
        """(div b)^-, the negative part of the divergence."""
        return np.maximum(-self.divergence(t, X), 0.0)

    def mollified(self, eps: float) -> "DriftField":
        if eps <= 0:
            raise ValueError("mollification level must be positive")
        if self.mollifier is not None:
            return self.mollifier(eps)
        # a regular field without a family is its own mollification
        if self.mollification_level > 0:
            return self
        raise ValueError(f"{self.provenance} drift has no mollifier")

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
        # a frozen field is sampled once, at the first time, and repeated
        times = grid.times if self.time_dependent else grid.times[:1]
        for t in times:
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = extract(self, t, X)
            if fallback is not None:
                vals = np.where(needs_fallback, extract(fallback, t, X), vals)
            slices.append(vals.reshape(shape))
        if not self.time_dependent:
            slices *= grid.nt
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

    def sq_norm(X):
        # |x|^2 summed coordinate by coordinate, in np.sum's order, so the same
        # bits for d < 8 (from 8 on np.sum splits the axis into eight partial
        # sums); a reduction over the short last axis is several times slower
        u = X[..., 0] * X[..., 0]
        for i in range(1, d):
            u += X[..., i] * X[..., i]
        return u

    def ev(t, X):
        u = sq_norm(X)[..., None]
        return -c * X / (u + e2) if e2 > 0 else -c * X / u

    def dv(t, X):
        u = sq_norm(X)
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
        # derivative is never taken; div b alone is read off the joint pass.
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
        eval_fn=lambda t, X: spikes(X, False)[0],
        div_fn=lambda t, X: spikes(X, True)[1],
        joint_fn=lambda t, X: spikes(X, True),
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
        eval_fn=lambda t, X: np.zeros_like(X),
        div_fn=lambda t, X: np.zeros(X.shape[:-1]),
        mollification_level=np.inf,
        provenance="custom",
        metadata={"name": "zero"},
    )


def constant_drift(v) -> DriftField:
    v = np.asarray(v, dtype=np.float64)
    return DriftField(
        dim=len(v),
        eval_fn=lambda t, X: np.broadcast_to(v, X.shape).copy(),
        div_fn=lambda t, X: np.zeros(X.shape[:-1]),
        mollification_level=np.inf,
        provenance="custom",
        metadata={"name": "constant", "v": v.tolist()},
    )


def linear_drift(rate: float, d: int) -> DriftField:
    """Ornstein-Uhlenbeck style drift b(x) = -rate * x; div = -rate*d."""
    return DriftField(
        dim=d,
        eval_fn=lambda t, X: -rate * X,
        div_fn=lambda t, X: np.full(X.shape[:-1], -rate * d),
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
    if not np.all(np.isfinite(values)):
        raise ValueError("external field has non-finite values")

    # d_i b_i spectrally: one transform pair per component, as spatial_gradient's column i
    axes = tuple(range(1, 1 + g.spatial_dim))
    div_vals = np.zeros((g.nt, *g.spatial_shape()))
    grad_sq = 0.0
    for i, k in enumerate(g.wavenumbers()):
        div_vals += np.fft.ifftn(1j * k * np.fft.fftn(values[:, i], axes=axes), axes=axes).real
        grad_sq += spatial_gradient(SpaceTimeField(g, values[:, i], 1), energy=True)
    div_field = SpaceTimeField(g, div_vals, 1)

    # energy-class quantities
    l2 = np.sqrt(np.sum(values**2, axis=tuple(range(1, values.ndim))) * g.cell_volume)
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
        vals = interp(t, X, values)  # (c, ...)
        return np.moveaxis(vals, 0, -1)

    def dv(t, X):
        return interp(t, X, div_field.values[:, None])[0]

    return DriftField(
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
