"""Bessel-potential norms, localized norms, cutoffs and mollifiers.

Spatial L^p norms use uniform cell weights h^d; the time integral uses
trapezoidal weights, with q = infinity realized as a max over slices.
All spectral operations assume the periodic box of the field's grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from sdlab.grids import GridSpec, SpaceTimeField

# ---------------------------------------------------------------------------
# Smooth transition profile


def _transition(s, lo, hi):
    """(u, phi) with u = (hi - s)/(hi - lo) clipped to [0, 1] and phi the profile.

    phi = e^{-1/u} / (e^{-1/u} + e^{-1/(1-u)}) = 1 / (1 + e^{1/u - 1/(1-u)}):
    one exp per point, and the clipped ends give exactly 1 and 0.
    """
    u = np.clip((hi - np.asarray(s, dtype=np.float64)) / (hi - lo), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        phi = 1.0 / (1.0 + np.exp(1.0 / u - 1.0 / (1.0 - u)))
    return u, phi


def smooth_transition(s, lo, hi):
    """C^inf profile equal to 1 for s <= lo, 0 for s >= hi.

    Built from the standard bump e^{-1/x} via the partition-of-unity
    trick; monotone on [lo, hi].
    """
    return _transition(s, lo, hi)[1]


def smooth_transition_with_deriv(s, lo, hi):
    """(smooth_transition, smooth_transition_deriv) from one profile evaluation."""
    u, phi = _transition(s, lo, hi)
    slope = phi * (1.0 - phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = slope * (1.0 / (u * u) + 1.0 / ((1.0 - u) * (1.0 - u))) / (lo - hi)
    return phi, np.where(slope > 0.0, out, 0.0)


def smooth_transition_deriv(s, lo, hi):
    """d/ds of smooth_transition in closed form; 0 outside (lo, hi).

    With w = 1/u - 1/(1-u), phi = 1/(1 + e^w) and
    dphi/ds = phi (1 - phi) (1/u^2 + 1/(1-u)^2) / (lo - hi).
    Where phi (1 - phi) is 0 in floating point the derivative is 0 too,
    which also covers the clipped ends.
    """
    return smooth_transition_with_deriv(s, lo, hi)[1]


# ---------------------------------------------------------------------------
# Exponent bookkeeping


@dataclass(frozen=True)
class NormSpec:
    """Exponent triple (alpha, p, q) plus cutoff radius for localized norms."""

    alpha: float = 0.0
    p: float = 2.0
    q: float = 2.0
    cutoff_radius: float = 1.0

    def __post_init__(self):
        if not -2.0 <= self.alpha <= 2.0:
            raise ValueError("alpha must lie in [-2, 2]")
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        if not self.q > 1:
            raise ValueError("q must exceed 1")
        if not self.cutoff_radius > 0:
            raise ValueError("cutoff radius must be positive")

    def admissible(self, d: int) -> bool:
        """Whether (alpha, p, q) lies in the admissible exponent region for dim d."""
        if not 0.0 <= self.alpha <= 1.0:
            return False
        if np.isinf(self.p) or np.isinf(self.q):
            return False
        return d / self.p + 2.0 / self.q < 2.0 - self.alpha


def conjugate_exponents(alpha: float, p: float, q: float) -> tuple[float, float]:
    """The (r, s) pair with 1/((2-a)p) + 1/r = 1/((2-a)q) + 1/s = 1/2."""
    def solve(e):
        inv = 0.5 - 1.0 / ((2.0 - alpha) * e)
        return np.inf if inv <= 0 else 1.0 / inv

    return solve(p), solve(q)


# ---------------------------------------------------------------------------
# Core norms


def _check_finite(f: SpaceTimeField):
    if not np.all(np.isfinite(f.values)):
        raise ValueError("field contains non-finite values")


def bessel_apply(f: SpaceTimeField, alpha: float) -> SpaceTimeField:
    """Apply (I - Laplace)^(alpha/2) spectrally, per time slice."""
    if not f.is_scalar:
        raise ValueError("bessel_apply expects a scalar field")
    _check_finite(f)
    g = f.grid
    kmesh = g.wavenumbers()
    k2 = sum(k * k for k in kmesh)
    mult = (1.0 + k2) ** (alpha / 2.0)
    axes = tuple(range(1, 1 + g.spatial_dim))
    spec = np.fft.fftn(f.values, axes=axes)
    out = np.fft.ifftn(spec * mult, axes=axes).real
    return f.copy_with(out)


def spatial_gradient(f: SpaceTimeField) -> np.ndarray:
    """Spectral gradient per slice; shape (nt, d, N, ..., N)."""
    g = f.grid
    axes = tuple(range(1, 1 + g.spatial_dim))
    spec = np.fft.fftn(f.values, axes=axes)
    kmesh = g.wavenumbers()
    comps = [np.fft.ifftn(1j * k * spec, axes=axes).real for k in kmesh]
    return np.stack(comps, axis=1)


def _lp_space(values: np.ndarray, p: float, cell_volume: float) -> np.ndarray:
    """L^p norm over the trailing spatial axes, for each time slice."""
    nt = values.shape[0]
    flat = np.abs(values).reshape(nt, -1)
    if np.isinf(p):
        return flat.max(axis=1)
    return (np.sum(flat**p, axis=1) * cell_volume) ** (1.0 / p)


def _lq_time(slice_norms: np.ndarray, q: float, times: np.ndarray) -> float:
    if np.isinf(q):
        return float(slice_norms.max())
    return float(np.trapezoid(slice_norms**q, times) ** (1.0 / q))


def mixed_norm(f: SpaceTimeField, p: float, q: float, alpha: float = 0.0) -> float:
    """L^q-in-time of the L^p-in-space H^{alpha,p} norm."""
    if not f.is_scalar:
        raise ValueError("mixed_norm expects a scalar field")
    if p <= 1 or q <= 1:
        raise ValueError("p and q must exceed 1")
    g = bessel_apply(f, alpha) if alpha != 0.0 else f
    per_slice = _lp_space(g.values, p, f.grid.cell_volume)
    return _lq_time(per_slice, q, f.grid.times)


def spacetime_norm(f: SpaceTimeField, spec: NormSpec) -> float:
    """The global space-time Bessel norm for the given exponent triple."""
    return mixed_norm(f, spec.p, spec.q, spec.alpha)


def vnorm(f: SpaceTimeField) -> float:
    """Energy norm: L^2-in-space sup-in-time plus space-time L^2 of the gradient."""
    part1 = mixed_norm(f, 2.0, np.inf)
    grad = spatial_gradient(f)
    gmag = np.sqrt(np.sum(grad**2, axis=1))
    part2 = _lq_time(
        _lp_space(gmag, 2.0, f.grid.cell_volume), 2.0, f.grid.times
    )
    return part1 + part2


# ---------------------------------------------------------------------------
# Cutoff families


@dataclass
class CutoffFamily:
    """Translates of the plateau cutoff chi_r over a lattice of centers.

    chi equals 1 on the unit cylinder |t|<1, |x|<1 and vanishes outside
    |t|>=4 or |x|>=2; chi_r rescales t by r^-2 and x by r^-1.  Centers
    default to a lattice with spacing r/2 in space and r^2/2 in time,
    covering the grid.
    """

    radius: float = 1.0
    centers: list | None = None

    def profile_time(self, t):
        r = self.radius
        return smooth_transition(np.abs(t) / r**2, 1.0, 4.0)

    def profile_space(self, dist):
        return smooth_transition(np.asarray(dist) / self.radius, 1.0, 2.0)

    def spatial(self, grid: GridSpec, z) -> np.ndarray:
        """The spatial factor xi_r(x - z) on the grid nodes, shape (N, ..., N).

        Displacement is taken minimum-image, so supports must not wrap
        (requires L >= 8r, enforced by the caller's grid choice).
        """
        z = np.asarray(z, dtype=np.float64)
        mesh = grid.meshgrid()
        dist = np.sqrt(
            sum(grid.wrap(m - z[i]) ** 2 for i, m in enumerate(mesh))
        )
        return self.profile_space(dist)

    def evaluate(self, grid: GridSpec, center: tuple) -> np.ndarray:
        """chi_r^{s,z} = tau_r(t - s) xi_r(x - z) on the grid, shape (nt, N, ..., N)."""
        tpart = self.profile_time(grid.times - center[0])
        xpart = self.spatial(grid, center[1])
        return tpart.reshape((-1,) + (1,) * grid.spatial_dim) * xpart[None]

    def lattice_centers(self, grid: GridSpec) -> list:
        """Default covering lattice: spacing r/2 in space, r^2/2 in time."""
        if self.centers is not None:
            return self.centers
        r = self.radius
        t0, t1 = grid.time_start, grid.time_end
        nt = max(1, int(np.ceil((t1 - t0) / (r**2 / 2))) + 1)
        tgrid = np.linspace(t0, t1, nt)
        L = grid.extent
        nx = max(1, int(np.ceil(L / (r / 2))))
        xgrid = -L / 2 + (np.arange(nx) + 0.5) * (L / nx)
        spatial = np.stack(
            [m.ravel() for m in np.meshgrid(*([xgrid] * grid.spatial_dim), indexing="ij")],
            axis=-1,
        )
        return [(float(s), z) for s in tgrid for z in spatial]


def localized_norm(
    f: SpaceTimeField,
    spec: NormSpec,
    cutoffs: CutoffFamily | None = None,
    return_center: bool = False,
):
    """Max over cutoff translates of the norm of f * chi_r^{s,z}.

    A lower bound of the continuum sup, converging as the center lattice
    refines.  Since chi = tau(t - s) xi(x - z) with tau >= 0 and the
    Bessel potential acts slice by slice, the slice norms of f * chi are
    tau(t - s) times those of f * xi: they are computed once per distinct
    spatial center and scaled for each time center.
    """
    if not f.is_scalar:
        raise ValueError("localized_norm expects a scalar field")
    if cutoffs is None:
        cutoffs = CutoffFamily(radius=spec.cutoff_radius)
    g = f.grid
    centers = cutoffs.lattice_centers(g)
    if not centers:
        raise ValueError("cutoff family has an empty center lattice")
    slice_norms = {}
    best, best_center = -np.inf, None
    for c in centers:
        s, z = c[0], c[1]
        key = tuple(np.ravel(z))
        per_slice = slice_norms.get(key)
        if per_slice is None:
            local = f.copy_with(f.values * cutoffs.spatial(g, z))
            if spec.alpha != 0.0:
                local = bessel_apply(local, spec.alpha)
            per_slice = slice_norms[key] = _lp_space(local.values, spec.p, g.cell_volume)
        val = _lq_time(cutoffs.profile_time(g.times - s) * per_slice, spec.q, g.times)
        if val > best:
            best, best_center = val, c
    if return_center:
        return best, best_center
    return best


# ---------------------------------------------------------------------------
# Mollification


def mollifier_kernel(grid: GridSpec, epsilon: float) -> np.ndarray:
    """Discrete compactly supported bump rho_eps on the grid, sum = 1."""
    if epsilon <= 0:
        raise ValueError("mollifier width must be positive")
    if epsilon <= grid.h:
        warnings.warn(
            f"mollifier width {epsilon:g} is at or below the mesh width "
            f"{grid.h:g}; convolution is under-resolved",
            stacklevel=2,
        )
    mesh = grid.meshgrid()
    r2 = sum(grid.wrap(m) ** 2 for m in mesh) / epsilon**2
    with np.errstate(divide="ignore", over="ignore"):
        ker = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
    total = ker.sum()
    if total == 0.0:
        # support below mesh resolution: degenerate to the identity kernel
        ker = np.zeros_like(ker)
        ker[(grid.points_per_axis // 2,) * grid.spatial_dim] = 1.0
        return ker
    return ker / total


def mollify(f: SpaceTimeField, epsilon: float) -> SpaceTimeField:
    """Spatial convolution per time slice with the unit-mass bump rho_eps.

    The discrete kernel is normalized to sum 1, so constants and the
    per-slice integral are preserved exactly (up to FFT round-off).
    """
    ker = mollifier_kernel(f.grid, epsilon)
    axes = tuple(range(1, 1 + f.grid.spatial_dim))
    # kernel is sampled with its peak at the box center; shift it to index 0
    ker_hat = np.fft.fftn(np.fft.ifftshift(ker))
    spec = np.fft.fftn(f.values, axes=axes)
    out = np.fft.ifftn(spec * ker_hat, axes=axes).real
    if f.components != 1:
        raise ValueError("mollify expects a scalar field; mollify components separately")
    return f.copy_with(out)


# ---------------------------------------------------------------------------
# Inequality battery


def gn_interpolation_ratio(f: SpaceTimeField, alpha, theta, p, q, r) -> float:
    """Ratio ||f||_{alpha,r} / (||grad f||_p^theta ||f||_q^(1-theta)), worst slice."""
    g = f.grid
    lhs_field = bessel_apply(f, alpha) if alpha != 0 else f
    lhs = _lp_space(lhs_field.values, r, g.cell_volume)
    grad = spatial_gradient(f)
    gmag = np.sqrt(np.sum(grad**2, axis=1))
    gp = _lp_space(gmag, p, g.cell_volume)
    fq = _lp_space(f.values, q, g.cell_volume)
    denom = gp**theta * fq ** (1 - theta)
    mask = denom > 1e-14
    if not mask.any():
        return 0.0
    return float(np.max(lhs[mask] / denom[mask]))


def inequality_battery(fields: list[SpaceTimeField], d: int | None = None) -> list[dict]:
    """Empirical-constant report for the interpolation / localization estimates.

    For each field: the Gagliardo-Nirenberg ratio for a standard exponent
    choice, and the r=1 vs r=2 localized-norm equivalence ratio.  Ratios
    are refinement-independent constants; callers flag divergence under
    refinement as an implementation bug.
    """
    if not fields:
        return []
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("fields must share a grid")
    d = d or grid.spatial_dim
    # GN exponents: alpha=0, theta=1/2, p=q=2 => 1/r = 1/2 - theta/d
    inv_r = 0.5 - 0.5 / d
    r_gn = np.inf if inv_r <= 0 else 1.0 / inv_r
    records = []
    spec1 = NormSpec(0.0, 2.0, 2.0, 1.0)
    spec2 = NormSpec(0.0, 2.0, 2.0, 2.0)
    for i, f in enumerate(fields):
        rec = {"field": i}
        rec["gn_ratio"] = gn_interpolation_ratio(f, 0.0, 0.5, 2.0, 2.0, r_gn)
        n1 = localized_norm(f, spec1, CutoffFamily(radius=1.0))
        n2 = localized_norm(f, spec2, CutoffFamily(radius=2.0))
        rec["loc_norm_r1"] = n1
        rec["loc_norm_r2"] = n2
        rec["r_equiv_ratio"] = n1 / n2 if n2 > 0 else np.nan
        records.append(rec)
    return records


def exponent_relation_holds(alpha: float, p: float, q: float, d: int) -> bool:
    """For admissible (alpha,p,q), the conjugate pair must satisfy d/r + 2/s > d/2."""
    r, s = conjugate_exponents(alpha, p, q)
    lhs = (0.0 if np.isinf(r) else d / r) + (0.0 if np.isinf(s) else 2.0 / s)
    return lhs > d / 2.0
