"""Bessel-potential norms, localized norms, cutoffs and mollifiers.

Spatial L^p norms use uniform cell weights h^d; the time integral uses
trapezoidal weights, with q = infinity realized as a max over slices.
All spectral operations assume the periodic box of the field's grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from sdlab.grids import GridSpec, SpaceTimeField, slabs

# ---------------------------------------------------------------------------
# Smooth transition profile


def _transition(s, lo, hi):
    """(phi, band, u, phi_band): the profile, its band as flat indices, u and phi there.

    With u = (hi - s)/(hi - lo) clipped to [0, 1],
    phi = e^{-1/u} / (e^{-1/u} + e^{-1/(1-u)})
    = 1 / (1 + e^{1/u - 1/(1-u)}).  Off the band 0 < u < 1, phi is u
    itself: exactly 1 for s <= lo and 0 for s >= hi.  So the exp runs on
    the band only; at the clipped ends its argument is +-inf, and near
    them it overflows or underflows, where np.exp is up to ten times
    slower than in range.
    """
    t = (hi - np.asarray(s, dtype=np.float64)) / (hi - lo)
    phi = np.asarray(np.clip(t, 0.0, 1.0), order="C")  # C order, also for a 0-d or Fortran s
    flat = phi.reshape(-1)  # a view, so flat indices write phi; they gather faster than a mask
    # off the band phi is 0 or 1, its own rint; a nan stays in and the formula keeps it nan
    band = (flat != np.rint(flat)).nonzero()[0]
    u = flat[band]
    with np.errstate(over="ignore"):
        flat[band] = phi_band = 1.0 / (1.0 + np.exp(1.0 / u - 1.0 / (1.0 - u)))
    return phi, band, u, phi_band


def smooth_transition(s, lo, hi):
    """C^inf profile equal to 1 for s <= lo, 0 for s >= hi.

    Built from the standard bump e^{-1/x} via the partition-of-unity
    trick; monotone on [lo, hi].
    """
    return _transition(s, lo, hi)[0]


def smooth_transition_with_deriv(s, lo, hi):
    """(smooth_transition, its derivative in s) from one profile evaluation.

    With w = 1/u - 1/(1-u), phi = 1/(1 + e^w) and
    dphi/ds = phi (1 - phi) (1/u^2 + 1/(1-u)^2) / (lo - hi).
    Where phi (1 - phi) is 0 in floating point the derivative is 0 too,
    and so it is off the band, where phi is flat.
    """
    phi, band, u, phi_band = _transition(s, lo, hi)
    slope = phi_band * (1.0 - phi_band)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = slope * (1.0 / (u * u) + 1.0 / ((1.0 - u) * (1.0 - u))) / (lo - hi)
    dphi = np.zeros(phi.shape)
    dphi.reshape(-1)[band] = np.where(slope > 0.0, out, 0.0)
    return phi, dphi


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


def spatial_gradient(f: SpaceTimeField, energy: bool = False) -> np.ndarray:
    """Spectral gradient per slice; shape (nt, d, N, ..., N).

    With ``energy=True``, the integral of |grad f|^2 per slice instead,
    shape (nt,).  By Parseval this is (h^d / N^d) sum_k w |k|^2 |f^(k)|^2
    over the ``rfftn`` of each slice, with w = 2 on the columns that the
    real transform halves and 1 on its k = 0 and Nyquist columns.  Each
    axis's wavenumber is 0 at its Nyquist index, as in the gradient
    itself: the real part of the inverse transform drops i k f^ there.
    The slices are transformed in time slabs (``grids.slabs``).
    """
    g = f.grid
    N, d = g.points_per_axis, g.spatial_dim
    axes = tuple(range(1, 1 + d))
    if energy:
        k = 2 * np.pi * np.fft.fftfreq(N, d=g.extent / N)
        k[N // 2] = 0.0  # N is even: the Nyquist index
        w = np.full(N // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        k2 = k[: N // 2 + 1] ** 2  # the halved axis: rfftfreq up to the sign of Nyquist
        for _ in range(d - 1):
            k2 = np.add.outer(k**2, k2)
        energy = np.empty(len(f.values))
        for s in slabs(f.values.shape):
            spec = np.fft.rfftn(f.values[s], axes=axes)
            dens = spec.real**2 + spec.imag**2
            energy[s] = (dens * (w * k2)).reshape(len(dens), -1).sum(axis=1)
        return energy * (g.cell_volume / N**d)
    spec = np.fft.fftn(f.values, axes=axes)
    comps = [np.fft.ifftn(1j * k * spec, axes=axes).real for k in g.wavenumbers()]
    return np.stack(comps, axis=1)


def _lp_space(values: np.ndarray, p: float, cell_volume: float) -> np.ndarray:
    """L^p norm over the trailing spatial axes, for each time slice.

    A slice with no nodes (an empty window) has norm 0.  Each slice is
    summed as one contiguous row, so the bits do not depend on the layout
    of ``values``: a copy of a frozen sample has its time axis fastest.
    The slices are taken in first-axis slabs, so no whole-field |values| is built.
    """
    out = np.empty(len(values))
    for s in slabs(values.shape):
        slab = np.abs(values[s], order="C")
        out[s] = _lp_rows(slab.reshape(len(slab), -1), p, cell_volume)
    return out


def _lp_rows(rows: np.ndarray, p: float, cell_volume: float) -> np.ndarray:
    """``_lp_space`` of C-ordered rows of |values|, which are raised to p in place."""
    if np.isinf(p):
        return rows.max(axis=1, initial=0.0)
    rows **= p
    return (np.sum(rows, axis=1) * cell_volume) ** (1.0 / p)


def _lq_time(slice_norms: np.ndarray, q: float, times: np.ndarray) -> float:
    """L^q in time over the last axis; of a stack of rows, the largest row norm.

    The root is taken once, of the largest integral: x -> x^(1/q) is
    monotone, so this is the max of the rows' norms.
    """
    if np.isinf(q):
        return float(slice_norms.max())
    return float(np.max(np.trapezoid(slice_norms**q, times, axis=-1)) ** (1.0 / q))


def mixed_norm(f: SpaceTimeField, p: float, q: float, alpha: float = 0.0) -> float:
    """L^q-in-time of the L^p-in-space H^{alpha,p} norm."""
    if not f.is_scalar:
        raise ValueError("mixed_norm expects a scalar field")
    if p <= 1 or q <= 1:
        raise ValueError("p and q must exceed 1")
    g = bessel_apply(f, alpha) if alpha != 0.0 else f
    per_slice = _lp_space(g.values, p, f.grid.cell_volume)
    return _lq_time(per_slice, q, f.grid.times)


def vnorm(f: SpaceTimeField) -> float:
    """Energy norm: L^2-in-space sup-in-time plus space-time L^2 of the gradient."""
    part1 = mixed_norm(f, 2.0, np.inf)
    part2 = _lq_time(np.sqrt(spatial_gradient(f, energy=True)), 2.0, f.grid.times)
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

    def windows(self, grid: GridSpec, zs):
        """xi_r(x - z) on the nodes where it can be nonzero, for each z of zs.

        xi vanishes once |x_i - z_i| >= 2r on any axis, so z's window is
        the product of each axis's nodes within 2r of z_i.  Displacements
        are taken minimum-image, in [-L/2, L/2): a window at the box edge
        wraps to the other side, and once 4r > L an axis's window is the
        whole axis, each node at its nearest image of z_i.  xi depends on
        z only through each axis's displacements to its window's nodes, so
        the centers that agree in all of them share one xi.

        Yields (members, flat, xi) per group of centers that share an xi,
        one group at a time: ``members`` are their positions in zs, and
        row j of ``flat`` holds member j's window nodes as flat indices
        into the spatial axes, in the C order of xi.
        """
        axis = grid.axis
        along, groups = {}, {}
        for j, z in enumerate(zs):
            for zi in np.ravel(z):
                if zi not in along:  # each distinct coordinate once
                    d = grid.wrap(axis - zi)
                    n = np.flatnonzero(np.abs(d) < 2 * self.radius)
                    along[zi] = n, d[n]
            nodes, near = zip(*(along[zi] for zi in np.ravel(z)))
            key = tuple(v.tobytes() for v in near)
            _, members, index = groups.setdefault(key, (near, [], []))
            members.append(j)
            index.append(nodes)
        for near, members, index in groups.values():
            # built when asked for, so a caller holds one group's arrays at a time
            yield members, _flat_index(index, grid.points_per_axis), self._profile(near)

    def _profile(self, near) -> np.ndarray:
        """xi on the product of per-axis displacements ``near``, in first-axis slabs."""
        xi = np.empty(tuple(len(v) for v in near))
        for rows in slabs(xi.shape):
            dist = np.sqrt(sum(m**2 for m in np.ix_(near[0][rows], *near[1:])))
            xi[rows] = self.profile_space(dist)
        return xi

    def spatial(self, grid: GridSpec, z) -> np.ndarray:
        """The spatial factor xi_r(x - z) on the grid nodes, shape (N, ..., N)."""
        ((_, flat, xi),) = self.windows(grid, [z])
        out = np.zeros(grid.spatial_shape())
        out.reshape(-1)[flat[0]] = xi.ravel()
        return out

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


def _flat_index(nodes, N: int) -> np.ndarray:
    """Row j: the C-order flat indices of the product of nodes[j]'s per-axis node arrays."""
    flat = np.empty((len(nodes), *(len(n) for n in nodes[0])), dtype=np.intp)
    for row, axes in zip(flat, nodes):
        index = axes[0]
        for n in axes[1:]:
            index = np.add.outer(index * N, n)
        row[...] = index
    return flat.reshape(len(nodes), -1)


def localized_norm(f: SpaceTimeField, spec: NormSpec, cutoffs: CutoffFamily | None = None):
    """Max over cutoff translates of the norm of f * chi_r^{s,z}.

    A lower bound of the continuum sup, converging as the center lattice
    refines.  Since chi = tau(t - s) xi(x - z) with tau >= 0 and the
    Bessel potential acts slice by slice, the slice norms of f * chi are
    tau(t - s) times those of f * xi: they are computed once per distinct
    spatial center, and the L^q in time runs over all time centers at
    once.  With alpha = 0 only xi's window is read, the centers that
    share an xi are gathered in one index, and a frozen field (a time
    axis of stride 0, as ``DriftField.sample`` returns) is read at one
    slice, whose norms stand for every time.
    """
    if cutoffs is None:
        cutoffs = CutoffFamily(radius=spec.cutoff_radius)
    return localized_norms([f], [spec], cutoffs)[0]


def localized_norms(fields, specs, cutoffs: CutoffFamily) -> list[float]:
    """``localized_norm`` of each field with its spec, over one cutoff family.

    The fields share one grid.  Each cutoff window is built once, and
    the fields with alpha = 0 are read in it one after the other, so
    that one window's arrays are held at a time.
    """
    if any(not f.is_scalar for f in fields):
        raise ValueError("localized_norm expects a scalar field")
    g = fields[0].grid
    if any(f.grid != g for f in fields):
        raise ValueError("localized_norms expects fields on one grid")
    centers = cutoffs.lattice_centers(g)
    if not centers:
        raise ValueError("cutoff family has an empty center lattice")
    times = g.times
    row_of = {s: i for i, s in enumerate({c[0] for c in centers})}
    profiles = np.stack([cutoffs.profile_time(times - s) for s in row_of])
    rows_at = {}  # spatial center -> the profile rows of its time centers
    for s, z in centers:
        rows_at.setdefault(tuple(np.ravel(z)), []).append(row_of[s])
    zs, time_rows = list(rows_at), list(rows_at.values())
    # per field, tau(t - s) |f xi|_p(t) for every center, in blocks of one spatial center
    blocks = [[] for _ in fields]

    def add(i, members, local):  # local: |f xi|, (slices, members, window nodes), C order
        nt, k = local.shape[:2]
        per_slice = _lp_rows(local.reshape(nt * k, -1), specs[i].p, g.cell_volume)
        for j, norms in zip(members, per_slice.reshape(nt, k).T):
            blocks[i].append(profiles[time_rows[j]] * norms)

    plain = {}  # position of each field with alpha = 0 -> its values, (slices read, nodes)
    for i, (f, spec) in enumerate(zip(fields, specs)):
        if spec.alpha == 0.0:
            values = f.values[:1] if f.values.strides[0] == 0 else f.values
            plain[i] = values.reshape(len(values), -1)
    if plain:
        for members, flat, xi in cutoffs.windows(g, zs):
            for i, values in plain.items():
                local = np.take(values, flat, axis=1)  # weighted in its own buffer
                local *= xi.ravel()
                add(i, members, np.abs(local, out=local))
                del local  # released before the next field is gathered
            del flat, xi  # and the window before the next is built
    for i, (f, spec) in enumerate(zip(fields, specs)):
        if i not in plain:
            for j, z in enumerate(zs):
                fxi = bessel_apply(f.copy_with(f.values * cutoffs.spatial(g, z)), spec.alpha)
                add(i, [j], np.abs(fxi.values, order="C").reshape(g.nt, 1, -1))
    return [_largest_norm(b, spec.q, times) for b, spec in zip(blocks, specs)]


def _largest_norm(blocks, q: float, times: np.ndarray) -> float:
    """The largest L^q-in-time norm of the rows of blocks, one block per spatial center."""
    rows = np.concatenate(blocks)
    if np.isinf(q):
        return float(rows.max())
    # as _lq_time takes it, the root of each spatial center's largest integral:
    # a scalar pow, whose bits an array pow need not match
    offsets = np.cumsum([0] + [len(b) for b in blocks[:-1]])
    peaks = np.maximum.reduceat(np.trapezoid(rows**q, times, axis=-1), offsets)
    return max(float(v ** (1.0 / q)) for v in peaks)


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
    # the box's node N//2 sits at 0, where r2 = 0: the sum is never 0, and for
    # epsilon <= h that node alone is in the support, a unit spike
    return ker / ker.sum()


def mollify(f: SpaceTimeField, epsilon: float) -> SpaceTimeField:
    """Spatial convolution per time slice with the unit-mass bump rho_eps.

    The discrete kernel is normalized to sum 1, so constants and the
    per-slice integral are preserved exactly (up to FFT round-off).
    """
    if f.components != 1:
        raise ValueError("mollify expects a scalar field; mollify components separately")
    ker = mollifier_kernel(f.grid, epsilon)
    axes = tuple(range(1, 1 + f.grid.spatial_dim))
    # kernel is sampled with its peak at the box center; shift it to index 0
    ker_hat = np.fft.fftn(np.fft.ifftshift(ker))
    spec = np.fft.fftn(f.values, axes=axes)
    out = np.fft.ifftn(spec * ker_hat, axes=axes).real
    return f.copy_with(out)
