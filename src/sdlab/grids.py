"""Periodic space-time grids, discrete fields and the SDLF file format.

A grid covers the box [-L/2, L/2)^d with N points per axis (periodic)
and a uniform time grid with ``time_steps`` intervals.  Scalar fields
have value arrays of shape (nt, N, ..., N); vector fields carry a
leading component axis after time: (nt, c, N, ..., N).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

SDLF_MAGIC = b"SDLF"
SDLF_VERSION = 1

# nodes per slab, at most, when a grid-sized array is built in first-axis
# slabs: as many as the rows of a noise block (sde.BLOCK_ROWS)
SLAB_NODES = 2**15


def slabs(shape) -> list[slice]:
    """Runs of whole first-axis planes of ``shape``, each of at most SLAB_NODES nodes.

    A plane larger than SLAB_NODES is a slab of its own.
    """
    step = max(1, SLAB_NODES // max(1, math.prod(shape[1:])))
    return [slice(i, min(i + step, shape[0])) for i in range(0, shape[0], step)]


@dataclass(frozen=True)
class GridSpec:
    """Discretization of a periodic space-time box in d = 1, 2 or 3 dimensions."""

    spatial_dim: int
    extent: float
    points_per_axis: int
    time_start: float = 0.0
    time_end: float = 1.0
    time_steps: int = 100

    def __post_init__(self):
        d, N = self.spatial_dim, self.points_per_axis
        if d not in (1, 2, 3):
            raise ValueError(f"spatial_dim must be 1, 2 or 3, got {d}")
        if N < 4 or (N & (N - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 4, got {N}")
        if not self.extent > 0:
            raise ValueError("extent must be positive")
        if not self.time_end > self.time_start:
            raise ValueError("time_end must exceed time_start")
        if self.time_steps < 1:
            raise ValueError("time_steps must be >= 1")

    @property
    def h(self) -> float:
        """Spatial mesh width."""
        return self.extent / self.points_per_axis

    @property
    def dt(self) -> float:
        return (self.time_end - self.time_start) / self.time_steps

    @property
    def nt(self) -> int:
        """Number of time slices (intervals + 1)."""
        return self.time_steps + 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.time_start, self.time_end, self.nt)

    def time_index(self, t: float) -> int:
        """The slice at time t; ValueError unless t is within 1e-9 of a grid time."""
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[k] - t) > 1e-9:
            raise ValueError(f"time {t:g} is not a grid time (nearest {self.times[k]:g})")
        return k

    @property
    def axis(self) -> np.ndarray:
        """Node coordinates along one spatial axis, centered at 0."""
        N, L = self.points_per_axis, self.extent
        return -L / 2 + np.arange(N) * (L / N)

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*([self.axis] * self.spatial_dim), indexing="ij"))

    def nodes(self, rows: slice = slice(None)) -> np.ndarray:
        """Spatial nodes in C order, shape (n, d): all N^d, or a slab of first-axis rows."""
        axes = [self.axis] * self.spatial_dim
        axes[0] = axes[0][rows]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def wavenumbers(self) -> list[np.ndarray]:
        """Physical wavenumbers 2*pi*m/L per axis (fftfreq ordering)."""
        N, L = self.points_per_axis, self.extent
        k = 2 * np.pi * np.fft.fftfreq(N, d=L / N)
        return list(np.meshgrid(*([k] * self.spatial_dim), indexing="ij"))

    @property
    def cell_volume(self) -> float:
        return self.h**self.spatial_dim

    def spatial_shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.spatial_dim

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Minimum-image displacement into [-L/2, L/2)."""
        L = self.extent
        return (np.asarray(x) + L / 2) % L - L / 2


@dataclass
class SpaceTimeField:
    """A discrete scalar or vector function on a space-time grid.

    Values are immutable by convention: operations return new fields.
    """

    grid: GridSpec
    values: np.ndarray
    components: int = 1

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        expected: tuple[int, ...]
        if self.components == 1:
            expected = (self.grid.nt, *self.grid.spatial_shape())
        else:
            expected = (self.grid.nt, self.components, *self.grid.spatial_shape())
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {expected}"
            )
        # a time axis of stride 0 repeats one slice: check that slice alone
        one = self.values[:1] if self.values.strides[0] == 0 else self.values
        if not np.all(np.isfinite(one)):
            raise ValueError("field values must be finite")

    @property
    def is_scalar(self) -> bool:
        return self.components == 1

    def copy_with(self, values: np.ndarray) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, values, self.components)

    @staticmethod
    def from_function(grid: GridSpec, fn) -> "SpaceTimeField":
        """Sample fn(t, *coords) on the grid; fn must broadcast over arrays.

        A list of arrays from fn gives a field with that many components."""
        mesh = grid.meshgrid()
        slices = []
        for t in grid.times:
            val = fn(t, *mesh)
            slices.append([np.broadcast_to(c, mesh[0].shape)
                           for c in (val if isinstance(val, list) else [val])])
        values = np.array(slices, dtype=np.float64)  # (nt, components, *spatial)
        components = values.shape[1]
        return SpaceTimeField(grid, values[:, 0] if components == 1 else values, components)


def interp_space(g: GridSpec, X, data):
    """Multilinear periodic interpolation of data (c, N, ..., N) at X (..., d)."""
    N, L = g.points_per_axis, g.extent
    idx = (np.asarray(X) + L / 2) / g.h  # fractional index per axis
    base = np.floor(idx).astype(int)
    frac = idx - base
    d = g.spatial_dim
    out = 0.0
    for corner in range(1 << d):
        w = np.ones(frac.shape[:-1])
        ix = []
        for ax in range(d):
            bit = (corner >> ax) & 1
            w = w * (frac[..., ax] if bit else 1 - frac[..., ax])
            ix.append((base[..., ax] + bit) % N)
        out = out + w * data[(slice(None), *ix)]
    return out


_HEADER = struct.Struct("<4sIIIdIddI")


def write_field(path, f: SpaceTimeField) -> None:
    """Write a field in the SDLF binary container."""
    g = f.grid
    header = _HEADER.pack(
        SDLF_MAGIC,
        SDLF_VERSION,
        g.spatial_dim,
        g.points_per_axis,
        g.extent,
        g.time_steps,
        g.time_start,
        g.time_end,
        f.components,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for s in slabs(f.values.shape):  # a slab is copied only when not contiguous
            fh.write(np.ascontiguousarray(f.values[s], dtype="<f8"))


def read_field(path) -> SpaceTimeField:
    """Read an SDLF container back into a SpaceTimeField."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        magic, version, d, N, L, steps, t0, t1, comps = _HEADER.unpack(raw)
        if magic != SDLF_MAGIC:
            raise ValueError(f"{path}: not an SDLF file (magic {magic!r})")
        if version != SDLF_VERSION:
            raise ValueError(f"{path}: unsupported SDLF version {version}")
        grid = GridSpec(d, L, N, t0, t1, steps)
        if comps == 1:
            shape = (grid.nt, *grid.spatial_shape())
        else:
            shape = (grid.nt, comps, *grid.spatial_shape())
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(shape).copy()
    return SpaceTimeField(grid, data, comps)
