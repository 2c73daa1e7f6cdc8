import hashlib
import tracemalloc

import numpy as np
import pytest

from sdlab import drifts, grids, norms
from sdlab.drifts import (
    check_admissibility,
    constant_drift,
    lattice_drift,
    linear_drift,
    load_external,
    radial_drift,
    row_dot,
    zero_drift,
)
from sdlab.grids import GridSpec, SpaceTimeField, write_field
from sdlab.norms import smooth_transition, smooth_transition_with_deriv, spatial_gradient


def test_radial_drift_closed_form():
    b = radial_drift(2.0, 3)
    x = np.array([[0.0, 2.0, 0.0]])
    # b = -c x / |x|^2 = (0, -1, 0); div = -c (d-2)/|x|^2 = -1/2
    assert np.allclose(b(0.0, x), [[0.0, -1.0, 0.0]])
    assert b.divergence(0.0, x)[0] == pytest.approx(-0.5)


@pytest.mark.parametrize("d", [2, 3, 7])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_radial_drift_bits_match_np_sum(d, eps):
    # the coordinate-by-coordinate |x|^2 gives np.sum's bits for d < 8, so no artifact moves
    c, e2 = 0.5, eps * eps
    b = radial_drift(c, d, eps)
    rng = np.random.default_rng(d)
    for shape in ((100_000, d), (4096, d), (7, 5, d)):
        X = 3.0 * rng.standard_normal(shape)
        u = np.sum(X * X, axis=-1)
        if e2 > 0:
            ev = -c * X / (u[..., None] + e2)
            dv = -c * ((d - 2) * u + d * e2) / (u + e2) ** 2
        else:
            ev, dv = -c * X / u[..., None], -c * (d - 2) / u
        assert np.array_equal(b(0.0, X), ev)
        assert np.array_equal(b.divergence(0.0, X), dv)


@pytest.mark.parametrize("d", range(1, 8))
def test_row_dot_bits_match_np_sum(d):
    # |b| in DriftField.sample and b . grad f in martingale_defect keep np.sum's bits
    rng = np.random.default_rng(d)
    for shape in ((100_000, d), (7, 5, d)):
        a, b = rng.standard_normal(shape), 3.0 * rng.standard_normal(shape)
        assert np.array_equal(row_dot(a, b), np.sum(a * b, axis=-1))
        assert np.array_equal(np.sqrt(row_dot(a, a)), np.linalg.norm(a, axis=-1))


def test_frozen_drift_sampled_once():
    calls = []
    g = GridSpec(2, 4.0, 8, 0.0, 1.0, 4)

    def fn(t, X, div):
        # b = -(1 + t) x, div b = -2 (1 + t)
        calls.append(t)
        return -(1.0 + t) * X, (np.full(X.shape[:-1], -2.0 * (1.0 + t)) if div else None)

    for time_dependent in (False, True):
        calls.clear()
        b = drifts.DriftField(2, fn, mollification_level=1.0, time_dependent=time_dependent)
        speed, div_neg = (f.values for f in b.sample(g))
        if time_dependent:
            assert calls == list(g.times)
            assert speed[-1] == pytest.approx(2.0 * speed[0])
            assert np.all(div_neg[-1] == 4.0) and np.all(div_neg[0] == 2.0)
        else:
            # frozen at its first time, as a solver freezes it
            assert calls == [g.times[0]]
            assert all(np.array_equal(v, speed[0]) for v in speed)
            assert np.all(div_neg == 2.0)


def _time_varying_external(tmp_path):
    g = GridSpec(2, 2.0, 16, 0.0, 1.0, 10)
    vel = SpaceTimeField.from_function(
        g, lambda t, x, y: [np.sin(np.pi * x) * np.cos(3 * t), np.cos(np.pi * y + t)])
    write_field(tmp_path / "b.sdlf", vel)
    return load_external(tmp_path / "b.sdlf")


KERNELS = {
    "radial": lambda tmp_path: radial_drift(0.5, 3),
    "radial-eps": lambda tmp_path: radial_drift(0.5, 3, 0.1),
    "lattice": lambda tmp_path: lattice_drift(1.0, 1.5, 2, seed=3, eps=0.2),
    "zero": lambda tmp_path: zero_drift(2),
    "constant": lambda tmp_path: constant_drift([1.0, -2.0]),
    "linear": lambda tmp_path: linear_drift(2.0, 3),
    "external": _time_varying_external,
}


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_kernel_value_does_not_depend_on_div(tmp_path, kind):
    b = KERNELS[kind](tmp_path)
    X = np.random.default_rng(1).uniform(-2, 2, (4, 50, b.dim))
    for t in (0.0, 0.35):  # 0.35 lies between two of the external field's slices
        value, div = b.fn(t, X, True)
        alone, none = b.fn(t, X, False)
        assert none is None
        assert value.shape == X.shape and div.shape == X.shape[:-1]
        assert np.array_equal(value, alone)


def _wave(time_dependent):
    def fn(t, X, div):
        b = np.stack([np.sin(X[..., 0] + t), np.cos(X[..., 1])], axis=-1)
        return b, (np.cos(X[..., 0] + t) - np.sin(X[..., 1]) if div else None)
    return drifts.DriftField(2, fn, mollification_level=1.0, time_dependent=time_dependent)


@pytest.mark.parametrize("b", [radial_drift(0.5, 2), lattice_drift(1.0, 1.5, 2),
                               _wave(False), _wave(True)],
                         ids=["radial", "lattice", "frozen", "time-dependent"])
def test_sample_is_speed_and_negative_divergence(b):
    g = GridSpec(2, 4.0, 16, 0.0, 0.5, 3)
    X = g.nodes()
    near = np.zeros(len(X), dtype=bool)
    if b.singular_distance is not None:
        # the singular fields put a node on a singular point: the h/2 fallback is taken
        near = b.singular_distance(X) < g.h / 2
        assert near.any()
    speed, div_neg = b.sample(g)
    for k, t in enumerate(g.times):
        t = t if b.time_dependent else g.times[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            value, div = b(t, X), b.divergence(t, X)
        if near.any():
            fallback = b.mollified(g.h)
            value[near], div[near] = fallback(t, X[near]), fallback.divergence(t, X[near])
        assert np.array_equal(speed.values[k].ravel(), np.linalg.norm(value, axis=-1))
        assert np.array_equal(div_neg.values[k].ravel(), np.maximum(-div, 0.0))


SLAB_CASES = {
    # the singular fields put nodes on their singular points: the h/2 fallback is taken
    "radial-2d": (radial_drift(0.5, 2), GridSpec(2, 4.0, 16, 0.0, 0.5, 3)),
    "radial-3d": (radial_drift(0.5, 3), GridSpec(3, 4.0, 8, 0.0, 0.5, 3)),
    "lattice-2d": (lattice_drift(1.0, 1.5, 2), GridSpec(2, 4.0, 16, 0.0, 0.5, 3)),
    "lattice-1d": (lattice_drift(1.0, 1.5, 1), GridSpec(1, 8.0, 64, 0.0, 0.5, 3)),
    "time-dependent": (_wave(True), GridSpec(2, 4.0, 16, 0.0, 0.5, 3)),
}


@pytest.mark.parametrize("slab_nodes", [5, 40])
@pytest.mark.parametrize("case", sorted(SLAB_CASES))
def test_sample_does_not_depend_on_the_slabs(monkeypatch, case, slab_nodes):
    b, g = SLAB_CASES[case]
    assert g.points_per_axis ** g.spatial_dim <= grids.SLAB_NODES  # one slab
    whole = b.sample(g)
    # 5 nodes: one plane per slab in 2-D and 3-D, 5 nodes in 1-D; 40: two 2-D planes, 40 nodes
    monkeypatch.setattr(grids, "SLAB_NODES", slab_nodes)
    assert len(grids.slabs(g.spatial_shape())) > 1
    for one, slabbed in zip(whole, b.sample(g)):
        assert np.array_equal(one.values, slabbed.values)
        assert (slabbed.values.strides[0] == 0) == (one.values.strides[0] == 0)
    if b.singular_distance is not None:
        assert (b.singular_distance(g.nodes()) < g.h / 2).any()


def test_sample_peak_memory_is_its_outputs():
    g = GridSpec(3, 4.0, 64, 0.0, 0.5, 2)
    b = radial_drift(0.5, 3, 0.2)
    tracemalloc.start()
    try:
        speed, div_neg = b.sample(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(f.values.base.nbytes for f in (speed, div_neg))
    assert outputs == 2 * 64**3 * 8  # a frozen field holds one slice
    # the kernel runs on slabs of at most grids.SLAB_NODES nodes
    assert peak <= 3 * outputs


def test_frozen_field_with_a_nan_is_rejected():
    g = GridSpec(2, 4.0, 8, 0.0, 0.5, 4)
    one = np.zeros((1, 8, 8))
    one[0, 3, 4] = np.nan
    with pytest.raises(ValueError, match="finite"):
        SpaceTimeField(g, np.broadcast_to(one, (g.nt, 8, 8)), 1)
    one[0, 3, 4] = 1.0
    assert SpaceTimeField(g, np.broadcast_to(one, (g.nt, 8, 8)), 1).values.strides[0] == 0


def test_radial_drift_scaling_symmetry():
    b = radial_drift(0.7, 3)
    x = np.array([[0.3, -0.4, 1.1]])
    # homogeneity of degree -1: b(sx) = b(x)/s
    assert np.allclose(b(0.0, 2.0 * x), b(0.0, x) / 2.0)


def test_radial_regularized_forms():
    eps = 0.2
    b = radial_drift(0.5, 3, eps)
    x = np.array([[0.1, 0.0, 0.0]])
    r2 = 0.01
    expect = -0.5 * x / (r2 + eps**2)
    assert np.allclose(b(0.0, x), expect)
    div = -0.5 * ((3 - 2) * r2 + 3 * eps**2) / (r2 + eps**2) ** 2
    assert b.divergence(0.0, x)[0] == pytest.approx(div)
    # regularized drift agrees with the singular one far from the origin
    far = np.array([[3.0, 0.0, 0.0]])
    assert np.allclose(b(0.0, far), radial_drift(0.5, 3)(0.0, far), rtol=5e-3)


def test_radial_divergence_vs_finite_difference():
    b = radial_drift(0.5, 3, 0.3)
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (20, 3))
    h = 1e-5
    div_fd = np.zeros(20)
    for ax in range(3):
        e = np.zeros(3)
        e[ax] = h
        div_fd += (b(0.0, X + e)[:, ax] - b(0.0, X - e)[:, ax]) / (2 * h)
    assert np.allclose(div_fd, b.divergence(0.0, X), atol=1e-6)


def test_radial_d2_divergence_free():
    b = radial_drift(1.0, 2)
    X = np.array([[0.5, 0.7], [-1.0, 0.2]])
    assert np.allclose(b.divergence(0.0, X), 0.0, atol=1e-14)


def test_div_negative_split():
    g = GridSpec(2, 4.0, 8, 0.0, 0.5, 2)
    assert np.all(linear_drift(1.0, 2).sample(g)[1].values == 2.0)  # div = -2 everywhere
    assert np.all(constant_drift([1.0, 0.0]).sample(g)[1].values == 0.0)


def test_lattice_drift_periodicity_and_seed():
    b = lattice_drift(1.0, 1.5, 2, period=4, seed=3, eps=0.1)
    X = np.array([[0.3, 0.4]])
    assert np.allclose(b(0.0, X), b(0.0, X + 4.0), atol=1e-12)
    b2 = lattice_drift(1.0, 1.5, 2, period=4, seed=3, eps=0.1)
    assert np.allclose(b(0.0, X), b2(0.0, X))
    b3 = lattice_drift(1.0, 1.5, 2, period=4, seed=4, eps=0.1)
    assert not np.allclose(b(0.0, X), b3(0.0, X))


def test_lattice_drift_divergence_vs_finite_difference():
    b = lattice_drift(1.0, 1.2, 2, seed=1, eps=0.2)
    rng = np.random.default_rng(2)
    X = rng.uniform(-2, 2, (15, 2))
    h = 1e-5
    div_fd = np.zeros(15)
    for ax in range(2):
        e = np.zeros(2)
        e[ax] = h
        div_fd += (b(0.0, X + e)[:, ax] - b(0.0, X - e)[:, ax]) / (2 * h)
    assert np.allclose(div_fd, b.divergence(0.0, X), atol=1e-5)


def test_lattice_divergence_one_profile_call_per_spike(monkeypatch):
    b = lattice_drift(1.0, 1.5, 2, seed=3, eps=0.2)
    X = np.random.default_rng(4).uniform(-3, 3, (2000, 2))
    X[:2] = [[0.0, 0.0], [1.0, 0.0]]  # rho = 0 at one spike, rho = 1 at its neighbours
    calls = []
    transition = norms._transition
    monkeypatch.setattr(norms, "_transition", lambda *a: calls.append(a) or transition(*a))
    div = b.divergence(0.0, X)
    assert len(calls) == 16  # one profile evaluation per spike of the 4 x 4 cell
    calls.clear()
    value, joint_div = b.value_and_divergence(0.0, X)
    assert len(calls) == 16  # b and div b share each spike's profile: 16, not 32
    calls.clear()
    assert np.array_equal(value, b(0.0, X)) and len(calls) == 16  # b alone: one per spike too
    assert np.array_equal(joint_div, div)
    monkeypatch.setattr(drifts, "smooth_transition_with_deriv", lambda rho, lo, hi: (
        smooth_transition(rho, lo, hi), smooth_transition_with_deriv(rho, lo, hi)[1]))
    assert np.array_equal(div, b.divergence(0.0, X))


@pytest.mark.parametrize("eps", [0.2, 0.0])
@pytest.mark.parametrize("d", [2, 3])
def test_lattice_joint_call_bit_equal(d, eps):
    b = lattice_drift(1.0, 1.5, d, seed=7, eps=eps)
    X = np.random.default_rng(d).uniform(-3, 3, (5, 7, d))
    # rho = 0 on a spike, 1 and 2 from the spikes along an axis, about 2 from
    # the origin at (1.2, 1.6), halfway between spikes at 0.5 and at the cell
    # centre; every point is also more than 2 from some spike, where phi = 0
    special = np.zeros((6, d))
    special[1, 0], special[2, 0], special[4, 0] = 1.0, 2.0, 0.5
    special[3, :2] = [1.2, 1.6]
    special[5] = 0.5
    X[0, :6] = special
    value, div = b.value_and_divergence(0.0, X)
    assert value.shape == X.shape and div.shape == X.shape[:-1]
    # with eps = 0 the field is singular on the spikes: nan there on both sides
    assert np.array_equal(value, b(0.0, X), equal_nan=eps == 0)
    assert np.array_equal(div, b.divergence(0.0, X), equal_nan=eps == 0)


# sha256 of lattice_drift(1.0, 1.5, 3, period=6, seed=5, eps=0.2) on a
# (5, 7, 3) input: b from the eval-only call, then b and div b from the joint
# call, as float64.  A change to this digest is a change to the kernel's bits.
LATTICE_KERNEL_GOLDEN = "5bf6ed65281b34ec61cbe978d7a23d319441bdeac5d0614ccc6969926566b6c1"


def test_lattice_kernel_golden_digest():
    b = lattice_drift(1.0, 1.5, 3, period=6, seed=5, eps=0.2)
    X = np.random.default_rng(6).uniform(-4, 4, (5, 7, 3))
    # rho = 0, 1 and 2 from a spike, and a point on the cell's edge, where the wrap ties
    X[0, :4] = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [3.0, 0.5, -0.5]]
    value, div = b.value_and_divergence(0.0, X)
    parts = (b(0.0, X), value, div)
    digest = hashlib.sha256(b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in parts))
    assert digest.hexdigest() == LATTICE_KERNEL_GOLDEN


def test_lattice_rejects_too_singular():
    with pytest.raises(ValueError):
        lattice_drift(1.0, 3.0, 2)


def test_mollified_converges_pointwise():
    b = radial_drift(0.5, 3)
    x = np.array([[0.5, 0.0, 0.0]])
    gaps = [
        np.abs(b.mollified(eps)(0.0, x) - b(0.0, x)).max()
        for eps in (0.4, 0.2, 0.1, 0.05)
    ]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_simple_drifts():
    z = zero_drift(3)
    X = np.ones((5, 3))
    assert np.allclose(z(0.0, X), 0.0)
    c = constant_drift([1.0, -2.0])
    assert np.allclose(c(0.0, np.zeros((2, 2))), [[1.0, -2.0], [1.0, -2.0]])
    ou = linear_drift(2.0, 2)
    assert np.allclose(ou(0.0, X[:, :2]), -2.0 * X[:, :2])
    assert np.allclose(ou.divergence(0.0, X[:, :2]), -4.0)


def test_sample_on_grid_singularity_fallback():
    g = GridSpec(2, 4.0, 16, 0.0, 0.5, 2)
    speed, div_neg = radial_drift(0.5, 2).sample(g)
    assert np.all(np.isfinite(speed.values)) and np.all(np.isfinite(div_neg.values))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_lattice_sampled_on_grid_falls_back_near_spikes(alpha):
    # with eps = 0 a spike on a node evaluates 0 * inf = nan there for any
    # alpha > 0; nodes within h/2 of a spike take the h-mollified field
    g = GridSpec(2, 4.0, 32, 0.0, 0.5, 2)
    b = lattice_drift(1.0, alpha, 2)
    assert all(np.all(np.isfinite(f.values)) for f in b.sample(g))
    rep = check_admissibility(b, 2.5, 12.0, 1.8, 12.0, g)
    assert np.isfinite(rep.drift_norm) and np.isfinite(rep.div_norm) and rep.admissible


def test_external_roundtrip_and_divergence(tmp_path):
    g = GridSpec(2, 2.0, 32, 0.0, 0.5, 4)
    k = 2 * np.pi / 2.0
    vel = SpaceTimeField.from_function(
        g, lambda t, x, y: [np.sin(k * x) * np.cos(k * y), -np.cos(k * x) * np.sin(k * y)]
    )
    path = tmp_path / "field.sdlf"
    write_field(path, vel)
    b = load_external(path)
    X = np.array([[0.25, 0.1], [-0.5, 0.3]])
    expect = np.stack(
        [np.sin(k * X[:, 0]) * np.cos(k * X[:, 1]), -np.cos(k * X[:, 0]) * np.sin(k * X[:, 1])],
        axis=1,
    )
    assert np.allclose(b(0.1, X), expect, atol=2e-2)  # multilinear interpolation
    # Taylor-Green is divergence-free; spectral fallback must see that
    assert np.abs(b.divergence(0.1, X)).max() < 1e-10
    assert "energy_linf_l2" in b.metadata


def test_external_1d_field_roundtrip(tmp_path):
    # SDLF stores a one-component field without its component axis
    g = GridSpec(1, 2.0, 32, 0.0, 1.0, 50)
    field = SpaceTimeField.from_function(g, lambda t, x: 3 * np.sin(6 * t))
    write_field(tmp_path / "b.sdlf", field)
    b = load_external(tmp_path / "b.sdlf")
    assert b.dim == 1 and b.time_dependent
    X = np.array([[-0.7], [0.0], [0.4]])
    for t in g.times:
        np.testing.assert_allclose(b(t, X), 3 * np.sin(6 * t), rtol=0, atol=1e-12)
    # linear in time between slices: error at most dt^2 / 8 * max|b''| = 5.4e-3
    for t in g.times[:-1] + g.dt / 2:
        np.testing.assert_allclose(b(t, X), 3 * np.sin(6 * t), rtol=0, atol=6e-3)
    assert np.abs(b.divergence(0.3, X)).max() < 1e-12


@pytest.mark.parametrize("d, n, steps", [(1, 32, 50), (2, 32, 4)])
def test_external_divergence_and_energy_match_spectral_gradient(tmp_path, d, n, steps):
    # the grids of the two round-trip tests above, with random components
    g = GridSpec(d, 2.0, n, 0.0, 1.0, steps)
    values = np.random.default_rng(d).standard_normal((g.nt, d) + g.spatial_shape())
    write_field(tmp_path / "b.sdlf", SpaceTimeField(g, values[:, 0] if d == 1 else values, d))
    b = load_external(tmp_path / "b.sdlf")
    grads = [spatial_gradient(SpaceTimeField(g, values[:, i], 1)) for i in range(d)]
    div = sum(gr[:, i] for i, gr in enumerate(grads))
    grad_sq = sum(np.sum(gr**2, axis=tuple(range(1, gr.ndim))) * g.cell_volume for gr in grads)
    nodes = g.nodes()
    for k in (0, g.time_steps // 2, g.time_steps):
        np.testing.assert_allclose(b.divergence(g.times[k], nodes), div[k].ravel(), rtol=0,
                                   atol=1e-12 * np.abs(div).max())
    assert b.metadata["energy_grad_l2l2"] == pytest.approx(
        np.sqrt(np.trapezoid(grad_sq, g.times)), rel=1e-12, abs=0)


def test_admissibility_exponent_gate():
    g = GridSpec(3, 4.0, 32, 0.0, 0.5, 2)
    b = radial_drift(0.5, 3, 0.2)
    # d/p + 2/q = 3/1.5 + 2/8 > 2: rejected regardless of norms
    rep = check_admissibility(b, 1.5, 8.0, 2.5, 8.0, g)
    assert not rep.exponents_ok
    assert not rep.admissible


def test_admissibility_mollified_radial():
    g = GridSpec(3, 4.0, 32, 0.0, 0.5, 2)
    b = radial_drift(0.5, 3, 0.2)
    rep = check_admissibility(b, 2.5, 12.0, 1.8, 12.0, g)
    assert rep.exponents_ok
    assert rep.drift_stable and rep.div_stable
    assert rep.admissible
    d = rep.as_dict()
    assert d["drift_norm"] > 0 and d["div_norm"] >= 0


def test_admissibility_samples_each_grid_once():
    g = GridSpec(2, 4.0, 16, 0.0, 0.5, 2)
    b = radial_drift(0.5, 2, 0.2)
    kernel, calls = b.fn, []
    b.fn = lambda t, X, div: calls.append((len(X), div)) or kernel(t, X, div)
    check_admissibility(b, 2.5, 12.0, 1.8, 12.0, g)
    # a frozen field: one kernel call for b and div b on each of the two grids
    assert calls == [(16**2, True), (32**2, True)]


def test_admissibility_builds_each_grids_windows_once(monkeypatch):
    g = GridSpec(2, 4.0, 16, 0.0, 0.5, 2)
    windows, grids_seen = norms.CutoffFamily.windows, []

    def counted(self, grid, zs):
        grids_seen.append(grid.points_per_axis)
        return windows(self, grid, zs)

    monkeypatch.setattr(norms.CutoffFamily, "windows", counted)
    b = radial_drift(0.5, 2, 0.2)
    rep = check_admissibility(b, 2.5, 12.0, 1.8, 12.0, g)
    # |b| and (div b)^- are read in the same windows
    assert grids_seen == [16, 32]
    # with the bits of one localized_norm per field
    fam = norms.CutoffFamily(1.0, [(0.25, np.zeros(2)), (0.25, np.full(2, 0.5))])
    speed, div_neg = b.sample(g)
    assert rep.drift_norm == norms.localized_norm(speed, norms.NormSpec(0.0, 2.5, 12.0), fam)
    assert rep.div_norm == norms.localized_norm(div_neg, norms.NormSpec(0.0, 1.8, 12.0), fam)


def test_admissibility_singular_radial_divergence_unstable():
    # (div b)^- ~ |x|^{-2} in d=3 is not p-integrable near the origin for
    # p >= 1.5; the refinement check must refuse to certify it
    g = GridSpec(3, 4.0, 32, 0.0, 0.5, 2)
    b = radial_drift(0.5, 3)
    rep = check_admissibility(b, 2.5, 12.0, 1.8, 12.0, g)
    assert not rep.div_stable
    assert not rep.admissible


def test_admissibility_drift_norm_refinement_values():
    # frozen desk-scale calibration: the |x|^{-1} speed is L^2.5-stable
    # in d=3 while L^3 (the critical scale-invariant exponent) is not
    g = GridSpec(3, 4.0, 32, 0.0, 0.5, 2)
    b = radial_drift(0.5, 3)
    stable = check_admissibility(b, 2.5, 12.0, 1.8, 12.0, g)
    assert stable.drift_stable
    critical = check_admissibility(b, 3.0, 12.0, 1.8, 12.0, g)
    assert not critical.drift_stable


def _lattice_modulo_reference(gamma_max, alpha_sing, d, period, seed, eps, X):
    """(b, div b) of lattice_drift, spike by spike, with the float-% periodic wrap."""
    rng = np.random.default_rng(seed)
    axis = np.arange(period) - period // 2
    zs = np.stack(
        [m.ravel() for m in np.meshgrid(*([axis] * d), indexing="ij")], axis=-1
    ).astype(np.float64)
    gammas = rng.uniform(0.0, gamma_max, size=len(zs))
    L, a, e2 = float(period), alpha_sing, eps * eps
    b = np.zeros_like(X)
    div = np.zeros(X.shape[:-1])
    for gamma, z in zip(gammas, zs):
        disp = (X - z + L / 2) % L - L / 2
        rho2 = np.sum(disp * disp, axis=-1)
        u = rho2 + e2
        rho = np.sqrt(rho2)
        phi = smooth_transition(rho, 1.0, 2.0)
        dphi = smooth_transition_with_deriv(rho, 1.0, 2.0)[1]
        b += gamma * disp * (u ** (-a / 2.0) * phi)[..., None]
        div += gamma * (
            d * u ** (-a / 2.0) * phi
            - a * rho2 * u ** (-a / 2.0 - 1.0) * phi
            + rho * u ** (-a / 2.0) * dphi
        )
    return b, div


@pytest.mark.parametrize("period", [3, 4, 5])
@pytest.mark.parametrize("scale", [3.0, 1e3])
@pytest.mark.parametrize("d", [2, 3])
def test_lattice_drift_matches_modulo_wrap(period, scale, d):
    # the rint wrap and the % wrap differ by rounding of |X| (ulp(1e3) ~ 1e-13);
    # the eps = 0.2 field is Lipschitz with a constant of order 10
    rng = np.random.default_rng(period)
    X = rng.uniform(-scale, scale, (40, 10, d))
    if period < 4:
        # spikes of radius 2 overlap their own images: the wrap would be discontinuous
        with pytest.raises(ValueError, match="period"):
            lattice_drift(1.0, 1.5, d, period=period, seed=5, eps=0.2)
        return
    b = lattice_drift(1.0, 1.5, d, period=period, seed=5, eps=0.2)
    ref_b, ref_div = _lattice_modulo_reference(1.0, 1.5, d, period, 5, 0.2, X)
    np.testing.assert_allclose(b(0.0, X), ref_b, rtol=0, atol=1e-10)
    np.testing.assert_allclose(b.divergence(0.0, X), ref_div, rtol=0, atol=1e-10)
