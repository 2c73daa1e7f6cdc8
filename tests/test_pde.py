import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sdlab.drifts import (
    DriftField,
    constant_drift,
    lattice_drift,
    linear_drift,
    load_external,
    radial_drift,
    zero_drift,
)
from sdlab import grids
from sdlab.grids import GridSpec, SpaceTimeField, read_field, write_field
from sdlab import pde as pde_mod
from sdlab.norms import NormSpec, vnorm
from sdlab.pde import (
    PDEProblem,
    _central_mask,
    _factor,
    build_operator,
    energy_monitor,
    max_principle_violations,
    solve,
    stability_sweep,
)


def ones_source(grid):
    return SpaceTimeField(grid, np.ones((grid.nt,) + grid.spatial_shape()), 1)


def test_constant_source_exact_forward():
    g = GridSpec(1, 2.0, 64, 0.0, 0.3, 30)
    sol = solve(PDEProblem(zero_drift(1).mollified(1.0), ones_source(g), g))
    # spatially constant data: u(t) = t exactly, at machine precision
    assert np.abs(sol.u.values - g.times[:, None]).max() < 1e-12
    assert sol.residual < 1e-10


def test_constant_source_exact_backward():
    g = GridSpec(1, 2.0, 64, 0.0, 0.3, 30)
    sol = solve(PDEProblem(zero_drift(1).mollified(1.0), ones_source(g), g, direction="backward"))
    assert np.abs(sol.u.values - (0.3 - g.times)[:, None]).max() < 1e-12


def test_heat_single_mode_oracle():
    # forced heat equation: u = (1 - e^{-lam t})/lam * sin(2 pi x / L)
    g = GridSpec(1, 2.0, 128, 0.0, 0.2, 200)
    lam = (2 * np.pi / 2.0) ** 2
    f = SpaceTimeField.from_function(g, lambda t, x: np.sin(2 * np.pi * x / 2.0))
    exact = (1 - np.exp(-lam * g.times[:, None])) / lam * np.sin(2 * np.pi * g.axis / 2.0)
    prob = PDEProblem(zero_drift(1).mollified(1.0), f, g)
    err_ie = np.abs(solve(prob).u.values - exact).max()
    err_cn = np.abs(solve(replace(prob, scheme="cn")).u.values - exact).max()
    assert err_ie < 2e-4  # first order in dt
    assert err_cn < 2e-5  # second order, down to spatial error


def test_maximum_principle_exact():
    g = GridSpec(2, 4.0, 32, 0.0, 0.25, 50)
    rng = np.random.default_rng(0)
    f = SpaceTimeField(g, rng.random((g.nt, 32, 32)), 1)
    for drift in [
        zero_drift(2).mollified(1.0),
        constant_drift([1.0, -0.5]).mollified(1.0),
        radial_drift(0.5, 2, 0.1),
        lattice_drift(1.0, 1.5, 2, seed=0, eps=0.2),
    ]:
        sol = solve(PDEProblem(drift, f, g))
        assert max_principle_violations(sol) == 0
        assert sol.u.values.min() >= 0.0


@pytest.mark.parametrize("direction, slices", [("forward", slice(0, 2)),
                                               ("backward", slice(-2, None))])
def test_max_principle_flags_crank_nicolson(direction, slices):
    # a unit point source on the first two slices the solver marches through, at
    # dt/h^2 = 12.8: CN's explicit half step I + dt/2 A has diagonal 1 - d dt/h^2 < 0,
    # so it rings below 0; the implicit scheme is monotone for any dt
    g = GridSpec(2, 4.0, 64, 0.0, 0.5, 10)
    values = np.zeros((g.nt, 64, 64))
    values[slices, 32, 32] = 1.0
    prob = PDEProblem(zero_drift(2).mollified(1.0), SpaceTimeField(g, values, 1), g,
                      direction=direction)
    cn = solve(replace(prob, scheme="cn"))
    assert max_principle_violations(cn) == 5
    assert cn.u.values.min() == pytest.approx(-4.9e-4, rel=0.01)
    assert max_principle_violations(solve(prob)) == 0


def test_comparison_with_signed_source():
    g = GridSpec(1, 2.0, 32, 0.0, 0.2, 20)
    rng = np.random.default_rng(1)
    fv = rng.standard_normal((g.nt, 32))
    fplus = SpaceTimeField(g, np.maximum(fv, 0.0), 1)
    fall = SpaceTimeField(g, fv, 1)
    b = constant_drift([0.7]).mollified(1.0)
    u_all = solve(PDEProblem(b, fall, g)).u.values
    u_plus = solve(PDEProblem(b, fplus, g)).u.values
    # monotone scheme: bigger source, bigger solution, exactly
    assert np.all(u_plus >= u_all - 1e-12)


def test_constant_drift_is_advection():
    # constant drift transports the single-mode solution by a phase shift
    g = GridSpec(1, 2.0, 128, 0.0, 0.1, 400)
    v = 1.0
    f = SpaceTimeField.from_function(g, lambda t, x: np.sin(2 * np.pi * (x + v * t) / 2.0))
    sol = solve(PDEProblem(constant_drift([v]).mollified(1.0), f, g))
    lam = (2 * np.pi / 2.0) ** 2
    exact = (1 - np.exp(-lam * g.times[:, None])) / lam * np.sin(
        2 * np.pi * (g.axis[None] + v * g.times[:, None]) / 2.0
    )
    # first-order upwinding smears: generous but scale-aware tolerance
    assert np.abs(sol.u.values - exact).max() < 0.05 * np.abs(exact).max()


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_time_dependent_residual_uses_each_steps_operator(direction):
    # b = 3 sin 6t changes sign over the window, so every step has its own operator
    g = GridSpec(1, 2.0, 32, 0.0, 1.0, 50)
    b = DriftField(1, lambda t, X, div: (np.full_like(X, 3.0 * np.sin(6.0 * t)),
                                         np.zeros(X.shape[:-1]) if div else None),
                   mollification_level=1.0, time_dependent=True)
    f = SpaceTimeField.from_function(g, lambda t, x: 1.0 + np.cos(np.pi * x))
    sol = solve(PDEProblem(b, f, g, direction=direction))
    assert sol.residual < 1e-10


def test_external_time_dependent_drift_is_not_frozen(tmp_path):
    # b = (3 sin 6t, 0) read from a file: the solver must step with each slice, unasked
    g = GridSpec(2, 2.0, 16, 0.0, 1.0, 50)
    f = SpaceTimeField.from_function(g, lambda t, x, y: 1.0 + np.cos(np.pi * x))
    vel = SpaceTimeField.from_vector_function(
        g, lambda t, x, y: [np.full_like(x, 3.0 * np.sin(6.0 * t)), np.zeros_like(x)])
    write_field(tmp_path / "b.sdlf", vel)
    b = load_external(tmp_path / "b.sdlf")
    assert b.time_dependent
    u = solve(PDEProblem(b, f, g)).u.values

    def analytic(time_dependent):
        def fn(t, X, div):
            out = np.zeros_like(X)
            out[..., 0] = 3.0 * np.sin(6.0 * t)
            return out, (np.zeros(X.shape[:-1]) if div else None)
        return DriftField(2, fn, mollification_level=1.0, time_dependent=time_dependent)

    stepped = solve(PDEProblem(analytic(True), f, g)).u.values
    frozen = solve(PDEProblem(analytic(False), f, g)).u.values
    assert np.abs(u - stepped).max() < 1e-12
    assert np.abs(u - frozen).max() > 0.05


def test_external_constant_in_time_drift_is_autonomous(tmp_path):
    g = GridSpec(2, 2.0, 8, 0.0, 0.5, 4)
    vel = SpaceTimeField.from_vector_function(g, lambda t, x, y: [np.sin(np.pi * y), np.zeros_like(x)])
    write_field(tmp_path / "b.sdlf", vel)
    assert not load_external(tmp_path / "b.sdlf").time_dependent


def test_rejects_unmollified_drift():
    g = GridSpec(2, 4.0, 16, 0.0, 0.25, 10)
    with pytest.raises(ValueError):
        PDEProblem(radial_drift(0.5, 2), ones_source(g), g)


def test_vnorm_and_sup_reported():
    g = GridSpec(1, 2.0, 64, 0.0, 0.3, 30)
    sol = solve(PDEProblem(zero_drift(1).mollified(1.0), ones_source(g), g))
    assert sol.sup_norm == pytest.approx(0.3, abs=1e-12)
    assert vnorm(sol.u) > 0


def test_stability_sweep_cauchy():
    g = GridSpec(2, 4.0, 64, 0.0, 0.5, 50)
    rho2 = sum(m**2 for m in g.meshgrid())
    f = SpaceTimeField(g, np.tile(np.exp(-rho2 / 0.25), (g.nt, 1, 1)), 1)
    rep = stability_sweep(PDEProblem(radial_drift(0.5, 2, 0.4), f, g), [0.4, 0.2, 0.1, 0.05])
    d = rep["distances"]
    assert len(d) == 3
    assert all(b < a for a, b in zip(d, d[1:]))
    assert np.isfinite(rep["uniform_bound"])


def bump_source(grid, tiled=False):
    """The CLI's bump source of width 0.5, one slice repeated through a zero stride or tiled."""
    one = np.exp(-sum(m**2 for m in grid.meshgrid()) / 0.25)
    values = np.broadcast_to(one, (grid.nt, *one.shape))
    return SpaceTimeField(grid, values.copy() if tiled else values, 1)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("planes", [1, 3, None], ids=["one-plane", "three-planes", "whole"])
def test_sweep_does_not_depend_on_the_slabs(monkeypatch, planes, direction):
    g = GridSpec(2, 4.0, 16, 0.0, 0.5, 20)
    levels = [0.4, 0.2, 0.1]
    b, f = radial_drift(0.5, 2), bump_source(g)
    assert len(grids.slabs((g.nt, 16, 16))) == 1  # the whole field is one slab
    # reference: every level held, each distance from whole-field differences
    sols = [solve(PDEProblem(b.mollified(eps), f, g, direction)) for eps in levels]
    dists = []
    for a, c in zip(sols, sols[1:]):
        diff = (a.u.values - c.u.values) * _central_mask(g)
        dists.append(float(np.sqrt(np.trapezoid(np.sum(diff**2, axis=(1, 2)) * g.cell_volume,
                                                g.times))))
    if planes is not None:
        monkeypatch.setattr(grids, "SLAB_NODES", planes * 16**2)
    # the problem's own level, 1.0, is off the ladder
    rep = stability_sweep(PDEProblem(b.mollified(1.0), f, g, direction), levels)
    assert rep["distances"] == dists
    assert rep["sup_norms"] == [s.sup_norm for s in sols]
    assert rep["v_norms"] == [vnorm(s.u) for s in sols]
    assert rep["uniform_bound"] == max(s.sup_norm + vnorm(s.u) for s in sols)
    assert rep["kept"] is None


@pytest.mark.parametrize("planes", [1, 3, None], ids=["one-plane", "three-planes", "whole"])
def test_write_field_does_not_depend_on_the_slabs(monkeypatch, tmp_path, planes):
    g = GridSpec(2, 4.0, 8, 0.0, 0.5, 6)
    values = np.random.default_rng(5).standard_normal((g.nt, 2, 8, 8))
    fields = {
        "contiguous": SpaceTimeField(g, values[:, 0], 1),
        "reversed": SpaceTimeField(g, values[::-1, 1], 1),
        "stride-0": bump_source(g),
        "vector": SpaceTimeField(g, values, 2),
    }
    if planes is not None:
        monkeypatch.setattr(grids, "SLAB_NODES", planes * 8**2)
    for name, field in fields.items():
        write_field(tmp_path / name, field)
        payload = (tmp_path / name).read_bytes()[-field.values.nbytes:]
        assert payload == np.ascontiguousarray(field.values, dtype="<f8").tobytes(), name
        assert np.array_equal(read_field(tmp_path / name).values, field.values), name


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("scheme", ["implicit", "cn"])
def test_stride_zero_source_solves_as_tiled(direction, scheme):
    g = GridSpec(2, 4.0, 16, 0.0, 0.5, 20)
    b = radial_drift(0.5, 2, 0.1)
    view, tiled = bump_source(g), bump_source(g, tiled=True)
    assert view.values.strides[0] == 0 and tiled.values.strides[0] != 0
    one, other = (solve(PDEProblem(b, f, g, direction, scheme))
                  for f in (view, tiled))
    assert np.array_equal(one.u.values, other.u.values)
    assert (one.sup_norm, vnorm(one.u), one.residual) \
        == (other.sup_norm, vnorm(other.u), other.residual)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_crank_nicolson_residual_is_its_own_defect(direction):
    g = GridSpec(2, 4.0, 32, 0.0, 0.5, 20)
    prob = PDEProblem(radial_drift(0.5, 2, 0.1), bump_source(g), g, direction)
    residual = solve(replace(prob, scheme="cn")).residual
    # the CN relation holds to round-off; the implicit relation is off by about 0.1 here
    assert 0.0 < residual < 1e-10


def test_sweep_keeps_the_problems_own_level():
    g = GridSpec(2, 4.0, 16, 0.0, 0.5, 20)
    levels = [0.4, 0.2, 0.1, 0.05]
    problem = PDEProblem(radial_drift(0.5, 2, 0.1), bump_source(g), g, "backward")
    rep = stability_sweep(problem, levels)
    kept = rep["kept"]
    alone = solve(problem)
    assert rep["sup_norms"][2] == alone.sup_norm
    assert np.array_equal(kept.u.values, alone.u.values)
    assert (kept.sup_norm, vnorm(kept.u), kept.residual) == (alone.sup_norm, vnorm(alone.u),
                                                             alone.residual)


def test_cn_problem_sweeps_implicit_levels_and_keeps_nothing(monkeypatch):
    g = GridSpec(2, 4.0, 16, 0.0, 0.5, 20)
    levels = [0.4, 0.2, 0.1]
    problem = PDEProblem(radial_drift(0.5, 2, 0.1), bump_source(g), g, "backward", "cn")
    real, solved = pde_mod.solve, []
    monkeypatch.setattr(pde_mod, "solve", lambda p: solved.append(real(p)) or solved[-1])
    rep = stability_sweep(problem, levels)
    assert rep["kept"] is None
    implicit = [real(replace(problem, drift=radial_drift(0.5, 2, eps), scheme="implicit"))
                for eps in levels]
    assert len(solved) == len(levels)
    for level, alone in zip(solved, implicit):
        assert np.array_equal(level.u.values, alone.u.values)
        assert (level.sup_norm, level.residual) == (alone.sup_norm, alone.residual)
    assert rep["sup_norms"] == [s.sup_norm for s in implicit]


def test_sweep_traced_peak_is_at_most_three_solutions():
    # radial-c0.5-sweep's grid, drift, source, ladder, direction and kept level
    g = GridSpec(2, 4.0, 64, 0.0, 0.5, 100)
    f = bump_source(g)
    solution_bytes = g.nt * 64**2 * 8
    tracemalloc.start()
    try:
        stability_sweep(PDEProblem(radial_drift(0.5, 2, 0.1), f, g, "backward"),
                        [0.4, 0.2, 0.1, 0.05])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two levels held, plus the step operator's assembly and the slab temporaries
    assert peak <= 3 * solution_bytes


def test_stability_sweep_rejects_non_refining_ladder():
    g = GridSpec(2, 4.0, 32, 0.0, 0.25, 20)
    f = ones_source(g)
    with pytest.raises(ValueError):
        stability_sweep(PDEProblem(radial_drift(0.5, 2, 0.4), f, g), [0.4, 0.4, 0.4])


@pytest.mark.parametrize("drift", [zero_drift(2), linear_drift(1.0, 2)], ids=["zero", "linear"])
def test_stability_sweep_rejects_drift_without_family(drift):
    # mollified(eps) returns such a drift itself: every level would solve one problem
    g = GridSpec(2, 4.0, 16, 0.0, 0.25, 10)
    with pytest.raises(ValueError, match="no mollification family"):
        stability_sweep(PDEProblem(drift.mollified(1.0), ones_source(g), g), [0.4, 0.1, 0.05])


def test_energy_monitor_report():
    g = GridSpec(2, 8.0, 32, 0.0, 0.5, 40)
    rho2 = sum(m**2 for m in g.meshgrid())
    f = SpaceTimeField(g, np.tile(np.exp(-rho2), (g.nt, 1, 1)), 1)
    prob = PDEProblem(radial_drift(0.5, 2, 0.2), f, g)
    sol = solve(prob)
    specs = [NormSpec(0.0, 8.0, 8.0)] * 3
    rep = energy_monitor(sol, prob, (0.25, [0.0, 0.0]), 0.5, 0.1 * sol.sup_norm, specs)
    assert rep["xi_eta"] > 1.0
    assert len(rep["records"]) >= 2
    assert np.isfinite(rep["c_emp_max"]) and rep["c_emp_max"] >= 0


def coo_operator(grid, b_nodes):
    """The stencil assembled as COO triplets, one array per term, summed by ``tocsr``."""
    n, h = grid.points_per_axis**grid.spatial_dim, grid.h
    idx = np.arange(n).reshape(grid.spatial_shape())
    rows, cols, data = [], [], []
    diag = np.zeros(n)
    for ax in range(grid.spatial_dim):
        plus, minus = np.roll(idx, -1, axis=ax).ravel(), np.roll(idx, 1, axis=ax).ravel()
        bp, bm = np.maximum(b_nodes[:, ax], 0.0), np.minimum(b_nodes[:, ax], 0.0)
        rows += [idx.ravel()] * 4
        cols += [plus, minus, plus, minus]
        data += [np.full(n, 1.0 / h**2), np.full(n, 1.0 / h**2), bp / h, -bm / h]
        diag -= 2.0 / h**2
        diag -= (bp - bm) / h
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    data.append(diag)
    return sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def _same_arrays(a, b):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@pytest.mark.parametrize("points", [4, 8])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["signed", "zero", "constant"])
def test_build_operator_matches_coo_assembly(dim, points, kind):
    # signed (radial, linear in 1-D) drifts have both b+ = 0 and b- = 0 nodes; a zero
    # drift has both everywhere; the constant drift's axes have one sign each
    g = GridSpec(dim, 4.0, points, 0.0, 0.5, 4)
    drift = {
        "signed": linear_drift(1.0, 1).mollified(1.0) if dim == 1 else radial_drift(0.5, dim, 0.1),
        "zero": zero_drift(dim).mollified(1.0),
        "constant": constant_drift([0.7, -0.5, 0.3][:dim]).mollified(1.0),
    }[kind]
    b = drift(0.0, g.nodes())
    A, ref = build_operator(g, b), coo_operator(g, b)
    _same_arrays(A, ref)
    ident = sp.identity(len(b), format="csr")
    _same_arrays((ident - g.dt * A).tocsc(), (ident - g.dt * ref).tocsc())


def test_build_operator_traced_peak():
    g = GridSpec(3, 4.0, 32, 0.0, 0.5, 40)
    b = radial_drift(0.5, 3, 0.1)(0.0, g.nodes())
    tracemalloc.start()
    try:
        A = build_operator(g, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the returned arrays and a few stencil-sized temporaries (3.0 times the
    # returned bytes); a COO assembly and its conversion to CSR take 6.7 times
    assert peak <= 4.5 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


@pytest.mark.parametrize("scheme", ["implicit", "cn"])
def test_factor_solves_step_matrix_without_row_exchange(monkeypatch, scheme):
    # strong enough that partial pivoting would exchange rows at the origin's column
    g = GridSpec(2, 4.0, 8, 0.0, 1.0, 4)
    nodes = g.nodes()
    A = build_operator(g, radial_drift(10.0, 2, 0.2)(0.0, nodes))
    ident = sp.identity(len(nodes), format="csr")
    M = {"implicit": ident - g.dt * A, "cn": ident - 0.5 * g.dt * A}[scheme]
    real, orderings = spla.splu, []
    monkeypatch.setattr(spla, "splu", lambda A, **kw: orderings.append(kw.get("permc_spec"))
                        or real(A, **kw))
    lu = _factor(M)
    # the fill-reducing ordering: minimum degree on the structure of A + A^T
    assert orderings == ["MMD_AT_PLUS_A"]
    rhs = np.random.default_rng(3).standard_normal((len(nodes), 2))
    exact = np.linalg.solve(M.toarray(), rhs)
    np.testing.assert_allclose(lu.solve(rhs), exact, rtol=1e-12, atol=1e-12 * np.abs(exact).max())
    # diagonal pivots: the row order is the column order
    assert np.array_equal(lu.perm_r, lu.perm_c)
