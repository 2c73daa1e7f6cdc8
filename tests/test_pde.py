import numpy as np
import pytest

from sdlab.drifts import (
    DriftField,
    constant_drift,
    lattice_drift,
    load_external,
    radial_drift,
    zero_drift,
)
from sdlab.grids import GridSpec, SpaceTimeField, write_field
from sdlab.norms import NormSpec
from sdlab.pde import (
    CFLError,
    PDEProblem,
    SolverConfig,
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
    err_cn = np.abs(solve(prob, SolverConfig("cn")).u.values - exact).max()
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
    b = DriftField(1, lambda t, X: np.full_like(X, 3.0 * np.sin(6.0 * t)),
                   lambda t, X: np.zeros(X.shape[:-1]), mollification_level=1.0,
                   time_dependent=True)
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
        def ev(t, X):
            out = np.zeros_like(X)
            out[..., 0] = 3.0 * np.sin(6.0 * t)
            return out
        return DriftField(2, ev, lambda t, X: np.zeros(X.shape[:-1]), mollification_level=1.0,
                          time_dependent=time_dependent)

    stepped = solve(PDEProblem(analytic(True), f, g)).u.values
    frozen = solve(PDEProblem(analytic(False), f, g)).u.values
    assert np.abs(u - stepped).max() < 1e-12
    assert np.abs(u - frozen).max() > 0.05


def test_external_constant_in_time_drift_is_autonomous(tmp_path):
    g = GridSpec(2, 2.0, 8, 0.0, 0.5, 4)
    vel = SpaceTimeField.from_vector_function(g, lambda t, x, y: [np.sin(np.pi * y), np.zeros_like(x)])
    write_field(tmp_path / "b.sdlf", vel)
    assert not load_external(tmp_path / "b.sdlf").time_dependent


def test_cfl_guard_for_explicit_advection():
    g = GridSpec(1, 2.0, 32, 0.0, 0.5, 10)  # dt = 0.05, h = 1/16
    with pytest.raises(CFLError):
        solve(
            PDEProblem(constant_drift([10.0]).mollified(1.0), ones_source(g), g),
            SolverConfig(scheme="imex"),
        )


def test_rejects_unmollified_drift():
    g = GridSpec(2, 4.0, 16, 0.0, 0.25, 10)
    with pytest.raises(ValueError):
        PDEProblem(radial_drift(0.5, 2), ones_source(g), g)


def test_vnorm_and_sup_reported():
    g = GridSpec(1, 2.0, 64, 0.0, 0.3, 30)
    sol = solve(PDEProblem(zero_drift(1).mollified(1.0), ones_source(g), g))
    assert sol.sup_norm == pytest.approx(0.3, abs=1e-12)
    assert sol.v_norm > 0


def test_stability_sweep_cauchy():
    g = GridSpec(2, 4.0, 64, 0.0, 0.5, 50)
    rho2 = sum(m**2 for m in g.meshgrid())
    f = SpaceTimeField(g, np.tile(np.exp(-rho2 / 0.25), (g.nt, 1, 1)), 1)
    rep = stability_sweep(radial_drift(0.5, 2), [0.4, 0.2, 0.1, 0.05], f, g)
    d = rep["distances"]
    assert len(d) == 3
    assert all(b < a for a, b in zip(d, d[1:]))
    assert np.isfinite(rep["uniform_bound"])
    assert rep["cauchy_rate"] < 1.0


def test_stability_sweep_rejects_non_refining_ladder():
    g = GridSpec(2, 4.0, 32, 0.0, 0.25, 20)
    f = ones_source(g)
    with pytest.raises(ValueError):
        stability_sweep(radial_drift(0.5, 2), [0.4, 0.4, 0.4], f, g)


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
