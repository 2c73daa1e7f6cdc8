import concurrent.futures
import hashlib
import multiprocessing
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from sdlab import sde
from sdlab.drifts import (
    DriftField,
    constant_drift,
    lattice_drift,
    linear_drift,
    load_external,
    radial_drift,
    zero_drift,
)
from sdlab.grids import GridSpec, SpaceTimeField, write_field
from sdlab.pde import PDEProblem, solve
from sdlab.sde import (
    EnsembleConfig,
    ProbeFunction,
    _start_array,
    backward_flow_det,
    batch_stats,
    density_estimate,
    feynman_kac_check,
    jacobian_semigroup,
    krylov_verify,
    load_ensemble_arrays,
    martingale_defect,
    normal_ks,
    save_ensemble,
    simulate,
    step_normals,
    tightness_modulus,
    weak_convergence_scan,
)

BROWNIAN = zero_drift(2).mollified(1.0)
OU1 = linear_drift(1.0, 1).mollified(1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.5, -0.01, 1000, 0)
    with pytest.raises(ValueError):
        EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.5, 0.01, 10, 0)
    with pytest.raises(ValueError):
        EnsembleConfig(BROWNIAN, (1.0, [0.0, 0.0]), 0.5, 0.01, 1000, 0)


def test_brownian_variance_and_reproducibility():
    cfg = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.5, 0.005, 20000, 1, store_stride=100)
    ens = simulate(cfg)
    for ax in range(2):
        m, se = batch_stats(ens.final_states[:, ax] ** 2)
        assert abs(m - 1.0) <= 3 * se  # 2 * (t - s) = 1.0
    assert np.array_equal(simulate(cfg).states, ens.states)


def test_quadratic_variation_pins_sqrt2():
    cfg = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.25, 0.005, 2000, 2)
    ens = simulate(cfg)
    qv = np.sum(np.diff(ens.states, axis=1) ** 2, axis=1)  # per path, per coord
    m, se = batch_stats(qv[:, 0])
    assert abs(m - 0.5) <= 3 * se  # 2 * (t - s)


def test_step_normals_order_independent():
    a = step_normals(9, 4, 100, 3)
    b = step_normals(9, 4, 100, 3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, step_normals(9, 5, 100, 3))


def test_ou_exact_moments():
    cfg = EnsembleConfig(OU1, (0.0, [2.0]), 1.0, 0.001, 20000, 3, store_stride=1000)
    ens = simulate(cfg)
    m, se = batch_stats(ens.final_states[:, 0])
    assert abs(m - 2 * np.exp(-1)) <= 3 * se + 0.01  # O(dt) weak bias
    v, vse = batch_stats((ens.final_states[:, 0] - m) ** 2)
    assert abs(v - (1 - np.exp(-2))) <= 3 * vse + 0.01


def test_strong_order_refinement():
    # E|X^{dt} - X^{dt/2}|(T), both chains of one coupled run
    gap = lambda p: float(np.linalg.norm(p.final_states - p.fine.final_states, axis=1).mean())
    dts = [2.0**-k for k in range(6, 11)]
    gaps = [gap(simulate(EnsembleConfig(OU1, (0.0, [1.0]), 0.5, dt, 1000, 4), coupled=True))
            for dt in dts]
    order = np.polyfit(np.log(dts), np.log(gaps), 1)[0]
    assert order >= 0.45  # at least strong order 1/2
    # b = 0: both chains add the same increments in the same order
    brownian = EnsembleConfig(zero_drift(1).mollified(1.0), (0.0, [0.0]), 0.5, 2.0**-6, 200, 5)
    assert gap(simulate(brownian, coupled=True)) == 0


def test_krylov_constant_integrand_exact():
    rep = krylov_verify(BROWNIAN, [[0.0, 0.0], [0.5, 0.5]],
                        lambda t, X: np.ones(len(X)), [0.05, 0.1, 0.2, 0.4],
                        dt=0.01, paths=500, seed=6)
    assert rep.meta["theta"] == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_krylov_rejects_negative_integrand():
    with pytest.raises(ValueError):
        krylov_verify(BROWNIAN, [[0.0, 0.0]], lambda t, X: -np.ones(len(X)),
                      [0.1, 0.2], dt=0.01, paths=200, seed=7)


def test_krylov_ball_occupation_gaussian_oracle():
    # b = 0, f = indicator of B_R: the exact discrete expectation is the
    # left Riemann sum of P(|X_{t_k}| <= R) with |X_t|^2/(2t) chi-square
    R, dt = 0.5, 0.002
    deltas = [0.1, 0.2]
    rep = krylov_verify(BROWNIAN, [[0.0, 0.0]],
                        lambda t, X: (np.sum(X**2, axis=1) <= R**2).astype(float),
                        deltas, dt=dt, paths=20000, seed=8)
    for j, delta in enumerate(deltas):
        ts = np.arange(0, int(round(delta / dt))) * dt
        probs = np.where(ts == 0, 1.0,
                         scipy.stats.chi2.cdf(R**2 / (2 * np.maximum(ts, 1e-30)), 2))
        oracle = float(np.sum(probs) * dt)
        assert abs(rep.meta["table"][0][j] - oracle) <= 3 * rep.se


def test_krylov_uniform_over_symmetric_panel():
    starts = [[0.25, 0.0], [-0.25, 0.0], [0.0, 0.25], [0.0, -0.25]]
    rep = krylov_verify(radial_drift(0.5, 2, 0.05), starts,
                        lambda t, X: np.exp(-4 * np.sum(X**2, axis=1)),
                        [0.05, 0.1, 0.2], dt=0.005, paths=2000, seed=9)
    assert rep.passed
    assert rep.meta["uniform_ratio"] <= 2.0


def test_jacobian_brownian_and_ou():
    g = GridSpec(2, 8.0, 32, 0.0, 0.5, 50)
    f = lambda X: np.exp(-np.sum(X**2, axis=1))
    rep = jacobian_semigroup(BROWNIAN, f, g, 0.0, 0.3, dt=0.005, paths=4000, seed=13)
    assert rep.meta["det_mean"] == pytest.approx(1.0, abs=1e-12)
    assert rep.passed
    rep = jacobian_semigroup(linear_drift(1.0, 2).mollified(1.0), f, g, 0.0, 0.3,
                             dt=0.005, paths=4000, seed=14)
    # constant divergence -d: det J = e^{d (t-s)} deterministically
    assert rep.meta["det_mean"] == pytest.approx(np.exp(0.6), rel=1e-3)
    assert rep.passed


def test_jacobian_divergence_free_external_field(tmp_path):
    g = GridSpec(2, 2.0, 32, 0.0, 0.5, 4)
    k = 2 * np.pi / 2.0
    vel = SpaceTimeField.from_vector_function(
        g, lambda t, x, y: [np.sin(k * x) * np.cos(k * y), -np.cos(k * x) * np.sin(k * y)]
    )
    path = tmp_path / "tg.sdlf"
    write_field(path, vel)
    drift = load_external(path)
    f = lambda X: np.exp(-4 * np.sum(X**2, axis=1))
    rep = jacobian_semigroup(drift, f, g, 0.0, 0.25, dt=0.005, paths=4000, seed=15)
    assert rep.meta["divergence_free"]
    assert abs(rep.meta["det_mean"] - 1.0) < 1e-8
    assert rep.passed  # L1 ratio within 1 + 3 se


def test_feynman_kac_constant_exact():
    g = GridSpec(2, 8.0, 32, 0.0, 0.5, 100)
    f = SpaceTimeField(g, np.ones((g.nt, 32, 32)), 1)
    sol = solve(PDEProblem(BROWNIAN, f, g, direction="backward"))
    rep = feynman_kac_check(sol, BROWNIAN, lambda t, X: np.ones(len(X)),
                            [(0.0, [0.0, 0.0]), (0.25, [1.0, 0.0])], 0.5,
                            dt=0.005, paths=400, seed=16)
    assert rep.lhs < 1e-12
    assert rep.passed


def test_feynman_kac_simulates_each_panel_point_once(monkeypatch):
    calls, real = [], sde.simulate
    monkeypatch.setattr(sde, "simulate", lambda cfg, **kw: calls.append(
        (cfg.start[0], cfg.seed, kw.get("coupled", False))) or real(cfg, **kw))
    g = GridSpec(2, 8.0, 32, 0.0, 0.5, 100)
    f = SpaceTimeField.from_function(g, lambda t, x, y: np.cos(x))
    sol = solve(PDEProblem(BROWNIAN, f, g, direction="backward"))
    source = lambda t, X: np.cos(X[:, 0])  # noqa: E731
    rep = feynman_kac_check(sol, BROWNIAN, source, [(0.0, [0.5, 0.0]), (0.25, [1.0, 0.0])],
                            0.5, dt=0.005, paths=400, seed=16)
    # the coupled pair at the first point, then one run at the second
    assert calls == [(0.0, 16, True), (0.25, 17, False)]
    # the first row's estimate is the pair's dt chain
    cfg = EnsembleConfig(BROWNIAN, (0.0, np.array([0.5, 0.0])), 0.5, 0.005, 400, 16,
                         store_stride=100)
    pair = real(cfg, integrands={"f": lambda t, X, b: source(t, X)}, coupled=True)
    assert rep.meta["panel"][0]["mc"] == batch_stats(pair.integrals["f"][:, -1])[0]


def test_feynman_kac_rejects_a_panel_time_off_the_solution_grid(monkeypatch):
    # 5 steps on [0, 0.5]: s = 0.25 falls between the slices at 0.2 and 0.3
    g = GridSpec(2, 8.0, 32, 0.0, 0.5, 5)
    f = SpaceTimeField.from_function(g, lambda t, x, y: np.cos(x))
    sol = solve(PDEProblem(BROWNIAN, f, g, direction="backward"))
    monkeypatch.setattr(sde, "simulate", lambda *a, **k: pytest.fail("simulated"))
    with pytest.raises(ValueError, match="time 0.25 is not a grid time"):
        feynman_kac_check(sol, BROWNIAN, lambda t, X: np.cos(X[:, 0]),
                          [(0.0, [0.5, 0.0]), (0.25, [1.0, 0.0])], 0.5, dt=0.005, paths=400)


def test_feynman_kac_fourier_mode_oracle():
    # b=0, f = cos(k x1): u(s, x) = cos(k x1) (1 - e^{-k^2 (T-s)}) / k^2
    L, T = 8.0, 0.5
    k = 2 * np.pi / L
    g = GridSpec(2, L, 64, 0.0, T, 100)
    f = SpaceTimeField.from_function(g, lambda t, x, y: np.cos(k * x))
    sol = solve(PDEProblem(BROWNIAN, f, g, direction="backward"))
    x0 = [1.0, 0.0]
    # X = x + sqrt(2) W, so E cos(k X_t) = cos(k x) e^{-k^2 t}
    exact = np.cos(k * x0[0]) * (1 - np.exp(-(k**2) * T)) / k**2
    pde_val = sol.u.values[0][np.argmin(np.abs(g.axis - x0[0])), np.argmin(np.abs(g.axis))]
    assert pde_val == pytest.approx(exact, rel=5e-3)
    rep = feynman_kac_check(sol, BROWNIAN, lambda t, X: np.cos(k * X[:, 0]),
                            [(0.0, x0)], T, dt=0.005, paths=4000, seed=17)
    assert rep.passed


def test_martingale_linear_probe_brownian():
    d = 2
    probe = ProbeFunction(
        f=lambda X: X[:, 0],
        grad=lambda X: np.stack([np.ones(len(X)), np.zeros(len(X))], axis=1),
        lap=lambda X: np.zeros(len(X)),
    )
    rep = martingale_defect(BROWNIAN, [0.0, 0.0], probe, 0.1, 0.4,
                            dt=0.005, paths=4000, seed=18)
    assert rep.passed


def test_martingale_bump_probe_with_past_functional():
    probe = ProbeFunction(
        f=lambda X: np.exp(-np.sum(X**2, axis=1)),
        grad=lambda X: -2 * X * np.exp(-np.sum(X**2, axis=1))[:, None],
        lap=lambda X: (4 * np.sum(X**2, axis=1) - 2 * X.shape[1])
        * np.exp(-np.sum(X**2, axis=1)),
    )
    G = lambda t, X: np.tanh(X[:, 0])  # bounded functional of the time-t0 state
    rep = martingale_defect(linear_drift(1.0, 2).mollified(1.0), [0.5, 0.0], probe,
                            0.1, 0.4, G=G, dt=0.005, paths=8000, seed=19)
    assert rep.passed


def test_martingale_rejects_bad_window():
    probe = ProbeFunction(lambda X: X[:, 0], lambda X: np.ones_like(X), lambda X: np.zeros(len(X)))
    with pytest.raises(ValueError):
        martingale_defect(OU1, [0.0], probe, 0.4, 0.1, dt=0.01, paths=200, seed=20)
    # a window opening before the start would compare M_s with itself: defect 0, se 0
    with pytest.raises(ValueError, match="t0"):
        martingale_defect(OU1, [0.0], probe, -0.5, 0.1, s=0.0, dt=0.01, paths=200, seed=20)


def test_martingale_rejects_t0_with_no_step_before_t1():
    # Lf with half the Laplacian: the defect tells it from the generator...
    halved = ProbeFunction(_BUMP.f, _BUMP.grad, lambda X: 0.5 * _BUMP.lap(X))
    drift = radial_drift(0.5, 2, 0.1)
    rep = martingale_defect(drift, [0.5, 0.0], halved, 0.1, 0.4, dt=0.005, paths=2000, seed=1100)
    assert not rep.passed and rep.lhs < -10 * rep.se
    # ...unless t0 is read at t1: the last step before t1 = 0.4 is 0.395, 0.003 from t0
    with pytest.raises(ValueError, match="t0 = 0.398"):
        martingale_defect(drift, [0.5, 0.0], halved, 0.398, 0.4, dt=0.005, paths=2000,
                          seed=1100)


def test_martingale_defect_one_kernel_call_per_step():
    # criterion 11's radial case: K = 80 coarse and 160 fine steps, and Lf reads each step's b
    drift = radial_drift(0.5, 2, 0.1)
    kernel, calls = drift.fn, []
    drift.fn = lambda t, X, div: calls.append(t) or kernel(t, X, div)
    martingale_defect(drift, [0.5, 0.0], _BUMP, 0.1, 0.4, dt=0.005, paths=8000, seed=1100)
    assert len(calls) == 3 * 80


def test_density_gaussian_ks():
    cfg = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.5, 0.005, 20000, 21, store_stride=100)
    ens = simulate(cfg)
    g = GridSpec(2, 8.0, 32, 0.0, 0.5, 2)
    de = density_estimate(ens, 0.5, g)
    cell = (8.0 / 32) ** 2
    assert de.histogram.sum() * cell == pytest.approx(1.0 - de.truncated_mass, abs=1e-9)
    assert np.all(de.histogram >= 0)
    crit = 1.628 / np.sqrt(cfg.paths)
    for ax in range(2):
        assert normal_ks(ens.final_states[:, ax], 0.0, 1.0) < crit


def test_density_cells_centred_on_nodes():
    g = GridSpec(2, 8.0, 32, 0.0, 0.5, 2)
    h = g.h
    rng = np.random.default_rng(0)
    idx = rng.integers(0, g.points_per_axis, size=(10**4, 2))
    # a sample a quarter cell below node i belongs to cell i
    X = g.axis[idx] - 0.25 * h
    X[:5] = 5.0  # outside every cell
    cfg = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.5, 0.5, len(X), 0)
    ens = sde.TrajectoryEnsemble(cfg, np.array([0.5]), X[:, None, :])
    de = density_estimate(ens, 0.5, g)
    counts = np.zeros((g.points_per_axis,) * 2)
    np.add.at(counts, tuple(idx[5:].T), 1.0)
    np.testing.assert_allclose(de.histogram * len(X) * h**2, counts, rtol=1e-12)
    assert de.truncated_mass == pytest.approx(5 / len(X), rel=1e-12)
    assert de.histogram.sum() * h**2 == pytest.approx(1.0 - de.truncated_mass, abs=1e-12)


@pytest.mark.parametrize("n", [100, 101, 1000, 10**5])
@pytest.mark.parametrize("mean, sd", [(0.0, 1.0), (0.3, 0.7), (-2.0, 3.5), (1e-3, 1.0)])
def test_normal_ks_matches_scipy(n, mean, sd):
    t = mean + sd * np.random.default_rng(n).standard_t(5, size=n)
    # shifted up by sd, the sample's statistic comes from the F - (i-1)/n side
    for x in (t, t + sd):
        ref = scipy.stats.kstest(x, lambda y: scipy.stats.norm.cdf(y, mean, sd)).statistic
        assert normal_ks(x, mean, sd) == ref


def test_density_ou_oracle():
    cfg = EnsembleConfig(OU1, (0.0, [2.0]), 1.0, 0.001, 20000, 22, store_stride=1000)
    ens = simulate(cfg)
    mean = 2 * np.exp(-1)
    sd = np.sqrt(1 - np.exp(-2))
    ks = scipy.stats.kstest(ens.final_states[:, 0],
                            lambda x: scipy.stats.norm.cdf(x, mean, sd)).statistic
    # allow 1% critical value plus a first-order-in-dt allowance
    assert ks < 1.628 / np.sqrt(cfg.paths) + 0.005


def test_density_radial_mass_monotone_in_c():
    masses = []
    for c in (0.5, 1.0, 2.0):
        cfg = EnsembleConfig(radial_drift(c, 2, 0.05), (0.0, [0.05, 0.0]), 0.25,
                             0.002, 30000, 23, store_stride=125)
        ens = simulate(cfg)
        r = np.sqrt(np.sum(ens.final_states**2, axis=1))
        masses.append(float((r <= 0.1).mean()))
    assert masses[0] < masses[1] < masses[2]


def test_weak_convergence_scan_radial():
    obs = [(0.25, lambda X: np.cos(X[:, 0])), (0.5, lambda X: np.exp(-np.sum(X**2, axis=1)))]
    rep = weak_convergence_scan(radial_drift(0.5, 2), [0.4, 0.2, 0.1, 0.05], obs,
                                (0.0, [0.5, 0.0]), 0.5, dt=0.005, paths=2000, seed=24)
    gaps = rep["cauchy_gaps"]
    assert gaps[-1] < gaps[0]
    assert np.isfinite(rep["modulus_uniform_bound"])
    assert rep["modulus_shape_constant"] < 10


def test_tightness_modulus_brownian_oracle():
    # modulus for b=0 matched against an independent Brownian resimulation
    cfg = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.5, 0.005, 2000, 25)
    mods = tightness_modulus(simulate(cfg), [0.05, 0.1])
    cfg2 = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.5, 0.005, 2000, 26)
    mods2 = tightness_modulus(simulate(cfg2), [0.05, 0.1])
    for a, b in zip(mods, mods2):
        assert a == pytest.approx(b, rel=0.05)


def test_backward_flow_det_pure_brownian_exact():
    cfg = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.25, 0.01, 500, 29,
                         store_stride=25)
    dets = backward_flow_det(simulate(cfg, divergence=True))
    assert np.allclose(dets, 1.0, atol=1e-14)


def test_backward_flow_det_is_liouville_on_the_forward_path():
    drift = radial_drift(0.5, 2, 0.1)
    cfg = EnsembleConfig(drift, (0.0, [0.3, 0.0]), 0.1, 0.005, 200, 31, store_stride=1)
    ens = simulate(cfg, divergence=True)
    div_int = np.zeros(cfg.paths)
    for k in range(cfg.n_steps):
        div_int += drift.divergence(ens.times[k], ens.states[:, k]) * cfg.dt
    assert np.array_equal(backward_flow_det(ens), np.exp(-div_int))


def test_jacobian_semigroup_steps_once(monkeypatch):
    counts = {}
    normals = sde.step_normals

    def counted(key, fn):
        def wrapper(*a):
            counts[key] += 1
            return fn(*a)
        return wrapper

    monkeypatch.setattr(sde, "step_normals", counted("normals", normals))
    g = GridSpec(2, 4.0, 32, 0.0, 0.25, 4)
    # n_steps = 10: no step is drawn a second time, and each takes b and div b
    # from one kernel call
    for drift in (radial_drift(0.5, 2, 0.1), lattice_drift(1.0, 1.5, 2, eps=0.2)):
        drift.fn = counted("kernel", drift.fn)
        counts.update(normals=0, kernel=0)
        jacobian_semigroup(drift, lambda X: np.exp(-np.sum(X**2, axis=1)), g,
                           0.0, 0.1, dt=0.01, paths=400, seed=32)
        assert counts == {"normals": 10, "kernel": 10}


def test_simulate_reserves_the_div_integral():
    cfg = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.1, 0.01, 200, 35)
    with pytest.raises(ValueError, match="divergence=True"):
        simulate(cfg, integrands={"div": BROWNIAN.divergence})


# sha256 of jacobian_semigroup's report for lattice_drift(1.0, 1.5, 2, eps=0.2)
# on 400 paths and 10 steps: (lhs, se, rhs, constant, det_mean, det_se) as
# float64.  A change to this digest is a change to the lattice transport's bits.
LATTICE_JACOBIAN_GOLDEN = "130f19c2cd686a361ba9e453fcf4cf58bed3b501eaaafbd4b14544e18ae2289f"


def test_lattice_jacobian_golden_digest():
    rep = jacobian_semigroup(lattice_drift(1.0, 1.5, 2, eps=0.2),
                             lambda X: np.exp(-np.sum(X**2, axis=1)),
                             GridSpec(2, 4.0, 32, 0.0, 0.25, 4), 0.0, 0.1,
                             dt=0.01, paths=400, seed=3)
    assert not rep.meta["divergence_free"]
    vals = np.array([rep.lhs, rep.se, rep.rhs, rep.constant,
                     rep.meta["det_mean"], rep.meta["det_se"]])
    assert hashlib.sha256(vals.tobytes()).hexdigest() == LATTICE_JACOBIAN_GOLDEN


def test_jacobian_determinant_needs_the_divergence():
    cfg = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.1, 0.01, 200, 33)
    with pytest.raises(ValueError, match="'div'"):
        backward_flow_det(simulate(cfg))


def test_ensemble_save_load_roundtrip(tmp_path):
    cfg = EnsembleConfig(OU1, (0.0, [1.0]), 0.5, 0.01, 200, 30, store_stride=10)
    ens = simulate(cfg)
    path = tmp_path / "ens.sden"
    save_ensemble(ens, path)
    meta, times, states = load_ensemble_arrays(path)
    assert meta["seed"] == 30 and meta["paths"] == 200
    assert np.array_equal(times, ens.times)
    assert np.array_equal(states, ens.states)


# ---------------------------------------------------------------------------
# the coupled pair: a dt chain and a dt/2 chain on one Brownian path, kept
# here as a hand-written two-chain loop that simulate must match bit for bit


def _coupled_reference(config, integrands):
    """Every state and running sum of both chains, coarse (K + 1 columns) and fine (2K + 1).

    Fine step j takes dt/2 and adds diffusion * sqrt(dt/2) * step_normals(seed, j);
    coarse step k takes dt and adds fine increments 2k and 2k+1, one after the other.
    Each step's integrands read the b of that step.
    """
    s, _ = config.start
    d, dt, h = config.drift.dim, config.dt, config.dt / 2
    xc = _start_array(config)
    xf = xc.copy()
    coarse, fine = [xc], [xf]
    csums = {name: [np.zeros(config.paths)] for name in integrands}
    fsums = {name: [np.zeros(config.paths)] for name in integrands}
    for k in range(config.n_steps):
        w = [config.diffusion * np.sqrt(h) * step_normals(config.seed, j, config.paths, d)
             for j in (2 * k, 2 * k + 1)]
        for j in (2 * k, 2 * k + 1):
            t = s + j * h
            b = config.drift(t, xf)
            for name, f in integrands.items():
                fsums[name].append(fsums[name][-1] + f(t, xf, b) * h)
            xf = xf + b * h + w[j - 2 * k]
            fine.append(xf)
        t = s + k * dt
        b = config.drift(t, xc)
        for name, f in integrands.items():
            csums[name].append(csums[name][-1] + f(t, xc, b) * dt)
        xc = xc + b * dt + w[0] + w[1]
        coarse.append(xc)
    stack = lambda cols: np.stack(cols, axis=1)
    return (stack(coarse), stack(fine),
            {name: stack(cols) for name, cols in csums.items()},
            {name: stack(cols) for name, cols in fsums.items()})


def _martingale_reference(drift, start, probe, t0, t1, G, dt, paths, seed):
    """martingale_defect's (defect, se) at dt and at dt/2, read off the reference pair."""
    lf = lambda t, X, b: probe.lap(X) + np.sum(b * probe.grad(X), axis=1)
    cfg = EnsembleConfig(drift, (0.0, start), t1, dt, paths, seed)
    coarse, fine, csums, fsums = _coupled_reference(cfg, {"Lf": lf})
    K = cfg.n_steps
    k0 = next((k for k in range(K) if abs(k * dt - t0) < dt / 2), K)
    levels = []
    for states, lf_sums, i0 in ((coarse, csums["Lf"], k0), (fine, fsums["Lf"], 2 * k0)):
        f0 = probe.f(states[:, 0])
        m_t0 = probe.f(states[:, i0]) - f0 - lf_sums[:, i0]
        m_t1 = probe.f(states[:, -1]) - f0 - lf_sums[:, -1]
        g_val = G(k0 * dt, states[:, i0]) if G is not None else np.ones(paths)
        levels.append(batch_stats((m_t1 - m_t0) * g_val))
    return levels


_BUMP = ProbeFunction(
    f=lambda X: np.exp(-np.sum(X**2, axis=1)),
    grad=lambda X: -2 * X * np.exp(-np.sum(X**2, axis=1))[:, None],
    lap=lambda X: (4 * np.sum(X**2, axis=1) - 2 * X.shape[1]) * np.exp(-np.sum(X**2, axis=1)),
)


@pytest.mark.parametrize("t0, t1, dt, with_G", [
    (0.0, 0.3, 0.01, False),  # t0 = s: M_t0 is exactly zero
    (0.1234, 0.4, 0.01, False),  # off the step grid
    (0.2, 0.6, 0.08, False),  # tie: |0.24 - 0.2| < 0.04 first at k = 3, round() gives 2
    (0.2, 0.6, 0.04, False),  # criterion 11's window and dt
    (0.1, 0.4, 0.01, True),
])
def test_martingale_defect_matches_reference_loop(t0, t1, dt, with_G):
    drift = linear_drift(1.0, 2).mollified(1.0)
    G = (lambda t, X: np.tanh(X[:, 0]) + t) if with_G else None
    rep = martingale_defect(drift, [0.5, 0.0], _BUMP, t0, t1, G=G, dt=dt, paths=400, seed=31)
    (defect, se), (fine, _) = _martingale_reference(drift, [0.5, 0.0], _BUMP, t0, t1, G, dt,
                                                    400, 31)
    assert (rep.lhs, rep.se) == (defect, se)
    assert rep.constant == 2 * abs(defect - fine) / dt + 1.0


def test_martingale_constant_exact_without_drift():
    # b = 0 and Lf = 0: the two chains agree to the bit, so the bias constant is its floor
    probe = ProbeFunction(lambda X: X[:, 0], lambda X: np.ones_like(X), lambda X: np.zeros(len(X)))
    rep = martingale_defect(zero_drift(1).mollified(1.0), [0.5], probe, 0.2, 0.6,
                            dt=0.04, paths=4000, seed=40)
    assert rep.constant == 1.0


@pytest.mark.parametrize("drift, start, horizon, dt", [
    (OU1, [1.0], 0.5, 2.0**-6),
    (radial_drift(0.5, 2, 0.1), [0.5, 0.0], 0.3, 0.01),
    (radial_drift(0.5, 2, 0.1), [0.5, 0.0], 0.3, 0.04),  # horizon off the dt/2 grid
])
def test_coupled_simulate_matches_reference_loop(drift, start, horizon, dt):
    cfg = EnsembleConfig(drift, (0.0, start), horizon, dt, 300, 33)
    integrands = {"g": lambda t, X, b: np.cos(X[:, 0]) + t + b[:, 0]}
    pair = simulate(cfg, integrands=integrands, coupled=True)
    coarse, fine, csums, fsums = _coupled_reference(cfg, integrands)
    # store_stride 1: every coarse step, so every other fine step
    assert np.array_equal(pair.states, coarse)
    assert np.array_equal(pair.integrals["g"], csums["g"])
    assert np.array_equal(pair.fine.states, fine[:, ::2])
    assert np.array_equal(pair.fine.integrals["g"], fsums["g"][:, ::2])
    assert np.array_equal(pair.fine.times, pair.times)


@pytest.mark.parametrize("stride", [1, 3])
def test_coupled_fine_chain_is_the_half_step_run(stride):
    # horizon 0.3 is 7.5 steps of 0.04: both chains run K = 8 steps of the coarse grid
    cfg = EnsembleConfig(radial_drift(0.5, 2, 0.1), (0.0, [0.5, 0.0]), 0.3, 0.04, 300, 34,
                         store_stride=stride)
    integrands = {"g": lambda t, X, b: np.cos(X[:, 0]) + t + b[:, 0]}
    pair = simulate(cfg, integrands=integrands, coupled=True, divergence=True)
    half = simulate(replace(cfg, dt=cfg.dt / 2, horizon=cfg.n_steps * cfg.dt,
                            store_stride=2 * stride), integrands=integrands, divergence=True)
    assert np.array_equal(pair.fine.times, pair.times)
    assert np.array_equal(pair.fine.times, half.times)
    assert np.array_equal(pair.fine.states, half.states)
    assert pair.fine.integrals.keys() == half.integrals.keys() == {"g", "div"}
    for name in half.integrals:
        assert np.array_equal(pair.fine.integrals[name], half.integrals[name])


def test_coupled_run_draws_each_fine_key_once(monkeypatch):
    keys = []
    draw = sde.step_normals
    monkeypatch.setattr(sde, "step_normals",
                        lambda seed, step, *shape: keys.append((seed, step)) or draw(seed, step, *shape))
    cfg = EnsembleConfig(OU1, (0.0, [1.0]), 0.5, 0.05, 200, 35)
    simulate(cfg, coupled=True)
    assert keys == [(35, j) for j in range(2 * cfg.n_steps)]
    keys.clear()
    simulate(cfg)
    assert keys == [(35, k) for k in range(cfg.n_steps)]


def test_simulate_stores_integrals_with_states():
    # 10 steps at stride 4: the start, steps 4 and 8, and the end
    cfg = EnsembleConfig(OU1, (0.0, [1.0]), 0.1, 0.01, 200, 32, store_stride=4)
    ens = simulate(cfg, integrands={"one": lambda t, X, b: np.ones(len(X))})
    np.testing.assert_allclose(ens.times, [0.0, 0.04, 0.08, 0.1], rtol=1e-12)
    sums = ens.integrals["one"]
    assert sums.shape == (200, len(ens.times))
    assert np.array_equal(sums[:, 0], np.zeros(200))
    np.testing.assert_allclose(sums[:, 1:], [[0.04, 0.08, 0.1]] * 200, rtol=1e-12)


def test_state_at_accepts_only_stored_times():
    cfg = EnsembleConfig(OU1, (0.0, [1.0]), 0.5, 0.01, 100, 34, store_stride=10)
    ens = simulate(cfg)
    assert np.array_equal(ens.state_at(0.1), ens.states[:, 1])
    assert np.array_equal(ens.state_at(0.5), ens.final_states)
    with pytest.raises(ValueError, match="not stored"):
        ens.state_at(0.14)
    # one stride over the whole horizon stores the start and the end only
    ens = simulate(EnsembleConfig(OU1, (0.0, [1.0]), 1.0, 0.01, 100, 34, store_stride=100))
    with pytest.raises(ValueError, match="not stored"):
        ens.state_at(0.3)


def test_ensemble_config_rejects_stride_below_one():
    with pytest.raises(ValueError, match="store_stride"):
        EnsembleConfig(OU1, (0.0, [1.0]), 0.1, 0.01, 100, 35, store_stride=0)


def test_ensemble_config_rejects_a_horizon_of_no_step():
    # (horizon - s) / dt = 0.4 rounds to zero steps
    with pytest.raises(ValueError, match="no step"):
        EnsembleConfig(OU1, (0.0, [1.0]), 0.004, 0.01, 100, 36)


# ---------------------------------------------------------------------------
# block noise: rows cut into near-equal blocks keyed by (seed, step, block)

# sha256 of step_normals(1, 0, 100_000, 3): four 25 000-row blocks.  A
# change to this digest is a change to every large ensemble's noise.
STEP_NORMALS_GOLDEN = "b4921879a82d608932f00c3a9ff5c7a0f58528d53470a3cfcb072c9717f65a5b"


def _philox_block(seed, step, block, rows, dim):
    bits = np.random.Philox(key=[seed, step], counter=[0, 0, 0, block])
    return np.random.Generator(bits).standard_normal((rows, dim))


def _serial_blocks_3_4(dim):
    """step_normals(3, 4, 1000, dim) at BLOCK_ROWS = 128: 8 equal blocks of 125, not 7 x 128 + 104."""
    return np.concatenate([_philox_block(3, 4, b, 125, dim) for b in range(8)])


@pytest.fixture
def noise_pool(monkeypatch):
    """``use(n)`` runs simulate's row blocks on a fresh pool of n threads."""
    pools = []

    def use(workers):
        pools.append(concurrent.futures.ThreadPoolExecutor(workers))
        monkeypatch.setattr(sde, "_POOL", pools[-1])

    yield use
    for pool in pools:
        pool.shutdown()


@pytest.mark.parametrize("paths", [100, 1000, sde.BLOCK_ROWS])
def test_block_noise_single_block_is_unsplit_stream(paths):
    unsplit = np.random.Generator(np.random.Philox(key=[5, 17])).standard_normal((paths, 3))
    assert np.array_equal(step_normals(5, 17, paths, 3), unsplit)


def test_block_noise_first_block_is_unsplit_prefix():
    paths = sde.BLOCK_ROWS + 2  # two blocks of BLOCK_ROWS / 2 + 1 rows
    unsplit = np.random.Generator(np.random.Philox(key=[5, 17])).standard_normal((paths, 3))
    z = step_normals(5, 17, paths, 3)
    half = paths // 2
    assert np.array_equal(z[:half], unsplit[:half])
    assert np.array_equal(z[half:], _philox_block(5, 17, 1, half, 3))


@pytest.mark.parametrize("dim", [1, 2])
def test_block_noise_matches_serial_blocks(monkeypatch, dim):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    assert np.array_equal(step_normals(3, 4, 1000, dim), _serial_blocks_3_4(dim))


class _LastFirstPool:
    """Delays the k-th submitted block by (8 - k) ticks, so 8 blocks start last first."""

    def __init__(self, pool):
        self.pool = pool
        self.submitted = 0

    def submit(self, fn, *args):
        delay = 0.005 * (8 - self.submitted)
        self.submitted += 1
        return self.pool.submit(lambda: (time.sleep(delay), fn(*args))[1])


def test_block_noise_does_not_depend_on_start_order(monkeypatch, noise_pool):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    noise_pool(8)
    monkeypatch.setattr(sde, "_POOL", _LastFirstPool(sde._POOL))
    # 1003 paths: simulate's 8 row blocks of 125 or 126 rows, started last first
    cfg = EnsembleConfig(radial_drift(0.5, 2, 0.1), (0.0, [0.5, 0.0]), 0.03, 0.01, 1003, 47)
    states, _ = _serial_reference(cfg, {}, False)
    assert np.array_equal(simulate(cfg).states, states)


def test_block_noise_results_do_not_depend_on_workers(monkeypatch, noise_pool):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    drift = radial_drift(0.5, 2, 0.1)
    cfg = EnsembleConfig(drift, (0.0, [0.5, 0.0]), 0.1, 0.01, 1000, 8, store_stride=5)
    out = []
    for workers in (1, 2):
        noise_pool(workers)
        pair = simulate(cfg, coupled=True)
        out.append((simulate(cfg).states, pair.states, pair.fine.states))
    assert all(np.array_equal(a, b) for a, b in zip(*out))


def test_block_noise_golden_digest():
    z = step_normals(1, 0, 100_000, 3)
    assert z.shape == (100_000, 3)
    assert hashlib.sha256(z.tobytes()).hexdigest() == STEP_NORMALS_GOLDEN


def test_block_noise_pool_reset_in_forked_child(monkeypatch):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    # 1003 paths: 8 row blocks, each a task on the pool
    cfg = EnsembleConfig(radial_drift(0.5, 2, 0.1), (0.0, [0.5, 0.0]), 0.03, 0.01, 1003, 48)
    expected = simulate(cfg).states  # the parent's pool now has threads
    recv, send = multiprocessing.Pipe(duplex=False)

    def child():
        send.send(simulate(cfg).states)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    got = recv.recv() if recv.poll(30) else None
    proc.join(timeout=30)
    if proc.is_alive():
        proc.kill()
        proc.join()
    assert got is not None, "forked child never drew its noise"
    assert np.array_equal(got, expected)
    assert proc.exitcode == 0


# ---------------------------------------------------------------------------
# block steps: above BLOCK_ROWS paths each row block is one pool task through
# every step, and must match steps over all rows at once bit for bit


def _serial_reference(config, integrands, divergence):
    """Every state and running sum of one chain (K + 1 columns), each step over all rows."""
    s, _ = config.start
    d, dt = config.drift.dim, config.dt
    x = _start_array(config)
    states = [x]
    names = [*integrands, "div"] if divergence else list(integrands)
    sums = {name: [np.zeros(config.paths)] for name in names}
    for k in range(config.n_steps):
        t = s + k * dt
        b = config.drift(t, x)
        for name, f in integrands.items():
            sums[name].append(sums[name][-1] + f(t, x, b) * dt)
        if divergence:
            sums["div"].append(sums["div"][-1] + config.drift.divergence(t, x) * dt)
        z = step_normals(config.seed, k, config.paths, d)
        x = x + b * dt + z * (config.diffusion * np.sqrt(dt))
        states.append(x)
    return (np.stack(states, axis=1),
            {name: np.stack(cols, axis=1) for name, cols in sums.items()})


_COS = {"g": lambda t, X, b: np.cos(X[:, 0]) + t + b[:, 0]}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("drift, start, integrands, divergence", [
    (radial_drift(0.5, 2, 0.1), [0.5, 0.0], _COS, False),
    (lattice_drift(1.0, 1.5, 2, eps=0.2), [0.3, 0.1], {}, True),
    (radial_drift(0.5, 3, 0.1), [0.5, 0.0, 0.0], {}, True),
    (linear_drift(1.0, 2).mollified(1.0), [1.0, 0.0], {}, False),
    (constant_drift([1.0, -0.5]), [0.0, 0.0], {}, False),
    (zero_drift(2), [0.0, 0.0], _COS, False),
], ids=["radial", "lattice-div", "radial-div", "linear", "constant", "zero"])
def test_block_step_matches_serial_loop(monkeypatch, noise_pool, workers, drift, start,
                                        integrands, divergence):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    noise_pool(workers)
    # 1003 paths: 8 blocks of 125 or 126 rows; 5 steps at stride 2 store steps 0, 2, 4, 5
    cfg = EnsembleConfig(drift, (0.0, start), 0.05, 0.01, 1003, 41, store_stride=2)
    ens = simulate(cfg, integrands=integrands, divergence=divergence)
    states, sums = _serial_reference(cfg, integrands, divergence)
    cols = [0, 2, 4, 5]
    assert np.array_equal(ens.states, states[:, cols])
    assert ens.integrals.keys() == sums.keys()
    for name in sums:
        assert np.array_equal(ens.integrals[name], sums[name][:, cols])


@pytest.mark.parametrize("workers", [1, 2])
def test_block_step_coupled_matches_reference_loop(monkeypatch, noise_pool, workers):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    noise_pool(workers)
    cfg = EnsembleConfig(radial_drift(0.5, 2, 0.1), (0.0, [0.5, 0.0]), 0.05, 0.01, 1003, 42)
    pair = simulate(cfg, integrands=_COS, coupled=True)
    coarse, fine, csums, fsums = _coupled_reference(cfg, _COS)
    assert np.array_equal(pair.states, coarse)
    assert np.array_equal(pair.integrals["g"], csums["g"])
    assert np.array_equal(pair.fine.states, fine[:, ::2])
    assert np.array_equal(pair.fine.integrals["g"], fsums["g"][:, ::2])


@pytest.mark.parametrize("divergence", [False, True])
def test_block_step_enters_no_traced_layer_on_a_pool_thread(monkeypatch, noise_pool, divergence):
    # a profiler keeps one span stack per thread: a drift or noise call made by
    # a pool task would be counted on top of the simulate span that waits for it
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    noise_pool(2)
    threads = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            threads.append(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for name in ("__call__", "divergence", "value_and_divergence"):
        monkeypatch.setattr(DriftField, name, recorded(getattr(DriftField, name)))
    monkeypatch.setattr(sde, "step_normals", recorded(sde.step_normals))
    for drift in (radial_drift(0.5, 2, 0.1), lattice_drift(1.0, 1.5, 2, eps=0.2)):
        cfg = EnsembleConfig(drift, (0.0, [0.5, 0.0]), 0.05, 0.01, 1003, 43)
        simulate(cfg, divergence=divergence)
        simulate(cfg, coupled=True, divergence=divergence)
        # a verifier's integrand on the rows of a pool task: Lf reads the task's own b
        martingale_defect(drift, [0.5, 0.0], _BUMP, 0.02, 0.05, dt=0.01, paths=1003, seed=43)
    assert set(threads) <= {threading.get_ident()}


def test_block_step_interrupted_caller_stops_the_blocks(monkeypatch, noise_pool):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    noise_pool(2)
    calls, marching = [], threading.Event()

    class Interrupted(Exception):
        pass

    def interrupted_wait(futures):
        marching.wait(10)
        raise Interrupted

    def count(t, X, b):
        calls.append(t)
        marching.set()
        return np.zeros(len(X))

    # 8 blocks of 10 000 steps; the caller leaves while they march
    cfg = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 10.0, 0.001, 1003, 45)
    with monkeypatch.context() as m, pytest.raises(Interrupted):
        m.setattr(concurrent.futures, "wait", interrupted_wait)
        simulate(cfg, integrands={"n": count})
    sde._POOL.shutdown(wait=True)
    assert 0 < len(calls) < cfg.n_steps


def _failing_rows_config(paths, horizon, failures):
    """Brownian paths whose drift turns infinite on rows r * paths // 8 from step k, for (r, k)."""
    x0 = np.zeros((paths, 2))
    for r, k in failures:
        x0[r * paths // 8, 0] = 100.0 * (r + 1)

    def fn(t, X, div):
        b = np.zeros_like(X)
        for r, k in failures:
            b[(X[:, 0] > 100.0 * (r + 1) - 50) & (X[:, 0] < 100.0 * (r + 1) + 50)
              & (t > (k - 0.5) * 0.01)] = np.inf
        return b, (np.zeros(len(X)) if div else None)

    return EnsembleConfig(DriftField(2, fn, mollification_level=1.0), (0.0, x0), horizon, 0.01,
                          paths, 46)


@pytest.mark.parametrize("paths", [100, 1003])  # one block, and 8 blocks
def test_block_step_names_the_earliest_non_finite_step(monkeypatch, noise_pool, paths):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    noise_pool(2)
    # row 3/8 (block 3 of 8) fails at step 5, row 6/8 (block 6) at step 2
    cfg = _failing_rows_config(paths, 0.1, [(3, 5), (6, 2)])
    with pytest.raises(FloatingPointError, match="at step 2$"):
        simulate(cfg)


@pytest.mark.parametrize("failure", ["non-finite", "raises"])
def test_block_step_failure_stops_the_other_blocks(monkeypatch, noise_pool, failure):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    noise_pool(2)
    calls = []

    def count(t, X, b):
        calls.append(t)
        if failure == "raises" and np.any(X[:, 0] > 50):
            raise ValueError("integrand failed")
        return np.zeros(len(X))

    # block 0 fails at its first step; the other 7 blocks have 10 000 steps to go
    cfg = _failing_rows_config(1003, 100.0, [(0, 0)])
    with pytest.raises(FloatingPointError if failure == "non-finite" else ValueError):
        simulate(cfg, integrands={"n": count})
    sde._POOL.shutdown(wait=True)
    assert len(calls) < cfg.n_steps


@pytest.mark.parametrize("paths", [100, 1003])  # one block, and 8 blocks of 125 or 126 rows
@pytest.mark.parametrize("stride, stored", [
    (3, [0, 3, 6, 7]),  # K = 7 steps: 7 % 3 != 0 adds the end
    (7, [0, 7]),
    (10, [0, 7]),  # a stride past the horizon stores the start and the end
    (1, list(range(8))),
])
@pytest.mark.parametrize("integrands", [{}, {"one": lambda t, X, b: np.ones(len(X))}])
def test_block_step_stored_columns_keep_their_layout(monkeypatch, noise_pool, paths, stride,
                                                     stored, integrands):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    noise_pool(2)
    cfg = EnsembleConfig(radial_drift(0.5, 2, 0.1), (0.0, [0.5, 0.0]), 0.07, 0.01, paths, 44)
    every = simulate(cfg, integrands=integrands)
    ens = simulate(replace(cfg, store_stride=stride), integrands=integrands)
    np.testing.assert_allclose(ens.times, 0.01 * np.array(stored), rtol=1e-12, atol=1e-15)
    assert np.array_equal(ens.times, every.times[stored])
    assert ens.states.shape == (paths, len(stored), 2) and ens.states.flags.c_contiguous
    assert np.array_equal(ens.states, every.states[:, stored])
    assert np.array_equal(ens.states[:, 0], _start_array(cfg))
    for name, sums in ens.integrals.items():
        assert sums.shape == (paths, len(stored))
        assert all(sums[:, j].flags.c_contiguous for j in range(len(stored)))
        assert np.array_equal(sums[:, 0], np.zeros(paths))
        assert np.array_equal(sums, every.integrals[name][:, stored])
    if stride > 1:
        with pytest.raises(ValueError, match="not stored"):
            ens.state_at(0.01)
