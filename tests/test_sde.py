import concurrent.futures
import hashlib
import multiprocessing
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.stats

from sdlab import sde
from sdlab.drifts import linear_drift, load_external, radial_drift, zero_drift
from sdlab.grids import GridSpec, SpaceTimeField, write_field
from sdlab.pde import PDEProblem, build_operator, solve
from sdlab.sde import (
    EnsembleConfig,
    ProbeFunction,
    _start_array,
    backward_flow_det,
    batch_stats,
    density_estimate,
    feynman_kac_check,
    jacobian_semigroup,
    khasminskii_verify,
    krylov_verify,
    load_ensemble_arrays,
    markov_check,
    martingale_defect,
    refinement_gap,
    save_ensemble,
    simulate,
    step_normals,
    strong_order_fit,
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
    rep = strong_order_fit(OU1, (0.0, [1.0]), 0.5,
                           [2.0**-k for k in range(6, 11)], paths=1000, seed=4)
    assert rep["order"] >= 0.45  # at least strong order 1/2
    # coupled coarse/fine chains coincide exactly when b = 0
    gap0 = refinement_gap(
        EnsembleConfig(zero_drift(1).mollified(1.0), (0.0, [0.0]), 0.5, 2.0**-6, 200, 5)
    )
    assert gap0 < 1e-12


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


def test_khasminskii_closed_forms():
    rep = khasminskii_verify(zero_drift(1).mollified(1.0), [0.0],
                             lambda t, X: np.zeros(len(X)), 3.0, dt=0.01, paths=500, seed=10)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    rep = khasminskii_verify(zero_drift(1).mollified(1.0), [0.0],
                             lambda t, X: np.full(len(X), 0.7), 2.0, dt=0.01, paths=500, seed=11)
    assert rep.lhs == pytest.approx(np.exp(1.4), rel=1e-12)
    assert rep.passed


def test_khasminskii_bump_splitting_oracle():
    # d=1, b=0, f a smooth bump, lam = 2: Lie splitting of the backward
    # equation with potential lam*f gives E exp(lam int f) at the start
    lam, dt, n = 2.0, 0.005, 128
    g = GridSpec(1, 16.0, n, 0.0, 1.0, int(round(1.0 / dt)))
    fx = np.exp(-(g.axis**2))
    A = build_operator(g, np.zeros((n, 1)))
    M = sp.identity(n, format="csc") - dt * A.tocsc()
    lu = spla.splu(M)
    v = np.ones(n)
    for _ in range(g.time_steps):
        v = lu.solve(v * np.exp(lam * fx * dt))
    oracle = v[np.argmin(np.abs(g.axis))]  # start at x = 0
    rep = khasminskii_verify(zero_drift(1).mollified(1.0), [0.0],
                             lambda t, X: np.exp(-X[:, 0] ** 2), lam,
                             dt=dt, paths=8000, seed=12)
    assert abs(rep.lhs - oracle) <= 3 * rep.se + 0.05 * oracle


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
        ks = de.marginal_ks(ens.final_states[:, ax],
                            lambda x: scipy.stats.norm.cdf(x, 0.0, 1.0))
        assert ks < crit


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


def test_markov_restart_consistency():
    rep = markov_check(BROWNIAN, [0.0, 0.0], 0.2, 0.4, lambda X: np.cos(X[:, 0]),
                       dt=0.005, paths=4000, seed=27)
    assert rep.passed
    rep = markov_check(OU1, [1.0], 0.3, 0.6, lambda X: X[:, 0],
                       dt=0.005, paths=4000, seed=28)
    assert rep.passed


def test_markov_radial_across_seeds():
    ok = 0
    for seed in range(5):
        rep = markov_check(radial_drift(0.5, 2, 0.1), [0.5, 0.0], 0.25, 0.5,
                           lambda X: np.exp(-np.sum(X**2, axis=1)),
                           dt=0.005, paths=4000, seed=100 + seed)
        ok += rep.passed
    assert ok >= 4  # 3-sigma criterion admits rare statistical misses


def test_backward_flow_det_pure_brownian_exact():
    cfg = EnsembleConfig(BROWNIAN, (0.0, [0.0, 0.0]), 0.25, 0.01, 500, 29,
                         store_stride=25)
    dets = backward_flow_det(simulate(cfg))
    assert np.allclose(dets, 1.0, atol=1e-14)


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
# martingale_defect and refinement_gap step through simulate; the loops
# they used to hand-write are kept here as bit-exact references


def _martingale_run_reference(drift, start, probe, t0, t1, G, s, dt_, paths, seed):
    cfg = EnsembleConfig(drift, (s, start), t1, dt_, paths, seed, store_stride=1)
    d = drift.dim
    x = _start_array(cfg)
    gen_int = np.zeros(cfg.paths)
    m_t0 = None
    g_val = None
    f0 = probe.f(x)
    t = s
    for k in range(cfg.n_steps):
        if abs(t - t0) < dt_ / 2 and m_t0 is None:
            m_t0 = probe.f(x) - f0 - gen_int
            g_val = G(t, x) if G is not None else np.ones(cfg.paths)
        b = cfg.drift(t, x)
        gen_int += (probe.lap(x) + np.sum(b * probe.grad(x), axis=1)) * dt_
        x = x + b * dt_ + cfg.diffusion * np.sqrt(dt_) * step_normals(cfg.seed, k, cfg.paths, d)
        t = s + (k + 1) * dt_
    if m_t0 is None:
        m_t0 = probe.f(x) - f0 - gen_int
        g_val = G(t, x) if G is not None else np.ones(cfg.paths)
    m_t1 = probe.f(x) - f0 - gen_int
    return batch_stats((m_t1 - m_t0) * g_val)


def _refinement_gap_reference(config):
    s, _ = config.start
    d = config.drift.dim
    K = config.n_steps
    dt = config.dt
    xc = _start_array(config)
    xf = xc.copy()
    for k in range(K):
        z1 = step_normals(config.seed, 2 * k, config.paths, d)
        z2 = step_normals(config.seed, 2 * k + 1, config.paths, d)
        t = s + k * dt
        xf = xf + config.drift(t, xf) * (dt / 2) + config.diffusion * np.sqrt(dt / 2) * z1
        xf = xf + config.drift(t + dt / 2, xf) * (dt / 2) + config.diffusion * np.sqrt(dt / 2) * z2
        xc = xc + config.drift(t, xc) * dt + config.diffusion * np.sqrt(dt / 2) * (z1 + z2)
    return float(np.sqrt(np.sum((xc - xf) ** 2, axis=1)).mean())


_BUMP = ProbeFunction(
    f=lambda X: np.exp(-np.sum(X**2, axis=1)),
    grad=lambda X: -2 * X * np.exp(-np.sum(X**2, axis=1))[:, None],
    lap=lambda X: (4 * np.sum(X**2, axis=1) - 2 * X.shape[1]) * np.exp(-np.sum(X**2, axis=1)),
)


@pytest.mark.parametrize("t0, t1, dt, with_G", [
    (0.0, 0.3, 0.01, False),  # t0 = s: M_t0 is exactly zero
    (0.1234, 0.4, 0.01, False),  # off the step grid
    (0.2, 0.6, 0.08, False),  # tie: |0.24 - 0.2| < 0.04 first at k = 3, round() gives 2
    (0.2, 0.6, 0.04, False),  # the same tie reached through the run at 2 dt
    (0.1, 0.4, 0.01, True),
])
def test_martingale_defect_matches_reference_loop(t0, t1, dt, with_G):
    drift = linear_drift(1.0, 2).mollified(1.0)
    G = (lambda t, X: np.tanh(X[:, 0]) + t) if with_G else None
    rep = martingale_defect(drift, [0.5, 0.0], _BUMP, t0, t1, G=G, dt=dt, paths=400, seed=31)
    defect, se = _martingale_run_reference(drift, [0.5, 0.0], _BUMP, t0, t1, G, 0.0, dt, 400, 31)
    d2, _ = _martingale_run_reference(drift, [0.5, 0.0], _BUMP, t0, t1, G, 0.0, 2 * dt, 400, 31)
    assert (rep.lhs, rep.se) == (defect, se)
    assert rep.constant == abs(d2 - defect) / dt + 1.0


@pytest.mark.parametrize("drift, start, horizon, dt", [
    (OU1, [1.0], 0.5, 2.0**-6),
    (radial_drift(0.5, 2, 0.1), [0.5, 0.0], 0.3, 0.01),
    (radial_drift(0.5, 2, 0.1), [0.5, 0.0], 0.3, 0.04),  # horizon off the dt/2 grid
])
def test_refinement_gap_matches_reference_loop(drift, start, horizon, dt):
    cfg = EnsembleConfig(drift, (0.0, start), horizon, dt, 300, 33)
    assert refinement_gap(cfg) == _refinement_gap_reference(cfg)


def test_simulate_mark_at_start_snapshots_zero():
    cfg = EnsembleConfig(OU1, (0.0, [1.0]), 0.1, 0.01, 200, 32)
    ens = simulate(cfg, integrands={"one": lambda t, X: np.ones(len(X))},
                   integral_marks=[0.0, 0.05, 0.1])
    snaps = ens.integrals["one@marks"]
    assert np.array_equal(snaps[0], np.zeros(200))
    np.testing.assert_allclose(snaps[1:], [[0.05] * 200, [0.1] * 200], rtol=1e-12)


# ---------------------------------------------------------------------------
# block noise: rows cut into near-equal blocks keyed by (seed, step, block)

# sha256 of step_normals(1, 0, 100_000, 3): four 25 000-row blocks.  A
# change to this digest is a change to every large ensemble's noise.
STEP_NORMALS_GOLDEN = "b4921879a82d608932f00c3a9ff5c7a0f58528d53470a3cfcb072c9717f65a5b"


def _philox_block(seed, step, block, rows, dim):
    bits = np.random.Philox(key=[seed, step], counter=[0, 0, 0, block])
    return np.random.Generator(bits).standard_normal((rows, dim))


def _serial_blocks_3_4():
    """step_normals(3, 4, 1000, 2) at BLOCK_ROWS = 128: 8 equal blocks of 125, not 7 x 128 + 104."""
    return np.concatenate([_philox_block(3, 4, b, 125, 2) for b in range(8)])


@pytest.fixture
def noise_pool(monkeypatch):
    """``use(n)`` runs step_normals' blocks on a fresh pool of n threads."""
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


@pytest.mark.parametrize("workers", [1, 2])
def test_block_noise_matches_serial_blocks(monkeypatch, noise_pool, workers):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    noise_pool(workers)
    reference = _serial_blocks_3_4()
    for _ in range(20):  # a completion-order fault shows only on some runs
        assert np.array_equal(step_normals(3, 4, 1000, 2), reference)


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
    assert np.array_equal(step_normals(3, 4, 1000, 2), _serial_blocks_3_4())


def test_block_noise_results_do_not_depend_on_workers(monkeypatch, noise_pool):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    drift = radial_drift(0.5, 2, 0.1)
    cfg = EnsembleConfig(drift, (0.0, [0.5, 0.0]), 0.1, 0.01, 1000, 8, store_stride=5)
    out = []
    for workers in (1, 2):
        noise_pool(workers)
        out.append((simulate(cfg).states, refinement_gap(cfg)))
    assert np.array_equal(out[0][0], out[1][0])
    assert out[0][1] == out[1][1]


def test_block_noise_golden_digest():
    z = step_normals(1, 0, 100_000, 3)
    assert z.shape == (100_000, 3)
    assert hashlib.sha256(z.tobytes()).hexdigest() == STEP_NORMALS_GOLDEN


def test_block_noise_pool_reset_in_forked_child(monkeypatch):
    monkeypatch.setattr(sde, "BLOCK_ROWS", 128)
    expected = step_normals(3, 4, 1000, 2)  # the parent's pool now has threads
    recv, send = multiprocessing.Pipe(duplex=False)

    def child():
        send.send(step_normals(3, 4, 1000, 2))

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
