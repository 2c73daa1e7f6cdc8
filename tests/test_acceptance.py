"""Acceptance gate: eleven property-based criteria, one line of output each.

Each criterion prints exactly one ``[criterion NN] PASS/FAIL`` line (shown
with ``pytest -s`` or in captured output on failure) and asserts it.
"""

import time

import numpy as np
import pytest
import scipy.stats

from sdlab.degiorgi import (
    recursion_converges,
    run_iteration,
    sufficient_smallness,
    threshold_kappa,
)
from sdlab.drifts import (
    lattice_drift,
    linear_drift,
    load_external,
    radial_drift,
    zero_drift,
)
from sdlab.grids import GridSpec, SpaceTimeField, write_field
from sdlab.norms import (
    CutoffFamily,
    NormSpec,
    localized_norm,
    mixed_norm,
    mollify,
)
from sdlab.pde import (
    PDEProblem,
    max_principle_violations,
    solve,
    stability_sweep,
)
from sdlab.sde import (
    EnsembleConfig,
    ProbeFunction,
    batch_stats,
    feynman_kac_check,
    jacobian_semigroup,
    krylov_verify,
    martingale_defect,
    simulate,
)


def _report(num: int, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _bump_source(grid: GridSpec, width: float) -> SpaceTimeField:
    rho2 = sum(m**2 for m in grid.meshgrid())
    return SpaceTimeField(grid, np.tile(np.exp(-rho2 / width**2), (grid.nt,) + (1,) * grid.spatial_dim), 1)


def test_criterion_01_brownian_baseline():
    T, dt, M, d = 1.0, 1e-3, 10**5, 3
    cfg = EnsembleConfig(zero_drift(d).mollified(1.0), (0.0, [0.0] * d), T, dt, M, 42,
                         store_stride=1000)
    t_start = time.perf_counter()
    ens = simulate(cfg)
    elapsed = time.perf_counter() - t_start

    var_ok, ks_ok = True, True
    crit = 1.628 / np.sqrt(M)  # 1% Kolmogorov-Smirnov critical value
    details = []
    for ax in range(d):
        m, se = batch_stats(ens.final_states[:, ax] ** 2)
        var_ok &= abs(m - 2 * T) <= 3 * se
        ks = scipy.stats.kstest(ens.final_states[:, ax],
                                lambda x: scipy.stats.norm.cdf(x, 0.0, np.sqrt(2 * T))).statistic
        ks_ok &= ks < crit
        details.append(f"var={m:.4f} ks={ks:.4f}")
    _report(1, var_ok and ks_ok and elapsed < 120,
            f"{'; '.join(details)}; crit={crit:.4f}; runtime={elapsed:.1f}s")


def test_criterion_02_feynman_kac_duality():
    # b = 0 panel
    g0 = GridSpec(2, 8.0, 32, 0.0, 0.5, 100)
    b0 = zero_drift(2).mollified(1.0)
    f0 = _bump_source(g0, 1.0)
    sol0 = solve(PDEProblem(b0, f0, g0, direction="backward"))
    panel0 = [(s, x) for s in (0.0, 0.125, 0.25) for x in ([0.0, 0.0], [1.0, 0.0], [0.0, -1.0])]
    rep0 = feynman_kac_check(sol0, b0, lambda t, X: np.exp(-np.sum(X**2, axis=1)),
                             panel0, 0.5, dt=0.005, paths=4000, seed=200)

    # radial c = 0.5 mollified at eps = 0.1
    g1 = GridSpec(2, 4.0, 64, 0.0, 0.5, 100)
    b1 = radial_drift(0.5, 2, 0.1)
    f1 = _bump_source(g1, 0.5)
    sol1 = solve(PDEProblem(b1, f1, g1, direction="backward"))
    panel1 = [(s, x) for s in (0.0, 0.125, 0.25) for x in ([0.5, 0.0], [0.0, 0.5], [-0.5, 0.0])]
    rep1 = feynman_kac_check(sol1, b1, lambda t, X: np.exp(-np.sum(X**2, axis=1) / 0.25),
                             panel1, 0.5, dt=0.005, paths=4000, seed=201)

    # f identically one: both sides are T - s exactly
    ones = SpaceTimeField(g0, np.ones((g0.nt, 32, 32)), 1)
    sol_ones = solve(PDEProblem(b0, ones, g0, direction="backward"))
    rep_ones = feynman_kac_check(sol_ones, b0, lambda t, X: np.ones(len(X)),
                                 [(0.0, [0.0, 0.0]), (0.25, [1.0, 1.0])], 0.5,
                                 dt=0.005, paths=400, seed=202)
    exact_ok = rep_ones.lhs < 1e-10
    _report(2, rep0.passed and rep1.passed and exact_ok,
            f"b=0 gap={rep0.lhs:.2e}, radial gap={rep1.lhs:.2e}, f≡1 gap={rep_ones.lhs:.2e}")


def test_criterion_03_discrete_maximum_principle():
    cases = [
        (zero_drift(2).mollified(1.0), GridSpec(2, 8.0, 32, 0.0, 0.5, 50), 1.0),
        (radial_drift(0.5, 2, 0.1), GridSpec(2, 4.0, 64, 0.0, 0.5, 50), 0.5),
        (lattice_drift(1.0, 1.5, 2, eps=0.2), GridSpec(2, 4.0, 32, 0.0, 0.5, 50), 0.5),
        (linear_drift(1.0, 2).mollified(1.0), GridSpec(2, 8.0, 32, 0.0, 0.5, 50), 1.0),
    ]
    total = 0
    for drift, grid, width in cases:
        sol = solve(PDEProblem(drift, _bump_source(grid, width), grid, direction="backward"))
        total += max_principle_violations(sol)
    _report(3, total == 0, f"violations across {len(cases)} scenarios: {total}")


def test_criterion_04_global_maximum_estimate():
    eps_levels = [0.4, 0.2, 0.1, 0.05]

    def c_emp(n_points):
        grid = GridSpec(2, 4.0, n_points, 0.0, 0.5, 50)
        f = _bump_source(grid, 0.5)
        f_norm = mixed_norm(f, 4.0, 4.0)
        out = []
        for eps in eps_levels:
            sol = solve(PDEProblem(radial_drift(0.5, 2, eps), f, grid, direction="backward"))
            out.append(sol.sup_norm / f_norm)
        return np.array(out)

    c64, c128 = c_emp(64), c_emp(128)
    uniform_ok = c64.max() / c64.min() <= 1.5
    refine_ok = np.all(np.abs(c128 - c64) / c64 <= 0.10)
    _report(4, uniform_ok and refine_ok,
            f"C_emp(N=64)={np.round(c64, 4).tolist()}, "
            f"max/min={c64.max() / c64.min():.3f}, "
            f"refinement shift={np.max(np.abs(c128 - c64) / c64):.3%}")


def test_criterion_05_degiorgi_mechanism():
    rng = np.random.default_rng(5)
    lemma_ok = True
    for _ in range(1000):
        C0 = rng.uniform(0.5, 20.0)
        lam = rng.uniform(1.0, 5.0)
        eps = rng.uniform(0.05, 1.0)
        a_star = sufficient_smallness(C0, lam, eps)
        lemma_ok &= recursion_converges(C0, lam, eps, a_star)
        lemma_ok &= not recursion_converges(C0, lam, eps, 1.5 * a_star)

    grid = GridSpec(2, 6.0, 32, -4.5, 4.5, 60)
    sol = solve(PDEProblem(radial_drift(0.5, 2, 0.2), _bump_source(grid, 0.5), grid,
                           direction="backward"))
    exps = [NormSpec(0.0, 10.0, 10.0)] * 3
    thr = threshold_kappa(sol, exps)
    ladder_ok = thr["certified"] and not thr.get("floor", False)
    states, _ = run_iteration(sol, exps, thr["kappa"], 8)
    a = [s.a_n for s in states]
    dec_ok = all(a[i + 1] <= a[i] * (1 + 1e-12) for i in range(1, len(a) - 1))
    fit_ok = thr["fit"]["eps"] > 0
    bound_ok = np.isfinite(thr["sufficient_bound"]) and thr["kappa"] <= thr["sufficient_bound"]
    _report(5, lemma_ok and ladder_ok and dec_ok and fit_ok and bound_ok,
            f"lemma 1000 draws ok={lemma_ok}, kappa*={thr['kappa']:.3g} <= "
            f"bound={thr['sufficient_bound']:.3g}, fitted eps={thr['fit']['eps']:.3f}")


def test_criterion_06_jacobian_semigroup(tmp_path):
    g = GridSpec(2, 2.0, 32, 0.0, 0.5, 4)
    k = 2 * np.pi / 2.0
    vel = SpaceTimeField.from_vector_function(
        g, lambda t, x, y: [np.sin(k * x) * np.cos(k * y), -np.cos(k * x) * np.sin(k * y)]
    )
    path = tmp_path / "divfree.sdlf"
    write_field(path, vel)
    drift = load_external(path)
    f = lambda X: np.exp(-4 * np.sum(X**2, axis=1))
    rep_df = jacobian_semigroup(drift, f, g, 0.0, 0.25, dt=0.005, paths=4000, seed=600)
    df_ok = rep_df.meta["divergence_free"] and abs(rep_df.meta["det_mean"] - 1.0) < 1e-8 \
        and rep_df.passed

    g2 = GridSpec(2, 8.0, 32, 0.0, 0.5, 50)
    rep_ou = jacobian_semigroup(linear_drift(1.0, 2).mollified(1.0),
                                lambda X: np.exp(-np.sum(X**2, axis=1)),
                                g2, 0.0, 0.3, dt=0.005, paths=4000, seed=601)
    ou_ok = abs(rep_ou.meta["det_mean"] - np.exp(0.6)) / np.exp(0.6) < 1e-3 and rep_ou.passed
    _report(6, df_ok and ou_ok,
            f"div-free det={rep_df.meta['det_mean']:.6f} ratio={rep_df.constant:.4f}, "
            f"OU det={rep_ou.meta['det_mean']:.6f} vs e^0.6={np.exp(0.6):.6f}")


def test_criterion_07_krylov_scaling():
    b0 = zero_drift(2).mollified(1.0)
    rep1 = krylov_verify(b0, [[0.0, 0.0], [0.5, 0.5]], lambda t, X: np.ones(len(X)),
                         [0.05, 0.1, 0.2, 0.4], dt=0.01, paths=500, seed=700)
    theta_exact = abs(rep1.meta["theta"] - 1.0) < 1e-9

    # bump integrand, b = 0: closed-form Gaussian expectation per step
    w, dt = 1.0, 0.002
    deltas = [0.1, 0.2]
    rep2 = krylov_verify(b0, [[0.0, 0.0]],
                         lambda t, X: np.exp(-np.sum(X**2, axis=1) / w**2),
                         deltas, dt=dt, paths=20000, seed=701)
    oracle_ok = True
    for j, delta in enumerate(deltas):
        ts = np.arange(0, int(round(delta / dt))) * dt
        oracle = float(np.sum(w**2 / (w**2 + 4 * ts)) * dt)  # E f(X_t), X_t ~ N(0, 2tI)
        oracle_ok &= abs(rep2.meta["table"][0][j] - oracle) <= 3 * rep2.se

    starts = [[0.25, 0.0], [-0.25, 0.0], [0.0, 0.25], [0.0, -0.25]]
    rep3 = krylov_verify(radial_drift(0.5, 2, 0.05), starts,
                         lambda t, X: np.exp(-4 * np.sum(X**2, axis=1)),
                         [0.05, 0.1, 0.2], dt=0.005, paths=2000, seed=702)
    ci_lo = rep3.meta["theta"] - 1.96 * rep3.meta["theta_sd"] / np.sqrt(len(starts))
    radial_ok = rep3.passed and ci_lo > 0
    _report(7, theta_exact and oracle_ok and radial_ok,
            f"theta(f≡1)-1={rep1.meta['theta'] - 1:.1e}, gaussian oracle ok={oracle_ok}, "
            f"radial theta={rep3.meta['theta']:.3f} (CI low {ci_lo:.3f})")


def test_criterion_09_stability():
    grid = GridSpec(2, 4.0, 64, 0.0, 0.5, 50)
    rep = stability_sweep(PDEProblem(radial_drift(0.5, 2, 0.4), _bump_source(grid, 0.5), grid),
                          [0.4, 0.2, 0.1, 0.05])
    d = rep["distances"]
    dec_ok = all(b < a for a, b in zip(d, d[1:]))
    sups = np.array(rep["sup_norms"])
    bounded_ok = np.isfinite(rep["uniform_bound"]) and sups.max() / sups.min() <= 1.5
    _report(9, dec_ok and bounded_ok,
            f"distances={np.round(d, 6).tolist()}, sup norms within "
            f"x{sups.max() / sups.min():.3f}")


def test_criterion_10_localized_norms():
    # (a) radius-1 vs radius-2 localized norms agree up to one constant
    grid = GridSpec(2, 16.0, 32, -4.0, 4.0, 16)
    centers = [(0.0, np.array([x, y])) for x in (-3.0, 0.0, 3.0) for y in (-3.0, 0.0, 3.0)]
    rng = np.random.default_rng(10)
    kx, ky = np.meshgrid(np.fft.fftfreq(32) * 32, np.fft.fftfreq(32) * 32, indexing="ij")
    decay = 1.0 / (1.0 + kx**2 + ky**2) ** 2
    ratios = []
    for _ in range(20):
        coeffs = (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))) * decay
        slice_ = np.real(np.fft.ifftn(coeffs))
        vals = np.tile(slice_, (grid.nt, 1, 1)) * np.exp(-grid.times**2)[:, None, None]
        f = SpaceTimeField(grid, vals, 1)
        n1 = localized_norm(f, NormSpec(0.0, 3.0, 4.0, 1.0), CutoffFamily(1.0, centers))
        n2 = localized_norm(f, NormSpec(0.0, 3.0, 4.0, 2.0), CutoffFamily(2.0, centers))
        ratios.append(n1 / n2)
    ratios = np.array(ratios)
    equiv_ok = np.all(ratios > 0) and ratios.max() / ratios.min() <= 4.0

    # (b) mollification bounded by one constant across levels
    g2 = GridSpec(2, 12.0, 64, -4.0, 4.0, 10)
    rho2 = sum(m**2 for m in g2.meshgrid())
    f2 = SpaceTimeField(g2, np.tile(np.exp(-rho2), (g2.nt, 1, 1)), 1)
    spec2 = NormSpec(0.0, 3.0, 4.0, 1.0)
    base = localized_norm(f2, spec2, CutoffFamily(1.0, [(0.0, np.zeros(2))]))
    moll_ratios = [
        localized_norm(mollify(f2, eps), spec2, CutoffFamily(1.0, [(0.0, np.zeros(2))])) / base
        for eps in (0.75, 0.5, 0.375)
    ]
    moll_ok = max(moll_ratios) <= 1.5

    # (c) periodic bump lattice: global norm grows with the box, localized
    # norm does not
    def tiled(L):
        n = int(L / 0.125)
        g = GridSpec(2, L, n, -4.0, 4.0, 10)
        mesh = g.meshgrid()
        d2 = sum(((m + 1.0) % 2.0 - 1.0) ** 2 for m in mesh)  # bumps on the even lattice
        return SpaceTimeField(g, np.tile(np.exp(-d2 / 0.1), (g.nt, 1, 1)), 1)

    spec3 = NormSpec(0.0, 2.0, 2.0, 1.0)
    one_center = CutoffFamily(1.0, [(0.0, np.zeros(2))])
    f4, f8 = tiled(4.0), tiled(8.0)
    glob4, glob8 = mixed_norm(f4, 2.0, 2.0), mixed_norm(f8, 2.0, 2.0)
    loc4 = localized_norm(f4, spec3, one_center)
    loc8 = localized_norm(f8, spec3, one_center)
    growth_ok = glob8 > 1.5 * glob4 and abs(loc8 - loc4) / loc4 < 0.05
    _report(10, equiv_ok and moll_ok and growth_ok,
            f"equiv band x{ratios.max() / ratios.min():.2f}, mollifier C={max(moll_ratios):.3f}, "
            f"global {glob4:.3f}->{glob8:.3f} vs localized {loc4:.3f}->{loc8:.3f}")


def test_criterion_11_martingale_defect():
    lin = ProbeFunction(
        f=lambda X: X[:, 0],
        grad=lambda X: np.concatenate([np.ones((len(X), 1)), np.zeros((len(X), X.shape[1] - 1))], axis=1),
        lap=lambda X: np.zeros(len(X)),
    )
    bump = ProbeFunction(
        f=lambda X: np.exp(-np.sum(X**2, axis=1)),
        grad=lambda X: -2 * X * np.exp(-np.sum(X**2, axis=1))[:, None],
        lap=lambda X: (4 * np.sum(X**2, axis=1) - 2 * X.shape[1]) * np.exp(-np.sum(X**2, axis=1)),
    )
    suite_ok = True
    for drift, start in [
        (zero_drift(2).mollified(1.0), [0.0, 0.0]),
        (linear_drift(1.0, 2).mollified(1.0), [0.5, 0.0]),
        (radial_drift(0.5, 2, 0.1), [0.5, 0.0]),
    ]:
        for probe in (lin, bump):
            rep = martingale_defect(drift, start, probe, 0.1, 0.4,
                                    dt=0.005, paths=8000, seed=1100)
            suite_ok &= rep.passed

    # weak-order slope via the exact moment recursion of the discrete chain
    # (OU, quadratic probe): E X_{k+1}^2 = (1-dt)^2 E X_k^2 + 2 dt
    def exact_defect(dt, x0=0.5, t0=0.2, t1=0.6):
        k0, k1 = int(round(t0 / dt)), int(round(t1 / dt))
        m = x0**2
        gen = 0.0
        ms = []
        for k in range(k1):
            ms.append(m)
            m = (1 - dt) ** 2 * m + 2 * dt
        # M_t = f(X_t) - f(X_0) - sum_{j<t/dt} Lf(X_j) dt, Lf = 2 - 2 x^2
        m_t0 = ms[k0] - x0**2 - sum((2 - 2 * mj) * dt for mj in ms[:k0])
        m_t1 = m - x0**2 - sum((2 - 2 * mj) * dt for mj in ms)
        return m_t1 - m_t0

    dts = [0.04, 0.02, 0.01]
    biases = [abs(exact_defect(dt_)) for dt_ in dts]
    slope = float(np.polyfit(np.log(dts), np.log(biases), 1)[0])
    slope_ok = 0.7 <= slope <= 1.3

    quad = ProbeFunction(lambda X: np.sum(X**2, axis=1), lambda X: 2 * X,
                         lap=lambda X: 2.0 * X.shape[1] * np.ones(len(X)))
    rep_mc = martingale_defect(linear_drift(1.0, 1), [0.5], quad, 0.2, 0.6,
                               dt=0.04, paths=40000, seed=1101)
    mc_ok = abs(rep_mc.lhs - exact_defect(0.04)) <= 3 * rep_mc.se
    _report(11, suite_ok and slope_ok and mc_ok,
            f"probe suite ok={suite_ok}, weak-order slope={slope:.3f}, "
            f"MC defect {rep_mc.lhs:.5f} vs oracle {exact_defect(0.04):.5f}")


def test_criterion_12_negative_controls():
    # seeded fault 1: diffusion coefficient 1 instead of sqrt(2)
    cfg = EnsembleConfig(zero_drift(2).mollified(1.0), (0.0, [0.0, 0.0]), 0.5,
                         0.005, 20000, 1200, store_stride=100, diffusion=1.0)
    ens = simulate(cfg)
    m, se = batch_stats(ens.final_states[:, 0] ** 2)
    fault1_detected = abs(m - 1.0) > 3 * se  # variance check expects 2*(t-s)

    # seeded fault 2: a ladder that skips mollification refinement
    grid = GridSpec(2, 4.0, 32, 0.0, 0.5, 20)
    with pytest.raises(ValueError):
        stability_sweep(PDEProblem(radial_drift(0.5, 2, 0.4), _bump_source(grid, 0.5), grid),
                        [0.4, 0.4, 0.4])
    with pytest.raises(ValueError):
        stability_sweep(PDEProblem(radial_drift(0.5, 2, 0.2), _bump_source(grid, 0.5), grid),
                        [0.2, 0.4])
    _report(12, fault1_detected,
            f"unit-diffusion variance {m:.4f} flagged (nominal 2(t-s)=1.0); "
            "non-refining ladders rejected")
