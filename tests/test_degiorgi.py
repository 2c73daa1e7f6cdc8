import numpy as np
import pytest

from sdlab.degiorgi import (
    kappa_seq,
    lambda_seq,
    recursion_converges,
    run_iteration,
    sufficient_smallness,
    t_seq,
    threshold_kappa,
)
from sdlab.grids import GridSpec, SpaceTimeField
from sdlab.norms import NormSpec, conjugate_exponents, mixed_norm

SPECS = [NormSpec(0.0, 10.0, 10.0)] * 3
# two triples with one r and different s, and one with r = inf
DISTINCT = [NormSpec(0.0, 10.0, 10.0), NormSpec(0.0, 10.0, 6.0), NormSpec(1.0, 1.5, 3.0)]


def q2_grid(n=32, steps=60):
    return GridSpec(2, 6.0, n, -4.5, 4.5, steps)


def bump_field(g, amp=1.0):
    rho = np.sqrt(sum(m**2 for m in g.meshgrid()))
    vals = amp * np.exp(-(rho**2))[None] * np.exp(-g.times**2 / 8).reshape(-1, 1, 1)
    return SpaceTimeField(g, vals, 1)


def test_sequence_invariants():
    ts = [t_seq(n) for n in range(1, 13)]
    ls = [lambda_seq(n) for n in range(1, 13)]
    ks = [kappa_seq(2.0, n) for n in range(1, 13)]
    assert ts[0] == 4.0 and ls[0] == 2.0 and ks[0] == 0.0
    assert all(a > b for a, b in zip(ts, ts[1:])) and ts[-1] > 1.0
    assert all(a > b for a, b in zip(ls, ls[1:])) and ls[-1] > 1.0
    assert all(a < b for a, b in zip(ks, ks[1:])) and ks[-1] < 2.0
    assert abs(ts[-1] - 1.0) < 1e-5 and abs(ls[-1] - 1.0) < 1e-3


def test_nonpositive_solution_all_zero():
    g = q2_grid()
    u = SpaceTimeField(g, -np.ones((g.nt, 32, 32)), 1)
    states, _ = run_iteration(u, SPECS, 1.0, 6)
    assert all(s.a_n == 0.0 for s in states)
    assert all(s.ell_n == (0.0, 0.0, 0.0) for s in states)


def test_levels_empty_once_kappa_passes_sup():
    g = q2_grid()
    u = bump_field(g)
    sup = float(u.values.max())
    states, _ = run_iteration(u, SPECS, 10 * sup, 8)
    # kappa_n >= sup from n = 2 on: levels empty exactly there
    assert states[0].a_n > 0
    assert all(s.a_n == 0.0 for s in states[1:])


def test_monotone_coupling_in_kappa():
    g = q2_grid()
    u = bump_field(g)
    sup = float(u.values.max())
    lo, _ = run_iteration(u, SPECS, 0.3 * sup, 6)
    hi, _ = run_iteration(u, SPECS, 0.6 * sup, 6)
    for a, b in zip(lo, hi):
        for i in range(3):
            assert b.ell_n[i] <= a.ell_n[i] + 1e-12


def test_run_iteration_input_validation():
    g = q2_grid()
    u = bump_field(g)
    with pytest.raises(ValueError):
        run_iteration(u, SPECS, -1.0, 6)
    with pytest.raises(ValueError):
        run_iteration(u, SPECS, 1.0, 1)
    small = GridSpec(2, 6.0, 16, 0.0, 1.0, 4)
    with pytest.raises(ValueError):
        run_iteration(SpaceTimeField(small, np.zeros((5, 16, 16)), 1), SPECS, 1.0, 4)


def test_fast_convergence_lemma_property():
    rng = np.random.default_rng(1)
    n = 1000
    C0 = 1 + 2 * rng.random(n)
    lam = 1 + 2 * rng.random(n)
    eps = 0.05 + rng.random(n)
    assert all(
        recursion_converges(c, l, e, sufficient_smallness(c, l, e))
        for c, l, e in zip(C0, lam, eps)
    )
    # above the threshold convergence is no longer guaranteed; record the
    # divergence count (illustrative, not asserted to a specific value)
    diverged = sum(
        not recursion_converges(c, l, e, 1.5 * sufficient_smallness(c, l, e))
        for c, l, e in zip(C0, lam, eps)
    )
    assert diverged > 0


def test_threshold_kappa_zero_solution_floor():
    g = q2_grid(16, 20)
    u = SpaceTimeField(g, np.zeros((g.nt, 16, 16)), 1)
    rep = threshold_kappa(u, SPECS)
    assert rep["certified"] and rep["floor"]


def test_threshold_kappa_certifies_and_respects_bound():
    g = q2_grid()
    u = bump_field(g)
    rep = threshold_kappa(u, SPECS)
    assert rep["certified"] and not rep["floor"]
    assert rep["kappa"] <= rep["sufficient_bound"]
    assert rep["fit"]["eps"] > 0


def test_threshold_kappa_scaling_covariance():
    g = q2_grid()
    u = bump_field(g)
    rep1 = threshold_kappa(u, SPECS)
    rep2 = threshold_kappa(SpaceTimeField(g, 2 * u.values, 1), SPECS)
    assert rep2["kappa"] / rep1["kappa"] == pytest.approx(2.0, rel=1e-9)


def _cylinder_mask(grid, t_n, lambda_n):
    tmask = (np.abs(grid.times) < t_n).astype(float)
    rho = np.sqrt(sum(m**2 for m in grid.meshgrid()))
    smask = (rho < lambda_n).astype(float)
    return tmask.reshape((-1,) + (1,) * grid.spatial_dim) * smask[None]


def _level_norms_full_grid(u, kappa_n, t_n, lambda_n, rs_pairs):
    """The ladder's norms as mixed norms of (u - kappa_n)^+ masked to Gamma_n on the whole grid."""
    w = np.maximum(u.values - kappa_n, 0.0) * _cylinder_mask(u.grid, t_n, lambda_n)
    wf = SpaceTimeField(u.grid, w, 1)
    return tuple(mixed_norm(wf, r, s) for r, s in rs_pairs)


@pytest.mark.parametrize("specs", [SPECS, DISTINCT], ids=["equal", "distinct"])
@pytest.mark.parametrize("grid", [q2_grid(), GridSpec(2, 8.0, 32, -4.5, 4.5, 18)],
                         ids=["q2", "nodes-on-edges"])
def test_level_norms_match_full_grid(specs, grid):
    # the second grid has nodes on Gamma_1's edges, |t| = 4 and |x| = 2; u is
    # positive, so at kappa_1 = 0 every node of Gamma_1 counts
    u = SpaceTimeField(grid, 0.2 + bump_field(grid).values, 1)
    pairs = [conjugate_exponents(s.alpha, s.p, s.q) for s in specs]
    sup = float(u.values.max())
    for kappa in (0.1 * sup, 0.5 * sup, sup):
        states, _ = run_iteration(u, specs, kappa, 8)
        for st in states:
            want = _level_norms_full_grid(u, st.kappa_n, st.t_n, st.lambda_n, pairs)
            np.testing.assert_allclose(st.ell_n, want, rtol=1e-13, atol=0)
