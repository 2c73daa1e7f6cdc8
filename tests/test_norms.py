import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from sdlab.grids import GridSpec, SpaceTimeField
from sdlab.norms import (
    CutoffFamily,
    NormSpec,
    bessel_apply,
    conjugate_exponents,
    exponent_relation_holds,
    gn_interpolation_ratio,
    inequality_battery,
    localized_norm,
    mixed_norm,
    mollifier_kernel,
    mollify,
    smooth_transition,
    smooth_transition_deriv,
    smooth_transition_with_deriv,
    spacetime_norm,
    spatial_gradient,
    vnorm,
)


def grid1(n=64, L=2.0, nt=8):
    return GridSpec(1, L, n, 0.0, 1.0, nt)


def test_smooth_transition_plateaus():
    s = np.linspace(-1, 6, 200)
    v = smooth_transition(s, 1.0, 4.0)
    assert np.all(v[s <= 1.0] == 1.0)
    assert np.all(v[s >= 4.0] == 0.0)
    assert np.all(np.diff(v) <= 1e-12)
    assert np.all((v >= 0) & (v <= 1))


def _two_bump_transition(s, lo, hi):
    """The profile as e^{-1/u} / (e^{-1/u} + e^{-1/(1-u)}), each bump masked."""

    def bump(x):
        out = np.zeros_like(x)
        pos = x > 1e-12
        out[pos] = np.exp(-1.0 / x[pos])
        return out

    s = np.asarray(s, dtype=np.float64)
    u = (hi - s) / (hi - lo)
    a, b = bump(u), bump(1.0 - u)
    with np.errstate(invalid="ignore"):
        val = a / (a + b)
    val = np.where(s <= lo, 1.0, val)
    return np.where(s >= hi, 0.0, val)


@pytest.mark.parametrize("lo, hi", [(1.0, 4.0), (1.0, 2.0), (-0.5, 0.25)])
def test_smooth_transition_matches_two_bump_form(lo, hi):
    edges = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo), lo + 1e-13, hi - 1e-13]
    far = [-1e300, -1e6, 1e6, 1e300, -np.inf, np.inf]
    s = np.concatenate([np.linspace(lo - 2.0, hi + 2.0, 20001), edges, far])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = smooth_transition(s, lo, hi)
        deriv = smooth_transition_deriv(s, lo, hi)
    np.testing.assert_allclose(val, _two_bump_transition(s, lo, hi), rtol=0, atol=1e-15)
    assert np.all(np.isfinite(deriv))
    assert np.all(deriv[(s <= lo) | (s >= hi)] == 0.0)


@pytest.mark.parametrize("lo, hi", [(1.0, 4.0), (1.0, 2.0)])
def test_smooth_transition_deriv_closed_form(lo, hi):
    h = 1e-3
    s = np.linspace(lo - 0.5, hi + 0.5, 4001)
    st = lambda x: smooth_transition(x, lo, hi)  # noqa: E731
    central4 = (-st(s + 2 * h) + 8 * st(s + h) - 8 * st(s - h) + st(s - 2 * h)) / (12 * h)
    # truncation h^4 f^(5) / 30 is below 1e-8 for widths >= 1
    np.testing.assert_allclose(smooth_transition_deriv(s, lo, hi), central4, rtol=0, atol=1e-8)


def test_smooth_transition_with_deriv_is_the_pair():
    s = np.concatenate([np.linspace(0.0, 3.0, 3001), [1.0, 2.0, np.nextafter(1.0, 2.0), -np.inf, np.inf]])
    phi, dphi = smooth_transition_with_deriv(s, 1.0, 2.0)
    assert np.array_equal(phi, smooth_transition(s, 1.0, 2.0))
    assert np.array_equal(dphi, smooth_transition_deriv(s, 1.0, 2.0))


def test_norm_spec_validation():
    NormSpec(0.5, 4.0, 8.0)
    with pytest.raises(ValueError):
        NormSpec(3.0, 4.0, 8.0)
    with pytest.raises(ValueError):
        NormSpec(0.5, 1.0, 8.0)


def test_admissibility_region():
    # d/p + 2/q < 2 - alpha
    assert NormSpec(0.0, 4.0, 4.0).admissible(2)  # 0.5 + 0.5 < 2
    assert not NormSpec(1.0, 3.0, 2.0).admissible(3)  # 1 + 1 = 2 > 1
    assert exponent_relation_holds(0.0, 4.0, 4.0, 2)


def test_conjugate_exponent_identity():
    # 1/((2-alpha) p) + 1/r = 1/2 and same in time
    for alpha, p, q in [(0.0, 4.0, 6.0), (0.5, 5.0, 10.0), (0.25, 3.0, 8.0)]:
        r, s = conjugate_exponents(alpha, p, q)
        assert 1.0 / ((2 - alpha) * p) + 1.0 / r == pytest.approx(0.5, abs=1e-12)
        assert 1.0 / ((2 - alpha) * q) + 1.0 / s == pytest.approx(0.5, abs=1e-12)
        # derived exponents land above the parabolic-dimension line
        d = 2
        assert d / r + 2.0 / s > d / 2


def test_bessel_single_mode_multiplier():
    g = grid1()
    k = 2 * np.pi * 3 / g.extent
    f = SpaceTimeField.from_function(g, lambda t, x: np.sin(k * x))
    for alpha in (-1.0, -0.5, 0.5, 1.0):
        out = bessel_apply(f, alpha)
        # eigenfunction: multiplier is (1+k^2)^{alpha/2} exactly
        factor = (1 + k**2) ** (alpha / 2)
        assert np.allclose(out.values, factor * f.values, atol=1e-12)


def test_bessel_composition_inverse():
    g = grid1()
    rng = np.random.default_rng(0)
    f = SpaceTimeField(g, rng.standard_normal((g.nt, 64)), 1)
    back = bessel_apply(bessel_apply(f, 0.7), -0.7)
    assert np.allclose(back.values, f.values, atol=1e-10)


def test_bessel_identity_on_constants():
    g = grid1()
    f = SpaceTimeField(g, np.full((g.nt, 64), 3.25), 1)
    out = bessel_apply(f, 1.3)
    assert np.allclose(out.values, 3.25, atol=1e-12)


def test_bessel_kernel_oracle_k0():
    # the multiplier (1+k^2)^{-1} is convolution with exp(-|x|)/2 in d=1;
    # quadrature oracle on a well-separated periodic bump
    g = GridSpec(1, 16.0, 512, 0.0, 1.0, 1)
    x = g.axis
    prof = np.exp(-(x**2))
    f = SpaceTimeField(g, np.tile(prof, (g.nt, 1)), 1)
    out = bessel_apply(f, -2.0).values[0]

    def oracle(xi):
        val, _ = scipy.integrate.quad(
            lambda y: 0.5 * np.exp(-abs(xi - y)) * np.exp(-(y**2)), -8, 8
        )
        return val

    for idx in [128, 200, 256, 300, 384]:
        assert out[idx] == pytest.approx(oracle(x[idx]), rel=2e-3, abs=1e-6)


def test_constant_field_mixed_norm():
    g = GridSpec(3, 2.0, 8, 0.0, 1.0, 4)
    f = SpaceTimeField(g, np.full((g.nt, 8, 8, 8), 2.0), 1)
    # ||2||_{L^p(box)} = 2 * L^{d/p}; q=inf picks the max over time
    val = mixed_norm(f, 4.0, np.inf)
    assert val == pytest.approx(2.0 * 2.0 ** (3 / 4), rel=1e-12)


def test_separable_field_norm_oracle():
    # f(t,x) = t * sin(2 pi x / L): ||f||_{2;2} = (L/2)^{1/2} * 3^{-1/2}
    g = GridSpec(1, 2.0, 128, 0.0, 1.0, 400)
    f = SpaceTimeField.from_function(g, lambda t, x: t * np.sin(2 * np.pi * x / 2.0))
    val = mixed_norm(f, 2.0, 2.0)
    exact = np.sqrt(2.0 / 2.0) * 3 ** (-0.5)
    assert val == pytest.approx(exact, rel=1e-4)  # trapezoid-in-time error


def test_spacetime_norm_uses_spec():
    g = grid1()
    f = SpaceTimeField(g, np.ones((g.nt, 64)), 1)
    spec = NormSpec(0.0, 2.0, np.inf)
    assert spacetime_norm(f, spec) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_vnorm_constant():
    g = GridSpec(2, 2.0, 16, 0.0, 1.0, 4)
    f = SpaceTimeField(g, np.full((g.nt, 16, 16), 1.5), 1)
    # gradient term vanishes; ||1.5||_{L^2(box)} = 1.5 * L^{d/2} = 1.5 * 2
    assert vnorm(f) == pytest.approx(3.0, rel=1e-12)


def test_cutoff_plateau_and_support():
    fam = CutoffFamily(radius=1.0)
    g = GridSpec(2, 10.0, 64, -5.0, 5.0, 40)
    chi = fam.evaluate(g, (0.0, [0.0, 0.0]))
    t = g.times
    mesh = g.meshgrid()
    rho = np.sqrt(sum(m**2 for m in mesh))
    inside = (np.abs(t)[:, None, None] < 0.99) & (rho[None] < 0.99)
    outside = (np.abs(t)[:, None, None] >= 4.0) | (rho[None] >= 2.0)
    assert np.all(chi[inside] == 1.0)
    assert np.all(chi[outside] == 0.0)
    assert np.all((chi >= 0) & (chi <= 1))


def test_cutoff_scaling():
    fam = CutoffFamily(radius=0.5)
    # plateau for |t| < r^2 = 0.25, |x| < r
    assert fam.profile_time(0.2) == 1.0
    assert fam.profile_time(1.0) == 0.0
    assert fam.profile_space(0.45) == 1.0
    assert fam.profile_space(1.0) == 0.0


def test_localized_norm_translation_covariance():
    g = GridSpec(2, 12.0, 64, 0.0, 1.0, 6)
    rho2 = sum(m**2 for m in g.meshgrid())
    base = np.exp(-2 * rho2)
    shift = np.exp(-2 * sum((m - 1.5 * (i == 0)) ** 2 for i, m in enumerate(g.meshgrid())))
    spec = NormSpec(0.0, 2.0, 2.0, 1.0)
    f1 = SpaceTimeField(g, np.tile(base, (g.nt, 1, 1)), 1)
    f2 = SpaceTimeField(g, np.tile(shift, (g.nt, 1, 1)), 1)
    n1 = localized_norm(f1, spec)
    n2 = localized_norm(f2, spec)
    # the sup over translates ignores where the bump sits (up to the
    # center-lattice quantization)
    assert n2 == pytest.approx(n1, rel=0.05)


def test_localized_norm_bounded_by_global():
    g = GridSpec(2, 12.0, 32, 0.0, 1.0, 6)
    rng = np.random.default_rng(3)
    f = SpaceTimeField(g, rng.standard_normal((g.nt, 32, 32)), 1)
    spec = NormSpec(0.0, 3.0, 4.0, 1.0)
    assert localized_norm(f, spec) <= mixed_norm(f, 3.0, 4.0) * (1 + 1e-9)


def _localized_norm_loop(f, spec, fam):
    """Max over centers of mixed_norm(f * chi), chi evaluated per center."""
    best, best_center = -np.inf, None
    for c in fam.lattice_centers(f.grid):
        chi = fam.evaluate(f.grid, c)
        val = mixed_norm(f.copy_with(f.values * chi), spec.p, spec.q, spec.alpha)
        if val > best:
            best, best_center = val, c
    return best, best_center


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("q", [4.0, np.inf])
def test_localized_norm_matches_direct_loop(alpha, q):
    # a time window of 3 r^2 makes the time profile vary across centers
    g = GridSpec(2, 8.0, 16, 0.0, 3.0, 6)
    rng = np.random.default_rng(17)
    f = SpaceTimeField(g, rng.standard_normal((g.nt, 16, 16)), 1)
    spec = NormSpec(alpha, 3.0, q, 1.0)
    custom = CutoffFamily(1.0, [(0.5, np.zeros(2)), (2.0, np.zeros(2)), (1.0, np.array([1.0, -2.0]))])
    for fam in (CutoffFamily(radius=1.0), custom):
        ref, ref_center = _localized_norm_loop(f, spec, fam)
        val, center = localized_norm(f, spec, fam, return_center=True)
        assert val == pytest.approx(ref, rel=1e-12)
        assert center[0] == ref_center[0]
        np.testing.assert_array_equal(center[1], ref_center[1])
        assert localized_norm(f, spec, fam) == val


def test_mollifier_kernel_mass_and_support():
    g = GridSpec(2, 4.0, 64, 0.0, 1.0, 2)
    ker = mollifier_kernel(g, 0.5)
    assert ker.sum() == pytest.approx(1.0, abs=1e-12)
    rho = np.sqrt(sum(m**2 for m in g.meshgrid()))
    assert np.all(ker[rho >= 0.5] == 0.0)


def test_mollify_preserves_mean_and_constants():
    g = GridSpec(2, 4.0, 64, 0.0, 1.0, 2)
    rng = np.random.default_rng(5)
    f = SpaceTimeField(g, rng.standard_normal((g.nt, 64, 64)), 1)
    out = mollify(f, 0.4)
    for k in range(g.nt):
        assert out.values[k].mean() == pytest.approx(f.values[k].mean(), abs=1e-12)
    c = SpaceTimeField(g, np.full((g.nt, 64, 64), 2.5), 1)
    assert np.allclose(mollify(c, 0.4).values, 2.5, atol=1e-12)


def test_mollify_contracts_lp():
    # convexity: ||f * rho||_p <= ||f||_p on the torus
    g = GridSpec(2, 4.0, 64, 0.0, 1.0, 2)
    rng = np.random.default_rng(7)
    f = SpaceTimeField(g, rng.standard_normal((g.nt, 64, 64)), 1)
    for p in (2.0, 4.0):
        assert mixed_norm(mollify(f, 0.4), p, np.inf) <= mixed_norm(f, p, np.inf) * (1 + 1e-9)


def test_mollifier_localized_bound_single_constant():
    # ||| f_eps ||| <= C ||| f ||| with one C across the eps ladder
    g = GridSpec(2, 12.0, 64, 0.0, 1.0, 4)
    rng = np.random.default_rng(11)
    f = SpaceTimeField(g, rng.standard_normal((g.nt, 64, 64)), 1)
    spec = NormSpec(0.0, 2.0, 2.0, 1.0)
    base = localized_norm(f, spec)
    ratios = [localized_norm(mollify(f, eps), spec) / base for eps in (0.75, 0.5, 0.375)]
    assert max(ratios) <= 1.5


def test_gradient_spectral_exactness():
    g = GridSpec(2, 2.0, 32, 0.0, 1.0, 2)
    k = 2 * np.pi / 2.0
    f = SpaceTimeField.from_function(g, lambda t, x, y: np.sin(k * x) * np.cos(k * y))
    grad = spatial_gradient(f)
    mesh = g.meshgrid()
    assert np.allclose(grad[:, 0], k * np.cos(k * mesh[0]) * np.cos(k * mesh[1]), atol=1e-10)
    assert np.allclose(grad[:, 1], -k * np.sin(k * mesh[0]) * np.sin(k * mesh[1]), atol=1e-10)


def test_inequality_battery_structure_and_stability():
    g = GridSpec(2, 12.0, 32, 0.0, 1.0, 4)
    rng = np.random.default_rng(13)
    fields = [SpaceTimeField(g, rng.standard_normal((g.nt, 32, 32)), 1) for _ in range(5)]
    recs = inequality_battery(fields)
    assert len(recs) == 5
    for rec in recs:
        assert rec["gn_ratio"] > 0
        assert np.isfinite(rec["r_equiv_ratio"])


def test_gn_ratio_smooth_field_finite():
    g = GridSpec(2, 4.0, 64, 0.0, 1.0, 2)
    f = SpaceTimeField.from_function(
        g, lambda t, x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    ratio = gn_interpolation_ratio(f, 0.0, 0.5, 2.0, 2.0, 4.0)
    assert 0 < ratio < 10
