import hashlib
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
    localized_norm,
    mixed_norm,
    mollifier_kernel,
    mollify,
    smooth_transition,
    smooth_transition_with_deriv,
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
        deriv = smooth_transition_with_deriv(s, lo, hi)[1]
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
    np.testing.assert_allclose(smooth_transition_with_deriv(s, lo, hi)[1], central4, rtol=0, atol=1e-8)


def test_smooth_transition_with_deriv_is_the_pair():
    s = np.concatenate([np.linspace(0.0, 3.0, 3001), [1.0, 2.0, np.nextafter(1.0, 2.0), -np.inf, np.inf]])
    phi, _ = smooth_transition_with_deriv(s, 1.0, 2.0)
    assert np.array_equal(phi, smooth_transition(s, 1.0, 2.0))


def test_smooth_transition_any_layout():
    s = np.linspace(0.5, 2.5, 1000).reshape(40, 25)
    for view in (s.T, np.asfortranarray(s), s[::2, ::-3]):
        phi, dphi = smooth_transition_with_deriv(view, 1.0, 2.0)
        ref_phi, ref_dphi = smooth_transition_with_deriv(view.copy(order="C"), 1.0, 2.0)
        assert np.array_equal(smooth_transition(view, 1.0, 2.0), ref_phi)
        assert np.array_equal(phi, ref_phi) and np.array_equal(dphi, ref_dphi)


# sha256 of smooth_transition and smooth_transition_with_deriv, as float64
# bytes, on the inputs of _transition_golden_inputs for (lo, hi) = (1, 2) and
# (1, 4), then on four 0-d inputs.  A change to this digest is a change to
# the cutoff profile's bits.
TRANSITION_GOLDEN = "7db31c25eb10cb3476f76ccf32fe504ca74c851904e6e3e48927e7609fdf8ce4"


def _transition_golden_inputs(lo, hi):
    # both plateaus; lo and hi and their neighbours; +-inf; and u = (hi - s)/(hi - lo)
    # within 1e-2 of 0 and of 1, where the exponent 1/u - 1/(1-u) passes +-700
    w = hi - lo
    edges = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
             np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf), -np.inf, np.inf]
    u = np.geomspace(1e-6, 1e-2, 61)
    return np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 1001), edges, hi - u * w, lo + u * w])


def test_smooth_transition_golden_digest():
    h = hashlib.sha256()
    for lo, hi in [(1.0, 2.0), (1.0, 4.0)]:
        s = _transition_golden_inputs(lo, hi)
        phi, dphi = smooth_transition_with_deriv(s, lo, hi)
        assert phi.shape == dphi.shape == s.shape
        for v in (smooth_transition(s, lo, hi), phi, dphi):
            h.update(np.asarray(v, dtype=np.float64).tobytes())
    for s0 in (1.5, np.float64(1.0005), 0.5, 2.5):
        # a 0-d input gives 0-d outputs
        outs = (smooth_transition(s0, 1.0, 2.0), *smooth_transition_with_deriv(s0, 1.0, 2.0))
        assert all(np.ndim(v) == 0 for v in outs)
        for v in outs:
            h.update(np.asarray(v, dtype=np.float64).tobytes())
    assert h.hexdigest() == TRANSITION_GOLDEN


def test_norm_spec_validation():
    NormSpec(0.5, 4.0, 8.0)
    with pytest.raises(ValueError):
        NormSpec(3.0, 4.0, 8.0)
    with pytest.raises(ValueError):
        NormSpec(0.5, 1.0, 8.0)


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


def _full_grid_xi(fam, g, z):
    """xi_r(x - z) on every node, from the minimum-image distance: no window."""
    dist = np.sqrt(sum(g.wrap(m - z[i]) ** 2 for i, m in enumerate(g.meshgrid())))
    return fam.profile_space(dist)


def _localized_norm_loop(f, spec, fam):
    """Max over centers of mixed_norm(f * chi), chi evaluated per center on the whole grid."""
    g = f.grid
    tau_shape = (-1,) + (1,) * g.spatial_dim
    return max(mixed_norm(f.copy_with(f.values * fam.profile_time(g.times - s).reshape(tau_shape)
                                      * _full_grid_xi(fam, g, z)), spec.p, spec.q, spec.alpha)
               for s, z in fam.lattice_centers(g))


def _spatial_centers(g):
    """Spatial centers at the origin, at z = -L/2 (the window wraps) and off the nodes."""
    d, L = g.spatial_dim, g.extent
    return [np.zeros(d), np.full(d, -L / 2), np.linspace(-1.1, 1.3, d)]


# (grid, cutoff families): the time window of 3 r^2 makes the time profile vary
# across centers; two time centers share each spatial center
_G2 = GridSpec(2, 8.0, 16, 0.0, 3.0, 6)
WINDOW_CASES = {
    "2d": (_G2, [CutoffFamily(radius=1.0)]),
    "2d-custom": (_G2, [CutoffFamily(1.0, [(0.5, np.zeros(2)), (2.0, np.zeros(2)),
                                            (1.0, np.array([1.0, -2.0]))])]),
    "1d": (GridSpec(1, 8.0, 16, 0.0, 3.0, 6), None),
    "3d": (GridSpec(3, 8.0, 16, 0.0, 3.0, 6), None),
    # |x_i - z_i| <= L/2 = 1.5 < 2r: the window covers every axis
    "covers": (GridSpec(2, 3.0, 8, 0.0, 3.0, 6), None),
    # every node lies 0.25 or more from z, beyond 2r = 0.1: an empty window
    "empty": (_G2, [CutoffFamily(0.05, [(1.0, np.array([0.25, 0.25]))])]),
}


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("q", [4.0, np.inf])
def test_localized_norm_matches_direct_loop(alpha, q):
    rng = np.random.default_rng(17)
    for name, (g, fams) in WINDOW_CASES.items():
        f = SpaceTimeField(g, rng.standard_normal((g.nt, *g.spatial_shape())), 1)
        if fams is None:
            # each spatial center alone, so that no other center's norm hides its own
            fams = [CutoffFamily(1.0, [(s, z) for s in (0.5, 2.0)])
                    for z in _spatial_centers(g)]
        # the loop over the default lattice is the slow part: p = inf runs on the others
        for p in (3.0,) if name == "2d" else (3.0, np.inf):
            spec = NormSpec(alpha, p, q, 1.0)
            for fam in fams:
                got, want = localized_norm(f, spec, fam), _localized_norm_loop(f, spec, fam)
                assert got == pytest.approx(want, rel=1e-12), (name, p, fam.centers)
                if name == "empty":
                    assert got == want == 0.0


def test_cutoff_window_is_the_support():
    g = GridSpec(2, 8.0, 16, 0.0, 1.0, 2)
    fam = CutoffFamily(1.0)
    for z in _spatial_centers(g):
        index, xi = fam.window(g, z)
        full = _full_grid_xi(fam, g, z)
        assert np.array_equal(full[index], xi)
        assert np.array_equal(fam.spatial(g, z), full)
        outside = np.ones(g.spatial_shape(), bool)
        outside[index] = False
        assert np.all(full[outside] == 0.0)
    # a window away from the box edge is a view: basic slices
    assert all(isinstance(i, slice) for i in fam.window(g, np.zeros(2))[0])


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


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 16)])
def test_vnorm_parseval_matches_spectral_gradient(d, n):
    g = GridSpec(d, 3.0, n, 0.0, 1.0, 5)
    rng = np.random.default_rng(d)
    values = rng.standard_normal((g.nt,) + g.spatial_shape())
    # extra Nyquist content: along axis 0 alone, and on every axis at once
    idx = np.indices(g.spatial_shape())
    values += 2.0 * (-1.0) ** idx[0] * rng.standard_normal(g.nt).reshape((-1,) + (1,) * d)
    values += (-1.0) ** idx.sum(axis=0)
    f = SpaceTimeField(g, values, 1)
    grad = spatial_gradient(f)
    energy = np.sum(grad**2, axis=tuple(range(1, grad.ndim))) * g.cell_volume
    np.testing.assert_allclose(spatial_gradient(f, energy=True), energy, rtol=1e-13, atol=0)
    reference = mixed_norm(f, 2.0, np.inf) + np.sqrt(np.trapezoid(energy, g.times))
    assert vnorm(f) == pytest.approx(reference, rel=1e-13, abs=0)
