import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nlkpp import Grid, KernelError, KernelSpec, discretize, make_kernel, reduce_to_direction
from nlkpp.kernels import EXP_DECAY_FINITE, EXP_DECAY_INFINITE, HEAVY_TAIL, _quad


def quad_mass_1d(kernel):
    val, _ = integrate.quad(lambda x: float(kernel.eval(np.array([x]))[0]),
                            0.0, np.inf, limit=800, epsabs=1e-14, epsrel=1e-12)
    return 2.0 * val


def quad_mass_2d(kernel):
    # radial reduction of an isotropic density
    val, _ = integrate.quad(
        lambda r: 2.0 * math.pi * r * float(kernel.eval(np.array([[r, 0.0]]))[0]),
        0.0, np.inf, limit=800, epsabs=1e-14, epsrel=1e-12,
    )
    return val


SPECS_1D = [
    KernelSpec("gaussian", 1, sigma=0.7),
    KernelSpec("laplace", 1, mu=1.3),
    KernelSpec("exppoly", 1, p=1.0, q=3.0, mu=1.0),
    KernelSpec("exppoly", 1, p=2.0, q=1.0, mu=0.5),
    KernelSpec("compact_uniform", 1, radius=1.5),
    KernelSpec("power_tail", 1, q=4.0),
]

SPECS_2D = [
    KernelSpec("gaussian", 2, sigma=1.0),
    KernelSpec("laplace", 2, mu=1.0),
    KernelSpec("exppoly", 2, p=1.0, q=3.0, mu=1.0),
    KernelSpec("compact_uniform", 2, radius=1.0),
    KernelSpec("power_tail", 2, q=4.0),
]


@pytest.mark.parametrize("spec", SPECS_1D, ids=lambda s: f"{s.family}")
def test_normalization_1d(spec):
    kernel = make_kernel(spec)
    assert quad_mass_1d(kernel) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("spec", SPECS_2D, ids=lambda s: f"{s.family}")
def test_normalization_2d(spec):
    kernel = make_kernel(spec)
    assert quad_mass_2d(kernel) == pytest.approx(1.0, abs=1e-8)


def test_gaussian_normalizer_closed_form():
    kernel = make_kernel(KernelSpec("gaussian", 1, sigma=1.0))
    assert kernel.normalizer_alpha == pytest.approx((2.0 * math.pi) ** -0.5, rel=1e-14)
    assert kernel.tail_class == EXP_DECAY_INFINITE


def test_exppoly_normalizer_against_oracle():
    kernel = make_kernel(KernelSpec("exppoly", 1, p=1.0, q=3.0, mu=1.0))
    # adaptive oracle on [-50, 50] plus analytic tail bound (tail < e^-50)
    body, _ = integrate.quad(lambda s: math.exp(-abs(s)) / (1 + abs(s) ** 3),
                             -50, 50, limit=400, epsabs=1e-14)
    assert abs(kernel.normalizer_alpha * body - 1.0) < 1e-10 + math.exp(-50)
    assert kernel.tail_class == EXP_DECAY_FINITE
    assert kernel.abscissa == 1.0


def test_power_tail_normalizer():
    kernel = make_kernel(KernelSpec("power_tail", 1, q=4.0))
    # integral of 1/(1+s^4) over R is pi/sqrt(2)
    assert kernel.normalizer_alpha == pytest.approx(math.sqrt(2.0) / math.pi, rel=1e-10)
    assert kernel.tail_class == HEAVY_TAIL
    assert kernel.abscissa == 0.0


@pytest.mark.parametrize("bad", [
    dict(family="power_tail", dimension=1, q=0.9),
    dict(family="power_tail", dimension=2, q=2.0),
    dict(family="exppoly", dimension=1, p=0.0, q=0.5, mu=1.0),
    dict(family="gaussian", dimension=1, sigma=-1.0),
    dict(family="nonsense", dimension=1),
    dict(family="laplace", dimension=1),  # missing mu
    dict(family="laplace", dimension=1, mu=1.0, offset=(1.0,)),  # offset not gaussian
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(KernelError):
        KernelSpec(**bad)


def test_reduction_identity_in_1d(gauss1):
    line = reduce_to_direction(gauss1, [1.0])
    s = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(line.eval(s), gauss1.eval(s), rtol=1e-14)
    flipped = reduce_to_direction(gauss1, [-1.0])
    np.testing.assert_allclose(flipped.eval(s), gauss1.eval(-s), rtol=1e-14)


def test_reduction_direction_independent_for_isotropic():
    kernel = make_kernel(KernelSpec("gaussian", 2, sigma=1.0))
    rng = np.random.default_rng(11)
    values = []
    for _ in range(16):
        xi = rng.normal(size=2)
        xi /= np.linalg.norm(xi)
        line = reduce_to_direction(kernel, xi)
        values.append(line.transform(0.8))
    assert max(values) - min(values) <= 1e-8


def test_reduction_mass_is_one():
    for spec in SPECS_2D:
        line = reduce_to_direction(make_kernel(spec), [0.6, 0.8])
        half, _ = integrate.quad(lambda t: float(np.atleast_1d(line.eval(t))[0]),
                                 0, np.inf, limit=800)
        assert 2.0 * half == pytest.approx(1.0, abs=1e-8), spec.family


def test_uniform_disk_chord_reduction():
    kernel = make_kernel(KernelSpec("compact_uniform", 2, radius=1.0))
    line = reduce_to_direction(kernel, [1.0, 0.0])
    s = np.array([0.0, 0.3, 0.7, 0.99])
    expected = (2.0 / math.pi) * np.sqrt(1.0 - s**2)
    np.testing.assert_allclose(line.eval(s), expected, rtol=1e-12)
    # cross-check by 2-D quadrature: integrate the density over the chord line
    for si in (0.0, 0.5):
        chord = math.sqrt(1.0 - si**2)
        val, _ = integrate.quad(
            lambda t: float(kernel.eval(np.array([[si, t]]))[0]), -1.2, 1.2,
            limit=400, points=[-chord, chord],
        )
        assert val == pytest.approx(float(line.eval(np.array([si]))[0]), abs=1e-10)


def chord_moment_reference(line, lam, power):
    """Chord moment with the density from the array ``eval``, one point at a time."""
    f = lambda s: (s**power) * math.exp(lam * s) * float(line.eval(s))
    return _quad(f, -line.radius, line.radius)


@pytest.mark.parametrize("radius", [0.3, 1.0, 2.0, 3.7])
def test_chord_moments_bitwise_equal_to_array_eval(radius):
    line = reduce_to_direction(make_kernel(KernelSpec("compact_uniform", 2, radius=radius)),
                               [1.0, 0.0])
    for lam in np.linspace(0.0, 6.0, 13):
        assert line.weighted_moment1(lam) == chord_moment_reference(line, lam, 1)
        assert line.weighted_moment2(lam) == chord_moment_reference(line, lam, 2)


def test_gaussian_offset_shifts_reduction():
    kernel = make_kernel(KernelSpec("gaussian", 2, sigma=1.0, offset=(0.5, -0.25)))
    xi = np.array([0.6, 0.8])
    line = reduce_to_direction(kernel, xi)
    drift = 0.5 * 0.6 + (-0.25) * 0.8
    assert line.mean() == pytest.approx(drift, abs=1e-12)


def test_non_unit_direction_rejected(gauss1):
    with pytest.raises(KernelError):
        reduce_to_direction(gauss1, [2.0])


def test_discretize_sums_to_exactly_one(gauss_weights):
    assert gauss_weights.weights.sum() == 1.0
    assert gauss_weights.renormalized


def test_discretize_heavy_tail_keeps_truncated_mass():
    grid = Grid(dimension=1, half_length=20.0, points_per_axis=1024)
    kernel = make_kernel(KernelSpec("power_tail", 1, q=4.0))
    w = discretize(kernel, grid)
    assert not w.renormalized
    tail, _ = integrate.quad(lambda s: kernel.normalizer_alpha / (1 + s**4), 20.0, np.inf)
    assert w.mass == pytest.approx(1.0 - 2.0 * tail, abs=1e-4)
    assert w.mass < 1.0


def test_discretize_rejects_underresolved():
    grid = Grid(dimension=1, half_length=20.0, points_per_axis=256)
    narrow = make_kernel(KernelSpec("gaussian", 1, sigma=grid.spacing / 10.0))
    with pytest.raises(KernelError, match="refine the grid"):
        discretize(narrow, grid)


def test_discretize_rejects_poor_coverage():
    grid = Grid(dimension=1, half_length=2.0, points_per_axis=64)
    wide = make_kernel(KernelSpec("gaussian", 1, sigma=1.0))
    with pytest.raises(KernelError, match="half_length"):
        discretize(wide, grid)


def test_transform_divergence_is_signalled(gauss_line):
    laplace = reduce_to_direction(make_kernel(KernelSpec("laplace", 1, mu=1.0)), [1.0])
    assert laplace.transform(1.5) == math.inf
    assert laplace.transform(1.0) == math.inf
    assert math.isfinite(gauss_line.transform(10.0))


@settings(max_examples=25, deadline=None)
@given(sigma=st.floats(0.3, 3.0), lam=st.floats(0.05, 2.0))
def test_gaussian_transform_matches_quadrature(sigma, lam):
    line = reduce_to_direction(make_kernel(KernelSpec("gaussian", 1, sigma=sigma)), [1.0])
    oracle, _ = integrate.quad(lambda s: float(line.eval(s)) * math.exp(lam * s),
                               -60 * sigma, 60 * sigma, limit=400)
    assert line.transform(lam) == pytest.approx(oracle, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(0.5, 3.0), frac=st.floats(0.05, 0.95))
def test_laplace_transform_closed_form(mu, frac):
    lam = frac * mu
    line = reduce_to_direction(make_kernel(KernelSpec("laplace", 1, mu=mu)), [1.0])
    assert line.transform(lam) == pytest.approx(mu**2 / (mu**2 - lam**2), rel=1e-12)


def test_discretize_accepts_line_kernels(gauss_line):
    grid = Grid(dimension=1, half_length=20.0, points_per_axis=256)
    w = discretize(gauss_line, grid)
    assert w.weights.sum() == 1.0
    assert w.weights.shape == grid.shape
