import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nlkpp import ConfigError, Grid, Kernel, KernelError, discretize, reduce_to_direction
from nlkpp.config import parse_config
from nlkpp.kernels import (RadialLine, _bessel_i, _fast_lengths, _irfft, _next_fast_len,
                           _per_kernel, _quad, _radial_shape, _rfft)
from nlkpp.waves import sample_line_kernel


def quad_mass_1d(kernel):
    val, _ = integrate.quad(lambda x: float(kernel.eval(np.array([[x]]))[0]),
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
    Kernel("gaussian", 1, sigma=0.7),
    Kernel("laplace", 1, mu=1.3),
    Kernel("exppoly", 1, p=1.0, q=3.0, mu=1.0),
    Kernel("exppoly", 1, p=2.0, q=1.0, mu=0.5),
    Kernel("compact_uniform", 1, radius=1.5),
    Kernel("power_tail", 1, q=4.0),
]

SPECS_2D = [
    Kernel("gaussian", 2, sigma=1.0),
    Kernel("laplace", 2, mu=1.0),
    Kernel("exppoly", 2, p=1.0, q=3.0, mu=1.0),
    Kernel("compact_uniform", 2, radius=1.0),
    Kernel("power_tail", 2, q=4.0),
]


@pytest.mark.parametrize("spec", SPECS_1D, ids=lambda s: f"{s.family}")
def test_normalization_1d(spec):
    kernel = spec
    assert quad_mass_1d(kernel) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("spec", SPECS_2D, ids=lambda s: f"{s.family}")
def test_normalization_2d(spec):
    kernel = spec
    assert quad_mass_2d(kernel) == pytest.approx(1.0, abs=1e-8)


def test_gaussian_normalizer_closed_form():
    kernel = Kernel("gaussian", 1, sigma=1.0)
    assert kernel.normalizer_alpha == pytest.approx((2.0 * math.pi) ** -0.5, rel=1e-14)
    assert kernel.abscissa == math.inf


def test_exppoly_normalizer_against_oracle():
    kernel = Kernel("exppoly", 1, p=1.0, q=3.0, mu=1.0)
    # adaptive oracle on [-50, 50] plus analytic tail bound (tail < e^-50)
    body, _ = integrate.quad(lambda s: math.exp(-abs(s)) / (1 + abs(s) ** 3),
                             -50, 50, limit=400, epsabs=1e-14)
    assert abs(kernel.normalizer_alpha * body - 1.0) < 1e-10 + math.exp(-50)
    assert kernel.abscissa == 1.0


def test_power_tail_normalizer():
    kernel = Kernel("power_tail", 1, q=4.0)
    # integral of 1/(1+s^4) over R is pi/sqrt(2)
    assert kernel.normalizer_alpha == pytest.approx(math.sqrt(2.0) / math.pi, rel=1e-10)
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
        Kernel(**bad)


@pytest.mark.parametrize("dimension", [0, 3])
def test_dimensions_other_than_1_or_2_are_refused(dimension):
    with pytest.raises(KernelError, match=f"dimension must be 1 or 2, got {dimension}"):
        Kernel("gaussian", dimension, sigma=1.0)


# family -> a value in range of each parameter it requires (gaussian reads offset too)
REQUIRES = {"gaussian": dict(sigma=1.0), "laplace": dict(mu=1.0),
            "exppoly": dict(p=1.0, q=3.0, mu=1.0), "compact_uniform": dict(radius=1.0),
            "power_tail": dict(q=3.0)}
# a 1-D value in range of every parameter
IN_RANGE = dict(sigma=1.0, mu=1.0, p=1.0, q=3.0, radius=1.0, offset=(0.5,))
UNREAD = [(family, name) for family, required in REQUIRES.items() for name in IN_RANGE
          if name not in required and (family, name) != ("gaussian", "offset")]


def refused_at_family_line(family, dimension, params, message):
    """Parse a config whose [kernel_plus] lists ``params`` before its ``family`` line and
    check that the refusal cites that line with ``message``."""
    keys = "".join(f"{name} = {' '.join(map(str, np.atleast_1d(value)))}\n"
                   for name, value in params.items())
    text = ("[model]\nkappa_plus = 2\nkappa_minus = 1\nmortality = 1\n"
            f"[kernel_plus]\ndimension = {dimension}\n{keys}family = {family}\n"
            f"[kernel_minus]\ndimension = {dimension}\nfamily = gaussian\nsigma = 1\n")
    with pytest.raises(ConfigError, match=message) as info:
        parse_config(text)
    assert info.value.line == text.splitlines().index(f"family = {family}") + 1


@pytest.mark.parametrize("family, name", UNREAD, ids=[f"{f}-{n}" for f, n in UNREAD])
def test_a_parameter_its_family_does_not_read_is_refused(family, name):
    params = dict(REQUIRES[family], **{name: IN_RANGE[name]})
    message = f"family '{family}' does not read parameter '{name}'"
    with pytest.raises(KernelError, match=message):
        Kernel(family, 1, **params)
    refused_at_family_line(family, 1, params, message)


def _out_of_range():
    """(family, dimension, the parameter whose range is broken, the parameters that break it)
    for each range rule on every family that reads the parameter."""
    cases = []
    for d in (1, 2):
        for family, name in [("gaussian", "sigma"), ("laplace", "mu"), ("exppoly", "mu"),
                             ("compact_uniform", "radius")]:
            cases += [(family, d, name, {name: value}) for value in (0.0, -1.0)]
        cases += [("exppoly", d, "p", {"p": -0.5}), ("exppoly", d, "q", {"q": -0.5}),
                  ("exppoly", d, "q", {"p": 0.0, "q": float(d)}),
                  ("exppoly", d, "q", {"p": 0.0, "q": d - 0.5}),
                  ("power_tail", d, "q", {"q": float(d)}), ("power_tail", d, "q", {"q": -1.0}),
                  ("gaussian", d, "offset", {"offset": (0.5,) * (3 - d)})]
    return cases


@pytest.mark.parametrize("family, dimension, name, broken", _out_of_range(),
                         ids=lambda v: str(v))
def test_each_range_rule_refuses_on_every_family_that_reads_it(family, dimension, name,
                                                               broken):
    params = dict(REQUIRES[family], **broken)
    with pytest.raises(KernelError, match=f"{family} {name} must"):
        Kernel(family, dimension, **params)
    refused_at_family_line(family, dimension, params, f"{family} {name} must")


@pytest.mark.parametrize("family, name", [(f, n) for f, required in REQUIRES.items()
                                          for n in required])
def test_a_nan_parameter_is_out_of_range(family, name):
    with pytest.raises(KernelError, match=f"{family} {name} must"):
        Kernel(family, 1, **dict(REQUIRES[family], **{name: math.nan}))


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("family, params", [
    ("exppoly", dict(p=0.0, mu=1.0)),  # q = d + 0.5
    ("exppoly", dict(p=0.5, q=0.0, mu=1.0)),
    ("power_tail", {}),  # q = d + 0.5
])
def test_the_range_boundaries_are_accepted(family, params, dimension):
    kernel = Kernel(family, dimension, **dict(dict(q=dimension + 0.5), **params))
    assert 0 < kernel.normalizer_alpha < math.inf


@pytest.mark.parametrize("family, dimension, params", [
    ("gaussian", 1, dict(sigma=1e-200)), ("gaussian", 1, dict(sigma=1e200)),
    ("gaussian", 2, dict(sigma=1e-200)), ("gaussian", 2, dict(sigma=1e200)),
    ("compact_uniform", 2, dict(radius=1e-200)),
])
def test_a_scale_whose_normalizer_leaves_the_float_range_is_refused(family, dimension,
                                                                    params):
    # the closed forms raise ArithmeticError or give 0 here; either is refused as one error
    with pytest.raises(KernelError, match="not integrable in floating point"):
        Kernel(family, dimension, **params)
    refused_at_family_line(family, dimension, params, "not integrable in floating point")


@pytest.mark.parametrize("dimension, q", [(1, 1.5), (1, 3.0), (2, 2.5), (2, 3.0)])
def test_power_tail_eval_is_alpha_times_one_over_one_plus_a_power(dimension, q):
    # power_tail is read as exppoly with p = mu = 0; exp(-0 |x|^0) = 1 keeps its bits
    # (q = 1.5 is not integrable in d = 2, so 2.5 stands in for it there)
    kernel = Kernel("power_tail", dimension, q=q)
    x = Grid(dimension, 10.0, 64).coords()
    r = np.sqrt(np.sum(np.square(x), axis=-1))
    assert np.array_equal(kernel.eval(x), kernel.normalizer_alpha * (1.0 / (1.0 + r**q)))


@pytest.mark.parametrize("spec", SPECS_1D + [Kernel("gaussian", 1, sigma=0.7, offset=(0.3,))],
                         ids=lambda s: s.family + ("-offset" if s.offset else ""))
def test_eval_1d_is_the_shape_of_the_distance(spec):
    # sqrt(x^2) is |x| in binary64, so the one distance path keeps the 1-D bits
    kernel = spec
    x = Grid(dimension=1, half_length=20.0, points_per_axis=256).axis_coords()
    expected = kernel.normalizer_alpha * _radial_shape(spec)(np.abs(x - spec.offset_vector[0]))
    assert np.array_equal(kernel.eval(x[:, None]), expected)


@pytest.mark.parametrize("dimension, points", [(1, np.zeros(4)), (1, np.zeros((4, 2))),
                                               (2, np.zeros((4, 1))), (2, np.float64(0.0))],
                         ids=["bare-1d", "2-components-1d", "1-component-2d", "scalar-2d"])
def test_eval_refuses_points_without_d_components(dimension, points):
    kernel = Kernel("gaussian", dimension, sigma=1.0)
    with pytest.raises(KernelError, match="components"):
        kernel.eval(points)


@pytest.mark.parametrize("dimension", [1, 2])
def test_grid_points_carry_their_coordinate_axis(dimension):
    grid = Grid(dimension=dimension, half_length=4.0, points_per_axis=16)
    coords = grid.coords()
    assert coords.shape == grid.shape + (dimension,)
    assert np.array_equal(coords[(slice(None),) + (0,) * dimension], grid.axis_coords())


def test_reduction_identity_in_1d(gauss1):
    line = reduce_to_direction(gauss1, [1.0])
    s = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(line.eval(s), gauss1.eval(s[:, None]), rtol=1e-14)
    flipped = reduce_to_direction(gauss1, [-1.0])
    np.testing.assert_allclose(flipped.eval(s), gauss1.eval(-s[:, None]), rtol=1e-14)


def test_reduction_direction_independent_for_isotropic():
    kernel = Kernel("gaussian", 2, sigma=1.0)
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
        line = reduce_to_direction(spec, [0.6, 0.8])
        half, _ = integrate.quad(lambda t: float(np.atleast_1d(line.eval(t))[0]),
                                 0, np.inf, limit=800)
        assert 2.0 * half == pytest.approx(1.0, abs=1e-8), spec.family


LINE_VIEW_SPECS = [
    Kernel("gaussian", 1, sigma=0.7),
    Kernel("gaussian", 2, sigma=0.7),
    Kernel("gaussian", 1, sigma=0.7, offset=(0.5,)),
    Kernel("gaussian", 2, sigma=0.7, offset=(0.5, -0.25)),
    Kernel("laplace", 1, mu=1.3),
    Kernel("laplace", 2, mu=1.3),
    Kernel("compact_uniform", 1, radius=1.5),
    Kernel("compact_uniform", 2, radius=1.5),
    Kernel("power_tail", 1, q=4.0),
    Kernel("power_tail", 2, q=4.0),
] + [Kernel("exppoly", d, p=p, q=3.0, mu=2.0) for p in (0.5, 1.0, 2.0) for d in (1, 2)]


@pytest.mark.parametrize("spec", LINE_VIEW_SPECS,
                         ids=lambda s: f"{s.family}-{s.dimension}d"
                         + (f"-p{s.p:g}" if s.p is not None else "")
                         + ("-offset" if s.offset else ""))
def test_line_is_a_view_of_its_kernel(spec):
    kernel = spec
    directions = [[1.0], [-1.0]] if spec.dimension == 1 else [[1.0, 0.0], [0.6, -0.8]]
    for xi in directions:
        line = reduce_to_direction(kernel, xi)
        assert line.lambda0 == kernel.abscissa
        assert line.effective_scale() == kernel.effective_scale()
        one = line.eval(np.array([0.5]))  # an array of the input's shape, one element too
        assert isinstance(one, np.ndarray) and one.shape == (1,)


def test_uniform_disk_chord_reduction():
    kernel = Kernel("compact_uniform", 2, radius=1.0)
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


def compact_moment_reference(line, lam, power):
    """Moment of a compact line by quadrature of its array ``eval``, one point at a time."""
    f = lambda s: (s**power) * math.exp(lam * s) * float(line.eval(s))
    radius = line.kernel.radius
    return _quad(f, -radius, radius, epsabs=0.0, epsrel=1e-13)


@pytest.mark.parametrize("dimension", [1, 2], ids=["uniform", "chord"])
@pytest.mark.parametrize("radius", [0.3, 1.0, 2.0, 3.7])
def test_compact_moments_match_quadrature(dimension, radius):
    # 0.99 / R and 1.01 / R straddle the uniform line's switch from series to closed form
    line = reduce_to_direction(Kernel("compact_uniform", dimension, radius=radius),
                               [1.0, 0.0][:dimension])
    for lam in [*np.linspace(-6.0, 6.0, 25), 1e-3, 0.99 / radius, 1.01 / radius]:
        for power, name in enumerate(MOMENTS):
            expected = compact_moment_reference(line, lam, power)
            assert getattr(line, name)(lam) == pytest.approx(expected, rel=1e-12, abs=1e-15), (
                lam, name)


@pytest.mark.parametrize("dimension", [1, 2], ids=["uniform", "chord"])
def test_compact_moments_past_overflow_are_infinite(dimension):
    line = reduce_to_direction(Kernel("compact_uniform", dimension, radius=2.0),
                               [1.0, 0.0][:dimension])
    for name in MOMENTS:
        assert math.isfinite(getattr(line, name)(349.0))
        assert getattr(line, name)(350.0) == math.inf
        assert getattr(line, name)(400.0) == math.inf


def chord_moment_reference(radius, lam, power):
    """int s^power e^{lam s} 2 sqrt(R^2 - s^2) / (pi R^2) ds by quadrature over [0, R], with
    the even or odd part of e^{lam s} as cosh or sinh, so that no two terms cancel."""
    part = math.cosh if power % 2 == 0 else math.sinh
    f = lambda s: (4.0 * math.sqrt(radius**2 - s * s) / (math.pi * radius**2)
                   * s**power * part(lam * s))
    return _quad(f, 0.0, radius, epsabs=0.0, epsrel=1e-13)


@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_chord_moments_match_the_disk_marginal(radius):
    # x = lam R from just past the small-x expansion to just below the overflow cut at 700
    line = reduce_to_direction(Kernel("compact_uniform", 2, radius=radius), [1.0, 0.0])
    for x in (1e-5, 1e-3, 0.5, 3.0, 40.0, 300.0, 699.0):
        for lam in (x / radius, -x / radius):
            for power, name in enumerate(MOMENTS):
                expected = chord_moment_reference(radius, lam, power)
                assert getattr(line, name)(lam) == pytest.approx(expected, rel=1e-12), (lam, name)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bessel_series_is_scipy_iv(n):
    from scipy.special import iv

    x = np.geomspace(1e-6, 699.999, 2000)
    x = np.concatenate([-x, x])
    np.testing.assert_allclose([_bessel_i(n, float(v)) for v in x], iv(n, x), rtol=1e-13,
                               atol=0.0)


def test_gaussian_offset_shifts_reduction():
    kernel = Kernel("gaussian", 2, sigma=1.0, offset=(0.5, -0.25))
    xi = np.array([0.6, 0.8])
    line = reduce_to_direction(kernel, xi)
    drift = 0.5 * 0.6 + (-0.25) * 0.8
    assert line.mean() == pytest.approx(drift, abs=1e-12)


def test_non_unit_direction_rejected(gauss1):
    with pytest.raises(KernelError):
        reduce_to_direction(gauss1, [2.0])


def test_discretize_sums_to_exactly_one(gauss_weights):
    assert gauss_weights.weights.sum() == 1.0


def test_discretize_heavy_tail_keeps_truncated_mass():
    grid = Grid(dimension=1, half_length=20.0, points_per_axis=1024)
    kernel = Kernel("power_tail", 1, q=4.0)
    w = discretize(kernel, grid)
    mass = float(w.weights.sum())
    tail, _ = integrate.quad(lambda s: kernel.normalizer_alpha / (1 + s**4), 20.0, np.inf)
    assert mass == pytest.approx(1.0 - 2.0 * tail, abs=1e-4)
    assert mass < 1.0


def test_discretize_rejects_underresolved():
    grid = Grid(dimension=1, half_length=20.0, points_per_axis=256)
    narrow = Kernel("gaussian", 1, sigma=grid.spacing / 10.0)
    with pytest.raises(KernelError, match="refine the grid"):
        discretize(narrow, grid)


def test_marginal_warning_names_the_key():
    """Through the identical-kernel rule, the marginal-scale warning names the config key
    that sets the spacing: ``[grid] points`` for periodic weights, ``[wave] spacing``
    for line samples."""
    kernel = Kernel("gaussian", 1, sigma=0.3)
    grid = Grid(dimension=1, half_length=20.0, points_per_axis=256)
    with pytest.warns(UserWarning, match=r"is marginal .*; refine \[grid\] points$") as caught:
        _per_kernel(discretize, kernel, kernel, grid)
    assert len(caught) == 1
    line = reduce_to_direction(kernel, [1.0])
    with pytest.warns(UserWarning, match=r"is marginal .*; refine \[wave\] spacing$") as caught:
        _per_kernel(sample_line_kernel, line, line, 0.1)
    assert len(caught) == 1


def test_discretize_rejects_poor_coverage():
    grid = Grid(dimension=1, half_length=2.0, points_per_axis=64)
    wide = Kernel("gaussian", 1, sigma=1.0)
    with pytest.raises(KernelError, match="half_length"):
        discretize(wide, grid)


@pytest.mark.parametrize("offset", [(5.0,), (3.0, 4.0)], ids=["1d", "2d"])
def test_discretize_coverage_counts_the_offset(offset):
    # over 1e-3 of the mass lies beyond the lattice, 3 sigma from the offset
    grid = Grid(dimension=len(offset), half_length=8.0, points_per_axis=128)
    shifted = Kernel("gaussian", len(offset), sigma=1.0, offset=offset)
    with pytest.raises(KernelError, match="half_length to at least 16"):
        discretize(shifted, grid)


def line_tail(line, radius):
    """Mass of ``line`` outside [-radius, radius], by quadrature of its density."""
    return _quad(line.eval, radius, np.inf) + _quad(line.eval, -np.inf, -radius)


@pytest.mark.parametrize("drift", [0.0, 0.7, 5.0])
@pytest.mark.parametrize("radius", [1.0, 4.0, 9.0])
def test_gaussian_line_mass_outside_counts_the_drift(drift, radius):
    shifted = Kernel("gaussian", 1, sigma=1.0, offset=(drift,))
    line = reduce_to_direction(shifted, [1.0])
    expected = line_tail(line, radius)
    assert line.mass_outside(radius) == pytest.approx(expected, rel=1e-9, abs=1e-13)
    if drift == 0.0:
        assert line.mass_outside(radius) == math.erfc(radius / math.sqrt(2.0))


# kernel keys and the half-width, in cells, of the line samples at spacing 0.1, in
# 1-D and 2-D alike; power_tail's samples are too wide to take
LINE_TAILS = [
    (dict(family="gaussian", sigma=1.0), 90),
    (dict(family="laplace", mu=1.0), 304),
    (dict(family="laplace", mu=2.7), 113),
    (dict(family="exppoly", p=1.0, q=3.0, mu=1.0), 203),
    (dict(family="exppoly", p=2.0, q=1.0, mu=0.5), 90),
    (dict(family="compact_uniform", radius=1.0), 40),
    (dict(family="power_tail", q=4.0), None),
]


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.filterwarnings("ignore:kernel scale .* is marginal")
@pytest.mark.parametrize("keys, halfwidth", LINE_TAILS,
                         ids=["gaussian", "laplace-mu1", "laplace-mu2.7", "exppoly-p1",
                              "exppoly-p2", "compact_uniform", "power_tail"])
def test_ball_tail_bounds_the_line_tail(keys, halfwidth, dimension):
    # the line's tail sizes its samples; the kernel's ball tail bounds it, and equals it in 1-D
    kernel = Kernel(dimension=dimension, **keys)
    line = reduce_to_direction(kernel, [1.0] + [0.0] * (dimension - 1))
    for radius in (4.0, 9.0, 20.0):
        radius *= kernel.effective_scale()
        tail = line_tail(line, radius)
        assert tail <= line.mass_outside(radius) * (1.0 + 1e-9) + 1e-13, radius
        assert line.mass_outside(radius) <= kernel.mass_outside(radius), radius
        if dimension == 1:
            assert line.mass_outside(radius) == pytest.approx(tail, rel=1e-9, abs=1e-13)
    if halfwidth is not None:
        assert sample_line_kernel(line, 0.1).halfwidth == halfwidth


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("radius", [0.3, 1.0, 2.5, 6.0])
def test_gaussian_mass_outside_closed_form_matches_quadrature(dimension, radius):
    kernel = Kernel("gaussian", dimension, sigma=0.8, offset=(0.4,) * dimension)
    shape = lambda r: kernel.normalizer_alpha * math.exp(-r * r / (2.0 * 0.8**2))
    opts = dict(limit=800, epsabs=0.0, epsrel=1e-13)
    if dimension == 1:
        expected = 2.0 * integrate.quad(shape, radius, np.inf, **opts)[0]
    else:
        expected = 2.0 * math.pi * integrate.quad(lambda r: shape(r) * r, radius, np.inf,
                                                  **opts)[0]
    assert kernel.mass_outside(radius) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("radius", [1.0, 5.0, 20.0])
def test_laplace_mass_outside_closed_form_matches_quadrature(dimension, radius):
    kernel = Kernel("laplace", dimension, mu=1.3)
    shape = lambda r: kernel.normalizer_alpha * math.exp(-1.3 * r)
    if dimension == 1:
        expected = 2.0 * _quad(shape, radius, np.inf, epsabs=0.0, epsrel=1e-13)
    else:
        expected = 2.0 * math.pi * _quad(lambda r: shape(r) * r, radius, np.inf,
                                         epsabs=0.0, epsrel=1e-13)
    assert kernel.mass_outside(radius) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("dimension, inner", [(1, 0.5), (2, 0.75)])
def test_compact_mass_outside_is_the_volume_fraction(dimension, inner):
    kernel = Kernel("compact_uniform", dimension, radius=2.0)
    assert kernel.mass_outside(0.0) == 1.0
    assert kernel.mass_outside(1.0) == inner
    assert kernel.mass_outside(2.0) == kernel.mass_outside(3.0) == 0.0


def test_transform_divergence_is_signalled(gauss_line):
    laplace = reduce_to_direction(Kernel("laplace", 1, mu=1.0), [1.0])
    assert laplace.transform(1.5) == math.inf
    assert laplace.transform(1.0) == math.inf
    assert math.isfinite(gauss_line.transform(10.0))


@settings(max_examples=25, deadline=None)
@given(sigma=st.floats(0.3, 3.0), lam=st.floats(0.05, 2.0))
def test_gaussian_transform_matches_quadrature(sigma, lam):
    line = reduce_to_direction(Kernel("gaussian", 1, sigma=sigma), [1.0])
    oracle, _ = integrate.quad(lambda s: float(line.eval(s)) * math.exp(lam * s),
                               -60 * sigma, 60 * sigma, limit=400)
    assert line.transform(lam) == pytest.approx(oracle, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(0.5, 3.0), frac=st.floats(0.05, 0.95))
def test_laplace_transform_closed_form(mu, frac):
    lam = frac * mu
    line = reduce_to_direction(Kernel("laplace", 1, mu=mu), [1.0])
    assert line.transform(lam) == pytest.approx(mu**2 / (mu**2 - lam**2), rel=1e-12)


def test_exppoly_without_power_has_unit_scale():
    # with p = 0, mu only scales the density by exp(-mu): no length scale
    for d, xi in ((1, [1.0]), (2, [1.0, 0.0])):
        kernel = Kernel("exppoly", d, p=0.0, q=3.0, mu=10.0)
        line = reduce_to_direction(kernel, xi)
        assert kernel.effective_scale() == line.effective_scale() == 1.0
    grid = Grid(dimension=1, half_length=20.0, points_per_axis=64)
    assert grid.spacing == 0.625
    kernel = Kernel("exppoly", 1, p=0.0, q=3.0, mu=10.0)
    with pytest.warns(UserWarning, match="marginal"):
        w = discretize(kernel, grid)
    assert float(w.weights.sum()) < 1.0


# (spec, oracle half-width, powers whose moment diverges at a finite abscissa)
MOMENT_MATRIX = [
    (Kernel("gaussian", 1, sigma=0.8), 15.0, None),
    (Kernel("gaussian", 2, sigma=0.8), 15.0, None),
    (Kernel("gaussian", 1, sigma=0.8, offset=(0.5,)), 15.0, None),
    (Kernel("gaussian", 2, sigma=0.8, offset=(0.5, -0.25)), 15.0, None),
    (Kernel("laplace", 1, mu=1.3), 80.0, {0, 1, 2}),
    (Kernel("laplace", 2, mu=1.3), 80.0, {0, 1, 2}),
    (Kernel("exppoly", 1, p=0.5, q=3.0, mu=1.0), 2500.0, set()),
    (Kernel("exppoly", 2, p=0.5, q=3.0, mu=1.0), 2500.0, set()),
    (Kernel("exppoly", 1, p=1.0, q=3.0, mu=1.0), 100.0, {2}),
    (Kernel("exppoly", 2, p=1.0, q=3.0, mu=1.0), 100.0, {2}),
    (Kernel("exppoly", 1, p=2.0, q=1.0, mu=0.5), 15.0, None),
    (Kernel("exppoly", 2, p=2.0, q=1.0, mu=0.5), 15.0, None),
    (Kernel("compact_uniform", 1, radius=1.5), 1.5, None),
    (Kernel("compact_uniform", 2, radius=1.5), 1.5, None),
    (Kernel("power_tail", 1, q=2.5), None, {2}),
    (Kernel("power_tail", 2, q=2.5), None, {1, 2}),
    (Kernel("power_tail", 1, q=3.5), None, set()),
    (Kernel("power_tail", 2, q=3.5), None, {2}),
    (Kernel("power_tail", 2, q=4.5), None, set()),
]

MOMENTS = ("transform", "weighted_moment1", "weighted_moment2")


def _matrix_id(case):
    spec = case[0]
    extra = {"exppoly": f"p{spec.p}", "power_tail": f"q{spec.q}"}.get(spec.family, "")
    offset = "-offset" if spec.offset else ""
    return f"{spec.family}{extra}{offset}-{spec.dimension}d"


def _line_oracle(line, lam, k, half_width, center):
    """quad of the line density times s^k e^{lam s} on the truncated range."""
    f = lambda s: float(line.eval(s)) * s**k * math.exp(lam * s)
    lo, hi = center - half_width, center + half_width
    points = [p for p in (center - 1.0, center, center + 1.0, -10.0, 10.0, -100.0, 100.0)
              if lo < p < hi]
    val, _ = integrate.quad(f, lo, hi, points=points, limit=2000, epsabs=1e-13, epsrel=1e-10)
    return val


def _polar_oracle(kernel, xi, lam, k, radius):
    """The moment from the planar density: trapezoid rule in angle, quad in radius."""
    theta = 2.0 * math.pi * np.arange(256) / 256
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    proj = dirs @ np.asarray(xi)

    def ring(r):
        s = r * proj
        density = kernel.eval(r * dirs)
        return r * 2.0 * math.pi * float(np.mean(density * s**k * np.exp(lam * s)))

    points = [p for p in (1.0, 10.0, 100.0, 1000.0) if p < radius]
    val, _ = integrate.quad(ring, 0.0, radius, points=points, limit=2000,
                            epsabs=1e-15, epsrel=1e-11)
    return val


def _power_tail_oracle(spec, k):
    """Closed forms at lam = 0 from int_0^inf s^(a-1) / (1 + s^q) ds = (pi/q) / sin(a pi/q)."""
    moment = lambda a: (math.pi / spec.q) / math.sin(a * math.pi / spec.q)
    d = spec.dimension
    return (1.0, 0.0, moment(d + 2) / (d * moment(d)))[k]


@pytest.mark.parametrize("case", MOMENT_MATRIX, ids=_matrix_id)
def test_moment_matrix(case):
    spec, half_width, divergent = case
    kernel = spec
    xi = [1.0] if spec.dimension == 1 else [0.6, 0.8]
    line = reduce_to_direction(kernel, xi)
    lam0 = line.lambda0
    if math.isinf(lam0):
        lams = (0.0, 0.6, 1.7)
    elif lam0 > 0:
        lams = (0.0, 0.3 * lam0, 0.6 * lam0)
    else:
        lams = (0.0,)  # heavy tail: the abscissa is the only finite point
    center = float(np.dot(spec.offset_vector, xi))
    for lam in lams:
        for k, name in enumerate(MOMENTS):
            value = getattr(line, name)(lam)
            if lam == lam0 and k in divergent:
                continue
            if spec.family == "power_tail":
                oracle = _power_tail_oracle(spec, k)
            elif isinstance(line, RadialLine) and spec.dimension == 2:
                oracle = _polar_oracle(kernel, xi, lam, k, half_width)
            else:
                oracle = _line_oracle(line, lam, k, half_width, center)
            assert value == pytest.approx(oracle, rel=1e-8, abs=1e-12), (lam, name)
    if math.isinf(lam0):
        return
    for k, name in enumerate(MOMENTS):
        assert getattr(line, name)(lam0 + 0.1) == math.inf
        at_abscissa = getattr(line, name)(lam0)
        assert math.isinf(at_abscissa) == (k in divergent) == (line.tail_power <= k + 1), name


def test_divergent_second_moment_of_a_planar_power_tail_is_infinite():
    line = reduce_to_direction(Kernel("power_tail", 2, q=3.5), [1.0, 0.0])
    assert line.weighted_moment2(0.0) == math.inf
    assert line.mean() == 0.0


class TestFftPair:
    """``_rfft`` / ``_irfft`` give the bits of ``scipy.fft.rfftn`` / ``irfftn``."""

    # the line lengths where numpy's inverse is up to 2 ulp off scipy.fft's
    ULP_INVERSE = {(n,) for n in (2731, 4623, 5462, 5607, 5963, 6147)}

    @classmethod
    def assert_pair_is_scipy(cls, values, shape):
        from scipy import fft as sp_fft

        axes = tuple(range(-len(shape), 0))
        spectrum = _rfft(values, shape)
        assert np.array_equal(spectrum, sp_fft.rfftn(values, shape, axes=axes)), shape
        inverse, expected = _irfft(spectrum, shape), sp_fft.irfftn(spectrum, shape, axes=axes)
        if shape in cls.ULP_INVERSE:
            assert np.max(np.abs(inverse - expected)) <= 1e-15 * np.max(np.abs(expected)), shape
        else:
            assert np.array_equal(inverse, expected), shape

    def test_every_line_length(self):
        rng = np.random.default_rng(21)
        for n in range(16, 8193):
            self.assert_pair_is_scipy(rng.random(n), (n,))

    @pytest.mark.parametrize("batch", [2, 12])
    def test_batched_lines(self, batch):
        rng = np.random.default_rng(batch)
        smooth = [n for n in _fast_lengths() if 16 <= n <= 8192]
        for n in sorted(set(smooth) | set(range(16, 8193, 61)) | {2731, 5462, 6147}):
            self.assert_pair_is_scipy(rng.random((batch, n)), (n,))

    def test_zero_filled_line(self):
        rng = np.random.default_rng(22)
        for width, n in ((21, 64), (101, 1024), (101, 1000)):
            self.assert_pair_is_scipy(rng.random(width), (n,))

    @pytest.mark.parametrize("n", [64, 96, 128, 200, 256])
    def test_planes(self, n):
        rng = np.random.default_rng(n)
        self.assert_pair_is_scipy(rng.random((n, n)), (n, n))
        self.assert_pair_is_scipy(rng.random((2, n, n)), (n, n))

    @pytest.mark.parametrize("shape", [(96, 160), (250, 243), (97, 128)],
                             ids=["96x160", "250x243", "97x128"])
    def test_rectangular_planes(self, shape):
        rng = np.random.default_rng(shape)
        self.assert_pair_is_scipy(rng.random(shape), shape)
        self.assert_pair_is_scipy(rng.random((3, *shape)), shape)

    def test_zero_filled_planes(self):
        rng = np.random.default_rng(23)
        for width, shape in (((21, 33), (64, 64)), ((101, 90), (250, 243)),
                             ((40, 40), (97, 128))):
            self.assert_pair_is_scipy(rng.random(width), shape)
            self.assert_pair_is_scipy(rng.random((2, *width)), shape)

    @pytest.mark.parametrize("width, shape", [((256,), (256,)), ((101,), (128,)),
                                              ((2, 64, 64), (64, 64)), ((3, 96, 160), (96, 160))],
                             ids=["line", "zero-filled", "batched-planes", "rectangles"])
    def test_inputs_are_not_written(self, width, shape):
        values = np.random.default_rng(24).random(width)
        before = values.copy()
        spectrum = _rfft(values, shape)
        assert np.array_equal(values, before)
        kept = spectrum.copy()
        _irfft(spectrum, shape)
        assert np.array_equal(spectrum, kept)

    @pytest.mark.parametrize("width, shape", [((256,), (256,)), ((2, 96), (128,)),
                                              ((64, 64), (64, 64)), ((3, 96, 160), (96, 160))],
                             ids=["line", "zero-filled", "plane", "batched-rectangles"])
    def test_buffers_give_the_same_bits(self, width, shape):
        """With a buffer the passes run in place there, with the bits of fresh arrays."""
        values = np.random.default_rng(25).random(width)
        spectrum = _rfft(values, shape)
        buffer = np.empty_like(spectrum)
        assert _rfft(values, shape, out=buffer) is buffer
        assert np.array_equal(buffer, spectrum)
        inverse = _irfft(spectrum, shape)
        in_place = _irfft(buffer, shape, out=buffer)
        assert np.array_equal(in_place, inverse)
        assert not np.shares_memory(in_place, buffer)

    def test_next_fast_len_is_scipy(self):
        from scipy import fft as sp_fft

        assert all(_next_fast_len(n) == sp_fft.next_fast_len(n, True) for n in range(1, 50001))
