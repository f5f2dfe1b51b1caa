"""Dispersal kernel families and their directional reductions.

Five analytic families are supported, all nonnegative and integrable:

* ``gaussian``         exp(-|x - b|^2 / (2 sigma^2)), optional center offset b
* ``laplace``          exp(-mu |x|)
* ``exppoly``          exp(-mu |x|^p) / (1 + |x|^q), p >= 0, q >= 0, mu > 0
* ``compact_uniform``  indicator of the ball of given radius
* ``power_tail``       1 / (1 + |x|^q), q > dimension

Each family carries a tail class that fixes the abscissa of convergence of
the bilateral transform of its one-dimensional directional reduction: the
whole traveling-wave theory hangs on that abscissa.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy import special

from .errors import KernelError

FAMILIES = ("gaussian", "laplace", "exppoly", "compact_uniform", "power_tail")

EXP_DECAY_FINITE = "exp_decay_finite"
EXP_DECAY_INFINITE = "exp_decay_infinite"
HEAVY_TAIL = "heavy_tail"

_QUAD_OPTS = dict(limit=400, epsabs=1e-13, epsrel=1e-11)


def _quad(f, a, b, **kw):
    # imported here, not at module level, so that closed-form kernels never load scipy.integrate
    from scipy import integrate

    opts = dict(_QUAD_OPTS)
    opts.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, a, b, **opts)
    return value


@dataclass(frozen=True)
class KernelSpec:
    """Analytic description of a dispersal density on R^d."""

    family: str
    dimension: int = 1
    sigma: float | None = None
    mu: float | None = None
    p: float | None = None
    q: float | None = None
    radius: float | None = None
    offset: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise KernelError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if self.dimension < 1:
            raise KernelError("dimension must be >= 1")
        needed = {
            "gaussian": ("sigma",),
            "laplace": ("mu",),
            "exppoly": ("p", "q", "mu"),
            "compact_uniform": ("radius",),
            "power_tail": ("q",),
        }[self.family]
        for name in needed:
            value = getattr(self, name)
            if value is None:
                raise KernelError(f"family {self.family!r} requires parameter {name!r}")
        if self.family == "gaussian" and not self.sigma > 0:
            raise KernelError("gaussian sigma must be positive")
        if self.family == "laplace" and not self.mu > 0:
            raise KernelError("laplace mu must be positive")
        if self.family == "exppoly":
            if self.p < 0 or self.q < 0 or not self.mu > 0:
                raise KernelError("exppoly requires p >= 0, q >= 0, mu > 0")
            if self.p == 0 and self.q <= self.dimension:
                raise KernelError("exppoly with p = 0 needs q > dimension for integrability")
        if self.family == "compact_uniform" and not self.radius > 0:
            raise KernelError("compact_uniform radius must be positive")
        if self.family == "power_tail" and not self.q > self.dimension:
            raise KernelError(
                f"power_tail needs q > dimension for integrability (q={self.q}, d={self.dimension})"
            )
        if self.offset is not None:
            if self.family != "gaussian":
                raise KernelError("offset is only supported for the gaussian family")
            if len(self.offset) != self.dimension:
                raise KernelError("offset length must equal dimension")

    @property
    def offset_vector(self) -> np.ndarray:
        if self.offset is None:
            return np.zeros(self.dimension)
        return np.asarray(self.offset, dtype=float)


def _radial_shape(spec: KernelSpec):
    """Unnormalized radial profile r -> shape(r), r >= 0."""
    if spec.family == "gaussian":
        s2 = 2.0 * spec.sigma**2
        return lambda r: np.exp(-np.square(r) / s2)
    if spec.family == "laplace":
        mu = spec.mu
        return lambda r: np.exp(-mu * np.asarray(r, dtype=float))
    if spec.family == "exppoly":
        p, q, mu = spec.p, spec.q, spec.mu
        return lambda r: np.exp(-mu * np.abs(r) ** p) / (1.0 + np.abs(r) ** q)
    if spec.family == "compact_uniform":
        radius = spec.radius
        return lambda r: np.where(np.abs(r) <= radius, 1.0, 0.0)
    if spec.family == "power_tail":
        q = spec.q
        return lambda r: 1.0 / (1.0 + np.abs(r) ** q)
    raise KernelError(f"unhandled family {spec.family!r}")


def _tail_class(spec: KernelSpec) -> tuple[str, float]:
    """Tail class and abscissa lambda_0 of the directional reduction."""
    if spec.family == "gaussian":
        return EXP_DECAY_INFINITE, math.inf
    if spec.family == "laplace":
        return EXP_DECAY_FINITE, spec.mu
    if spec.family == "exppoly":
        if spec.p > 1:
            return EXP_DECAY_INFINITE, math.inf
        if spec.p == 1:
            return EXP_DECAY_FINITE, spec.mu
        # p in [0, 1): sub-exponential decay, no positive exponential moment
        return HEAVY_TAIL, 0.0
    if spec.family == "compact_uniform":
        return EXP_DECAY_INFINITE, math.inf
    return HEAVY_TAIL, 0.0


def _normalizer(spec: KernelSpec) -> float:
    """Constant alpha with alpha * integral(shape) = 1."""
    d = spec.dimension
    if spec.family == "gaussian":
        return (2.0 * math.pi * spec.sigma**2) ** (-d / 2.0)
    if spec.family == "laplace":
        if d == 1:
            return spec.mu / 2.0
        if d == 2:
            return spec.mu**2 / (2.0 * math.pi)
    if spec.family == "compact_uniform":
        if d == 1:
            return 1.0 / (2.0 * spec.radius)
        if d == 2:
            return 1.0 / (math.pi * spec.radius**2)
    shape = _radial_shape(spec)
    if d == 1:
        total = 2.0 * _quad(shape, 0.0, np.inf)
    elif d == 2:
        total = 2.0 * math.pi * _quad(lambda r: shape(r) * r, 0.0, np.inf)
    else:
        raise KernelError("only dimensions 1 and 2 are supported")
    if not total > 0 or not math.isfinite(total):
        raise KernelError(f"kernel {spec} is not integrable (mass {total})")
    return 1.0 / total


@dataclass(frozen=True)
class Kernel:
    """Normalized probability density on R^d with analytic tail data."""

    spec: KernelSpec
    normalizer_alpha: float
    tail_class: str
    abscissa: float

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def eval(self, x) -> np.ndarray:
        """Density at points; x has shape (..., d), or (...,) when d = 1."""
        x = np.asarray(x, dtype=float)
        d = self.dimension
        if d == 1:
            r = np.abs(x - self.spec.offset_vector[0]) if self.spec.offset else np.abs(x)
        else:
            if x.shape[-1] != d:
                raise KernelError(f"points must have {d} components, got shape {x.shape}")
            diff = x - self.spec.offset_vector
            r = np.sqrt(np.sum(np.square(diff), axis=-1))
        return self.normalizer_alpha * _radial_shape(self.spec)(r)

    def mass_outside(self, radius: float) -> float:
        """Probability mass outside the ball of the given radius (offset-centered)."""
        if self.spec.family == "gaussian":
            sigma = self.spec.sigma
            if self.dimension == 1:
                return float(special.erfc(radius / (sigma * math.sqrt(2.0))))
            return math.exp(-radius**2 / (2.0 * sigma**2))
        shape = _radial_shape(self.spec)
        if self.dimension == 1:
            return 2.0 * self.normalizer_alpha * _quad(shape, radius, np.inf)
        return 2.0 * math.pi * self.normalizer_alpha * _quad(
            lambda r: shape(r) * r, radius, np.inf
        )

    def effective_scale(self) -> float:
        """Length scale below which a grid cannot resolve the kernel."""
        spec = self.spec
        if spec.family == "gaussian":
            return spec.sigma
        if spec.family == "laplace":
            return 1.0 / spec.mu
        if spec.family == "exppoly":
            # with p = 0, mu is only a constant factor and sets no length
            return min(1.0, 1.0 / spec.mu) if spec.p > 0 else 1.0
        if spec.family == "compact_uniform":
            return spec.radius
        return 1.0


def make_kernel(spec: KernelSpec) -> Kernel:
    """Build a normalized kernel; rejects non-integrable specifications."""
    alpha = _normalizer(spec)
    tail, lam0 = _tail_class(spec)
    return Kernel(spec=spec, normalizer_alpha=alpha, tail_class=tail, abscissa=lam0)


# ---------------------------------------------------------------------------
# One-dimensional directional reductions
# ---------------------------------------------------------------------------


class Kernel1D:
    """Directional reduction of a kernel: density on the line plus transform data.

    ``transform(lam)`` is the bilateral Laplace transform int a(s) e^{lam s} ds,
    ``weighted_moment1/2`` the companions with factors s and s^2.  All three
    go through ``_moment`` and return ``math.inf`` on analytic divergence
    instead of failing.

    A line without a closed form describes its density as
    a(s) = exp(-decay(|s|)) * factor(s) on [-support, support] through the
    ``_decay``, ``_factor`` and ``_support`` attributes (a planar
    ``RadialLine`` describes its radial density that way instead).
    """

    lambda0: float
    tail_class: str
    # algebraic decay rate of a(s) e^{lambda0 s}: the moment of power k at the
    # abscissa is finite exactly when tail_power > k + 1
    tail_power: float = math.inf
    source: tuple[Kernel, tuple[float, ...]] | None = None

    def eval(self, s) -> np.ndarray:
        raise NotImplementedError

    def transform(self, lam: float) -> float:
        return self._moment(lam, 0)

    def weighted_moment1(self, lam: float) -> float:
        return self._moment(lam, 1)

    def weighted_moment2(self, lam: float) -> float:
        return self._moment(lam, 2)

    def mean(self) -> float:
        return self.weighted_moment1(0.0)

    def _moment(self, lam: float, power: int) -> float:
        """int s^power a(s) e^{lam s} ds; inf where it diverges.

        Every line density is symmetric about its center, so the integral
        converges for |lam| < lambda0 and diverges beyond; at the abscissa the
        tail power decides.
        """
        if abs(lam) > self.lambda0 or (abs(lam) == self.lambda0
                                       and self.tail_power <= power + 1):
            return math.inf
        value = self._closed_form(lam, power)
        return self._quadrature(lam, power) if value is None else value

    def _closed_form(self, lam: float, power: int) -> float | None:
        return None

    def _quadrature(self, lam: float, power: int) -> float:
        """The fused quadrature; an unbounded support is folded onto (0, inf)."""
        decay, factor, support = self._decay, self._factor, self._support
        if math.isinf(support):
            return (_fused_quad(lam, power, decay, factor, 0.0, np.inf)
                    + (-1.0) ** power * _fused_quad(-lam, power, decay, factor, 0.0, np.inf))
        return _fused_quad(lam, power, decay, factor, -support, support)

    def mass_outside(self, radius: float) -> float:
        return _quad(self.eval, radius, np.inf) + _quad(self.eval, -np.inf, -radius)

    def effective_scale(self) -> float:
        if self.source is not None:
            return self.source[0].effective_scale()
        return 1.0


def _fused_quad(lam: float, power: int, decay, factor, lo: float, hi: float) -> float:
    """int_lo^hi s^power exp(min(lam s - decay(s), 700)) factor(s) ds.

    e^{lam s} alone overflows where its product with the density is still
    finite, so the exponents are combined before exponentiating.
    """
    def f(s):
        x = lam * s - decay(s)
        return s**power * math.exp(x if x < 700.0 else 700.0) * factor(s)

    return _quad(f, lo, hi)


def _no_decay(s: float) -> float:
    return 0.0


class GaussianLine(Kernel1D):
    """1-D gaussian with optional drift of the center."""

    def __init__(self, sigma: float, drift: float = 0.0, source=None):
        self.sigma = sigma
        self.drift = drift
        self.lambda0 = math.inf
        self.tail_class = EXP_DECAY_INFINITE
        self.source = source

    def eval(self, s):
        z = (np.asarray(s, dtype=float) - self.drift) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def _closed_form(self, lam, power):
        arg = lam * self.drift + 0.5 * lam * lam * self.sigma**2
        if not arg < 700:
            return math.inf
        t = math.exp(arg)
        if power == 0:
            return t
        m = self.drift + lam * self.sigma**2
        return m * t if power == 1 else (m * m + self.sigma**2) * t

    def mass_outside(self, radius):
        return float(special.erfc(radius / (self.sigma * math.sqrt(2.0))))


class LaplaceLine1(Kernel1D):
    """a(s) = (mu/2) exp(-mu|s|); transform mu^2 / (mu^2 - lam^2)."""

    tail_power = 0.0

    def __init__(self, mu: float, source=None):
        self.mu = mu
        self.lambda0 = mu
        self.tail_class = EXP_DECAY_FINITE
        self.source = source

    def eval(self, s):
        return 0.5 * self.mu * np.exp(-self.mu * np.abs(np.asarray(s, dtype=float)))

    def _closed_form(self, lam, power):
        m2 = self.mu**2
        if power == 0:
            return m2 / (m2 - lam**2)
        if power == 1:
            return 2.0 * lam * m2 / (m2 - lam**2) ** 2
        return 2.0 * m2 * (m2 + 3.0 * lam**2) / (m2 - lam**2) ** 3

    def mass_outside(self, radius):
        return math.exp(-self.mu * radius)


class LaplaceLine2(Kernel1D):
    """Marginal of the 2-D exponential kernel: (mu^2/pi) |s| K1(mu|s|)."""

    tail_power = -0.5

    def __init__(self, mu: float, source=None):
        self.mu = mu
        self.lambda0 = mu
        self.tail_class = EXP_DECAY_FINITE
        self.source = source

    def eval(self, s):
        s = np.abs(np.asarray(s, dtype=float))
        out = np.full_like(s, self.mu / math.pi)
        nz = s > 0
        out[nz] = (self.mu**2 / math.pi) * s[nz] * special.k1(self.mu * s[nz])
        return out

    def _closed_form(self, lam, power):
        m2 = self.mu**2
        if power == 0:
            return self.mu**3 / (m2 - lam**2) ** 1.5
        if power == 1:
            return 3.0 * self.mu**3 * lam / (m2 - lam**2) ** 2.5
        return 3.0 * self.mu**3 * (m2 + 4.0 * lam**2) / (m2 - lam**2) ** 3.5


class UniformLine(Kernel1D):
    """Uniform density on [-R, R]."""

    def __init__(self, radius: float, source=None):
        self.radius = radius
        self.lambda0 = math.inf
        self.tail_class = EXP_DECAY_INFINITE
        self.source = source
        density = 1.0 / (2.0 * radius)
        self._decay, self._factor, self._support = _no_decay, lambda s: density, radius

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(np.abs(s) <= self.radius, 1.0 / (2.0 * self.radius), 0.0)

    def _closed_form(self, lam, power):
        if power:
            return None
        x = lam * self.radius
        if abs(x) < 1e-6:
            return 1.0 + x * x / 6.0
        return math.sinh(x) / x

    def mass_outside(self, radius):
        return 0.0 if radius >= self.radius else 1.0 - radius / self.radius


class ChordLine(Kernel1D):
    """Marginal of the uniform disk: 2 sqrt(R^2 - s^2) / (pi R^2)."""

    def __init__(self, radius: float, source=None):
        self.radius = radius
        self.lambda0 = math.inf
        self.tail_class = EXP_DECAY_INFINITE
        self.source = source
        r = radius
        # eval's arithmetic on scalars, so every quad result keeps its bits;
        # quad samples only the open interval, where |s| < r
        self._decay, self._support = _no_decay, r
        self._factor = lambda s: 2.0 * math.sqrt(r**2 - s * s) / (math.pi * r**2)

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        inside = np.abs(s) <= self.radius
        out = np.zeros_like(s)
        out[inside] = 2.0 * np.sqrt(self.radius**2 - s[inside] ** 2) / (math.pi * self.radius**2)
        return out

    def _closed_form(self, lam, power):
        if power:
            return None
        x = lam * self.radius
        if abs(x) < 1e-6:
            return 1.0 + x * x / 8.0
        return 2.0 * float(special.iv(1, x)) / x

    def mass_outside(self, radius):
        if radius >= self.radius:
            return 0.0
        t = radius / self.radius
        return 1.0 - (2.0 / math.pi) * (t * math.sqrt(1 - t * t) + math.asin(t))


class RadialLine(Kernel1D):
    """Directional reduction of an ``exppoly`` or ``power_tail`` kernel.

    The radial density is g(r) = alpha exp(-mu r^p) / (1 + r^q) (mu = 0 for
    ``power_tail``).  In 1-D the line density is g itself.  In 2-D ``eval`` is
    the Abel integral 2 int_0^inf g(sqrt(s^2 + t^2)) dt, and the moments use
    the radial Bessel representation, e.g. 2 pi int_0^inf g(r) I_0(lam r) r dr
    for the transform.
    """

    def __init__(self, kernel: Kernel, source=None):
        spec = kernel.spec
        self.kernel = kernel
        self.tail_class, self.lambda0 = kernel.tail_class, kernel.abscissa
        self.source = source
        d = spec.dimension
        p, mu = (spec.p, spec.mu) if spec.family == "exppoly" else (0.0, 0.0)
        # a(s) e^{lambda0 s} decays like s^{-q} times s^{(d-1)/2} (p = 1) or
        # s^{d-1} (pure power); any other p decays faster than every power
        if p == 1:
            self.tail_power = spec.q - (d - 1) / 2.0
        elif p == 0:
            self.tail_power = spec.q - (d - 1)
        alpha, q = kernel.normalizer_alpha, spec.q
        self._decay = lambda r: mu * r**p
        self._factor = lambda r: alpha / (1.0 + r**q)
        self._support = math.inf
        shape = _radial_shape(spec)
        self._g = lambda r: alpha * shape(r)

    def eval(self, s):
        if self.kernel.dimension == 1:
            return self.kernel.eval(s)
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s)
        for i, si in enumerate(s.ravel()):
            out.ravel()[i] = 2.0 * _quad(
                lambda t, si=si: float(self._g(math.hypot(si, t))), 0.0, np.inf
            )
        return out if out.size > 1 else float(out[0])

    def _quadrature(self, lam, power):
        if self.kernel.dimension == 1:
            return super()._quadrature(lam, power)
        # 2 pi int_0^inf r^{power+1} g(r) e^{lam r} B(lam r) dr with the scaled
        # Bessel factors B = i0e, i1e and i0e(x) - i1e(x)/x (-> 1/2 at x = 0)
        factor, i0e, i1e = self._factor, special.i0e, special.i1e
        if power == 0:
            weight = lambda r: factor(r) * i0e(lam * r)
        elif power == 1:
            weight = lambda r: factor(r) * i1e(lam * r)
        elif lam == 0.0:
            weight = lambda r: 0.5 * factor(r)
        else:
            weight = lambda r: factor(r) * (i0e(lam * r) - i1e(lam * r) / (lam * r))
        return 2.0 * math.pi * _fused_quad(lam, power + 1, self._decay, weight, 0.0, np.inf)

    def mass_outside(self, radius):
        return self.kernel.mass_outside(radius)


def reduce_to_direction(kernel: Kernel, xi) -> Kernel1D:
    """Marginal density of ``kernel`` along the unit vector ``xi``.

    For d = 1 this is the kernel itself (xi = +1 or -1); for d = 2 the mass
    over the orthogonal complement is integrated out.  Isotropic kernels give
    a direction-independent result.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (kernel.dimension,):
        raise KernelError(f"direction must have {kernel.dimension} components")
    norm = float(np.linalg.norm(xi))
    if abs(norm - 1.0) > 1e-12:
        raise KernelError(f"direction must be a unit vector, |xi| = {norm}")
    spec = kernel.spec
    source = (kernel, tuple(float(c) for c in xi))
    drift = float(np.dot(spec.offset_vector, xi))
    if spec.family == "gaussian":
        return GaussianLine(spec.sigma, drift=drift, source=source)
    if spec.family == "laplace":
        if kernel.dimension == 1:
            return LaplaceLine1(spec.mu, source=source)
        return LaplaceLine2(spec.mu, source=source)
    if spec.family == "compact_uniform":
        if kernel.dimension == 1:
            return UniformLine(spec.radius, source=source)
        return ChordLine(spec.radius, source=source)
    return RadialLine(kernel, source=source)


# ---------------------------------------------------------------------------
# Sampling on periodic grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Samples:
    """Kernel weights with their real FFT spectra, cached per transform shape."""

    weights: np.ndarray
    spacing: float
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def spectrum(self, shape: tuple[int, ...]) -> np.ndarray:
        """rfftn of the weights zero-filled to ``shape``, computed once per shape."""
        if shape not in self._spectra:
            self._spectra[shape] = sp_fft.rfftn(self.weights, shape)
        return self._spectra[shape]


@dataclass(frozen=True)
class SampledWeights(_Samples):
    """Kernel samples on the displacement lattice of a periodic grid.

    ``weights`` is stored in FFT order (zero displacement first) so that
    ``irfftn(rfftn(u) * spectrum(shape))`` is the circular convolution.  For
    exponentially decaying kernels the weights are renormalized to sum to one
    exactly; heavy tails keep their truncated mass so the truncated-equation
    theory applies verbatim.
    """

    mass: float
    renormalized: bool

    @property
    def shape(self) -> tuple[int, ...]:
        return self.weights.shape


def _displacement_coords(n: int, h: float) -> np.ndarray:
    """Signed displacements in FFT order: 0, h, ..., -2h, -h."""
    idx = np.arange(n)
    idx = np.where(idx <= n // 2 - 1, idx, idx - n) if n % 2 == 0 else np.where(
        idx <= n // 2, idx, idx - n
    )
    return idx * h


def discretize(kernel, grid) -> SampledWeights:
    """Midpoint samples of a kernel on the grid's displacement lattice.

    ``kernel`` may be a ``Kernel`` matching the grid dimension or a
    ``Kernel1D`` on a 1-D grid.  Rejects under-resolved kernels and, for
    exponential tails, grids covering less than 99.99% of the mass.
    """
    is_line = isinstance(kernel, Kernel1D)
    dim = 1 if is_line else kernel.dimension
    if dim != grid.dimension:
        raise KernelError(f"kernel dimension {dim} does not match grid dimension {grid.dimension}")

    scale = kernel.effective_scale()
    if scale < grid.spacing:
        raise KernelError(
            f"kernel scale {scale:.3g} is below the grid spacing {grid.spacing:.3g}; "
            "refine the grid (h must not exceed the kernel scale)"
        )
    if scale < 4.0 * grid.spacing:
        warnings.warn(
            f"kernel scale {scale:.3g} is marginal against spacing {grid.spacing:.3g}",
            stacklevel=2,
        )

    tail = kernel.tail_class
    if tail in (EXP_DECAY_FINITE, EXP_DECAY_INFINITE):
        outside = kernel.mass_outside(grid.half_length)
        if outside > 1e-4:
            suggest = grid.half_length
            while kernel.mass_outside(suggest) > 1e-4:
                suggest *= 2.0
            raise KernelError(
                f"grid covers only {1.0 - outside:.6f} of the kernel mass; "
                f"increase half_length to at least {suggest:g}"
            )

    coords = _displacement_coords(grid.points_per_axis, grid.spacing)
    if dim == 1:
        values = np.asarray(kernel.eval(coords), dtype=float)
    else:
        gx, gy = np.meshgrid(coords, coords, indexing="ij")
        pts = np.stack([gx, gy], axis=-1)
        values = np.asarray(kernel.eval(pts), dtype=float)
    weights = values * grid.spacing**dim
    mass = float(weights.sum())

    if tail in (EXP_DECAY_FINITE, EXP_DECAY_INFINITE):
        weights = weights / mass
        flat = weights.reshape(-1)
        k = int(np.argmax(flat))
        flat[k] += 1.0 - flat.sum()  # pin the sum to exactly one
        return SampledWeights(weights=weights, spacing=grid.spacing, mass=1.0, renormalized=True)
    return SampledWeights(weights=weights, spacing=grid.spacing, mass=mass, renormalized=False)
