"""Dispersal kernel families and their directional reductions.

Five analytic families are supported, all nonnegative and integrable:

* ``gaussian``         exp(-|x - b|^2 / (2 sigma^2)), optional center offset b
* ``laplace``          exp(-mu |x|)
* ``exppoly``          exp(-mu |x|^p) / (1 + |x|^q)
* ``compact_uniform``  indicator of the ball of given radius
* ``power_tail``       1 / (1 + |x|^q), read as ``exppoly`` with p = 0 and mu = 0

``_FAMILIES`` states what each family reads, ``_RANGES`` each parameter's
range; ``Kernel`` refuses any other parameter, and a normalizer that is not
a positive finite number (a density not integrable in floating point).

Each family fixes the abscissa of convergence of the bilateral transform of
its one-dimensional directional reduction: the whole traveling-wave theory
hangs on that abscissa.
"""
from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import KernelError
from .grids import DIMENSIONS, lattice

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


def _radial_shape(kernel: Kernel):
    """Unnormalized radial profile r -> shape(r), r >= 0, named by the parameters its
    family reads: sigma, radius, mu alone (laplace), or q (exppoly, power_tail's p = mu = 0)."""
    if kernel.sigma is not None:
        s2 = 2.0 * kernel.sigma**2
        return lambda r: np.exp(-np.square(r) / s2)
    if kernel.radius is not None:
        radius = kernel.radius
        return lambda r: np.where(np.abs(r) <= radius, 1.0, 0.0)
    if kernel.q is None:
        mu = kernel.mu
        return lambda r: np.exp(-mu * np.asarray(r, dtype=float))
    p, q, mu = kernel.p or 0.0, kernel.q, kernel.mu or 0.0
    return lambda r: np.exp(-mu * np.abs(r) ** p) / (1.0 + np.abs(r) ** q)


def _abscissa(kernel: Kernel) -> float:
    """Abscissa lambda_0 of the directional reduction: 0 for a heavy tail."""
    family, p = kernel.family, kernel.p
    if family == "laplace" or (family == "exppoly" and p == 1):
        return kernel.mu
    if family in ("gaussian", "compact_uniform") or (family == "exppoly" and p > 1):
        return math.inf
    # power_tail, and exppoly with p in [0, 1): no positive exponential moment
    return 0.0


def _normalizer(kernel: Kernel) -> float:
    """Constant alpha with alpha * integral(shape) = 1."""
    d = kernel.dimension
    if kernel.family == "gaussian":
        return (2.0 * math.pi * kernel.sigma**2) ** (-d / 2.0)
    if kernel.family == "laplace":
        if d == 1:
            return kernel.mu / 2.0
        if d == 2:
            return kernel.mu**2 / (2.0 * math.pi)
    if kernel.family == "compact_uniform":
        if d == 1:
            return 1.0 / (2.0 * kernel.radius)
        if d == 2:
            return 1.0 / (math.pi * kernel.radius**2)
    shape = _radial_shape(kernel)
    if d == 1:
        return 1.0 / (2.0 * _quad(shape, 0.0, np.inf))
    return 1.0 / (2.0 * math.pi * _quad(lambda r: shape(r) * r, 0.0, np.inf))


@dataclass(frozen=True)
class Kernel:
    """Normalized probability density on R^d: an analytic family and its parameters.

    Construction validates the parameters and computes the normalizer
    ``normalizer_alpha`` and the abscissa once; two kernels are equal when
    their family, dimension and parameters are.
    """

    family: str
    dimension: int = 1
    sigma: float | None = None
    mu: float | None = None
    p: float | None = None
    q: float | None = None
    radius: float | None = None
    offset: tuple[float, ...] | None = None
    normalizer_alpha: float = field(init=False, compare=False, repr=False)
    abscissa: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise KernelError(f"unknown kernel family {self.family!r}; "
                              f"expected one of {tuple(_FAMILIES)}")
        if self.dimension not in DIMENSIONS:
            raise KernelError(f"dimension must be 1 or 2, got {self.dimension}")
        required, reads, _ = _FAMILIES[self.family]
        for name, (ok, rule) in _RANGES.items():
            value = getattr(self, name)
            if value is None:
                if name in required:
                    raise KernelError(f"family {self.family!r} requires parameter {name!r}")
            elif name not in required + reads:
                raise KernelError(f"family {self.family!r} does not read parameter {name!r}")
            elif not ok(self):
                raise KernelError(f"{self.family} {name} must {rule}; "
                                  f"got {value} in d = {self.dimension}")
        try:
            alpha = _normalizer(self)
        except ArithmeticError:
            alpha = math.nan
        if not 0 < alpha < math.inf:
            raise KernelError(f"kernel {self} is not integrable in floating point "
                              f"(normalizer {alpha})")
        object.__setattr__(self, "normalizer_alpha", alpha)
        object.__setattr__(self, "abscissa", _abscissa(self))

    @property
    def offset_vector(self) -> np.ndarray:
        if self.offset is None:
            return np.zeros(self.dimension)
        return np.asarray(self.offset, dtype=float)

    @property
    def radial(self) -> bool:
        """Whether the density depends on |x| alone: every family is, unless offset."""
        return self.offset is None

    def eval(self, x) -> np.ndarray:
        """Density at points x of shape (..., d), in 1-D too; the result has shape (...)."""
        x = np.asarray(x, dtype=float)
        d = self.dimension
        if x.ndim == 0 or x.shape[-1] != d:
            raise KernelError(f"points must have {d} components, got shape {x.shape}")
        r = np.sqrt(np.sum(np.square(x - self.offset_vector), axis=-1))
        return self.normalizer_alpha * _radial_shape(self)(r)

    def mass_outside(self, radius: float) -> float:
        """Probability mass outside the ball of the given radius (offset-centered)."""
        if self.family == "gaussian":
            sigma = self.sigma
            if self.dimension == 1:
                return math.erfc(radius / (sigma * math.sqrt(2.0)))
            return math.exp(-radius**2 / (2.0 * sigma**2))
        if self.family == "laplace":
            x = self.mu * radius
            return math.exp(-x) if self.dimension == 1 else (1.0 + x) * math.exp(-x)
        if self.family == "compact_uniform":
            t = min(radius / self.radius, 1.0)
            return 1.0 - t if self.dimension == 1 else 1.0 - t * t
        shape = _radial_shape(self)
        if self.dimension == 1:
            return 2.0 * self.normalizer_alpha * _quad(shape, radius, np.inf)
        return 2.0 * math.pi * self.normalizer_alpha * _quad(
            lambda r: shape(r) * r, radius, np.inf
        )

    def effective_scale(self) -> float:
        """Length scale below which a grid cannot resolve the kernel."""
        if self.family == "gaussian":
            return self.sigma
        if self.family == "laplace":
            return 1.0 / self.mu
        if self.family == "exppoly":
            # with p = 0, mu is only a constant factor and sets no length
            return min(1.0, 1.0 / self.mu) if self.p > 0 else 1.0
        if self.family == "compact_uniform":
            return self.radius
        return 1.0


# ---------------------------------------------------------------------------
# One-dimensional directional reductions
# ---------------------------------------------------------------------------


class Kernel1D:
    """Directional reduction of a kernel: density on the line plus transform data.

    A view of ``kernel`` along ``xi`` that only ``reduce_to_direction`` builds: its
    abscissa ``lambda0``, length scale and family parameters are the kernel's.
    So are its density, where the kernel is 1-D, and its ``mass_outside``: the
    mass outside a ball bounds that outside [-radius, radius] on a radial
    kernel's line, and equals it in 1-D.  Only the drifted ``GaussianLine``,
    no radial marginal, states its own.
    ``transform(lam)`` is the bilateral Laplace transform int a(s) e^{lam s} ds,
    ``weighted_moment1/2`` the companions with factors s and s^2.  All three
    go through ``_moment`` and return ``math.inf`` on analytic divergence
    instead of failing; inside the abscissa each line computes them in
    ``_integral``, in closed form except for ``RadialLine``.
    """

    # algebraic decay rate of a(s) e^{lambda0 s}: the moment of power k at the
    # abscissa is finite exactly when tail_power > k + 1
    tail_power: float = math.inf

    def __init__(self, kernel: Kernel, xi: np.ndarray):
        self.kernel = kernel
        self.lambda0 = kernel.abscissa

    def eval(self, s) -> np.ndarray:
        return self.kernel.eval(np.asarray(s, dtype=float)[..., None])

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
        tail power decides.  A scale past the float range, where ``_integral``
        overflows or divides by zero, is refused with a ``KernelError``.
        """
        if abs(lam) > self.lambda0 or (abs(lam) == self.lambda0
                                       and self.tail_power <= power + 1):
            return math.inf
        try:
            return self._integral(lam, power)
        except ArithmeticError as exc:
            raise KernelError(f"{self.kernel.family} line moment of power {power} at lambda "
                              f"= {lam:g} leaves the float range ({type(exc).__name__})") from exc

    def _integral(self, lam: float, power: int) -> float:
        """int s^power a(s) e^{lam s} ds for lam inside the abscissa."""
        raise NotImplementedError

    def mass_outside(self, radius: float) -> float:
        return self.kernel.mass_outside(radius)

    def effective_scale(self) -> float:
        return self.kernel.effective_scale()


def _fused_quad(lam: float, power: int, decay, factor) -> float:
    """int_0^inf s^power exp(min(lam s - decay(s), 700)) factor(s) ds.

    e^{lam s} alone overflows where its product with the density is still
    finite, so the exponents are combined before exponentiating.
    """
    def f(s):
        x = lam * s - decay(s)
        return s**power * math.exp(x if x < 700.0 else 700.0) * factor(s)

    return _quad(f, 0.0, np.inf)


class GaussianLine(Kernel1D):
    """1-D gaussian, its center drifted by offset . xi."""

    def __init__(self, kernel: Kernel, xi: np.ndarray):
        super().__init__(kernel, xi)
        self.drift = float(np.dot(kernel.offset_vector, xi))

    def eval(self, s):
        sigma = self.kernel.sigma
        z = (np.asarray(s, dtype=float) - self.drift) / sigma
        return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))

    def _integral(self, lam, power):
        sigma = self.kernel.sigma
        arg = lam * self.drift + 0.5 * lam * lam * sigma**2
        if not arg < 700:
            return math.inf
        t = math.exp(arg)
        if power == 0:
            return t
        m = self.drift + lam * sigma**2
        return m * t if power == 1 else (m * m + sigma**2) * t

    def mass_outside(self, radius):
        scale = self.kernel.sigma * math.sqrt(2.0)
        return (0.5 * math.erfc((radius - self.drift) / scale)
                + 0.5 * math.erfc((radius + self.drift) / scale))


class LaplaceLine1(Kernel1D):
    """a(s) = (mu/2) exp(-mu|s|); transform mu^2 / (mu^2 - lam^2)."""

    tail_power = 0.0

    def _integral(self, lam, power):
        m2 = self.kernel.mu**2
        if power == 0:
            return m2 / (m2 - lam**2)
        if power == 1:
            return 2.0 * lam * m2 / (m2 - lam**2) ** 2
        return 2.0 * m2 * (m2 + 3.0 * lam**2) / (m2 - lam**2) ** 3


class LaplaceLine2(Kernel1D):
    """Marginal of the 2-D exponential kernel: (mu^2/pi) |s| K1(mu|s|)."""

    tail_power = -0.5

    def eval(self, s):
        from scipy.special import k1

        mu = self.kernel.mu
        s = np.abs(np.asarray(s, dtype=float))
        out = np.full_like(s, mu / math.pi)
        nz = s > 0
        out[nz] = (mu**2 / math.pi) * s[nz] * k1(mu * s[nz])
        return out

    def _integral(self, lam, power):
        mu = self.kernel.mu
        m2 = mu**2
        if power == 0:
            return mu**3 / (m2 - lam**2) ** 1.5
        if power == 1:
            return 3.0 * mu**3 * lam / (m2 - lam**2) ** 2.5
        return 3.0 * mu**3 * (m2 + 4.0 * lam**2) / (m2 - lam**2) ** 3.5


# |lam R| from which the compact lines' moments count as infinite, as GaussianLine's do:
# sinh and the Bessel functions overflow just past 710
_OVERFLOW = 700.0


class UniformLine(Kernel1D):
    """Uniform density on [-R, R]; with x = lam R its moments are sinh(x)/x,
    R (x cosh x - sinh x)/x^2 and R^2 ((x^2 + 2) sinh x - 2 x cosh x)/x^3."""

    def _integral(self, lam, power):
        r = self.kernel.radius
        x = lam * r
        if not abs(x) < _OVERFLOW:
            return math.inf
        if power == 0:
            return 1.0 + x * x / 6.0 if abs(x) < 1e-6 else math.sinh(x) / x
        if abs(x) < 1.0:
            # the closed forms cancel here; int_{-1}^{1} t^power e^{x t} dt / 2 as a series
            return r**power * sum(x**n / (math.factorial(n) * (n + power + 1))
                                  for n in range(power % 2, 20, 2))
        # the closed forms divided through by x, so that no product overflows before sinh
        sinh, cosh = math.sinh(x), math.cosh(x)
        if power == 1:
            return r * (cosh - sinh / x) / x
        return r**2 * ((1.0 + 2.0 / (x * x)) * sinh - 2.0 * cosh / x) / x


def _bessel_i(n: int, x: float) -> float:
    """Modified Bessel function I_n(x) by its power series sum_k (x/2)^{2k+n} / (k! (k+n)!).

    The terms share one sign, so the sum loses nothing to cancellation; it stops
    when a term no longer changes it, after at most 464 terms for |x| < 700.
    """
    term = (0.5 * x) ** n / math.factorial(n)
    quarter_x2 = 0.25 * x * x
    total, k = term, 0
    while True:
        k += 1
        term *= quarter_x2 / (k * (k + n))
        if total + term == total:
            return total
        total += term


class ChordLine(Kernel1D):
    """Marginal of the uniform disk: 2 sqrt(R^2 - s^2) / (pi R^2); with x = lam R its
    moments are 2 I_1(x)/x, 2 R I_2(x)/x and 2 R^2 (I_3(x)/x + I_2(x)/x^2)."""

    def eval(self, s):
        r = self.kernel.radius
        s = np.asarray(s, dtype=float)
        inside = np.abs(s) <= r
        out = np.zeros_like(s)
        out[inside] = 2.0 * np.sqrt(r**2 - s[inside] ** 2) / (math.pi * r**2)
        return out

    def _integral(self, lam, power):
        r = self.kernel.radius
        x = lam * r
        if not abs(x) < _OVERFLOW:
            return math.inf
        if abs(x) < 1e-6:
            return (1.0 + x * x / 8.0, r * x / 4.0, r * r * (0.25 + x * x / 16.0))[power]
        if power == 0:
            return 2.0 * _bessel_i(1, x) / x
        if power == 1:
            return 2.0 * r * _bessel_i(2, x) / x
        return 2.0 * r * r * (_bessel_i(3, x) / x + _bessel_i(2, x) / (x * x))


class RadialLine(Kernel1D):
    """Directional reduction of an ``exppoly`` or ``power_tail`` kernel.

    The radial density is g(r) = alpha exp(-mu r^p) / (1 + r^q) (p = mu = 0
    for ``power_tail``).  In 1-D the line density is g itself.  In 2-D ``eval`` is
    the Abel integral 2 int_0^inf g(sqrt(s^2 + t^2)) dt, and the moments use
    the radial Bessel representation, e.g. 2 pi int_0^inf g(r) I_0(lam r) r dr
    for the transform.
    """

    def __init__(self, kernel: Kernel, xi: np.ndarray):
        super().__init__(kernel, xi)
        d = kernel.dimension
        p, mu = kernel.p or 0.0, kernel.mu or 0.0  # power_tail reads as p = 0, mu = 0
        # a(s) e^{lambda0 s} decays like s^{-q} times s^{(d-1)/2} (p = 1) or
        # s^{d-1} (pure power); any other p decays faster than every power
        if p == 1:
            self.tail_power = kernel.q - (d - 1) / 2.0
        elif p == 0:
            self.tail_power = kernel.q - (d - 1)
        alpha, q = kernel.normalizer_alpha, kernel.q
        self._decay = lambda r: mu * r**p
        self._factor = lambda r: alpha / (1.0 + r**q)
        shape = _radial_shape(kernel)
        self._g = lambda r: alpha * shape(r)

    def eval(self, s):
        if self.kernel.dimension == 1:
            return super().eval(s)
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        for i, si in enumerate(s.ravel()):
            out.ravel()[i] = 2.0 * _quad(
                lambda t, si=si: float(self._g(math.hypot(si, t))), 0.0, np.inf
            )
        return out

    def _integral(self, lam, power):
        decay, factor = self._decay, self._factor
        if self.kernel.dimension == 1:
            # the line density is g itself: fold the line onto (0, inf)
            return (_fused_quad(lam, power, decay, factor)
                    + (-1.0) ** power * _fused_quad(-lam, power, decay, factor))
        from scipy.special import i0e, i1e

        # 2 pi int_0^inf r^{power+1} g(r) e^{lam r} B(lam r) dr with the scaled
        # Bessel factors B = i0e, i1e and i0e(x) - i1e(x)/x (-> 1/2 at x = 0)
        if power == 0:
            weight = lambda r: factor(r) * i0e(lam * r)
        elif power == 1:
            weight = lambda r: factor(r) * i1e(lam * r)
        elif lam == 0.0:
            weight = lambda r: 0.5 * factor(r)
        else:
            weight = lambda r: factor(r) * (i0e(lam * r) - i1e(lam * r) / (lam * r))
        return 2.0 * math.pi * _fused_quad(lam, power + 1, decay, weight)


# family -> (the parameters it requires, the other parameters it reads, its line class
# in d = 1 and in d = 2); ``Kernel`` refuses any other parameter
_FAMILIES = {
    "gaussian": (("sigma",), ("offset",), (GaussianLine, GaussianLine)),
    "laplace": (("mu",), (), (LaplaceLine1, LaplaceLine2)),
    "exppoly": (("p", "q", "mu"), (), (RadialLine, RadialLine)),
    "compact_uniform": (("radius",), (), (UniformLine, ChordLine)),
    "power_tail": (("q",), (), (RadialLine, RadialLine)),
}

# parameter -> (whether a kernel's value is in range, the range); q's reads p, as 0 if unread
_RANGES = {
    "sigma": (lambda k: k.sigma > 0, "be positive"),
    "mu": (lambda k: k.mu > 0, "be positive"),
    "p": (lambda k: k.p >= 0, "be nonnegative"),
    "q": (lambda k: k.q >= 0 if k.p else k.q > k.dimension,
          "exceed the dimension when p is 0 or unread, else be nonnegative"),
    "radius": (lambda k: k.radius > 0, "be positive"),
    "offset": (lambda k: len(k.offset) == k.dimension, "have one coordinate per dimension"),
}


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
    return _FAMILIES[kernel.family][-1][kernel.dimension - 1](kernel, xi)  # its line class


def _per_kernel(f, plus, minus, *args):
    """``(f(plus, *args), f(minus, *args))``, one object made once when ``minus is plus``.

    The one identical-kernel rule: equal kernel sections parse to one ``Kernel``, and
    each line, sample or weights object made from it by this rule is one object again.
    """
    first = f(plus, *args)
    return first, first if minus is plus else f(minus, *args)


# ---------------------------------------------------------------------------
# Real transforms and sampling on periodic grids
# ---------------------------------------------------------------------------


@cache
def _fast_lengths() -> list[int]:
    """The 5-smooth numbers up to 2^40, ascending: the lengths pocketfft factors fully."""
    limit = 2**40
    lengths = []
    for i in range(41):
        p3 = 2**i
        while p3 <= limit:
            p5 = p3
            while p5 <= limit:
                lengths.append(p5)
                p5 *= 5
            p3 *= 3
    return sorted(lengths)


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth length >= n, the length a window or line pad is padded to."""
    lengths = _fast_lengths()
    return lengths[bisect.bisect_left(lengths, n)]


def _rfft(values: np.ndarray, shape: tuple[int, ...],
          out: np.ndarray | None = None) -> np.ndarray:
    """Real FFT over the trailing ``len(shape)`` axes of ``values``, zero-filled to ``shape``.

    Leading axes are a batch.  The one forward transform the package makes: numpy's
    real pass on the last axis, then a complex pass on each other axis.  Without
    ``out`` each pass returns a fresh array and ``values`` is never written.  With
    ``out`` (complex, of the spectrum's shape, so only the last axis can be
    zero-filled) the real pass writes into it, the complex passes run in place
    there, and ``out`` is returned.
    """
    spectrum = np.fft.rfft(values, shape[-1], out=out)
    for axis in range(-len(shape), -1):
        spectrum = np.fft.fft(spectrum, shape[axis], axis=axis, out=out)
    return spectrum


def _irfft(spectrum: np.ndarray, shape: tuple[int, ...], out: np.ndarray | None = None,
           result: np.ndarray | None = None) -> np.ndarray:
    """Inverse of ``_rfft``: real values of ``shape`` on the trailing axes.

    The passes are unnormalised and the result is scaled once by 1 / prod(shape).
    The complex passes write into ``out`` when it is given (of the spectrum's shape;
    it may be ``spectrum`` itself, which then runs them in place), else into fresh
    arrays; the real pass writes into ``result`` when it is given, else into a
    fresh array.
    """
    for axis in range(-len(shape), -1):
        spectrum = np.fft.ifft(spectrum, shape[axis], axis=axis, norm="forward", out=out)
    values = np.fft.irfft(spectrum, shape[-1], norm="forward", out=result)
    values *= 1.0 / math.prod(shape)
    return values


@dataclass(frozen=True)
class _Samples:
    """Kernel weights with their real FFT spectra, cached per transform shape."""

    weights: np.ndarray
    spacing: float
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def spectrum(self, shape: tuple[int, ...]) -> np.ndarray:
        """``_rfft`` of the weights laid out at ``shape``, computed once per shape."""
        if shape not in self._spectra:
            self._spectra[shape] = _rfft(self._laid_out(shape), shape)
        return self._spectra[shape]

    def _laid_out(self, shape: tuple[int, ...]) -> np.ndarray:
        """The weights as a transform of ``shape`` sees them: zero-filled to it."""
        return self.weights


@dataclass(frozen=True)
class SampledWeights(_Samples):
    """Kernel samples on the displacement lattice of a periodic grid.

    ``weights`` is stored in FFT order (zero displacement first) so that
    ``_irfft(_rfft(u, shape) * spectrum(shape), shape)`` is the circular convolution.  For
    exponentially decaying kernels the weights are renormalized to sum to one
    exactly; heavy tails keep their truncated mass so the truncated-equation
    theory applies verbatim.
    """

    @property
    def shape(self) -> tuple[int, ...]:
        return self.weights.shape

    @cached_property
    def reach(self) -> int:
        """Smallest displacement r, in cells, beyond which the weights' |mass| is at most eps.

        eps is ``np.finfo(float).eps`` of the total |mass|, and a displacement
        counts its largest axis component, so the weights outside the box
        [-r, r]^d carry at most that much.  A compact kernel reaches exactly its
        support; a heavy tail reaches the whole grid.
        """
        axes = [np.minimum(np.arange(n), n - np.arange(n)) for n in self.shape]
        cells = axes[0] if len(axes) == 1 else np.maximum.outer(*axes)
        mass = np.bincount(cells.ravel(), weights=np.abs(self.weights).ravel())
        at_or_beyond = np.cumsum(mass[::-1])[::-1]
        beyond = np.append(at_or_beyond[1:], 0.0)
        return int(np.flatnonzero(beyond <= np.finfo(float).eps * at_or_beyond[0])[0])

    def _laid_out(self, shape: tuple[int, ...]) -> np.ndarray:
        """At the grid's shape the weights; at a smaller one (a window of the grid), the
        weights within ``reach`` of zero displacement, wrapped at that shape."""
        if shape == self.shape:
            return self.weights
        r = self.reach
        if min(shape) <= 2 * r:
            raise ValueError(f"shape {shape} cannot hold the weights' reach of {r} cells")
        disp = np.arange(-r, r + 1)
        out = np.zeros(shape)
        out[np.ix_(*[disp % n for n in shape])] = self.weights[
            np.ix_(*[disp % n for n in self.shape])]
        return out


def _displacements(grid) -> np.ndarray:
    """The grid's displacement lattice in FFT order (0, h, ..., -2h, -h per axis),
    shape ``grid.shape + (d,)``."""
    n = grid.points_per_axis
    idx = np.arange(n)
    idx = np.where(idx < n // 2, idx, idx - n)
    return lattice(idx * grid.spacing, grid.dimension)


def _check_resolution(kernel, h: float, key: str) -> None:
    """Refuse a kernel whose ``effective_scale`` is below the spacing h; warn below 4h.

    The warning names ``key``, the config key that sets h: the source line it is
    attributed to lies inside the package (``_per_kernel`` for most kernels).
    """
    scale = kernel.effective_scale()
    if scale < h:
        raise KernelError(
            f"kernel scale {scale:.3g} is below the grid spacing {h:.3g}; "
            "refine the grid (h must not exceed the kernel scale)"
        )
    if scale < 4.0 * h:
        warnings.warn(f"kernel scale {scale:.3g} is marginal against spacing {h:.3g}; "
                      f"refine {key}", stacklevel=3)


def _unit_sum(weights: np.ndarray, pin: int | None = None) -> np.ndarray:
    """``weights`` scaled to sum to exactly one, the rounding remainder added at the
    flat index ``pin``: by default that of the largest weight."""
    out = weights / weights.sum()
    flat = out.reshape(-1)
    flat[int(np.argmax(flat)) if pin is None else pin] += 1.0 - flat.sum()
    return out


def discretize(kernel: Kernel, grid) -> SampledWeights:
    """Midpoint samples of a kernel on the grid's displacement lattice.

    Rejects under-resolved kernels and, for exponential tails, grids covering
    less than 99.99% of the mass.
    """
    dim = kernel.dimension
    if dim != grid.dimension:
        raise KernelError(f"kernel dimension {dim} does not match grid dimension {grid.dimension}")

    _check_resolution(kernel, grid.spacing, "[grid] points")

    light = kernel.abscissa > 0  # an exponential tail
    if light:
        # the lattice [-L, L) holds the ball of radius L - |offset| about the offset
        offset = float(np.linalg.norm(kernel.offset_vector))
        outside = kernel.mass_outside(max(grid.half_length - offset, 0.0))
        if outside > 1e-4:
            suggest = grid.half_length
            while kernel.mass_outside(max(suggest - offset, 0.0)) > 1e-4:
                suggest *= 2.0
            raise KernelError(
                f"grid covers only {1.0 - outside:.6f} of the kernel mass; "
                f"increase half_length to at least {suggest:g}"
            )

    weights = kernel.eval(_displacements(grid)) * grid.spacing**dim

    if light:
        weights = _unit_sum(weights)
    return SampledWeights(weights=weights, spacing=grid.spacing)
