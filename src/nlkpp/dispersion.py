"""Traveling-wave dispersion theory.

Everything here is driven by the bilateral transform of the directional
kernel reduction ``T(lam) = int a(s) e^{lam s} ds`` and the function

    G(lam) = (kappa_plus * T(lam) - m) / lam,

whose minimum over the convergence interval is the minimal wave speed.  The
minimizer is located by monotone bisection on

    H(lam) = lam F'(lam) - F(lam) = m - t(lam),

where ``t(lam) = kappa_plus * int (1 - lam s) a(s) e^{lam s} ds`` is strictly
decreasing; H < 0 left of the minimizer and H > 0 right of it.  A wave speed
is tested against c* in one place, ``_at_minimal_speed``, for either sign of c*.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MollisonFailure, UnsupportedCriticalCase
from .kernels import Kernel, Kernel1D, reduce_to_direction
from .params import ModelParams

V_CLASS = "V"
W_CLASS = "W"

# absolute tolerance for declaring the W-class boundary m = t(lambda0)
_BOUNDARY_TOL = 1e-8


@dataclass(frozen=True)
class DispersionReport:
    """Minimal-speed data for one direction."""

    lambda_star: float
    c_star: float
    kernel_class: str
    t_xi_at_lambda0: float | None
    m_xi: float


def dispersion_G(params: ModelParams, k: Kernel1D, lam: float, value=None) -> float:
    """G(lam) = (kappa_plus * T(lam) - m) / lam on the convergence interval, with T(lam)
    computed unless given as ``value``."""
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    value = k.transform(lam) if value is None else value
    if math.isinf(value):
        raise ValueError(f"transform diverges at lambda = {lam} (abscissa {k.lambda0})")
    return (params.kappa_plus * value - params.mortality) / lam


def t_xi(params: ModelParams, k: Kernel1D, lam: float) -> float:
    """kappa_plus * int (1 - lam s) a(s) e^{lam s} ds; -inf when the moment diverges."""
    if not 0 < lam <= k.lambda0:
        raise ValueError(f"lambda must lie in (0, {k.lambda0}], got {lam}")
    value = k.transform(lam)
    if math.isinf(value):
        raise ValueError(f"transform diverges at lambda = {lam}")
    return _t_xi(params, k, lam, value)


def _t_xi(params: ModelParams, k: Kernel1D, lam: float, value: float) -> float:
    """``t_xi`` at lam from the transform ``value`` there."""
    m1 = k.weighted_moment1(lam)
    if math.isinf(m1):
        return -math.inf
    return params.kappa_plus * (value - lam * m1)


def _H(params: ModelParams, k: Kernel1D, lam: float) -> float:
    """H(lam) = m - t(lam); strictly increasing on the convergence interval.

    +inf where the transform diverges, since the first moment diverges there too.
    """
    return params.mortality - _t_xi(params, k, lam, k.transform(lam))


def _bisect(below, lo: float, hi: float, rtol: float) -> float:
    """Midpoint of [lo, hi] bisected onto the point where ``below`` turns false.

    ``below`` holds at lo and fails at hi.  At most 200 halvings, each keeping
    the half across which it turns, until hi - lo <= rtol * max(1, hi).  The
    one root finder: lambda*, lambda_c and the wave solver's plateau rate.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def classify(params: ModelParams, k: Kernel1D) -> str:
    """V when the minimizer is interior, W when it sits at the abscissa."""
    lam0 = k.lambda0
    if lam0 == 0.0:
        raise MollisonFailure("kernel has no positive exponential moment")
    return _at_abscissa(params, k)[0]


def _at_abscissa(params: ModelParams, k: Kernel1D) -> tuple[str, float, float | None]:
    """(class, T(lambda0), t(lambda0)) from one transform and one first moment at lambda0.

    T is inf where lambda0 is infinite or the transform diverges there, and t
    is then None.
    """
    lam0 = k.lambda0
    value = math.inf if math.isinf(lam0) else k.transform(lam0)
    if math.isinf(value):
        return V_CLASS, value, None
    t0 = _t_xi(params, k, lam0, value)
    return (W_CLASS if t0 >= params.mortality - _BOUNDARY_TOL else V_CLASS), value, t0


def directional_mean(kernel: Kernel, xi) -> float:
    """First directional moment int (x . xi) a(x) dx."""
    mean = reduce_to_direction(kernel, xi).mean()
    if math.isinf(mean):
        raise ValueError("first moment of the kernel diverges in this direction")
    return mean


def global_mean(kernel: Kernel) -> np.ndarray:
    """First moment vector int x a(x) dx."""
    return np.array([directional_mean(kernel, xi) for xi in np.eye(kernel.dimension)])


def minimize_G(params: ModelParams, k: Kernel1D) -> DispersionReport:
    """Minimal wave speed c* = min G and its unique minimizer lambda*.

    Raises MollisonFailure when the abscissa is zero (no finite speed) and
    validates the first-order condition / alternative speed representation.
    """
    params.require_carrying_capacity()
    lam0 = k.lambda0
    if lam0 == 0.0:
        raise MollisonFailure(
            "dispersal kernel has abscissa zero: no finite minimal speed "
            "(run the acceleration scenario instead)"
        )

    kernel_class, value, t_at_lam0 = _at_abscissa(params, k)
    if kernel_class == W_CLASS:
        lam_star = lam0
    else:
        # Bracket the sign change of H, then bisect.
        lo = min(1e-6, lam0 / 4 if math.isfinite(lam0) else 1e-6)
        while _H(params, k, lo) > 0:
            lo /= 8.0
            if lo < 1e-300:
                raise RuntimeError("failed to bracket the dispersion minimizer from below")
        if math.isinf(lam0):
            hi = max(1.0, 2 * lo)
            while _H(params, k, hi) <= 0:
                hi *= 2.0
                if hi > 1e6:
                    raise RuntimeError("failed to bracket the dispersion minimizer from above")
        else:
            # walk toward the abscissa until H turns positive (guaranteed for
            # the V class: H blows up or crosses zero before lam0)
            frac = 0.5
            hi = lam0 * (1 - frac)
            while _H(params, k, hi) <= 0:
                frac /= 2.0
                hi = lam0 * (1 - frac)
                if frac < 1e-14:
                    raise RuntimeError("H has no sign change below the abscissa")
        lam_star = _bisect(lambda lam: _H(params, k, lam) <= 0, lo, hi, 1e-13)
        value = None  # T(lambda*), which dispersion_G computes
    c_star = dispersion_G(params, k, lam_star, value)

    m_xi = k.mean()
    if not c_star > params.kappa_plus * m_xi:
        raise RuntimeError(
            f"minimal speed {c_star} does not exceed kappa_plus * m_xi "
            f"= {params.kappa_plus * m_xi}; dispersion data inconsistent"
        )
    if kernel_class == V_CLASS:
        alt = params.kappa_plus * k.weighted_moment1(lam_star)
        if not math.isfinite(alt) or abs(alt - c_star) > 1e-6 * max(1.0, abs(c_star)):
            raise RuntimeError(
                f"first-order speed representation mismatch: {alt} vs {c_star}"
            )

    return DispersionReport(
        lambda_star=float(lam_star),
        c_star=float(c_star),
        kernel_class=kernel_class,
        t_xi_at_lambda0=t_at_lam0,
        m_xi=float(m_xi),
    )


def _at_minimal_speed(c: float, report: DispersionReport) -> bool:
    """Whether the wave speed c counts as the minimal speed c*.

    With tol = max(1, |c*|), c below c* - 1e-9 tol has no wave and is refused,
    and c up to c* + 1e-12 tol counts as c*, for either sign of c*.
    """
    c_star = report.c_star
    tol = max(1.0, abs(c_star))
    if c < c_star - 1e-9 * tol:
        raise ValueError(f"no traveling wave below the minimal speed: c = {c} < c* = {c_star}")
    return c <= c_star + 1e-12 * tol


def speed_to_abscissa(params: ModelParams, k: Kernel1D, c: float,
                      report: DispersionReport | None = None) -> float:
    """The decay exponent of the wave profile with speed c >= c*.

    Returns the smaller positive root of kappa_plus*T(lam) - m - lam*c on
    (0, lambda*]; at c = c* this is lambda* itself.
    """
    if report is None:
        report = minimize_G(params, k)
    if _at_minimal_speed(c, report):
        return report.lambda_star

    def h(lam: float) -> float:
        return params.kappa_plus * k.transform(lam) - params.mortality - lam * c

    if h(1e-14) <= 0:
        raise RuntimeError("characteristic function not positive near zero")
    return _bisect(lambda lam: h(lam) > 0, 1e-14, report.lambda_star, 1e-15)


def char_multiplicity(params: ModelParams, k: Kernel1D, c: float,
                      report: DispersionReport | None = None) -> int:
    """Multiplicity (1 or 2) of the characteristic root at the profile abscissa."""
    if report is None:
        report = minimize_G(params, k)
    if not _at_minimal_speed(c, report):
        return 1
    if report.kernel_class == V_CLASS:
        return 2
    t0 = report.t_xi_at_lambda0
    if t0 is None or t0 > params.mortality + _BOUNDARY_TOL:
        return 1
    # boundary case m = t(lambda0): needs a finite second exponential moment
    if math.isinf(k.weighted_moment2(k.lambda0)):
        raise UnsupportedCriticalCase(
            "W-class boundary case with infinite second exponential moment: "
            "profile asymptotics are outside the supported theory"
        )
    return 2


@dataclass(frozen=True)
class FrontSet:
    """Convex propagation set as an intersection of directional half-spaces."""

    directions: np.ndarray  # (n, d) unit vectors
    speeds: np.ndarray  # (n,) minimal speeds
    lambda_stars: np.ndarray  # (n,) minimizers, for decay envelopes

    @property
    def dimension(self) -> int:
        return self.directions.shape[1]

    def interval(self) -> tuple[float, float]:
        """For d = 1: the set [-c*(-1), c*(+1)]."""
        if self.dimension != 1:
            raise ValueError("interval() is defined for 1-D fronts only")
        plus = float(self.speeds[np.argmax(self.directions[:, 0])])
        minus = float(self.speeds[np.argmin(self.directions[:, 0])])
        return (-minus, plus)

    def membership(self, x):
        """``scale -> mask`` of the points x, shape (..., d), in scale * front set.

        The points are projected once, so one call serves every scale.
        """
        x = np.asarray(x, dtype=float)
        proj = x.reshape(-1, self.dimension) @ self.directions.T
        return lambda scale: np.all(proj <= scale * self.speeds + 1e-12,
                                    axis=1).reshape(x.shape[:-1])

    def contains(self, x, scale: float = 1.0) -> np.ndarray:
        """Membership of the points x, shape (..., d), in scale * front set."""
        return self.membership(x)(scale)

    def outer_vertices(self) -> np.ndarray:
        """Vertices of the outer polygon (d = 2, equi-angular directions)."""
        if self.dimension != 2:
            raise ValueError("outer_vertices() is defined for 2-D fronts only")
        n = len(self.speeds)
        verts = []
        for i in range(n):
            j = (i + 1) % n
            a = np.stack([self.directions[i], self.directions[j]])
            b = np.array([self.speeds[i], self.speeds[j]])
            verts.append(np.linalg.solve(a, b))
        return np.asarray(verts)

    def inner_vertices(self) -> np.ndarray:
        """Touch points c*(xi) xi; their hull is an inner polygon."""
        return self.directions * self.speeds[:, None]


def front_set(params: ModelParams, kernel: Kernel, n_directions: int = 32) -> FrontSet:
    """Minimal speeds over a uniform direction sample and the resulting set.

    A radial kernel is isotropic: its minimal speed is solved once and shared
    by every direction.

    Raises MollisonFailure when any direction lacks an exponential moment
    (the front is unbounded; propagation accelerates).  In 2-D it needs at
    least 3 directions: fewer bound a half-plane or a strip.
    """
    d = kernel.dimension
    if d == 2 and n_directions < 3:
        raise ValueError(f"a 2-D front set needs at least 3 directions, got {n_directions}")
    if kernel.abscissa == 0.0:
        raise MollisonFailure("front set is unbounded: kernel has no exponential moment")
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        angles = 2.0 * math.pi * np.arange(n_directions) / n_directions
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    if kernel.radial:
        # each direction reduces to the same line density
        reports = [minimize_G(params, reduce_to_direction(kernel, dirs[0]))] * len(dirs)
    else:
        reports = [minimize_G(params, reduce_to_direction(kernel, xi)) for xi in dirs]
    speeds = np.array([rep.c_star for rep in reports])
    lams = np.array([rep.lambda_star for rep in reports])
    mean = global_mean(kernel)
    proj = dirs @ (params.kappa_plus * mean)
    if not np.all(proj < speeds):
        raise RuntimeError("kappa_plus * mean is not strictly interior to the front set")
    return FrontSet(directions=dirs, speeds=speeds, lambda_stars=lams)
