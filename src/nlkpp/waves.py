"""Monotone traveling-wave profiles and their tail asymptotics.

Profiles live on a plain (non-periodic) line grid with far-field values
theta on the left and 0 on the right.  A profile with speed c is computed as
the solution of the discrete stationary equation
c psi' + kp (a+ * psi) - m psi - km psi (a- * psi) = 0 by Newton's method,
with the grid-centre equation replaced by the pin psi(0) = theta/2.  Values
beyond the grid follow the linearised far fields: theta + (psi_0 - theta)
e^{nu (s - s_0)} on the left, with nu the decay rate of the linearisation at
theta, and psi_N e^{-lambda_c (s - s_N)} on the right, with lambda_c the
decay rate paired with c.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft
from scipy.linalg.lapack import dgbsv
from scipy.optimize import brentq

from .dispersion import DispersionReport, char_multiplicity, minimize_G, speed_to_abscissa
from .errors import CertificationFailed, ConvergenceFailure, UnsupportedCriticalCase
from .evolution import _reaction, _rk4
from .kernels import Kernel1D
from .params import ModelParams

# relative boundary tolerance: psi(left) >= theta*(1 - BC_TOL), psi(right) <= theta*BC_TOL
BC_TOL = 1e-8
# Newton steps allowed before the solve counts as divergent
NEWTON_STEPS = 30


@dataclass(frozen=True)
class LineKernel:
    """Kernel samples for line convolution with theta/0 far-field extension."""

    weights: np.ndarray  # length 2K+1, displacement (j - K) * h
    spacing: float
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def halfwidth(self) -> int:
        return (len(self.weights) - 1) // 2

    def spectrum(self, n: int) -> np.ndarray:
        """rfft of the weights zero-padded to length n, computed once per n."""
        if n not in self._spectra:
            self._spectra[n] = sp_fft.rfft(self.weights, n)
        return self._spectra[n]


def sample_line_kernel(k: Kernel1D, h: float, coverage: float = 1e-10) -> LineKernel:
    """Midpoint samples on displacements up to the coverage radius, sum pinned to 1."""
    radius = max(4.0 * k.effective_scale(), h)
    while k.mass_outside(radius) > coverage:
        radius *= 1.5
        if radius > 1e6:
            raise ValueError("kernel mass does not concentrate; cannot sample for line use")
    half = int(math.ceil(radius / h))
    tau = (np.arange(2 * half + 1) - half) * h
    w = np.asarray(k.eval(tau), dtype=float) * h
    w /= w.sum()
    w[half] += 1.0 - w.sum()
    return LineKernel(weights=w, spacing=h)


def sample_line_kernels(k_plus: Kernel1D, k_minus: Kernel1D,
                        h: float) -> tuple[LineKernel, LineKernel]:
    """Line samples of a+ and a-; one shared object when the samples are equal.

    Callers test ``wm is wp`` to convolve once per right-hand side.
    """
    wp = sample_line_kernel(k_plus, h)
    if k_minus is k_plus:
        return wp, wp
    wm = sample_line_kernel(k_minus, h)
    return (wp, wp) if np.array_equal(wp.weights, wm.weights) else (wp, wm)


def _convolve_pair(conv, wp: LineKernel, wm: LineKernel) -> tuple[np.ndarray, np.ndarray]:
    """(conv(wp), conv(wm)), calling ``conv`` once when ``wm is wp``.

    The shared result must not be modified in place.
    """
    conv_p = conv(wp)
    return conv_p, conv_p if wm is wp else conv(wm)


def line_convolve(psi: np.ndarray, lk: LineKernel, left: float, right: float) -> np.ndarray:
    """(a * psi)(s_i) assuming psi = left before the grid and right after it."""
    half = lk.halfwidth
    return _padded_convolve(np.concatenate([np.full(half, left), psi, np.full(half, right)]), lk)


def _padded_convolve(padded: np.ndarray, lk: LineKernel) -> np.ndarray:
    """(a * psi)(s_i) from psi extended by the kernel halfwidth beyond each end.

    The 'valid' part of the linear convolution of the padded data with the
    weights, by real FFTs of a fast length; bitwise equal to
    ``scipy.signal.fftconvolve(padded, weights, mode="valid")``.
    """
    half = lk.halfwidth
    size = len(padded) - 2 * half
    n = sp_fft.next_fast_len(size + 4 * half, True)
    full = sp_fft.irfft(sp_fft.rfft(padded, n) * lk.spectrum(n), n)
    return full[2 * half: 2 * half + size]


def evolve_line(psi: np.ndarray, params: ModelParams, wp: LineKernel, wm: LineKernel,
                theta: float, dt: float, n_steps: int) -> np.ndarray:
    """RK4 advance of the line equation with the theta/0 far-field extension."""
    def f(values: np.ndarray) -> np.ndarray:
        return _reaction(params, values, *_convolve_pair(
            lambda w: line_convolve(values, w, theta, 0.0), wp, wm))

    for _ in range(n_steps):
        psi = _rk4(f, psi, dt)
    return psi


def half_level_crossing(s: np.ndarray, psi: np.ndarray, level: float) -> float:
    """Rightmost sub-cell crossing of the level on a decreasing profile."""
    above = psi >= level
    if not above.any() or above.all():
        raise ValueError("profile does not cross the requested level on the grid")
    idx = int(np.max(np.nonzero(above)))
    if idx + 1 >= len(psi):
        raise ValueError("level crossing sits on the grid boundary")
    frac = (psi[idx] - level) / (psi[idx] - psi[idx + 1])
    return float(s[idx] + frac * (s[idx + 1] - s[idx]))


@dataclass
class WaveProfile:
    """Converged monotone profile with speed, fitted tail data and residual.

    ``residual`` is the stationary-frame residual (``profile_residual``) that
    ``solve_profile`` measured with its own kernel samples.
    """

    s: np.ndarray
    psi: np.ndarray
    speed_c: float
    theta: float
    fitted_lambda: float | None = None
    fitted_j: int | None = None
    residual: float | None = None

    def __post_init__(self):
        theta, psi = self.theta, self.psi
        if psi[0] < theta * (1.0 - 10 * BC_TOL):
            raise ValueError(f"profile left end {psi[0]} is not near theta = {theta}")
        if psi[-1] > theta * 10 * BC_TOL:
            raise ValueError(f"profile right end {psi[-1]} is not near zero")
        steps = np.diff(psi)
        if steps.max() > 1e-9 * theta:
            raise ValueError(f"profile is not non-increasing (max rise {steps.max():.3g})")

    @property
    def spacing(self) -> float:
        return float(self.s[1] - self.s[0])

    def strictly_decreasing_in_core(self) -> bool:
        core = (self.psi > self.theta * 10 * BC_TOL) & (
            self.psi < self.theta * (1.0 - 10 * BC_TOL)
        )
        idx = np.nonzero(core)[0]
        if len(idx) < 2:
            return True
        return bool(np.all(np.diff(self.psi[idx[0]: idx[-1] + 1]) < 0.0))


def initial_supersolution(params: ModelParams, k_plus: Kernel1D, k_minus: Kernel1D,
                          s: np.ndarray, mu: float, tol: float = 1e-6,
                          ) -> tuple[np.ndarray, float]:
    """Exponential ramp theta*min(e^{-mu s}, 1) with its paired speed.

    The pair is certified as a discrete supersolution: the stationary-frame
    operator evaluated with the sampled kernels must be <= tol everywhere.
    """
    lines = sample_line_kernels(k_plus, k_minus, float(s[1] - s[0]))
    return _supersolution(params, k_plus, *lines, s, mu, tol)


def _supersolution(params: ModelParams, k_plus: Kernel1D, wp: LineKernel, wm: LineKernel,
                   s: np.ndarray, mu: float, tol: float) -> tuple[np.ndarray, float]:
    """``initial_supersolution`` with a+ and a- sampled at the spacing of ``s``."""
    if not 0 < mu < k_plus.lambda0 or math.isinf(k_plus.transform(mu)):
        raise ValueError(f"mu = {mu} must have a finite transform (abscissa {k_plus.lambda0})")
    theta = params.require_carrying_capacity()
    c = (params.kappa_plus * k_plus.transform(mu) - params.mortality) / mu

    phi = theta * np.minimum(np.exp(-mu * np.clip(s, -500 / mu, None)), 1.0)
    dphi = np.where(s > 0, -mu * phi, 0.0)
    conv_p, conv_m = _convolve_pair(lambda w: line_convolve(phi, w, theta, 0.0), wp, wm)
    j_c = (c * dphi + params.kappa_plus * conv_p - params.mortality * phi
           - params.kappa_minus * phi * conv_m)
    worst = int(np.argmax(j_c))
    if j_c[worst] > tol:
        if s[worst] <= 0:
            # phi = theta here, so j_c is the kernel pair's own defect at theta
            remedy = ("s <= 0 is the theta plateau, where this kernel pair fails "
                      "at any domain or grid; check kernel domination (A2)")
        else:
            remedy = "enlarge the domain or refine the grid"
        raise CertificationFailed(
            f"supersolution certificate failed at s = {s[worst]:.4g}: "
            f"{j_c[worst]:.3g} > {tol:g}; {remedy}",
            location=(worst,), value=float(j_c[worst]),
        )
    return phi, c


def _operator(psi: np.ndarray, pad, c: float, params: ModelParams, h: float,
              wp: LineKernel, wm: LineKernel) -> tuple[np.ndarray, np.ndarray]:
    """(c psi' + kp (a+ * psi) - m psi - km psi (a- * psi), a- * psi) on the grid.

    ``pad(psi, k)`` extends psi by k values beyond each end; psi' is the
    4th-order central difference.
    """
    ext = pad(psi, 2)
    dpsi = (-ext[4:] + 8.0 * ext[3:-1] - 8.0 * ext[1:-3] + ext[:-4]) / (12.0 * h)
    conv_p, conv_m = _convolve_pair(lambda w: _padded_convolve(pad(psi, w.halfwidth), w),
                                    wp, wm)
    return (c * dpsi + params.kappa_plus * conv_p - params.mortality * psi
            - params.kappa_minus * psi * conv_m), conv_m


def _frame_residual(s: np.ndarray, psi: np.ndarray, c: float, params: ModelParams,
                    wp: LineKernel, wm: LineKernel) -> float:
    """``stationary_frame_residual`` with a+ and a- sampled at the spacing of ``s``."""
    left, right = float(psi[0]), float(psi[-1])

    def pad(values: np.ndarray, k: int) -> np.ndarray:
        return np.concatenate([np.full(k, left), values, np.full(k, right)])

    res, _ = _operator(psi, pad, c, params, float(s[1] - s[0]), wp, wm)
    buf = max(2, int(0.05 * len(s)))
    return float(np.max(np.abs(res[buf:-buf])))


def stationary_frame_residual(s: np.ndarray, psi: np.ndarray, c: float, theta: float,
                              params: ModelParams, k_plus: Kernel1D,
                              k_minus: Kernel1D) -> float:
    """Sup norm of c psi' + kp (a+ * psi) - m psi - km psi (a- * psi).

    psi' uses 4th-order central differences; psi is extended by its end
    values beyond the grid, and a buffer of 5% of the domain is excluded at each end.
    """
    lines = sample_line_kernels(k_plus, k_minus, float(s[1] - s[0]))
    return _frame_residual(s, psi, c, params, *lines)


def profile_residual(profile: WaveProfile, params: ModelParams,
                     k_plus: Kernel1D, k_minus: Kernel1D) -> float:
    """Stationary-frame equation residual of a converged profile."""
    lines = sample_line_kernels(k_plus, k_minus, profile.spacing)
    return _frame_residual(profile.s, profile.psi, profile.speed_c, params, *lines)


def fit_decay(profile: WaveProfile, expected_j: int) -> tuple[float, float, float]:
    """Least-squares tail fit of log psi against -lam*s + (j-1)*log(s) + const.

    Uses the window where psi is between 10*theta*BC_TOL and theta/100;
    returns (lambda_fit, amplitude, r_squared).
    """
    if expected_j not in (1, 2):
        raise ValueError("expected_j must be 1 or 2")
    theta = profile.theta
    lo, hi = 10.0 * BC_TOL * theta, theta / 100.0
    mask = (profile.psi >= lo) & (profile.psi <= hi) & (profile.s > 0)
    if mask.sum() < 30:
        raise ValueError(
            f"tail window holds only {int(mask.sum())} points (need >= 30); "
            "enlarge the domain to the right"
        )
    s = profile.s[mask]
    y = np.log(profile.psi[mask]) - (expected_j - 1) * np.log(s)
    design = np.stack([-s, np.ones_like(s)], axis=-1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    lam, const = float(coef[0]), float(coef[1])
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return lam, math.exp(const), r2


def _plateau_rate(params: ModelParams, c: float, theta: float, h: float,
                  wp: LineKernel, wm: LineKernel, abscissa: float) -> float:
    """Rate nu > 0 of theta - psi ~ e^{nu s} as s -> -inf in the discrete equation.

    The smallest root of the linearisation at theta,
    -c D(nu) - kp A+(nu) + kp + km theta A-(nu), where D(nu) is the
    4th-order difference of e^{nu s} and A(nu) = sum_j w_j e^{-nu tau_j} the
    transform of the sampled kernel.  It is km theta > 0 at nu = 0; the root
    is sought below the kernels' ``abscissa``, below nu h = 1.4, where D peaks,
    and where e^{nu tau} cannot overflow.
    """
    cap = min(abscissa, 1.4 / h, 700.0 / (max(wp.halfwidth, wm.halfwidth) * h))

    def transform(w: LineKernel, nu: float) -> float:
        tau = (np.arange(len(w.weights)) - w.halfwidth) * h
        return float(w.weights @ np.exp(-nu * tau))

    def linearisation(nu: float) -> float:
        x = nu * h
        slope = (16.0 * math.sinh(x) - 2.0 * math.sinh(2.0 * x)) / (12.0 * h)
        return (-c * slope + params.kappa_plus * (1.0 - transform(wp, nu))
                + params.kappa_minus * theta * transform(wm, nu))

    lo = 0.0
    for hi in cap * 2.0 ** -np.arange(40.0, -1.0, -1.0):
        if linearisation(hi) < 0.0:
            return brentq(linearisation, lo, hi)
        lo = hi
    raise ConvergenceFailure(
        f"the theta plateau has no decaying mode with rate below {cap:.4g}; "
        "check kernel domination (A2)"
    )


def _newton(psi: np.ndarray, c: float, theta: float, params: ModelParams, h: float,
            wp: LineKernel, wm: LineKernel, nu: float, lam_c: float,
            target: float) -> np.ndarray:
    """Newton's method on the pinned stationary equation, from the guess ``psi``.

    Rows are the operator at each grid point, with the centre row replaced by
    psi(0) = theta/2.  The k-th value left of the grid is
    theta + (psi_0 - theta) e^{-nu k h} and the k-th right of it
    psi_N e^{-lam_c k h}, so the Jacobian columns of these values fold into
    the first and last columns and the matrix stays banded.  Stops when the
    sup norm of the rows is at most ``target``.
    """
    n, center = len(psi), len(psi) // 2
    reach = max(wp.halfwidth, wm.halfwidth, 2)
    left_decay = np.exp(-nu * h * np.arange(1, reach + 1))
    right_decay = np.exp(-lam_c * h * np.arange(1, reach + 1))

    def pad(values: np.ndarray, k: int) -> np.ndarray:
        return np.concatenate([theta + (values[0] - theta) * left_decay[:k][::-1], values,
                               values[-1] * right_decay[:k]])

    kp, km = params.kappa_plus, params.kappa_minus
    weights_p = np.pad(wp.weights, reach - wp.halfwidth)
    weights_m = np.pad(wm.weights, reach - wm.halfwidth)
    difference = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}
    # LAPACK band storage: entry (i, l) at ab[2 reach + i - l, l]; dgbsv
    # factors in place and uses the top reach rows as workspace
    ab = np.zeros((3 * reach + 1, n), order="F")
    for step in range(NEWTON_STEPS + 1):
        rows, conv_m = _operator(psi, pad, c, params, h, wp, wm)
        rows[center] = psi[center] - theta / 2.0
        size = float(np.max(np.abs(rows)))
        if size <= target:
            return psi
        if step == NEWTON_STEPS:
            break
        ab[:] = 0.0
        for d in range(-reach, reach + 1):  # entries (i, i + d)
            entry = kp * weights_p[reach - d] - km * weights_m[reach - d] * psi
            if d == 0:
                entry -= params.mortality + km * conv_m
            if d in difference:
                entry += c * difference[d] / (12.0 * h)
            entry[center] = 1.0 if d == 0 else 0.0  # the pin row
            lo, hi = max(0, -d), min(n, n - d)
            ab[2 * reach - d, lo + d: hi + d] += entry[lo:hi]
            if d < 0:
                ab[2 * reach: 2 * reach - d, 0] += entry[:-d] * left_decay[:-d][::-1]
            elif d > 0:
                ab[2 * reach - d + 1: 2 * reach + 1, n - 1] += entry[n - d:] * right_decay[:d]
        *_, delta, info = dgbsv(reach, reach, ab, rows, overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise ConvergenceFailure(
                f"Newton step {step + 1}: singular Jacobian (dgbsv info {info})")
        step_size = float(np.max(np.abs(delta)))
        if not step_size <= 1e6 * theta:
            raise ConvergenceFailure(f"Newton step {step + 1} diverged (size {step_size:.3g})")
        psi = psi - delta
    raise ConvergenceFailure(
        f"Newton solve did not reach residual {target:g} in {NEWTON_STEPS} steps "
        f"(last {size:.3g})"
    )


def solve_profile(params: ModelParams, k_plus: Kernel1D, k_minus: Kernel1D, c: float,
                  h: float = 0.05, s_left: float = -50.0, s_right: float = 60.0,
                  seed: str = "auto", residual_target: float = 1e-10,
                  report: DispersionReport | None = None) -> WaveProfile:
    """Monotone profile with speed c >= c*, pinned at psi(0) = theta/2.

    Newton's method (``_newton``) on the grid of spacing h over
    [s_left, s_right), shifted so that its centre point is s = 0, until the
    sup norm of the equations is at most ``residual_target``.  The initial
    guess is the seed ramp: the certified ``"supersolution"``, the
    ``"critical"`` (1 + lambda s) e^{-lambda s} or a logistic ``"step"``;
    ``"auto"`` takes the critical ramp at a double root.  A solution that
    misses theta at the left end or 0 at the right end by more than
    ``WaveProfile`` allows raises ``ConvergenceFailure`` naming that end.
    """
    theta = params.require_carrying_capacity()
    if report is None:
        report = minimize_G(params, k_plus)
    if c < report.c_star - 1e-9 * max(1.0, abs(report.c_star)):
        raise ValueError(
            f"no traveling wave below the minimal speed: c = {c} < c* = {report.c_star}"
        )
    if abs(c) < 1e-12:
        raise ValueError("zero-speed waves are outside the supported theory")

    lam_c = speed_to_abscissa(params, k_plus, c, report=report)
    n = int(round((s_right - s_left) / h))
    s = s_left + h * np.arange(n)
    s = s - s[n // 2]  # index n//2 carries s = 0 exactly
    spacing = float(s[1] - s[0])
    wp, wm = sample_line_kernels(k_plus, k_minus, spacing)
    reach = max(wp.halfwidth, wm.halfwidth, 2)
    if n // 2 <= reach:
        raise ValueError(
            f"line domain too small for the kernel reach: {n // 2} cells on each side "
            f"of s = 0 against a reach of {reach}; enlarge the domain"
        )
    try:
        j = char_multiplicity(params, k_plus, c, report=report)
    except UnsupportedCriticalCase:
        j = None

    if seed == "auto":
        seed = "critical" if j == 2 else "supersolution"
    if seed == "supersolution":
        psi, _ = _supersolution(params, k_plus, wp, wm, s, lam_c, tol=1e-3)
    elif seed == "critical":
        ramp = (1.0 + lam_c * np.maximum(s, 0.0)) * np.exp(-lam_c * np.clip(s, 0.0, None))
        psi = theta * np.minimum(ramp, 1.0)
    elif seed == "step":
        psi = theta / (1.0 + np.exp(np.clip(lam_c * s, -500, 500)))
    else:
        raise ValueError(f"unknown seed {seed!r}")

    nu = _plateau_rate(params, c, theta, spacing, wp, wm,
                       min(k_plus.lambda0, k_minus.lambda0))
    psi = _newton(psi, c, theta, params, spacing, wp, wm, nu, lam_c, residual_target)

    band = 10 * BC_TOL * theta
    if psi[0] < theta * (1.0 - 10 * BC_TOL):
        raise ConvergenceFailure(
            f"profile misses theta at the left end: psi({s[0]:.6g}) = theta - "
            f"{theta - psi[0]:.3g} (allowed {band:.3g}); lower s_left (domain_left)"
        )
    if psi[-1] > theta * 10 * BC_TOL:
        raise ConvergenceFailure(
            f"profile misses 0 at the right end: psi({s[-1]:.6g}) = {psi[-1]:.3g} "
            f"(allowed {band:.3g}); raise s_right (domain_right)"
        )
    profile = WaveProfile(s=s, psi=psi, speed_c=c, theta=theta)
    profile.residual = _frame_residual(s, psi, c, params, wp, wm)
    if j is not None:
        try:
            profile.fitted_lambda, _, _ = fit_decay(profile, expected_j=j)
            profile.fitted_j = j
        except ValueError:
            pass
    return profile


def measure_profile_speed(profile: WaveProfile, params: ModelParams,
                          k_plus: Kernel1D, k_minus: Kernel1D,
                          duration: float = 2.0, dt: float = 0.02) -> float:
    """Evolve the profile and recover its displacement by cross-correlation.

    The derivative pulses are masked to the core of the ramp; the far tail
    and the theta plateau contribute only correlation-peak bias.
    """
    theta = profile.theta
    h = profile.spacing
    wp, wm = sample_line_kernels(k_plus, k_minus, h)
    n_steps = int(round(duration / dt))
    evolved = evolve_line(profile.psi.copy(), params, wp, wm, theta, dt, n_steps)

    def core_pulse(values: np.ndarray) -> np.ndarray:
        pulse = -np.gradient(values, h)
        core = (values > 0.02 * theta) & (values < 0.98 * theta)
        return np.where(core, pulse, 0.0)

    pulse0 = core_pulse(profile.psi)
    pulse1 = core_pulse(evolved)
    corr = np.correlate(pulse1, pulse0, mode="full")
    k = int(np.argmax(corr))
    refined = float(k)
    if 0 < k < len(corr) - 1:
        y0, y1, y2 = corr[k - 1], corr[k], corr[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            refined = k + 0.5 * (y0 - y2) / denom
    displacement = (refined - (len(pulse0) - 1)) * h
    return float(displacement / duration)
