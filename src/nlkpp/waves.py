"""Monotone traveling-wave profiles and their tail asymptotics.

Profiles live on a plain (non-periodic) line grid with far-field values
theta on the left and 0 on the right.  A profile with speed c is computed as
the fixed point of evolve-then-shift: advance the line equation by a sweep
time, translate back by c times that sweep, and re-pin the half-level at the
grid center to kill the translation degeneracy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft as sp_fft

from .dispersion import DispersionReport, char_multiplicity, minimize_G, speed_to_abscissa
from .errors import CertificationFailed, ConvergenceFailure, UnsupportedCriticalCase
from .evolution import _reaction, _rk4
from .kernels import Kernel1D
from .params import ModelParams

# relative boundary tolerance: psi(left) >= theta*(1 - BC_TOL), psi(right) <= theta*BC_TOL
BC_TOL = 1e-8


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
    wm = sample_line_kernel(k_minus, h)
    return (wp, wp) if np.array_equal(wp.weights, wm.weights) else (wp, wm)


def _convolve_pair(conv, wp: LineKernel, wm: LineKernel) -> tuple[np.ndarray, np.ndarray]:
    """(conv(wp), conv(wm)), calling ``conv`` once when ``wm is wp``.

    The shared result must not be modified in place.
    """
    conv_p = conv(wp)
    return conv_p, conv_p if wm is wp else conv(wm)


def line_convolve(psi: np.ndarray, lk: LineKernel, left: float, right: float) -> np.ndarray:
    """(a * psi)(s_i) assuming psi = left before the grid and right after it.

    The 'valid' part of the linear convolution of the padded data with the
    weights, by real FFTs of a fast length; bitwise equal to
    ``scipy.signal.fftconvolve(padded, weights, mode="valid")``.
    """
    half = lk.halfwidth
    padded = np.concatenate([np.full(half, left), psi, np.full(half, right)])
    n = sp_fft.next_fast_len(len(psi) + 4 * half, True)
    full = sp_fft.irfft(sp_fft.rfft(padded, n) * lk.spectrum(n), n)
    return full[2 * half: 2 * half + len(psi)]


def evolve_line(psi: np.ndarray, params: ModelParams, wp: LineKernel, wm: LineKernel,
                theta: float, dt: float, n_steps: int) -> np.ndarray:
    """RK4 advance of the line equation with the theta/0 far-field extension."""
    def f(values: np.ndarray) -> np.ndarray:
        return _reaction(params, values, *_convolve_pair(
            lambda w: line_convolve(values, w, theta, 0.0), wp, wm))

    for _ in range(n_steps):
        psi = _rk4(f, psi, dt)
    return psi


def shift_samples(psi: np.ndarray, s: np.ndarray, delta: float, theta: float) -> np.ndarray:
    """Band-limited evaluation of psi(. + delta).

    The monotone ramp is split off against an analytic logistic reference so
    the remainder decays to zero at both ends and is safe to shift in Fourier
    space; the reference shifts exactly.
    """
    h = s[1] - s[0]
    ref = theta / (1.0 + np.exp(np.clip(s, -500.0, 500.0)))
    ref_shifted = theta / (1.0 + np.exp(np.clip(s + delta, -500.0, 500.0)))
    diff = psi - ref
    n = len(diff)
    freqs = np.fft.rfftfreq(n, d=h)
    spectrum = np.fft.rfft(diff) * np.exp(2j * np.pi * freqs * delta)
    return np.fft.irfft(spectrum, n=n) + ref_shifted


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
    """Converged monotone profile with speed and fitted tail data."""

    s: np.ndarray
    psi: np.ndarray
    speed_c: float
    theta: float
    fitted_lambda: float | None = None
    fitted_j: int | None = None

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
    if not 0 < mu < k_plus.lambda0 or math.isinf(k_plus.transform(mu)):
        raise ValueError(f"mu = {mu} must have a finite transform (abscissa {k_plus.lambda0})")
    theta = params.require_carrying_capacity()
    c = (params.kappa_plus * k_plus.transform(mu) - params.mortality) / mu

    phi = theta * np.minimum(np.exp(-mu * np.clip(s, -500 / mu, None)), 1.0)
    wp, wm = sample_line_kernels(k_plus, k_minus, float(s[1] - s[0]))
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


def _frame_residual(s: np.ndarray, psi: np.ndarray, c: float, params: ModelParams,
                    wp: LineKernel, wm: LineKernel) -> float:
    """``stationary_frame_residual`` with a+ and a- sampled at the spacing of ``s``."""
    h = float(s[1] - s[0])
    left, right = float(psi[0]), float(psi[-1])
    padded = np.concatenate([[left, left], psi, [right, right]])
    dpsi = (-padded[4:] + 8.0 * padded[3:-1] - 8.0 * padded[1:-3] + padded[:-4]) / (12.0 * h)
    conv_p, conv_m = _convolve_pair(lambda w: line_convolve(psi, w, left, right), wp, wm)
    res = (c * dpsi + params.kappa_plus * conv_p - params.mortality * psi
           - params.kappa_minus * psi * conv_m)
    buf = max(2, int(0.05 * len(s)))
    return float(np.max(np.abs(res[buf:-buf])))


def stationary_frame_residual(s: np.ndarray, psi: np.ndarray, c: float, theta: float,
                              params: ModelParams, k_plus: Kernel1D,
                              k_minus: Kernel1D) -> float:
    """Sup norm of c psi' + kp (a+ * psi) - m psi - km psi (a- * psi).

    psi' uses 4th-order central differences with the theta/0 far-field
    extension; a buffer of 5% of the domain is excluded at each end.
    """
    lines = sample_line_kernels(k_plus, k_minus, float(s[1] - s[0]))
    return _frame_residual(s, psi, c, params, *lines)


def profile_residual(profile: WaveProfile, params: ModelParams,
                     k_plus: Kernel1D, k_minus: Kernel1D,
                     lines: tuple[LineKernel, LineKernel] | None = None) -> float:
    """Stationary-frame equation residual of a converged profile.

    ``lines`` is the (a+, a-) pair already sampled at ``profile.spacing``;
    without it both kernels are sampled here.
    """
    if lines is None:
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


def _integer_shift(values: np.ndarray, cells: int, theta: float) -> np.ndarray:
    """Exact translation by whole cells, refilling the vacated far field."""
    if cells == 0:
        return values
    out = np.empty_like(values)
    if cells > 0:  # evaluate at s + cells*h: content moves left, zeros enter right
        out[:-cells] = values[cells:]
        out[-cells:] = 0.0
    else:
        k = -cells
        out[k:] = values[:-k]
        out[:k] = theta
    return out


def _extend_tail(values: np.ndarray, h: float, idx: int, lam: float,
                 j: int, fit_cells: int = 24) -> np.ndarray:
    """Overwrite everything right of index ``idx`` with the characteristic tail.

    Chopping the tail would turn the iterate into a cutoff front whose
    selected speed falls back to the minimal one: supercritical profiles owe
    their speed entirely to the e^{-lam s} tail, so the analytic decay rate
    is enforced.  For a double root (j = 2) the prefactor A + B s is fitted
    on the stretch left of the anchor; otherwise only the amplitude is
    matched.
    """
    tail_len = len(values) - idx - 1
    if tail_len <= 0 or values[idx] <= 0.0:
        return values
    values = values.copy()
    offsets = h * np.arange(1, tail_len + 1)
    if j == 2:
        lo = max(idx - fit_cells, 0)
        window = values[lo: idx + 1]
        if np.all(window > 0.0):
            rel = h * (np.arange(lo, idx + 1) - idx)
            weighted = window * np.exp(lam * rel)
            coef = np.polyfit(rel, weighted, 1)
            slope_b, const_a = float(coef[0]), float(coef[1])
            if slope_b > 0.0 and const_a > 0.0:
                prefactor = const_a + slope_b * offsets
                values[idx + 1:] = prefactor * np.exp(-lam * offsets)
                return values
    values[idx + 1:] = values[idx] * np.exp(-lam * offsets)
    return values


def solve_profile(params: ModelParams, k_plus: Kernel1D, k_minus: Kernel1D, c: float,
                  h: float = 0.05, s_left: float = -50.0, s_right: float = 60.0,
                  sweep_time: float = 0.2, dt: float = 0.02, tol: float = 1e-8,
                  max_sweeps: int = 10000, seed: str = "auto",
                  residual_target: float = 5e-7,
                  report: DispersionReport | None = None) -> WaveProfile:
    """Monotone profile with speed c >= c*, pinned at psi(0) = theta/2.

    The flat far-field mode is linearly unstable in the co-moving frame, so
    the iteration must not feed it numerical noise: sweeps are sized so the
    shift c * sweep_time is an exact whole number of cells (no interpolation
    ringing), pinning during the iteration is by whole cells, and values
    below a hard floor are zeroed each sweep.  One band-limited fractional
    shift at the very end places the half level exactly at s = 0.

    Sweeps stop when the sup change drops below ``tol`` or the
    stationary-frame residual reaches ``residual_target`` (at the critical
    speed the shape relaxes only algebraically, so the residual is the
    binding criterion there).
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

    if seed == "auto":
        try:
            j_seed = char_multiplicity(params, k_plus, c, report=report)
        except UnsupportedCriticalCase:
            j_seed = 1
        seed = "critical" if j_seed == 2 else "supersolution"
    if seed == "supersolution":
        psi, _ = initial_supersolution(params, k_plus, k_minus, s, mu=lam_c, tol=1e-3)
    elif seed == "critical":
        # tail (1 + lam s) e^{-lam s}: matches the double-root structure; a
        # pure exponential seed would creep logarithmically forever
        ramp = (1.0 + lam_c * np.maximum(s, 0.0)) * np.exp(-lam_c * np.clip(s, 0.0, None))
        psi = theta * np.minimum(ramp, 1.0)
    elif seed == "step":
        psi = theta / (1.0 + np.exp(np.clip(lam_c * s, -500, 500)))
    else:
        raise ValueError(f"unknown seed {seed!r}")

    wp, wm = sample_line_kernels(k_plus, k_minus, h)
    shift_cells = max(1, int(round(c * sweep_time / h)))
    sweep_eff = shift_cells * h / c  # exact whole-cell displacement per sweep
    n_sub = max(1, int(math.ceil(sweep_eff / dt)))
    dt_eff = sweep_eff / n_sub
    buf = max(2, int(0.05 * n))
    center = n // 2
    try:
        j_tail = char_multiplicity(params, k_plus, c, report=report)
    except UnsupportedCriticalCase:
        j_tail = 1
    # tail extension anchored where psi ~ 1e-9 theta, but never closer to the
    # right end than one kernel reach plus shift margin
    reach = max(wp.halfwidth, wm.halfwidth)
    anchor_cap = n - reach - max(shift_cells, 8) - 8
    anchor_level = 1e-9 * theta
    if anchor_cap <= center + 40:
        raise ValueError(
            "line domain too small for the kernel reach; enlarge s_right "
            f"(anchor cap {anchor_cap} vs center {center})"
        )

    def extend(values: np.ndarray) -> np.ndarray:
        above = values >= anchor_level
        idx = int(np.max(np.nonzero(above))) if above.any() else anchor_cap
        return _extend_tail(values, h, min(idx, anchor_cap), lam_c, j_tail)

    def pin_cells(values: np.ndarray) -> np.ndarray:
        above = values >= theta / 2.0
        if not above.any() or above.all():
            raise ConvergenceFailure("profile iterate lost its half-level crossing")
        idx = int(np.max(np.nonzero(above)))
        return _integer_shift(values, idx - center, theta)

    psi = extend(psi)
    psi = pin_cells(psi)
    residual_every = 50
    # the residual differentiates on s, whose spacing can differ from h in the last bits
    residual_lines = sample_line_kernels(k_plus, k_minus, float(s[1] - s[0]))
    for sweep in range(1, max_sweeps + 1):
        prev = psi
        work = psi.copy()
        work[:buf] = theta
        work = evolve_line(work, params, wp, wm, theta, dt_eff, n_sub)
        work = _integer_shift(work, shift_cells, theta)
        np.clip(work, 0.0, theta, out=work)
        work = extend(work)
        psi = pin_cells(work)
        change = float(np.max(np.abs(psi - prev)))
        if change <= tol:
            break
        if sweep % residual_every == 0:
            candidate = _as_profile(s, psi, c, theta)
            if candidate is not None and profile_residual(
                candidate, params, k_plus, k_minus, lines=residual_lines
            ) <= residual_target:
                break
    else:
        raise ConvergenceFailure(
            f"profile iteration did not converge in {max_sweeps} sweeps "
            f"(last change {change:.3g})"
        )

    # final sub-cell pinning; a second pass cancels the linear-interpolation
    # bias of the crossing locator
    for _ in range(2):
        s0 = half_level_crossing(s, psi, theta / 2.0)
        psi = shift_samples(psi, s, s0, theta)
        np.clip(psi, 0.0, theta, out=psi)
    psi = extend(psi)
    rises = np.diff(psi)
    if rises.max() > 1e-7 * theta:
        raise ConvergenceFailure(
            f"converged iterate is not monotone (max rise {rises.max():.3g})"
        )
    np.minimum.accumulate(psi, out=psi)  # flatten interpolation ripple only

    profile = _as_profile(s, psi, c, theta)
    if profile is None:
        raise ConvergenceFailure("profile iterate violates monotone boundary structure")
    try:
        j = char_multiplicity(params, k_plus, c, report=report)
        lam_fit, _, _ = fit_decay(profile, expected_j=j)
        profile.fitted_lambda = lam_fit
        profile.fitted_j = j
    except (UnsupportedCriticalCase, ValueError):
        pass
    return profile


def _as_profile(s, psi, c, theta) -> WaveProfile | None:
    cleaned = np.clip(psi, 0.0, theta)
    try:
        return WaveProfile(s=s, psi=cleaned, speed_c=c, theta=theta)
    except ValueError:
        return None


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
