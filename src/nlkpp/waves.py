"""Monotone traveling-wave profiles and their tail asymptotics.

Profiles live on a plain (non-periodic) line grid with far-field values
theta on the left and 0 on the right.  A profile with speed c is computed as
the solution of the discrete stationary equation
c psi' + kp (a+ * psi) - m psi - km psi (a- * psi) = 0 by Newton's method,
with the grid-centre equation replaced by the pin psi(0) = theta/2; each
step's banded Jacobian is solved block by block in numpy.  The
equation is ``evolution._reaction`` with drift c psi', and ``_line_pair``
makes its convolutions through ``evolution.convolve_pair``.  Values
beyond the grid follow the linearised far fields: theta + (psi_0 - theta)
e^{nu (s - s_0)} on the left, with nu the decay rate of the linearisation at
theta, and psi_N e^{-lambda_c (s - s_N)} on the right, with lambda_c the
decay rate paired with c.  ``solve_profile`` refuses a solution that misses
theta or 0 at an end or rises anywhere, with a ``ConvergenceFailure``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import (DispersionReport, _bisect, char_multiplicity, dispersion_G,
                         minimize_G, speed_to_abscissa)
from .errors import CertificationFailed, ConvergenceFailure, UnsupportedCriticalCase
from .evolution import StepConfig, _march, _reaction, _rk4, convolve_pair
from .kernels import (Kernel1D, _check_resolution, _next_fast_len, _per_kernel, _Samples,
                      _unit_sum)
from .params import ModelParams

# relative boundary tolerance: psi(left) >= theta*(1 - BC_TOL), psi(right) <= theta*BC_TOL
BC_TOL = 1e-8
# Newton steps allowed before the solve counts as divergent
NEWTON_STEPS = 30
# kernel mass a line kernel's samples may leave beyond their half-width
COVERAGE = 1e-10


@dataclass(frozen=True)
class LineKernel(_Samples):
    """Kernel samples for line convolution; ``weights[j]`` sits at displacement (j - K) h."""

    @property
    def halfwidth(self) -> int:
        return (len(self.weights) - 1) // 2


def sample_line_kernel(k: Kernel1D, h: float) -> LineKernel:
    """Midpoint samples on displacements up to the ``COVERAGE`` radius, sum pinned to 1.

    Refuses a kernel that h under-resolves, as ``discretize`` does.
    """
    _check_resolution(k, h, "[wave] spacing")
    radius = max(4.0 * k.effective_scale(), h)
    while k.mass_outside(radius) > COVERAGE:
        radius *= 1.5
        if radius > 1e6:
            raise ValueError("kernel mass does not concentrate; cannot sample for line use")
    half = int(math.ceil(radius / h))
    tau = (np.arange(2 * half + 1) - half) * h
    w = np.asarray(k.eval(tau), dtype=float) * h
    return LineKernel(weights=_unit_sum(w, pin=half), spacing=h)


def _constant_pad(left: float, right: float):
    """``pad`` for ``_line_pair``: psi = left before the grid and right after it."""
    return lambda values, k: np.concatenate([np.full(k, left), values, np.full(k, right)])


def _line_pair(wp: LineKernel, wm: LineKernel, psi: np.ndarray,
               pad) -> tuple[np.ndarray, np.ndarray]:
    """(a+ * psi, a- * psi) on the grid, with ``pad(psi, k)`` giving k values beyond each end.

    psi is padded once to the larger reach R and zero-filled to a fast length
    of at least len(psi) + 4R: one forward transform, and each kernel's
    circular convolution holds the linear one in its valid window.
    """
    n = len(psi)
    reach = max(wp.halfwidth, wm.halfwidth)
    values = np.zeros(_next_fast_len(n + 4 * reach))
    values[:n + 2 * reach] = pad(psi, reach)
    conv_p, conv_m = convolve_pair(wp, wm, values)
    return (conv_p[reach + wp.halfwidth: reach + wp.halfwidth + n],
            conv_m[reach + wm.halfwidth: reach + wm.halfwidth + n])


def _line_advance(params: ModelParams, wp: LineKernel, wm: LineKernel, psi: np.ndarray,
                  cfg: StepConfig, workspace=None) -> np.ndarray:
    """One RK4 step of the line equation with the theta/0 far-field extension.

    ``workspace`` is ``_march``'s and is not used: a line's right-hand sides
    make fresh arrays, so its march plans no buffers.
    """
    pad = _constant_pad(params.theta, 0.0)
    return _rk4(lambda v: _reaction(params, v, *_line_pair(wp, wm, v, pad)), psi, cfg.dt)


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

    ``solve_profile`` makes them and checks that psi falls from theta to 0.
    ``residual`` is the stationary-frame residual (``profile_residual``) that
    ``solve_profile`` measured with its own kernel samples, ``predicted_lambda``
    the decay rate ``speed_to_abscissa`` pairs with the speed, and
    ``r_squared`` the tail fit's (``fit_decay``).
    """

    s: np.ndarray
    psi: np.ndarray
    speed_c: float
    theta: float
    fitted_lambda: float | None = None
    fitted_j: int | None = None
    residual: float | None = None
    predicted_lambda: float | None = None
    r_squared: float | None = None

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
    lines = _per_kernel(sample_line_kernel, k_plus, k_minus, float(s[1] - s[0]))
    return _supersolution(params, k_plus, *lines, s, mu, tol)


def _supersolution(params: ModelParams, k_plus: Kernel1D, wp: LineKernel, wm: LineKernel,
                   s: np.ndarray, mu: float, tol: float) -> tuple[np.ndarray, float]:
    """``initial_supersolution`` with a+ and a- sampled at the spacing of ``s``."""
    c = dispersion_G(params, k_plus, mu)
    theta = params.require_carrying_capacity()

    phi = theta * np.minimum(np.exp(-mu * np.clip(s, -500 / mu, None)), 1.0)
    dphi = np.where(s > 0, -mu * phi, 0.0)
    j_c = _reaction(params, phi, *_line_pair(wp, wm, phi, _constant_pad(theta, 0.0)),
                    drift=c * dphi)
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


def _operator(params: ModelParams, wp: LineKernel, wm: LineKernel, psi: np.ndarray, pad,
              c: float) -> tuple[np.ndarray, np.ndarray]:
    """(c psi' + kp (a+ * psi) - m psi - km psi (a- * psi), a- * psi) on the grid.

    ``pad`` extends psi beyond the grid as in ``_line_pair``; psi' is the
    4th-order central difference at the samples' spacing.
    """
    ext = pad(psi, 2)
    dpsi = (-ext[4:] + 8.0 * ext[3:-1] - 8.0 * ext[1:-3] + ext[:-4]) / (12.0 * wp.spacing)
    conv_p, conv_m = _line_pair(wp, wm, psi, pad)
    return _reaction(params, psi, conv_p, conv_m, drift=c * dpsi), conv_m


def _frame_residual(params: ModelParams, wp: LineKernel, wm: LineKernel, psi: np.ndarray,
                    c: float) -> float:
    """Sup norm of c psi' + kp (a+ * psi) - m psi - km psi (a- * psi) on psi's grid.

    psi' uses 4th-order central differences at the samples' spacing; psi is extended by
    its end values beyond the grid, and a buffer of 5% of the domain is excluded at each end.
    """
    pad = _constant_pad(float(psi[0]), float(psi[-1]))
    res, _ = _operator(params, wp, wm, psi, pad, c)
    buf = max(2, int(0.05 * len(psi)))
    return float(np.max(np.abs(res[buf:-buf])))


def profile_residual(profile: WaveProfile, params: ModelParams,
                     k_plus: Kernel1D, k_minus: Kernel1D) -> float:
    """Stationary-frame equation residual of a converged profile (``_frame_residual``)."""
    lines = _per_kernel(sample_line_kernel, k_plus, k_minus, profile.spacing)
    return _frame_residual(params, *lines, profile.psi, profile.speed_c)


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


def _plateau_rate(params: ModelParams, wp: LineKernel, wm: LineKernel, c: float,
                  abscissa: float) -> float:
    """Rate nu > 0 of theta - psi ~ e^{nu s} as s -> -inf in the discrete equation.

    The smallest root of the linearisation at theta,
    -c D(nu) - kp A+(nu) + kp + km theta A-(nu), where D(nu) is the
    4th-order difference of e^{nu s} and A(nu) = sum_j w_j e^{-nu tau_j} the
    transform of the sampled kernel.  It is km theta > 0 at nu = 0; the root
    is sought below the kernels' ``abscissa``, below nu h = 1.4, where D peaks,
    and where e^{nu tau} cannot overflow; h is the samples' spacing.
    """
    theta, h = params.theta, wp.spacing
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
    for hi in (cap * 2.0 ** -np.arange(40.0, -1.0, -1.0)).tolist():
        if linearisation(hi) < 0.0:
            return _bisect(lambda nu: linearisation(nu) > 0.0, lo, hi, 1e-15)
        lo = hi
    raise ConvergenceFailure(
        f"the theta plateau has no decaying mode with rate below {cap:.4g}; "
        "check kernel domination (A2)"
    )


def _newton(params: ModelParams, wp: LineKernel, wm: LineKernel, psi: np.ndarray, c: float,
            nu: float, lam_c: float, target: float, remedy: str) -> np.ndarray:
    """Newton's method on the pinned stationary equation, from the guess ``psi``.

    Rows are the operator at each grid point, with the centre row replaced by
    psi(0) = theta/2.  With h the samples' spacing, the k-th value left of the
    grid is theta + (psi_0 - theta) e^{-nu k h} and the k-th right of it
    psi_N e^{-lam_c k h}, so the Jacobian columns of these values fold into
    the first and last columns and the matrix stays banded, of half-width
    ``reach``.  Each step assembles it into blocks of ``reach`` rows and solves
    it with ``_block_solve``.  Stops when the sup norm of the rows is at most
    ``target``; ``remedy`` ends the messages of a divergent or stalled solve.
    """
    theta, h = params.theta, wp.spacing
    n, center = len(psi), len(psi) // 2
    reach = max(wp.halfwidth, wm.halfwidth, 2)
    left_decay = np.exp(-nu * h * np.arange(1, reach + 1))
    right_decay = np.exp(-lam_c * h * np.arange(1, reach + 1))

    def pad(values: np.ndarray, k: int) -> np.ndarray:
        return np.concatenate([theta + (values[0] - theta) * left_decay[:k][::-1], values,
                               values[-1] * right_decay[:k]])

    kp, km = params.kappa_plus, params.kappa_minus
    # band[i, reach + d] is the entry (i, i + d); kernel weight j sits at offset reach - j
    weights_p = np.pad(wp.weights, reach - wp.halfwidth)[::-1]
    weights_m = np.pad(wm.weights, reach - wm.halfwidth)[::-1]
    difference = c * np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    # a column past either end is a value beyond the grid: it folds into the
    # end column with that value's weight in ``pad``
    columns = np.arange(n)[:, None] + np.arange(-reach, reach + 1)
    left, right = columns < 0, columns >= n
    beyond = left | right
    fold = np.zeros(columns.shape)
    fold[left] = left_decay[-1 - columns[left]]
    fold[right] = right_decay[columns[right] - n]
    ends = np.arange(reach)
    # block rows for _block_solve: row i = k reach + p of the Jacobian is
    # flat[i], over the columns (k - 1) reach .. (k + 2) reach - 1, so its
    # band starts at column p; rows past n are the identity
    blocks = -(-n // reach)
    rows_of = np.zeros((blocks, reach, 3 * reach))
    flat = rows_of.reshape(blocks * reach, 3 * reach)  # a view
    padding = np.arange(n, blocks * reach)
    flat[padding, reach + padding % reach] = 1.0
    band_at = (np.arange(n)[:, None], (np.arange(n) % reach)[:, None] + np.arange(2 * reach + 1))
    for step in range(NEWTON_STEPS + 1):
        rows, conv_m = _operator(params, wp, wm, psi, pad, c)
        rows[center] = psi[center] - theta / 2.0
        size = float(np.max(np.abs(rows)))
        if size <= target:
            return psi
        if step == NEWTON_STEPS:
            break
        band = kp * weights_p - km * np.outer(psi, weights_m)
        band[:, reach] -= params.mortality + km * conv_m
        band[:, reach - 2: reach + 3] += difference
        band[center] = 0.0  # the pin row
        band[center, reach] = 1.0
        folded = band * fold
        band[beyond] = 0.0
        band[ends, reach - ends] += folded[:reach].sum(axis=1)  # column 0
        band[n - 1 - ends, reach + ends] += folded[n - 1 - ends].sum(axis=1)  # column n - 1
        flat[band_at] = band
        try:
            delta = _block_solve(rows_of, rows)
        except ConvergenceFailure as err:
            raise ConvergenceFailure(f"Newton step {step + 1}: {err}") from None
        step_size = float(np.max(np.abs(delta)))
        if not step_size <= 1e6 * theta:
            raise ConvergenceFailure(
                f"Newton step {step + 1} diverged (size {step_size:.3g}); {remedy}")
        psi = psi - delta
    raise ConvergenceFailure(
        f"Newton solve did not reach residual {target:g} in {NEWTON_STEPS} steps "
        f"(last {size:.3g}); {remedy}"
    )


def _block_solve(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with J x = rhs, for J of half-bandwidth r held as block rows.

    ``rows[k]`` is [L_k | D_k | U_k]: the r rows of block k over the columns
    of blocks k - 1, k and k + 1, so J is block tridiagonal; rows past
    ``len(rhs)`` must be the identity.  Block elimination runs from the last
    block to the first, the wave's tail to its plateau; the other way round
    gave backward errors up to 50 times larger on Newton Jacobians of a
    gaussian wave.  Each Schur complement is solved by ``np.linalg.solve``,
    which pivots within the block; a singular one raises ``ConvergenceFailure``.
    """
    blocks, r, _ = rows.shape
    y = np.zeros(blocks * r)
    y[:len(rhs)] = rhs
    y = y.reshape(blocks, r)
    couple = np.empty((blocks, r, r))  # S_k^{-1} L_k
    for k in range(blocks - 1, -1, -1):
        schur = rows[k, :, r:2 * r]
        if k < blocks - 1:
            upper = rows[k, :, 2 * r:]
            schur = schur - upper @ couple[k + 1]
            y[k] -= upper @ y[k + 1]
        try:
            solved = np.linalg.solve(schur, np.column_stack([rows[k, :, :r], y[k]]))
        except np.linalg.LinAlgError:
            raise ConvergenceFailure(
                f"singular Jacobian (block {k + 1} of {blocks})") from None
        couple[k], y[k] = solved[:, :r], solved[:, r]
    for k in range(1, blocks):
        y[k] -= couple[k] @ y[k - 1]
    return y.reshape(-1)[:len(rhs)]


def solve_profile(params: ModelParams, k_plus: Kernel1D, k_minus: Kernel1D, c: float,
                  h: float = 0.05, s_left: float = -50.0, s_right: float = 60.0,
                  seed: str = "auto", residual_target: float = 1e-10,
                  report: DispersionReport | None = None) -> WaveProfile:
    """Monotone profile with speed c >= c*, pinned at psi(0) = theta/2.

    Newton's method (``_newton``) on n = round((s_right - s_left) / h) points
    of spacing h from -h (n//2), so that s = 0 at index n//2: only the length
    is read, and lowering ``s_left`` by L adds L/2 at each end.  It stops when
    the sup norm of the equations is at most ``residual_target``.  The initial
    guess is the seed ramp: the certified ``"supersolution"``, the
    ``"critical"`` (1 + lambda s) e^{-lambda s} or a logistic ``"step"``;
    ``"auto"`` takes the critical ramp at a double root.  A solution that
    misses theta at the left end or 0 at the right end by more than
    10 ``BC_TOL`` theta raises ``ConvergenceFailure`` naming that end, and one
    that rises by more than 1e-9 theta names its largest rise.
    """
    theta = params.require_carrying_capacity()
    if report is None:
        report = minimize_G(params, k_plus)
    lam_c = speed_to_abscissa(params, k_plus, c, report=report)  # refuses c < c*
    if abs(c) < 1e-12:
        raise ValueError("zero-speed waves are outside the supported theory")

    n = int(round((s_right - s_left) / h))

    def refuse_below(reach: int) -> None:
        if n // 2 <= reach:
            raise ValueError(
                f"line domain too small for the kernel reach: {n // 2} cells on each side "
                f"of s = 0 against a reach of {reach}; enlarge the domain"
            )

    refuse_below(2)  # the least reach, before the grid is indexed
    s = s_left + h * np.arange(n)
    s = s - s[n // 2]  # index n//2 carries s = 0 exactly
    wp, wm = _per_kernel(sample_line_kernel, k_plus, k_minus, float(s[1] - s[0]))
    refuse_below(max(wp.halfwidth, wm.halfwidth, 2))
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

    nu = _plateau_rate(params, wp, wm, c, min(k_plus.lambda0, k_minus.lambda0))
    scale = max(k_plus.effective_scale(), k_minus.effective_scale())
    remedy = (f"the domain spans {(s_right - s_left) / scale:.4g} kernel scales "
              f"(effective_scale {scale:.4g}); try a narrower domain (domain_left, "
              "domain_right)")
    psi = _newton(params, wp, wm, psi, c, nu, lam_c, residual_target, remedy)

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
    rise = np.diff(psi)
    worst = int(np.argmax(rise))
    if rise[worst] > 1e-9 * theta:
        raise ConvergenceFailure(
            f"profile is not non-increasing: it rises by {rise[worst]:.3g} from "
            f"s = {s[worst]:.6g} to {s[worst + 1]:.6g}"
        )
    profile = WaveProfile(s=s, psi=psi, speed_c=c, theta=theta, predicted_lambda=lam_c)
    profile.residual = _frame_residual(params, wp, wm, psi, c)
    if j is not None:
        try:
            profile.fitted_lambda, _, profile.r_squared = fit_decay(profile, expected_j=j)
            profile.fitted_j = j
        except ValueError:
            pass
    return profile


def measure_profile_speed(profile: WaveProfile, params: ModelParams,
                          k_plus: Kernel1D, k_minus: Kernel1D) -> float:
    """Evolve the profile for 2 time units of RK4 at dt = 0.02 and read its displacement
    from the theta/2 level crossing.

    The front is located as ``fronts.track_level`` locates it: the rightmost
    sub-cell crossing of half the plateau, before and after the evolution.
    """
    duration = 2.0
    wp, wm = _per_kernel(sample_line_kernel, k_plus, k_minus, profile.spacing)
    evolved = _march(_line_advance, params, wp, wm, profile.psi, StepConfig(0.02), duration)
    level = 0.5 * profile.theta
    displacement = (half_level_crossing(profile.s, evolved, level)
                    - half_level_crossing(profile.s, profile.psi, level))
    return float(displacement / duration)
