"""Time integration of the nonlocal logistic initial-value problem.

Two independent backends solve the same problem: a standard RK4 (or
exponential-Euler) stepper with spectral circular convolutions, and a Picard
fixed-point solver that follows the contraction construction behind the
existence theorem interval by interval.  Their agreement is one of the
package's main self-checks.

Every entry takes the model loose, as ``(params, wplus, wminus, ...)``: the
rates, the a+ and a- weights (one object when the kernels are one) and then
the state or grid, as in ``rhs_values(params, wplus, wminus, values)``,
``simulate(params, wplus, wminus, u0, cfg, horizon)`` and
``picard_solve(params, wplus, wminus, u0, horizon)``.  An entry that pairs the
weights with a state or grid refuses a grid of another shape (``_on_grid``).

A fixed-step run is one ``_march``, which owns its step: its ``_Workspace``
holds one plan, for the transform shape of the last step (the grid, or an
occupied window's fast length): buffers made at that shape and one rk4
right-hand side bound to them, the kernel spectra and the rates.  Each step
returns its state as a fresh array, and nothing holds the buffers once the
march returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import CertificationFailed, ConvergenceFailure, GridError
from .grids import Field, Grid, lattice
from .kernels import (Kernel, SampledWeights, _displacements, _irfft, _next_fast_len,
                      _per_kernel, _rfft, _Samples)
from .params import ModelParams


def _conv_direct(w: SampledWeights, values: np.ndarray) -> np.ndarray:
    """Circular convolution with a fixed summation order over displacements.

    The accumulation order depends only on the weight layout, never on the
    data, so whole-cell translations of the input commute with this
    convolution bitwise.  O(N * support); reserved for small grids.
    """
    out = np.zeros_like(values)
    flat = w.weights.reshape(-1)
    nz = np.flatnonzero(flat != 0.0)
    lead = values.ndim - w.weights.ndim
    for j in nz:
        idx = np.unravel_index(j, w.shape)
        shifted = values
        for axis, k in enumerate(idx, start=lead):
            if k:
                shifted = np.roll(shifted, k, axis=axis)
        out += flat[j] * shifted
    return out


def convolve_pair(wplus: _Samples, wminus: _Samples, values: np.ndarray,
                  backend: str = "fft") -> tuple[np.ndarray, np.ndarray]:
    """(a+ * values, a- * values), circular over the trailing axes the kernels span.

    Leading axes are a batch: each slice is convolved independently, with the
    same bits as a separate call on that slice.  The fft backend transforms
    ``values`` forward once, at the shape of those axes, and inverts once per
    distinct kernel; a kernel's spectrum is its weights zero-filled to that
    shape.  Each result has the bits of a call with that kernel as both a+
    and a-.  One object for a+ and a- (``kernels._per_kernel``) gives one
    shared result, which must not be modified in place.  Every result is a
    fresh array that the caller owns.
    """
    if backend == "fft":
        shape = values.shape[values.ndim - wplus.weights.ndim:]
        spectrum = _rfft(values, shape, out=np.empty(_spectral(values.shape), complex))

        def conv(w: _Samples) -> np.ndarray:
            product = np.multiply(spectrum, w.spectrum(shape))
            return _irfft(product, shape, out=product)
    elif backend == "direct":
        def conv(w: SampledWeights) -> np.ndarray:
            return _conv_direct(w, values)
    else:
        raise ValueError(f"unknown convolution backend {backend!r}")
    return _per_kernel(conv, wplus, wminus)


def _spectral(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The shape of ``_rfft``'s spectrum of an array of ``shape`` transformed at its own."""
    return shape[:-1] + (shape[-1] // 2 + 1,)


def _on_grid(wplus: SampledWeights, wminus: SampledWeights, *grids: Grid) -> None:
    """Refuse weights sampled at another shape than each of ``grids``."""
    for grid in grids:
        if wplus.shape != grid.shape or wminus.shape != grid.shape:
            raise GridError("kernel weights and field must live on the same grid")


METHODS = ("rk4", "exp_euler")


@dataclass(frozen=True)
class StepConfig:
    """Fixed-step integrator configuration with a stability guard.

    ``floor`` > 0 zeroes values with |u| below it after every step.  The
    vacuum state is linearly unstable at rate kappa_plus - m, so long
    invasion runs must deny roundoff noise a seed in the far field; the
    cutoff biases the measured front speed by O(1/log^2 floor), which desk
    tolerances absorb.  Off by default: short runs do not need it, and
    negativity should stay visible as a bug signal.

    An fft step transforms only the occupied window of the state (see
    ``_advance``), and the floor is what keeps that window small: without it
    the kernels' tails leave the far field nonzero, and the window soon
    covers the grid.
    """

    dt: float
    method: str = "rk4"
    conv_backend: str = "fft"
    floor: float = 0.0

    def validate(self, params: ModelParams) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        theta = max(params.theta, 0.0)
        rate = params.kappa_plus + params.mortality + params.kappa_minus * theta
        if not self.dt * rate < 0.5:
            raise ValueError(
                f"dt = {self.dt} violates the stability guard dt * {rate:.3g} < 0.5"
            )


@dataclass
class Trajectory:
    """Snapshots of a run, with per-snapshot extrema."""

    times: list[float] = field(default_factory=list)
    snapshots: list[Field] = field(default_factory=list)
    mins: list[float] = field(default_factory=list)
    maxs: list[float] = field(default_factory=list)

    def append(self, f: Field) -> None:
        if self.times and f.time <= self.times[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        self.times.append(f.time)
        self.snapshots.append(f)
        self.mins.append(f.min)
        self.maxs.append(f.max)

    @property
    def final(self) -> Field:
        return self.snapshots[-1]


def _gain(params: ModelParams, u: np.ndarray, conv_p: np.ndarray,
          drift: np.ndarray | None = None, out: np.ndarray | None = None,
          scratch: np.ndarray | None = None) -> np.ndarray:
    """``(drift + kp*conv_p) - m*u``, the first half of ``_reaction``, in ``out`` (with
    m*u in ``scratch``) or in fresh arrays."""
    gain = np.multiply(params.kappa_plus, conv_p, out=out)
    if drift is not None:
        gain = np.add(drift, gain, out=out)
    return np.subtract(gain, np.multiply(params.mortality, u, out=scratch), out=out)


def _loss(params: ModelParams, u: np.ndarray, conv_m: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """``(km*u)*conv_m``, the second half of ``_reaction``, in ``out`` or a fresh array."""
    loss = np.multiply(params.kappa_minus, u, out=out)
    loss *= conv_m
    return loss


def _reaction(params: ModelParams, u: np.ndarray, conv_p: np.ndarray, conv_m: np.ndarray,
              drift: np.ndarray | None = None) -> np.ndarray:
    """drift + kappa_plus*conv_p - m*u - kappa_minus*u*conv_m, summed in that order.

    The one statement of the equation: the periodic and line solvers call it
    without ``drift``, the traveling-wave operator with drift c psi'.  Its
    operations and their order, ``(drift + kp*conv_p) - m*u - (km*u)*conv_m``,
    fix the bits of every solver; it returns a fresh array and writes no argument.
    A march's right-hand side (``_Workspace``) subtracts its halves ``_gain`` and
    ``_loss`` in step buffers.
    """
    return _gain(params, u, conv_p, drift) - _loss(params, u, conv_m)


class _Plan(NamedTuple):
    """A workspace's step at one shape: the shape, the rk4 right-hand side and two buffers."""

    shape: tuple[int, ...]
    rhs: Callable[[np.ndarray], np.ndarray]
    stage: np.ndarray  # the rk4 stage states
    segment: np.ndarray  # a window of the state, zero-extended to the shape


class _Workspace:
    """The step of one march: its plan and rk4 right-hand side.

    It holds one ``_Plan``, for the shape its last step met, with buffers made
    at that shape; a step at another shape replaces it (the kernel spectra stay
    cached on the weights).  A plan's right-hand side binds the rates and the
    kernel spectra; it makes ``_reaction``'s operations in its order and
    returns a buffer that its next call overwrites.
    """

    def __init__(self, params: ModelParams, wplus: _Samples, wminus: _Samples,
                 cfg: StepConfig) -> None:
        self._model = (params, wplus, wminus, cfg)
        self._plan: _Plan | None = None

    def plan(self, shape: tuple[int, ...]) -> _Plan:
        """The plan for states of ``shape``, built when the last step met another shape."""
        if self._plan is None or self._plan.shape != shape:
            self._plan = self._build(shape)
        return self._plan

    def _build(self, shape: tuple[int, ...]) -> _Plan:
        params, wplus, wminus, cfg = self._model
        segment, stage, conv_p, conv_m, gain, scratch, loss = (np.empty(shape) for _ in range(7))
        spectrum, product_p, product_m = (np.empty(_spectral(shape), complex) for _ in range(3))
        if cfg.conv_backend != "fft":
            return _Plan(shape, lambda u: rhs_values(params, wplus, wminus, u, cfg.conv_backend),
                         stage, segment)

        grid = shape[len(shape) - wplus.weights.ndim:]
        spectrum_p, spectrum_m = wplus.spectrum(grid), wminus.spectrum(grid)
        shared = wminus is wplus

        def convolved(kernel_spectrum: np.ndarray, product: np.ndarray,
                      result: np.ndarray) -> np.ndarray:
            """The convolution with one kernel of the state transformed into ``spectrum``."""
            return _irfft(np.multiply(spectrum, kernel_spectrum, out=product), grid,
                          out=product, result=result)

        def rhs(u: np.ndarray) -> np.ndarray:
            _rfft(u, grid, out=spectrum)
            plus_half = _gain(params, u, convolved(spectrum_p, product_p, conv_p),
                              out=gain, scratch=scratch)
            conv = conv_p if shared else convolved(spectrum_m, product_m, conv_m)
            return np.subtract(plus_half, _loss(params, u, conv, out=loss), out=gain)

        return _Plan(shape, rhs, stage, segment)


def _rk4(f, values: np.ndarray, dt: float, stage: np.ndarray | None = None) -> np.ndarray:
    """One classical RK4 step of du/dt = f(u).

    It makes the operations of ``values + (dt/6) (((k1 + 2 k2) + 2 k3) + k4)``, with
    stage states ``values + (dt/2) k1``, ``values + (dt/2) k2`` and ``values + dt k3``,
    in that order, so it has the bits of that expression.  The three stage states
    share ``stage`` (a fresh buffer when not given), and the sum accumulates in a
    fresh copy of k1, which is returned.  ``f`` must write no argument; it may return
    one buffer at every call, since each k is used before the next call.
    """
    if stage is None:
        stage = np.empty_like(values)
    total = f(values).copy()
    k = f(np.add(values, np.multiply(0.5 * dt, total, out=stage), out=stage))
    np.add(values, np.multiply(0.5 * dt, k, out=stage), out=stage)
    k *= 2.0
    total += k
    k = f(stage)
    np.add(values, np.multiply(dt, k, out=stage), out=stage)
    k *= 2.0
    total += k
    total += f(stage)
    total *= dt / 6.0
    total += values
    return total


def rhs_values(params: ModelParams, wplus: SampledWeights, wminus: SampledWeights,
               values: np.ndarray, backend: str = "fft") -> np.ndarray:
    """kappa_plus*(a+ * u) - m*u - kappa_minus*u*(a- * u) at ``values``, a fresh array.

    The reference expression of a march step's right-hand side (``_Workspace``),
    which has its bits.
    """
    return _reaction(params, values, *convolve_pair(wplus, wminus, values, backend))


def _circular_step(params: ModelParams, wplus: SampledWeights, wminus: SampledWeights,
                   values: np.ndarray, cfg: StepConfig, workspace: _Workspace) -> np.ndarray:
    """One step of ``values`` with convolutions circular at its shape, into a fresh array.

    rk4 steps on ``workspace``'s plan for that shape.
    """
    dt = cfg.dt
    if cfg.method == "rk4":
        plan = workspace.plan(values.shape)
        out = _rk4(plan.rhs, values, dt, plan.stage)
    else:
        # integrating-factor step: freeze the loss rate over [t, t+dt]; the operations
        # of decay * values + (1 - decay) / loss * kp * conv_p, in three buffers
        conv_p, conv_m = convolve_pair(wplus, wminus, values, cfg.conv_backend)
        loss = np.multiply(params.kappa_minus, conv_m)
        loss += params.mortality
        decay = np.negative(loss)
        decay *= dt
        np.exp(decay, out=decay)
        out = np.subtract(1.0, decay)
        out /= loss
        out *= params.kappa_plus
        out *= conv_p
        np.add(np.multiply(decay, values, out=loss), out, out=out)
    if cfg.floor > 0.0:
        out[np.abs(out) < cfg.floor] = 0.0
    return out


def _window(wplus: SampledWeights, wminus: SampledWeights, values: np.ndarray,
            cfg: StepConfig) -> tuple[slice, ...] | None:
    """The grid cells one fft step of ``values`` can make nonzero, when a window pays.

    That is the nonzero span on each grid axis (a union over leading batch
    axes), grown by the kernels' reach once per convolution stage: four times
    for rk4, once for exp_euler.  None when a grown span wraps the periodic
    edge or its fast transform length is not shorter than the axis.
    """
    if cfg.conv_backend != "fft":
        return None
    grow = (4 if cfg.method == "rk4" else 1) * max(wplus.reach, wminus.reach)
    lead = values.ndim - wplus.weights.ndim
    if _next_fast_len(2 * grow + 1) >= min(values.shape[lead:]):
        return None  # no state has a window: skip scanning it
    occupied = values != 0.0
    window = []
    for axis in range(lead, values.ndim):
        others = tuple(a for a in range(values.ndim) if a != axis)
        cells = (occupied.any(axis=others) if others else occupied).nonzero()[0]
        if cells.size == 0:
            return None
        lo, hi = cells[0] - grow, cells[-1] + grow + 1
        if lo < 0 or hi > values.shape[axis] or (
                _next_fast_len(hi - lo) >= values.shape[axis]):
            return None
        window.append(slice(lo, hi))
    return tuple(window)


def _advance(params: ModelParams, wplus: SampledWeights, wminus: SampledWeights,
             values: np.ndarray, cfg: StepConfig, workspace: _Workspace) -> np.ndarray:
    """One step of ``values``; leading axes beyond the grid are independent states.

    When ``_window`` finds one, the step runs on that window zero-extended to
    a fast transform length, where each kernel's weights within its ``reach``
    wrap; every other cell stays 0.  Otherwise the whole grid is stepped.
    Either way the step runs on the march's ``workspace``, whose plan at the
    window's shape holds its segment; the new state is a fresh array.
    """
    window = _window(wplus, wminus, values, cfg)
    if window is None:
        return _circular_step(params, wplus, wminus, values, cfg, workspace)
    batch = (slice(None),) * (values.ndim - len(window))
    segment = workspace.plan(values.shape[:len(batch)] + tuple(
        _next_fast_len(w.stop - w.start) for w in window)).segment
    inner = batch + tuple(slice(0, w.stop - w.start) for w in window)
    segment.fill(0.0)
    segment[inner] = values[batch + window]
    out = np.zeros(values.shape)
    out[batch + window] = _circular_step(params, wplus, wminus, segment, cfg, workspace)[inner]
    return out


def _march(advance, params: ModelParams, wplus: _Samples, wminus: _Samples, values: np.ndarray,
           cfg: StepConfig, horizon: float, observe=None, t0: float = 0.0) -> np.ndarray:
    """The one fixed-step loop: ``values`` after ``horizon / cfg.dt`` steps of ``advance``.

    ``advance(params, wplus, wminus, values, cfg, workspace)`` is one step:
    ``_advance`` for the periodic equation, ``waves._line_advance`` for the
    line.  ``workspace`` is the loop's ``_Workspace``, which keeps the plan of
    the last step's shape and goes with the loop's frame.  Each step's state
    is a fresh array, so the states that ``observe`` sees and the one
    returned keep their values.  The loop owns the checks every run needs:
    the stability guard, a horizon that is a whole number of steps, and a
    finite state after each step k, which ``observe(k, values, last)`` then
    sees.  A non-finite state names ``[time] floor`` as the
    remedy when the floor is 0 or below the roundoff level eps * max|u| of the
    last finite state: such a floor lets roundoff noise in the far field grow
    at rate kappa_plus - m.
    """
    cfg.validate(params)
    n_steps = int(round(horizon / cfg.dt))
    if abs(n_steps * cfg.dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not an integer multiple of dt = {cfg.dt}")
    workspace = _Workspace(params, wplus, wminus, cfg)
    for k in range(1, n_steps + 1):
        finite = values
        with np.errstate(over="ignore", invalid="ignore"):  # the check below reports them
            values = advance(params, wplus, wminus, values, cfg, workspace)
        if not np.isfinite(values).all():
            raise ConvergenceFailure(f"non-finite state after step {k} "
                                     f"(t = {t0 + k * cfg.dt:.6g}){_remedy(cfg, finite)}")
        if observe is not None:
            observe(k, values, k == n_steps)
    return values


def _remedy(cfg: StepConfig, finite: np.ndarray) -> str:
    """``_march``'s remedy for a state that left ``finite`` and became non-finite."""
    level = np.finfo(float).eps * float(np.max(np.abs(finite)))
    if cfg.floor > 0.0 and not cfg.floor < level:
        return ""
    below = (f"[time] floor = {cfg.floor:g} is below the roundoff level {level:.2g} of the "
             "state: " if cfg.floor > 0.0 else "")
    return f"; {below}set [time] floor, e.g. 1e-14"


def simulate(params: ModelParams, wplus: SampledWeights, wminus: SampledWeights, u0: Field,
             cfg: StepConfig, horizon: float, snapshot_stride: int = 100) -> Trajectory:
    """Fixed-step run from ``u0`` to the horizon, storing every stride-th state and the last."""
    _on_grid(wplus, wminus, u0.grid)
    traj = Trajectory()
    traj.append(u0)

    def snapshot(k: int, values: np.ndarray, last: bool) -> None:
        if k % snapshot_stride == 0 or last:
            traj.append(Field(u0.grid, values, u0.time + k * cfg.dt))

    _march(_advance, params, wplus, wminus, u0.values, cfg, horizon, snapshot, u0.time)
    return traj


def logistic_exact(params: ModelParams, u0: float, t) -> np.ndarray:
    """Spatially homogeneous solution u(t) = u0 / (u0 g(t) + e^{-theta km t}).

    Valid for any sign of theta; u(t) -> max(0, theta) as t -> infinity.
    """
    if u0 < 0:
        raise ValueError("initial value must be nonnegative")
    t = np.asarray(t, dtype=float)
    theta = params.theta
    km = params.kappa_minus
    if theta != 0.0:
        decay = np.exp(-theta * km * t)
        g = (1.0 - decay) / theta
    else:
        decay = np.ones_like(t)
        g = km * t
    return u0 / (u0 * g + decay)


# ---------------------------------------------------------------------------
# Picard backend
# ---------------------------------------------------------------------------


def _lobatto_nodes(n: int) -> np.ndarray:
    """Chebyshev-Lobatto nodes on [-1, 1], ascending."""
    return -np.cos(np.pi * np.arange(n) / (n - 1))


def _integration_matrix(nodes: np.ndarray) -> np.ndarray:
    """Matrix Q with (Q f)[i] ~ int_{nodes[0]}^{nodes[i]} f, exact on polynomials."""
    n = len(nodes)
    V = np.vander(nodes, n, increasing=True)
    powers = np.arange(1, n + 1)
    prim = (nodes[:, None] ** powers[None, :] - nodes[0] ** powers[None, :]) / powers[None, :]
    return prim @ np.linalg.inv(V)


def _picard_interval(params: ModelParams, wplus: SampledWeights, wminus: SampledWeights,
                     u_tau: np.ndarray, tau: float, upsilon: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of the integral map on [tau, upsilon] on 12 Chebyshev-Lobatto nodes,
    swept until the sup-norm change is at most ``tol``; returns (nodes, states)."""
    tol = 1e-10
    zeta = _lobatto_nodes(12)
    half = 0.5 * (upsilon - tau)
    nodes = tau + half * (zeta + 1.0)
    Q = _integration_matrix(zeta) * half

    kp, km, m = params.kappa_plus, params.kappa_minus, params.mortality
    v = np.repeat(u_tau[None], len(zeta), axis=0)
    prev_change = math.inf
    growth_streak = 0
    for sweep in range(200):
        conv_p, conv_m = convolve_pair(wplus, wminus, v)
        loss = m + km * conv_m
        cumint = np.tensordot(Q, loss, axes=(1, 0))  # int_tau^{t_i} loss
        gain = kp * conv_p * np.exp(cumint)
        integral = np.tensordot(Q, gain, axes=(1, 0))
        new = np.exp(-cumint) * (u_tau[None] + integral)
        change = float(np.max(np.abs(new - v)))
        v = new
        if change <= tol:
            return nodes, v
        if change > prev_change:
            growth_streak += 1
            if growth_streak >= 5:
                raise ConvergenceFailure(
                    f"Picard iteration diverging on [{tau:.6g}, {upsilon:.6g}] "
                    f"(change {change:.3g} after {sweep + 1} sweeps)"
                )
        else:
            growth_streak = 0
        prev_change = change
    raise ConvergenceFailure(
        f"Picard iteration did not reach {tol:g} on [{tau:.6g}, {upsilon:.6g}]"
    )


def picard_solve(params: ModelParams, wplus: SampledWeights, wminus: SampledWeights,
                 u0: Field, horizon: float) -> Trajectory:
    """Solve the initial-value problem by the contraction construction.

    Each interval length follows the contraction bookkeeping: with
    C = km + kp*km/(m e) and a norm bound mu >= ||u_tau||, the interval is
    alpha / (C mu + alpha kp) where alpha in (0, 1) satisfies
    alpha^2 / (1 - alpha) < C^2 mu m e / (kp^2 km).
    """
    _on_grid(wplus, wminus, u0.grid)
    if u0.min < 0:
        raise ValueError("Picard backend requires nonnegative initial data")
    kp, km, m = params.kappa_plus, params.kappa_minus, params.mortality
    C = km + kp * km / (m * math.e)

    traj = Trajectory()
    traj.append(u0)
    u_values = u0.values
    tau = u0.time
    t_end = u0.time + horizon
    while tau < t_end - 1e-12:
        mu = float(np.max(u_values)) * 1.001 + 1e-6
        alpha = 0.5
        while alpha**2 / (1.0 - alpha) >= C**2 * mu * m * math.e / (kp**2 * km):
            alpha *= 0.5
        upsilon = min(tau + alpha / (C * mu + alpha * kp), t_end)
        nodes, states = _picard_interval(params, wplus, wminus, u_values, tau, upsilon)
        u_values = states[-1]
        tau = upsilon
        traj.append(Field(u0.grid, u_values.copy(), tau))
    return traj


# ---------------------------------------------------------------------------
# Truncated kernels, a-priori bounds, subsolutions
# ---------------------------------------------------------------------------


def truncated_weights(params: ModelParams, wplus: SampledWeights, wminus: SampledWeights,
                      grid: Grid, radius: float
                      ) -> tuple[float, SampledWeights, SampledWeights]:
    """Mask both kernels' weights on ``grid`` to the ball of given radius (no renormalization).

    Returns the truncated equilibrium theta_R = (kp*A_R+ - m) / (km*A_R-) and
    the masked a+ and a- weights, one object when ``wminus is wplus``, with
    which a solution runs below the untruncated one.
    """
    _on_grid(wplus, wminus, grid)
    mask = np.hypot.reduce(np.abs(_displacements(grid)), axis=-1) <= radius
    wp, wm = _per_kernel(lambda w: SampledWeights(w.weights * mask, grid.spacing),
                         wplus, wminus)
    a_plus_mass = float(wp.weights.sum())
    a_minus_mass = float(wm.weights.sum())
    if not a_plus_mass > params.mortality / params.kappa_plus:
        need = params.mortality / params.kappa_plus
        raise ValueError(
            f"truncated mass A_R+ = {a_plus_mass:.6f} must exceed m/kappa_plus = {need:.6f}; "
            "increase the truncation radius"
        )
    theta_r = (params.kappa_plus * a_plus_mass - params.mortality) / (
        params.kappa_minus * a_minus_mass
    )
    return theta_r, wp, wm


def _ball_volume(dimension: int, r: float) -> float:
    return 2.0 * r if dimension == 1 else math.pi * r * r


def _hypercube_sup_sum(kernel: Kernel, q: float) -> float:
    """sum over z in Z^d of sup over the cube centered at 2qz of the density.

    All families are radially non-increasing, so the supremum over a cube is
    the density at its point closest to the origin.
    """
    d = kernel.dimension
    if kernel.abscissa == 0.0:  # a heavy tail
        z_max = {1: 4000, 2: 700}[d]
    else:
        span = 60.0 * max(kernel.effective_scale(), 1.0)
        z_max = int(span / (2.0 * q)) + 2
    z = np.arange(-z_max, z_max + 1)
    nearest = np.maximum(np.abs(2.0 * q * z) - q, 0.0)
    return float(np.sum(kernel.eval(lattice(nearest, d))))


def uniform_bound(params: ModelParams, a_plus: Kernel, a_minus: Kernel,
                  u0_sup: float, assume_domination: bool = False) -> float:
    """Explicit all-time supremum bound for the solution.

    Uses the competition-floor witness alpha = inf_{|x| <= r0} a-(x) and the
    cube-supremum sum of a+.  Under A1+A2 with u0_sup <= theta the sharp bound
    theta is returned directly; for kappa_plus <= m the solution decays and
    u0_sup itself is the bound.
    """
    if u0_sup < 0:
        raise ValueError("u0_sup must be nonnegative")
    if params.kappa_plus <= params.mortality:
        return u0_sup
    theta = params.theta
    if assume_domination and u0_sup <= theta:
        return theta

    d = a_minus.dimension
    r0 = a_minus.effective_scale()
    alpha = float(np.min(a_minus.eval(r0 * np.eye(d)[:1])))
    if not alpha > 0:
        raise ValueError("competition kernel has no positive floor near the origin")
    q = r0 / (2.0 * math.sqrt(d))
    a_q = _hypercube_sup_sum(a_plus, q)
    if not math.isfinite(a_q):
        raise ValueError("cube-supremum sum of the dispersal kernel diverges")
    r = q * math.sqrt(d)
    big_m = 1.01 * max(_ball_volume(d, r) * u0_sup, theta / alpha)
    return max(params.kappa_plus * big_m * a_q / params.mortality, u0_sup)


def gaussian_subsolution(params: ModelParams, wplus: SampledWeights, wminus: SampledWeights,
                         grid: Grid, q: float, alpha: float, t: float,
                         tol: float = 1e-8) -> Field:
    """Spreading Gaussian lower barrier w(x,t) = q exp(-|x|^2 / (alpha t)).

    Certifies numerically that the evolution operator is nonpositive on w at
    time t over the whole grid; raises CertificationFailed otherwise.  The
    caller supplies (q, alpha, t) — see ``find_subsolution_params``.
    """
    _on_grid(wplus, wminus, grid)
    if not (q > 0 and alpha > 0 and t > 0):
        raise ValueError("q, alpha and t must be positive")
    x = grid.coords()
    sq = np.sum(x * x, axis=-1)
    w = q * np.exp(-sq / (alpha * t))
    dw_dt = w * (sq / (alpha * t * t))

    operator = dw_dt - _reaction(params, w, *convolve_pair(wplus, wminus, w))
    worst = int(np.argmax(operator))
    if operator.reshape(-1)[worst] > tol:
        loc = np.unravel_index(worst, operator.shape)
        raise CertificationFailed(
            f"subsolution certificate failed: operator = {operator.reshape(-1)[worst]:.3g} "
            f"> {tol:g} at grid index {loc}",
            location=loc,
            value=float(operator.reshape(-1)[worst]),
        )
    return Field(grid, w, t)


def find_subsolution_params(params: ModelParams, wplus: SampledWeights,
                            wminus: SampledWeights, grid: Grid) -> tuple[float, float, float]:
    """Coarse grid search for a certified (q, alpha, T) subsolution triple."""
    for alpha in (0.05, 0.1, 0.2, 0.5, 1.0):
        for t in (5.0, 10.0, 20.0, 40.0):
            for q in (1e-3, 1e-4, 1e-5):
                try:
                    gaussian_subsolution(params, wplus, wminus, grid, q, alpha, t)
                except CertificationFailed:
                    continue
                return q, alpha, t
    raise CertificationFailed("no certified subsolution parameters found in the search box")
