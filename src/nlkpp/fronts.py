"""Front measurement and long-time verification harnesses.

These routines measure propagation from simulated trajectories and compare
against the dispersion-theoretic predictions: spreading speed, interior
convergence to the carrying capacity, exterior exponential decay, and
acceleration for kernels without exponential moments.  The comparison
harness co-evolves ordered initial data to exercise the order-preservation
structure directly: order, the strip 0 <= u <= theta, the logistic lower
envelope and the separation of distinct data at the horizon.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import FrontSet
from .errors import CertificationFailed
from .evolution import StepConfig, Trajectory, _advance, _march, _on_grid
from .grids import Field
from .kernels import SampledWeights
from .params import ModelParams
from .waves import half_level_crossing


@dataclass
class LevelTrace:
    """Rightmost level-crossing positions along a direction, per snapshot."""

    times: np.ndarray
    positions: np.ndarray


@dataclass(frozen=True)
class SpeedEstimate:
    c_hat: float
    stderr: float


def _line_values(field: Field, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State values along the grid line through the origin in direction xi."""
    grid = field.grid
    axis = int(np.argmax(np.abs(xi)))  # the grid axis closest to xi, the first on a tie
    sign = 1.0 if xi[axis] > 0 else -1.0
    line = tuple(slice(None) if a == axis else grid.points_per_axis // 2
                 for a in range(grid.dimension))
    return sign * grid.axis_coords(), field.values[line]


def track_level(traj: Trajectory, level: float, xi) -> LevelTrace:
    """Largest s with u(s xi) >= level per snapshot, sub-cell interpolated.

    Positions are raw (no monotone cleanup); the trace stops once the front
    enters the outer 10% of the domain.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    times, positions = [], []
    half = traj.snapshots[0].grid.half_length
    edge = 0.9 * half
    for f in traj.snapshots:
        s, u = _line_values(f, xi)
        order = np.argsort(s)
        s, u = s[order], u[order]
        above = u >= level
        if not above.any():
            continue
        if above[-1]:
            # level held up to the boundary: record the edge sentinel and stop
            times.append(f.time)
            positions.append(half)
            break
        pos = half_level_crossing(s, u, level)
        if pos > edge:
            break
        times.append(f.time)
        positions.append(pos)
    return LevelTrace(times=np.asarray(times), positions=np.asarray(positions))


def estimate_speed(trace: LevelTrace, transient_fraction: float = 0.25) -> SpeedEstimate:
    """Least-squares slope of position vs time after the initial transient."""
    if len(trace.times) < 10:
        raise ValueError(f"need at least 10 trace points, got {len(trace.times)}")
    t0 = trace.times[0] + transient_fraction * (trace.times[-1] - trace.times[0])
    mask = trace.times >= t0
    t, x = trace.times[mask], trace.positions[mask]
    if len(t) < 3:
        raise ValueError("post-transient window holds fewer than 3 points")
    design = np.stack([t, np.ones_like(t)], axis=-1)
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    resid = x - design @ coef
    dof = max(len(t) - 2, 1)
    var = float(np.sum(resid**2)) / dof
    t_center = t - t.mean()
    stderr = math.sqrt(var / float(np.sum(t_center**2))) if np.any(t_center) else math.inf
    return SpeedEstimate(c_hat=float(coef[0]), stderr=stderr)


def interior_convergence(traj: Trajectory, front: FrontSet, shrink: float, theta: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """theta - min u over t * shrink * front, per snapshot, until it exits the grid."""
    if not 0.0 < shrink < 1.0:
        raise ValueError("shrink must lie in (0, 1)")
    times, deficits = [], []
    inside = None
    for f in traj.snapshots:
        grid = f.grid
        t = f.time
        if t <= 0.0:
            continue
        if shrink * t * float(np.max(front.speeds)) > grid.half_length:
            break
        inside = inside or front.membership(grid.coords())
        mask = inside(shrink * t)
        if not np.any(mask):
            continue
        times.append(t)
        deficits.append(theta - float(f.values[mask].min()))
    return np.asarray(times), np.asarray(deficits)


def weighted_norm(field: Field, lam: float, xi) -> float:
    """sup over the grid of u(x) e^{lam x . xi}."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    proj = field.grid.coords() @ xi
    return float(np.max(field.values * np.exp(lam * proj)))


@dataclass
class ExteriorDecayResult:
    times: np.ndarray
    exterior_sup: np.ndarray
    envelope: np.ndarray
    envelope_satisfied: bool


def exterior_decay(traj: Trajectory, front: FrontSet, inflate: float,
                   u0_weighted_norms: np.ndarray, lambda_stars: np.ndarray
                   ) -> ExteriorDecayResult:
    """Supremum of u outside inflate * t * front vs the analytic envelope.

    The envelope is the directional bound ||u0||_{lam*, xi} e^{-lam* delta t}
    with delta = (inflate - 1) c*(xi), maximized over the sampled directions.
    """
    if not inflate > 1.0:
        raise ValueError("inflate must exceed 1")
    times, sups, envs = [], [], []
    deltas = (inflate - 1.0) * front.speeds
    rates = lambda_stars * deltas
    inside = None
    for f in traj.snapshots:
        t = f.time
        if t <= 0.0:
            continue
        inside = inside or front.membership(f.grid.coords())
        outside = ~inside(inflate * t)
        if not np.any(outside):
            break
        envelope = float(np.max(u0_weighted_norms * np.exp(-rates * t)))
        times.append(t)
        sups.append(float(f.values[outside].max()))
        envs.append(envelope)
    sups = np.asarray(sups)
    envs = np.asarray(envs)
    return ExteriorDecayResult(
        times=np.asarray(times), exterior_sup=sups, envelope=envs,
        envelope_satisfied=bool(np.all(sups <= envs * (1.0 + 1e-9))),
    )


def check_initial_decay(u0: Field, lam: float) -> bool:
    """True when u0 decays at least like e^{-lam |x|} on the grid.

    The weighted profile u0(x) e^{lam |x|} must attain its maximum away from
    the outer 10% of the domain (fat tails push the maximum to the boundary).
    """
    grid = u0.grid
    r = grid.radii()
    weighted = u0.values * np.exp(lam * r)
    idx = np.unravel_index(int(np.argmax(weighted)), grid.shape)
    return bool(r[idx] <= 0.9 * grid.half_length)


def acceleration_test(trace: LevelTrace) -> str:
    """Verdict on x(2t)/x(t) ratios: 'superlinear', 'ballistic', or 'inconclusive'.

    Base times come from the last third of usable pairs so the ballistic
    affine offset x = c t - x0 has decayed out of the ratio.
    """
    t, x = trace.times, trace.positions
    if len(t) < 8 or t[-1] < 4.0 * max(t[0], 1e-12):
        raise ValueError("trace must span a time factor of at least 4")
    base = (t >= t[-1] / 3.0) & (2.0 * t <= t[-1]) & (x > 0)
    if base.sum() < 4:
        raise ValueError("too few usable (t, 2t) pairs in the trace")
    x2 = np.interp(2.0 * t[base], t, x)
    ratios = x2 / x[base]
    if np.all(ratios >= 2.15):
        return "superlinear"
    if np.all((ratios >= 1.9) & (ratios <= 2.1)):
        return "ballistic"
    return "inconclusive"


def _discrete_domination_holds(params: ModelParams, wplus: SampledWeights,
                               wminus: SampledWeights) -> bool:
    gap = params.kappa_plus * wplus.weights - (
        params.kappa_plus - params.mortality
    ) * wminus.weights
    return bool(gap.min() >= -1e-15)


@dataclass
class ComparisonResult:
    max_violation: float
    strip_violation: float
    lower_envelope_ok: bool
    final_gap: float  # min of v - u at the horizon


def comparison_harness(params: ModelParams, wplus: SampledWeights, wminus: SampledWeights,
                       u0: Field, v0: Field, horizon: float, cfg: StepConfig) -> ComparisonResult:
    """Co-evolve ordered initial data and record any order or strip violation.

    With a positive infimum beta of u0, also checks the logistic lower
    envelope beta*theta / (beta + (theta-beta) e^{-theta km t}) <= u.  The
    final gap min(v - u) measures how far distinct ordered data stay apart.
    """
    _on_grid(wplus, wminus, u0.grid, v0.grid)
    theta = params.require_carrying_capacity()
    if not _discrete_domination_holds(params, wplus, wminus):
        raise CertificationFailed(
            "kernel domination fails on the grid; the comparison principle is not guaranteed"
        )
    if np.any(u0.values > v0.values + 1e-15):
        raise ValueError("initial data must satisfy u0 <= v0 pointwise")
    beta = u0.min
    result = ComparisonResult(max_violation=0.0, strip_violation=0.0, lower_envelope_ok=True,
                              final_gap=math.nan)

    def record(k: int, pair: np.ndarray, last: bool) -> None:
        uu, vv = pair
        result.max_violation = max(result.max_violation, float(np.max(uu - vv)))
        result.strip_violation = max(
            result.strip_violation, float(max(-vv.min(), -uu.min(), uu.max() - theta,
                                              vv.max() - theta))
        )
        if beta > 0:
            t = k * cfg.dt
            env = beta * theta / (beta + (theta - beta) * math.exp(-theta * params.kappa_minus * t))
            if uu.min() < env - 1e-9:
                result.lower_envelope_ok = False

    uu, vv = _march(_advance, params, wplus, wminus, np.stack([u0.values, v0.values]),
                    cfg, horizon, record)
    result.final_gap = float(np.min(vv - uu))
    return result
