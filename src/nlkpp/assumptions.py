"""Checks of the standing hypotheses: rate ordering, kernel domination, moments."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import lattice
from .kernels import Kernel
from .params import ModelParams

# points per axis, by dimension, of the lattices near the origin: the dense
# patch added to the A2 sample and the A4 ball
_PATCH_POINTS = {1: 501, 2: 41}
_BALL_POINTS = {1: 201, 2: 31}


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the hypothesis checks, with witnesses where they exist.

    * A1: birth rate exceeds mortality (positive carrying capacity).
    * A2: kappa_plus * a_plus >= (kappa_plus - mortality) * a_minus pointwise,
      checked on a deterministic low-discrepancy sample plus a dense
      neighborhood of the origin.
    * A3: positive exponential moment of a_plus (Mollison condition); the
      witness is an explicit admissible exponent.
    * A4: the gap kernel J_theta is bounded below near the origin; the witness
      is a pair (rho, delta) with J_theta >= rho on the ball of radius delta.
    * radial_exp_moment: radial exponential moment of a_plus with witness mu_d.
    """

    A1_kappa_gt_m: bool
    A2_kernel_domination: bool
    A3_mollison: float | None
    A4_gap_positive_near_origin: tuple[float, float] | None
    radial_exp_moment: float | None
    A2_worst_point: tuple[float, ...] | None = None

    def as_dict(self) -> dict[str, object]:
        return {
            "A1_kappa_gt_m": self.A1_kappa_gt_m,
            "A2_kernel_domination": self.A2_kernel_domination,
            "A3_mollison": self.A3_mollison,
            "A4_gap_witness": self.A4_gap_positive_near_origin,
            "radial_exp_moment": self.radial_exp_moment,
        }


def _radical_inverse(count: int, base: int) -> np.ndarray:
    """Van der Corput points 0, 1/b, 2/b, ... : the base-b digits of 0..count-1 mirrored."""
    q = np.arange(count)
    out = np.zeros(count)
    scale = 1.0 / base
    while q.any():
        out += (q % base) * scale
        scale /= base
        q //= base
    return out


def _halton(dimension: int, count: int) -> np.ndarray:
    """The first ``count`` points of the unscrambled Halton sequence in bases 2, 3."""
    return np.stack([_radical_inverse(count, base) for base in (2, 3)[:dimension]], axis=-1)


def _in_ball(pts: np.ndarray, radius: float) -> np.ndarray:
    """The points (n, d) that lie in the closed ball of the given radius."""
    return pts[np.linalg.norm(pts, axis=1) <= radius]


def _cube_lattice(dimension: int, half_width: float, per_axis: int) -> np.ndarray:
    """The per_axis^d lattice points (n, d) that span [-half_width, half_width]^d."""
    t = np.linspace(-half_width, half_width, per_axis)
    return lattice(t, dimension).reshape(-1, dimension)


def _sample_points(dimension: int, radius: float, count: int) -> np.ndarray:
    """Deterministic quasi-random points in the ball plus a dense origin patch, (n, d)."""
    cube = _halton(dimension, count)  # in [0, 1)^d
    pts = _in_ball((2.0 * cube - 1.0) * radius, radius)
    near = _cube_lattice(dimension, radius / 50.0, _PATCH_POINTS[dimension])
    return np.concatenate([pts, near])


def competition_gap(params: ModelParams, a_plus: Kernel, a_minus: Kernel, q: float):
    """Pointwise evaluator of J_q(x) = kappa_plus a+(x) - q kappa_minus a-(x).

    Requires 0 < q <= theta.  At q = theta the gap kernel is nonnegative under
    A2 and integrates to the mortality rate.
    """
    theta = params.require_carrying_capacity()
    if not 0.0 < q <= theta * (1.0 + 1e-12):
        raise ValueError(f"q must lie in (0, theta] = (0, {theta}], got {q}")

    def evaluate(x):
        return params.kappa_plus * a_plus.eval(x) - q * params.kappa_minus * a_minus.eval(x)

    return evaluate


def check_assumptions(
    params: ModelParams,
    a_plus: Kernel,
    a_minus: Kernel,
    sample_radius: float,
    n_samples: int = 20000,
) -> AssumptionReport:
    """Evaluate the standing hypotheses by dense pointwise sampling."""
    if a_plus.dimension != a_minus.dimension:
        raise ValueError("kernels must share a dimension")

    a1 = params.kappa_plus > params.mortality

    pts = _sample_points(a_plus.dimension, sample_radius, n_samples)
    lhs = params.kappa_plus * np.asarray(a_plus.eval(pts), dtype=float)
    rhs = (params.kappa_plus - params.mortality) * np.asarray(a_minus.eval(pts), dtype=float)
    margin = lhs - rhs
    worst = int(np.argmin(margin))
    a2 = bool(margin[worst] >= -1e-14)
    worst_point = tuple(float(c) for c in pts[worst])

    # A3 and the radial moment share one witness: finiteness is an analytic property
    # of the family, and both hold exactly when a+ has a positive abscissa
    a3 = None
    if a_plus.abscissa > 0:
        a3 = 1.0 if math.isinf(a_plus.abscissa) else a_plus.abscissa / 2.0

    a4 = None
    if a1 and a2:
        gap = competition_gap(params, a_plus, a_minus, params.theta)
        for delta in (sample_radius / 4.0, sample_radius / 16.0, sample_radius / 64.0):
            ball = _cube_lattice(a_plus.dimension, delta, _BALL_POINTS[a_plus.dimension])
            rho = float(np.min(gap(_in_ball(ball, delta))))
            if rho > 0:
                a4 = (rho, float(delta))
                break

    return AssumptionReport(
        A1_kappa_gt_m=bool(a1),
        A2_kernel_domination=a2,
        A3_mollison=a3,
        A4_gap_positive_near_origin=a4,
        radial_exp_moment=a3,
        A2_worst_point=worst_point,
    )
