"""Independent theory oracles for the benchmark's correctness checks.

Nothing here imports nlkpp: minimal speeds come from closed-form transforms,
front speeds from the benchmark's own level tracking of the CLI's CSV output.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special


def gaussian_transform(lam: float) -> float:
    """Bilateral transform of the centred unit gaussian marginal."""
    return math.exp(0.5 * lam * lam)


def chord_transform(lam: float, radius: float) -> float:
    """Transform of the marginal of the uniform disk: 2 I1(lam R) / (lam R)."""
    x = lam * radius
    return 2.0 * float(special.i1(x)) / x


def minimal_speed(transform, kappa_plus: float, mortality: float) -> tuple[float, float]:
    """(lambda*, c*) minimising G(lam) = (kp T(lam) - m) / lam over lam > 0."""
    res = optimize.minimize_scalar(
        lambda lam: (kappa_plus * transform(lam) - mortality) / lam,
        bounds=(1e-3, 20.0), method="bounded", options={"xatol": 1e-12})
    return float(res.x), float(res.fun)


def decay_rate(transform, kappa_plus: float, mortality: float, c: float,
               lam_star: float) -> float:
    """Profile decay rate at speed c >= c*: the smaller root of kp T - m - lam c."""
    f = lambda lam: kappa_plus * transform(lam) - mortality - lam * c  # noqa: E731
    if f(lam_star) >= 0.0:
        return lam_star
    return float(optimize.brentq(f, 1e-12, lam_star, xtol=1e-15))


def level_positions(csv_path, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Rightmost sub-cell crossing of ``level`` per snapshot of a 1-D ``t,x1,u`` CSV."""
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    times, positions = [], []
    for t in np.unique(data[:, 0]):
        rows = data[data[:, 0] == t]
        x, u = rows[:, 1], rows[:, 2]
        above = np.flatnonzero(u >= level)
        if len(above) == 0 or above[-1] + 1 >= len(u):
            continue
        i = above[-1]
        times.append(t)
        positions.append(x[i] + (u[i] - level) / (u[i] - u[i + 1]) * (x[i + 1] - x[i]))
    return np.asarray(times), np.asarray(positions)


def bramson_speed(times: np.ndarray, positions: np.ndarray, lam_star: float) -> float:
    """Front speed with the pulled-front delay removed.

    A front started from compact data sits at c* t - 3/(2 lam*) log t + O(1);
    the least-squares slope of position + 3/(2 lam*) log t estimates c*.
    """
    corrected = positions + 1.5 / lam_star * np.log(times)
    slope, _ = np.polyfit(times, corrected, 1)
    return float(slope)
