"""Uniform periodic lattices and real-valued states sampled on them.

A point array has shape ``(..., d)`` in every dimension, 1-D included: the
last axis holds the coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridError

DIMENSIONS = (1, 2)  # of a grid and a kernel


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def lattice(values: np.ndarray, d: int) -> np.ndarray:
    """The points of the product lattice ``values``^d, shape ``(n,) * d + (d,)``."""
    return np.stack(np.meshgrid(*[values] * d, indexing="ij"), axis=-1)


def along_first_axis(profile: np.ndarray, d: int) -> np.ndarray:
    """A 1-D profile on the first of d axes, constant along the other d - 1."""
    n = len(profile)
    return np.broadcast_to(profile.reshape((n,) + (1,) * (d - 1)), (n,) * d).copy()


@dataclass(frozen=True)
class Grid:
    """Periodic lattice on [-L, L)^d with N points per axis (N a power of two)."""

    dimension: int
    half_length: float
    points_per_axis: int

    def __post_init__(self):
        if self.dimension not in DIMENSIONS:
            raise GridError(f"dimension must be 1 or 2, got {self.dimension}")
        if not self.half_length > 0:
            raise GridError("half_length must be positive")
        if self.points_per_axis < 16:
            raise GridError("points_per_axis must be at least 16")
        if not _is_power_of_two(self.points_per_axis):
            raise GridError(f"points_per_axis must be a power of two, got {self.points_per_axis}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    def axis_coords(self) -> np.ndarray:
        n = self.points_per_axis
        return -self.half_length + self.spacing * np.arange(n)

    def coords(self) -> np.ndarray:
        """Point coordinates, shape ``shape + (d,)``."""
        return lattice(self.axis_coords(), self.dimension)

    def radii(self) -> np.ndarray:
        """Distance from the origin at every grid point."""
        return np.linalg.norm(self.coords(), axis=-1)


@dataclass(frozen=True)
class Field:
    """State u sampled on a grid at a given time."""

    grid: Grid
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise GridError(f"values shape {values.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(values)):
            raise GridError("field values must be finite")
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray, time: float | None = None) -> "Field":
        return Field(self.grid, values, self.time if time is None else time)

    def shifted(self, cells: int, axis: int = 0) -> "Field":
        """Whole-cell periodic translation."""
        return self.with_values(np.roll(self.values, cells, axis=axis))

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())


def constant_field(grid: Grid, value: float, time: float = 0.0) -> Field:
    return Field(grid, np.full(grid.shape, float(value)), time)


def bump_field(grid: Grid, center, width: float, height: float, time: float = 0.0) -> Field:
    """Smooth compactly supported bump: height * exp(1 - 1/(1 - r^2/w^2)) inside r < w."""
    r = np.linalg.norm(grid.coords() - np.asarray(center, dtype=float), axis=-1)
    z = np.square(r / width)
    values = np.zeros(grid.shape)
    inside = z < 1.0
    values[inside] = height * np.exp(1.0 - 1.0 / (1.0 - z[inside]))
    return Field(grid, values, time)


def step_field(grid: Grid, theta: float, direction: int = 1, time: float = 0.0) -> Field:
    """Smoothed step: theta on one half of the first axis, 0 on the other."""
    x = grid.axis_coords()
    profile = theta / (1.0 + np.exp(np.clip(2.0 * direction * x, -500.0, 500.0)))
    return Field(grid, along_first_axis(profile, grid.dimension), time)
