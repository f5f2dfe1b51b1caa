import collections

import numpy as np
import pytest

from nlkpp import (Grid, Kernel, ModelParams, discretize, evolution, kernels,
                   reduce_to_direction)


@pytest.fixture(scope="session")
def canon():
    """The canonical parameter point used throughout: kp=2, km=1, m=1."""
    return ModelParams(kappa_plus=2.0, kappa_minus=1.0, mortality=1.0)


@pytest.fixture(scope="session")
def gauss1():
    return Kernel("gaussian", dimension=1, sigma=1.0)


@pytest.fixture(scope="session")
def gauss_line(gauss1):
    return reduce_to_direction(gauss1, [1.0])


@pytest.fixture(scope="session")
def grid256():
    return Grid(dimension=1, half_length=20.0, points_per_axis=256)


@pytest.fixture(scope="session")
def gauss_weights(gauss1, grid256):
    return discretize(gauss1, grid256)


@pytest.fixture
def transforms(monkeypatch):
    """Counts of the forward FFTs, inverse FFTs and direct sums made from here on.

    ``convolve_pair`` is the package's one FFT convolution; it transforms
    through ``kernels._rfft`` and ``_irfft``, and kernel spectra come from
    ``_rfft`` as well.
    """
    counts = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    rfft, irfft = counting("rfft", kernels._rfft), counting("irfft", kernels._irfft)
    for module in (kernels, evolution):
        monkeypatch.setattr(module, "_rfft", rfft)
        monkeypatch.setattr(module, "_irfft", irfft)
    monkeypatch.setattr(evolution, "_conv_direct", counting("direct", evolution._conv_direct))
    return counts


def brute_circular_convolution(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """O(N^2) reference circular convolution (displacements in FFT order)."""
    out = np.zeros_like(values)
    if values.ndim == 1:
        n = len(values)
        for j in range(n):
            if weights[j] != 0.0:
                out += weights[j] * np.roll(values, j)
        return out
    n0, n1 = values.shape
    for j0 in range(n0):
        for j1 in range(n1):
            w = weights[j0, j1]
            if w != 0.0:
                out += w * np.roll(np.roll(values, j0, axis=0), j1, axis=1)
    return out
