import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkpp import (CertificationFailed, EvolutionProblem, Field, Grid, KernelSpec,
                   ModelParams, StepConfig, constant_field, bump_field, discretize,
                   find_subsolution_params, gaussian_subsolution, logistic_exact,
                   make_kernel, picard_solve, rhs, simulate, step,
                   truncated_problem, uniform_bound)
from nlkpp import evolution
from nlkpp.evolution import _advance, _picard_interval, convolve, convolve_pair, rhs_values
from nlkpp.kernels import SampledWeights

from conftest import brute_circular_convolution


def problem(canon, weights, field):
    return EvolutionProblem(canon, weights, weights, field)


class TestRhs:
    def test_zero_is_fixed(self, canon, grid256, gauss_weights):
        out = rhs(problem(canon, gauss_weights, constant_field(grid256, 0.0)))
        assert np.abs(out.values).max() <= 1e-14

    def test_theta_is_fixed(self, canon, grid256, gauss_weights):
        out = rhs(problem(canon, gauss_weights, constant_field(grid256, canon.theta)))
        assert np.abs(out.values).max() <= 1e-14

    def test_half_theta_logistic_rate(self, canon, grid256, gauss_weights):
        theta = canon.theta
        out = rhs(problem(canon, gauss_weights, constant_field(grid256, theta / 2)))
        expected = canon.kappa_minus * (theta / 2) * (theta - theta / 2)
        np.testing.assert_allclose(out.values, expected, rtol=1e-12)

    def test_spectral_matches_direct(self, canon, gauss_weights):
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.random(gauss_weights.shape)
            fft = convolve(gauss_weights, u, backend="fft")
            direct = convolve(gauss_weights, u, backend="direct")
            brute = brute_circular_convolution(gauss_weights.weights, u)
            scale = np.max(np.abs(brute))
            assert np.max(np.abs(fft - brute)) <= 1e-10 * scale
            assert np.max(np.abs(direct - brute)) <= 1e-12 * scale

    @pytest.mark.parametrize("backend", ["fft", "direct"])
    @pytest.mark.parametrize("shape", [(12, 128), (2, 64, 64)], ids=["1d", "2d"])
    def test_batched_convolve_equals_per_slice_bitwise(self, shape, backend):
        grid = Grid(dimension=len(shape) - 1, half_length=10.0, points_per_axis=shape[-1])
        kernel = make_kernel(KernelSpec("gaussian", dimension=grid.dimension, sigma=1.5))
        w = discretize(kernel, grid)
        values = np.random.default_rng(8).random(shape)
        batched = convolve(w, values, backend=backend)
        per_slice = np.stack([convolve(w, v, backend=backend) for v in values])
        assert np.array_equal(batched, per_slice)


@pytest.fixture
def transforms(monkeypatch):
    """Counts of the forward FFTs, inverse FFTs and direct sums made from here on."""
    counts = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.fft, "rfftn", counting("rfftn", np.fft.rfftn))
    monkeypatch.setattr(np.fft, "irfftn", counting("irfftn", np.fft.irfftn))
    monkeypatch.setattr(evolution, "_conv_direct", counting("direct", evolution._conv_direct))
    return counts


def reference_convolve(w, values, backend):
    """One kernel, one forward transform: the convolution before pairs shared it."""
    if backend == "direct":
        return evolution._conv_direct(w, values)
    axes = tuple(range(values.ndim - w.weights.ndim, values.ndim))
    return np.fft.irfftn(np.fft.rfftn(values, axes=axes) * w.fft(), s=w.shape, axes=axes)


class TestConvolvePair:
    @staticmethod
    def kernels(dimension, n):
        grid = Grid(dimension=dimension, half_length=10.0, points_per_axis=n)
        wp = discretize(make_kernel(KernelSpec("gaussian", dimension=dimension, sigma=1.5)), grid)
        wm = discretize(make_kernel(KernelSpec("gaussian", dimension=dimension, sigma=2.0)), grid)
        return wp, wm

    @pytest.mark.parametrize("backend", ["fft", "direct"])
    @pytest.mark.parametrize("shape", [(256,), (64, 64), (12, 128)], ids=["1d", "2d", "batch"])
    def test_equals_two_convolutions(self, shape, backend):
        dimension = 2 if shape == (64, 64) else 1
        wp, wm = self.kernels(dimension, shape[-1])
        values = np.random.default_rng(9).random(shape)
        conv_p, conv_m = convolve_pair(wp, wm, values, backend)
        for w, pair_result in ((wp, conv_p), (wm, conv_m)):
            assert np.array_equal(pair_result, convolve(w, values, backend))
            assert np.array_equal(pair_result, reference_convolve(w, values, backend))

    @pytest.mark.parametrize("shape", [(256,), (64, 64), (12, 128)], ids=["1d", "2d", "batch"])
    def test_one_forward_one_inverse_per_kernel(self, shape, transforms):
        dimension = 2 if shape == (64, 64) else 1
        wp, wm = self.kernels(dimension, shape[-1])
        wp.fft(), wm.fft()  # the kernel spectra are cached before counting
        values = np.random.default_rng(10).random(shape)
        transforms.clear()
        convolve_pair(wp, wm, values)
        assert transforms == {"rfftn": 1, "irfftn": 2}
        transforms.clear()
        conv_p, conv_m = convolve_pair(wp, wp, values)
        assert transforms == {"rfftn": 1, "irfftn": 1}
        assert conv_m is conv_p

    def test_unknown_backend(self, gauss_weights):
        with pytest.raises(ValueError, match="unknown convolution backend"):
            convolve_pair(gauss_weights, gauss_weights, np.zeros(gauss_weights.shape), "fast")


class TestSharedKernel:
    """Passing one object for a+ and a- convolves once, with the bits of two equal copies."""

    @pytest.fixture
    def twin(self, gauss_weights):
        w = gauss_weights
        return SampledWeights(w.weights.copy(), w.spacing, w.mass, w.renormalized)

    @pytest.fixture
    def calls(self, transforms):
        """Kernels applied at the pair boundary: one inverse FFT or direct sum each."""
        return lambda: transforms["irfftn"] + transforms["direct"]

    @pytest.mark.parametrize("backend", ["fft", "direct"])
    def test_rhs_values(self, canon, gauss_weights, twin, calls, backend):
        u = np.random.default_rng(3).random(gauss_weights.shape)
        shared = rhs_values(canon, gauss_weights, gauss_weights, u, backend)
        assert calls() == 1
        separate = rhs_values(canon, gauss_weights, twin, u, backend)
        assert calls() == 3
        assert np.array_equal(shared, separate)

    @pytest.mark.parametrize("method, per_step", [("rk4", 4), ("exp_euler", 1)])
    def test_advance(self, canon, gauss_weights, twin, calls, method, per_step):
        u = np.random.default_rng(4).random(gauss_weights.shape)
        cfg = StepConfig(dt=0.01, method=method)
        shared = _advance(canon, gauss_weights, gauss_weights, u, cfg)
        assert calls() == per_step
        separate = _advance(canon, gauss_weights, twin, u, cfg)
        assert calls() == 3 * per_step
        assert np.array_equal(shared, separate)

    def test_picard_interval(self, canon, gauss_weights, twin, calls):
        u = np.random.default_rng(6).random(gauss_weights.shape)
        _, shared = _picard_interval(canon, gauss_weights, gauss_weights, u,
                                     0.0, 0.1, 12, 1e-10)
        sweeps = calls()
        _, separate = _picard_interval(canon, gauss_weights, twin, u, 0.0, 0.1, 12, 1e-10)
        assert calls() == 3 * sweeps
        assert np.array_equal(shared, separate)


class TestStep:
    def test_equilibrium_stationary(self, canon, grid256, gauss_weights):
        start = problem(canon, gauss_weights, constant_field(grid256, canon.theta))
        out = step(start, StepConfig(dt=1e-3))
        assert np.abs(out.u.values - canon.theta).max() <= 1e-14

    def test_logistic_agreement(self, canon, grid256, gauss_weights):
        start = problem(canon, gauss_weights, constant_field(grid256, 0.5))
        traj = simulate(start, StepConfig(dt=1e-3), 2.0, snapshot_stride=200)
        for f in traj.snapshots:
            assert f.values.max() == pytest.approx(
                float(logistic_exact(canon, 0.5, f.time)), abs=1e-10)

    def test_shift_equivariance_bitwise_direct(self, canon, grid256, gauss_weights):
        rng = np.random.default_rng(0)
        u = Field(grid256, canon.theta * rng.random(grid256.shape))
        cfg = StepConfig(dt=1e-2, conv_backend="direct")
        shifted_first = step(problem(canon, gauss_weights, u.shifted(9)), cfg).u.values
        shifted_after = np.roll(step(problem(canon, gauss_weights, u), cfg).u.values, 9)
        assert np.array_equal(shifted_first, shifted_after)

    def test_shift_equivariance_fft_to_roundoff(self, canon, grid256, gauss_weights):
        rng = np.random.default_rng(1)
        u = Field(grid256, canon.theta * rng.random(grid256.shape))
        cfg = StepConfig(dt=1e-2)
        a = step(problem(canon, gauss_weights, u.shifted(9)), cfg).u.values
        b = np.roll(step(problem(canon, gauss_weights, u), cfg).u.values, 9)
        assert np.abs(a - b).max() <= 1e-12

    def test_stability_guard(self, canon):
        with pytest.raises(ValueError, match="stability guard"):
            StepConfig(dt=0.2).validate(canon)

    def test_exp_euler_positivity_and_accuracy(self, canon, grid256, gauss_weights):
        u0 = bump_field(grid256, 0.0, 2.0, canon.theta / 2)
        cfg = StepConfig(dt=1e-3, method="exp_euler")
        traj = simulate(problem(canon, gauss_weights, u0), cfg, 1.0, snapshot_stride=1000)
        ref = simulate(problem(canon, gauss_weights, u0), StepConfig(dt=1e-3), 1.0,
                       snapshot_stride=1000)
        assert min(traj.mins) >= 0.0
        # first-order scheme: dt-level agreement only
        assert np.abs(traj.final.values - ref.final.values).max() <= 1e-3

    def test_horizon_must_match_dt(self, canon, grid256, gauss_weights):
        start = problem(canon, gauss_weights, constant_field(grid256, 0.5))
        with pytest.raises(ValueError, match="multiple"):
            simulate(start, StepConfig(dt=3e-3), 1.0)


class TestInvariants:
    def test_strip_and_positivity(self, canon, grid256, gauss_weights):
        theta = canon.theta
        u0 = bump_field(grid256, 0.0, 2.0, theta / 2)
        traj = simulate(problem(canon, gauss_weights, u0), StepConfig(dt=2e-3), 4.0,
                        snapshot_stride=250)
        assert min(traj.mins) >= -1e-9
        assert max(traj.maxs) <= theta + 1e-9
        # strict positivity for t > 0 and growing interior minimum
        interior_mins = [f.values.min() for f in traj.snapshots[1:]]
        assert all(m > -1e-12 for m in interior_mins)
        assert interior_mins[-1] > interior_mins[0]

    def test_exponential_apriori_bound(self, grid256):
        params = ModelParams(kappa_plus=3.0, kappa_minus=1.0, mortality=1.0)
        kernel = make_kernel(KernelSpec("gaussian", 1, sigma=1.0))
        w = discretize(kernel, grid256)
        u0 = bump_field(grid256, 0.0, 2.0, 0.5)
        traj = simulate(EvolutionProblem(params, w, w, u0), StepConfig(dt=2e-3), 2.0,
                        snapshot_stride=100)
        for t, peak in zip(traj.times, traj.maxs):
            assert peak <= math.exp((params.kappa_plus - params.mortality) * t) * 0.5 + 1e-9

    def test_monotone_along_direction_preserved(self, canon):
        # wide domain so the periodic seam's influence cannot reach the window
        grid = Grid(dimension=1, half_length=40.0, points_per_axis=512)
        kernel = make_kernel(KernelSpec("gaussian", 1, sigma=1.0))
        w = discretize(kernel, grid)
        theta = canon.theta
        x = grid.axis_coords()
        ramp = theta / (1.0 + np.exp(np.clip(0.8 * x, -500, 500)))
        traj = simulate(EvolutionProblem(canon, w, w, Field(grid, ramp)),
                        StepConfig(dt=2e-3), 1.0, snapshot_stride=250)
        n = grid.points_per_axis
        sl = slice(int(0.25 * n), int(0.75 * n))
        for f in traj.snapshots:
            rises = np.diff(f.values[sl])
            assert rises.max() <= 1e-10


class TestPicard:
    def test_zero_stays_zero(self, canon, grid256, gauss_weights):
        traj = picard_solve(problem(canon, gauss_weights, constant_field(grid256, 0.0)), 1.0)
        assert max(traj.maxs) == 0.0

    def test_matches_logistic(self, canon, grid256, gauss_weights):
        traj = picard_solve(problem(canon, gauss_weights, constant_field(grid256, 0.5)), 3.0)
        for f in traj.snapshots:
            assert f.values.max() == pytest.approx(
                float(logistic_exact(canon, 0.5, f.time)), abs=1e-8)

    def test_agrees_with_rk4_on_bump(self, canon, grid256, gauss_weights):
        u0 = bump_field(grid256, 0.0, 2.0, canon.theta / 2)
        start = problem(canon, gauss_weights, u0)
        rk = simulate(start, StepConfig(dt=1e-3), 1.0, snapshot_stride=1000)
        pi = picard_solve(start, 1.0)
        assert pi.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rk.final.values - pi.final.values).max() <= 1e-5


class TestLogisticExact:
    def test_equilibrium(self, canon):
        assert float(logistic_exact(canon, canon.theta, 5.0)) == canon.theta

    def test_canonical_half(self, canon):
        t = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(logistic_exact(canon, 0.5, t), 1 / (1 + np.exp(-t)),
                                   rtol=1e-14)

    def test_degenerate_theta_zero(self):
        params = ModelParams(kappa_plus=1.0, kappa_minus=1.0, mortality=1.0)
        assert float(logistic_exact(params, 1.0, 1.0)) == pytest.approx(0.5, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(u0=st.floats(0.0, 3.0), t=st.floats(0.0, 30.0))
    def test_stays_between_start_and_equilibrium(self, canon, u0, t):
        value = float(logistic_exact(canon, u0, t))
        lo, hi = sorted((u0, max(canon.theta, 0.0)))
        assert lo - 1e-12 <= value <= hi + 1e-12


class TestTruncation:
    def test_large_radius_recovers_theta(self, canon, grid256, gauss_weights):
        u0 = constant_field(grid256, 0.3)
        theta_r, _ = truncated_problem(problem(canon, gauss_weights, u0), 15.0)
        assert theta_r == pytest.approx(canon.theta, abs=1e-9)

    def test_erf_oracle_at_fine_resolution(self, canon):
        from scipy.special import erf
        grid = Grid(dimension=1, half_length=20.0, points_per_axis=4096)
        kernel = make_kernel(KernelSpec("gaussian", 1, sigma=1.0))
        w = discretize(kernel, grid)
        u0 = constant_field(grid, 0.3)
        theta_r, _ = truncated_problem(EvolutionProblem(canon, w, w, u0), 1.0)
        a_r = erf(1.0 / math.sqrt(2.0))
        expected = (2.0 * a_r - 1.0) / a_r
        assert theta_r == pytest.approx(expected, abs=5e-3)

    def test_mass_precondition(self, canon, grid256, gauss_weights):
        u0 = constant_field(grid256, 0.3)
        with pytest.raises(ValueError, match="truncation radius"):
            truncated_problem(problem(canon, gauss_weights, u0), 0.2)

    def test_domination_by_full_solution(self, canon, grid256, gauss_weights):
        theta_r, trunc = truncated_problem(
            problem(canon, gauss_weights, constant_field(grid256, 0.0)), 2.0)
        u0 = bump_field(grid256, 0.0, 2.0, 0.9 * theta_r)
        cfg = StepConfig(dt=2e-3)
        full = simulate(problem(canon, gauss_weights, u0), cfg, 4.0, snapshot_stride=250)
        cut = simulate(EvolutionProblem(canon, trunc.a_plus_w, trunc.a_minus_w, u0),
                       cfg, 4.0, snapshot_stride=250)
        worst = max(float(np.max(a.values - b.values))
                    for a, b in zip(cut.snapshots, full.snapshots))
        assert worst <= 1e-9


class TestUniformBound:
    def test_theta_shortcut(self, canon, gauss1):
        assert uniform_bound(canon, gauss1, gauss1, 0.5, assume_domination=True) == canon.theta

    def test_decay_regime(self, gauss1):
        params = ModelParams(kappa_plus=1.0, kappa_minus=1.0, mortality=2.0)
        assert uniform_bound(params, gauss1, gauss1, 3.0) == 3.0

    def test_simulation_never_exceeds(self, canon, grid256, gauss1, gauss_weights):
        bound = uniform_bound(canon, gauss1, gauss1, 5 * canon.theta)
        assert math.isfinite(bound)
        start = problem(canon, gauss_weights, constant_field(grid256, 5 * canon.theta))
        traj = simulate(start, StepConfig(dt=1e-3), 3.0, snapshot_stride=300)
        assert max(traj.maxs) <= bound


@pytest.fixture(scope="module")
def wide():
    grid = Grid(dimension=1, half_length=40.0, points_per_axis=1024)
    kernel = make_kernel(KernelSpec("gaussian", 1, sigma=1.0))
    return grid, discretize(kernel, grid)


class TestSubsolution:
    def test_certified_parameters_exist(self, canon, wide):
        grid, w = wide
        q, alpha, t = find_subsolution_params(canon, w, w, grid)
        field = gaussian_subsolution(canon, w, w, grid, q, alpha, t)
        assert field.max == pytest.approx(q, rel=1e-12)
        center = int(np.argmax(field.values))
        assert abs(grid.axis_coords()[center]) < grid.spacing  # symmetric kernel

    def test_operator_scales_with_q(self, canon, wide):
        grid, w = wide
        q, alpha, t = find_subsolution_params(canon, w, w, grid)
        gaussian_subsolution(canon, w, w, grid, q / 100.0, alpha, t, tol=1e-10)

    def test_bad_parameters_fail_certification(self, canon, wide):
        grid, w = wide
        with pytest.raises(CertificationFailed):
            gaussian_subsolution(canon, w, w, grid, q=0.9 * canon.theta, alpha=50.0, t=0.5)
