import math

import numpy as np
import pytest
from scipy.signal import fftconvolve

from nlkpp import (CertificationFailed, ConvergenceFailure, Kernel, StepConfig, fit_decay,
                   initial_supersolution, measure_profile_speed, minimize_G,
                   profile_residual, reduce_to_direction, solve_profile, speed_to_abscissa)
from nlkpp import waves
from nlkpp.evolution import _march
from nlkpp.kernels import _per_kernel, _quad
from nlkpp.waves import WaveProfile, LineKernel, half_level_crossing, sample_line_kernel


def _convolve_padded(psi, lk, left, right):
    """(a * psi)(s_i) with psi = left before the grid and right after it."""
    return waves._line_pair(lk, lk, psi, waves._constant_pad(left, right))[0]


@pytest.fixture(scope="module")
def report(canon, gauss_line):
    return minimize_G(canon, gauss_line)


@pytest.fixture(scope="module")
def profile_13(canon, gauss_line, report):
    """Profile at 1.3 c* on a moderate grid; reused across assertions."""
    return solve_profile(canon, gauss_line, gauss_line, 1.3 * report.c_star, report=report)


class TestLineMachinery:
    @pytest.mark.parametrize("left, right", [(0.7, 0.0), (0.3, 0.9)],
                             ids=["theta-zero", "two-sided"])
    def test_line_convolve_matches_brute_force(self, left, right):
        rng = np.random.default_rng(2)
        h = 0.5
        w = rng.random(7)  # deliberately asymmetric weights
        w /= w.sum()
        lk = LineKernel(weights=w, spacing=h)
        psi = rng.random(20)
        out = _convolve_padded(psi, lk, left, right)
        half = lk.halfwidth

        def extended(i):
            if i < 0:
                return left
            if i >= len(psi):
                return right
            return psi[i]

        for i in range(len(psi)):
            brute = sum(w[j] * extended(i - (j - half)) for j in range(len(w)))
            assert out[i] == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    @pytest.mark.parametrize("h", [0.05, 0.1])
    @pytest.mark.parametrize("left, right", [(1.0, 0.0), (0.3, 0.9)],
                             ids=["theta-zero", "two-sided"])
    def test_line_convolve_equals_fftconvolve_bitwise(self, family, h, left, right):
        params = {"sigma": 1.0} if family == "gaussian" else {"mu": 1.0}
        line = reduce_to_direction(Kernel(family, 1, **params), [1.0])
        lk = sample_line_kernel(line, h)
        half = lk.halfwidth
        rng = np.random.default_rng(int(100 * h) + len(family))
        for n in rng.integers(50, 3000, size=6):
            psi = rng.random(n)
            padded = np.concatenate([np.full(half, left), psi, np.full(half, right)])
            expected = fftconvolve(padded, lk.weights, mode="valid")
            assert np.array_equal(_convolve_padded(psi, lk, left, right), expected)

    def test_line_kernel_spectrum_is_cached_per_length(self, gauss_line):
        lk = sample_line_kernel(gauss_line, 0.1)
        assert lk.spectrum((1024,)) is lk.spectrum((1024,))
        assert len(lk.spectrum((1000,))) == 501
        assert np.array_equal(lk.spectrum((1000,)), np.fft.rfft(lk.weights, 1000))

    def test_line_samples_are_shared_only_for_one_line(self, gauss_line):
        wp, wm = _per_kernel(sample_line_kernel, gauss_line, gauss_line, 0.1)
        assert wm is wp
        # an equal line that is another object is sampled on its own, to equal weights
        twin = reduce_to_direction(Kernel("gaussian", 1, sigma=1.0), [1.0])
        wp, wm = _per_kernel(sample_line_kernel, gauss_line, twin, 0.1)
        assert wm is not wp
        assert np.array_equal(wm.weights, wp.weights)
        lap = reduce_to_direction(Kernel("laplace", 1, mu=1.0), [1.0])
        wp, wm = _per_kernel(sample_line_kernel, gauss_line, lap, 0.1)
        assert wm is not wp
        assert not np.array_equal(wp.weights, wm.weights)
        assert np.array_equal(wm.weights, sample_line_kernel(lap, 0.1).weights)

    def test_line_step_shared_kernel_convolves_once(self, canon, gauss_line, transforms):
        wp = sample_line_kernel(gauss_line, 0.1)
        copy = LineKernel(weights=wp.weights.copy(), spacing=wp.spacing)
        s = 0.1 * (np.arange(600) - 200)
        psi = 1.0 / (1.0 + np.exp(s))
        cfg = StepConfig(dt=0.02)
        waves._line_advance(canon, wp, copy, psi, cfg)  # caches both kernel spectra
        transforms.clear()
        shared = _march(waves._line_advance, canon, wp, wp, psi, cfg, 0.06)
        assert transforms == {"rfft": 3 * 4, "irfft": 3 * 4}
        transforms.clear()
        separate = _march(waves._line_advance, canon, wp, copy, psi, cfg, 0.06)
        assert transforms == {"rfft": 3 * 4, "irfft": 3 * 8}
        assert np.array_equal(shared, separate)

    def test_line_pair_transforms_psi_once(self, gauss_line, transforms):
        narrow = reduce_to_direction(Kernel("gaussian", 1, sigma=0.8), [1.0])
        wp, wm = _per_kernel(sample_line_kernel, gauss_line, narrow, 0.1)
        assert wm.halfwidth < wp.halfwidth
        pad = waves._constant_pad(1.0, 0.0)
        rng = np.random.default_rng(12)
        for n in (500, 777, 1200):
            psi = rng.random(n)
            waves._line_pair(wp, wm, psi, pad)  # caches both kernel spectra at this length
            transforms.clear()
            pair = waves._line_pair(wp, wm, psi, pad)
            assert transforms == {"rfft": 1, "irfft": 2}
            for w, result in zip((wp, wm), pair):
                expected = _convolve_padded(psi, w, 1.0, 0.0)
                assert np.max(np.abs(result - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_half_level_crossing_interpolates(self):
        s = np.linspace(-5, 5, 101)
        psi = np.clip(1.0 - (s + 0.3), 0.0, 1.0)  # crossing 0.5 at s = 0.2
        assert half_level_crossing(s, psi, 0.5) == pytest.approx(0.2, abs=1e-12)

    def test_sampled_kernel_sums_to_one(self, gauss_line):
        lk = sample_line_kernel(gauss_line, 0.05)
        assert lk.weights.sum() == 1.0

    def test_sampled_kernel_covers_an_offset_gaussian(self):
        # all but 1e-10 of the mass about the offset lies within the samples' reach
        shifted = Kernel("gaussian", 1, sigma=1.0, offset=(5.0,))
        line = reduce_to_direction(shifted, [1.0])
        lk = sample_line_kernel(line, 0.1)
        radius = lk.halfwidth * 0.1
        assert _quad(line.eval, radius, np.inf) + _quad(line.eval, -np.inf, -radius) <= 1e-10


class TestSupersolution:
    def test_paired_speed_closed_form(self, canon, gauss_line):
        s = np.linspace(-30, 50, 1600, endpoint=False)
        phi, c = initial_supersolution(canon, gauss_line, gauss_line, s, mu=0.5)
        assert c == pytest.approx((2 * math.exp(0.125) - 1) / 0.5, rel=1e-12)
        assert np.all(phi[s <= 0] == canon.theta)

    def test_rejects_mu_beyond_abscissa(self, canon):
        lap = reduce_to_direction(Kernel("laplace", 1, mu=1.0), [1.0])
        s = np.linspace(-30, 50, 1600, endpoint=False)
        with pytest.raises(ValueError):
            initial_supersolution(canon, lap, lap, s, mu=1.2)

    def test_w_class_certifies_at_the_abscissa(self, canon):
        # exp(-|s|) / (1 + s^4) has a finite transform at its abscissa 1 = lambda*
        kernel = Kernel("exppoly", 1, p=1.0, q=4.0, mu=1.0)
        kline = reduce_to_direction(kernel, [1.0])
        report = minimize_G(canon, kline)
        assert report.kernel_class == "W" and report.lambda_star == kline.lambda0
        s = -40.0 + 0.1 * np.arange(1200)
        _, c = initial_supersolution(canon, kline, kline, s, mu=kline.lambda0)
        assert c == report.c_star

    def test_minimal_speed_at_lambda_star(self, canon, gauss_line, report):
        s = np.linspace(-30, 50, 1600, endpoint=False)
        _, c = initial_supersolution(canon, gauss_line, gauss_line, s,
                                     mu=report.lambda_star)
        assert c == pytest.approx(report.c_star, rel=1e-10)

    def test_plateau_failure_points_to_kernel_domination(self, canon, gauss_line, report):
        lap = reduce_to_direction(Kernel("laplace", 1, mu=1.0), [1.0])
        s = -40.0 + 0.1 * np.arange(1200)
        mu = speed_to_abscissa(canon, gauss_line, 1.3 * report.c_star, report=report)
        with pytest.raises(CertificationFailed) as err:
            initial_supersolution(canon, gauss_line, lap, s, mu=mu, tol=1e-3)
        (worst,) = err.value.location
        assert s[worst] == pytest.approx(-1.8)
        assert err.value.value > 1e-3
        assert "kernel domination (A2)" in str(err.value)
        assert "enlarge the domain" not in str(err.value)

    def test_ramp_failure_asks_for_a_finer_grid(self, canon):
        uniform = reduce_to_direction(Kernel("compact_uniform", 1, radius=1.0), [1.0])
        mu = minimize_G(canon, uniform).lambda_star
        s = np.arange(-30.0, 50.0, 0.3)
        with pytest.raises(CertificationFailed, match="enlarge the domain or refine the grid"
                           ) as err:
            initial_supersolution(canon, uniform, uniform, s, mu=mu, tol=1e-8)
        assert s[err.value.location[0]] > 0
        initial_supersolution(canon, uniform, uniform, np.arange(-30.0, 50.0, 0.1), mu=mu,
                              tol=1e-8)


class TestResidual:
    def test_constant_states_have_zero_residual(self, canon, gauss_line):
        s = np.linspace(-20, 20, 800, endpoint=False)
        lines = _per_kernel(sample_line_kernel, gauss_line, gauss_line, float(s[1] - s[0]))
        # theta plateau: equation residual kp*theta - m*theta - km*theta^2 = 0
        res_theta = waves._frame_residual(canon, *lines, np.full_like(s, canon.theta), 1.0)
        assert res_theta <= 1e-12
        res_zero = waves._frame_residual(canon, *lines, np.zeros_like(s), 1.0)
        assert res_zero <= 1e-12

    def test_converged_profile_residual(self, canon, gauss_line, profile_13):
        assert profile_residual(profile_13, canon, gauss_line, gauss_line) <= 1e-6

    def test_presampled_lines_give_the_same_bits(self, canon, gauss_line, profile_13):
        # solve_profile measures its residual with the pair it solved with
        assert profile_13.residual == profile_residual(profile_13, canon, gauss_line,
                                                       gauss_line)


class TestSolveProfile:
    def test_rejects_speed_below_minimum(self, canon, gauss_line, report):
        with pytest.raises(ValueError, match="minimal speed"):
            solve_profile(canon, gauss_line, gauss_line, 0.9 * report.c_star,
                          report=report)

    def test_profile_structure(self, canon, profile_13, report):
        theta = canon.theta
        assert profile_13.psi[0] >= theta * (1 - 1e-7)
        assert profile_13.psi[-1] <= theta * 1e-7
        assert profile_13.strictly_decreasing_in_core()
        center = len(profile_13.s) // 2
        assert profile_13.psi[center] == pytest.approx(theta / 2, abs=1e-8)

    def test_fitted_exponent_matches_dispersion_root(self, canon, gauss_line,
                                                     profile_13, report):
        lam_pred = speed_to_abscissa(canon, gauss_line, 1.3 * report.c_star,
                                     report=report)
        assert profile_13.fitted_j == 1
        assert abs(profile_13.fitted_lambda - lam_pred) / lam_pred <= 0.01
        # solve_profile keeps the root and the fit's r^2 it computed
        assert profile_13.predicted_lambda == lam_pred
        assert profile_13.r_squared == fit_decay(profile_13, expected_j=1)[2]

    # measured spreads: 7.0e-11, 1.8e-9, 1.3e-9 and 1.5e-7; each bound leaves
    # about 10x, except laplace-1.3, whose 5e-9 leaves about 4x
    @pytest.mark.parametrize("spec, factor, bound", [
        (Kernel("gaussian", 1, sigma=1.0), 1.3, 1e-9),
        (Kernel("gaussian", 1, sigma=1.0), 1.0, 2e-8),
        (Kernel("laplace", 1, mu=2.0), 1.3, 5e-9),
        (Kernel("laplace", 1, mu=2.0), 1.0, 2e-6),
    ], ids=["gaussian-1.3", "gaussian-1.0", "laplace-1.3", "laplace-1.0"])
    def test_all_seeds_agree(self, canon, spec, factor, bound):
        # the wave is unique up to shift, and the pin psi(0) = theta/2 fixes the shift
        line = reduce_to_direction(spec, [1.0])
        report = minimize_G(canon, line)
        profiles = [solve_profile(canon, line, line, factor * report.c_star, h=0.1,
                                  s_left=-40, s_right=80, seed=seed, report=report).psi
                    for seed in ("supersolution", "critical", "step")]
        assert max(np.abs(a - b).max() for a in profiles for b in profiles) <= bound

    def test_short_left_domain_names_its_end(self, canon, gauss_line, report):
        # psi(-55) = theta - 1.08e-7 on the default domain, outside the 1e-7 band
        with pytest.raises(ConvergenceFailure, match=r"left end: psi\(-55\) = theta - 1\.08e-07"
                           ) as err:
            solve_profile(canon, gauss_line, gauss_line, 1.5 * report.c_star, report=report)
        assert "s_left (domain_left)" in str(err.value)

    def test_plateau_rate_solves_the_linearisation_at_theta(self, canon, gauss_line, report):
        # the discrete rate tends to the root of -c nu + kp + (km theta - kp) T(nu)
        # with T(nu) = e^{nu^2/2} for the unit gaussian
        c = 1.3 * report.c_star
        wp = sample_line_kernel(gauss_line, 0.05)
        nu = waves._plateau_rate(canon, wp, wp, c, math.inf)
        continuous = -c * nu + 2.0 - math.exp(nu * nu / 2.0)
        assert nu > 0.0
        assert abs(continuous) <= 1e-7

    @pytest.mark.parametrize("family, params, factor, h", [
        ("gaussian", {"sigma": 1.0}, 1.3, 0.05),
        ("gaussian", {"sigma": 1.0}, 1.0, 0.05),
        ("laplace", {"mu": 2.0}, 1.3, 0.1),
    ], ids=["gaussian-1.3c*", "gaussian-c*", "laplace-1.3c*"])
    def test_speed_consistency(self, canon, family, params, factor, h):
        line = reduce_to_direction(Kernel(family, 1, **params), [1.0])
        line_report = minimize_G(canon, line)
        c = factor * line_report.c_star
        profile = solve_profile(canon, line, line, c, h=h, s_left=-40.0, s_right=80.0,
                                report=line_report)
        measured = measure_profile_speed(profile, canon, line, line)
        assert abs(measured - c) / c <= 1e-4

    def test_exponential_integrability_dichotomy(self, canon, gauss_line,
                                                 profile_13, report):
        # discrete transform of the profile: stable below the root, domain
        # growth above it
        lam_c = speed_to_abscissa(canon, gauss_line, 1.3 * report.c_star, report=report)
        wide = solve_profile(canon, gauss_line, gauss_line, 1.3 * report.c_star,
                             report=report, s_right=90.0)

        def tail_sum(profile, lam):
            mask = profile.s > 0
            return float(np.sum(profile.psi[mask] * np.exp(lam * profile.s[mask]))
                         * profile.spacing)

        below = tail_sum(profile_13, lam_c - 0.1), tail_sum(wide, lam_c - 0.1)
        above = tail_sum(profile_13, lam_c + 0.1), tail_sum(wide, lam_c + 0.1)
        # converging truncations: only the exponentially small tail differs
        assert below[1] == pytest.approx(below[0], rel=2e-2)
        assert above[1] > 2.0 * above[0]

    def test_increasing_tilt(self, profile_13):
        theta = profile_13.theta
        nu = profile_13.fitted_lambda + 1.0
        mask = (profile_13.psi >= 1e-7 * theta) & (profile_13.psi <= theta / 100.0) & (
            profile_13.s > 0)
        tilted = profile_13.psi[mask] * np.exp(nu * profile_13.s[mask])
        assert np.diff(tilted).min() >= -1e-8 * np.abs(tilted).max()


def _dense(rows: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix that ``waves._block_solve`` block rows hold."""
    blocks, r, _ = rows.shape
    full = np.zeros((blocks * r, (blocks + 2) * r))
    for k in range(blocks):
        full[k * r:(k + 1) * r, k * r:(k + 3) * r] = rows[k]
    inner = full[:n, r:r + n]
    assert np.count_nonzero(full[:n]) == np.count_nonzero(inner)  # none outside the grid
    return inner


def _backward_error(matrix: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> float:
    residual = np.abs(matrix @ x - rhs).max()
    return residual / (np.abs(matrix).sum(axis=1).max() * np.abs(x).max() + np.abs(rhs).max())


class TestBlockSolve:
    @pytest.fixture(scope="class")
    def jacobians(self, canon):
        """(block rows, right-hand side) of the first and last Newton step of each case."""
        recorded = {}
        solve = waves._block_solve
        for spec in (Kernel("gaussian", 1, sigma=1.0), Kernel("laplace", 1, mu=2.0),
                     Kernel("exppoly", 1, p=2.0, q=1.0, mu=0.5),
                     Kernel("compact_uniform", 1, radius=1.0)):
            line = reduce_to_direction(spec, [1.0])
            report = minimize_G(canon, line)
            for factor in (1.3, 1.0):
                seen = []

                def record(rows, rhs):
                    seen.append((rows.copy(), rhs.copy()))
                    return solve(rows, rhs)

                waves._block_solve = record
                try:
                    solve_profile(canon, line, line, factor * report.c_star, h=0.1,
                                  s_left=-40, s_right=80, report=report)
                except ConvergenceFailure:
                    pass  # compact_uniform at c* stalls; its Jacobians still count
                finally:
                    waves._block_solve = solve
                recorded[f"{spec.family}-{factor}"] = [seen[0], seen[-1]]
        return recorded

    # LAPACK's banded dgbsv, on these same matrices: at most 7.4e-16
    def test_backward_error_matches_a_dense_solve(self, jacobians):
        assert len(jacobians) == 8
        for case, steps in jacobians.items():
            for rows, rhs in steps:
                matrix = _dense(rows, len(rhs))
                x = waves._block_solve(rows, rhs)
                dense = np.linalg.solve(matrix, rhs)
                assert _backward_error(matrix, dense, rhs) <= 5e-15, case
                assert _backward_error(matrix, x, rhs) <= 5e-15, case

    def test_singular_block_is_a_convergence_failure(self, jacobians):
        rows, rhs = jacobians["gaussian-1.3"][0]
        rows = rows.copy()
        rows[len(rows) // 2] = 0.0
        with pytest.raises(ConvergenceFailure, match=r"singular Jacobian \(block \d+ of \d+\)"):
            waves._block_solve(rows, rhs)


class TestFitDecay:
    def test_synthetic_pure_exponential(self):
        s = np.arange(-40.0, 50.0, 0.05)
        theta = 1.0
        psi = np.minimum(np.exp(-2.0 * s), theta)
        profile = WaveProfile(s=s, psi=psi, speed_c=3.0, theta=theta)
        lam, amplitude, r2 = fit_decay(profile, expected_j=1)
        assert lam == pytest.approx(2.0, abs=1e-6)
        assert r2 > 1 - 1e-12

    def test_short_window_rejected(self):
        # coarse spacing leaves fewer than 30 points between the levels
        s = np.arange(-10.0, 9.4, 0.2)
        psi = np.clip(np.minimum(np.exp(-2.0 * s), 1.0), 0.0, 1.0)
        profile = WaveProfile(s=s, psi=psi, speed_c=3.0, theta=1.0)
        with pytest.raises(ValueError, match="window"):
            fit_decay(profile, expected_j=1)
