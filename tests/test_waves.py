import math

import numpy as np
import pytest
from scipy.signal import fftconvolve

from nlkpp import (CertificationFailed, ConvergenceFailure, KernelSpec, fit_decay,
                   initial_supersolution, make_kernel, measure_profile_speed, minimize_G,
                   profile_residual, reduce_to_direction, solve_profile, speed_to_abscissa,
                   stationary_frame_residual)
from nlkpp import waves
from nlkpp.waves import (WaveProfile, LineKernel, evolve_line, half_level_crossing,
                         line_convolve, sample_line_kernel, sample_line_kernels)


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
        out = line_convolve(psi, lk, left, right)
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
        line = reduce_to_direction(make_kernel(KernelSpec(family, 1, **params)), [1.0])
        lk = sample_line_kernel(line, h)
        half = lk.halfwidth
        rng = np.random.default_rng(int(100 * h) + len(family))
        for n in rng.integers(50, 3000, size=6):
            psi = rng.random(n)
            padded = np.concatenate([np.full(half, left), psi, np.full(half, right)])
            expected = fftconvolve(padded, lk.weights, mode="valid")
            assert np.array_equal(line_convolve(psi, lk, left, right), expected)

    def test_line_kernel_spectrum_is_cached_per_length(self, gauss_line):
        lk = sample_line_kernel(gauss_line, 0.1)
        assert lk.spectrum(1024) is lk.spectrum(1024)
        assert len(lk.spectrum(1000)) == 501

    def test_sample_line_kernels_shares_only_equal_samples(self, gauss_line):
        twin = reduce_to_direction(make_kernel(KernelSpec("gaussian", 1, sigma=1.0)), [1.0])
        wp, wm = sample_line_kernels(gauss_line, twin, 0.1)
        assert wm is wp
        lap = reduce_to_direction(make_kernel(KernelSpec("laplace", 1, mu=1.0)), [1.0])
        wp, wm = sample_line_kernels(gauss_line, lap, 0.1)
        assert wm is not wp
        assert not np.array_equal(wp.weights, wm.weights)
        assert np.array_equal(wm.weights, sample_line_kernel(lap, 0.1).weights)

    def test_evolve_line_shared_kernel_convolves_once(self, canon, gauss_line, monkeypatch):
        wp = sample_line_kernel(gauss_line, 0.1)
        copy = LineKernel(weights=wp.weights.copy(), spacing=wp.spacing)
        s = 0.1 * (np.arange(600) - 200)
        psi = 1.0 / (1.0 + np.exp(s))
        calls = []

        def counted(*args):
            calls.append(args[1])
            return line_convolve(*args)

        monkeypatch.setattr(waves, "line_convolve", counted)
        shared = evolve_line(psi, canon, wp, wp, 1.0, 0.02, 3)
        assert len(calls) == 3 * 4
        separate = evolve_line(psi, canon, wp, copy, 1.0, 0.02, 3)
        assert len(calls) == 3 * 4 + 3 * 8
        assert np.array_equal(shared, separate)

    def test_half_level_crossing_interpolates(self):
        s = np.linspace(-5, 5, 101)
        psi = np.clip(1.0 - (s + 0.3), 0.0, 1.0)  # crossing 0.5 at s = 0.2
        assert half_level_crossing(s, psi, 0.5) == pytest.approx(0.2, abs=1e-12)

    def test_sampled_kernel_sums_to_one(self, gauss_line):
        lk = sample_line_kernel(gauss_line, 0.05)
        assert lk.weights.sum() == 1.0


class TestSupersolution:
    def test_paired_speed_closed_form(self, canon, gauss_line):
        s = np.linspace(-30, 50, 1600, endpoint=False)
        phi, c = initial_supersolution(canon, gauss_line, gauss_line, s, mu=0.5)
        assert c == pytest.approx((2 * math.exp(0.125) - 1) / 0.5, rel=1e-12)
        assert np.all(phi[s <= 0] == canon.theta)

    def test_rejects_mu_beyond_abscissa(self, canon):
        lap = reduce_to_direction(make_kernel(KernelSpec("laplace", 1, mu=1.0)), [1.0])
        s = np.linspace(-30, 50, 1600, endpoint=False)
        with pytest.raises(ValueError):
            initial_supersolution(canon, lap, lap, s, mu=1.2)

    def test_minimal_speed_at_lambda_star(self, canon, gauss_line, report):
        s = np.linspace(-30, 50, 1600, endpoint=False)
        _, c = initial_supersolution(canon, gauss_line, gauss_line, s,
                                     mu=report.lambda_star)
        assert c == pytest.approx(report.c_star, rel=1e-10)

    def test_plateau_failure_points_to_kernel_domination(self, canon, gauss_line, report):
        lap = reduce_to_direction(make_kernel(KernelSpec("laplace", 1, mu=1.0)), [1.0])
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
        uniform = reduce_to_direction(make_kernel(KernelSpec("compact_uniform", 1, radius=1.0)),
                                      [1.0])
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
        theta = canon.theta
        # theta plateau: equation residual kp*theta - m*theta - km*theta^2 = 0;
        # evaluated through the raw-array entry point since the profile type
        # requires decaying boundary structure
        res_theta = stationary_frame_residual(
            s, np.full_like(s, theta), 1.0, theta, canon, gauss_line, gauss_line)
        assert res_theta <= 1e-12
        res_zero = stationary_frame_residual(
            s, np.zeros_like(s), 1.0, theta, canon, gauss_line, gauss_line)
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

    def test_two_seeds_agree(self, canon, gauss_line, report):
        c = 1.5 * report.c_star
        a = solve_profile(canon, gauss_line, gauss_line, c, report=report, s_left=-60,
                          s_right=60, seed="supersolution")
        b = solve_profile(canon, gauss_line, gauss_line, c, report=report, s_left=-60,
                          s_right=60, seed="step")
        assert np.abs(a.psi - b.psi).max() <= 1e-5

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
        nu = waves._plateau_rate(canon, c, canon.theta, 0.05, wp, wp, math.inf)
        continuous = -c * nu + 2.0 - math.exp(nu * nu / 2.0)
        assert nu > 0.0
        assert abs(continuous) <= 1e-7

    def test_speed_consistency(self, canon, gauss_line, profile_13, report):
        c = 1.3 * report.c_star
        measured = measure_profile_speed(profile_13, canon, gauss_line, gauss_line)
        assert abs(measured - c) / c <= 0.005

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
