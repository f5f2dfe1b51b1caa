import numpy as np
import pytest

from nlkpp import (CertificationFailed, Field, Grid, Kernel, StepConfig, bump_field,
                   constant_field, discretize, front_set, logistic_exact, simulate)
from nlkpp.evolution import Trajectory
from nlkpp.fronts import (LevelTrace, acceleration_test, check_initial_decay,
                          comparison_harness, estimate_speed, exterior_decay,
                          interior_convergence, track_level, weighted_norm)


@pytest.fixture(scope="module")
def small_run(canon, grid256, gauss_weights):
    u0 = bump_field(grid256, 0.0, 2.0, canon.theta / 2)
    return simulate(canon, gauss_weights, gauss_weights, u0, StepConfig(dt=2e-3), 4.0,
                    snapshot_stride=250)


class TestTrackLevel:
    def test_traveling_synthetic_profile(self, grid256):
        theta, c = 1.0, 2.0
        x = grid256.axis_coords()
        traj = Trajectory()
        for k in range(6):
            t = 0.5 * k
            values = theta / (1.0 + np.exp(np.clip(x - c * t + 10.0, -500, 500)))
            traj.append(Field(grid256, values, t))
        trace = track_level(traj, theta / 2, [1.0])
        steps = np.diff(trace.positions)
        assert np.all(np.abs(steps - c * 0.5) <= grid256.spacing)

    def test_constant_field_gives_edge_sentinel(self, canon, grid256):
        traj = Trajectory()
        traj.append(constant_field(grid256, canon.theta / 2))
        trace = track_level(traj, canon.theta / 2, [1.0])
        assert len(trace.positions) == 1
        assert trace.positions[0] == grid256.half_length

    def test_bump_edge_position(self, canon, grid256, small_run):
        trace = track_level(small_run, canon.theta / 2, [1.0])
        # independent scan oracle on the first usable snapshot
        f = small_run.snapshots[1]
        x = f.grid.axis_coords()
        level = canon.theta / 2
        idx = np.max(np.nonzero(f.values >= level))
        frac = (f.values[idx] - level) / (f.values[idx] - f.values[idx + 1])
        expected = x[idx] + frac * f.grid.spacing
        measured = trace.positions[trace.times == f.time][0]
        assert measured == pytest.approx(expected, abs=1e-12)


class TestEstimateSpeed:
    def test_synthetic_slope(self):
        rng = np.random.default_rng(9)
        t = np.linspace(0, 40, 80)
        x = 2.19 * t + rng.normal(scale=0.01, size=t.shape)
        est = estimate_speed(LevelTrace(t, x))
        assert est.c_hat == pytest.approx(2.19, abs=0.01)
        assert est.stderr < 0.01

    def test_too_few_points(self):
        t = np.linspace(0, 5, 5)
        with pytest.raises(ValueError):
            estimate_speed(LevelTrace(t, 2 * t))


class TestInteriorExterior:
    def test_theta_state_has_zero_deficit(self, canon, grid256, gauss_weights, gauss1):
        traj = Trajectory()
        for t in (0.0, 1.0, 2.0):
            traj.append(constant_field(grid256, canon.theta, t))
        fset = front_set(canon, gauss1)
        times, deficits = interior_convergence(traj, fset, 0.5, canon.theta)
        assert np.all(deficits <= 1e-14)

    def test_constant_state_matches_logistic(self, canon, grid256, gauss_weights, gauss1):
        u0 = constant_field(grid256, 0.3)
        traj = simulate(canon, gauss_weights, gauss_weights, u0, StepConfig(dt=1e-3), 2.0,
                        snapshot_stride=500)
        fset = front_set(canon, gauss1)
        times, deficits = interior_convergence(traj, fset, 0.5, canon.theta)
        expected = canon.theta - logistic_exact(canon, 0.3, times)
        np.testing.assert_allclose(deficits, expected, atol=1e-8)

    def test_zero_state_has_zero_exterior_sup(self, canon, grid256, gauss1):
        traj = Trajectory()
        for t in (0.0, 0.5, 1.0):
            traj.append(constant_field(grid256, 0.0, t))
        fset = front_set(canon, gauss1)
        res = exterior_decay(traj, fset, 1.2, np.array([1.0, 1.0]), fset.lambda_stars)
        assert np.all(res.exterior_sup == 0.0)
        assert res.envelope_satisfied

    def test_exterior_decay_projects_the_grid_once(self, canon, gauss1, small_run, monkeypatch):
        fset = front_set(canon, gauss1)
        grid = small_run.snapshots[0].grid
        inflate = 1.2
        expected = [~fset.contains(grid.coords().reshape(-1, 1), scale=inflate * f.time)
                    for f in small_run.snapshots[1:]]
        calls = []
        coords = Grid.coords
        monkeypatch.setattr(Grid, "coords", lambda self: calls.append(self) or coords(self))
        res = exterior_decay(small_run, fset, inflate, np.ones(2), fset.lambda_stars)
        assert len(calls) == 1 and len(res.times) == len(expected) > 1
        for f, outside, sup in zip(small_run.snapshots[1:], expected, res.exterior_sup):
            assert sup == f.values[outside].max()  # the same mask as FrontSet.contains

    def test_initial_decay_check(self, canon, grid256):
        bump = bump_field(grid256, 0.0, 2.0, 0.5)
        assert check_initial_decay(bump, 0.8)
        x = grid256.axis_coords()
        fat = Field(grid256, 0.5 / (1.0 + np.abs(x) ** 2))
        assert not check_initial_decay(fat, 0.8)

    def test_weighted_norm(self, grid256):
        x = grid256.axis_coords()
        f = Field(grid256, np.exp(-np.abs(x)))
        # sup of e^{-|x|} e^{0.5 x} sits at the origin
        assert weighted_norm(f, 0.5, [1.0]) == pytest.approx(1.0, rel=1e-12)


class TestAcceleration:
    def test_synthetic_verdicts(self):
        t = np.linspace(1, 40, 120)
        linear = LevelTrace(t, 2.19 * t)
        assert acceleration_test(linear) == "ballistic"
        quadratic = LevelTrace(t, t**2)
        assert acceleration_test(quadratic) == "superlinear"

    def test_short_trace_rejected(self):
        t = np.linspace(10, 20, 30)
        with pytest.raises(ValueError):
            acceleration_test(LevelTrace(t, 2 * t))


class TestComparison:
    def test_identical_initial_data(self, canon, grid256, gauss_weights):
        u0 = bump_field(grid256, 0.0, 2.0, canon.theta / 2)
        result = comparison_harness(canon, gauss_weights, gauss_weights, u0, u0,
                                    1.0, StepConfig(dt=2e-3))
        assert result.max_violation == 0.0
        assert result.strip_violation <= 1e-9

    def test_ordered_pairs(self, canon, grid256, gauss_weights):
        rng = np.random.default_rng(21)
        theta = canon.theta
        for _ in range(5):
            base = theta * rng.random(grid256.shape)
            v = np.minimum(base + theta * rng.random(grid256.shape), theta)
            result = comparison_harness(
                canon, gauss_weights, gauss_weights,
                Field(grid256, base), Field(grid256, v), 2.0, StepConfig(dt=2e-3))
            assert result.max_violation <= 1e-9
            assert result.strip_violation <= 1e-9
            assert result.lower_envelope_ok

    def test_refuses_when_domination_fails(self, canon, grid256, gauss_weights):
        spike = discretize(Kernel("gaussian", 1, sigma=0.3), grid256)
        u0 = constant_field(grid256, 0.3)
        with pytest.raises(CertificationFailed):
            comparison_harness(canon, gauss_weights, spike, u0, u0, 0.5,
                               StepConfig(dt=2e-3))

    def test_necessity_counterexample_overshoots(self, canon):
        # local domination failure: state dented below theta near the spike
        grid = Grid(dimension=1, half_length=10.0, points_per_axis=1024)
        theta = canon.theta
        kp = discretize(Kernel("gaussian", 1, sigma=1.0), grid)
        km = discretize(Kernel("gaussian", 1, sigma=0.2), grid)
        dent = bump_field(grid, 0.18, 0.09, 0.8 * theta)
        u0 = Field(grid, np.maximum(theta - dent.values, 0.0))
        traj = simulate(canon, kp, km, u0, StepConfig(dt=1e-3), 0.5, snapshot_stride=10)
        assert max(traj.maxs) > theta + 1e-4


class TestSeparationAndStability:
    def test_bump_stays_below_theta(self, canon, grid256, gauss_weights):
        u0 = bump_field(grid256, 0.0, 2.0, canon.theta / 2)
        v0 = constant_field(grid256, canon.theta)
        result = comparison_harness(canon, gauss_weights, gauss_weights, u0, v0, 2.0,
                                    StepConfig(dt=2e-3))
        assert result.final_gap > 0.0

    def test_bump_stays_above_zero(self, canon, grid256, gauss_weights):
        u0 = constant_field(grid256, 0.0)
        v0 = bump_field(grid256, 0.0, 2.0, canon.theta / 2)
        result = comparison_harness(canon, gauss_weights, gauss_weights, u0, v0, 2.0,
                                    StepConfig(dt=2e-3))
        assert result.final_gap > 0.0

    def test_zero_perturbation_stays_at_theta(self, canon, grid256, gauss_weights):
        u0 = constant_field(grid256, canon.theta)
        result = comparison_harness(canon, gauss_weights, gauss_weights, u0, u0, 1.0,
                                    StepConfig(dt=2e-3))
        assert result.strip_violation <= 1e-12  # never above theta
        assert result.lower_envelope_ok  # the envelope of beta = theta is theta itself
        assert result.final_gap == 0.0

    def test_below_perturbation_obeys_envelope(self, canon, grid256, gauss_weights):
        theta = canon.theta
        dent = bump_field(grid256, 0.0, 3.0, 0.1 * theta)
        u0 = Field(grid256, theta - dent.values)
        result = comparison_harness(canon, gauss_weights, gauss_weights, u0,
                                    constant_field(grid256, theta), 4.0, StepConfig(dt=2e-3))
        assert result.lower_envelope_ok
        assert result.max_violation <= 1e-12
        assert result.strip_violation <= 1e-12

    def test_above_perturbation_reported_without_claim(self, canon, grid256,
                                                       gauss_weights):
        # open regime: no invariant to check, only the observed relaxation toward theta
        theta = canon.theta
        bump = bump_field(grid256, 0.0, 3.0, 0.1 * theta)
        u0 = Field(grid256, theta + bump.values)
        traj = simulate(canon, gauss_weights, gauss_weights, u0, StepConfig(dt=2e-3), 2.0)
        assert traj.maxs[-1] - theta < traj.maxs[0] - theta
        assert traj.mins[-1] >= theta - 1e-12

    def test_final_gap_matches_separate_runs(self, canon, grid256, gauss_weights):
        u0 = bump_field(grid256, 0.0, 2.0, canon.theta / 2)
        v0 = constant_field(grid256, canon.theta)
        cfg = StepConfig(dt=2e-3)
        result = comparison_harness(canon, gauss_weights, gauss_weights, u0, v0, 0.5, cfg)
        tu = simulate(canon, gauss_weights, gauss_weights, u0, cfg, 0.5)
        tv = simulate(canon, gauss_weights, gauss_weights, v0, cfg, 0.5)
        assert result.final_gap == float(np.min(tv.final.values - tu.final.values))

    @pytest.mark.parametrize("dt, horizon, match", [
        (0.4, 0.8, "stability guard"),
        (3.0, 3.0, "stability guard"),
        (0.03, 1.0, "integer multiple"),
    ])
    def test_refuses_what_simulate_refuses(self, canon, grid256, gauss_weights, dt, horizon,
                                           match):
        u0 = constant_field(grid256, 0.3)
        cfg = StepConfig(dt=dt)
        with pytest.raises(ValueError, match=match):
            simulate(canon, gauss_weights, gauss_weights, u0, cfg, horizon)
        with pytest.raises(ValueError, match=match):
            comparison_harness(canon, gauss_weights, gauss_weights, u0, u0, horizon, cfg)


class TestSubsolutionOrdering:
    def test_barrier_persists_under_evolution(self, canon):
        from nlkpp import find_subsolution_params, gaussian_subsolution
        grid = Grid(dimension=1, half_length=40.0, points_per_axis=1024)
        kernel = Kernel("gaussian", 1, sigma=1.0)
        w = discretize(kernel, grid)
        q, alpha, t_min = find_subsolution_params(canon, w, w, grid)
        t0 = t_min + 2.0
        u0 = bump_field(grid, 0.0, 2.0, canon.theta / 2)
        traj = simulate(canon, w, w, u0, StepConfig(dt=2e-3), t0 + 8.0, snapshot_stride=500)
        started = False
        for f in traj.snapshots:
            if f.time < t0:
                continue
            barrier = gaussian_subsolution(canon, w, w, grid, q, alpha, f.time)
            if not started:
                # entry condition: the certified barrier sits below the state
                assert np.all(barrier.values <= f.values + 1e-12)
                started = True
            else:
                assert np.all(barrier.values <= f.values + 1e-9)
        assert started
