import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkpp import (CertificationFailed, ConvergenceFailure, Field, Grid, GridError, Kernel,
                   ModelParams, StepConfig, constant_field, bump_field, discretize,
                   find_subsolution_params, gaussian_subsolution, logistic_exact, minimize_G,
                   picard_solve, rhs_values, simulate, solve_profile, truncated_weights,
                   uniform_bound)
from nlkpp import evolution, fronts, kernels, waves
from nlkpp.evolution import METHODS, _advance, _picard_interval, _reaction, _rk4, convolve_pair
from nlkpp.kernels import SampledWeights

from conftest import brute_circular_convolution


class TestRhs:
    def test_zero_is_fixed(self, canon, grid256, gauss_weights):
        u = constant_field(grid256, 0.0).values
        out = rhs_values(canon, gauss_weights, gauss_weights, u)
        assert np.abs(out).max() <= 1e-14

    def test_theta_is_fixed(self, canon, grid256, gauss_weights):
        u = constant_field(grid256, canon.theta).values
        out = rhs_values(canon, gauss_weights, gauss_weights, u)
        assert np.abs(out).max() <= 1e-14

    def test_half_theta_logistic_rate(self, canon, grid256, gauss_weights):
        theta = canon.theta
        u = constant_field(grid256, theta / 2).values
        out = rhs_values(canon, gauss_weights, gauss_weights, u)
        expected = canon.kappa_minus * (theta / 2) * (theta - theta / 2)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_spectral_matches_direct(self, canon, gauss_weights):
        rng = np.random.default_rng(5)
        for _ in range(5):
            u = rng.random(gauss_weights.shape)
            fft = convolve_pair(gauss_weights, gauss_weights, u, "fft")[0]
            direct = convolve_pair(gauss_weights, gauss_weights, u, "direct")[0]
            brute = brute_circular_convolution(gauss_weights.weights, u)
            scale = np.max(np.abs(brute))
            assert np.max(np.abs(fft - brute)) <= 1e-10 * scale
            assert np.max(np.abs(direct - brute)) <= 1e-12 * scale

    @pytest.mark.parametrize("backend", ["fft", "direct"])
    @pytest.mark.parametrize("shape", [(12, 128), (2, 64, 64)], ids=["1d", "2d"])
    def test_batched_convolve_equals_per_slice_bitwise(self, shape, backend):
        grid = Grid(dimension=len(shape) - 1, half_length=10.0, points_per_axis=shape[-1])
        kernel = Kernel("gaussian", dimension=grid.dimension, sigma=1.5)
        w = discretize(kernel, grid)
        values = np.random.default_rng(8).random(shape)
        batched = convolve_pair(w, w, values, backend)[0]
        per_slice = np.stack([convolve_pair(w, w, v, backend)[0] for v in values])
        assert np.array_equal(batched, per_slice)


def reference_convolve(w, values, backend):
    """One kernel, one forward transform, all by ``np.fft``: an independent reference."""
    if backend == "direct":
        return evolution._conv_direct(w, values)
    axes = tuple(range(values.ndim - w.weights.ndim, values.ndim))
    return np.fft.irfftn(np.fft.rfftn(values, axes=axes) * np.fft.rfftn(w.weights),
                         s=w.shape, axes=axes)


class TestConvolvePair:
    @staticmethod
    def kernels(dimension, n):
        grid = Grid(dimension=dimension, half_length=10.0, points_per_axis=n)
        wp = discretize(Kernel("gaussian", dimension=dimension, sigma=1.5), grid)
        wm = discretize(Kernel("gaussian", dimension=dimension, sigma=2.0), grid)
        return wp, wm

    @pytest.mark.parametrize("backend", ["fft", "direct"])
    @pytest.mark.parametrize("shape", [(256,), (64, 64), (12, 128)], ids=["1d", "2d", "batch"])
    def test_equals_two_convolutions(self, shape, backend):
        dimension = 2 if shape == (64, 64) else 1
        wp, wm = self.kernels(dimension, shape[-1])
        values = np.random.default_rng(9).random(shape)
        conv_p, conv_m = convolve_pair(wp, wm, values, backend)
        for w, pair_result in ((wp, conv_p), (wm, conv_m)):
            assert np.array_equal(pair_result, convolve_pair(w, w, values, backend)[0])
            assert np.array_equal(pair_result, reference_convolve(w, values, backend))

    @pytest.mark.parametrize("shape", [(256,), (64, 64), (12, 128)], ids=["1d", "2d", "batch"])
    def test_one_forward_one_inverse_per_kernel(self, shape, transforms):
        dimension = 2 if shape == (64, 64) else 1
        wp, wm = self.kernels(dimension, shape[-1])
        wp.spectrum(wp.shape), wm.spectrum(wm.shape)  # cached before counting
        values = np.random.default_rng(10).random(shape)
        transforms.clear()
        convolve_pair(wp, wm, values)
        assert transforms == {"rfft": 1, "irfft": 2}
        transforms.clear()
        conv_p, conv_m = convolve_pair(wp, wp, values)
        assert transforms == {"rfft": 1, "irfft": 1}
        assert conv_m is conv_p

    def test_unknown_backend(self, gauss_weights):
        with pytest.raises(ValueError, match="unknown convolution backend"):
            convolve_pair(gauss_weights, gauss_weights, np.zeros(gauss_weights.shape), "fast")


# rates that are no powers of two, so that a reassociated product would show in the bits
ODD_RATES = ModelParams(kappa_plus=2.3, kappa_minus=0.7, mortality=1.1)


def reference_pair(wplus, wminus, values):
    """``convolve_pair``'s fft branch with every intermediate a fresh array."""
    shape = values.shape[values.ndim - wplus.weights.ndim:]
    spectrum = kernels._rfft(values, shape)
    return tuple(kernels._irfft(spectrum * w.spectrum(shape), shape) for w in (wplus, wminus))


def reference_reaction(params, u, conv_p, conv_m, drift=None):
    """``evolution._reaction`` written as one expression."""
    gain = params.kappa_plus * conv_p if drift is None else drift + params.kappa_plus * conv_p
    return gain - params.mortality * u - params.kappa_minus * u * conv_m


def reference_rk4(f, values, dt):
    """``evolution._rk4`` written as one expression per stage."""
    k1 = f(values)
    k2 = f(values + 0.5 * dt * k1)
    k3 = f(values + 0.5 * dt * k2)
    k4 = f(values + dt * k3)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_circular_step(params, wplus, wminus, values, cfg, helper=None):
    """``evolution._circular_step`` (fft backend) built from the references above;
    ``helper`` is not used."""
    if cfg.method == "rk4":
        out = reference_rk4(
            lambda v: reference_reaction(params, v, *reference_pair(wplus, wminus, v)),
            values, cfg.dt)
    else:
        conv_p, conv_m = reference_pair(wplus, wminus, values)
        loss = params.mortality + params.kappa_minus * conv_m
        decay = np.exp(-loss * cfg.dt)
        out = decay * values + (1.0 - decay) / loss * params.kappa_plus * conv_p
    if cfg.floor > 0.0:
        out[np.abs(out) < cfg.floor] = 0.0
    return out


@pytest.mark.filterwarnings("ignore:kernel scale")
class TestInPlaceStep:
    """The step's buffers change no bit: ``_advance`` equals the reference expressions."""

    @staticmethod
    def case(name):
        rng = np.random.default_rng(31)
        if name in ("1d-whole", "1d-window", "batched-pair"):
            n = 2048 if name == "1d-window" else 512
            grid = Grid(dimension=1, half_length=0.05 * n, points_per_axis=n)
            wp = discretize(Kernel("gaussian", 1, sigma=1.0), grid)
            wm = discretize(Kernel("laplace", 1, mu=1.5), grid)
            bump = bump_field(grid, 0.0, 2.0, 0.5).values
            values = {"1d-whole": 0.5 + 0.1 * rng.random(n), "1d-window": bump,
                      "batched-pair": np.stack([bump, 0.9 + 0.1 * rng.random(n)])}[name]
            return wp, wm, values
        grid = Grid(dimension=2, half_length=16.0, points_per_axis=64)
        wm = discretize(Kernel("gaussian", 2, sigma=1.0), grid)
        wp = wm if name == "shared" else discretize(Kernel("compact_uniform", 2, radius=2.0),
                                                    grid)
        return wp, wm, bump_field(grid, (0.3, -0.2), 4.0, 0.5).values + 0.01 * rng.random(
            grid.shape)

    @pytest.mark.parametrize("floor", [0.0, 1e-14])
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name", ["1d-whole", "1d-window", "2d", "batched-pair", "shared"])
    def test_advance_has_the_reference_bits(self, monkeypatch, name, method, floor):
        wp, wm, values = self.case(name)
        cfg = StepConfig(dt=0.05, method=method, floor=floor)
        assert (evolution._window(wp, wm, values, cfg) is None) == (name != "1d-window")
        before = values.copy()

        def three_steps():
            out = values
            for _ in range(3):
                out = _advance(ODD_RATES, wp, wm, out, cfg)
            return out

        got = three_steps()
        assert np.array_equal(values, before)
        monkeypatch.setattr(evolution, "_circular_step", reference_circular_step)
        assert np.array_equal(got, three_steps())

    def test_wave_operator_drift_path(self, gauss_line):
        params = ODD_RATES
        line = waves.sample_line_kernel(gauss_line, 0.1)
        s = np.arange(-400, 801) * 0.1
        psi = 0.5 * params.theta * (1.0 - np.tanh(s))
        pad = waves._constant_pad(params.theta, 0.0)
        ext = pad(psi, 2)
        dpsi = (-ext[4:] + 8.0 * ext[3:-1] - 8.0 * ext[1:-3] + ext[:-4]) / (12.0 * line.spacing)
        conv_p, conv_m = waves._line_pair(line, line, psi, pad)
        operator, a_minus = waves._operator(params, line, line, psi, pad, 2.3)
        assert np.array_equal(operator,
                              reference_reaction(params, psi, conv_p, conv_m, drift=2.3 * dpsi))
        assert np.array_equal(a_minus, conv_m)
        step = waves._line_advance(params, line, line, psi, StepConfig(dt=0.01))
        expected = reference_rk4(
            lambda v: reference_reaction(params, v, *waves._line_pair(line, line, v, pad)),
            psi, 0.01)
        assert np.array_equal(step, expected)


@pytest.mark.filterwarnings("ignore:kernel scale")
class TestSplitRhs:
    """A right-hand side split over a helper thread has the bits of the reference."""

    @staticmethod
    def case(shape):
        n = shape[-1]
        grid = Grid(dimension=2, half_length=n / 8, points_per_axis=n)
        wp = discretize(Kernel("compact_uniform", 2, radius=2.0), grid)
        wm = discretize(Kernel("gaussian", 2, sigma=1.0), grid)
        rng = np.random.default_rng(32)
        bump = bump_field(grid, (0.3, -0.2), 4.0, 0.5).values
        return wp, wm, bump + 0.01 * rng.random(shape)

    @pytest.fixture
    def hand_offs(self, monkeypatch):
        """The number of ``_Helper.loss`` calls made from here on."""
        calls = []
        loss = evolution._Helper.loss

        def counted(helper, *args):
            calls.append(args[1].shape)
            return loss(helper, *args)

        monkeypatch.setattr(evolution._Helper, "loss", counted)
        return calls

    @pytest.mark.parametrize("shape", [(128, 128), (256, 256), (2, 128, 128)],
                             ids=["128", "256", "batched-pair"])
    def test_rhs_values(self, shape, hand_offs):
        wp, wm, values = self.case(shape)
        before = values.copy()
        expected = reference_reaction(ODD_RATES, values, *reference_pair(wp, wm, values))
        assert np.array_equal(rhs_values(ODD_RATES, wp, wm, values), expected)
        helper = evolution._Helper()
        try:
            for _ in range(2):  # the second call reuses the helper's buffers
                assert np.array_equal(rhs_values(ODD_RATES, wp, wm, values, helper=helper),
                                      expected)
        finally:
            helper.close()
        assert hand_offs == [shape] * 2
        assert np.array_equal(values, before)

    def test_hand_offs_under_a_short_switch_interval(self):
        """The helper's buffers are reused call after call; with the interpreter switching
        threads every 10 us, no result reads a buffer that the next call writes."""
        wp, wm, values = self.case((128, 128))
        states = [values, 0.5 * values, values[::-1].copy()]
        expected = [reference_reaction(ODD_RATES, v, *reference_pair(wp, wm, v))
                    for v in states]
        helper = evolution._Helper()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = [rhs_values(ODD_RATES, wp, wm, v, helper=helper)
                       for _ in range(20) for v in states]
        finally:
            sys.setswitchinterval(interval)
            helper.close()
        assert all(np.array_equal(got, want)
                   for got, want in zip(results, expected * 20))

    @pytest.mark.parametrize("threads, splits", [(1, False), (2, True)])
    @pytest.mark.parametrize("shape", [(128, 128), (256, 256), (2, 128, 128)],
                             ids=["128", "256", "batched-pair"])
    def test_march_step(self, shape, threads, splits, hand_offs):
        wp, wm, values = self.case(shape)
        cfg = StepConfig(dt=0.05, threads=threads)
        assert evolution._window(wp, wm, values, cfg) is None
        got = evolution._march(_advance, ODD_RATES, wp, wm, values, cfg, cfg.dt)
        assert np.array_equal(got, reference_circular_step(ODD_RATES, wp, wm, values, cfg))
        assert len(hand_offs) == (4 if splits else 0)

    @pytest.mark.parametrize("case", ["shared", "small", "exp_euler", "direct"])
    def test_no_helper_when_a_condition_fails(self, case):
        wp, wm, values = self.case((64, 64) if case == "small" else (128, 128))
        wm = wp if case == "shared" else wm
        cfg = StepConfig(dt=0.05, threads=2,
                         method="exp_euler" if case == "exp_euler" else "rk4",
                         conv_backend="direct" if case == "direct" else "fft")
        assert evolution._start_helper(wp, wm, values, cfg) is None

    def test_default_cap_is_the_affinity(self, monkeypatch):
        wp, wm, values = self.case((128, 128))
        for cpus, splits in (({0}, False), ({0, 3}, True)):
            monkeypatch.setattr(evolution.os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            helper = evolution._start_helper(wp, wm, values, StepConfig(dt=0.05))
            assert (helper is not None) == splits
            if helper is not None:
                helper.close()

    def test_non_finite_state_names_the_floor_without_warnings(self, hand_offs):
        wp, wm, values = self.case((128, 128))
        cfg = StepConfig(dt=0.05, threads=2)
        before = set(threading.enumerate())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow on either thread would raise here
            with pytest.raises(ConvergenceFailure, match=r"set \[time\] floor"):
                evolution._march(_advance, ODD_RATES, wp, wm, 1e300 * values, cfg, 2 * cfg.dt)
        assert hand_offs
        assert set(threading.enumerate()) == before

    def test_no_thread_outlives_the_march(self):
        wp, wm, values = self.case((128, 128))
        cfg = StepConfig(dt=0.05, threads=2)
        before = set(threading.enumerate())
        seen = []

        def observe(k, state, last):
            seen.append(len(threading.enumerate()))

        evolution._march(_advance, ODD_RATES, wp, wm, values, cfg, 2 * cfg.dt, observe)
        assert seen == [len(before) + 1] * 2
        assert set(threading.enumerate()) == before

        def interrupt(k, state, last):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            evolution._march(_advance, ODD_RATES, wp, wm, values, cfg, cfg.dt, interrupt)
        assert set(threading.enumerate()) == before


@pytest.mark.filterwarnings("ignore:kernel scale")
class TestWorkspace:
    """A march's workspace plans give every step the reference bits, whatever the shapes
    it meets, the kernels and the thread count, and hand out states that stay put."""

    @staticmethod
    def march(params, wp, wm, values, cfg, steps):
        """(states handed to ``observe`` with copies taken then, the returned state)."""
        seen = []
        last = evolution._march(_advance, params, wp, wm, values, cfg, steps * cfg.dt,
                                lambda k, state, final: seen.append((state, state.copy())))
        return seen, last

    @staticmethod
    def reference(monkeypatch, params, wp, wm, values, cfg, steps):
        """The states of ``steps`` ``_advance`` steps made by ``reference_circular_step``."""
        states = []
        with monkeypatch.context() as patched:
            patched.setattr(evolution, "_circular_step", reference_circular_step)
            for _ in range(steps):
                values = _advance(params, wp, wm, values, cfg)
                states.append(values)
        return states

    def check(self, monkeypatch, params, wp, wm, values, cfg, steps):
        """Checks a march of ``steps`` steps; returns the shapes its workspace planned."""
        shapes = []
        plan = evolution._Workspace.plan
        with monkeypatch.context() as patched:
            patched.setattr(evolution._Workspace, "plan",
                            lambda workspace, shape: shapes.append(shape) or plan(workspace, shape))
            seen, last = self.march(params, wp, wm, values, cfg, steps)
        expected = self.reference(monkeypatch, params, wp, wm, values, cfg, steps)
        assert len(seen) == steps
        for (state, _), want in zip(seen, expected):
            assert np.array_equal(state, want)
        # nothing the march handed out was written after it was handed out
        assert all(np.array_equal(state, copy) for state, copy in seen)
        assert last is seen[-1][0]
        return set(shapes)

    @pytest.mark.parametrize("shared", [True, False])
    def test_floored_line_over_changing_windows(self, monkeypatch, shared):
        grid = Grid(dimension=1, half_length=102.4, points_per_axis=2048)
        wp = discretize(Kernel("gaussian", 1, sigma=1.0), grid)
        wm = wp if shared else discretize(Kernel("gaussian", 1, sigma=0.7), grid)
        values = bump_field(grid, 0.0, 2.0, 0.5).values
        cfg = StepConfig(dt=0.05, floor=1e-14)
        shapes = self.check(monkeypatch, ODD_RATES, wp, wm, values, cfg, 40)
        assert len(shapes) >= 3, shapes
        assert all(shape[0] < grid.points_per_axis for shape in shapes)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_plane_with_two_kernels(self, monkeypatch, threads):
        wp, wm, values = TestSplitRhs.case((128, 128))
        cfg = StepConfig(dt=0.05, threads=threads)
        assert evolution._window(wp, wm, values, cfg) is None
        self.check(monkeypatch, ODD_RATES, wp, wm, values, cfg, 3)

    def test_marches_in_sequence_on_one_shape(self, monkeypatch):
        """A second march with other kernels takes none of the first one's spectra,
        buffers or helper."""
        wp, wm, values = TestSplitRhs.case((128, 128))
        grid = Grid(dimension=2, half_length=16.0, points_per_axis=128)
        other = discretize(Kernel("laplace", 2, mu=1.2), grid)
        cfg = StepConfig(dt=0.05, threads=2)
        before = set(threading.enumerate())
        for plus, minus in ((wp, wm), (other, wp), (wm, other)):
            self.check(monkeypatch, ODD_RATES, plus, minus, values, cfg, 2)
            assert set(threading.enumerate()) == before


class TestNoAliasing:
    """Results are fresh arrays, and no argument is written."""

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("shape", [(256,), (64, 64), (12, 128)], ids=["1d", "2d", "batch"])
    def test_convolve_pair_results_are_fresh(self, shape, shared):
        wp, wm = TestConvolvePair.kernels(2 if shape == (64, 64) else 1, shape[-1])
        wm = wp if shared else wm
        values = np.random.default_rng(11).random(shape)
        before = values.copy()
        first, second = convolve_pair(wp, wm, values), convolve_pair(wp, wm, values)
        assert np.array_equal(values, before)
        assert all(map(np.array_equal, first, second))
        arrays = [values, wp.weights, wm.weights, *first[:2 - shared], *second[:2 - shared]]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert a is b or not np.shares_memory(a, b)
        assert (first[1] is first[0]) == shared

    @pytest.mark.parametrize("drift", [False, True])
    @pytest.mark.parametrize("shared", [False, True])
    def test_reaction_writes_no_argument(self, drift, shared):
        rng = np.random.default_rng(12)
        u, conv_p, conv_m, d = rng.random((4, 64, 64))
        conv_m = conv_p if shared else conv_m
        args = (u, conv_p, conv_m) + ((d,) if drift else ())
        before = [a.copy() for a in args]
        out = _reaction(ODD_RATES, *args)
        assert all(map(np.array_equal, args, before))
        assert not any(np.shares_memory(out, a) for a in args)
        assert np.array_equal(out, reference_reaction(ODD_RATES, *before))

    def test_rk4_writes_no_argument(self, canon, gauss_weights):
        values = np.random.default_rng(13).random(gauss_weights.shape)
        before = values.copy()
        out = _rk4(lambda v: rhs_values(canon, gauss_weights, gauss_weights, v), values, 0.01)
        assert np.array_equal(values, before)
        assert not np.shares_memory(out, values)


class TestSharedKernel:
    """Passing one object for a+ and a- convolves once, with the bits of two equal copies."""

    @pytest.fixture
    def twin(self, gauss_weights):
        w = gauss_weights
        return SampledWeights(w.weights.copy(), w.spacing)

    @pytest.fixture
    def calls(self, transforms):
        """Kernels applied at the pair boundary: one inverse FFT or direct sum each."""
        return lambda: transforms["irfft"] + transforms["direct"]

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
        _, shared = _picard_interval(canon, gauss_weights, gauss_weights, u, 0.0, 0.1)
        sweeps = calls()
        _, separate = _picard_interval(canon, gauss_weights, twin, u, 0.0, 0.1)
        assert calls() == 3 * sweeps
        assert np.array_equal(shared, separate)

    def test_truncated_weights(self, canon, grid256, gauss_weights, twin, calls):
        theta_shared, wp, wm = truncated_weights(canon, gauss_weights, gauss_weights,
                                                 grid256, 2.0)
        assert wm is wp
        theta_separate, tp, tm = truncated_weights(canon, gauss_weights, twin, grid256, 2.0)
        assert tm is not tp
        assert theta_shared == theta_separate
        u = np.random.default_rng(7).random(gauss_weights.shape)
        shared = convolve_pair(wp, wm, u)
        assert calls() == 1
        separate = convolve_pair(tp, tm, u)
        assert calls() == 3
        assert all(map(np.array_equal, shared, separate))


class TestStep:
    def test_equilibrium_stationary(self, canon, grid256, gauss_weights):
        start = constant_field(grid256, canon.theta)
        out = simulate(canon, gauss_weights, gauss_weights, start, StepConfig(dt=1e-3), 1e-3)
        assert np.abs(out.final.values - canon.theta).max() <= 1e-14

    def test_logistic_agreement(self, canon, grid256, gauss_weights):
        start = constant_field(grid256, 0.5)
        traj = simulate(canon, gauss_weights, gauss_weights, start, StepConfig(dt=1e-3), 2.0,
                        snapshot_stride=200)
        for f in traj.snapshots:
            assert f.values.max() == pytest.approx(
                float(logistic_exact(canon, 0.5, f.time)), abs=1e-10)

    def test_shift_equivariance_bitwise_direct(self, canon, grid256, gauss_weights):
        rng = np.random.default_rng(0)
        u = Field(grid256, canon.theta * rng.random(grid256.shape))
        cfg = StepConfig(dt=1e-2, conv_backend="direct")
        shifted_first = simulate(canon, gauss_weights, gauss_weights, u.shifted(9), cfg,
                                 cfg.dt).final.values
        shifted_after = np.roll(
            simulate(canon, gauss_weights, gauss_weights, u, cfg, cfg.dt).final.values, 9)
        assert np.array_equal(shifted_first, shifted_after)

    def test_shift_equivariance_fft_to_roundoff(self, canon, grid256, gauss_weights):
        rng = np.random.default_rng(1)
        u = Field(grid256, canon.theta * rng.random(grid256.shape))
        cfg = StepConfig(dt=1e-2)
        a = simulate(canon, gauss_weights, gauss_weights, u.shifted(9), cfg, cfg.dt).final.values
        b = np.roll(simulate(canon, gauss_weights, gauss_weights, u, cfg, cfg.dt).final.values, 9)
        assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("floor, remedy", [(0.0, True), (1e-30, True), (1e-14, False)])
    def test_non_finite_state_names_the_floor_without_one(self, canon, floor, remedy):
        """The remedy is named for a floor of 0 or one below the state's roundoff level,
        here eps * max|u| = 2.2e-16."""
        def overflow(params, wplus, wminus, values, cfg, helper):
            return np.exp(1e3 * values)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow warns nothing: the check reports it
            with pytest.raises(ConvergenceFailure,
                               match=r"^non-finite state after step 1 \(t = 0\.01\)") as err:
                evolution._march(overflow, canon, None, None, np.ones(4),
                                 StepConfig(dt=0.01, floor=floor), 0.01)
        assert ("set [time] floor, e.g. 1e-14" in str(err.value)) == remedy
        assert ("[time] floor = 1e-30 is below the roundoff level 2.2e-16 of the state"
                in str(err.value)) == (floor == 1e-30)

    def test_stability_guard(self, canon):
        with pytest.raises(ValueError, match="stability guard"):
            StepConfig(dt=0.2).validate(canon)

    def test_exp_euler_positivity_and_accuracy(self, canon, grid256, gauss_weights):
        u0 = bump_field(grid256, 0.0, 2.0, canon.theta / 2)
        cfg = StepConfig(dt=1e-3, method="exp_euler")
        traj = simulate(canon, gauss_weights, gauss_weights, u0, cfg, 1.0, snapshot_stride=1000)
        ref = simulate(canon, gauss_weights, gauss_weights, u0, StepConfig(dt=1e-3), 1.0,
                       snapshot_stride=1000)
        assert min(traj.mins) >= 0.0
        # first-order scheme: dt-level agreement only
        assert np.abs(traj.final.values - ref.final.values).max() <= 1e-3

    def test_horizon_must_match_dt(self, canon, grid256, gauss_weights):
        start = constant_field(grid256, 0.5)
        with pytest.raises(ValueError, match="multiple"):
            simulate(canon, gauss_weights, gauss_weights, start, StepConfig(dt=3e-3), 1.0)


class TestInvariants:
    def test_strip_and_positivity(self, canon, grid256, gauss_weights):
        theta = canon.theta
        u0 = bump_field(grid256, 0.0, 2.0, theta / 2)
        traj = simulate(canon, gauss_weights, gauss_weights, u0, StepConfig(dt=2e-3), 4.0,
                        snapshot_stride=250)
        assert min(traj.mins) >= -1e-9
        assert max(traj.maxs) <= theta + 1e-9
        # strict positivity for t > 0 and growing interior minimum
        interior_mins = [f.values.min() for f in traj.snapshots[1:]]
        assert all(m > -1e-12 for m in interior_mins)
        assert interior_mins[-1] > interior_mins[0]

    def test_exponential_apriori_bound(self, grid256):
        params = ModelParams(kappa_plus=3.0, kappa_minus=1.0, mortality=1.0)
        kernel = Kernel("gaussian", 1, sigma=1.0)
        w = discretize(kernel, grid256)
        u0 = bump_field(grid256, 0.0, 2.0, 0.5)
        traj = simulate(params, w, w, u0, StepConfig(dt=2e-3), 2.0, snapshot_stride=100)
        for t, peak in zip(traj.times, traj.maxs):
            assert peak <= math.exp((params.kappa_plus - params.mortality) * t) * 0.5 + 1e-9

    def test_monotone_along_direction_preserved(self, canon):
        # wide domain so the periodic seam's influence cannot reach the window
        grid = Grid(dimension=1, half_length=40.0, points_per_axis=512)
        kernel = Kernel("gaussian", 1, sigma=1.0)
        w = discretize(kernel, grid)
        theta = canon.theta
        x = grid.axis_coords()
        ramp = theta / (1.0 + np.exp(np.clip(0.8 * x, -500, 500)))
        traj = simulate(canon, w, w, Field(grid, ramp), StepConfig(dt=2e-3), 1.0,
                        snapshot_stride=250)
        n = grid.points_per_axis
        sl = slice(int(0.25 * n), int(0.75 * n))
        for f in traj.snapshots:
            rises = np.diff(f.values[sl])
            assert rises.max() <= 1e-10


# every entry that pairs weights with a state or grid, called as (params, wplus, wminus, u0, v0)
PAIRED_ENTRIES = {
    "simulate": lambda p, wp, wm, u0, v0: simulate(p, wp, wm, u0, StepConfig(dt=0.01), 0.1),
    "picard_solve": lambda p, wp, wm, u0, v0: picard_solve(p, wp, wm, u0, 0.1),
    "comparison_harness": lambda p, wp, wm, u0, v0: fronts.comparison_harness(
        p, wp, wm, u0, v0, 0.1, StepConfig(dt=0.01)),
    "gaussian_subsolution": lambda p, wp, wm, u0, v0: gaussian_subsolution(
        p, wp, wm, u0.grid, 1e-3, 0.5, 10.0),
    "find_subsolution_params": lambda p, wp, wm, u0, v0: find_subsolution_params(
        p, wp, wm, u0.grid),
    "truncated_weights": lambda p, wp, wm, u0, v0: truncated_weights(p, wp, wm, u0.grid, 2.0),
}


@pytest.mark.filterwarnings("ignore:kernel scale")
@pytest.mark.parametrize("coarse_kernels", ["both", "plus", "minus"])
@pytest.mark.parametrize("entry", PAIRED_ENTRIES)
def test_weights_from_another_grid_are_refused(canon, gauss1, grid256, gauss_weights, entry,
                                               coarse_kernels):
    """Weights sampled on 128 points against a state or grid of 256 raise GridError."""
    coarse = discretize(gauss1, Grid(dimension=1, half_length=20.0, points_per_axis=128))
    wp = gauss_weights if coarse_kernels == "minus" else coarse
    wm = gauss_weights if coarse_kernels == "plus" else coarse
    u0 = bump_field(grid256, 0.0, 2.0, 0.3)
    v0 = constant_field(grid256, canon.theta)
    with pytest.raises(GridError, match="same grid"):
        PAIRED_ENTRIES[entry](canon, wp, wm, u0, v0)


def whole_grid_step(params, wplus, wminus, values, cfg):
    """An RK4 step transforming the whole grid, built from ``rhs_values``."""
    out = _rk4(lambda v: rhs_values(params, wplus, wminus, v), values, cfg.dt)
    if cfg.floor > 0.0:
        out[np.abs(out) < cfg.floor] = 0.0
    return out


@pytest.fixture
def transform_shapes(monkeypatch):
    """Shapes of the states that steps and convolutions transform from here on: one
    forward transform (``evolution._rfft``) per right-hand side or convolution pair."""
    shapes = []
    rfft = evolution._rfft

    def recording(values, shape, out=None):
        shapes.append(values.shape)
        return rfft(values, shape, out=out)

    monkeypatch.setattr(evolution, "_rfft", recording)
    return shapes


@pytest.mark.filterwarnings("ignore:kernel scale")
class TestWindow:
    """A state that leaves most of the grid at 0 is stepped on its occupied window."""

    # h = 0.098 in 1-D and 0.625 in 2-D: a bump grown by eight reaches of the
    # sigma = 1 gaussian (84 and 14 cells) fits well inside one axis
    GRIDS = {1: Grid(dimension=1, half_length=100.0, points_per_axis=2048),
             2: Grid(dimension=2, half_length=80.0, points_per_axis=256)}

    @staticmethod
    def gaussian(grid, sigma=1.0):
        return discretize(Kernel("gaussian", grid.dimension, sigma=sigma), grid)

    @pytest.mark.parametrize("dimension, steps", [(1, 200), (2, 20)])
    def test_agrees_with_whole_grid_steps(self, canon, dimension, steps, transform_shapes):
        grid = self.GRIDS[dimension]
        w = self.gaussian(grid)
        cfg = StepConfig(dt=0.01, floor=1e-14)
        u = bump_field(grid, 0.3 if dimension == 1 else (0.3, -1.1), 2.0, 0.4).values
        ref = u.copy()
        for _ in range(steps):
            u = _advance(canon, w, w, u, cfg)
            ref = whole_grid_step(canon, w, w, ref, cfg)
        windowed = [shape for shape in transform_shapes if shape != grid.shape]
        assert len(windowed) == 4 * steps
        assert all(max(shape) < grid.points_per_axis for shape in windowed)
        assert np.abs(u - ref).max() <= 1e-13

    def test_floor_keeps_the_window_small(self, canon, transform_shapes):
        grid = self.GRIDS[1]
        w = self.gaussian(grid)
        u = bump_field(grid, 0.0, 2.0, 0.4).values
        # without a floor the span grows by four reaches a step: 41, 713, 1385, 2057 cells
        for floor, windowed_steps in ((1e-14, 3), (0.0, 2)):
            transform_shapes.clear()
            v = u
            for _ in range(3):
                v = _advance(canon, w, w, v, StepConfig(dt=0.01, floor=floor))
            assert sum(shape != grid.shape for shape in transform_shapes) == 4 * windowed_steps

    @pytest.mark.parametrize("case", ["wrap", "power_tail", "constant"])
    @pytest.mark.parametrize("method", ["rk4", "exp_euler"])
    def test_fallbacks_step_the_whole_grid_bitwise(self, canon, case, method,
                                                   transform_shapes):
        grid = self.GRIDS[1]
        w = self.gaussian(grid)
        u = bump_field(grid, 0.0, 2.0, 0.4).values
        if case == "wrap":  # a bump across the periodic edge
            u = bump_field(grid, grid.half_length, 2.0, 0.4).values
        elif case == "power_tail":
            w = discretize(Kernel("power_tail", 1, q=4.0), grid)
        else:
            u = constant_field(grid, 0.5).values
        cfg = StepConfig(dt=0.01, method=method, floor=1e-14)
        expected = evolution._circular_step(canon, w, w, u, cfg)
        if method == "rk4":
            assert np.array_equal(expected, whole_grid_step(canon, w, w, u, cfg))
        transform_shapes.clear()
        assert np.array_equal(_advance(canon, w, w, u, cfg), expected)
        assert set(transform_shapes) == {grid.shape}

    def test_batch_takes_one_window_over_the_grid_axis(self, canon, transform_shapes):
        grid = self.GRIDS[1]
        w = self.gaussian(grid)
        cfg = StepConfig(dt=0.01, floor=1e-14)
        # disjoint supports: the window must cover both slices' spans
        pair = np.stack([bump_field(grid, -12.0, 2.0, 0.4).values,
                         bump_field(grid, 9.0, 1.5, 0.6).values])
        out = _advance(canon, w, w, pair, cfg)
        (shape,) = set(transform_shapes)
        assert shape[0] == 2 and shape[1] < grid.points_per_axis
        for got, start in zip(out, pair):
            assert np.abs(got - whole_grid_step(canon, w, w, start, cfg)).max() <= 1e-15

        transform_shapes.clear()
        u0 = bump_field(grid, 0.0, 2.0, 0.3)
        v0 = Field(grid, u0.values + bump_field(grid, 5.0, 2.0, 0.3).values)
        result = fronts.comparison_harness(canon, w, w, u0, v0, 0.5, cfg)
        assert result.max_violation <= 1e-15 and result.strip_violation <= 1e-15
        assert all(len(shape) == 2 and shape[0] == 2 and shape[1] < grid.points_per_axis
                   for shape in transform_shapes)

    def test_reach_of_each_family(self):
        grid = self.GRIDS[1]
        uniform = discretize(Kernel("compact_uniform", 1, radius=1.5), grid)
        r = uniform.reach  # the support is exactly the displacements -r..r
        assert uniform.weights[r] > 0 and uniform.weights[-r] > 0
        assert not uniform.weights[r + 1:-r].any()

        eps = np.finfo(float).eps
        for grid in self.GRIDS.values():
            w = self.gaussian(grid, sigma=1.5)
            r = w.reach
            cells = np.abs(np.fft.fftfreq(grid.points_per_axis) * grid.points_per_axis)
            if grid.dimension == 2:
                cells = np.maximum.outer(cells, cells)
            beyond = np.abs(w.weights)[cells > r].sum()
            assert beyond <= eps * np.abs(w.weights).sum()
            assert np.abs(w.weights)[cells > r - 1].sum() > eps * np.abs(w.weights).sum()
            assert 0 < r < grid.points_per_axis // 2

        grid = self.GRIDS[1]
        heavy = discretize(Kernel("power_tail", 1, q=4.0), grid)
        assert heavy.reach == grid.points_per_axis // 2


class TestPicard:
    def test_zero_stays_zero(self, canon, grid256, gauss_weights):
        traj = picard_solve(canon, gauss_weights, gauss_weights,
                            constant_field(grid256, 0.0), 1.0)
        assert max(traj.maxs) == 0.0

    def test_matches_logistic(self, canon, grid256, gauss_weights):
        traj = picard_solve(canon, gauss_weights, gauss_weights,
                            constant_field(grid256, 0.5), 3.0)
        for f in traj.snapshots:
            assert f.values.max() == pytest.approx(
                float(logistic_exact(canon, 0.5, f.time)), abs=1e-8)

    def test_agrees_with_rk4_on_bump(self, canon, grid256, gauss_weights):
        u0 = bump_field(grid256, 0.0, 2.0, canon.theta / 2)
        rk = simulate(canon, gauss_weights, gauss_weights, u0, StepConfig(dt=1e-3), 1.0,
                      snapshot_stride=1000)
        pi = picard_solve(canon, gauss_weights, gauss_weights, u0, 1.0)
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
        theta_r, _, _ = truncated_weights(canon, gauss_weights, gauss_weights, grid256, 15.0)
        assert theta_r == pytest.approx(canon.theta, abs=1e-9)

    def test_erf_oracle_at_fine_resolution(self, canon):
        from scipy.special import erf
        grid = Grid(dimension=1, half_length=20.0, points_per_axis=4096)
        kernel = Kernel("gaussian", 1, sigma=1.0)
        w = discretize(kernel, grid)
        theta_r, _, _ = truncated_weights(canon, w, w, grid, 1.0)
        a_r = erf(1.0 / math.sqrt(2.0))
        expected = (2.0 * a_r - 1.0) / a_r
        assert theta_r == pytest.approx(expected, abs=5e-3)

    def test_mass_precondition(self, canon, grid256, gauss_weights):
        with pytest.raises(ValueError, match="truncation radius"):
            truncated_weights(canon, gauss_weights, gauss_weights, grid256, 0.2)

    def test_domination_by_full_solution(self, canon, grid256, gauss_weights):
        theta_r, wp, wm = truncated_weights(canon, gauss_weights, gauss_weights, grid256, 2.0)
        u0 = bump_field(grid256, 0.0, 2.0, 0.9 * theta_r)
        cfg = StepConfig(dt=2e-3)
        full = simulate(canon, gauss_weights, gauss_weights, u0, cfg, 4.0, snapshot_stride=250)
        cut = simulate(canon, wp, wm, u0, cfg, 4.0, snapshot_stride=250)
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
        start = constant_field(grid256, 5 * canon.theta)
        traj = simulate(canon, gauss_weights, gauss_weights, start, StepConfig(dt=1e-3), 3.0,
                        snapshot_stride=300)
        assert max(traj.maxs) <= bound


@pytest.fixture(scope="module")
def wide():
    grid = Grid(dimension=1, half_length=40.0, points_per_axis=1024)
    kernel = Kernel("gaussian", 1, sigma=1.0)
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


# every transform function of the two FFT libraries the package could call
FFT_FUNCTIONS = {
    "numpy.fft": ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2", "rfft2",
                  "irfft2", "fftn", "ifftn", "rfftn", "irfftn"),
    "scipy.fft": ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2", "rfft2",
                  "irfft2", "fftn", "ifftn", "rfftn", "irfftn", "hfft2", "ihfft2", "hfftn",
                  "ihfftn", "dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn",
                  "fht", "ifht"),
}


def test_solvers_transform_only_through_the_fft_pair(monkeypatch, canon, gauss_line):
    """Both solvers make every FFT inside ``kernels._rfft`` / ``_irfft``: numpy's
    one-axis transforms, a real and a complex pass per plane in 2-D, and no other call."""
    from scipy import fft as sp_fft

    inside, used = [], set()

    def entered(fn):
        def pair(*args, **kwargs):
            inside.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return pair

    def guarded(label, fn):
        def call(*args, **kwargs):
            if not inside:
                raise AssertionError(f"{label} called outside the FFT pair")
            used.add(label)
            return fn(*args, **kwargs)
        return call

    for library, module in (("numpy.fft", np.fft), ("scipy.fft", sp_fft)):
        for name in FFT_FUNCTIONS[library]:
            monkeypatch.setattr(module, name, guarded(f"{library}.{name}", getattr(module, name)))
    rfft, irfft = entered(kernels._rfft), entered(kernels._irfft)
    for module in (kernels, evolution):
        monkeypatch.setattr(module, "_rfft", rfft)
        monkeypatch.setattr(module, "_irfft", irfft)
    for dimension, n in ((1, 256), (2, 64)):
        grid = Grid(dimension=dimension, half_length=8.0, points_per_axis=n)
        kernel = Kernel("gaussian", dimension=dimension, sigma=1.0)
        u = bump_field(grid, 0.0 if dimension == 1 else (0.0, 0.0), 2.0, 0.5)
        simulate(canon, discretize(kernel, grid), discretize(kernel, grid), u,
                 StepConfig(dt=0.01), 0.01)
    report = minimize_G(canon, gauss_line)
    profile = solve_profile(canon, gauss_line, gauss_line, 1.3 * report.c_star, h=0.1,
                            s_left=-40.0, s_right=60.0, report=report)
    assert profile.residual <= 1e-6
    assert used == {"numpy.fft.rfft", "numpy.fft.irfft", "numpy.fft.fft", "numpy.fft.ifft"}
