"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Expected values follow the oracle-first rule: closed forms where they exist,
otherwise independent quadrature / grid-scan / brute-force computations coded
here, never the code path under test.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import nlkpp
from nlkpp import (Field, Grid, Kernel, ModelParams, StepConfig, bump_field,
                   constant_field, discretize, minimize_G, reduce_to_direction,
                   simulate, speed_to_abscissa)
from nlkpp import fit_decay, front_set, profile_residual, solve_profile
from nlkpp.evolution import Trajectory, convolve_pair
from nlkpp.fronts import (acceleration_test, check_initial_decay,
                          comparison_harness, exterior_decay,
                          interior_convergence, track_level, weighted_norm)

CANON = ModelParams(kappa_plus=2.0, kappa_minus=1.0, mortality=1.0)
THETA = CANON.theta


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def gauss_kernel():
    return Kernel("gaussian", 1, sigma=1.0)


@pytest.fixture(scope="module")
def gauss_line(gauss_kernel):
    return reduce_to_direction(gauss_kernel, [1.0])


@pytest.fixture(scope="module")
def gauss_report(gauss_line):
    return minimize_G(CANON, gauss_line)


@pytest.fixture(scope="module")
def invasion_run(gauss_kernel):
    """The desk-scale invasion: bump on [-200, 200), N = 8192, t up to 80."""
    grid = Grid(dimension=1, half_length=200.0, points_per_axis=8192)
    w = discretize(gauss_kernel, grid)
    u0 = bump_field(grid, 0.0, 2.0, THETA / 2)
    start = time.perf_counter()
    traj = simulate(CANON, w, w, u0, StepConfig(dt=2e-3, floor=1e-14), 80.0,
                    snapshot_stride=500)
    elapsed = time.perf_counter() - start
    return traj, u0, elapsed


def truncate_trajectory(traj: Trajectory, horizon: float) -> Trajectory:
    out = Trajectory()
    for f in traj.snapshots:
        if f.time <= horizon + 1e-9:
            out.append(f)
    return out


def test_01_logistic_oracle():
    grid = Grid(dimension=1, half_length=20.0, points_per_axis=256)
    kernel = Kernel("gaussian", 1, sigma=1.0)
    w = discretize(kernel, grid)
    start = time.perf_counter()
    traj = simulate(CANON, w, w, constant_field(grid, 0.5), StepConfig(dt=1e-3), 10.0,
                    snapshot_stride=5)
    elapsed = time.perf_counter() - start
    worst = max(abs(f.values.max() - 1.0 / (1.0 + math.exp(-f.time)))
                for f in traj.snapshots)
    report(1, "logistic-oracle", worst <= 1e-6 and elapsed < 10.0,
           f"max err {worst:.2e}, runtime {elapsed:.1f}s")


def test_02_convolution_oracle():
    worst = 0.0
    rng = np.random.default_rng(1234)
    for n in (64, 128, 256):
        grid = Grid(dimension=1, half_length=20.0, points_per_axis=n)
        kernel = Kernel("gaussian", 1, sigma=1.0)
        w = discretize(kernel, grid)
        # reference: dense circulant matrix built from the weight layout
        first_col = w.weights
        circulant = np.stack([np.roll(first_col, i) for i in range(n)], axis=0)
        for _ in range(20):
            u = rng.random(n)
            spectral = convolve_pair(w, w, u)[0]
            direct = circulant @ u
            worst = max(worst, float(np.max(np.abs(spectral - direct))
                                     / np.max(np.abs(direct))))
    report(2, "convolution-oracle", worst <= 1e-10, f"max rel dev {worst:.2e}")


def _golden_minimize(f, lo, hi, tol=1e-12):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _exppoly_oracle_transform():
    """Vectorized transform oracle for exp(-|s|)/(1+|s|^3), fixed-node scheme."""
    span = 50.0
    nodes, weights = np.polynomial.legendre.leggauss(2000)
    s = 0.5 * span * (nodes + 1.0)
    wq = 0.5 * span * weights
    poly = 1.0 + s**3
    alpha_half = float(np.sum(wq * np.exp(-s) / poly))
    # tail of the normalizer: int_span^inf e^{-s}/(1+s^3): below 1e-23
    alpha = 1.0 / (2.0 * alpha_half)

    def transform(lams: np.ndarray) -> np.ndarray:
        lams = np.atleast_1d(lams)
        out = np.empty_like(lams)
        for start in range(0, len(lams), 2000):
            chunk = lams[start:start + 2000, None]
            body = np.sum(wq[None, :] * (np.exp((chunk - 1.0) * s[None, :])
                                         + np.exp(-(chunk + 1.0) * s[None, :]))
                          / poly[None, :], axis=1)
            eps = 1.0 - chunk[:, 0]
            # tail: int_span^inf e^{-eps s}/s^3 ds = E3(eps*span)/span^2, with
            # the 1/(1+s^3) correction one order down
            tail = (special.expn(3, eps * span) / span**2
                    - special.expn(6, eps * span) / span**5)
            out[start:start + 2000] = alpha * (body + tail)
        return out

    return transform


def test_03_dispersion_vs_brute_force():
    kp, m = CANON.kappa_plus, CANON.mortality
    lams = np.linspace(1e-4, 5.0, 1_000_000)

    cases = {}

    g_gauss = lambda la: (kp * np.exp(0.5 * la**2) - m) / la
    cases["gaussian"] = (g_gauss, lams, Kernel("gaussian", 1, sigma=1.0))

    lam_lap = lams[lams < 1.0 - 1e-9]
    g_lap = lambda la: (kp / (1.0 - la**2) - m) / la
    cases["laplace"] = (g_lap, lam_lap, Kernel("laplace", 1, mu=1.0))

    oracle_t = _exppoly_oracle_transform()
    lam_ep = lams[lams <= 1.0]
    g_ep = lambda la: (kp * oracle_t(la) - m) / np.atleast_1d(la)
    cases["exppoly(1,3,1)"] = (g_ep, lam_ep, Kernel("exppoly", 1, p=1.0, q=3.0, mu=1.0))

    details = []
    ok = True
    for name, (g, grid_lams, spec) in cases.items():
        values = np.asarray(g(grid_lams))
        k = int(np.argmin(values))
        lo = grid_lams[max(k - 1, 0)]
        hi = grid_lams[min(k + 1, len(grid_lams) - 1)]
        lam_star, c_star = _golden_minimize(lambda la: float(np.atleast_1d(g(la))[0]), lo, hi)
        line = reduce_to_direction(spec, [1.0])
        rep = minimize_G(CANON, line)
        lam_err = abs(rep.lambda_star - lam_star) / lam_star
        c_err = abs(rep.c_star - c_star) / c_star
        ok = ok and lam_err <= 1e-6 and c_err <= 1e-6 and rep.c_star > 0.0
        details.append(f"{name}: dlam {lam_err:.1e} dc {c_err:.1e}")
    report(3, "dispersion-vs-brute-force", ok, "; ".join(details))


def test_04_classification_table():
    analytic = [
        (2.0, 0.0, 1.0, "V"), (1.5, 2.0, 1.0, "V"),
        (1.0, 0.5, 1.0, "V"), (1.0, 1.0, 1.0, "V"),
        (1.0, 1.5, 1.0, "V"), (1.0, 2.0, 1.0, "V"),
    ]
    results = []
    ok = True
    for p, q, mu, expected in analytic:
        line = reduce_to_direction(Kernel("exppoly", 1, p=p, q=q, mu=mu), [1.0])
        got = nlkpp.classify(CANON, line)
        ok = ok and got == expected
        results.append(f"p={p},q={q},mu={mu}->{got}")
    # q = 4 pair: expectation decided by an independent quadrature of t(mu)
    from scipy import integrate
    for mu in (0.2, 2.0):
        line = reduce_to_direction(Kernel("exppoly", 1, p=1.0, q=4.0, mu=mu), [1.0])
        norm, _ = integrate.quad(lambda s: math.exp(-mu * abs(s)) / (1 + s**4),
                                 -np.inf, np.inf, limit=400)
        alpha = 1.0 / norm
        pos, _ = integrate.quad(lambda s: (1 - mu * s) * alpha / (1 + s**4),
                                0, np.inf, limit=400)
        neg, _ = integrate.quad(
            lambda s: (1 - mu * s) * alpha * math.exp(2 * mu * s) / (1 + s**4),
            -np.inf, 0, limit=400)
        t_oracle = CANON.kappa_plus * (pos + neg)
        expected = "W" if t_oracle >= CANON.mortality else "V"
        got = nlkpp.classify(CANON, line)
        ok = ok and got == expected
        results.append(f"q=4,mu={mu}: t={t_oracle:.3f}->{got}")
    report(4, "classification-table", ok, "; ".join(results))


def test_05_comparison_principle():
    grid = Grid(dimension=1, half_length=15.0, points_per_axis=128)
    kernel = Kernel("gaussian", 1, sigma=1.0)
    w = discretize(kernel, grid)
    cfg = StepConfig(dt=4e-3)
    rng = np.random.default_rng(2024)
    worst_order = 0.0
    worst_strip = 0.0
    envelopes = True
    for _ in range(50):
        base = THETA * rng.random(grid.shape)
        v = np.minimum(base + THETA * rng.random(grid.shape), THETA)
        result = comparison_harness(CANON, w, w, Field(grid, base), Field(grid, v),
                                    5.0, cfg)
        worst_order = max(worst_order, result.max_violation)
        worst_strip = max(worst_strip, result.strip_violation)
        envelopes = envelopes and result.lower_envelope_ok

    # necessity counterexample: local domination failure drives u above theta
    grid_n = Grid(dimension=1, half_length=10.0, points_per_axis=1024)
    kp = discretize(kernel, grid_n)
    km = discretize(Kernel("gaussian", 1, sigma=0.2), grid_n)
    dent = bump_field(grid_n, 0.18, 0.09, 0.8 * THETA)
    u0 = Field(grid_n, np.maximum(THETA - dent.values, 0.0))
    traj = simulate(CANON, kp, km, u0, StepConfig(dt=1e-3), 0.5, snapshot_stride=10)
    overshoot = max(traj.maxs) - THETA

    ok = (worst_order <= 1e-9 and worst_strip <= 1e-9 and envelopes
          and overshoot > 1e-4)
    report(5, "comparison-principle", ok,
           f"order {worst_order:.2e}, strip {worst_strip:.2e}, "
           f"envelopes {envelopes}, overshoot {overshoot:.2e}")


def test_06_front_speed(invasion_run, gauss_report):
    traj, _, elapsed = invasion_run
    trace = track_level(traj, THETA / 2, [1.0])
    mask = (trace.times >= 40.0) & (trace.times <= 80.0)
    t, x = trace.times[mask], trace.positions[mask]
    design = np.stack([t, np.ones_like(t)], axis=-1)
    coef, *_ = np.linalg.lstsq(design, x, rcond=None)
    c_hat = float(coef[0])
    rel = abs(c_hat - gauss_report.c_star) / gauss_report.c_star
    report(6, "front-speed", rel <= 0.02 and elapsed < 120.0,
           f"c_hat {c_hat:.4f} vs c* {gauss_report.c_star:.4f} "
           f"({rel:.2%}), runtime {elapsed:.0f}s")


def test_07_wave_profiles(gauss_line, gauss_report):
    rep = gauss_report
    ok = True
    details = []

    c = 1.3 * rep.c_star
    prof = solve_profile(CANON, gauss_line, gauss_line, c, report=rep)
    residual = profile_residual(prof, CANON, gauss_line, gauss_line)
    lam_pred = speed_to_abscissa(CANON, gauss_line, c, report=rep)
    lam1, _, r1 = fit_decay(prof, expected_j=1)
    rel1 = abs(lam1 - lam_pred) / lam_pred
    ok = ok and residual <= 1e-6 and rel1 <= 0.01 and prof.fitted_j == 1
    details.append(f"1.3c*: res {residual:.1e}, dlam {rel1:.2%}")

    prof_star = solve_profile(CANON, gauss_line, gauss_line, rep.c_star, report=rep)
    residual_star = profile_residual(prof_star, CANON, gauss_line, gauss_line)
    l1, _, r1s = fit_decay(prof_star, expected_j=1)
    l2, _, r2s = fit_decay(prof_star, expected_j=2)
    rel2 = abs(l2 - rep.lambda_star) / rep.lambda_star
    ok = ok and residual_star <= 1e-6 and r2s > r1s and rel2 <= 0.02
    details.append(f"c*: res {residual_star:.1e}, R2 j2>j1 {r2s > r1s}, dlam* {rel2:.2%}")
    report(7, "wave-profiles", ok, "; ".join(details))


def test_08_speed_abscissa_bijection(gauss_line, gauss_report):
    rep = gauss_report
    speeds = np.linspace(rep.c_star, 3 * rep.c_star, 20)
    lams = [speed_to_abscissa(CANON, gauss_line, c, report=rep) for c in speeds]
    decreasing = bool(np.all(np.diff(lams) < 0))
    worst = max(abs(nlkpp.dispersion_G(CANON, gauss_line, lam) - c) / c
                for c, lam in zip(speeds, lams))
    report(8, "speed-abscissa-bijection", decreasing and worst <= 1e-8,
           f"strictly decreasing {decreasing}, roundtrip {worst:.1e}")


def test_09_exterior_decay(invasion_run, gauss_kernel, gauss_line, gauss_report):
    traj, u0, _ = invasion_run
    sub = truncate_trajectory(traj, 60.0)
    fset = front_set(CANON, gauss_kernel)
    assert check_initial_decay(u0, gauss_report.lambda_star)
    norms = np.array([weighted_norm(u0, fset.lambda_stars[i], fset.directions[i])
                      for i in range(len(fset.speeds))])
    result = exterior_decay(sub, fset, 1.2, norms, fset.lambda_stars)
    envelope_ok = result.envelope_satisfied and len(result.times) >= 50

    growth_ok = True
    for lam in (0.3, 0.6, gauss_report.lambda_star):
        p_rate = CANON.kappa_plus * gauss_line.transform(lam) - CANON.mortality
        n0 = weighted_norm(u0, lam, [1.0])
        for f in sub.snapshots:
            bound = n0 * math.exp(p_rate * f.time)
            growth_ok = growth_ok and weighted_norm(f, lam, [1.0]) <= bound * (1 + 1e-9)
    report(9, "exterior-decay", envelope_ok and growth_ok,
           f"envelope at {len(result.times)} snapshots, weighted growth {growth_ok}")


def test_10_interior_convergence(invasion_run, gauss_kernel):
    traj, _, _ = invasion_run
    sub = truncate_trajectory(traj, 60.0)
    fset = front_set(CANON, gauss_kernel)
    times, deficits = interior_convergence(sub, fset, 0.5, THETA)
    final_ok = times[-1] >= 59.0 and deficits[-1] <= 0.05 * THETA
    quartile = deficits[len(deficits) - len(deficits) // 4:]
    monotone = bool(np.all(np.diff(quartile) <= 1e-12))
    report(10, "interior-convergence", final_ok and monotone,
           f"deficit(t={times[-1]:.0f}) = {deficits[-1]:.2e}, "
           f"last-quartile monotone {monotone}")


def test_11_acceleration(gauss_line, gauss_report):
    grid = Grid(dimension=1, half_length=400.0, points_per_axis=8192)
    heavy = Kernel("power_tail", 1, q=4.0)
    w = discretize(heavy, grid)
    u0 = bump_field(grid, 0.0, 2.0, THETA / 2)
    traj = simulate(CANON, w, w, u0, StepConfig(dt=2e-3, floor=1e-14), 20.0,
                    snapshot_stride=100)
    heavy_verdict = acceleration_test(track_level(traj, THETA / 2, [1.0]))

    # ballistic control: supercritical exponential tent (no logarithmic shift)
    grid_g = Grid(dimension=1, half_length=200.0, points_per_axis=8192)
    kernel = Kernel("gaussian", 1, sigma=1.0)
    wg = discretize(kernel, grid_g)
    lam = speed_to_abscissa(CANON, gauss_line, 1.3 * gauss_report.c_star,
                            report=gauss_report)
    x = grid_g.axis_coords()
    tent = THETA * np.minimum(1.0, np.exp(-lam * np.maximum(np.abs(x) - 2.0, 0.0)))
    traj_g = simulate(CANON, wg, wg, Field(grid_g, tent), StepConfig(dt=2e-3, floor=1e-14),
                      40.0, snapshot_stride=250)
    gauss_verdict = acceleration_test(track_level(traj_g, THETA / 2, [1.0]))

    ok = heavy_verdict == "superlinear" and gauss_verdict == "ballistic"
    report(11, "acceleration", ok,
           f"power-tail {heavy_verdict}, gaussian {gauss_verdict}")


def test_12_equivariance_and_determinism(tmp_path):
    grid = Grid(dimension=1, half_length=20.0, points_per_axis=256)
    kernel = Kernel("gaussian", 1, sigma=1.0)
    w = discretize(kernel, grid)
    rng = np.random.default_rng(7)
    u = Field(grid, THETA * rng.random(grid.shape))
    cfg = StepConfig(dt=1e-2, conv_backend="direct")
    shifted_first = simulate(CANON, w, w, u.shifted(13), cfg, cfg.dt).final.values
    shifted_after = np.roll(simulate(CANON, w, w, u, cfg, cfg.dt).final.values, 13)
    bitwise = bool(np.array_equal(shifted_first, shifted_after))

    # a 2-D 128^2 plane with a+ not a-, in two processes at one and two BLAS threads
    config = """
[scenario]
seed = 3
[model]
kappa_plus = 2.0
kappa_minus = 1.0
mortality = 1.0
[kernel_plus]
family = gaussian
sigma = 1.0
[kernel_minus]
family = laplace
mu = 1.0
[grid]
dimension = 2
half_length = 16.0
points = 128
[time]
dt = 2e-3
horizon = 0.2
snapshot_stride = 25
[initial]
kind = bump
width = 2.0
height = 0.5
"""
    cfg_file = tmp_path / "det.cfg"
    cfg_file.write_text(config)
    src = str(Path(nlkpp.__file__).resolve().parents[1])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        subprocess.run([sys.executable, "-m", "nlkpp.cli", "simulate", "--config", str(cfg_file),
                        "--out", str(tmp_path / threads)], env=env, check=True)
    identical = all(
        (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        for name in ("snapshots.csv", "summary.txt"))
    report(12, "equivariance-and-determinism", bitwise and identical,
           f"bitwise shift equivariance {bitwise}, "
           f"byte-identical at 1 and 2 BLAS threads {identical}")


def test_13_truncated_domination():
    grid = Grid(dimension=1, half_length=20.0, points_per_axis=512)
    kernel = Kernel("gaussian", 1, sigma=1.0)
    w = discretize(kernel, grid)
    theta_r, wp, wm = nlkpp.truncated_weights(CANON, w, w, grid, 2.0)
    u0 = bump_field(grid, 0.0, 2.0, 0.95 * min(theta_r, THETA))
    cfg = StepConfig(dt=2e-3)
    full = simulate(CANON, w, w, u0, cfg, 10.0, snapshot_stride=250)
    cut = simulate(CANON, wp, wm, u0, cfg, 10.0, snapshot_stride=250)
    worst = max(float(np.max(c.values - f.values))
                for c, f in zip(cut.snapshots, full.snapshots))
    report(13, "truncated-domination", worst <= 1e-9,
           f"theta_R {theta_r:.4f}, worst (w - u) {worst:.2e}")
