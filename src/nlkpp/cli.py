"""Command line runner: scenario orchestration and artifact emission.

Subcommands: ``simulate``, ``dispersion``, ``wave``, ``front``,
``verify <suite>``.  All artifacts are plain CSV plus a ``summary.txt`` of
``key = value`` lines; identical configuration and seed produce byte-identical
output.  ``--threads N`` (over ``[scenario] threads``; by default the CPUs the
process may run on) caps the package's own threads: with two or more, a
periodic rk4 run with a+ not a- on at least 2^14 points computes the a- half
of each right-hand side on one helper thread, with the same bits.  The step's
buffers belong to the run's march (``evolution._Workspace``): one set per
transform shape, made when the march starts and dropped when it ends, and the
helper writes its half into them.  Computation has a fixed summation order.
The cap does not reach numpy's BLAS threads, on which the LAPACK solves of
``wave``'s Newton steps run: a wave's artifacts can differ in the last bits
between BLAS thread counts, so runs to be compared byte for byte pin one,
e.g. ``OPENBLAS_NUM_THREADS=1``.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import fronts, waves
from .assumptions import check_assumptions
from .config import COMMANDS, SUITES, ScenarioConfig, load_config
from .dispersion import (char_multiplicity, dispersion_G, front_set, minimize_G,
                         reduce_to_direction)
from .errors import ConfigError, MollisonFailure, NlkppError
from .evolution import _advance, _march, simulate
from .grids import Field, Grid, along_first_axis, bump_field, constant_field, step_field
from .kernels import Kernel, _per_kernel, discretize


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return "none"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_csv(path: Path, header: list[str], rows, row_format: str | None = None) -> None:
    """One line per row, each ``row_format % row``: by default "%.17g" per column."""
    if row_format is None:
        row_format = ",".join(["%.17g"] * len(header))  # the float format of _fmt
    lines = [",".join(header)]
    lines.extend(row_format % tuple(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_summary(path: Path, entries: dict) -> None:
    lines = [f"{key} = {_fmt(value)}" for key, value in entries.items()]
    path.write_text("\n".join(lines) + "\n")


def _assumption_entries(cfg: ScenarioConfig) -> dict:
    kp, km = cfg.kernel_plus, cfg.kernel_minus
    radius = 8.0 * max(kp.effective_scale(), km.effective_scale())
    report = check_assumptions(cfg.params, kp, km, sample_radius=radius, n_samples=10000)
    entries = {}
    for key, value in report.as_dict().items():
        if isinstance(value, tuple):
            entries[f"assumption.{key}.rho"] = value[0]
            entries[f"assumption.{key}.delta"] = value[1]
        else:
            entries[f"assumption.{key}"] = value
    return entries


def build_initial(cfg: ScenarioConfig, grid: Grid) -> Field:
    spec = cfg.initial
    theta = cfg.params.theta
    if spec is None:
        return constant_field(grid, max(theta, 0.0) / 2.0)
    if spec.kind == "constant":
        return constant_field(grid, spec.value)
    if spec.kind == "bump":
        center = spec.center if spec.center is not None else (0.0,) * grid.dimension
        return bump_field(grid, center, spec.width, spec.height)
    if spec.kind == "step":
        return step_field(grid, max(theta, 0.0), direction=spec.direction)
    # profile-file / shifted-profile
    data = np.loadtxt(spec.path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 1 or data.shape[1] < 2:
        raise ConfigError(
            f"initial profile file {spec.path!r} needs rows of two columns (s, psi) "
            f"below its header; got {data.shape[0]} rows of {data.shape[1]}"
        )
    s, psi = data[:, 0], data[:, 1]
    stalls = np.flatnonzero(~(np.diff(s) > 0))  # a nan s stalls too
    if stalls.size:
        row = stalls[0] + 1  # from 0, the first data row whose s does not increase
        raise ConfigError(f"initial profile file {spec.path!r} needs increasing s; data row "
                          f"{row + 1} has s = {s[row]:g} after {s[row - 1]:g}")
    x = grid.axis_coords() - spec.shift  # 0 unless the kind is shifted-profile
    line = np.interp(x, s, psi, left=psi[0], right=psi[-1])
    return Field(grid, along_first_axis(line, grid.dimension))


def _grid(cfg: ScenarioConfig) -> Grid:
    if cfg.grid is None:
        raise NlkppError("this scenario requires a [grid] section")
    return cfg.grid


_SNAPSHOT_ROW = "%s%.17g"  # the row format of a (prefix, u) from _snapshot_rows


def _snapshot_rows(traj, grid: Grid):
    """(prefix, u) for every grid point of every snapshot; the "t,x1,...,xd," prefix
    is formatted once per file and snapshot time, not once per row."""
    axis = ["%.17g," % x for x in grid.axis_coords().tolist()]
    points = ["".join(x) for x in itertools.product(axis, repeat=grid.dimension)]
    for f in traj.snapshots:
        t = "%.17g," % f.time
        yield from zip([t + x for x in points], f.values.ravel().tolist())


def run_simulate(cfg: ScenarioConfig, out: Path) -> dict:
    wp, wm = _per_kernel(discretize, cfg.kernel_plus, cfg.kernel_minus, _grid(cfg))
    traj = simulate(cfg.params, wp, wm, build_initial(cfg, cfg.grid), cfg.step,
                    cfg.time.horizon, snapshot_stride=cfg.time.snapshot_stride)
    grid = cfg.grid
    header = ["t", *(f"x{i}" for i in range(1, grid.dimension + 1)), "u"]
    if cfg.output.split_snapshots:
        for idx, f in enumerate(traj.snapshots):
            sub = type(traj)()
            sub.append(f)
            _write_csv(out / f"snapshot_{idx:04d}.csv", header, _snapshot_rows(sub, grid),
                       _SNAPSHOT_ROW)
    else:
        _write_csv(out / "snapshots.csv", header, _snapshot_rows(traj, grid), _SNAPSHOT_ROW)
    theta = max(cfg.params.theta, 0.0)
    return {
        "scenario.command": "simulate",
        "simulate.final_time": traj.times[-1],
        "simulate.final_min": traj.mins[-1],
        "simulate.final_max": traj.maxs[-1],
        "simulate.global_min": min(traj.mins),
        "simulate.global_max": max(traj.maxs),
        "simulate.strip_ok": min(traj.mins) >= -1e-9 and max(traj.maxs) <= theta + 1e-9,
    }


def run_dispersion(cfg: ScenarioConfig, out: Path) -> dict:
    kernel = cfg.kernel_plus
    spec = cfg.dispersion
    xi = np.eye(kernel.dimension)[0] if spec.direction is None else np.asarray(spec.direction)
    xi = xi / np.linalg.norm(xi)
    line = reduce_to_direction(kernel, xi)
    report = minimize_G(cfg.params, line)
    hi = spec.lambda_max
    hi = min(hi, line.lambda0 * (1 - 1e-9)) if math.isfinite(line.lambda0) else hi
    lams = np.linspace(spec.lambda_min, hi, spec.lambda_count)
    rows = [(lam, dispersion_G(cfg.params, line, lam)) for lam in lams]
    _write_csv(out / "dispersion.csv", ["lambda", "G"], rows)
    j = char_multiplicity(cfg.params, line, report.c_star, report=report)
    return {
        "scenario.command": "dispersion",
        "dispersion.lambda_star": report.lambda_star,
        "dispersion.c_star": report.c_star,
        "dispersion.class": report.kernel_class,
        "dispersion.j_at_cstar": j,
        "dispersion.m_xi": report.m_xi,
        "dispersion.t_xi_at_lambda0": report.t_xi_at_lambda0,
    }


def run_wave(cfg: ScenarioConfig, out: Path) -> dict:
    xi = np.eye(cfg.kernel_plus.dimension)[0]
    line_p, line_m = _per_kernel(reduce_to_direction, cfg.kernel_plus, cfg.kernel_minus, xi)
    report = minimize_G(cfg.params, line_p)
    wave = cfg.wave
    if wave.speed is not None:
        c = wave.speed
    elif wave.speed_factor is not None:
        c = wave.speed_factor * report.c_star
    else:
        c = report.c_star
    profile = waves.solve_profile(
        cfg.params, line_p, line_m, c,
        h=wave.spacing, s_left=wave.domain_left, s_right=wave.domain_right, report=report,
    )
    _write_csv(out / "profile.csv", ["s", "psi"],
               zip(profile.s.tolist(), profile.psi.tolist()))
    _write_summary(out / "fit.txt", {
        "speed_c": c, "lambda_fit": profile.fitted_lambda, "j": profile.fitted_j,
        "r_squared": profile.r_squared, "lambda_predicted": profile.predicted_lambda,
        "residual_sup": profile.residual,
    })
    return {
        "scenario.command": "wave",
        "wave.speed": c,
        "wave.c_star": report.c_star,
        "wave.lambda_fit": profile.fitted_lambda,
        "wave.lambda_predicted": profile.predicted_lambda,
        "wave.j": profile.fitted_j,
        "wave.residual_sup": profile.residual,
    }


def run_front(cfg: ScenarioConfig, out: Path) -> dict:
    theta = cfg.params.require_carrying_capacity()
    level = cfg.front.level if cfg.front.level is not None else theta / 2.0
    if not 0.0 < level < theta:
        raise ValueError(f"front level {level:g} must lie in (0, theta) = (0, {theta:g})")
    wp, wm = _per_kernel(discretize, cfg.kernel_plus, cfg.kernel_minus, _grid(cfg))
    traj = simulate(cfg.params, wp, wm, build_initial(cfg, cfg.grid), cfg.step,
                    cfg.time.horizon, snapshot_stride=cfg.time.snapshot_stride)
    trace = fronts.track_level(traj, level, np.eye(cfg.grid.dimension)[0])
    _write_csv(out / "front_trace.csv", ["t", "position"],
               zip(trace.times.tolist(), trace.positions.tolist()))
    entries = {"scenario.command": "front", "front.level": level}
    try:
        fset = front_set(cfg.params, cfg.kernel_plus, n_directions=cfg.front.n_directions)
        times, deficits = fronts.interior_convergence(traj, fset, cfg.front.shrink, theta)
        _write_csv(out / "interior_deficit.csv", ["t", "deviation"],
                   zip(times.tolist(), deficits.tolist()))
        entries["front.c_star_max"] = float(np.max(fset.speeds))
        entries["front.c_star_min"] = float(np.min(fset.speeds))
    except MollisonFailure:
        entries["front.c_star_max"] = math.inf
        entries["front.c_star_min"] = math.inf
    if len(trace.times) >= 10:
        est = fronts.estimate_speed(trace)
        entries["front.c_hat"] = est.c_hat
        entries["front.c_hat_stderr"] = est.stderr
    try:
        entries["front.acceleration_verdict"] = fronts.acceleration_test(trace)
    except ValueError:
        entries["front.acceleration_verdict"] = "not-evaluated"
    return entries


def run_verify(cfg: ScenarioConfig, out: Path) -> dict:
    """The ``comparison`` suite, the one in ``SUITES``."""
    theta = cfg.params.require_carrying_capacity()
    if cfg.verify.necessity:
        # counterexample mode: domination deliberately violated near the origin
        worst_overshoot = _necessity_counterexample(cfg)
        return {
            "scenario.command": "verify",
            "verify.suite": "comparison-necessity",
            "verify.max_overshoot_above_theta": worst_overshoot,
            "verify.violations": 0 if worst_overshoot > 1e-4 else 1,
        }

    wp, wm = _per_kernel(discretize, cfg.kernel_plus, cfg.kernel_minus, _grid(cfg))
    rng = np.random.default_rng(cfg.scenario.seed)
    grid = cfg.grid
    worst = 0.0
    worst_strip = 0.0
    envelopes_ok = True
    for _ in range(cfg.verify.pairs):
        base = theta * rng.random(grid.shape)
        gap = theta * rng.random(grid.shape)
        v0 = np.minimum(base + gap, theta)
        u0 = base
        result = fronts.comparison_harness(cfg.params, wp, wm, Field(grid, u0), Field(grid, v0),
                                           cfg.time.horizon, cfg.step)
        worst = max(worst, result.max_violation)
        worst_strip = max(worst_strip, result.strip_violation)
        envelopes_ok = envelopes_ok and result.lower_envelope_ok
    violations = int(worst > 1e-9) + int(worst_strip > 1e-9) + int(not envelopes_ok)
    return {
        "scenario.command": "verify",
        "verify.suite": "comparison",
        "verify.pairs": cfg.verify.pairs,
        "verify.max_order_violation": worst,
        "verify.max_strip_violation": worst_strip,
        "verify.lower_envelope_ok": envelopes_ok,
        "verify.violations": violations,
    }


def _necessity_counterexample(cfg: ScenarioConfig) -> float:
    """Local domination failure: a competition spike a- makes u overshoot theta; only a+ is read."""
    params = cfg.params
    theta = params.require_carrying_capacity()
    grid = _grid(cfg)
    wp = discretize(cfg.kernel_plus, grid)
    wm = discretize(Kernel(family="gaussian", dimension=grid.dimension, sigma=0.2), grid)
    # dent the state below theta near the spike, offset from the origin
    u0 = constant_field(grid, theta)
    dent = bump_field(grid, 0.18 * np.eye(grid.dimension)[0], 0.09, 0.8 * theta)
    u0 = Field(grid, np.maximum(u0.values - dent.values, 0.0))
    peak = u0.max

    def running_max(k: int, values: np.ndarray, last: bool) -> None:
        nonlocal peak
        peak = max(peak, float(values.max()))

    _march(_advance, params, wp, wm, u0.values, cfg.step, cfg.time.horizon, running_max)
    return peak - theta


# the runner of each command is the function run_<command> above
_RUNNERS = {name: globals()[f"run_{name}"] for name in COMMANDS}


def run_scenario(cfg: ScenarioConfig) -> int:
    """Execute one scenario; returns the process exit status."""
    out = Path(cfg.output.directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # refused like the config: no summary can be written
        print(f"error: cannot create output directory {str(out)!r}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    # thread count is deliberately not echoed: results must not depend on it
    entries = {"seed": cfg.scenario.seed}
    status = 0
    for step in (lambda: _RUNNERS[cfg.scenario.command](cfg, out),
                 lambda: _assumption_entries(cfg)):
        try:
            entries.update(step())
        except (NlkppError, ValueError, ArithmeticError, RuntimeError) as exc:
            # numerical code raises ValueError/RuntimeError for rejected inputs too, and
            # float arithmetic on extreme scales ArithmeticError; the first error is reported
            entries.setdefault("error", str(exc))
            entries.setdefault("error.type", type(exc).__name__)
            status = 1
    if entries.get("verify.violations", 0):
        status = 1
    if entries.get("simulate.strip_ok") is False:
        status = 1
    _write_summary(out / "summary.txt", entries)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlkpp",
        description="Numerical laboratory for the doubly nonlocal Fisher-KPP equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "verify":
            p.add_argument("suite", nargs="?", default=None, choices=SUITES)
        _common_flags(p)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, command=args.command)
    except NlkppError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        cfg.output.directory = args.out
    if args.seed is not None:
        cfg.scenario.seed = args.seed
    if args.threads is not None:
        cfg.step = dataclasses.replace(cfg.step, threads=args.threads)
    if getattr(args, "suite", None):
        cfg.verify.suite = args.suite
    return run_scenario(cfg)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=_at_least_one, default=None)


def _at_least_one(text: str) -> int:
    """``--threads``'s type: an integer of at least 1, else argparse exits 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


if __name__ == "__main__":
    sys.exit(main())
