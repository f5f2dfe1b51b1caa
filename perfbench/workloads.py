"""The benchmark workloads and the dispersion probe.

Each workload writes its ``.cfg`` files from the seed (the program sees only
those files), names the CLI invocations that make up one operation, and
checks the operation's artifacts against theory.  All use the canonical
rates kappa_plus = 2, kappa_minus = 1, m = 1 (theta = 1).
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import theory

KAPPA_PLUS, KAPPA_MINUS, MORTALITY = 2.0, 1.0, 1.0
THETA = (KAPPA_PLUS - MORTALITY) / KAPPA_MINUS
MODEL = {"kappa_plus": KAPPA_PLUS, "kappa_minus": KAPPA_MINUS, "mortality": MORTALITY}
GAUSSIAN = {"family": "gaussian", "sigma": 1.0}


@dataclass(frozen=True)
class Invocation:
    command: str
    config: Path


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def render(sections: dict) -> str:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    return "\n".join(lines) + "\n"


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _float(summary: dict, key: str) -> float:
    try:
        return float(summary[key])
    except (KeyError, ValueError):
        return math.nan


def _within(name: str, value: float, target: float, rel_tol: float) -> Check:
    rel = abs(value - target) / abs(target) if math.isfinite(value) else math.inf
    return Check(name, rel <= rel_tol, f"{value:.6g} vs {target:.6g} (rel {rel:.2e}, tol {rel_tol:g})")


class Workload:
    name = ""
    why = ""

    def invocations(self, seed: int, cfg_dir: Path) -> list[Invocation]:
        raise NotImplementedError

    def check(self, outs: list[Path]) -> tuple[list[Check], dict[str, float]]:
        """Correctness checks on one operation's artifacts, plus accuracy figures."""
        raise NotImplementedError

    def _write(self, cfg_dir: Path, stem: str, sections: dict) -> Path:
        path = cfg_dir / f"{stem}.cfg"
        path.write_text(render(sections))
        return path


class Invasion1D(Workload):
    name = "invasion-1d"
    why = ("simulate, 1-D N=8192 with a+ = a-: periodic FFT convolution is ~70% of the "
           "traced time and CSV writing 4-5%; FFT sharing and identical-kernel reuse show here")
    horizon = 8.0
    speed_tol = 0.05

    def invocations(self, seed, cfg_dir):
        rng = random.Random(f"{self.name}:{seed}")
        sections = {
            "scenario": {"seed": seed},
            "model": MODEL,
            "kernel_plus": GAUSSIAN,
            "kernel_minus": GAUSSIAN,
            "grid": {"dimension": 1, "half_length": 200.0, "points": 8192},
            "time": {"dt": 2e-3, "horizon": self.horizon, "method": "rk4",
                     "snapshot_stride": 500, "floor": 1e-14},
            "initial": {"kind": "bump", "center": round(rng.uniform(-1.0, 1.0), 6),
                        "width": round(rng.uniform(1.5, 2.5), 6),
                        "height": round(THETA * rng.uniform(0.3, 0.7), 6)},
        }
        return [Invocation("simulate", self._write(cfg_dir, "invasion", sections))]

    def check(self, outs):
        out = outs[0]
        summary = read_summary(out / "summary.txt")
        checks = [
            Check("simulate.strip_ok", summary.get("simulate.strip_ok") == "true",
                  f"strip_ok = {summary.get('simulate.strip_ok')}"),
            _within("simulate.final_time", _float(summary, "simulate.final_time"),
                    self.horizon, 1e-9),
        ]
        lam_star, c_star = theory.minimal_speed(theory.gaussian_transform, KAPPA_PLUS, MORTALITY)
        times, positions = theory.level_positions(out / "snapshots.csv", THETA / 2.0)
        late = times >= self.horizon / 2.0
        if late.sum() >= 3:
            c_hat = theory.bramson_speed(times[late], positions[late], lam_star)
        else:
            c_hat = math.nan
        checks.append(_within("speed_vs_c_star", c_hat, c_star, self.speed_tol))
        rel = abs(c_hat - c_star) / c_star
        return checks, {"speed_rel_err": rel}


class WaveProfile(Workload):
    name = "wave-profile"
    why = ("wave at 1.3 c* and c*: line convolution is ~77% of the traced time and the "
           "periodic evolution path is never run, so changes there should not show")
    residual_tol = 1e-6

    def invocations(self, seed, cfg_dir):
        rng = random.Random(f"{self.name}:{seed}")
        common = {"model": MODEL, "kernel_plus": GAUSSIAN, "kernel_minus": GAUSSIAN}
        wave = {"domain_left": -40.0, "domain_right": 80.0, "spacing": 0.1}
        fast = dict(common, wave=dict(wave, speed_factor=round(rng.uniform(1.29, 1.31), 6)))
        slow = dict(common, wave=dict(wave, speed_factor=1.0))
        return [Invocation("wave", self._write(cfg_dir, "wave-fast", fast)),
                Invocation("wave", self._write(cfg_dir, "wave-critical", slow))]

    def check(self, outs):
        lam_star, c_star = theory.minimal_speed(theory.gaussian_transform, KAPPA_PLUS, MORTALITY)
        checks = []
        residuals = []
        for out, (label, j, lam_tol) in zip(outs, (("fast", 1, 0.01), ("critical", 2, 0.02))):
            s = read_summary(out / "summary.txt")
            c = _float(s, "wave.speed")
            residual = _float(s, "wave.residual_sup")
            residuals.append(residual)
            lam = theory.decay_rate(theory.gaussian_transform, KAPPA_PLUS, MORTALITY, c, lam_star)
            checks += [
                _within(f"{label}.c_star", _float(s, "wave.c_star"), c_star, 1e-6),
                Check(f"{label}.residual", residual <= self.residual_tol,
                      f"residual_sup {residual:.3g} (tol {self.residual_tol:g})"),
                Check(f"{label}.j", s.get("wave.j") == str(j), f"j = {s.get('wave.j')}, want {j}"),
                _within(f"{label}.lambda_fit", _float(s, "wave.lambda_fit"), lam, lam_tol),
            ]
        return checks, {"residual_sup": max(residuals)}


class Front2D(Workload):
    name = "front-2d"
    why = ("front, 2-D 256^2 with a+ != a-: identical-kernel reuse is bypassed; periodic "
           "convolution and front_set quadrature are each about a third of the traced time")
    radius = 2.0
    # an outward front from compact data never outruns c*; the lower bound
    # guards against a stalled front at this short horizon
    speed_band = (0.75, 1.02)

    def invocations(self, seed, cfg_dir):
        rng = random.Random(f"{self.name}:{seed}")
        center = f"{rng.uniform(-0.5, 0.5):.6f} {rng.uniform(-0.5, 0.5):.6f}"
        sections = {
            "scenario": {"seed": seed},
            "model": MODEL,
            "kernel_plus": {"family": "compact_uniform", "radius": self.radius},
            "kernel_minus": GAUSSIAN,
            "grid": {"dimension": 2, "half_length": 32.0, "points": 256},
            "time": {"dt": 0.05, "horizon": 10.0, "method": "rk4", "snapshot_stride": 10},
            "initial": {"kind": "bump", "center": center,
                        "width": round(rng.uniform(1.5, 2.5), 6),
                        "height": round(THETA * rng.uniform(0.3, 0.7), 6)},
            # 8 of the default 32 directions: the front_set quadrature is still
            # about a third of the time, and an operation stays near 6 s, so one
            # 20-s run holds three or four and reports their median
            "front": {"n_directions": 8},
        }
        return [Invocation("front", self._write(cfg_dir, "front", sections))]

    def check(self, outs):
        s = read_summary(outs[0] / "summary.txt")
        _, c_star = theory.minimal_speed(
            lambda lam: theory.chord_transform(lam, self.radius), KAPPA_PLUS, MORTALITY)
        c_max, c_min = _float(s, "front.c_star_max"), _float(s, "front.c_star_min")
        c_hat = _float(s, "front.c_hat")
        lo, hi = self.speed_band
        checks = [
            _within("front.c_star_max", c_max, c_star, 1e-6),
            _within("front.isotropy", c_min, c_max, 1e-9),
            Check("front.c_hat", math.isfinite(c_hat) and lo * c_max <= c_hat <= hi * c_max,
                  f"c_hat {c_hat:.6g} in [{lo} c*, {hi} c*] with c* = {c_max:.6g}"),
        ]
        return checks, {"speed_rel_err": abs(c_hat - c_max) / c_max}


WORKLOADS = {w.name: w for w in (Invasion1D(), WaveProfile(), Front2D())}


PROBE_FAMILIES = {
    "gaussian": {"family": "gaussian", "sigma": 1.0},
    "gaussian_offset": {"family": "gaussian", "sigma": 1.0},  # offset added per dimension
    "laplace": {"family": "laplace", "mu": 1.0},
    "exppoly_p1q4": {"family": "exppoly", "p": 1.0, "q": 4.0, "mu": 1.0},
    "exppoly_p2q0": {"family": "exppoly", "p": 2.0, "q": 0.0, "mu": 1.0},
    "compact_uniform": {"family": "compact_uniform", "radius": 1.0},
    "power_tail": {"family": "power_tail", "q": 4.0},
}
PROBE_CASES = [f"{family}_{d}d" for family in PROBE_FAMILIES for d in (1, 2)]


def write_probe(probe_dir: Path) -> Path:
    """Write one ``nlkpp dispersion`` config per family and dimension; return the manifest."""
    manifest = []
    for family, kernel in PROBE_FAMILIES.items():
        for d in (1, 2):
            kernel_plus = dict(kernel, dimension=d)
            if family == "gaussian_offset":
                kernel_plus["offset"] = "0.5" if d == 1 else "0.5 0.0"
            sections = {
                "model": MODEL,
                "kernel_plus": kernel_plus,
                "kernel_minus": dict(GAUSSIAN, dimension=d),
                "dispersion": {"direction": "1" if d == 1 else "1 0"},
            }
            case = f"{family}_{d}d"
            cfg = probe_dir / f"{case}.cfg"
            cfg.write_text(render(sections))
            manifest.append({"case": case, "config": str(cfg), "out": str(probe_dir / case)})
    path = probe_dir / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path
