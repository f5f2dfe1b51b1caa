"""Sectioned key=value scenario configuration.

The format is deliberately plain: ``[section]`` headers, ``key = value``
lines, ``#`` comments.  Unknown sections or keys are hard errors (silent
typos in a twenty-parameter scenario are worse than a crash), and every
error message carries the offending line number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .evolution import METHODS, StepConfig
from .grids import Grid
from .kernels import KernelSpec
from .params import ModelParams

_KERNEL_KEYS = {"family", "dimension", "sigma", "mu", "p", "q", "radius", "offset"}
_SECTION_KEYS = {
    "scenario": {"command", "seed", "threads"},
    "model": {"kappa_plus", "kappa_minus", "mortality"},
    "kernel_plus": _KERNEL_KEYS,
    "kernel_minus": _KERNEL_KEYS,
    "grid": {"dimension", "half_length", "points"},
    "time": {"dt", "horizon", "method", "snapshot_stride", "floor"},
    "initial": {"kind", "value", "center", "width", "height", "direction", "path", "shift"},
    "output": {"directory", "split_snapshots"},
    "dispersion": {"direction", "lambda_min", "lambda_max", "lambda_count"},
    "wave": {"speed", "speed_factor", "domain_left", "domain_right", "spacing"},
    "front": {"level", "shrink", "n_directions"},
    "verify": {"suite", "pairs", "necessity"},
}

_INITIAL_KINDS = ("constant", "bump", "step", "profile-file", "shifted-profile")


def _parse_lines(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTION_KEYS[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _take(sections, section, key, conv, default=None, required=False):
    entry = sections.get(section, {}).get(key)
    if entry is None:
        if required:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        return default
    value, lineno = entry
    try:
        return conv(value)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})", lineno) from exc


def _line(sections, section, key) -> int | None:
    """Line number of a key, or None when the key is absent."""
    entry = sections.get(section, {}).get(key)
    return None if entry is None else entry[1]


def _as_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _as_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.replace(",", " ").split())


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _nonnegative(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise ValueError("must be nonnegative and finite")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise ValueError("must be positive and finite")
    return value


def _one_of(options: tuple[str, ...]):
    def conv(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}")
        return text
    return conv


def _point(dimension: int):
    def conv(text: str) -> tuple[float, ...]:
        point = _as_floats(text)
        if len(point) != dimension:
            raise ValueError(f"need {dimension} coordinate(s) on a {dimension}-D grid, "
                             f"got {len(point)}")
        return point
    return conv


def _int_at_least(low: int):
    def conv(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        return value
    return conv


@dataclass
class InitialSpec:
    kind: str
    value: float | None = None
    center: tuple[float, ...] | None = None
    width: float | None = None
    height: float | None = None
    direction: int = 1
    path: str | None = None
    shift: float = 0.0


@dataclass
class ScenarioConfig:
    command: str
    params: ModelParams
    kernel_plus: KernelSpec
    kernel_minus: KernelSpec
    grid: Grid | None
    step: StepConfig = StepConfig(dt=1e-3)
    horizon: float = 1.0
    snapshot_stride: int = 100
    initial: InitialSpec | None = None
    out_dir: str = "out"
    split_snapshots: bool = False
    seed: int = 0
    # subcommand extras
    direction: tuple[float, ...] = (1.0,)
    lambda_grid: tuple[float, float, int] = (1e-3, 3.0, 200)
    wave_speed: float | None = None
    wave_speed_factor: float | None = None
    wave_domain: tuple[float, float] = (-40.0, 80.0)
    wave_spacing: float = 0.05
    front_level: float | None = None
    front_shrink: float = 0.5
    front_n_directions: int = 32
    verify_suite: str = "comparison"
    verify_pairs: int = 50
    verify_necessity: bool = False


def _kernel_spec(sections, section: str, default_dimension: int) -> KernelSpec:
    family = _take(sections, section, "family", str, required=True)
    family = {"uniform": "compact_uniform", "powertail": "power_tail"}.get(family, family)
    dimension = _take(sections, section, "dimension", int, default=default_dimension)
    offset = _take(sections, section, "offset", _as_floats)
    try:
        return KernelSpec(
            family=family,
            dimension=dimension,
            sigma=_take(sections, section, "sigma", float),
            mu=_take(sections, section, "mu", float),
            p=_take(sections, section, "p", float),
            q=_take(sections, section, "q", float),
            radius=_take(sections, section, "radius", float),
            offset=offset,
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid [{section}] kernel: {exc}",
                          _line(sections, section, "family")) from exc


def parse_config(text: str, command: str | None = None) -> ScenarioConfig:
    """Parse a scenario configuration; unknown keys are hard errors."""
    sections = _parse_lines(text)

    params = ModelParams(
        kappa_plus=_take(sections, "model", "kappa_plus", float, required=True),
        kappa_minus=_take(sections, "model", "kappa_minus", float, required=True),
        mortality=_take(sections, "model", "mortality", float, required=True),
    )

    grid = None
    grid_dim = 1
    if "grid" in sections:
        grid_dim = _take(sections, "grid", "dimension", int, default=1)
        if grid_dim > 2:
            raise ConfigError("grid dimension must be 1 or 2",
                              _line(sections, "grid", "dimension"))
        try:
            grid = Grid(
                dimension=grid_dim,
                half_length=_take(sections, "grid", "half_length", float, required=True),
                points_per_axis=_take(sections, "grid", "points", int, required=True),
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"invalid [grid]: {exc}") from exc

    kplus = _kernel_spec(sections, "kernel_plus", grid_dim)
    kminus = _kernel_spec(sections, "kernel_minus", grid_dim)

    initial = None
    if "initial" in sections:
        kind = _take(sections, "initial", "kind", str, required=True)
        kind_line = _line(sections, "initial", "kind")
        if kind not in _INITIAL_KINDS:
            raise ConfigError(f"unknown initial kind {kind!r}; expected one of {_INITIAL_KINDS}",
                              kind_line)
        initial = InitialSpec(
            kind=kind,
            value=_take(sections, "initial", "value", float),
            center=_take(sections, "initial", "center", _point(grid_dim)),
            width=_take(sections, "initial", "width", float),
            height=_take(sections, "initial", "height", float),
            direction=_take(sections, "initial", "direction", int, default=1),
            path=_take(sections, "initial", "path", str),
            shift=_take(sections, "initial", "shift", float, default=0.0),
        )
        if kind == "constant" and initial.value is None:
            raise ConfigError("initial kind 'constant' requires 'value'", kind_line)
        if kind == "bump" and (initial.width is None or initial.height is None):
            raise ConfigError("initial kind 'bump' requires 'width' and 'height'", kind_line)
        if kind in ("profile-file", "shifted-profile"):
            if initial.path is None:
                raise ConfigError(f"initial kind {kind!r} requires 'path'", kind_line)
            if not Path(initial.path).exists():
                raise ConfigError(f"initial profile file {initial.path!r} does not exist",
                                  _line(sections, "initial", "path"))

    cfg = ScenarioConfig(
        command=command or _take(sections, "scenario", "command", str, default="simulate"),
        params=params,
        kernel_plus=kplus,
        kernel_minus=kminus,
        grid=grid,
        step=StepConfig(
            dt=_take(sections, "time", "dt", _positive, default=1e-3),
            method=_take(sections, "time", "method", _one_of(METHODS), default="rk4"),
            floor=_take(sections, "time", "floor", _nonnegative, default=0.0),
        ),
        horizon=_take(sections, "time", "horizon", _positive, default=1.0),
        snapshot_stride=_take(sections, "time", "snapshot_stride", _int_at_least(1), default=100),
        initial=initial,
        out_dir=_take(sections, "output", "directory", str, default="out"),
        split_snapshots=_take(sections, "output", "split_snapshots", _as_bool, default=False),
        seed=_take(sections, "scenario", "seed", int, default=0),
    )
    _take(sections, "scenario", "threads", int)  # accepted, validated, never read

    if "dispersion" in sections:
        cfg.direction = _take(sections, "dispersion", "direction", _as_floats, default=(1.0,))
        cfg.lambda_grid = (
            _take(sections, "dispersion", "lambda_min", float, default=1e-3),
            _take(sections, "dispersion", "lambda_max", float, default=3.0),
            _take(sections, "dispersion", "lambda_count", _int_at_least(2), default=200),
        )
    if "wave" in sections:
        cfg.wave_speed = _take(sections, "wave", "speed", _finite)
        cfg.wave_speed_factor = _take(sections, "wave", "speed_factor", _finite)
        cfg.wave_domain = (
            _take(sections, "wave", "domain_left", float, default=-40.0),
            _take(sections, "wave", "domain_right", float, default=80.0),
        )
        if not -math.inf < cfg.wave_domain[0] < cfg.wave_domain[1] < math.inf:
            line = max(entry[1] for key, entry in sections["wave"].items() if "domain" in key)
            raise ConfigError(f"need finite domain_left < domain_right: {cfg.wave_domain}", line)
        cfg.wave_spacing = _take(sections, "wave", "spacing", _positive, default=0.05)
    if "front" in sections:
        cfg.front_level = _take(sections, "front", "level", float)
        cfg.front_shrink = _take(sections, "front", "shrink", float, default=0.5)
        cfg.front_n_directions = _take(sections, "front", "n_directions", _int_at_least(1),
                                       default=32)
    if "verify" in sections:
        cfg.verify_suite = _take(sections, "verify", "suite", str, default="comparison")
        cfg.verify_pairs = _take(sections, "verify", "pairs", _int_at_least(1), default=50)
        cfg.verify_necessity = _take(sections, "verify", "necessity", _as_bool, default=False)

    if cfg.command not in ("simulate", "dispersion", "wave", "front", "verify"):
        raise ConfigError(f"unknown command {cfg.command!r}",
                          None if command else _line(sections, "scenario", "command"))
    return cfg


def load_config(path: str | Path, command: str | None = None) -> ScenarioConfig:
    return parse_config(Path(path).read_text(), command=command)
