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

from .errors import ConfigError, KernelError
from .evolution import METHODS, StepConfig
from .grids import Grid
from .kernels import KernelSpec
from .params import ModelParams

COMMANDS = ("simulate", "dispersion", "wave", "front", "verify")
_INITIAL_KINDS = ("constant", "bump", "step", "profile-file", "shifted-profile")


def _as_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _as_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.replace(",", " ").split())


def _checked(conv, ok, message: str):
    """Converter: ``conv(text)``, refused with ``message`` unless ``ok`` holds."""
    def check(text: str):
        value = conv(text)
        if not ok(value):
            raise ValueError(message)
        return value
    return check


def _one_of(options: tuple[str, ...], noun: str):
    return _checked(str, options.__contains__, f"unknown {noun}; expected one of {options}")


def _int_at_least(low: int):
    return _checked(int, lambda value: value >= low, f"must be at least {low}")


_finite = _checked(float, math.isfinite, "must be finite")
_positive = _checked(float, lambda value: 0 < value < math.inf, "must be positive and finite")
_nonnegative = _checked(float, lambda value: 0 <= value < math.inf,
                        "must be nonnegative and finite")
_open_unit = _checked(float, lambda value: 0 < value < 1, "must lie in (0, 1)")
_direction = _checked(_as_floats, lambda xi: all(map(math.isfinite, xi)) and any(xi),
                      "must be finite and not all zero")
_grid_dimension = _checked(int, (1, 2).__contains__, "grid dimension must be 1 or 2")
_grid_points = _checked(int, lambda n: n >= 16 and not n & (n - 1),
                        "must be a power of two, at least 16")


def _family(text: str) -> str:
    return {"uniform": "compact_uniform", "powertail": "power_tail"}.get(text, text)


_REQUIRED = object()  # the default of a key that must be given

_KERNEL_KEYS = {
    "family": (_family, _REQUIRED),
    "dimension": (int, None),  # None: the grid's dimension, 1 without a grid
    "sigma": (float, None), "mu": (float, None), "p": (float, None), "q": (float, None),
    "radius": (float, None), "offset": (_as_floats, None),
}

# section -> key -> (converter, default): the only statement of each key, and
# the list of accepted ones.  A converter's error is refused with the key's line.
_KEYS = {
    "scenario": {"command": (_one_of(COMMANDS, "command"), "simulate"), "seed": (int, 0),
                 "threads": (int, None)},  # threads: accepted, validated, never read
    "model": {"kappa_plus": (_positive, _REQUIRED), "kappa_minus": (_positive, _REQUIRED),
              "mortality": (_positive, _REQUIRED)},
    "kernel_plus": _KERNEL_KEYS,
    "kernel_minus": _KERNEL_KEYS,
    "grid": {"dimension": (_grid_dimension, 1), "half_length": (_positive, _REQUIRED),
             "points": (_grid_points, _REQUIRED)},
    "time": {"dt": (_positive, 1e-3), "horizon": (_positive, 1.0),
             "method": (_one_of(METHODS, "method"), "rk4"),
             "snapshot_stride": (_int_at_least(1), 100), "floor": (_nonnegative, 0.0)},
    "initial": {"kind": (_one_of(_INITIAL_KINDS, "initial kind"), _REQUIRED),
                "value": (float, None),
                "center": (_as_floats, None),  # one coordinate per grid axis
                "width": (float, None), "height": (float, None), "direction": (int, 1),
                "path": (str, None), "shift": (float, 0.0)},
    "output": {"directory": (str, "out"), "split_snapshots": (_as_bool, False)},
    "dispersion": {"direction": (_direction, None),  # one per kernel_plus axis; None: e1
                   "lambda_min": (float, 1e-3), "lambda_max": (float, 3.0),
                   "lambda_count": (_int_at_least(2), 200)},
    "wave": {"speed": (_finite, None), "speed_factor": (_finite, None),
             "domain_left": (float, -40.0), "domain_right": (float, 80.0),
             "spacing": (_positive, 0.05)},
    "front": {"level": (_finite, None),  # None: theta / 2
              "shrink": (_open_unit, 0.5), "n_directions": (_int_at_least(1), 32)},
    "verify": {"suite": (str, "comparison"), "pairs": (_int_at_least(1), 50),
               "necessity": (_as_bool, False)},
}


def _parse_lines(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KEYS:
                raise ConfigError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _section(sections, section: str, **lengths: int) -> dict:
    """Every key of ``section``, converted or defaulted by the table.

    ``lengths`` names the keys whose tuples must have a given length, such as
    a coordinate per grid axis.
    """
    entries = sections.get(section, {})
    values = {}
    for key, (conv, default) in _KEYS[section].items():
        if key not in entries:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")
            values[key] = default
            continue
        text, lineno = entries[key]
        try:
            values[key] = conv(text)
            if key in lengths and len(values[key]) != lengths[key]:
                raise ValueError(f"need {lengths[key]} coordinate(s) in {lengths[key]}-D, "
                                 f"got {len(values[key])}")
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})", lineno) from exc
    return values


def _line(sections, section, key) -> int | None:
    """Line number of a key, or None when the key is absent."""
    entry = sections.get(section, {}).get(key)
    return None if entry is None else entry[1]


@dataclass
class InitialSpec:
    kind: str
    value: float | None
    center: tuple[float, ...] | None
    width: float | None
    height: float | None
    direction: int
    path: str | None
    shift: float


@dataclass
class ScenarioConfig:
    command: str
    params: ModelParams
    kernel_plus: KernelSpec
    kernel_minus: KernelSpec
    grid: Grid | None
    step: StepConfig
    horizon: float
    snapshot_stride: int
    initial: InitialSpec | None
    out_dir: str
    split_snapshots: bool
    seed: int
    # subcommand extras
    direction: tuple[float, ...]
    lambda_grid: tuple[float, float, int]
    wave_speed: float | None
    wave_speed_factor: float | None
    wave_domain: tuple[float, float]
    wave_spacing: float
    front_level: float | None
    front_shrink: float
    front_n_directions: int
    verify_suite: str
    verify_pairs: int
    verify_necessity: bool


def _kernel_spec(sections, section: str, grid_dimension: int) -> KernelSpec:
    spec = _section(sections, section)
    if spec["dimension"] is None:
        spec["dimension"] = grid_dimension
    try:
        return KernelSpec(**spec)
    except KernelError as exc:
        raise ConfigError(f"invalid [{section}] kernel: {exc}",
                          _line(sections, section, "family")) from exc


def _initial(sections, grid_dimension: int) -> InitialSpec:
    initial = InitialSpec(**_section(sections, "initial", center=grid_dimension))
    kind, kind_line = initial.kind, _line(sections, "initial", "kind")
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
    return initial


def parse_config(text: str, command: str | None = None) -> ScenarioConfig:
    """Parse a scenario configuration; unknown keys are hard errors.

    A missing ``[grid]`` or ``[initial]`` section means none; any other
    missing section takes the table's defaults.
    """
    sections = _parse_lines(text)
    params = ModelParams(**_section(sections, "model"))
    grid = None
    if "grid" in sections:
        grid_keys = _section(sections, "grid")
        grid = Grid(grid_keys["dimension"], grid_keys["half_length"], grid_keys["points"])
    grid_dimension = 1 if grid is None else grid.dimension
    kplus = _kernel_spec(sections, "kernel_plus", grid_dimension)
    kminus = _kernel_spec(sections, "kernel_minus", grid_dimension)
    initial = _initial(sections, grid_dimension) if "initial" in sections else None

    scenario, time, output, wave, front, verify = (
        _section(sections, name) for name in ("scenario", "time", "output", "wave", "front",
                                               "verify"))
    dispersion = _section(sections, "dispersion", direction=kplus.dimension)
    wave_domain = (wave["domain_left"], wave["domain_right"])
    if not -math.inf < wave_domain[0] < wave_domain[1] < math.inf:
        line = max(entry[1] for key, entry in sections["wave"].items() if "domain" in key)
        raise ConfigError(f"need finite domain_left < domain_right: {wave_domain}", line)
    return ScenarioConfig(
        command=command or scenario["command"],
        params=params,
        kernel_plus=kplus,
        kernel_minus=kminus,
        grid=grid,
        step=StepConfig(dt=time["dt"], method=time["method"], floor=time["floor"]),
        horizon=time["horizon"],
        snapshot_stride=time["snapshot_stride"],
        initial=initial,
        out_dir=output["directory"],
        split_snapshots=output["split_snapshots"],
        seed=scenario["seed"],
        direction=dispersion["direction"] or (1.0,) + (0.0,) * (kplus.dimension - 1),
        lambda_grid=(dispersion["lambda_min"], dispersion["lambda_max"],
                     dispersion["lambda_count"]),
        wave_speed=wave["speed"],
        wave_speed_factor=wave["speed_factor"],
        wave_domain=wave_domain,
        wave_spacing=wave["spacing"],
        front_level=front["level"],
        front_shrink=front["shrink"],
        front_n_directions=front["n_directions"],
        verify_suite=verify["suite"],
        verify_pairs=verify["pairs"],
        verify_necessity=verify["necessity"],
    )


def load_config(path: str | Path, command: str | None = None) -> ScenarioConfig:
    return parse_config(Path(path).read_text(), command=command)
