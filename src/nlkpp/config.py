"""Sectioned key=value scenario configuration.

The format is deliberately plain: ``[section]`` headers, ``key = value``
lines, ``#`` comments.  Unknown sections or keys are hard errors (silent
typos in a twenty-parameter scenario are worse than a crash), and every
error message carries the offending line number.

``_KEYS`` states each key once: its converter, which range-checks it, and
its default.  ``[model]``, ``[kernel_plus]``, ``[kernel_minus]`` and
``[grid]`` build domain objects, and ``[time]``'s ``dt``, ``method`` and
``floor`` a ``StepConfig``.  Each kernel section builds its ``Kernel`` here,
normalizer included, so a kernel that ``Kernel`` refuses (a parameter out of
range or unread by its family, a normalizer that is not a positive finite
number) is refused with its section's ``family`` line; two sections that
describe the same kernel give one object, ``cfg.kernel_minus is
cfg.kernel_plus``, and that identity is the only test of a+ = a- downstream.  The other ``[time]`` keys and every other
section reach the runners as a namespace of their converted keys under the
table's own names, such as ``cfg.wave.speed_factor`` or ``cfg.output.directory``.
A new key is one ``_KEYS`` entry plus the code that reads it.  An
``[initial]`` key that its kind does not read (``_INITIAL_KINDS``), and a
``[verify]`` key that its suite does not read (``_SUITE_KEYS``), is refused
at its line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from .errors import ConfigError, KernelError
from .evolution import METHODS, StepConfig
from .grids import DIMENSIONS, Grid
from .kernels import Kernel
from .params import ModelParams

COMMANDS = ("simulate", "dispersion", "wave", "front", "verify")
# the suites ``verify`` runs, from ``[verify] suite`` or ``verify <suite>``, each with
# the other ``[verify]`` keys it reads; any other is refused
_SUITE_KEYS = {"comparison": ("pairs",), "necessity": ()}
SUITES = tuple(_SUITE_KEYS)
# initial kind -> (the keys it requires, the other keys it reads); any other is refused
_INITIAL_KINDS = {"constant": (("value",), ()), "bump": (("width", "height"), ("center",)),
                  "step": ((), ("direction",)), "profile-file": (("path",), ()),
                  "shifted-profile": (("path",), ("shift",))}


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
_finite_floats = _checked(_as_floats, lambda values: all(map(math.isfinite, values)),
                          "must be finite")
_positive = _checked(float, lambda value: 0 < value < math.inf, "must be positive and finite")
_nonnegative = _checked(float, lambda value: 0 <= value < math.inf,
                        "must be nonnegative and finite")
_open_unit = _checked(float, lambda value: 0 < value < 1, "must lie in (0, 1)")
_direction = _checked(_finite_floats, any, "must not be all zero")
_dimension = _checked(int, DIMENSIONS.__contains__, "must be 1 or 2")
_sign = _checked(int, (1, -1).__contains__, "must be 1 or -1")
_grid_points = _checked(int, lambda n: n >= 16 and not n & (n - 1),
                        "must be a power of two, at least 16")


def _family(text: str) -> str:
    return {"uniform": "compact_uniform", "powertail": "power_tail"}.get(text, text)


_REQUIRED = object()  # the default of a key that must be given

_KERNEL_KEYS = {
    "family": (_family, _REQUIRED),
    "dimension": (_dimension, None),  # None: the grid's dimension, 1 without a grid
    # ranges, the parameters each family reads and integrability are Kernel's
    "sigma": (_finite, None), "mu": (_finite, None), "p": (_finite, None), "q": (_finite, None),
    "radius": (_finite, None), "offset": (_finite_floats, None),
}

# section -> key -> (converter, default): the only statement of each key, and
# the list of accepted ones.  A converter's error is refused with the key's line.
_KEYS = {
    "scenario": {"seed": (int, 0)},
    "model": {"kappa_plus": (_positive, _REQUIRED), "kappa_minus": (_positive, _REQUIRED),
              "mortality": (_positive, _REQUIRED)},
    "kernel_plus": _KERNEL_KEYS,
    "kernel_minus": _KERNEL_KEYS,
    "grid": {"dimension": (_dimension, 1), "half_length": (_positive, _REQUIRED),
             "points": (_grid_points, _REQUIRED)},
    "time": {"dt": (_positive, 1e-3), "horizon": (_positive, 1.0),
             "method": (_one_of(METHODS, "method"), "rk4"),
             "snapshot_stride": (_int_at_least(1), 100), "floor": (_nonnegative, 0.0)},
    "initial": {"kind": (_one_of(tuple(_INITIAL_KINDS), "initial kind"), _REQUIRED),
                "value": (_finite, None),
                "center": (_finite_floats, None),  # one coordinate per grid axis; None: 0
                "width": (_positive, None), "height": (_finite, None), "direction": (_sign, 1),
                "path": (str, None), "shift": (_finite, 0.0)},
    "output": {"directory": (str, "out"), "split_snapshots": (_as_bool, False)},
    "dispersion": {"direction": (_direction, None),  # one per kernel_plus axis; None: e1
                   "lambda_min": (_positive, 1e-3), "lambda_max": (_positive, 3.0),
                   "lambda_count": (_int_at_least(2), 200)},
    "wave": {"speed": (_finite, None), "speed_factor": (_finite, None),
             "domain_left": (_finite, -40.0), "domain_right": (_finite, 80.0),
             "spacing": (_positive, 0.05)},
    "front": {"level": (_finite, None),  # None: theta / 2
              "shrink": (_open_unit, 0.5), "n_directions": (_int_at_least(3), 32)},
    "verify": {"suite": (_one_of(SUITES, "suite"), "comparison"),
               "pairs": (_int_at_least(1), 50)},
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
class ScenarioConfig:
    """The domain objects of a scenario, and its other sections as namespaces.

    ``time`` holds the ``[time]`` keys that ``step`` does not, ``horizon``
    and ``snapshot_stride``; ``scenario.command`` is the command to run
    and ``initial`` is None without an ``[initial]`` section.
    """

    params: ModelParams
    kernel_plus: Kernel
    kernel_minus: Kernel  # kernel_plus itself when the sections describe the same kernel
    grid: Grid | None
    step: StepConfig
    initial: SimpleNamespace | None
    scenario: SimpleNamespace
    time: SimpleNamespace
    output: SimpleNamespace
    dispersion: SimpleNamespace
    wave: SimpleNamespace
    front: SimpleNamespace
    verify: SimpleNamespace


def _kernel_keys(sections, section: str, grid_dimension: int) -> dict:
    keys = _section(sections, section)
    if keys["dimension"] is None:
        keys["dimension"] = grid_dimension
    return keys


def _kernel(sections, section: str, keys: dict) -> Kernel:
    try:
        return Kernel(**keys)
    except KernelError as exc:
        raise ConfigError(f"invalid [{section}] kernel: {exc}",
                          _line(sections, section, "family")) from exc


def _check_dimensions(sections, kplus: Kernel, kminus: Kernel, grid: Grid | None):
    """Refuse kernels whose dimension differs from the grid's, or without a grid from
    [kernel_plus]'s, citing the offending ``dimension`` line."""
    expected, source = ((kplus.dimension, "[kernel_plus]") if grid is None
                        else (grid.dimension, "[grid]"))
    for section, kernel in (("kernel_plus", kplus), ("kernel_minus", kminus)):
        if kernel.dimension != expected:
            line = (_line(sections, section, "dimension")
                    or _line(sections, "kernel_plus", "dimension"))
            raise ConfigError(f"[{section}] dimension {kernel.dimension} differs from the "
                              f"{source} dimension {expected}", line)


def _initial(sections, grid_dimension: int) -> SimpleNamespace:
    initial = SimpleNamespace(**_section(sections, "initial", center=grid_dimension))
    kind = initial.kind
    required, optional = _INITIAL_KINDS[kind]
    for key, (_, lineno) in sections["initial"].items():
        if key not in ("kind", *required, *optional):
            raise ConfigError(f"initial kind {kind!r} does not read {key!r}", lineno)
    if any(getattr(initial, key) is None for key in required):
        raise ConfigError(f"initial kind {kind!r} requires {' and '.join(map(repr, required))}",
                          _line(sections, "initial", "kind"))
    if initial.path is not None and not Path(initial.path).is_file():
        reason = "is not a file" if Path(initial.path).exists() else "does not exist"
        raise ConfigError(f"initial profile file {initial.path!r} {reason}",
                          _line(sections, "initial", "path"))
    return initial


def _verify(sections, suite: str | None) -> dict:
    """The ``[verify]`` keys, ``suite`` (from ``verify <suite>``) replacing ``[verify]
    suite`` when given; a key that the suite does not read is refused at its line."""
    keys = _section(sections, "verify")
    if suite is not None:
        keys["suite"] = suite
    for key, (_, lineno) in sections.get("verify", {}).items():
        if key not in ("suite", *_SUITE_KEYS[keys["suite"]]):
            raise ConfigError(f"verify suite {keys['suite']!r} does not read {key!r}", lineno)
    return keys


def _ordered(sections, section: str, keys: dict, low: str, high: str) -> None:
    """Refuse ``keys[low] >= keys[high]``, citing the later of the two keys' lines."""
    if not keys[low] < keys[high]:
        line = max(_line(sections, section, key) or 0 for key in (low, high))
        raise ConfigError(f"need {low} < {high}, got {keys[low]} and {keys[high]}", line)


def parse_config(text: str, command: str = "simulate",
                 suite: str | None = None) -> ScenarioConfig:
    """Parse a scenario for ``command``, one of ``COMMANDS``; unknown keys are hard errors.

    ``suite``, one of ``SUITES``, replaces ``[verify] suite`` when given.  A
    missing ``[grid]`` or ``[initial]`` section means none; any other missing
    section takes the table's defaults.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    if suite not in (None, *SUITES):
        raise ConfigError(f"unknown suite {suite!r}; expected one of {SUITES}")
    sections = _parse_lines(text)
    params = ModelParams(**_section(sections, "model"))
    grid = None
    if "grid" in sections:
        keys = _section(sections, "grid")
        grid = Grid(keys["dimension"], keys["half_length"], keys["points"])
    grid_dimension = 1 if grid is None else grid.dimension
    plus_keys = _kernel_keys(sections, "kernel_plus", grid_dimension)
    minus_keys = _kernel_keys(sections, "kernel_minus", grid_dimension)
    kplus = _kernel(sections, "kernel_plus", plus_keys)
    # the one sharing decision: equal sections give one kernel, which callers test with `is`
    kminus = kplus if minus_keys == plus_keys else _kernel(sections, "kernel_minus", minus_keys)
    _check_dimensions(sections, kplus, kminus, grid)
    initial = _initial(sections, grid_dimension) if "initial" in sections else None

    spaces = {name: _section(sections, name)
              for name in ("scenario", "time", "output", "wave", "front")}
    spaces["verify"] = _verify(sections, suite)
    spaces["dispersion"] = _section(sections, "dispersion", direction=kplus.dimension)
    _ordered(sections, "dispersion", spaces["dispersion"], "lambda_min", "lambda_max")
    _ordered(sections, "wave", spaces["wave"], "domain_left", "domain_right")
    speed_lines = [_line(sections, "wave", key) for key in ("speed", "speed_factor")]
    if None not in speed_lines:  # cite the later line, as _ordered does
        raise ConfigError("give [wave] speed or speed_factor, not both", max(speed_lines))
    spaces["scenario"]["command"] = command
    time = spaces["time"]  # StepConfig takes three keys; cfg.time keeps the other two
    step = StepConfig(dt=time.pop("dt"), method=time.pop("method"), floor=time.pop("floor"))
    return ScenarioConfig(
        params=params, kernel_plus=kplus, kernel_minus=kminus, grid=grid, step=step,
        initial=initial, **{name: SimpleNamespace(**keys) for name, keys in spaces.items()})


def load_config(path: str | Path, command: str = "simulate",
                suite: str | None = None) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {str(path)!r}: {reason}") from exc
    return parse_config(text, command=command, suite=suite)
