"""In-memory span recorder for the traced benchmark run.

The traced process installs a ``Tracer``, wraps the public functions of every
``nlkpp`` module (plus the two private stepping and CSV helpers) and records
one span per call: label, start, end and the index of the enclosing span.
Spans live in flat arrays and are written out once, when the run ends.

This module is imported before ``nlkpp`` and must stay free of numpy at
import time, so that the traced import cost matches the untraced one.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import json
import time
from array import array
from contextlib import contextmanager

# modules whose public functions become spans, in layer order
MODULES = ("config", "grids", "kernels", "assumptions", "dispersion",
           "evolution", "waves", "fronts", "cli")

# private helpers that carry a named layer metric
PRIVATE_SPANS = {("cli", "_write_csv"): "write_csv", ("evolution", "_advance"): "step"}

# Kernel1D methods that are quadrature evaluations; all share one label
KERNEL_METHODS = ("transform", "weighted_moment1", "weighted_moment2")


class Tracer:
    """Flat span arrays plus named counters; one instance per traced process."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def label(self, name: str) -> int:
        if name not in self._label_ids:
            self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return self._label_ids[name]

    def open(self, label_id: int) -> int:
        idx = len(self.start)
        self.label_id.append(label_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.label(name))
        try:
            yield
        finally:
            self.close(idx)

    def current(self) -> str | None:
        """Label of the innermost open span."""
        idx = self._stack[-1]
        return None if idx < 0 else self.labels[self.label_id[idx]]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def write(self, stem: str, extra: dict) -> None:
        """Write spans to ``<stem>.npz`` and labels, counters, extra to ``<stem>.json``.

        The span arrays cannot hold the span of their own writing, so its start
        and end go to the JSON as ``write``.
        """
        import numpy as np

        began = time.perf_counter()
        np.savez(stem + ".npz",
                 label_id=np.frombuffer(self.label_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
        written = time.perf_counter()
        with open(stem + ".json", "w") as fh:
            json.dump({"labels": self.labels, "counters": self.counters,
                       "write": [began, written], **extra}, fh)


def wrap(tracer: Tracer, fn, label: str, before=None, after=None):
    """Span around ``fn``; ``before`` may rewrite args, ``after`` sees the result."""
    label_id = tracer.label(label)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            args = before(args)
        idx = open_(label_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if after is not None:
            after(args, result)
        return result

    return traced


def _hooks(tracer: Tracer, waves_module) -> dict:
    """Counters recorded at layer boundaries, keyed by span label."""
    same_weights: dict = {}
    keep_alive: list = []
    sampled: set = set()
    residual_target = inspect.signature(
        waves_module.solve_profile).parameters["residual_target"].default

    def rhs_values(args):
        wplus, wminus = args[1], args[2]
        key = (id(wplus), id(wminus))
        if key not in same_weights:
            keep_alive.append((wplus, wminus))
            same_weights[key] = wplus is wminus or (
                wplus.weights.shape == wminus.weights.shape
                and bool((wplus.weights == wminus.weights).all()))
        if same_weights[key]:
            tracer.count("evolution.convolve.duplicates")
        return args

    def convolve(args):
        values = args[1]
        spectrum = 16 * (values.size // values.shape[-1]) * (values.shape[-1] // 2 + 1)
        # read input, write output, write/read the data spectrum, read the kernel's
        tracer.count("evolution.convolve.bytes", 2 * values.nbytes + 3 * spectrum)
        return args

    def step(args):
        tracer.count("evolution.cell_steps", args[3].size)
        return args

    def evolve_line(args):
        tracer.count("waves.cell_steps", len(args[0]) * args[6])
        if tracer.current() == "waves.solve_profile":
            tracer.count("waves.solve_profile.sweeps")
        return args

    def sample_line_kernel(args, result):
        key = (hashlib.sha1(result.weights.tobytes()).hexdigest(), result.spacing)
        if key in sampled:
            tracer.count("waves.sample_line_kernel.repeats")
        sampled.add(key)

    def profile_residual(args, result):
        if tracer.current() == "waves.solve_profile":
            tracer.count("waves.residual_check.made")
            if result <= residual_target:
                tracer.count("waves.residual_check.useful")

    def write_csv(args):
        def counted(rows):
            n = 0
            for row in rows:
                n += 1
                yield row
            tracer.count("cli.write_csv.rows", n)
        return args[:2] + (counted(args[2]),) + args[3:]

    return {
        "evolution.rhs_values": (rhs_values, None),
        "evolution.convolve": (convolve, None),
        "evolution.step": (step, None),
        "waves.evolve_line": (evolve_line, None),
        "waves.sample_line_kernel": (None, sample_line_kernel),
        "waves.profile_residual": (None, profile_residual),
        "cli.write_csv": (write_csv, None),
    }


def instrument(tracer: Tracer, package) -> None:
    """Wrap the package's public functions in spans.

    A function is replaced under every name that refers to it in any of the
    package's modules, so ``from .evolution import simulate`` in ``cli`` is
    traced as well.
    """
    modules = {name: getattr(package, name) for name in MODULES}
    hooks = _hooks(tracer, modules["waves"])
    replacements = {}
    for mod_name, module in modules.items():
        for name, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            short = PRIVATE_SPANS.get((mod_name, name))
            if short is None and name.startswith("_"):
                continue
            label = f"{mod_name}.{short or name}"
            before, after = hooks.get(label, (None, None))
            replacements[obj] = wrap(tracer, obj, label, before, after)

    namespaces = [package] + list(modules.values())
    for namespace in namespaces:
        for name, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(namespace, name, replacements[obj])

    kernels = modules["kernels"]
    for cls in vars(kernels).values():
        if inspect.isclass(cls) and issubclass(cls, kernels.Kernel1D):
            for method in KERNEL_METHODS:
                if method in vars(cls):
                    setattr(cls, method, wrap(tracer, vars(cls)[method], "kernels.transform"))

