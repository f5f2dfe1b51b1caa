"""Per-layer metrics from the spans a traced run wrote.

A layer is an ``nlkpp`` module, plus three that are not: ``setup`` (the
import of ``nlkpp.cli``), ``interpreter`` (start-up before the traced script
runs and exit after it has written its spans) and ``trace`` (wrapping the
functions and writing the spans).  ``<layer>.self_s`` is the time spent in the
layer's own code: span durations minus the part covered by child spans.
``trace.unattributed_s`` is what the spans leave of the traced process's wall
time.  ``<module>.<function>.s`` is the inclusive time of the calls into that
function, counted once where it recurses.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LAYERS = ("interpreter", "setup", "trace", "config", "grids", "kernels", "assumptions",
          "dispersion", "evolution", "waves", "fronts", "cli")


class Spans:
    """Spans of one or more traced processes, merged under one label table."""

    def __init__(self, labels: list[str], counters: dict[str, float], meta: dict,
                 label_id: np.ndarray, parent: np.ndarray, duration: np.ndarray):
        self.labels = labels
        self.counters = counters
        self.meta = meta
        self.label_id = label_id
        self.parent = parent
        self.duration = duration
        child_time = np.zeros_like(self.duration)
        nested = self.parent >= 0
        np.add.at(child_time, self.parent[nested], self.duration[nested])
        self.self_time = self.duration - child_time
        parent_label = np.where(nested, self.label_id[np.maximum(self.parent, 0)], -1)
        # a span is an entry into its function unless its parent is the same function
        self.entry = parent_label != self.label_id

    @classmethod
    def load(cls, runs: list[tuple[str, float, float]]) -> "Spans":
        """Merge traced processes, each given as (stem, launched, reaped).

        ``launched`` and ``reaped`` are the parent's ``perf_counter`` readings
        around the child; with the child's own ``entered`` and ``write``
        readings they become top-level spans for interpreter start-up, span
        writing and interpreter exit.
        """
        labels: list[str] = []
        counters: dict[str, float] = {}
        label_ids, parents, durations = [], [], []
        meta: dict = {}
        offset = 0
        for stem, launched, reaped in runs:
            data = np.load(stem + ".npz")
            meta = json.loads(Path(stem + ".json").read_text())
            began, written = meta["write"]
            outer = {"interpreter.start": meta["entered"] - launched,
                     "trace.write": written - began,
                     "interpreter.exit": reaped - written}
            for name in [*meta["labels"], *outer]:
                if name not in labels:
                    labels.append(name)
            remap = np.array([labels.index(name) for name in meta["labels"]], dtype=np.int32)
            label_ids.append(remap[data["label_id"]] if len(remap) else data["label_id"])
            label_ids.append(np.array([labels.index(name) for name in outer], dtype=np.int32))
            parents.append(np.where(data["parent"] >= 0, data["parent"] + offset, -1))
            parents.append(np.full(len(outer), -1, dtype=np.int32))
            durations.append(data["end"] - data["start"])
            durations.append(np.array(list(outer.values())))
            offset += len(data["start"]) + len(outer)
            for key, value in meta["counters"].items():
                counters[key] = counters.get(key, 0) + value
        return cls(labels, counters, meta, np.concatenate(label_ids),
                   np.concatenate(parents), np.concatenate(durations))

    def _mask(self, label: str, lo: int = 0, hi: int | None = None) -> np.ndarray:
        if label not in self.labels:
            return np.zeros(len(self.duration), dtype=bool)
        mask = (self.label_id == self.labels.index(label)) & self.entry
        mask[:lo] = False
        if hi is not None:
            mask[hi:] = False
        return mask

    def calls(self, label: str) -> int:
        return int(self._mask(label).sum())

    def seconds(self, label: str, lo: int = 0, hi: int | None = None) -> float:
        return float(self.duration[self._mask(label, lo, hi)].sum())

    def layer_self(self, layer: str) -> float:
        ids = [i for i, name in enumerate(self.labels) if name.split(".", 1)[0] == layer]
        return float(self.self_time[np.isin(self.label_id, ids)].sum())

    def counter(self, key: str) -> float:
        return float(self.counters.get(key, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def workload_metrics(spans: Spans, traced_wall: float, untraced_wall: float) -> dict:
    """Metric name -> (value, unit) for one traced workload operation."""
    s = spans
    m = {}

    def timing(label: str) -> None:
        m[f"{label}.s"] = (s.seconds(label), "s")

    def calls(label: str) -> None:
        m[f"{label}.calls"] = (s.calls(label), "count")

    def per_call(label: str) -> None:
        m[f"{label}.us_per_call"] = (1e6 * _ratio(s.seconds(label), s.calls(label)), "us")

    timing("config.load_config")
    for label in ("kernels.discretize", "kernels.transform"):
        timing(label)
        calls(label)

    timing("evolution.simulate")
    calls("evolution.rhs_values")
    calls("evolution.convolve")
    timing("evolution.convolve")
    per_call("evolution.convolve")
    n_conv = s.calls("evolution.convolve")
    m["evolution.convolve.duplicate_frac"] = (
        _ratio(s.counter("evolution.convolve.duplicates"), n_conv), "ratio")
    m["evolution.convolve.bytes_computed"] = (
        _ratio(s.counter("evolution.convolve.bytes"), n_conv), "B")
    m["evolution.step.us"] = (
        1e6 * _ratio(s.seconds("evolution.step"), s.calls("evolution.step")), "us")

    timing("waves.solve_profile")
    m["waves.solve_profile.sweeps"] = (s.counter("waves.solve_profile.sweeps"), "count")
    calls("waves.line_convolve")
    timing("waves.line_convolve")
    per_call("waves.line_convolve")
    calls("waves.profile_residual")
    timing("waves.profile_residual")
    n_samples = s.calls("waves.sample_line_kernel")
    m["waves.sample_line_kernel.calls"] = (n_samples, "count")
    m["waves.sample_line_kernel.repeat_frac"] = (
        _ratio(s.counter("waves.sample_line_kernel.repeats"), n_samples), "ratio")
    m["waves.residual_check.useful_frac"] = (
        _ratio(s.counter("waves.residual_check.useful"), s.counter("waves.residual_check.made")),
        "ratio")

    calls("dispersion.minimize_G")
    timing("dispersion.minimize_G")
    timing("dispersion.front_set")

    for label in ("fronts.track_level", "fronts.interior_convergence", "fronts.estimate_speed"):
        timing(label)

    timing("assumptions.check_assumptions")

    timing("cli.write_csv")
    rows = s.counter("cli.write_csv.rows")
    m["cli.write_csv.rows"] = (rows, "count")
    m["cli.write_csv.us_per_row"] = (1e6 * _ratio(s.seconds("cli.write_csv"), rows), "us")

    attributed = 0.0
    for layer in LAYERS:
        value = s.layer_self(layer)
        attributed += value
        m[f"{layer}.self_s"] = (value, "s")

    cell_steps = s.counter("evolution.cell_steps") + s.counter("waves.cell_steps")
    m["cell_steps_per_s"] = (_ratio(cell_steps, untraced_wall), "1/s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.unattributed_s"] = (traced_wall - attributed, "s")
    m["trace.spans"] = (len(s.duration), "count")
    return m


def accounting(m: dict) -> str:
    """Whether the program's layers account for the traced wall time.

    What the program's layers leave of ``trace.wall_s`` is the trace layer's
    own time plus the unattributed rest.  Both are tracing cost, so together
    they should stay within ``trace.overhead_s``, which host noise can also
    push below zero.
    """
    left = m["trace.self_s"][0] + m["trace.unattributed_s"][0]
    overhead = m["trace.overhead_s"][0]
    verdict = "within" if left <= max(overhead, 0.0) else "FLAG: exceeds"
    return (f"trace accounting: wall_s {m['trace.wall_s'][0]:.4f} s, program layers leave "
            f"{left:.4f} s (trace.self_s {m['trace.self_s'][0]:.4f} + unattributed_s "
            f"{m['trace.unattributed_s'][0]:.4f}), {verdict} trace.overhead_s {overhead:.4f} s")


def probe_metrics(spans: Spans, case_names: list[str]) -> dict:
    """Per-case minimize_G time and outcome counts of the dispersion probe."""
    m = {}
    cases = {c["case"]: c for c in spans.meta["probe"]}
    for name in case_names:
        case = cases[name]
        ms = 1e3 * spans.seconds("dispersion.minimize_G", case["first_span"], case["last_span"])
        m[f"dispersion.minimize_G.{name}.ms"] = (ms, "ms")
    outcomes = [c["outcome"] for c in spans.meta["probe"]]
    m["dispersion.probe.cases"] = (len(outcomes), "count")
    m["dispersion.probe.typed_failures"] = (outcomes.count("typed"), "count")
    m["dispersion.probe.untyped_failures"] = (outcomes.count("untyped"), "count")
    m["dispersion.probe.rejected"] = (outcomes.count("rejected"), "count")
    return m
