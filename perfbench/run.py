"""Time-to-solution benchmark for the nlkpp command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, both modes

Run from the repository root: the program under test is ``src/nlkpp``.
Each workload is one client in a closed loop: the next operation starts when
the previous one returns, and every operation is a fresh
``python -m nlkpp.cli ...`` process per CLI invocation.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` runs one untraced and
one traced operation, the dispersion probe and the import breakdown, and
reports the per-layer metrics.  The last line of standard output is one JSON
object; the exit status is non-zero when any correctness check fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from workloads import PROBE_CASES, WORKLOADS, Check, Invocation, Workload, write_probe  # noqa: E402

RUN_BUDGET_S = 170.0  # every child is killed before a run exceeds this
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
IMPORT_MODULES = ("nlkpp.cli", "nlkpp", "nlkpp.params", "nlkpp.errors", "nlkpp.grids",
                  "nlkpp.kernels", "nlkpp.assumptions", "nlkpp.dispersion",
                  "nlkpp.evolution", "nlkpp.waves", "nlkpp.fronts", "nlkpp.config",
                  "numpy", "scipy.integrate", "scipy.special", "scipy.stats",
                  "scipy.stats.qmc", "scipy.signal")
SETUP_CODE = ("import sys\nimport nlkpp.cli\nfrom nlkpp.config import load_config\n"
              "load_config(sys.argv[1], command=sys.argv[2])\n")
ACCURACY = ("speed_rel_err", "residual_sup")


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    status: int
    launched: float  # time.perf_counter() just before the child was started
    reaped: float  # time.perf_counter() just after it was reaped


@dataclass
class Op:
    wall_s: float
    peak_rss_mb: float
    checks: list[Check]
    accuracy: dict[str, float]
    invocations: int
    failed_invocations: int
    traces: list[tuple[str, float, float]] = field(default_factory=list)  # stem, launched, reaped


class Runner:
    """Starts children under a shared deadline and measures each one."""

    def __init__(self, root: Path, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, argv: list[str], log: Path) -> Child:
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fh, stderr=subprocess.STDOUT)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(end - start, usage.ru_maxrss / 1024.0, proc.returncode, start, end)


def run_op(runner: Runner, workload: Workload, invocations: list[Invocation], op_dir: Path,
           traced: bool = False) -> Op:
    op_dir.mkdir(parents=True)
    walls, rss, outs, traces, checks = [], [], [], [], []
    failed = 0
    for k, inv in enumerate(invocations):
        out = op_dir / f"out{k}"
        cli_args = [inv.command, "--config", str(inv.config), "--out", str(out)]
        if traced:
            stem = str(op_dir / f"spans{k}")
            argv = [sys.executable, str(BENCH_DIR / "traced.py"), "cli", stem, *cli_args]
        else:
            argv = [sys.executable, "-m", "nlkpp.cli", *cli_args]
        child = runner.run(argv, op_dir / f"log{k}.txt")
        if traced:
            traces.append((stem, child.launched, child.reaped))
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
        outs.append(out)
        if child.status != 0:
            failed += 1
            log = (op_dir / f"log{k}.txt").read_text(errors="replace")[-2000:]
            checks.append(Check(f"{inv.command}.exit", False, f"exit {child.status}: {log}"))
    accuracy: dict[str, float] = {}
    if not failed:
        try:
            found, accuracy = workload.check(outs)
            checks.extend(found)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            checks.append(Check("artifacts", False, f"{type(exc).__name__}: {exc}"))
    return Op(sum(walls), max(rss), checks, accuracy, len(invocations), failed, traces)


def time_setup(runner: Runner, inv: Invocation, log: Path) -> Child:
    return runner.run([sys.executable, "-c", SETUP_CODE, str(inv.config), inv.command], log)


def import_breakdown(runner: Runner, log_dir: Path) -> dict[str, float]:
    """Median cumulative import time per module from ``python -X importtime``.

    ``interpreter`` is the interpreter's wall time outside the import of
    ``nlkpp.cli``: start-up and exit.
    """
    samples: dict[str, list[float]] = {name: [] for name in (*IMPORT_MODULES, "interpreter")}
    for k in range(IMPORTTIME_REPEATS):
        log = log_dir / f"importtime{k}.txt"
        child = runner.run([sys.executable, "-X", "importtime", "-c", "import nlkpp.cli"], log)
        if child.status != 0:
            raise RuntimeError(f"import of nlkpp.cli failed: {log.read_text()[-2000:]}")
        seen = {}
        for line in log.read_text().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if parts[0].isdigit():
                seen[parts[2]] = int(parts[1]) / 1e6
        for name in IMPORT_MODULES:
            samples[name].append(seen.get(name, 0.0))
        samples["interpreter"].append(child.wall_s - seen.get("nlkpp.cli", 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l1d": caches.get("L1", "unknown"),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "platform": platform.platform(),
        "seed": seed,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    ops: list[dict] = field(default_factory=list)

    def count(self, op: Op) -> None:
        self.attempted += op.invocations + sum(1 for c in op.checks if not c.name.endswith(".exit"))
        self.failed += op.failed_invocations + sum(
            1 for c in op.checks if not c.ok and not c.name.endswith(".exit"))
        for c in op.checks:
            if not c.ok:
                self.notes.append(f"FAIL {c.name}: {c.detail}")
        self.ops.append({"wall_s": op.wall_s, "peak_rss_mb": op.peak_rss_mb,
                         "checks": [[c.name, c.ok, c.detail] for c in op.checks],
                         "accuracy": op.accuracy})


def untraced(runner: Runner, workload: Workload, invocations: list[Invocation],
             run_dir: Path, seconds: float) -> Result:
    result = Result({})
    setups = [time_setup(runner, invocations[0], run_dir / f"setup{k}.txt")
              for k in range(SETUP_REPEATS)]
    if any(c.status != 0 for c in setups):
        result.attempted += 1
        result.failed += 1
        result.notes.append("FAIL setup: " + (run_dir / "setup0.txt").read_text()[-2000:])
    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        op_dir = run_dir / f"op{len(ops)}"
        op = run_op(runner, workload, invocations, op_dir)
        result.count(op)
        ops.append(op)
        if all(c.ok for c in op.checks):
            shutil.rmtree(op_dir)
    q1, med, q3 = quartiles([op.wall_s for op in ops])
    result.notes.append(f"wall_s: {len(ops)} ops, median {med:.4f} s, quartiles {q1:.4f}..{q3:.4f}")
    setup_walls = [c.wall_s for c in setups]
    result.notes.append(f"setup_s: {len(setups)} interpreters, samples "
                        + " ".join(f"{v:.4f}" for v in setup_walls))
    result.metrics = {
        "wall_s": (med, "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (statistics.median(op.peak_rss_mb for op in ops), "MB"),
    }
    return result


def traced(runner: Runner, workload: Workload, invocations: list[Invocation],
           run_dir: Path) -> Result:
    result = Result({})
    imports = import_breakdown(runner, run_dir)
    # untraced operations on both sides of the traced one, against host drift
    plain = run_op(runner, workload, invocations, run_dir / "untraced0")
    result.count(plain)
    spanned = run_op(runner, workload, invocations, run_dir / "traced", traced=True)
    result.count(spanned)
    plain_after = run_op(runner, workload, invocations, run_dir / "untraced1")
    result.count(plain_after)
    untraced_wall = (plain.wall_s + plain_after.wall_s) / 2.0

    probe_dir = run_dir / "probe"
    probe_dir.mkdir()
    manifest = write_probe(probe_dir)
    stem = str(probe_dir / "spans")
    child = runner.run([sys.executable, str(BENCH_DIR / "traced.py"), "probe", stem,
                        str(manifest)], probe_dir / "log.txt")
    if child.status != 0:
        raise RuntimeError(f"probe process failed: {(probe_dir / 'log.txt').read_text()[-2000:]}")
    probe = layers.Spans.load([(stem, child.launched, child.reaped)])
    for case in probe.meta["probe"]:
        if case["outcome"] == "ok":
            continue
        note = f"probe {case['case']}: {case['outcome']} (exit {case['status']}) {case['error'] or ''}"
        # untyped and typed outcomes are findings about the program; a
        # rejected config means the probe case itself is broken
        if case["outcome"] == "rejected":
            result.attempted += 1
            result.failed += 1
            note = "FAIL " + note
        result.notes.append(note)

    metrics = {}
    if not spanned.failed_invocations:
        spans = layers.Spans.load(spanned.traces)
        metrics.update(layers.workload_metrics(spans, spanned.wall_s, untraced_wall))
        result.notes.append(layers.accounting(metrics))
    metrics.update(layers.probe_metrics(probe, PROBE_CASES))
    metrics["setup.interpreter_s"] = (imports.pop("interpreter"), "s")
    for name, value in imports.items():
        metrics[f"setup.import.{name}_s"] = (value, "s")
    for name in ACCURACY:
        metrics[name] = (plain.accuracy.get(name, 0.0), "ratio" if name != "residual_sup" else "1")
    metrics["ops_failed_frac"] = (result.failed / result.attempted, "ratio")
    result.metrics = metrics
    return result


def run_workload(root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
                 deadline: float) -> Result:
    run_dir = BENCH_DIR / "work" / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True)
    invocations = workload.invocations(seed, cfg_dir)
    runner = Runner(root, deadline)
    if trace:
        result = traced(runner, workload, invocations, run_dir)
    else:
        result = untraced(runner, workload, invocations, run_dir, seconds)
    if result.failed == 0:
        shutil.rmtree(run_dir)
    return result


def declared(root: Path, trace: bool) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(workload: Workload, seed: int, seconds: float, trace: bool, env: dict,
           result: Result, names: list[dict]) -> dict:
    """Print every declared metric by name with its unit; store the result file."""
    metrics = {}
    for entry in names:
        if result.failed and entry["name"] not in result.metrics:
            result.metrics[entry["name"]] = (math.nan, entry["unit"])  # not measured
        value, unit = result.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"metric {entry['name']} measured in {unit}, declared {entry['unit']}")
        if math.isfinite(value):
            metrics[entry["name"]] = {"value": float(value), "unit": unit}
            print(f"{workload.name} {entry['name']} = {value:.6g} {unit}")
        else:
            metrics[entry["name"]] = {"value": None, "unit": unit}
            print(f"{workload.name} {entry['name']} = not measured")
    for note in result.notes:
        print(f"# {workload.name}: {note}")
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "correct": result.failed == 0,
              "attempted": result.attempted, "failed": result.failed,
              "metrics": metrics, "ops": result.ops}
    results = BENCH_DIR / "work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nlkpp" / "cli.py").is_file():
        print("error: run from the repository root; src/nlkpp is missing", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("# environment " + json.dumps(env))

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
    else:
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    records = []
    for workload, trace in plan:
        deadline = time.monotonic() + RUN_BUDGET_S
        result = run_workload(root, workload, args.seed, args.seconds, trace, deadline)
        records.append(report(workload, args.seed, args.seconds, trace, env, result,
                              declared(root, trace)))

    correct = all(r["correct"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": v for r in records for name, v in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
