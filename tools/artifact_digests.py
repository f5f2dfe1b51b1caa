"""SHA-256 digests of the CLI artifacts of a fixed config matrix.

Runs every ``nlkpp`` command over a fixed set of configs, each in a fresh
``python -m nlkpp.cli`` process and its own output directory under a
temporary directory, and prints ``sha256  relative-path`` for every file
written, ``summary.txt`` included, in path order, then ``exit N  run`` for
every run, in matrix order (a config the parser refuses writes no file, so
only its exit status shows it).  The matrix covers ``dispersion`` for every
kernel family in one and two dimensions (the offset gaussian and exppoly
with p = 0.5, 1 and 2 among them), waves at 1.0 and 1.3 c* on 1-D and 2-D
kernels, ``simulate`` (split snapshots too; the offset gaussian in both
dimensions, a 2-D step start and a 2-D exppoly), 1-D and 2-D ``front`` runs
and both ``verify`` modes (necessity in 2-D too).  Short 1-D runs give every
key that a runner reads a value other than its default somewhere, every
``[initial]`` kind and none, and exercise ``--seed``, the ``verify`` suite
argument and an ``[output] directory`` without ``--out``.  Twelve more show
refusals: the parser's (exit 2) of a step start with ``direction = 0``, of an
``exppoly`` kernel whose density is not integrable, of a wave given both
``speed`` and ``speed_factor``, of a profile ``path`` that names a directory,
of a front with ``n_directions = 2``, of a ``profile-file`` start given
``shift``, which that kind does not read, of a gaussian kernel given ``mu``,
which that family does not read, and of a gaussian ``sigma = 1e-200``, whose
normalizer leaves the float range; the runner's (exit 1 with an ``error``
summary) of a front with ``level = 0``, of a profile file whose ``s`` column
decreases, of a wave domain of one cell and of a 1-D laplace ``mu = 1e200``
dispersion, whose line moments overflow.  One more, a 1-D
invasion on 4096 points to horizon 60 without ``floor``, blows up and exits 1
with an ``error`` that names ``[time] floor``.  Last come two 2-D ``front``
runs on 256 x 256 points with a+ (compact_uniform, radius 2) not a- (the
gaussian), one at the default thread count and one with ``--threads 1``:
their right-hand sides split over two threads when the host has two CPUs,
and the two runs must print equal digests.

Usage::

    python tools/artifact_digests.py [CHECKOUT]

``CHECKOUT`` is the repository whose ``src`` is run; it defaults to the one
holding this script.  Every run gets ``OPENBLAS_NUM_THREADS=1``, so that
the digests do not depend on the host's core count: the LAPACK solves of a
wave's Newton steps run on numpy's BLAS threads, and at two threads instead
of one, 27 of the then 110 digest lines differed on a 2-vCPU x86-64 host (every
file of the laplace, exppoly-p1 and laplace/gaussian wave runs).

To check that a change leaves every artifact byte-identical, check out the
parent commit elsewhere (``git worktree add``) and compare::

    python tools/artifact_digests.py /path/to/parent > parent.txt
    python tools/artifact_digests.py > change.txt
    diff parent.txt change.txt
"""
from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODEL = {"kappa_plus": 2.0, "kappa_minus": 1.0, "mortality": 1.0}
GAUSSIAN = {"family": "gaussian", "sigma": 1.0}

# kernel keys without the dimension; each kernel runs in d = 1 and d = 2
KERNELS = {
    "gaussian": GAUSSIAN,
    "gaussian-offset": dict(GAUSSIAN, offset=(0.5, -0.25)),
    "laplace": {"family": "laplace", "mu": 1.0},
    "exppoly-p0.5": {"family": "exppoly", "p": 0.5, "q": 3.0, "mu": 1.0},
    "exppoly-p1": {"family": "exppoly", "p": 1.0, "q": 3.0, "mu": 1.0},
    "exppoly-p2": {"family": "exppoly", "p": 2.0, "q": 1.0, "mu": 0.5},
    "compact_uniform": {"family": "compact_uniform", "radius": 1.0},
    "power_tail": {"family": "power_tail", "q": 4.0},
}
# wave kernels and their (domain_left, domain_right): the laplace profile needs a
# long left end to reach theta, the compact one a short domain for Newton to converge
WAVE_DOMAINS = {"gaussian": (-40.0, 80.0), "laplace": (-100.0, 80.0),
                "exppoly-p1": (-40.0, 80.0), "compact_uniform": (-30.0, 40.0)}


# a 1-D start for the profile-file kinds, from theta = 1 on the left to 0 on the right;
# runs read it as profile.csv in their working directory
PROFILE = "s,psi\n" + "".join(f"{s},{0.5 - 0.5 * math.tanh(s / 2.0)!r}\n"
                              for s in range(-20, 21))
# the same fall listed from the right, which the runner refuses; read as decreasing.csv
DECREASING = "s,psi\n10,0\n0,0.5\n-10,1\n"


def _kernel(keys: dict, dimension: int) -> dict:
    out = {"dimension": dimension}
    for key, value in keys.items():
        out[key] = " ".join(str(v) for v in value[:dimension]) if key == "offset" else value
    return out


def _render(sections: dict) -> str:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    return "\n".join(lines) + "\n"


def _evolution(dimension: int, points: int, half_length: float, horizon: float,
               kernel_plus: dict = GAUSSIAN, kernel_minus: dict = GAUSSIAN, **extra) -> dict:
    return {
        "scenario": {"seed": 7},
        "model": MODEL,
        "kernel_plus": _kernel(kernel_plus, dimension),
        "kernel_minus": _kernel(kernel_minus, dimension),
        "grid": {"dimension": dimension, "half_length": half_length, "points": points},
        "time": {"dt": 0.01, "horizon": horizon, "snapshot_stride": 25},
        "initial": {"kind": "bump", "center": " ".join(["0.3"] * dimension),
                    "width": 2.0, "height": 0.5},
        **extra,
    }


def _keyed_runs() -> list[tuple[str, list[str], dict]]:
    """Short 1-D runs that set the keys and options the rest of the matrix leaves at
    their defaults, twelve that are refused and one that blows up."""
    gaussian = _kernel(GAUSSIAN, 1)
    line = {"model": MODEL, "kernel_plus": gaussian, "kernel_minus": gaussian}
    time = {"dt": 0.01, "horizon": 1.0, "snapshot_stride": 25}

    def simulate(initial: dict | None, **extra) -> dict:
        sections = _evolution(1, 128, 20.0, 1.0, initial=initial, **extra)
        if initial is None:
            del sections["initial"]
        return sections

    return [
        ("keys-wave-speed", ["wave"],
         dict(line, wave={"speed": 2.5, "spacing": 0.1})),
        ("keys-dispersion-lambda", ["dispersion"],
         dict(line, dispersion={"lambda_min": 0.1, "lambda_max": 2.0, "lambda_count": 20})),
        ("keys-front-level-shrink", ["front"],
         _evolution(1, 256, 20.0, 2.0, front={"level": 0.3, "shrink": 0.7})),
        ("keys-time-exp_euler-floor", ["simulate"],
         simulate({"kind": "bump", "width": 2.0, "height": 0.5},
                  time=dict(time, method="exp_euler", floor=1e-12))),
        ("keys-initial-constant", ["simulate"], simulate({"kind": "constant", "value": 0.25})),
        ("keys-initial-profile-file", ["simulate"],
         simulate({"kind": "profile-file", "path": "profile.csv"})),
        ("keys-initial-shifted-profile", ["simulate"],
         simulate({"kind": "shifted-profile", "path": "profile.csv", "shift": -3.5})),
        ("keys-initial-step-left", ["simulate"], simulate({"kind": "step", "direction": -1})),
        ("refused-initial-direction-0", ["simulate"],
         simulate({"kind": "step", "direction": 0})),
        ("keys-initial-none", ["simulate"], simulate(None)),
        ("keys-output-directory", ["simulate"],
         simulate({"kind": "constant", "value": 0.25},
                  output={"directory": "out/keys-output-directory"})),
        ("keys-seed-option", ["verify", "--seed", "3"],
         _evolution(1, 128, 20.0, 0.5, verify={"pairs": 2})),
        ("keys-verify-suite-argument", ["verify", "comparison"],
         _evolution(1, 128, 20.0, 0.5, verify={"suite": "comparison", "pairs": 2})),
        ("refused-front-level-0", ["front"], _evolution(1, 128, 20.0, 0.5, front={"level": 0})),
        ("refused-exppoly-not-integrable", ["dispersion"],
         dict(line, kernel_plus={"family": "exppoly", "dimension": 1, "p": 0.5, "q": 0.0,
                                 "mu": 1e-300})),
        ("refused-wave-speed-and-factor", ["wave"],
         dict(line, wave={"speed": 2.5, "speed_factor": 1.3, "spacing": 0.1})),
        ("refused-initial-decreasing-profile", ["simulate"],
         simulate({"kind": "profile-file", "path": "decreasing.csv"})),
        ("refused-wave-domain-one-cell", ["wave"],
         dict(line, wave={"spacing": 0.9, "domain_left": -1.0, "domain_right": 0.0})),
        ("refused-initial-path-directory", ["simulate"],
         simulate({"kind": "profile-file", "path": "configs"})),
        ("refused-front-n_directions-2", ["front"],
         _evolution(1, 128, 20.0, 0.5, front={"n_directions": 2})),
        ("refused-initial-profile-file-shift", ["simulate"],
         simulate({"kind": "profile-file", "path": "profile.csv", "shift": 5.0})),
        ("refused-gaussian-mu", ["dispersion"], dict(line, kernel_plus=dict(gaussian, mu=7.0))),
        ("refused-gaussian-sigma-1e-200", ["dispersion"],
         dict(line, kernel_plus=dict(gaussian, sigma=1e-200))),
        ("refused-laplace-mu-1e200", ["dispersion"],
         dict(line, kernel_plus={"family": "laplace", "dimension": 1, "mu": 1e200})),
        ("blow-up-without-floor", ["simulate"],
         dict(_evolution(1, 4096, 200.0, 60.0,
                         initial={"kind": "bump", "width": 2.0, "height": 0.5}),
              time={"dt": 0.05, "horizon": 60.0, "snapshot_stride": 25})),
    ]


def matrix() -> list[tuple[str, list[str], dict]]:
    """(run name, command and options, config sections) for every run."""
    runs = []
    for name, keys in KERNELS.items():
        for d in (1, 2):
            kernel = _kernel(keys, d)
            runs.append((f"dispersion-{name}-{d}d", "dispersion",
                         {"model": MODEL, "kernel_plus": kernel, "kernel_minus": kernel,
                          "dispersion": {"lambda_count": 50}}))
    runs.append(("dispersion-gaussian-offset-2d-oblique", "dispersion",
                 {"model": MODEL, "kernel_plus": _kernel(KERNELS["gaussian-offset"], 2),
                  "kernel_minus": _kernel(GAUSSIAN, 2),
                  "dispersion": {"direction": "0.6 0.8", "lambda_count": 50}}))
    for name, (left, right) in WAVE_DOMAINS.items():
        for d in (1, 2):
            for factor in (1.0, 1.3):
                kernel = _kernel(KERNELS[name], d)
                runs.append((f"wave-{name}-{d}d-{factor}", "wave",
                             {"model": MODEL, "kernel_plus": kernel, "kernel_minus": kernel,
                              "wave": {"speed_factor": factor, "spacing": 0.1,
                                       "domain_left": left, "domain_right": right}}))
    laplace = KERNELS["laplace"]
    runs += [
        ("wave-laplace-gaussian-1d", "wave",
         {"model": MODEL, "kernel_plus": _kernel(laplace, 1),
          "kernel_minus": _kernel(GAUSSIAN, 1),
          "wave": {"speed_factor": 1.3, "spacing": 0.1, "domain_left": -100.0}}),
        ("simulate-1d", "simulate", _evolution(1, 256, 20.0, 1.0)),
        ("simulate-1d-split", "simulate",
         _evolution(1, 256, 20.0, 1.0, output={"split_snapshots": "true"})),
        ("simulate-1d-power_tail", "simulate",
         _evolution(1, 256, 20.0, 1.0, kernel_plus=KERNELS["power_tail"])),
        ("simulate-2d", "simulate", _evolution(2, 64, 20.0, 0.5, kernel_minus=laplace)),
        ("simulate-1d-gaussian-offset", "simulate",
         _evolution(1, 256, 20.0, 1.0, kernel_plus=KERNELS["gaussian-offset"])),
        ("simulate-2d-gaussian-offset", "simulate",
         _evolution(2, 64, 20.0, 0.5, kernel_plus=KERNELS["gaussian-offset"])),
        ("simulate-2d-step", "simulate", _evolution(2, 64, 20.0, 0.5, initial={"kind": "step"})),
        ("simulate-2d-exppoly-p1", "simulate",
         _evolution(2, 64, 20.0, 0.5, kernel_plus=KERNELS["exppoly-p1"])),
        ("front-1d", "front", _evolution(1, 512, 40.0, 4.0)),
        ("front-2d", "front",
         _evolution(2, 64, 16.0, 2.0, kernel_plus=KERNELS["compact_uniform"],
                     front={"n_directions": 8})),
        ("verify-comparison", "verify", _evolution(1, 128, 20.0, 0.5, verify={"pairs": 2})),
        ("verify-necessity", "verify",
         _evolution(1, 1024, 10.0, 0.5, verify={"necessity": "true"})),
        ("verify-necessity-2d", "verify",
         _evolution(2, 128, 5.0, 0.5, verify={"necessity": "true"})),
    ]
    runs = [(name, [command], sections) for name, command, sections in runs]
    plane = _evolution(2, 256, 32.0, 2.0, kernel_plus=dict(KERNELS["compact_uniform"], radius=2.0),
                       front={"n_directions": 8})
    return runs + _keyed_runs() + [("front-2d-256", ["front"], plane),
                                   ("front-2d-256-threads-1", ["front", "--threads", "1"], plane)]


def main(argv: list[str]) -> int:
    checkout = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"),
               OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "configs").mkdir()
        (root / "profile.csv").write_text(PROFILE)
        (root / "decreasing.csv").write_text(DECREASING)
        exits = []
        for name, args, sections in matrix():
            cfg = root / "configs" / f"{name}.cfg"
            cfg.write_text(_render(sections))
            out = [] if "directory" in sections.get("output", {}) else ["--out", f"out/{name}"]
            run = subprocess.run([sys.executable, "-m", "nlkpp.cli", *args, "--config", str(cfg),
                                  *out], cwd=root, env=env, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                 check=False)
            exits.append(f"exit {run.returncode}  {name}")
        out = root / "out"
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out)}")
        print("\n".join(exits))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
