"""Per-call timings of the periodic step's layers at fixed sizes, at one and two threads.

Times ``evolution.convolve_pair``, ``evolution.rhs_values`` and one
``evolution._advance`` (RK4; dt 0.002 and floor 1e-14 in 1-D, dt 0.05 in 2-D)
in this process, on the canonical rates kappa_plus = 2, kappa_minus = 1, m = 1:

* ``1d-8192-whole``: the invasion grid (N 8192, half-length 200) with one
  sigma = 1 gaussian for a+ and a-, on a state that is nonzero everywhere, so
  the step transforms the whole grid;
* ``1d-3072-window``: the same grid and kernel, on a state whose occupied span
  grown by four kernel reaches is padded to 3072 points; ``convolve_pair`` and
  ``rhs_values`` run on that 3072-point segment, ``_advance`` on the grid;
* ``2d-256``: the front grid (256 x 256, half-length 32) with a+ the radius-2
  ``compact_uniform`` and a- the sigma = 1 gaussian, on a state that is nonzero
  everywhere;
* ``2d-128`` and ``2d-64``: the same kernels and spacing (0.25) on 128 x 128
  and 64 x 64 planes;
* ``1d-invasion-march``: ``evolution._march`` of 500 ``_advance`` steps of the
  invasion grid, kernel, dt and floor from a bump of width 2 and height 0.5 at
  the centre, over which the window's transform length takes nine values from
  1440 to 2160 points; its figures are per step.

``_advance`` runs as in a march: a checkout with ``evolution._Workspace`` gives
every call of a case one workspace, so its buffers and right-hand side are
built once.  The 2-D cases run once more at two threads: ``rhs_values`` and
``_advance`` are given a helper thread (``evolution._Helper``), and every
right-hand side splits, also below ``evolution._SPLIT_POINTS`` (2^14 points),
so that the figures show where the split starts to pay.  ``convolve_pair`` has
no two-thread form.

Each figure is the minimum, and the median, over ``--repeats`` blocks of the
per-call mean of a block's calls, with the minor page faults per call
(``resource.getrusage``) over one more block.  Kernel spectra are computed
before timing.

Usage::

    python tools/step_timings.py [CHECKOUT] [--repeats R]

``CHECKOUT`` is the repository whose ``src`` is imported; it defaults to the
one holding this script.  To compare a change with its parent, export the
parent elsewhere (``git archive``) and run the script once on each, in
alternation.
"""
from __future__ import annotations

import argparse
import gc
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

import numpy as np

CASES = ("1d-8192-whole", "1d-3072-window", "2d-64", "2d-128", "2d-256")
# calls per timed block: short blocks, so that the minimum finds a quiet one
CALLS = {"1d-8192-whole": 40, "1d-3072-window": 80, "2d-64": 60, "2d-128": 16, "2d-256": 4}
MARCH_STEPS = 500


def _cases(nlkpp):
    """``{case: (params, wplus, wminus, segment, state, cfg)}``, ``segment`` being the
    array the convolution layers run on and ``state`` the one ``_advance`` steps."""
    from nlkpp import evolution, kernels

    params = nlkpp.ModelParams(kappa_plus=2.0, kappa_minus=1.0, mortality=1.0)
    rng = np.random.default_rng(0)
    line = nlkpp.Grid(dimension=1, half_length=200.0, points_per_axis=8192)
    w = nlkpp.discretize(nlkpp.Kernel("gaussian", 1, sigma=1.0), line)
    cfg1 = evolution.StepConfig(dt=2e-3, floor=1e-14)
    out = {}

    whole = 0.5 + 0.01 * rng.random(line.shape)
    out["1d-8192-whole"] = (params, w, w, whole, whole, cfg1)

    grow = 4 * w.reach
    span = 3072 - 2 * grow - 1
    windowed = np.zeros(line.shape)
    lo = (line.points_per_axis - span) // 2
    windowed[lo:lo + span] = 0.5 + 0.01 * rng.random(span)
    (window,) = evolution._window(w, w, windowed, cfg1)
    length = kernels._next_fast_len(window.stop - window.start)
    if length != 3072:
        raise AssertionError(f"the window transforms {length} points, not 3072")
    segment = np.zeros(length)
    segment[:window.stop - window.start] = windowed[window]
    out["1d-3072-window"] = (params, w, w, segment, windowed, cfg1)

    for n in (64, 128, 256):
        plane = nlkpp.Grid(dimension=2, half_length=n / 8, points_per_axis=n)
        wp = nlkpp.discretize(nlkpp.Kernel("compact_uniform", 2, radius=2.0), plane)
        wm = nlkpp.discretize(nlkpp.Kernel("gaussian", 2, sigma=1.0), plane)
        state = 0.3 + 0.01 * rng.random(plane.shape)
        out[f"2d-{n}"] = (params, wp, wm, state, state, evolution.StepConfig(dt=0.05))
    return out


def _march(nlkpp):
    """One ``_march`` of ``MARCH_STEPS`` invasion steps from a bump, as a callable."""
    from nlkpp import evolution

    params = nlkpp.ModelParams(kappa_plus=2.0, kappa_minus=1.0, mortality=1.0)
    line = nlkpp.Grid(dimension=1, half_length=200.0, points_per_axis=8192)
    w = nlkpp.discretize(nlkpp.Kernel("gaussian", 1, sigma=1.0), line)
    bump = nlkpp.bump_field(line, 0.0, 2.0, 0.5).values
    cfg = evolution.StepConfig(dt=2e-3, floor=1e-14)
    return lambda: evolution._march(evolution._advance, params, w, w, bump, cfg,
                                    MARCH_STEPS * cfg.dt)


def _measure(fn, calls: int, repeats: int) -> tuple[float, float, float]:
    """(minimum and median per-call seconds over ``repeats`` blocks, minor faults per call)."""
    fn()
    gc.disable()
    try:
        blocks = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            blocks.append((time.perf_counter() - start) / calls)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(calls):
            fn()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    finally:
        gc.enable()
    return min(blocks), statistics.median(blocks), faults / calls


def _row(name: str, layer: str, threads: int, best: float, median: float,
         faults: float) -> None:
    print(f"{name:<18} {layer:<14} {threads:>7} {1e6 * best:>10.1f} {1e6 * median:>10.1f} "
          f"{faults:>12.1f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--repeats", type=int, default=25)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout) / "src"))
    import nlkpp
    from nlkpp import evolution

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the radius-2 disk is marginal at h = 0.25
        cases = _cases(nlkpp)
    print(f"# numpy {np.__version__}, python {sys.version.split()[0]}, "
          f"min of {args.repeats} blocks")
    print(f"{'case':<18} {'layer':<14} {'threads':>7} {'min us':>10} {'median us':>10} "
          f"{'minflt/call':>12}")
    evolution._SPLIT_POINTS = 1  # with a helper, every size splits
    for name in CASES:
        params, wp, wm, segment, state, cfg = cases[name]

        def workspace(helper=None):
            """A march's workspace for ``state``, or ``helper`` at a parent checkout."""
            if not hasattr(evolution, "_Workspace"):
                return helper
            return evolution._Workspace(params, wp, wm, "fft", state.shape, helper)

        one = workspace()
        layers = [
            ("convolve_pair", 1, lambda: evolution.convolve_pair(wp, wm, segment)),
            ("rhs_values", 1, lambda: evolution.rhs_values(params, wp, wm, segment)),
            ("_advance", 1, lambda: evolution._advance(params, wp, wm, state, cfg, one)),
        ]
        # a parent checkout without the helper times one thread only
        split = name.startswith("2d") and hasattr(evolution, "_Helper")
        helper = evolution._Helper() if split else None
        if helper is not None:
            two = workspace(helper)
            layers += [
                ("rhs_values", 2,
                 lambda: evolution.rhs_values(params, wp, wm, segment, helper=helper)),
                ("_advance", 2, lambda: evolution._advance(params, wp, wm, state, cfg, two)),
            ]
        try:
            for layer, threads, fn in layers:
                best, median, faults = _measure(fn, CALLS[name], args.repeats)
                _row(name, layer, threads, best, median, faults)
        finally:
            if helper is not None:
                helper.close()
    best, median, faults = _measure(_march(nlkpp), 1, args.repeats)
    _row("1d-invasion-march", "_march/step", 1, best / MARCH_STEPS, median / MARCH_STEPS,
         faults / MARCH_STEPS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
