"""Traced process: run one nlkpp CLI invocation (or the dispersion probe) with spans.

    python perfbench/traced.py cli <stem> <nlkpp arguments...>
    python perfbench/traced.py probe <stem> <manifest.json>

``src`` must be on PYTHONPATH.  Spans and counters go to ``<stem>.npz`` and
``<stem>.json`` when the run ends; the exit status is the CLI's.  ``entered``
in the JSON is the ``time.perf_counter()`` reading when this file started to
run; the clock is system-wide, so the parent can time interpreter start-up
against its own launch time.
"""
import time

ENTERED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, instrument  # noqa: E402


def run_probe(tracer: Tracer, main, manifest: Path) -> list[dict]:
    """Run ``nlkpp dispersion`` per case in this process; record each outcome.

    ``ok``: exit 0.  ``typed``: exit 1, the CLI reported an ``NlkppError``.
    ``untyped``: any other exception escaped the CLI.  ``rejected``: any other
    exit status, such as 2 for a config the CLI refused; the probe case itself
    is broken then.
    """
    cases = []
    for case in json.loads(manifest.read_text()):
        first = len(tracer.start)
        error = None
        try:
            status = main(["dispersion", "--config", case["config"], "--out", case["out"]])
        except SystemExit as exc:  # argparse rejects the arguments this way
            status = exc.code
        except Exception as exc:  # the probe exists to count these
            status = None
            error = type(exc).__name__
        if status is None:
            outcome = "untyped"
        elif status == 0:
            outcome = "ok"
        elif status == 1:
            outcome = "typed"
            error = _summary_error(Path(case["out"]) / "summary.txt")
        else:
            outcome = "rejected"
        cases.append({"case": case["case"], "outcome": outcome, "status": status,
                      "error": error, "first_span": first, "last_span": len(tracer.start)})
    return cases


def _summary_error(path: Path) -> str | None:
    if not path.is_file():
        return None
    for line in path.read_text().splitlines():
        if line.startswith("error = "):
            return line[len("error = "):]
    return None


def main(argv: list[str]) -> int:
    mode, stem = argv[0], argv[1]
    tracer = Tracer()
    with tracer.span("setup.import"):
        import nlkpp.cli
    with tracer.span("trace.instrument"):
        instrument(tracer, nlkpp)
    extra = {"entered": ENTERED}
    status = 0
    if mode == "cli":
        status = nlkpp.cli.main(argv[2:])
    elif mode == "probe":
        extra["probe"] = run_probe(tracer, nlkpp.cli.main, Path(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    tracer.write(stem, extra)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
