#!/usr/bin/env python3
"""The repository's benchmark: replay, sweep and serving, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload replay-miss --seed 7 --seconds 8 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric plus the tracing overhead.  The last stdout line is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
line before it, prefixed ``detail``, holds the raw un-normalized values,
the drift reference rate and the sample counts.  The exit status is 0
only when every correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

from drift import DriftMeter
from layers import PER_LAYER
from measure import END_TO_END, result_line

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCENARIO = BENCH / "serve-mixed.json"
WORKLOADS = ("replay-hit", "replay-miss", "sweep-fig3", "serve-mixed")


@dataclass
class Context:
    """What a workload run needs: its inputs, budget and working directory.

    ``meter`` brackets work with the interpreter reference; serve-mixed
    replaces it with one whose reference is HTTP round trips.
    """

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: Path
    workdir: Path
    meter: DriftMeter
    scenario: object


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {package}")


def _workload_module(name: str):
    if name.startswith("replay-"):
        import replay as module
    elif name == "sweep-fig3":
        import sweep as module
    else:
        import serving as module
    return module


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from repro.serve.scenario import load_scenario

    workroot = ROOT / ".perfbench-work"
    workdir = workroot / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        root=ROOT,
        workdir=workdir,
        meter=DriftMeter(),
        scenario=load_scenario(SCENARIO),
    )
    module = _workload_module(args.workload)
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass
    if ctx.trace:
        units = PER_LAYER
        missing = set(PER_LAYER) - set(outcome.metrics)
        unexpected = missing - set(module.UNMEASURED_LAYERS)
        if unexpected:
            raise RuntimeError(f"no samples for layers: {', '.join(sorted(unexpected))}")
        for name in missing:
            outcome.metrics[name] = 0.0
    else:
        units = END_TO_END
    detail = dict(outcome.detail)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        reference_rate_per_s=ctx.meter.reference_rate,
        reference_slices=len(ctx.meter.reference_s),
    )
    print("detail " + json.dumps(detail, sort_keys=True))
    print(result_line(outcome, units))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
