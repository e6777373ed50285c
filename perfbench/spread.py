#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload replay-miss --seeds 1-10

For every end-to-end metric this prints the median over the runs and
the quartile spread (third minus first quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median),
next to the metric's bound in ``BENCHMARK.json``, running each seed for
that file's ``run_seconds``.  A benchmark is steady when every spread
stays below a third of its bound.  Exits 1 when a run fails or a spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str):
    """``"1-10"`` or ``"3,5,9"`` to a list of seeds."""
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(values) -> float:
    """Interquartile distance over the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}
    values = {name: [] for name in bounds}
    ok = True
    for seed in args.seeds:
        command = [sys.executable, *config["command"][1:]] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].split(" ", 1)[1])
        ok = ok and result["correct"] and result["failed"] == 0
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: reference_rate={detail['reference_rate_per_s']:.4g} "
              f"events_per_s_raw={detail['events_per_s_raw']:.6g} " + " ".join(
            f"{name}={values[name][-1]:.6g}" for name in bounds
        ), flush=True)
    if len(values["setup_s"]) < 2:
        return 1
    print(f"\n{'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        share = spread(values[name])
        flag = "" if share <= bound / 3 else (" > bound/3" if share <= bound else " > BOUND")
        if share > bound:
            ok = False
        print(f"{name:28} {statistics.median(values[name]):14.6g} {share:8.4f} {bound:6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
