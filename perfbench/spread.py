"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload kernel --seeds 1-10 [--trace 0]

Prints, per end-to-end metric, the median and the inter-quartile
distance over the median (``statistics.quantiles(values, n=4)``), next
to the metric's bound, plus ``setup_s`` medians of the two halves of
the seed list.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import END_TO_END, median

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def iqr_share(values) -> float:
    """Inter-quartile distance over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values = {}
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        took = time.monotonic() - start
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {took:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.5g}"
                         for k, v in result["metrics"].items()
                         if args.trace == "0"), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if args.trace != "0":
        return 0
    bounds = {name: bound for name, _u, _b, bound in END_TO_END}
    for name, vals in values.items():
        spread = iqr_share(vals) if len(vals) >= 2 else float("nan")
        print(f"{name:24s} median={median(vals):.6g} spread={spread:.4f} "
              f"bound={bounds[name]} {'OK' if spread <= bounds[name] / 3 else 'WIDE'}")
    setup = values["setup_s"]
    half = len(setup) // 2
    if half:
        print(f"setup_s halves: {median(setup[:half]):.4f} "
              f"{median(setup[half:]):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
