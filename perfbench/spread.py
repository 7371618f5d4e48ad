"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_hot --seeds 1-10 --seconds 45

Prints, per metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median — the figure a metric's bound in ``BENCHMARK.json``
is compared with.  Exits nonzero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="45")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    values: dict = {}
    units: dict = {}
    for seed in _seeds(args.seeds):
        process = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        if process.returncode != 0:
            print(process.stderr, file=sys.stderr)
            return process.returncode
        result = json.loads(process.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{'metric':40} {'unit':>9} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:40} {units[name]:>9} {median:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
