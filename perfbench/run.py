"""Benchmark entry point: run one workload, check its answers, print metrics.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 45 --trace 0

Run from the repository root.  ``--trace 0`` runs the workload once,
untraced, and reports the end-to-end metrics.  ``--trace 1`` runs it
untraced and then traced, replaying the same traffic, and reports the
per-layer metrics plus the tracing overhead.  ``--seconds`` sizes the
run: it replays as many traffic units as take that long on the
reference box, split between the two phases of ``--trace 1``.  Each
phase runs in a fresh process (``phase.py``); the HiGHS solver's stray
diagnostics on the phases' standard streams are dropped, other lines go
to stderr.  The last line of standard output is one JSON object; the
full record of the run lands in ``.perfbench/results/``.  The exit code
is 0 only when every answer check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Seconds a whole run may take; the phases share it.
RUN_BUDGET_S = 170.0

#: Lines the HiGHS library prints straight to the process's streams.
SOLVER_NOISE = re.compile(r"Highs|HiGHS")

#: glibc's initial mmap threshold, pinned: left to slide, it rises to the
#: size of the last large array freed, so a freed scenario matrix may or
#: may not stay resident depending on thread timing, and serve_hot's peak
#: RSS jumped between ~139 and ~151 MB from run to run of one seed.
#: Pinned, ``peak_rss_mb`` follows the program's live data.
PHASE_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

#: The metrics each mode reports, with their units, are the ones
#: BENCHMARK.json names: ``end_to_end`` untraced, ``per_layer`` traced.
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _phase(args, traced: bool, deadline: float, out_dir: str, workdir: str) -> dict:
    out = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-{'traced' if traced else 'untraced'}.json"
    )
    if os.path.exists(out):
        os.remove(out)
    command = [
        sys.executable, os.path.join(HERE, "phase.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds / (1 + args.trace)),
        "--traced", str(int(traced)), "--out", out, "--workdir", workdir,
        # oos_feasible_ratio comes from the untraced phase of --trace 1.
        "--revalidate", str(int(args.trace and not traced)),
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, env=dict(os.environ, **PHASE_ENV),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, errors="replace",
    )
    try:
        output, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"{args.workload} phase exceeded the run budget")
    for line in output.splitlines():
        if line.strip() and not SOLVER_NOISE.search(line):
            print(line, file=sys.stderr)
    if process.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"{args.workload} phase exited with {process.returncode}")
    with open(out) as handle:
        return json.load(handle)


def _metrics(values: dict, section: str) -> dict:
    with open(SPEC) as handle:
        spec = json.load(handle)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program sources (src/repro) next to perfbench/", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)

    workdir = os.path.join(ROOT, ".perfbench", f"tmp-{os.getpid()}")
    try:
        untraced = _phase(args, False, deadline, out_dir, workdir)
        phases = [untraced]
        if args.trace:
            phases.append(_phase(args, True, deadline, out_dir, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        traced = phases[1]
        # The layers come from the traced phase; the figures of the
        # untraced phase that are not gated end to end (they do not apply
        # to every workload or can read 0) ride along.
        values = dict(untraced["metrics"], **traced["layers"])
        values["trace_overhead_ratio"] = traced["elapsed_s"] / untraced["elapsed_s"] - 1.0
        metrics = _metrics(values, "per_layer")
    else:
        metrics = _metrics(untraced["metrics"], "end_to_end")

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    record = {
        "meta": untraced["meta"],
        "latency_tail": untraced["latency_tail"],
        "phases": phases,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    for phase in phases:
        for failure in phase["failures"]:
            print(f"perfbench: answer check failed: {failure}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
