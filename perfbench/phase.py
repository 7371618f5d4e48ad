"""One phase of one workload, in a process of its own.

``run.py`` starts this script once per phase: the program keeps
process-wide state (the partition index, the refine cache, the delta
lineage), so a second workload run in the same process would be warm.
The phase writes its record as JSON to ``--out``; its standard streams
carry only diagnostics.

    python3 perfbench/phase.py --workload serve_hot --seed 1 --seconds 45 \\
        --traced 0 --out record.json --workdir .perfbench/tmp
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups before and again after the measured phase; the median of all
#: of them is reported as ``setup_s``.  The machine's speed drifts
#: within seconds, so sampling it at both ends of the run steadies it.
SETUPS_EACH_SIDE = 10


def _summary(outcomes: list, elapsed: float, oos: list) -> dict:
    from harness import mean, median, tail

    reads = [o for o in outcomes if o["kind"] == "query"]
    timed = [o["latency_s"] for o in reads if o["ok"] and o.get("deadline_ms") is None]
    updates = [o["latency_s"] for o in outcomes if o["kind"] == "update" and o["ok"]]
    eps = [o["epsilon_upper"] for o in reads if o.get("epsilon_upper") is not None]
    failed = [o for o in outcomes if not o["ok"]]
    latency_tail = tail(timed)
    return {
        "metrics": {
            "qps": sum(o["ok"] for o in reads) / elapsed,
            "latency_p50_s": median(timed),
            "latency_tail_s": latency_tail["value"],
            "update_latency_p50_s": median(updates),
            "error_ratio": len(failed) / len(outcomes),
            "oos_feasible_ratio": sum(oos) / len(oos) if oos else 0.0,
            "epsilon_upper_mean": mean(eps),
        },
        "latency_tail": latency_tail,
        "queries": len(reads),
        "updates": sum(o["kind"] == "update" for o in outcomes),
        "oos_validated": len(oos),
        "attempted": len(outcomes),
        "failed": len(failed),
        "operations": [
            [o["kind"], f"{o.get('workload')}/{o.get('query')}", o.get("seed"),
             o.get("deadline_ms"), round(o["latency_s"], 4), o["ok"]]
            for o in outcomes
        ],
        "failures": [
            {"op": {k: o.get(k) for k in ("workload", "query", "seed", "kind")},
             "errors": o["errors"]}
            for o in failed[:20]
        ],
    }


def run_phase(args) -> dict:
    import harness
    import layers
    import workloads
    from tracer import Tracer

    started = time.perf_counter()
    import repro.scale.driver  # noqa: F401 - imports are not set-up time
    import repro.service.http  # noqa: F401

    import_s = time.perf_counter() - started
    cls = workloads.WORKLOADS[args.workload]
    setup_times = []

    def set_up():
        workload = cls(args.seed, args.workdir)
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        return workload

    for _ in range(SETUPS_EACH_SIDE - 1):
        set_up().teardown()
    workload = set_up()
    units = workload.units(args.seconds)

    tracer = Tracer() if args.traced else None
    try:
        patcher = layers.install(tracer) if tracer is not None else None
        try:
            outcomes, elapsed = workloads.closed_loop(
                workload, workload.traffic(), units, tracer=tracer
            )
        finally:
            if patcher is not None:
                patcher.restore()
        # Before the harness's own re-validation can set the peak.
        peak_rss_mb = harness.peak_rss_mb()
        workload.finish(outcomes)
        workloads.check_outcomes(outcomes)
        oos = workload.validate_oos(outcomes) if args.revalidate else []
    finally:
        workload.teardown()
    for _ in range(SETUPS_EACH_SIDE):
        set_up().teardown()

    record = _summary(outcomes, elapsed, oos)
    record.update(
        meta=harness.run_metadata(ROOT, args.workload, args.seed),
        traced=bool(args.traced),
        units=units,
        elapsed_s=elapsed,
        import_s=import_s,
        setup_runs_s=setup_times,
    )
    record["metrics"]["setup_s"] = harness.median(setup_times)
    record["metrics"]["peak_rss_mb"] = peak_rss_mb
    if tracer is not None:
        record["layers"] = layers.layer_metrics(tracer.spans, workload.counters)
        record["spans"] = len(tracer.spans)
        tracer.dump(os.path.splitext(args.out)[0] + ".spans.jsonl")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--revalidate", type=int, choices=(0, 1), default=0,
                        help="re-validate the packages out of sample afterwards")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.makedirs(args.workdir, exist_ok=True)
    record = run_phase(args)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
