"""Which public entry points belong to which layer, and their metrics.

:func:`install` wraps every entry point in :data:`ENTRY_POINTS` (plus the
broker/HTTP hand-off wrappers) and returns the :class:`Patcher` that
removes them again.  :func:`layer_metrics` turns the recorded spans into
the per-layer figures of the traced run.  Layers are named after the
modules that hold them.
"""

from __future__ import annotations

import functools

from harness import median, mean
from tracer import Patcher, Tracer, attribution, span_wrapper

#: Header the serve_hot client sets so the HTTP handler span can find
#: the client request span it serves.
REQUEST_HEADER = "X-Perfbench-Request"


def _bytes(span, args, kwargs, result):
    span.attrs["bytes"] = int(getattr(result, "nbytes", 0))


def _milp(span, args, kwargs, result):
    builder = args[0]
    span.attrs["vars"] = builder.n_variables
    span.attrs["rows"] = builder.n_constraints
    span.attrs["status"] = result.status


def _validated(span, args, kwargs, result):
    span.attrs["feasible"] = bool(result.feasible)


def _compiled(span, args, kwargs, result):
    span.attrs["compile"] = True


def _dirty(span, args, kwargs, result):
    span.attrs["dirty_rows"] = int(result.get("dirty_rows", 0))


#: (span key, module, qualified name, attribute recorder)
ENTRY_POINTS = [
    ("spaql.parse", "repro.spaql.parser", "parse_query", None),
    ("silp.compile", "repro.silp.compile", "compile_query", None),
    ("core.engine", "repro.core.engine", "SPQEngine.compile", _compiled),
    ("mcdb.realize", "repro.mcdb.scenarios", "ScenarioGenerator.coefficient_matrix", _bytes),
    ("mcdb.realize", "repro.mcdb.scenarios", "ScenarioCache.coefficient_matrix", None),
    # The scenario caches' fill primitive (realizes new columns).
    ("mcdb.realize", "repro.parallel.executor", "ParallelScenarioExecutor.coefficient_columns", _bytes),
    ("mcdb.expectation", "repro.mcdb.expectation", "ExpectationEstimator.expression_mean", None),
    ("service.store", "repro.service.store", "ScenarioStore.coefficient_matrix", None),
    ("service.store", "repro.service.store", "ScenarioStore.prune_fingerprints", None),
    ("core.summaries", "repro.core.summaries", "SummaryBuilder.build", None),
    ("core.csa", "repro.core.csa", "csa_solve", None),
    ("solver.build", "repro.solver.model", "MILPBuilder.to_arrays", None),
    ("solver.solve", "repro.solver.model", "MILPBuilder.solve", _milp),
    ("core.validator", "repro.core.validator", "Validator.validate", _validated),
    ("scale.evaluate", "repro.scale.driver", "scale_sketch_refine_evaluate", None),
    ("scale.partition", "repro.scale.partition", "pilot_statistics", None),
    ("scale.partition", "repro.scale.partition", "partition_labels", None),
    ("db.delta.apply", "repro.db.catalog", "Catalog.apply_delta", _dirty),
    ("service.broker", "repro.service.broker", "QueryBroker.apply_update", None),
]

#: Keys whose self time is reported as ``<key>.self_s`` (and summed
#: against the traced wall clock).
LAYER_KEYS = [
    "spaql.parse",
    "silp.compile",
    "core.engine",
    "mcdb.realize",
    "mcdb.expectation",
    "service.store",
    "core.summaries",
    "core.csa",
    "solver.build",
    "solver.solve",
    "core.validator",
    "scale.evaluate",
    "scale.partition",
    "db.delta.apply",
    "service.broker",
    "service.http",
]

#: Span keys the benchmark's own client opens; their self time is the
#: unattributed remainder.
CLIENT_KEYS = ("client.request",)


def _query_key(query) -> tuple:
    # The broker passes the caller's query object unchanged from
    # submit() to the pool thread's engine.execute(); its identity joins
    # the two sides of the hand-off.
    return ("query", id(query))


def _broker_submit(tracer: Tracer):
    """QueryBroker.submit: a span from submission until the future is done.

    The span is not pushed (it ends on whichever thread completes the
    future); it is linked under the query object so the pool thread's
    engine span adopts it as parent and stamps when the engine started.
    """

    def make(original):
        @functools.wraps(original)
        def submit(broker, query, *args, **kwargs):
            span = tracer.open("service.broker")
            key = _query_key(query)
            tracer.link(key, span)

            def done(_future):
                tracer.drop_link(key, span)
                tracer.close(span)

            try:
                future = original(broker, query, *args, **kwargs)
            except BaseException:
                done(None)
                raise
            future.add_done_callback(done)
            return future

        return submit

    return make


def _engine_parent(tracer: Tracer):
    def parent_of(args, kwargs):
        query = args[1] if len(args) > 1 else kwargs.get("query")
        span = tracer.take_link(_query_key(query))
        if span is not None:
            span.attrs["engine_start"] = tracer.clock()
        return span

    return parent_of


def _http_parent(tracer: Tracer):
    def parent_of(args, kwargs):
        request = args[0].headers.get(REQUEST_HEADER)
        return tracer.take_link(("request", request)) if request else None

    return parent_of


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer entry point; returns the patcher that undoes it."""
    import repro.core.engine  # noqa: F401 - make sure every module is loaded
    import repro.parallel.executor  # noqa: F401
    import repro.scale.driver  # noqa: F401
    import repro.service.http  # noqa: F401

    patcher = Patcher()
    try:
        for key, module, qualname, after in ENTRY_POINTS:
            patcher.wrap(module, qualname, span_wrapper(tracer, key, after=after))
        patcher.wrap(
            "repro.core.engine",
            "SPQEngine.execute",
            span_wrapper(tracer, "core.engine", parent_of=_engine_parent(tracer)),
        )
        patcher.wrap("repro.service.broker", "QueryBroker.submit", _broker_submit(tracer))
        patcher.wrap(
            "repro.service.http",
            "_ServiceHandler.do_POST",
            span_wrapper(tracer, "service.http", parent_of=_http_parent(tracer)),
        )
    except BaseException:
        patcher.restore()
        raise
    return patcher


def layer_metrics(spans: list, counters: dict) -> dict:
    """Per-layer metrics of one traced run.

    ``counters`` carries what the workload read from the program's public
    results and status calls (store stats, broker status, result stats,
    anytime envelopes, delta summaries, client latencies).
    """
    attr = attribution(spans)
    self_s, calls = attr["self_s"], attr["calls"]
    by_id = {span.id: span for span in spans}
    out: dict = {}
    for key in LAYER_KEYS:
        out[f"{key}.calls"] = calls.get(key, 0)
        out[f"{key}.self_s"] = self_s.get(key, 0.0)

    compiles = [s for s in spans if s.attrs.get("compile")]
    misses = sum(
        1
        for s in spans
        if s.key == "silp.compile"
        and s.parent in by_id
        and by_id[s.parent].attrs.get("compile")
    )
    out["core.engine.compile_hit_ratio"] = (
        1.0 - misses / len(compiles) if compiles else 0.0
    )

    realized = [
        s.attrs["bytes"]
        for s in spans
        if "bytes" in s.attrs and "bytes" not in getattr(by_id.get(s.parent), "attrs", {})
    ]
    out["mcdb.realize.mb"] = sum(realized) / 2**20

    store = counters.get("store", {})
    lookups = store.get("hits", 0) + store.get("misses", 0)
    out["service.store.hit_ratio"] = store.get("hits", 0) / lookups if lookups else 0.0
    out["service.store.mb_realized"] = store.get("bytes_realized", 0) / 2**20
    out["service.store.mb_reused"] = store.get("bytes_reused", 0) / 2**20
    out["service.store.spills"] = store.get("spills", 0)
    out["service.store.pruned"] = counters.get("store_pruned", 0)

    out["core.summarysearch.rounds_mean"] = mean(counters.get("rounds", []))
    out["core.summarysearch.scenarios_mean"] = mean(counters.get("scenarios", []))

    solves = [s for s in spans if s.key == "solver.solve" and "status" in s.attrs]
    out["solver.solve.vars_mean"] = mean(s.attrs["vars"] for s in solves)
    out["solver.solve.rows_mean"] = mean(s.attrs["rows"] for s in solves)
    out["solver.solve.limit_ratio"] = (
        sum(s.attrs["status"] in ("feasible", "time_limit") for s in solves) / len(solves)
        if solves
        else 0.0
    )

    validations = [s for s in spans if "feasible" in s.attrs]
    out["core.validator.feasible_ratio"] = (
        sum(s.attrs["feasible"] for s in validations) / len(validations)
        if validations
        else 0.0
    )

    deadline = counters.get("deadline", [])  # (met, overshoot_ms) per deadline query
    out["core.anytime.deadline_met_ratio"] = (
        sum(met for met, _ in deadline) / len(deadline) if deadline else 1.0
    )
    out["core.anytime.overshoot_p50_ms"] = median(o for _, o in deadline)

    repairs = counters.get("delta_repair", [])
    reused = sum(r["partitions_reused"] for r in repairs)
    refined = sum(r["partitions_reused"] + r["partitions_refined"] for r in repairs)
    out["scale.reuse_ratio"] = reused / refined if refined else 0.0
    out["scale.refined_mean"] = mean(counters.get("refined", []))
    out["scale.columnar.peak_resident_mb"] = counters.get("peak_resident_bytes", 0) / 2**20

    out["db.delta.dirty_rows_mean"] = mean(
        s.attrs["dirty_rows"] for s in spans if "dirty_rows" in s.attrs
    )

    brokers = [
        s for s in spans if s.key == "service.broker" and "engine_start" in s.attrs
    ]
    out["service.broker.queue_wait_s"] = mean(
        s.attrs["engine_start"] - s.start for s in brokers
    )
    broker = counters.get("broker", {})
    offered = broker.get("submitted", 0) + broker.get("deduplicated", 0)
    out["service.broker.dedup_ratio"] = (
        broker.get("deduplicated", 0) / offered if offered else 0.0
    )
    out["service.broker.rejected"] = broker.get("rejected", 0)
    out["service.http.overhead_s"] = median(_http_overheads(spans, by_id))

    layered = sum(out[f"{key}.self_s"] for key in LAYER_KEYS)
    # Client requests only: a span outside every request (work the
    # harness did, not the program for a client) then shows up as
    # attribution_error_s instead of inflating the wall clock.
    wall = sum(s.duration for s in spans if s.parent is None and s.key in CLIENT_KEYS)
    out["traced_wall_s"] = wall
    out["unattributed_s"] = sum(self_s.get(key, 0.0) for key in CLIENT_KEYS)
    out["coverage_ratio"] = layered / wall if wall else 0.0
    out["attribution_error_s"] = layered + out["unattributed_s"] - wall
    return out


def _http_overheads(spans, by_id):
    """Client latency minus broker future time, per HTTP request."""
    broker_of = {}
    for span in spans:
        if span.key == "service.broker" and span.parent in by_id:
            broker_of.setdefault(span.parent, span)
    for span in spans:
        if span.key != "service.http" or span.parent not in by_id:
            continue
        broker = broker_of.get(span.id)
        if broker is not None:
            yield by_id[span.parent].duration - broker.duration
