"""Self-tests of the benchmark harness (not of the program under test).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import layers  # noqa: E402
import phase  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Patcher, Tracer, attribution, self_times  # noqa: E402


# --- the tail percentile rule ----------------------------------------------


@pytest.mark.parametrize("n", [11, 24, 37, 100, 1000])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    values = list(range(n, 0, -1))  # unsorted on purpose
    record = harness.tail(values)
    assert record["n"] == n
    assert sum(v > record["value"] for v in values) == 10
    # The next order statistic up would leave only nine beyond it.
    assert sum(v > record["value"] + 1 for v in values) == 9
    assert record["percentile"] == pytest.approx(100.0 * (n - 10) / n)


def test_tail_of_a_hundred_is_the_ninetieth_percentile():
    record = harness.tail([float(v) for v in range(1, 101)])
    assert record == {"value": 90.0, "percentile": 90.0, "n": 100, "beyond": 10}


def test_tail_with_too_few_samples_reports_the_maximum_and_no_margin():
    record = harness.tail([3.0, 1.0, 2.0])
    assert record["value"] == 3.0 and record["beyond"] == 0 and record["n"] == 3


# --- self-time arithmetic --------------------------------------------------


class FakeClock:
    """A clock the test advances by hand; shared by all threads."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.enter("client.request", request="r0")  # 0 .. 10
    clock.now = 1.0
    a = tracer.enter("core.engine")  # 1 .. 4
    clock.now = 2.0
    leaf = tracer.enter("solver.solve")  # 2 .. 3
    clock.now = 3.0
    tracer.exit(leaf)
    clock.now = 4.0
    tracer.exit(a)
    clock.now = 5.0
    b = tracer.enter("core.validator")  # 5 .. 9
    clock.now = 9.0
    tracer.exit(b)
    clock.now = 10.0
    tracer.exit(root)

    selfs = self_times(tracer.spans)
    assert selfs[root.id] == pytest.approx(3.0)
    assert selfs[a.id] == pytest.approx(2.0)
    assert selfs[leaf.id] == pytest.approx(1.0)
    assert selfs[b.id] == pytest.approx(4.0)
    assert {s.request for s in tracer.spans} == {"r0"}
    result = attribution(tracer.spans)
    assert result["wall_s"] == pytest.approx(10.0)
    assert result["error_s"] == pytest.approx(0.0)
    assert sum(result["self_s"].values()) == pytest.approx(result["wall_s"])


def test_work_outside_every_client_request_is_an_attribution_error():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root = tracer.enter("client.request", request="r0")  # 0 .. 2
    clock.now = 2.0
    tracer.exit(root)
    stray = tracer.enter("core.validator")  # 2 .. 5, no client request
    clock.now = 5.0
    tracer.exit(stray)
    out = layers.layer_metrics(tracer.spans, {})
    assert out["traced_wall_s"] == pytest.approx(2.0)
    assert out["unattributed_s"] == pytest.approx(2.0)
    assert out["attribution_error_s"] == pytest.approx(3.0)


def test_reentering_a_layer_counts_one_call_and_no_double_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.enter("mcdb.realize")
    clock.now = 1.0
    inner = tracer.enter("mcdb.realize")
    clock.now = 3.0
    tracer.exit(inner)
    clock.now = 4.0
    tracer.exit(outer)
    result = attribution(tracer.spans)
    assert result["calls"]["mcdb.realize"] == 1
    assert result["self_s"]["mcdb.realize"] == pytest.approx(4.0)


def test_child_overrunning_its_parent_is_clipped():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    parent = tracer.open("service.http")
    clock.now = 1.0
    child = tracer.open("service.broker", parent=parent)
    clock.now = 2.0
    tracer.close(parent)
    clock.now = 2.5
    tracer.close(child)
    selfs = self_times(tracer.spans)
    assert selfs[parent.id] == pytest.approx(1.0)
    assert selfs[child.id] == pytest.approx(1.5)


def test_threads_keep_their_own_span_stacks_and_links_cross_threads():
    tracer = Tracer()
    ready = threading.Barrier(2, timeout=10)
    handoff = {}

    def pool_worker():
        ready.wait()
        # This thread has no open span: it adopts the linked parent.
        parent = tracer.take_link("job")
        span = tracer.enter("core.engine", parent=parent)
        inner = tracer.enter("solver.solve")
        tracer.exit(inner)
        tracer.exit(span)
        handoff["engine"] = span

    worker = threading.Thread(target=pool_worker)
    worker.start()
    request = tracer.enter("client.request", request="r1")
    broker = tracer.open("service.broker")
    tracer.link("job", broker)
    ready.wait()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(broker)
    tracer.exit(request)

    engine = handoff["engine"]
    assert engine.parent == broker.id and engine.request == "r1"
    assert engine.thread != request.thread
    solve = next(s for s in tracer.spans if s.key == "solver.solve")
    assert solve.parent == engine.id
    result = attribution(tracer.spans)
    assert result["error_s"] == pytest.approx(0.0, abs=1e-9)


def test_concurrent_threads_do_not_nest_under_each_other():
    tracer = Tracer()
    barrier = threading.Barrier(4, timeout=10)

    def client(i):
        span = tracer.enter("client.request", request=f"r{i}")
        barrier.wait()  # every thread holds an open span at once
        child = tracer.enter("core.engine")
        tracer.exit(child)
        tracer.exit(span)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    by_id = {s.id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.key == "client.request"]
    assert all(s.parent is None for s in roots)
    for child in (s for s in tracer.spans if s.key == "core.engine"):
        assert by_id[child.parent].thread == child.thread
        assert by_id[child.parent].request == child.request


def test_patcher_rebinds_imported_names_and_restores_them():
    import repro.core.csa
    import repro.core.summarysearch

    original = repro.core.csa.csa_solve
    patcher = Patcher()
    patcher.wrap("repro.core.csa", "csa_solve", lambda fn: (lambda *a, **k: fn(*a, **k)))
    try:
        assert repro.core.csa.csa_solve is not original
        assert repro.core.summarysearch.csa_solve is repro.core.csa.csa_solve
    finally:
        patcher.restore()
    assert repro.core.csa.csa_solve is original
    assert repro.core.summarysearch.csa_solve is original


# --- traffic is a function of the workload seed ----------------------------


def _take(traffic, n):
    return json.dumps(list(itertools.islice(traffic, n)), sort_keys=True)


@pytest.mark.parametrize(
    "make", [workloads.table3_traffic, workloads.serve_hot_traffic, workloads.live_scale_traffic]
)
def test_traffic_repeats_for_a_seed_and_differs_across_seeds(make):
    assert _take(make(5), 60) == _take(make(5), 60)
    assert _take(make(5), 60) != _take(make(6), 60)


def test_serve_hot_seed_orders_the_requests():
    def requests(seed):
        (unit,) = itertools.islice(workloads.serve_hot_traffic(seed), 1)
        return [(op["query"], op["seed"], op["deadline_ms"]) for op in unit]

    assert requests(5) == requests(5)
    assert requests(5) != requests(6)
    # The same hot set in another order: the request seeds are a recipe.
    assert sorted(r[:2] for r in requests(5)) == sorted(r[:2] for r in requests(6))
    hot = workloads.serve_hot_pairs()
    assert len({seed for _, _, seed in hot}) == len(hot) == 12


def test_serve_hot_rounds_hold_one_fixed_multiset():
    rounds = list(itertools.islice(workloads.serve_hot_traffic(9), 3))
    assert all(len(r) == workloads.SERVE_HOT_ROUND for r in rounds)
    key = lambda op: (op["workload"], op["query"], op["seed"], op["deadline_ms"] or 0.0)  # noqa: E731
    assert len({tuple(sorted(map(key, r))) for r in rounds}) == 1
    assert len({tuple(map(key, r)) for r in rounds}) == 3  # reshuffled
    deadlined = sum(op["deadline_ms"] is not None for op in rounds[0])
    assert deadlined == workloads.SERVE_HOT_ROUND // 4


def test_live_scale_replays_the_slab_recipe_in_seeded_order():
    def slabs(seed):
        cold, *cycles = itertools.islice(
            workloads.live_scale_traffic(seed), 1 + workloads.LIVE_SLABS
        )
        assert [op["kind"] for op in cold] == ["query"]
        assert all([op["kind"] for op in c] == ["update", "query", "update"] for c in cycles)
        return [(op["start"], op["factors"]) for c in cycles for op in c if op["kind"] == "update"]

    assert slabs(3) == slabs(3)
    assert slabs(3) != slabs(4)
    applied = [s for s in slabs(3) if s[1] is not None]
    assert sorted(applied) == sorted(slabs(4)[i] for i in range(0, 2 * workloads.LIVE_SLABS, 2))
    assert len(applied) == workloads.LIVE_SLABS
    for start, factors in applied:
        assert 0 <= start <= 2 * workloads.LIVE_STOCKS - workloads.LIVE_SLAB_ROWS
        assert len(factors) == workloads.LIVE_SLAB_ROWS
    # Every slab is undone before the next one lands.
    ops = slabs(3)
    assert all(ops[i][0] == ops[i + 1][0] and ops[i + 1][1] is None for i in range(0, len(ops), 2))


def test_table3_passes_cover_all_24_queries():
    for unit in itertools.islice(workloads.table3_traffic(1), 3):
        assert len({(op["workload"], op["query"]) for op in unit}) == 24


def test_zipf_counts():
    counts = harness.zipf_counts(12, 24)
    assert sum(counts) == 24 and min(counts) >= 1
    assert counts == sorted(counts, reverse=True)
    with pytest.raises(ValueError):
        harness.zipf_counts(5, 4)


# --- answer checks and the metric contract ---------------------------------


def test_deterministic_violations():
    galaxy_row = {"Petromag_r": 1.0}
    assert harness.deterministic_violations("galaxy", [galaxy_row] * 5, [1] * 5) == []
    assert harness.deterministic_violations("galaxy", [galaxy_row] * 4, [1] * 4)
    assert harness.deterministic_violations("tpch", [{}] * 2, [2])
    assert harness.deterministic_violations("portfolio", [{"price": 600.0}] * 2, [2])
    assert harness.deterministic_violations("portfolio", [{"price": 400.0}] * 2, [2]) == []


def test_phases_produce_every_metric_benchmark_json_names():
    # run._metrics raises KeyError on a name no phase produces.
    summary = phase._summary([{"kind": "query", "ok": True, "latency_s": 1.0}], 1.0, [])
    untraced = dict(summary["metrics"], setup_s=1.0, peak_rss_mb=1.0)
    traced = dict(untraced, **layers.layer_metrics([], {}), trace_overhead_ratio=0.0)
    assert run._metrics(untraced, "end_to_end")
    assert run._metrics(traced, "per_layer")


class CountingWorkload(workloads.Workload):
    """A two-client workload whose operations only record who ran them."""

    clients = 2

    def traffic(self):
        for unit in itertools.count():
            yield [{"kind": "query", "unit": unit, "position": i} for i in range(5)]

    def execute(self, op, request=None):
        return dict(op, latency_s=0.0, ok=True, errors=[], thread=threading.get_ident())


def test_closed_loop_replays_whole_units_in_traffic_order():
    workload = CountingWorkload(1, "")
    outcomes, elapsed = workloads.closed_loop(workload, workload.traffic(), 3)
    assert elapsed >= 0.0
    assert [(o["unit"], o["position"]) for o in outcomes] == [
        (u, i) for u in range(3) for i in range(5)
    ]


def test_run_length_fixes_the_unit_count_whatever_the_pace():
    assert workloads.ServeHot(1, "").units(45) == 2
    assert workloads.LiveScale(1, "").units(45) == 20
    assert workloads.LiveScale(1, "").units(0.1) == 1


class RaisingWorkload(CountingWorkload):
    def execute(self, op, request=None):
        if op["position"] == 2:
            raise RuntimeError("solver crashed")
        return super().execute(op, request)


def test_closed_loop_counts_an_exception_as_a_failed_operation():
    workload = RaisingWorkload(1, "")
    outcomes, _ = workloads.closed_loop(workload, workload.traffic(), 1)
    assert len(outcomes) == 5
    failed = [o for o in outcomes if not o["ok"]]
    assert [o["position"] for o in failed] == [2]
    assert "solver crashed" in failed[0]["errors"][0]
