"""The benchmark's workloads.

Each workload is a closed loop: a client sends its next operation only
after the previous one returned.  Traffic is a pure function of the
workload seed (:func:`serve_hot_traffic`, :func:`live_scale_traffic`,
:func:`table3_traffic`) and arrives in *units*: a round of 48 HTTP
requests, one price-update cycle, or a whole pass of the 24 Table 3
queries.  A run of ``--seconds`` replays a fixed number of units, sized
so the run takes about that long on the reference box
(:meth:`Workload.units`): every run of a workload does the same work,
whatever the machine's pace.

* ``serve_hot`` — two HTTP clients against an in-process ``SPQService``
  over one catalog; Zipf-skewed repeats of a small hot set of
  (query, seed) pairs, a quarter of them with an 800 ms deadline.
* ``live_scale`` — one client through ``QueryBroker`` on an on-disk
  portfolio column store whose chunk cache evicts; each cycle applies a
  price-update slab, re-reads portfolio Q1 with SketchRefine, and
  restores the slab.
* ``table3_cold`` — the paper's 24 queries, in-process, each on a fresh
  engine and scenario store.  Not in ``BENCHMARK.json``: one pass takes
  ~45 s and its timings spread past the bounds (see README.md); it is
  kept for attribution runs by hand.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import threading
import time

import numpy as np

from harness import deterministic_violations

#: Dataset sizes of the Table 3 recipes (rows; stocks for portfolio).
BENCH_SCALES = {"galaxy": 800, "portfolio": 120, "tpch": 800}
#: The Table 3 datasets and the engine's Monte Carlo seed.
DATA_SEED = 17
#: Scenario count of the out-of-sample re-validation; the engine
#: validates with 2,000, so these scenarios are never the engine's.
OOS_SCENARIOS = 3_000
#: Added to the workload seed to seed the re-validation stream.
OOS_SEED_OFFSET = 1_000_003

#: Table 3 settings (pinned here so the benchmark measures the same
#: work however the repository's own bench defaults move).
TABLE3_SETTINGS = dict(
    n_validation_scenarios=2_000,
    n_initial_scenarios=20,
    scenario_increment=20,
    max_scenarios=120,
    n_expectation_scenarios=500,
    epsilon=0.5,
    solver_time_limit=15.0,
    time_limit=90.0,
    seed=DATA_SEED,
)
#: live_scale: the out-of-core driver's settings of the delta bench.
LIVE_SETTINGS = dict(
    TABLE3_SETTINGS,
    max_scenarios=60,
    scale_n_partitions=8,
    scale_pilot_scenarios=16,
)

SERVE_HOT_SET = [("galaxy", "Q5"), ("galaxy", "Q7"), ("portfolio", "Q5"), ("tpch", "Q1")]
SERVE_HOT_SEEDS_PER_QUERY = 3
SERVE_HOT_ROUND = 48
SERVE_HOT_ZIPF_EXPONENT = 2.0
SERVE_HOT_DEADLINE_EVERY = 4  # a quarter of the requests carry the deadline
SERVE_HOT_DEADLINE_MS = 800.0
SERVE_HOT_CLIENTS = 2

LIVE_STOCKS = 2_000  # two sell horizons each: 4,000 tuples
LIVE_CHUNK_ROWS = 256  # 16 chunks
LIVE_RESIDENT_BUDGET = 64 * 1024  # bytes; the columns hold ~190 KiB
LIVE_SLAB_ROWS = 20
#: One pass over the recipe is a 45 s run: its reads all repair a
#: relation version no earlier read met.  (A second pass re-reads
#: versions the refine cache holds, in ~1 s instead of ~2 s.)
LIVE_SLABS = 19
LIVE_QUERY = ("portfolio", "Q1")
LIVE_TABLE = "stock_investments"


def _config(**settings):
    from repro import SPQConfig

    return SPQConfig(**settings)


def _spec(workload: str, query: str):
    from repro.workloads import get_query

    return get_query(workload, query)


# --- traffic (pure functions of the workload seed) -------------------------


def table3_traffic(seed: int):
    """Endless passes over the 24 Table 3 queries, each pass reshuffled."""
    queries = [(w, f"Q{i}") for w in ("galaxy", "portfolio", "tpch") for i in range(1, 9)]
    rng = np.random.default_rng([seed, 3])
    while True:
        yield [
            {"kind": "query", "workload": queries[i][0], "query": queries[i][1]}
            for i in rng.permutation(len(queries))
        ]


def serve_hot_pairs() -> list[tuple]:
    """The hot set, hottest first: every query with its first seed, then
    every query with its second seed, and so on.

    The request seeds are a fixed recipe drawn from the data seed: with
    them drawn per workload seed, the hot set's solve cost changed from
    run to run and so did every latency figure.
    """
    rng = np.random.default_rng([DATA_SEED, 7])
    seeds = rng.choice(
        np.arange(1, 100_000), size=(SERVE_HOT_SEEDS_PER_QUERY, len(SERVE_HOT_SET)),
        replace=False,
    )
    return [
        (workload, query, int(seeds[k, j]))
        for k in range(SERVE_HOT_SEEDS_PER_QUERY)
        for j, (workload, query) in enumerate(SERVE_HOT_SET)
    ]


def serve_hot_traffic(seed: int):
    """Endless rounds of one fixed Zipf multiset of requests, reshuffled.

    Every round holds the same requests: the hot pairs in Zipf
    proportion, every fourth copy (in hot-set order) carrying the
    deadline.  Only their order depends on the seed, so each run
    measures the same mix.
    """
    from harness import zipf_counts

    pairs = serve_hot_pairs()
    counts = zipf_counts(len(pairs), SERVE_HOT_ROUND, SERVE_HOT_ZIPF_EXPONENT)
    multiset = [
        {
            "kind": "query",
            "workload": workload,
            "query": query,
            "seed": request_seed,
            "deadline_ms": None,
        }
        for (workload, query, request_seed), count in zip(pairs, counts)
        for _ in range(count)
    ]
    for op in multiset[SERVE_HOT_DEADLINE_EVERY - 1 :: SERVE_HOT_DEADLINE_EVERY]:
        op["deadline_ms"] = SERVE_HOT_DEADLINE_MS
    rng = np.random.default_rng([seed, 11])
    while True:
        yield [dict(multiset[index]) for index in rng.permutation(len(multiset))]


def live_scale_slabs(n_rows: int = 2 * LIVE_STOCKS) -> list[tuple]:
    """The price feed: a fixed recipe of (start row, price factors) slabs.

    Drawn from the data seed, like the datasets: which slab lands where
    moves a re-solve from ~2 s to ~20 s (a slab that makes the sketch
    refine a second partition), so every run replays the same slabs and
    the workload seed only orders them.
    """
    rng = np.random.default_rng([DATA_SEED, 13])
    return [
        (
            int(rng.integers(0, n_rows - LIVE_SLAB_ROWS)),
            np.round(rng.uniform(0.97, 1.03, LIVE_SLAB_ROWS), 4).tolist(),
        )
        for _ in range(LIVE_SLABS)
    ]


def live_scale_traffic(seed: int):
    """The cold read, then endless update cycles over the slab recipe.

    The first unit is the cold read of portfolio Q1.  Every later unit is
    one cycle: a slab is applied, Q1 is re-read, and the slab's prices
    are restored, so every read repairs one slab away from the base
    relation.  The cycles walk the recipe in passes, each pass in a
    seeded order.
    """
    read = {"kind": "query", "workload": LIVE_QUERY[0], "query": LIVE_QUERY[1]}
    slabs = live_scale_slabs()
    rng = np.random.default_rng([seed, 13])
    yield [dict(read)]
    while True:
        for index in rng.permutation(len(slabs)):
            start, factors = slabs[index]
            yield [
                {"kind": "update", "start": start, "factors": factors},
                dict(read),
                {"kind": "update", "start": start, "factors": None},
            ]


# --- outcomes --------------------------------------------------------------


def result_outcome(op: dict, result, latency: float) -> dict:
    """Outcome record of an in-process ``PackageResult``."""
    outcome = dict(op, latency_s=latency, ok=True, errors=[])
    outcome["feasible"] = bool(result.feasible)
    outcome["epsilon_upper"] = result.epsilon_upper
    if result.stats is not None:
        outcome["rounds"] = result.stats.n_iterations
        outcome["scenarios"] = result.stats.final_n_scenarios
    if result.anytime is not None:
        outcome["deadline_met"] = bool(result.anytime.deadline_met)
        outcome["elapsed_ms"] = result.anytime.elapsed_ms
    meta = result.meta or {}
    if "n_refined" in meta:
        outcome["refined"] = meta["n_refined"]
    if meta.get("delta_repair"):
        outcome["delta_repair"] = dict(meta["delta_repair"])
    if result.package is not None:
        outcome["package"] = {
            "multiplicities": {
                str(k): int(v) for k, v in result.package.key_multiplicities().items()
            },
            "rows": list(result.package.to_relation().iter_rows()),
        }
    return outcome


def payload_outcome(op: dict, payload: dict, latency: float) -> dict:
    """Outcome record of a ``POST /query`` response body."""
    outcome = dict(op, latency_s=latency, ok=True, errors=[])
    outcome["feasible"] = bool(payload.get("feasible"))
    outcome["epsilon_upper"] = payload.get("epsilon_upper")
    stats = payload.get("stats") or {}
    if stats:
        outcome["rounds"] = stats.get("n_iterations")
        outcome["scenarios"] = stats.get("final_n_scenarios")
    outcome["deadline_met"] = bool(payload.get("deadline_met", True))
    anytime = payload.get("anytime") or {}
    if "elapsed_ms" in anytime:
        outcome["elapsed_ms"] = anytime["elapsed_ms"]
    package = payload.get("package")
    if package is not None:
        outcome["package"] = {
            "multiplicities": dict(package["multiplicities"]),
            "rows": package["rows"],
        }
    return outcome


def failed_outcome(op: dict, latency: float, error: str) -> dict:
    return dict(op, latency_s=latency, ok=False, errors=[error])


def check_outcomes(outcomes: list) -> None:
    """Answer checks; a failing outcome gets ``ok=False`` and its reasons.

    * the feasibility verdict matches the query's spec (tpch/Q8 must be
      infeasible) — for a deadline request only when it met its deadline,
      since an expired budget may honestly end without an incumbent;
    * every returned package satisfies the template's deterministic
      constraints;
    * a repeat of an identical deadline-free request returns the
      identical package.
    """
    first_package: dict = {}
    for outcome in outcomes:
        if outcome["kind"] != "query" or "feasible" not in outcome:
            continue
        spec = _spec(outcome["workload"], outcome["query"])
        deadline = outcome.get("deadline_ms") is not None
        if outcome["feasible"] != spec.feasible and not (
            deadline and not outcome.get("deadline_met", True)
        ):
            outcome["errors"].append(
                f"{spec.qualified_name}: feasible={outcome['feasible']},"
                f" spec says {spec.feasible}"
            )
        package = outcome.get("package")
        if package is not None and outcome["feasible"]:
            outcome["errors"].extend(
                deterministic_violations(
                    outcome["workload"],
                    package["rows"],
                    list(package["multiplicities"].values()),
                )
            )
        if not deadline and "seed" in outcome:
            identity = (outcome["workload"], outcome["query"], outcome["seed"])
            mults = package["multiplicities"] if package else None
            if identity in first_package and first_package[identity] != mults:
                outcome["errors"].append(f"{identity}: repeat returned another package")
            first_package.setdefault(identity, mults)
        if outcome["errors"]:
            outcome["ok"] = False


def oos_context(catalog, workload: str, query: str, seed: int):
    """Evaluation context of the re-validation: unseen seed and count."""
    from repro.core.context import EvaluationContext
    from repro.silp.compile import compile_query

    config = _config(
        **dict(
            TABLE3_SETTINGS,
            seed=seed + OOS_SEED_OFFSET,
            n_validation_scenarios=OOS_SCENARIOS,
        )
    )
    return EvaluationContext(compile_query(_spec(workload, query).spaql, catalog), config)


def oos_feasible(context, multiplicities: dict) -> bool:
    """Re-validate a package with the public Validator."""
    from repro.core.validator import Validator

    problem = context.problem
    keys = problem.relation.key_values()[problem.active_rows]
    x = np.array([multiplicities.get(str(k), 0) for k in keys], dtype=float)
    if int(x.sum()) != sum(multiplicities.values()):
        raise RuntimeError("package keys not in the relation")
    return bool(Validator(context).validate(x).feasible)


# --- workloads -------------------------------------------------------------


class Workload:
    """One workload: set-up, operations, and what the traced run reads."""

    name = ""
    clients = 1
    #: Seconds one traffic unit takes on the reference box.
    unit_s = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.counters: dict = {}

    def units(self, seconds: float) -> int:
        """Units a run of ``seconds`` replays: a fixed count, not a
        deadline, so a slow spell of the machine lengthens the run
        instead of changing its work."""
        return max(1, round(seconds / self.unit_s))

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def traffic(self):
        raise NotImplementedError

    def execute(self, op: dict, request=None) -> dict:
        raise NotImplementedError

    def validate_oos(self, outcomes: list) -> list[bool]:
        return []

    def finish(self, outcomes: list) -> None:
        """Read the program's counters once the measured phase is over."""
        reads = [o for o in outcomes if o["kind"] == "query"]
        self.counters.update(
            rounds=[o["rounds"] for o in reads if o.get("rounds") is not None],
            scenarios=[o["scenarios"] for o in reads if o.get("scenarios") is not None],
            deadline=[
                (o.get("deadline_met", False), 1000.0 * o["latency_s"] - o["deadline_ms"])
                for o in reads
                if o.get("deadline_ms") is not None
            ],
        )


class Table3Cold(Workload):
    name = "table3_cold"
    unit_s = 45.0

    def setup(self) -> None:
        from repro.db.catalog import Catalog
        from repro.workloads import WORKLOADS

        self.config = _config(**TABLE3_SETTINGS)
        self.catalogs = {}
        for workload in ("galaxy", "portfolio", "tpch"):
            for spec in WORKLOADS[workload]:
                relation, model = spec.build_dataset(BENCH_SCALES[workload], seed=DATA_SEED)
                catalog = Catalog()
                catalog.register(relation, model)
                self.catalogs[(workload, spec.name)] = catalog
        self.counters = {"store": {}}

    def traffic(self):
        return table3_traffic(self.seed)

    def execute(self, op: dict, request=None) -> dict:
        from repro import SPQEngine
        from repro.service import ScenarioStore

        catalog = self.catalogs[(op["workload"], op["query"])]
        spec = _spec(op["workload"], op["query"])
        started = time.perf_counter()
        with ScenarioStore() as store:
            result = SPQEngine(catalog, self.config, store=store).execute(spec.spaql)
            latency = time.perf_counter() - started
            totals = self.counters["store"]
            for name, value in store.stats().as_dict().items():
                totals[name] = totals.get(name, 0) + value
        return result_outcome(op, result, latency)

    def validate_oos(self, outcomes: list) -> list[bool]:
        return [
            oos_feasible(
                oos_context(
                    self.catalogs[(o["workload"], o["query"])], o["workload"], o["query"],
                    self.seed,
                ),
                o["package"]["multiplicities"],
            )
            for o in outcomes
            if o.get("package") and o.get("feasible")
        ]


class ServeHot(Workload):
    name = "serve_hot"
    clients = SERVE_HOT_CLIENTS
    unit_s = 22.0

    #: Which Table 3 recipe provides each table of the shared catalog
    #: (the hot queries are the ones whose own recipe this is).
    DATASETS = {"galaxy": "Q5", "portfolio": "Q5", "tpch": "Q1"}

    def setup(self) -> None:
        from repro.db.catalog import Catalog
        from repro.service import QueryBroker, SPQService

        catalog = Catalog()
        for workload, query in self.DATASETS.items():
            relation, model = _spec(workload, query).build_dataset(
                BENCH_SCALES[workload], seed=DATA_SEED
            )
            catalog.register(relation, model)
        self.catalog = catalog
        self.broker = QueryBroker(
            catalog, config=_config(**TABLE3_SETTINGS), pool_size=SERVE_HOT_CLIENTS,
            backend="thread",
        )
        self.service = SPQService(self.broker, port=0).start_background()
        self.address = self.service.address

    def teardown(self) -> None:
        self.service.shutdown()
        self.broker.close()

    def traffic(self):
        return serve_hot_traffic(self.seed)

    def execute(self, op: dict, request=None) -> dict:
        from layers import REQUEST_HEADER

        body = {"query": _spec(op["workload"], op["query"]).spaql,
                "overrides": {"seed": op["seed"]}}
        if op["deadline_ms"] is not None:
            body["deadline_ms"] = op["deadline_ms"]
        data = json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        if request is not None:
            headers[REQUEST_HEADER] = str(request)
        started = time.perf_counter()
        connection = http.client.HTTPConnection(*self.address, timeout=120)
        try:
            connection.request("POST", "/query", body=data, headers=headers)
            response = connection.getresponse()
            status, raw = response.status, response.read()
        except OSError as error:
            return failed_outcome(op, time.perf_counter() - started, repr(error))
        finally:
            connection.close()
        latency = time.perf_counter() - started
        if status != 200:
            return failed_outcome(op, latency, f"HTTP {status}: {raw[:200]!r}")
        return payload_outcome(op, json.loads(raw), latency)

    def finish(self, outcomes: list) -> None:
        super().finish(outcomes)
        status = self.broker.status()
        self.counters.update(store=status["store"], broker=status)

    def validate_oos(self, outcomes: list) -> list[bool]:
        contexts = {}
        verdicts = {}
        checked = []
        for o in outcomes:
            if not (o.get("package") and o.get("feasible")):
                continue
            query = (o["workload"], o["query"])
            mults = o["package"]["multiplicities"]
            identity = (query, tuple(sorted(mults.items())))
            if identity not in verdicts:
                if query not in contexts:
                    contexts[query] = oos_context(self.catalog, *query, self.seed)
                verdicts[identity] = oos_feasible(contexts[query], mults)
            checked.append(verdicts[identity])
        return checked


class LiveScale(Workload):
    name = "live_scale"
    unit_s = 2.3

    def setup(self) -> None:
        from repro.datasets.portfolio import PortfolioParams, build_portfolio_store
        from repro.db.catalog import Catalog
        from repro.service import QueryBroker

        self.path = os.path.join(self.workdir, f"portfolio-{time.perf_counter_ns()}")
        store, model = build_portfolio_store(
            PortfolioParams(n_stocks=LIVE_STOCKS, seed=DATA_SEED),
            self.path,
            chunk_rows=LIVE_CHUNK_ROWS,
            resident_budget=LIVE_RESIDENT_BUDGET,
        )
        self.catalog = Catalog()
        self.catalog.register(store, model)
        self.broker = QueryBroker(
            self.catalog, config=_config(**LIVE_SETTINGS), pool_size=1, backend="thread"
        )
        self.pruned = 0
        self.overwritten = {}

    def teardown(self) -> None:
        self.broker.close()
        self.catalog.relation(LIVE_TABLE).close()
        shutil.rmtree(self.path, ignore_errors=True)

    def traffic(self):
        return live_scale_traffic(self.seed)

    def _delta(self, op: dict):
        """The op's price-update slab; ``factors=None`` restores the prices
        the previous slab at the same rows overwrote."""
        from repro.db.delta import RelationDelta

        relation = self.catalog.relation(LIVE_TABLE)
        rows = slice(op["start"], op["start"] + LIVE_SLAB_ROWS)
        keys = np.asarray(relation.column("id"))[rows]
        if op["factors"] is None:
            prices = self.overwritten.pop(op["start"])
        else:
            current = np.asarray(relation.column("price"))[rows]
            self.overwritten[op["start"]] = current.copy()
            prices = [round(float(p) * f, 2) for p, f in zip(current, op["factors"])]
        return RelationDelta(
            updates={int(key): {"price": float(price)} for key, price in zip(keys, prices)}
        )

    def execute(self, op: dict, request=None) -> dict:
        if op["kind"] == "update":
            delta = self._delta(op)
            started = time.perf_counter()
            summary = self.broker.apply_update(LIVE_TABLE, delta)
            latency = time.perf_counter() - started
            self.pruned += summary.get("store_entries_pruned", 0)
            outcome = dict(op, latency_s=latency, ok=True, errors=[])
            if summary["dirty_rows"] != LIVE_SLAB_ROWS:
                outcome["ok"] = False
                outcome["errors"].append(f"delta dirtied {summary['dirty_rows']} rows")
            return outcome
        spec = _spec(op["workload"], op["query"])
        started = time.perf_counter()
        result = self.broker.submit(spec.spaql, method="sketchrefine").result()
        return result_outcome(op, result, time.perf_counter() - started)

    def validate_oos(self, outcomes: list) -> list[bool]:
        """Re-validate each read on the relation version it was solved on.

        Runs after the measured phase: every slab is restored before the
        next one lands, so a read's relation is the base relation plus
        the slab applied just before it (none for the cold read).  The
        slab is applied again, the read re-validated, and the slab
        restored.
        """
        checked = []
        slab = None
        for o in outcomes:
            if o["kind"] == "update":
                slab = o if o["factors"] is not None else None
                continue
            if not (o.get("package") and o.get("feasible")):
                continue
            if slab is not None:
                self.broker.apply_update(LIVE_TABLE, self._delta(slab))
            context = oos_context(self.catalog, o["workload"], o["query"], self.seed)
            checked.append(oos_feasible(context, o["package"]["multiplicities"]))
            if slab is not None:
                self.broker.apply_update(LIVE_TABLE, self._delta(dict(slab, factors=None)))
        return checked

    def finish(self, outcomes: list) -> None:
        super().finish(outcomes)
        status = self.broker.status()
        self.counters.update(
            store=status["store"],
            broker=status,
            store_pruned=self.pruned,
            refined=[o["refined"] for o in outcomes if o.get("refined") is not None],
            delta_repair=[o["delta_repair"] for o in outcomes if o.get("delta_repair")],
            peak_resident_bytes=self.catalog.relation(LIVE_TABLE).peak_resident_bytes,
        )


WORKLOADS = {cls.name: cls for cls in (Table3Cold, ServeHot, LiveScale)}


# --- the closed loop -------------------------------------------------------


def closed_loop(workload: Workload, units, n_units: int, tracer=None):
    """Run ``n_units`` traffic ``units`` from ``workload.clients`` client threads.

    Clients share the current unit's operations; a new unit starts only
    once the current one is handed out.  A traced run replays the same
    count, so it repeats the untraced run's work.  An operation that
    raises becomes a failed outcome.  Returns (outcomes in traffic order,
    measured seconds).
    """
    lock = threading.Lock()
    pending: list = []  # (unit index, position, op) not yet handed out
    started = [0]
    results: dict = {}
    failures: list = []
    origin = time.perf_counter()

    def next_op():
        with lock:
            if not pending:
                if started[0] >= n_units:
                    return None
                unit = next(units)
                pending.extend((started[0], i, op) for i, op in enumerate(unit))
                started[0] += 1
            return pending.pop(0)

    def client():
        try:
            while True:
                item = next_op()
                if item is None:
                    return
                index, position, op = item
                request = span = None
                if tracer is not None:
                    request = f"{index}.{position}"
                    span = tracer.enter("client.request", request=request)
                    tracer.link(("request", request), span)
                op_started = time.perf_counter()
                try:
                    outcome = workload.execute(op, request=request)
                except Exception as error:  # counts toward error_ratio
                    outcome = failed_outcome(op, time.perf_counter() - op_started, repr(error))
                finally:
                    if span is not None:
                        tracer.exit(span)
                        tracer.drop_link(("request", request), span)
                with lock:
                    results[(index, position)] = outcome
        except BaseException as error:  # re-raised by the caller
            failures.append(error)

    threads = [
        threading.Thread(target=client, name=f"client-{i}") for i in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - origin
    if failures:
        raise failures[0]
    return [results[key] for key in sorted(results)], elapsed
