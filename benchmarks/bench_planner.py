"""Routing-overhead benchmarks for the unified accuracy-aware planner.

The planner sits in front of every query, so its cost must be noise:
the acceptance bar is **planning overhead ≤ 5% of exact execution time**
over the bench suite (warm plan cache — the steady-state serving path).
The bench also measures routing-decision throughput and the plan cache's
speedup over cold planning.  Cold routing is judged against the seed's own
per-query preparation — the exact engine parsing and planning the suite
with its caches cleared — rather than against exact execution, so a faster
exact engine does not read as slower routing.  It emits ``BENCH_planner.json`` in the same
shape as ``BENCH_hotpaths.json`` so
``benchmarks/check_hotpath_regression.py`` gates both files.

Usage::

    python benchmarks/bench_planner.py [--rows 50000] [--output BENCH_planner.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import AccuracyContract, LawsDatabase  # noqa: E402

ROUNDS = 5

#: The bench suite: one query per planner-visible shape (grouped model
#: serving, range aggregation, point lookup, enumeration, and two
#: exact-only shapes the sketch must cheaply decline).
SUITE = [
    "SELECT g, avg(y) AS m, count(*) AS n FROM t GROUP BY g ORDER BY g",
    "SELECT avg(y) AS m FROM t WHERE x BETWEEN 1 AND 2",
    "SELECT y FROM t WHERE g = 3 AND x = 1",
    "SELECT y FROM t WHERE g = 2 ORDER BY y",
    "SELECT count(*) AS n FROM t WHERE x >= 1",
    "SELECT g, min(y) AS lo, max(y) AS hi FROM t GROUP BY g",
]


def _build_db(rows: int, seed: int = 42) -> LawsDatabase:
    rng = np.random.default_rng(seed)
    # Observability off: this bench gates the *uninstrumented* planning
    # path; benchmarks/bench_observability.py owns the instrumented one.
    db = LawsDatabase(verify_sample_fraction=0.0, observability=False)
    g = rng.integers(0, 8, rows)
    x = rng.integers(0, 4, rows).astype(np.float64)
    y = 1.0 + 2.0 * g + 0.7 * x + rng.normal(0.0, 0.1, rows)
    db.load_dict(
        "t",
        {"g": [int(v) for v in g], "x": [float(v) for v in x], "y": [float(v) for v in y]},
    )
    report = db.fit("t", "y ~ linear(x)", group_by="g")
    assert report.accepted, "bench model must be accepted"
    return db


def _best(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = perf_counter()
        fn()
        best = min(best, perf_counter() - started)
    return best


def run(rows: int) -> dict:
    db = _build_db(rows)
    contract = AccuracyContract(max_relative_error=0.25)
    planner = db.planner

    # Exact execution time of the suite (plan-cached steady state).
    for sql in SUITE:
        db.database.sql(sql)
    exact_seconds = _best(lambda: [db.database.sql(sql) for sql in SUITE])

    # Warm planning: the steady-state overhead every query pays.
    for sql in SUITE:
        planner.plan(sql, contract)
    warm_seconds = _best(lambda: [planner.plan(sql, contract) for sql in SUITE])

    # Cold planning: cache cleared before every pass (the reference the
    # plan cache is judged against, like the seed re-parse/re-plan path).
    def _cold_pass():
        planner._plan_cache.clear()
        for sql in SUITE:
            planner.plan(sql, contract)

    cold_seconds = _best(_cold_pass)

    # The seed's per-query preparation before any routing existed: parse
    # and physical plan through the exact engine, its caches cleared.
    def _exact_plan_pass():
        db.database.clear_plan_cache()
        for sql in SUITE:
            db.database.explain(sql)

    exact_plan_seconds = _best(_exact_plan_pass)

    overhead_fraction = warm_seconds / exact_seconds if exact_seconds > 0 else float("inf")
    queries = len(SUITE)
    report = {
        "benchmark": "bench_planner",
        "generated_by": "benchmarks/bench_planner.py",
        "schema_version": 1,
        "rows": rows,
        "rounds": ROUNDS,
        "suite_queries": queries,
        "hot_paths": {
            "planner_routing": {
                "description": "warm (plan-cached) unified-planner routing decision",
                "queries": queries,
                "seconds": warm_seconds,
                "queries_per_second": queries / warm_seconds,
                "reference": "cold planning (plan cache cleared per pass)",
                "reference_seconds": cold_seconds,
                "speedup_vs_seed": cold_seconds / warm_seconds,
                "exact_suite_seconds": exact_seconds,
                "overhead_fraction": overhead_fraction,
                "overhead_note": "warm planning time / exact execution time over the suite (budget: 0.05)",
            },
            "planner_cold_routing": {
                "description": "cold routing decision (sketch + cost + choice, no cache)",
                "queries": queries,
                "seconds": cold_seconds,
                "queries_per_second": queries / cold_seconds,
                "reference": "exact parse + physical plan of the same suite (executor caches cleared per pass)",
                "reference_seconds": exact_plan_seconds,
                "speedup_vs_seed": exact_plan_seconds / cold_seconds,
            },
        },
    }
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=50_000)
    parser.add_argument("--output", type=Path, default=Path("BENCH_planner.json"))
    args = parser.parse_args()
    report = run(args.rows)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    entry = report["hot_paths"]["planner_routing"]
    print(
        f"planner routing: {entry['queries_per_second']:,.0f} decisions/s warm, "
        f"overhead {entry['overhead_fraction']:.2%} of exact "
        f"(budget 5%), cache speedup {entry['speedup_vs_seed']:.1f}x"
    )
    if entry["overhead_fraction"] > 0.05:
        print("FAIL: planner overhead exceeds 5% of exact execution time")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
