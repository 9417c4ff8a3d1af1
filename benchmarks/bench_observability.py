"""Observability overhead benchmarks.

Three measurements, all in-run (robust to machine differences, like the
other bench suites):

* ``exact_hotpath_instrumented`` — the plain ``Database.sql`` grouped
  aggregation hot path (the ``BENCH_hotpaths`` group-by shape) with the
  executor's tracer hook in place but no tracer attached, against the same
  suite with the hook bypassed.  ``overhead_fraction`` is the cost the
  instrumentation adds when observability is off — the acceptance budget
  is ≤3% (gated at 5% by ``check_hotpath_regression.py``).
* ``laws_query_obs_off`` — the full ``LawsDatabase.query`` suite with
  observability disabled (the steady-state serving path the planner bench
  also gates), against a row-at-a-time Python evaluation of the same six
  queries over the same rows.  That reference is frozen seed-style code,
  so the ratio moves only with the serving path, not with the speed of
  the exact engine the path falls back to.
* ``laws_query_obs_on`` — the same suite with full telemetry live (span
  trees, per-operator tracing, metrics, compliance accounting), reported
  as ``instrumented_overhead_fraction`` over the obs-off run.  Tracing is
  opt-in, so this is informational, not gated at the 5% budget.
* ``flight_calibration_obs_off`` — the obs-off suite with the disabled
  flight-recorder / calibration / SLO hooks in the planner's accounting
  path, against the same suite with those components unwired entirely
  (the pre-flight-recorder obs-off path).  The hooks are enabled-flag
  checks when observability is off, so ``overhead_fraction`` is the
  telemetry subsystem's cost on the hot path nobody opted into —
  acceptance is ≤3%, gated here.

Also writes ``BENCH_obs_metrics.snapshot.json`` — the metrics snapshot of
the obs-on run — and, with ``--ops-report-output``, the obs-on run's full
``ops_report()`` document; CI uploads both as artifacts.

Usage::

    python benchmarks/bench_observability.py [--rows 50000] [--output BENCH_obs.json]
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
from repro.db import Database  # noqa: E402
from repro.db.sql.executor import SQLExecutor  # noqa: E402

ROUNDS = 5

#: Same planner-visible shapes as benchmarks/bench_planner.py.
SUITE = [
    "SELECT g, avg(y) AS m, count(*) AS n FROM t GROUP BY g ORDER BY g",
    "SELECT avg(y) AS m FROM t WHERE x BETWEEN 1 AND 2",
    "SELECT y FROM t WHERE g = 3 AND x = 1",
    "SELECT y FROM t WHERE g = 2 ORDER BY y",
    "SELECT count(*) AS n FROM t WHERE x >= 1",
    "SELECT g, min(y) AS lo, max(y) AS hi FROM t GROUP BY g",
]

#: The BENCH_hotpaths group-by shape, run through the plain Database.
EXACT_SUITE = [
    "SELECT g, avg(y) AS m, count(*) AS n FROM t GROUP BY g ORDER BY g",
    "SELECT g, min(y) AS lo, max(y) AS hi FROM t GROUP BY g",
]


def _data(rows: int, seed: int = 42) -> dict:
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 8, rows)
    x = rng.integers(0, 4, rows).astype(np.float64)
    y = 1.0 + 2.0 * g + 0.7 * x + rng.normal(0.0, 0.1, rows)
    return {
        "g": [int(v) for v in g],
        "x": [float(v) for v in x],
        "y": [float(v) for v in y],
    }


def _row_at_a_time_suite(data: dict) -> list:
    """The six SUITE answers from a per-row Python loop over ``data``."""
    groups: dict[int, list[float]] = {}
    between: list[float] = []
    point: list[float] = []
    enumerated: list[float] = []
    counted = 0
    for g, x, y in zip(data["g"], data["x"], data["y"]):
        groups.setdefault(g, []).append(y)
        if 1.0 <= x <= 2.0:
            between.append(y)
        if g == 3 and x == 1.0:
            point.append(y)
        if g == 2:
            enumerated.append(y)
        if x >= 1.0:
            counted += 1
    keys = sorted(groups)
    return [
        [(g, sum(groups[g]) / len(groups[g]), len(groups[g])) for g in keys],
        sum(between) / len(between),
        point,
        sorted(enumerated),
        counted,
        [(g, min(groups[g]), max(groups[g])) for g in groups],
    ]


def _build_laws_db(rows: int, observability: bool) -> LawsDatabase:
    db = LawsDatabase(verify_sample_fraction=0.0, observability=observability)
    db.load_dict("t", _data(rows))
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


def _bench_exact_hotpath(rows: int) -> dict:
    """Instrumentation-off overhead on the plain-Database hot path."""
    db = Database()
    db.load_dict("t", _data(rows))

    def _suite():
        for sql in EXACT_SUITE:
            db.sql(sql)

    def _bypass_run_root(self, planned):
        return planned.root.execute()

    # Interleave the two modes: a single pass is ~ms-scale, so measuring
    # them back-to-back in alternating rounds keeps cache/frequency noise
    # common-mode instead of landing on one side of the ratio.
    original = SQLExecutor._run_root
    instrumented_seconds = float("inf")
    bypassed_seconds = float("inf")
    _suite()  # warm the plan cache
    try:
        for _ in range(ROUNDS * 3):
            started = perf_counter()
            _suite()
            instrumented_seconds = min(instrumented_seconds, perf_counter() - started)
            SQLExecutor._run_root = _bypass_run_root
            started = perf_counter()
            _suite()
            bypassed_seconds = min(bypassed_seconds, perf_counter() - started)
            SQLExecutor._run_root = original
    finally:
        SQLExecutor._run_root = original

    queries = len(EXACT_SUITE)
    overhead = instrumented_seconds / bypassed_seconds - 1.0 if bypassed_seconds > 0 else 0.0
    return {
        "description": "plain Database group-by hot path with the executor tracer hook in place (no tracer attached)",
        "queries": queries,
        "seconds": instrumented_seconds,
        "queries_per_second": queries / instrumented_seconds,
        "reference": "same suite with the tracer hook bypassed (pre-instrumentation path)",
        "reference_seconds": bypassed_seconds,
        "speedup_vs_seed": bypassed_seconds / instrumented_seconds,
        "overhead_fraction": max(0.0, overhead),
        "overhead_note": "instrumentation-off cost on BENCH_hotpaths paths (acceptance: 0.03, gate: 0.05)",
    }


def _bench_laws_query(rows: int) -> tuple[dict, dict, str, dict]:
    contract = AccuracyContract(max_relative_error=0.25)

    db_off = _build_laws_db(rows, observability=False)

    def _suite_off():
        for sql in SUITE:
            db_off.query(sql, contract)

    data = _data(rows)
    reference_seconds = _best(lambda: _row_at_a_time_suite(data))
    _suite_off()
    off_seconds = _best(_suite_off)

    db_on = _build_laws_db(rows, observability=True)

    def _suite_on():
        for sql in SUITE:
            db_on.query(sql, contract)

    _suite_on()
    on_seconds = _best(_suite_on)

    queries = len(SUITE)
    off_entry = {
        "description": "LawsDatabase.query suite, observability disabled (steady-state serving path)",
        "queries": queries,
        "seconds": off_seconds,
        "queries_per_second": queries / off_seconds,
        "reference": "row-at-a-time python evaluation of the same suite (seed-style)",
        "reference_seconds": reference_seconds,
        "speedup_vs_seed": reference_seconds / off_seconds,
    }
    on_entry = {
        "description": "LawsDatabase.query suite with full telemetry live (traces, metrics, compliance)",
        "queries": queries,
        "seconds": on_seconds,
        "queries_per_second": queries / on_seconds,
        "reference": "the same suite with observability disabled",
        "reference_seconds": off_seconds,
        "speedup_vs_seed": off_seconds / on_seconds,
        "instrumented_overhead_fraction": on_seconds / off_seconds - 1.0,
        "overhead_note": "opt-in tracing cost over the obs-off path (informational)",
    }
    # Flush self-telemetry so the ops-report artifact shows the flight
    # recorder's warehouse populated, not just pending counters.
    db_on.flush_telemetry()
    return off_entry, on_entry, db_on.metrics_json(), db_on.ops_report()


def _bench_flight_calibration(rows: int) -> dict:
    """Cost of the (disabled) telemetry hooks on the obs-off serving path."""
    contract = AccuracyContract(max_relative_error=0.25)
    db = _build_laws_db(rows, observability=False)

    def _suite():
        for sql in SUITE:
            db.query(sql, contract)

    _suite()  # warm plan caches
    hooked = db.obs.calibration, db.obs.slo, db.obs.flight
    hooked_seconds = float("inf")
    unwired_seconds = float("inf")
    # Interleaved rounds, same rationale as _bench_exact_hotpath: keep
    # cache/frequency noise common-mode across the two sides of the ratio.
    try:
        for _ in range(ROUNDS * 3):
            db.obs.calibration, db.obs.slo, db.obs.flight = hooked
            started = perf_counter()
            _suite()
            hooked_seconds = min(hooked_seconds, perf_counter() - started)
            db.obs.calibration = db.obs.slo = db.obs.flight = None
            started = perf_counter()
            _suite()
            unwired_seconds = min(unwired_seconds, perf_counter() - started)
    finally:
        db.obs.calibration, db.obs.slo, db.obs.flight = hooked

    queries = len(SUITE)
    overhead = hooked_seconds / unwired_seconds - 1.0 if unwired_seconds > 0 else 0.0
    return {
        "description": "obs-off LawsDatabase.query suite with disabled flight/calibration/SLO hooks in the accounting path",
        "queries": queries,
        "seconds": hooked_seconds,
        "queries_per_second": queries / hooked_seconds,
        "reference": "same suite with flight/calibration/SLO unwired entirely",
        "reference_seconds": unwired_seconds,
        "speedup_vs_seed": unwired_seconds / hooked_seconds,
        "overhead_fraction": max(0.0, overhead),
        "overhead_note": "flight-recorder + calibration cost on the obs-off hot path (acceptance: 0.03, gated)",
    }


def run(rows: int) -> tuple[dict, str, dict]:
    exact_entry = _bench_exact_hotpath(rows)
    off_entry, on_entry, metrics_snapshot, ops_report = _bench_laws_query(rows)
    flight_entry = _bench_flight_calibration(rows)
    report = {
        "benchmark": "bench_observability",
        "generated_by": "benchmarks/bench_observability.py",
        "schema_version": 1,
        "rows": rows,
        "rounds": ROUNDS,
        "hot_paths": {
            "exact_hotpath_instrumented": exact_entry,
            "laws_query_obs_off": off_entry,
            "laws_query_obs_on": on_entry,
            "flight_calibration_obs_off": flight_entry,
        },
    }
    return report, metrics_snapshot, ops_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=50_000)
    parser.add_argument("--output", type=Path, default=Path("BENCH_obs.json"))
    parser.add_argument(
        "--metrics-output", type=Path, default=Path("BENCH_obs_metrics.snapshot.json")
    )
    parser.add_argument(
        "--ops-report-output",
        type=Path,
        default=None,
        help="also write the obs-on run's ops_report() JSON (CI artifact)",
    )
    args = parser.parse_args()
    report, metrics_snapshot, ops_report = run(args.rows)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    args.metrics_output.write_text(metrics_snapshot + "\n")
    if args.ops_report_output is not None:
        args.ops_report_output.write_text(json.dumps(ops_report, indent=2) + "\n")

    exact = report["hot_paths"]["exact_hotpath_instrumented"]
    on = report["hot_paths"]["laws_query_obs_on"]
    flight = report["hot_paths"]["flight_calibration_obs_off"]
    print(
        f"instrumentation-off overhead: {exact['overhead_fraction']:.2%} "
        f"(acceptance 3%); flight+calibration obs-off overhead: "
        f"{flight['overhead_fraction']:.2%} (acceptance 3%); telemetry-on cost: "
        f"{on['instrumented_overhead_fraction']:+.2%} over obs-off"
    )
    failed = False
    if exact["overhead_fraction"] > 0.03:
        print("FAIL: instrumentation-off overhead exceeds 3% on the exact hot path")
        failed = True
    if flight["overhead_fraction"] > 0.03:
        print("FAIL: flight/calibration hooks exceed 3% on the obs-off serving path")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
