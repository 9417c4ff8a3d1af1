"""End-to-end query benchmark of ``LawsDatabase``: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload model_serving --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload exact_analytics --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --smoke          # all three, tiny sizes

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), runs the closed loop for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` runs the same workload code three times on fresh
databases: untraced, with timing wrappers around each layer's public entry
point (see ``tracing.py``), and untraced again; it prints the per-layer
metrics of the traced run together with the tracing overhead.  Each
workload run starts one speed-probe helper process (``probe.py``) and
waits for it to exit before the run returns.  The human-readable report
comes first; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

Exits with code 2, printing no result, when the program's sources are
missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

ROUTES = (
    "point",
    "virtual-table",
    "range-aggregate",
    "grouped-model",
    "grouped-hybrid",
    "analytic-aggregate",
    "exact",
    "exact-fallback",
)
OPERATORS = ("scan", "filter", "project", "aggregate", "join", "sort", "limit")


def layer_metrics(
    store: Any, traced: Any, workload: Any, plain: tuple[Any, Any]
) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced run (``plain``: the untraced runs
    before and after it, same seed and workload code)."""
    from bench import EXACT_SHAPES, StreamIngest, end_to_end

    timed = store.totals("timed")
    setup = store.totals("setup")
    queries = max(len(traced.records), 1)
    wall = traced.timed_s or 1.0

    def entry(name: str) -> dict[str, float]:
        return timed.get(name, {"calls": 0, "self_s": 0.0, "outer_s": 0.0})

    def per_query_ms(*names: str) -> float:
        return sum(entry(n)["self_s"] for n in names) * 1e3 / queries

    def per_call_ms(name: str, key: str = "self_s") -> float:
        e = entry(name)
        return e[key] * 1e3 / e["calls"] if e["calls"] else 0.0

    def share(name: str, key: str = "outer_s") -> float:
        return entry(name)[key] / wall

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    spans = [store.spans[i] for i in store.in_phase("timed")]
    counters = traced.counters
    out: dict[str, tuple[float, str]] = {
        "sql.parse.ms_per_query": (per_query_ms("sql.parse"), "ms"),
        "sql.parse_cache.hit_ratio": (
            ratio(counters["parse_cache.hits"], counters["parse_cache.misses"]), "ratio"
        ),
        "planner.plan.self_ms_per_query": (per_query_ms("planner.plan"), "ms"),
        "planner.plan_cache.hit_ratio": (
            ratio(counters["plan_cache.hits"], counters["plan_cache.misses"]), "ratio"
        ),
        "planner.sketch.self_share": (share("planner.sketch", "self_s"), "ratio"),
    }
    routes = {route: 0 for route in ROUTES}
    for record in traced.records:
        routes[record.route] = routes.get(record.route, 0) + 1
    for route in ROUTES:
        out[f"planner.route_count.{route}"] = (routes[route], "count")
    out["stats.compute.calls"] = (entry("stats")["calls"], "count")
    out["stats.compute.recomputes"] = (entry("stats.recompute")["calls"], "count")
    out["stats.compute.ms_per_query"] = (per_query_ms("stats", "stats.recompute"), "ms")

    approx_self: dict[str, float] = {}
    for index in store.in_phase("timed"):
        span = store.spans[index]
        if span.name == "approx.answer":
            approx_self[span.label] = approx_self.get(span.label, 0.0) + store.self_time(index)
    for route in ROUTES[:6]:
        out[f"approx.{route}.self_share"] = (approx_self.get(route, 0.0) / wall, "ratio")
    model = [r.pages for r in traced.records if r.route not in ("exact", "exact-fallback", "error")]
    exact = [r.pages for r in traced.records if r.route in ("exact", "exact-fallback")]
    out["io.pages_read_per_query.model"] = (sum(model) / len(model) if model else 0.0, "pages")
    out["io.pages_read_per_query.exact"] = (sum(exact) / len(exact) if exact else 0.0, "pages")
    for kind in OPERATORS:
        out[f"exact.op.{kind}.self_share"] = (share(f"exact.op.{kind}", "self_s"), "ratio")
    floors = getattr(workload, "floor_ms", {})
    for shape in EXACT_SHAPES:
        p50 = plain[-1].extra.get(f"exact.{shape}.p50_ms", (0.0,))[0]
        floor = floors.get(shape, 0.0)
        out[f"exact.{shape}.floor_ratio"] = (p50 / floor if floor else 0.0, "ratio")

    fanouts = [s for s in spans if s.name == "parallel.try_execute"]
    prunes = [s.label for s in spans if s.name == "parallel.prune" and s.label]
    kept, considered = sum(k for k, _ in prunes), sum(n for _, n in prunes)
    out["parallel.fanouts"] = (sum(1 for s in fanouts if s.label), "count")
    out["parallel.fallthroughs"] = (sum(1 for s in fanouts if not s.label), "count")
    out["parallel.tasks"] = (
        sum(s.label or 0 for s in spans if s.name == "parallel.run_tasks"), "count"
    )
    out["parallel.run_tasks.share"] = (share("parallel.run_tasks"), "ratio")
    out["parallel.pruning.kept_ratio"] = (kept / considered if considered else 1.0, "ratio")

    out["verify.calls"] = (entry("verify")["calls"], "count")
    out["verify.share"] = (share("verify"), "ratio")

    out["obs.flight.on_query.ms"] = (per_call_ms("obs.flight.on_query"), "ms")
    out["obs.flight.flush.calls"] = (entry("obs.flight.flush")["calls"], "count")
    out["obs.flight.flush.ms"] = (per_call_ms("obs.flight.flush", "outer_s"), "ms")
    out["obs.calibration.observe.ms"] = (per_call_ms("obs.calibration.observe"), "ms")
    out["obs.calibration.recalibrations"] = (counters["recalibrations"], "count")
    out["obs.slo.observe.ms"] = (per_call_ms("obs.slo.observe"), "ms")
    out["obs.slowlog.observe.ms"] = (per_call_ms("obs.slowlog.observe"), "ms")
    out["query.unattributed.ms_per_query"] = (per_query_ms("query"), "ms")

    out["ingest.submit.share"] = (share("ingest.submit"), "ratio")
    out["lifecycle.on_data_changed.share"] = (share("lifecycle.on_data_changed"), "ratio")
    out["drift.on_batch.share"] = (share("drift.on_batch"), "ratio")
    out["maintain.share"] = (share("maintain"), "ratio")
    out["maintain.refits"] = (workload.refits(), "count")

    stream = isinstance(workload, StreamIngest)
    user_bytes = workload.acked * 4 * 8 if stream else 0
    out["wal.log_append.share"] = (share("wal.log_append"), "ratio")
    out["wal.bytes_per_user_byte"] = (
        workload.wal_growth / user_bytes if user_bytes else 0.0, "ratio"
    )
    out["checkpoint.share"] = (share("checkpoint"), "ratio")
    out["checkpoint.bytes_written"] = (workload.checkpoint_bytes if stream else 0, "bytes")
    out["recovery.replayed_rows"] = (workload.replayed_rows if stream else 0, "count")

    setup_s = traced.setup_s[-1] if traced.setup_s else 1.0
    fit = setup.get("fit", {"outer_s": 0.0})["outer_s"]
    out["fit.setup_share"] = (fit / setup_s, "ratio")
    refit = sum(
        s.duration
        for i, s in ((i, store.spans[i]) for i in store.in_phase("timed"))
        if s.name == "harvester.fit" and store.has_ancestor(i, "maintain")
    )
    out["harvester.refit.share"] = (refit / wall, "ratio")

    # Overhead: traced over untraced, same seed, same workload code.
    plain_p50 = statistics.mean(
        end_to_end(result)["shape_p50_gmean_ms_at_ref_speed"][0] for result in plain
    )
    traced_p50 = end_to_end(traced)["shape_p50_gmean_ms_at_ref_speed"][0]
    out["trace.overhead_frac"] = (traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0, "ratio")
    return out


def _print_table(title: str, metrics: dict[str, tuple]) -> None:
    print(title)
    for name, item in metrics.items():
        value, unit = item[0], item[1]
        n = f"  n={item[2]}" if len(item) > 2 else ""
        print(f"  {name:40s} {value:14.6g} {unit}{n}")


def _report(result: Any) -> None:
    print(
        f"workload {result.workload}  seed {result.seed}  size {result.size}  "
        f"timed {result.timed_s:.2f} s  ops {result.ops}  queries {len(result.records)}  "
        f"setups {', '.join(f'{s:.3f}' for s in result.setup_s)} s"
    )
    from bench import raw_figures

    _print_table("workload figures:", {**raw_figures(result), **result.extra})
    print("fingerprint: " + json.dumps(result.fingerprint, sort_keys=True))
    print(f"failures: {len(result.failures)}")
    for failure in result.failures:
        print(f"  FAIL {failure}")


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict[str, Any]:
    from bench import end_to_end, run_workload
    from tracing import SpanStore, install_layer_spans

    size = "smoke" if smoke else "full"
    plain, _ = run_workload(workload, seed, seconds, size, setup_reps=1 if trace else None)
    _report(plain)
    attempted, failed = plain.attempted, len(plain.failures)
    if not trace:
        metrics = end_to_end(plain)
        _print_table("end-to-end:", metrics)
    else:
        store = SpanStore()
        install_layer_spans(store)
        try:
            traced, traced_workload = run_workload(
                workload, seed, seconds, size, spans=store, setup_reps=1
            )
        finally:
            store.uninstall()
        print("-- traced run --")
        _report(traced)
        # A second untraced run after the traced one: the first run in a
        # process is the slowest, so the overhead is taken against both.
        after, _ = run_workload(workload, seed, seconds, size, setup_reps=1)
        print("-- untraced run, again --")
        _report(after)
        for result in (traced, after):
            attempted += result.attempted
            failed += len(result.failures)
        layer = layer_metrics(store, traced, traced_workload, (plain, after))
        _print_table("per-layer:", layer)
        metrics = layer
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": item[0], "unit": item[1]} for name, item in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="model_serving | exact_analytics | stream_ingest | all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny tables, fingerprint prefix only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from bench import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    seconds = 0.0 if args.smoke else args.seconds
    results = {name: run_one(name, args.seed, seconds, bool(args.trace), args.smoke) for name in names}
    if len(results) == 1:
        payload = results[names[0]]
    else:
        payload = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
