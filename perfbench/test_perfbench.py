"""Checks of the benchmark itself, on the tiny ``smoke`` sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402

MODEL_ROUTES = {
    "point",
    "virtual-table",
    "range-aggregate",
    "grouped-model",
    "grouped-hybrid",
    "analytic-aggregate",
}


def _smoke(name: str, seed: int = 3) -> bench.RunResult:
    result, _ = bench.run_workload(name, seed, 0.0, size="smoke")
    return result


@pytest.fixture(scope="module")
def smoke_runs() -> dict[str, bench.RunResult]:
    return {name: _smoke(name) for name in bench.WORKLOADS}


def test_every_answer_checks_out(smoke_runs):
    for name, result in smoke_runs.items():
        assert result.failures == [], name
        assert result.attempted > 0


def test_model_serving_takes_every_model_route(smoke_runs):
    routes = smoke_runs["model_serving"].fingerprint["routes"]
    assert set(routes) == MODEL_ROUTES
    assert "exact-fallback" not in routes


def test_pure_model_routes_read_no_pages(smoke_runs):
    records = smoke_runs["model_serving"].records
    pure = [r for r in records if r.route in MODEL_ROUTES - {"grouped-hybrid"} and not r.verified]
    assert pure and all(r.pages == 0 for r in pure)


def test_exact_analytics_is_exact_and_cached(smoke_runs):
    fingerprint = smoke_runs["exact_analytics"].fingerprint
    assert fingerprint["routes"] == {"exact": fingerprint["queries"]}
    assert fingerprint["plan_cache.misses"] == 0


def test_stream_ingest_refits_and_recovers(smoke_runs):
    result = smoke_runs["stream_ingest"]
    assert result.fingerprint["refits"] >= 1
    assert "recovery_s" in result.extra
    assert result.extra["ingest.rows_per_s"][0] > 0


def test_accuracy_oracle_scores_model_answers(smoke_runs):
    for name in ("model_serving", "stream_ingest"):
        extra = smoke_runs[name].extra
        assert extra["model.rel_err_mean"][2] > 0
        assert 0.0 < extra["model.bound_coverage"][0] <= 1.0


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_counts_repeat_for_a_fixed_seed(smoke_runs, name):
    # Recalibrations depend on timing (and clear the plan cache), so only
    # the seed-determined counts are compared.
    first = smoke_runs[name].fingerprint
    second = _smoke(name).fingerprint
    for key in ("routes", "verifies", "refits", "queries", "ops"):
        assert first[key] == second[key], key


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    for name in bench.WORKLOADS:
        assert set(run.run_one(name, 5, 0.0, trace=False, smoke=True)["metrics"]) == end_to_end
    traced = run.run_one("stream_ingest", 5, 0.0, trace=True, smoke=True)
    assert set(traced["metrics"]) == per_layer
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == units


def test_speed_probe_runs_in_a_helper_process_that_exits():
    probe = bench.SpeedProbe()
    readings = [probe.read() for _ in range(3)]
    probe.close()
    assert all(ms > 0 for ms in readings)
    assert probe.proc.returncode == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "model_serving", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
