"""Routing decisions of the unified accuracy-aware planner.

Covers: auto mode picking the model path when the contract's error budget
admits it and falling back to exact otherwise; pinned exact/approx modes;
the deadline tiebreak; every query class the two old entry points handled
flowing through ``query()``; the planner plan cache; and the deprecation
shims delegating faithfully.
"""

import numpy as np
import pytest

from repro import AccuracyContract, LawsDatabase
from repro.core.planner import CostModel, OperatorCosts
from repro.errors import ApproximationError, ReproError


def _make_db(rows, **kwargs):
    db = LawsDatabase(**kwargs)
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    return db


def _linear_rows(rng, groups=5, xs=4, reps=8, sigma=0.2):
    rows = []
    for g in range(groups):
        for x in range(xs):
            for _ in range(reps):
                rows.append((g, float(x), 1.0 + g + 0.6 * x + rng.normal(0, sigma)))
    return rows


@pytest.fixture(scope="module")
def planned_db():
    rng = np.random.default_rng(7)
    db = _make_db(_linear_rows(rng), verify_sample_fraction=0.0)
    report = db.fit("t", "y ~ linear(x)", group_by="g")
    assert report.accepted
    return db


class TestContract:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ReproError):
            AccuracyContract(mode="fast")

    def test_invalid_budget_rejected(self):
        with pytest.raises(ReproError):
            AccuracyContract(max_relative_error=-0.1)
        with pytest.raises(ReproError):
            AccuracyContract(deadline_ms=0)
        with pytest.raises(ReproError):
            AccuracyContract(verify_fraction=1.5)

    def test_describe_mentions_budget(self):
        text = AccuracyContract(max_relative_error=0.05, deadline_ms=10).describe()
        assert "max_relative_error=0.05" in text
        assert "deadline_ms=10" in text


class TestAutoRouting:
    def test_budget_admits_model_path(self, planned_db):
        answer = planned_db.query(
            "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
            AccuracyContract(max_relative_error=0.5),
        )
        assert answer.plan.is_model_route
        assert answer.route_taken in ("grouped-model", "grouped-hybrid")
        assert not answer.is_exact
        assert answer.approx is not None and answer.approx.used_model_ids

    def test_tight_budget_falls_back_to_exact(self, planned_db):
        answer = planned_db.query(
            "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
            AccuracyContract(max_relative_error=1e-12),
        )
        assert not answer.plan.is_model_route
        assert answer.route_taken == "exact"
        assert answer.is_exact
        assert "exceeds budget" in answer.plan.reason

    def test_no_budget_routes_by_cost(self, planned_db):
        # Without an error budget the decision is purely cost-based: on a
        # 160-row table the fixed model-evaluation cost loses to the scan...
        sql = "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g"
        answer = planned_db.query(sql)
        assert not answer.plan.is_model_route
        assert "cheaper" in answer.plan.reason
        # ...but when scanning is expensive (big table / slow device), the
        # same query cost-routes to the model path.
        slow = CostModel(OperatorCosts(scan_seconds_per_row=1.0))
        original = planned_db.planner.cost_model
        planned_db.planner.cost_model = slow
        planned_db.planner._plan_cache.clear()
        try:
            answer = planned_db.query(sql)
            assert answer.plan.is_model_route
        finally:
            planned_db.planner.cost_model = original
            planned_db.planner._plan_cache.clear()

    def test_no_model_no_route(self, planned_db):
        # The z column has no captured model; auto mode must go exact.
        answer = planned_db.query("SELECT count(*) AS n FROM t WHERE g = 1")
        assert answer.route_taken == "exact"
        assert answer.plan.reason == "no model route applies"

    def test_exact_result_matches_database(self, planned_db):
        via_planner = planned_db.query(
            "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
            AccuracyContract(mode="exact"),
        )
        direct = planned_db.database.sql("SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g")
        assert via_planner.rows() == direct.rows()

    def test_deadline_prefers_model_route(self, planned_db):
        # A cost model in which exact execution is predictably slow makes
        # the deadline decide even without an error budget.
        slow = CostModel(OperatorCosts(scan_seconds_per_row=1.0))
        original = planned_db.planner.cost_model
        planned_db.planner.cost_model = slow
        try:
            answer = planned_db.query(
                "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
                AccuracyContract(deadline_ms=5.0),
            )
            assert answer.plan.is_model_route
            assert "deadline" in answer.plan.reason
        finally:
            planned_db.planner.cost_model = original


class TestPinnedModes:
    def test_exact_mode_pins_exact(self, planned_db):
        answer = planned_db.query(
            "SELECT g, avg(y) AS m FROM t GROUP BY g",
            AccuracyContract(mode="exact"),
        )
        assert answer.is_exact and answer.route_taken == "exact"
        assert answer.query_result is not None

    def test_approx_mode_pins_model(self, planned_db):
        answer = planned_db.query(
            "SELECT g, avg(y) AS m FROM t GROUP BY g",
            AccuracyContract(mode="approx"),
        )
        assert not answer.is_exact
        assert answer.route_taken in ("grouped-model", "grouped-hybrid")

    def test_approx_mode_without_fallback_raises(self, planned_db):
        with pytest.raises(ApproximationError):
            planned_db.query(
                "SELECT t.y FROM t JOIN t ON g = g",
                AccuracyContract(mode="approx", allow_exact_fallback=False),
            )


class TestQueryClasses:
    """query() answers every class the two old entry points handled."""

    def test_point(self, planned_db):
        answer = planned_db.query(
            "SELECT y FROM t WHERE g = 2 AND x = 1",
            AccuracyContract(mode="approx"),
        )
        assert answer.route_taken == "point"
        assert answer.error_estimate("y") is not None

    def test_range_aggregate(self, planned_db):
        answer = planned_db.query(
            "SELECT avg(y) AS m FROM t WHERE x BETWEEN 1 AND 2",
            AccuracyContract(mode="approx"),
        )
        assert answer.route_taken == "range-aggregate"

    def test_virtual_table(self, planned_db):
        answer = planned_db.query(
            "SELECT y FROM t WHERE g = 1 ORDER BY y",
            AccuracyContract(mode="approx"),
        )
        assert answer.route_taken == "virtual-table"

    def test_grouped(self, planned_db):
        answer = planned_db.query(
            "SELECT g, sum(y) AS s FROM t GROUP BY g",
            AccuracyContract(mode="approx"),
        )
        assert answer.route_taken in ("grouped-model", "grouped-hybrid")

    def test_exact_fallback(self, planned_db):
        answer = planned_db.query("SELECT * FROM t", AccuracyContract(mode="approx"))
        assert answer.route_taken == "exact-fallback"
        assert answer.is_exact

    def test_analytic_aggregate(self):
        rng = np.random.default_rng(11)
        db = LawsDatabase(verify_sample_fraction=0.0)
        x = rng.uniform(0, 10, 400)
        db.load_dict("u", {"x": x.tolist(), "y": (2.0 * x + 5.0 + rng.normal(0, 0.1, 400)).tolist()})
        assert db.fit("u", "y ~ linear(x)").accepted
        answer = db.query("SELECT avg(y) AS m FROM u", AccuracyContract(mode="approx"))
        assert answer.route_taken == "analytic-aggregate"

    def test_ddl_and_dml(self, planned_db):
        create = planned_db.query("CREATE TABLE scratch (a INT64, b FLOAT64)")
        assert create.route_taken == "create" and create.is_exact
        insert = planned_db.query("INSERT INTO scratch VALUES (1, 2.0)")
        assert insert.route_taken == "insert"
        assert planned_db.query("SELECT count(*) AS n FROM scratch").scalar() == 1


class TestPlanExecutionAgreement:
    def test_grouped_model_with_null_group_keys_runs_the_explained_route(self):
        """NULL group keys make the range route decline; the plan must know.

        The grouped model cannot combine its groups into a global aggregate
        once rows with a NULL group key exist, so the route that executes,
        the route the plan chose and the route EXPLAIN shows must all be the
        same — never a range plan silently served by another route.
        """
        rng = np.random.default_rng(7)
        db = _make_db(_linear_rows(rng, groups=4, xs=4, reps=12), verify_sample_fraction=0.0)
        assert db.fit("t", "y ~ linear(x)", group_by="g").accepted
        db.ingest("t", [(None, 1.0, 3.0), (None, 2.0, 4.0)], flush=True)
        sql = "SELECT sum(y) AS s FROM t WHERE x >= 1"
        contract = AccuracyContract(mode="approx", verify_fraction=0.0)

        answer = db.query(sql, contract)

        assert answer.route_taken == answer.plan.chosen.route
        assert f"Decision: {answer.route_taken} — " in db.explain(sql, contract)


class TestPlanCache:
    def test_repeated_plans_hit_the_cache(self, planned_db):
        sql = "SELECT g, avg(y) AS m FROM t GROUP BY g"
        planned_db.planner.plan(sql)
        before = planned_db.planner.plan_cache_info()
        planned_db.planner.plan(sql)
        after = planned_db.planner.plan_cache_info()
        assert after["hits"] == before["hits"] + 1

    def test_data_change_invalidates(self, planned_db):
        sql = "SELECT g, avg(y) AS m FROM t GROUP BY g"
        planned_db.planner.plan(sql)
        misses_before = planned_db.planner.plan_cache_info()["misses"]
        planned_db.insert_rows("t", [(0, 1.0, 2.6)])
        planned_db.planner.plan(sql)
        assert planned_db.planner.plan_cache_info()["misses"] == misses_before + 1


class TestDeprecatedShims:
    def test_sql_shim(self, planned_db):
        with pytest.deprecated_call():
            result = planned_db.sql("SELECT count(*) AS n FROM t")
        assert result.scalar() == planned_db.query("SELECT count(*) AS n FROM t").scalar()

    def test_approximate_sql_shim(self, planned_db):
        with pytest.deprecated_call():
            answer = planned_db.approximate_sql("SELECT g, avg(y) AS m FROM t GROUP BY g")
        assert answer.route in ("grouped-model", "grouped-hybrid")

    def test_approximate_sql_strict_shim(self, planned_db):
        with pytest.deprecated_call():
            with pytest.raises(ApproximationError):
                planned_db.approximate_sql(
                    "SELECT t.y FROM t JOIN t ON g = g", allow_fallback=False
                )

    def test_compare_sql_shim(self, planned_db):
        with pytest.deprecated_call():
            comparison = planned_db.compare_sql("SELECT g, avg(y) AS m FROM t GROUP BY g")
        assert comparison["route"] in ("grouped-model", "grouped-hybrid")
        assert comparison["max_relative_error"] < 0.10
        assert comparison["exact"].rows()
