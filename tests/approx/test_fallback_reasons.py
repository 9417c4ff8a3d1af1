"""Every remaining fallback path must announce itself by message.

Routing regressions are easiest to catch by the *reason* the engine records,
not just by the result: these tests pin the exact reason strings attached to
``ApproximateAnswer`` for each fallback class — joins/multi-table queries,
unknown tables and columns, uncovered columns, SELECT *, non-SELECT
statements, non-enumerable inputs, blow-up protection and unsupported
aggregate shapes."""

import numpy as np
import pytest

from repro import LawsDatabase
from repro.errors import (
    ApproximationError,
    CatalogError,
    ExecutionError,
    ModelNotFoundError,
)


@pytest.fixture(scope="module")
def fallback_db():
    """Two joinable tables; only ``t.y`` has a captured (grouped) model."""
    rng = np.random.default_rng(21)
    rows = []
    for g in range(4):
        for x in range(4):
            for _ in range(8):
                rows.append((g, float(x), 1.0 + g + 0.5 * x + rng.normal(0, 0.2)))
    db = LawsDatabase()
    db.load_dict(
        "t",
        {
            "g": [r[0] for r in rows],
            "x": [r[1] for r in rows],
            "y": [r[2] for r in rows],
            # High-cardinality, never modelled: forces uncovered-column cases.
            "noise": rng.uniform(0, 1, size=len(rows)).tolist(),
        },
    )
    db.load_dict("labels", {"g": [0, 1, 2, 3], "name": ["a", "b", "c", "d"]})
    assert db.fit("t", "y ~ linear(x)", group_by="g").accepted

    # A table whose model input is continuous (non-enumerable domain).
    x = rng.uniform(0.0, 50.0, size=5000)
    db.load_dict(
        "cont",
        {"x": x.tolist(), "y": (3.0 + 0.5 * x + rng.normal(0, 0.3, size=5000)).tolist()},
    )
    assert db.fit("cont", "y ~ linear(x)").accepted
    return db


FALLBACK_CASES = [
    pytest.param(
        "SELECT t.y FROM t JOIN labels ON t.g = labels.g",
        "single-table queries only",
        id="join-multi-table",
    ),
    pytest.param(
        "INSERT INTO labels VALUES (4, 'e')",
        "only SELECT statements can be answered approximately",
        id="non-select",
    ),
    pytest.param(
        "SELECT * FROM t",
        "SELECT * cannot be answered from a model",
        id="select-star",
    ),
    pytest.param(
        "SELECT noise FROM t",
        "no captured model predicts any column referenced by the query",
        id="no-model-for-column",
    ),
    pytest.param(
        "SELECT y, noise FROM t WHERE g = 1",
        "does not cover",
        id="uncovered-column",
    ),
    pytest.param(
        "SELECT y FROM cont WHERE y > 10",
        "not enumerable",
        id="non-enumerable-input",
    ),
]


@pytest.mark.parametrize("sql,expected_reason", FALLBACK_CASES)
def test_fallback_reason_is_recorded(fallback_db, sql, expected_reason):
    answer = fallback_db.approximate_sql(sql)
    assert answer.route == "exact-fallback"
    assert answer.is_exact
    assert expected_reason in answer.reason, (
        f"expected reason containing {expected_reason!r}, got {answer.reason!r}"
    )


@pytest.mark.parametrize("sql,expected_reason", FALLBACK_CASES)
def test_fallback_disallowed_raises_with_same_message(fallback_db, sql, expected_reason):
    with pytest.raises((ApproximationError, ModelNotFoundError)) as excinfo:
        fallback_db.approximate_sql(sql, allow_fallback=False)
    assert expected_reason in str(excinfo.value)


def test_unknown_table_reason():
    """The model router reports the unknown table; the exact fallback then
    fails with the catalog's own error (there is nothing to fall back to)."""
    db = LawsDatabase()
    db.load_dict("t", {"y": [1.0, 2.0]})
    with pytest.raises(ApproximationError, match="unknown table 'missing'"):
        db.approximate_sql("SELECT y FROM missing", allow_fallback=False)
    with pytest.raises(CatalogError):
        db.approximate_sql("SELECT y FROM missing")


def test_unsupported_aggregate_function_reason(fallback_db):
    """A function outside the executor's set is recorded as a route failure
    (and the exact fallback then surfaces the executor's own error)."""
    sql = "SELECT median(y) FROM t WHERE g = 1 AND x = 1"
    with pytest.raises(
        ApproximationError, match="query plan cannot run over the model-generated table"
    ):
        fallback_db.approximate_sql(sql, allow_fallback=False)
    with pytest.raises(ExecutionError, match="unknown scalar function"):
        fallback_db.approximate_sql(sql)


def test_non_numeric_pin_reports_typed_errors(fallback_db):
    """``x = 'abc'`` on a numeric model input must not crash the model
    machinery with a bare ValueError — neither on the range route nor on the
    point route: the approximation layer declines with its own error, and
    the fallback surfaces the executor's type error — exactly what exact
    execution raises for the same query."""
    for sql in (
        "SELECT avg(y) AS m FROM cont WHERE x > 1 AND x = 'abc'",
        "SELECT y FROM cont WHERE x = 'abc'",
    ):
        with pytest.raises(ApproximationError, match="non-numeric"):
            fallback_db.approximate_sql(sql, allow_fallback=False)
        with pytest.raises(ExecutionError, match="cannot compare string column"):
            fallback_db.approximate_sql(sql)


def test_blowup_protection_reason():
    """The max-rows guard names the row count it refused to materialise."""
    rng = np.random.default_rng(4)
    db = LawsDatabase()
    n = 4000
    a = rng.integers(0, 200, size=n).astype(float)
    b = rng.integers(0, 200, size=n).astype(float)
    y = 0.4 * a + 0.2 * b + rng.normal(0, 0.5, size=n)
    db.load_dict("wide", {"a": a.tolist(), "b": b.tolist(), "y": y.tolist()})
    assert db.fit("wide", "y ~ linear(a, b)").accepted
    db.approx.max_virtual_rows = 10
    answer = db.approximate_sql("SELECT y FROM wide")
    assert answer.route == "exact-fallback"
    assert "refusing to materialise" in answer.reason
    assert "max_rows=10" in answer.reason


def test_exact_helper_reason(fallback_db):
    answer = fallback_db.approx.answer_exact("SELECT count(*) AS n FROM t")
    assert answer.reason == "exact execution requested"
