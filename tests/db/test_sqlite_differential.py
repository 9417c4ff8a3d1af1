"""Differential tests of the exact engine against stdlib ``sqlite3``.

One seeded table with many NULLs and duplicate keys is loaded into both
engines.  Filters compare row multisets; ``ORDER BY ... LIMIT`` compares
ordered rows.  This engine's sort is stable and puts NULLs last in both
directions, so its order equals SQLite's ``ORDER BY key NULLS LAST, id``
when ``id`` is the insertion order.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import numpy as np
import pytest

from repro.db import Database
from repro.db.table import Table

N = 300


def _with_nulls(rng: np.random.Generator, values: list, share: float) -> list:
    return [None if rng.random() < share else v for v in values]


@pytest.fixture(scope="module")
def data() -> dict[str, list]:
    rng = np.random.default_rng(20261017)
    return {
        "id": list(range(N)),
        "i": _with_nulls(rng, rng.integers(0, 12, N).tolist(), 0.25),
        "f": _with_nulls(rng, (rng.integers(-8, 8, N) / 4).tolist(), 0.25),
        "s": _with_nulls(rng, rng.choice(["a", "b", "c", "d"], N).tolist(), 0.25),
        "k": rng.integers(-5, 6, N).tolist(),
        "g": (rng.integers(-6, 6, N) / 2).tolist(),
    }


@pytest.fixture(scope="module")
def engines(data):
    db = Database()
    db.register_table(Table.from_dict("t", data))
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (id INTEGER, i INTEGER, f REAL, s TEXT, k INTEGER, g REAL)")
    lite.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?, ?)", list(zip(*data.values())))
    yield db, lite
    lite.close()


WHERE_CLAUSES = [
    "i > 7",
    "f > 0.5",
    "s > 'b'",
    "i BETWEEN 3 AND 9",
    "f BETWEEN -0.5 AND 1.25",
    "k BETWEEN -2 AND 2",
    "i IN (1, 4, 9)",
    "f IN (0.5, 1.0, -1.75)",
    "i IN (2, 3.0, 99)",
    "g IN (0, 1.5, -3)",
    "s IN ('a', 'c')",
    "i IN (1, NULL, 4)",
    "f IN (NULL, 0.25)",
    "NOT (i IN (1, 4))",
    "NOT (i IN (1, 4, NULL))",
    "NOT (s IN ('a', NULL))",
    "i = 99999999999999999999",
    "i < 99999999999999999999",
]


@pytest.mark.parametrize("where", WHERE_CLAUSES)
def test_filter_matches_sqlite(engines, where):
    db, lite = engines
    query = f"SELECT id, i, f, s FROM t WHERE {where}"
    assert Counter(db.sql(query).rows()) == Counter(lite.execute(query).fetchall())


@pytest.mark.parametrize("expr", ["i IN (1, 4, NULL)", "f IN (0.5, -1.0)", "NOT (i IN (2, NULL))"])
def test_three_valued_in_matches_sqlite(engines, expr):
    db, lite = engines
    query = f"SELECT id, {expr} AS m FROM t"
    ours = [(row_id, None if m is None else int(m)) for row_id, m in db.sql(query).rows()]
    assert ours == lite.execute(query).fetchall()


@pytest.mark.parametrize("key", ["k", "g", "i", "f", "s"])
@pytest.mark.parametrize("direction", ["ASC", "DESC"])
@pytest.mark.parametrize("limit, offset", [(1, 0), (10, 0), (7, 20), (40, 250), (50, 280), (500, 0)])
def test_order_by_limit_matches_sqlite(engines, key, direction, limit, offset):
    db, lite = engines
    page = f"LIMIT {limit} OFFSET {offset}"
    ours = db.sql(f"SELECT id, {key} FROM t ORDER BY {key} {direction} {page}").rows()
    theirs = lite.execute(
        f"SELECT id, {key} FROM t ORDER BY {key} {direction} NULLS LAST, id {page}"
    ).fetchall()
    assert [value for _, value in ours] == [value for _, value in theirs]
    assert ours == theirs


@pytest.mark.parametrize("ascending", [True, False])
@pytest.mark.parametrize("limit", [1, 3, 50, 999, 1999])
def test_top_k_ties_equal_full_stable_sort(ascending, limit):
    rng = np.random.default_rng(limit)
    n = 2000
    extremes = [2**63 - 1, -(2**63) + 1, 0, -1]
    table = Table.from_dict(
        "t",
        {
            "id": list(range(n)),
            "k": (rng.integers(-3, 4, n - 4).tolist() + extremes),
            "g": rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], n).tolist(),
        },
    )
    for key in ("k", "g"):
        full = table.sort_by([(key, ascending)]).head(limit).to_rows()
        top = table.sort_by([(key, ascending)], limit=limit).head(limit).to_rows()
        assert top == full
