"""Tests for expression evaluation (including SQL NULL semantics)."""

import numpy as np
import pytest

from repro.db import Database
from repro.db.column import Column
from repro.db.expressions import (
    Between,
    BinaryOp,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    col,
    lit,
    truthy_mask,
)
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ExecutionError


@pytest.fixture()
def table():
    return Table.from_dict(
        "t",
        {
            "a": [1, 2, 3, None],
            "b": [10.0, 20.0, 30.0, 40.0],
            "s": ["x", "y", "x", "z"],
            "flag": [True, False, True, True],
        },
    )


class TestArithmetic:
    def test_addition(self, table):
        result = (col("a") + col("b")).evaluate(table)
        assert result.to_pylist() == [11.0, 22.0, 33.0, None]

    def test_int_plus_int_stays_int(self, table):
        result = (col("a") + lit(1)).evaluate(table)
        assert result.dtype is DataType.INT64
        assert result.to_pylist() == [2, 3, 4, None]

    def test_division_produces_float(self, table):
        result = (col("b") / lit(4)).evaluate(table)
        assert result.dtype is DataType.FLOAT64
        assert result.to_pylist()[0] == 2.5

    def test_division_by_zero_is_null(self, table):
        result = (col("b") / lit(0)).evaluate(table)
        assert result.to_pylist() == [None, None, None, None]

    def test_modulo(self, table):
        result = (col("a") % lit(2)).evaluate(table)
        assert result.to_pylist() == [1, 0, 1, None]

    def test_unary_negation(self, table):
        result = UnaryOp("-", col("b")).evaluate(table)
        assert result.to_pylist()[0] == -10.0

    def test_arithmetic_on_strings_fails(self, table):
        with pytest.raises(ExecutionError):
            (col("s") + lit(1)).evaluate(table)


class TestComparisons:
    def test_greater_than(self, table):
        result = (col("b") > lit(15)).evaluate(table)
        assert result.to_pylist() == [False, True, True, True]

    def test_null_comparison_is_null(self, table):
        result = (col("a") > lit(1)).evaluate(table)
        # row with NULL a evaluates to NULL (validity False)
        assert result.validity.tolist() == [True, True, True, False]

    def test_string_equality(self, table):
        result = col("s").eq(lit("x")).evaluate(table)
        assert result.to_pylist() == [True, False, True, False]

    def test_string_vs_number_comparison_fails(self, table):
        with pytest.raises(ExecutionError):
            col("s").eq(lit(1)).evaluate(table)

    def test_string_vs_number_fails_whatever_the_rows(self, table):
        # The error follows the operand types, not the data: no rows, or
        # no row with both operands present, still raises.
        with pytest.raises(ExecutionError):
            col("s").eq(lit(1)).evaluate(table.slice(0, 0))
        with pytest.raises(ExecutionError):
            col("s").eq(col("a")).evaluate(table.slice(3, 4))

    def test_string_vs_null_literal_is_null(self, table):
        result = col("s").eq(lit(None)).evaluate(table)
        assert result.validity.tolist() == [False] * 4

    def test_string_ordering_skips_null_rows(self):
        strings = Table.from_dict("t", {"s": ["b", None, "a"]})
        result = (col("s") < lit("b")).evaluate(strings)
        assert result.to_pylist() == [False, None, True]

    def test_truthy_mask_treats_null_as_false(self, table):
        mask = truthy_mask((col("a") > lit(1)).evaluate(table))
        assert mask.tolist() == [False, True, True, False]

    def test_truthy_mask_requires_bool(self, table):
        with pytest.raises(ExecutionError):
            truthy_mask(col("b").evaluate(table))


class TestBooleanLogic:
    def test_and(self, table):
        expr = (col("b") > lit(15)).and_(col("s").eq(lit("x")))
        assert expr.evaluate(table).to_pylist() == [False, False, True, False]

    def test_or(self, table):
        expr = (col("b") > lit(35)).or_(col("s").eq(lit("y")))
        assert expr.evaluate(table).to_pylist() == [False, True, False, True]

    def test_not(self, table):
        expr = UnaryOp("not", col("flag"))
        assert expr.evaluate(table).to_pylist() == [False, True, False, False]

    def test_null_and_false_is_false(self, table):
        # a > 1 is NULL on the last row; AND with FALSE must yield FALSE (valid).
        expr = BinaryOp("and", col("a") > lit(1), col("b") < lit(0))
        result = expr.evaluate(table)
        assert bool(result.validity[3])
        assert result.to_pylist()[3] is False

    def test_null_or_true_is_true(self, table):
        expr = BinaryOp("or", col("a") > lit(1), col("b") > lit(0))
        result = expr.evaluate(table)
        assert result.to_pylist()[3] is True

    def test_and_requires_booleans(self, table):
        with pytest.raises(ExecutionError):
            BinaryOp("and", col("a"), col("b")).evaluate(table)


class TestOtherOperators:
    def test_between_inclusive(self, table):
        expr = Between(col("b"), lit(20.0), lit(30.0))
        assert expr.evaluate(table).to_pylist() == [False, True, True, False]

    def test_in_list(self, table):
        expr = InList(col("s"), [lit("x"), lit("z")])
        assert expr.evaluate(table).to_pylist() == [True, False, True, True]

    def test_empty_in_list(self, table):
        expr = InList(col("s"), [])
        assert expr.evaluate(table).to_pylist() == [False, False, False, False]

    def test_is_null(self, table):
        assert IsNull(col("a")).evaluate(table).to_pylist() == [False, False, False, True]

    def test_is_not_null(self, table):
        assert IsNull(col("a"), negated=True).evaluate(table).to_pylist() == [True, True, True, False]

    def test_function_call_sqrt(self, table):
        result = FunctionCall("sqrt", (col("b"),)).evaluate(table)
        assert result.to_pylist()[0] == pytest.approx(10.0**0.5)

    def test_function_call_power_two_args(self, table):
        result = FunctionCall("power", (col("b"), lit(2))).evaluate(table)
        assert result.to_pylist()[1] == pytest.approx(400.0)

    def test_log_of_negative_is_null(self):
        table = Table.from_dict("t", {"x": [-1.0, 1.0]})
        result = FunctionCall("ln", (col("x"),)).evaluate(table)
        assert result.to_pylist() == [None, 0.0]

    def test_unknown_function_raises(self, table):
        with pytest.raises(ExecutionError):
            FunctionCall("nope", (col("b"),)).evaluate(table)

    def test_literal_none(self, table):
        result = Literal(None).evaluate(table)
        assert result.null_count == table.num_rows

    def test_referenced_columns(self):
        expr = Between(col("a"), col("lo"), lit(2)).and_(col("b").eq(lit(1)))
        assert expr.referenced_columns() == {"a", "lo", "b"}

    def test_evaluate_scalar(self):
        expr = (col("x") * lit(2)) + lit(1)
        assert expr.evaluate_scalar({"x": 5}) == 11


class TestLiteralBroadcast:
    @pytest.mark.parametrize(
        "value",
        [7, -(2**63), 2**63 - 1, 2.5, float("nan"), "x", True, False, np.int32(3), np.float32(0.5), None],
    )
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_matches_per_row_construction(self, value, n):
        table = Table.from_dict("t", {"a": list(range(n))})
        dtype = DataType.FLOAT64 if value is None else DataType.infer(value)
        expected = Column.from_values(dtype, [value] * n)
        result = Literal(value).evaluate(table)
        assert result.dtype is expected.dtype
        assert result.values.dtype == expected.values.dtype
        np.testing.assert_array_equal(result.values, expected.values)
        np.testing.assert_array_equal(result.validity, expected.validity)

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 99999999999999999999])
    def test_integer_beyond_int64_is_float(self, value, table):
        result = Literal(value).evaluate(table)
        assert result.dtype is DataType.FLOAT64
        assert result.to_pylist() == [float(value)] * table.num_rows

    def test_integer_beyond_int64_in_sql_matches_sqlite(self):
        db = Database()
        db.load_dict("t", {"x": [1, 2, None]})
        assert db.sql("SELECT x FROM t WHERE x = 99999999999999999999").rows() == []
        assert db.sql("SELECT x FROM t WHERE x < 99999999999999999999").rows() == [(1,), (2,)]
        assert db.sql("SELECT x FROM t WHERE x > -99999999999999999999").rows() == [(1,), (2,)]

    def test_in_list_three_valued_with_null_item(self, table):
        expr = InList(col("a"), [lit(1), lit(None)])
        assert expr.evaluate(table).to_pylist() == [True, None, None, None]
        assert UnaryOp("not", expr).evaluate(table).to_pylist() == [False, None, None, None]

    def test_numeric_in_list_matches_equality_chain(self, table):
        items = [lit(2), lit(30.0), lit(2**63), lit(float("nan"))]
        for name in ("a", "b"):
            chained = col(name).eq(items[0])
            for item in items[1:]:
                chained = chained.or_(col(name).eq(item))
            assert InList(col(name), items).evaluate(table) == chained.evaluate(table)


class TestNoPerRowPython:
    """Predicates over literals must not expand the literal into a Python list."""

    def test_predicates_do_not_build_columns_from_python_values(self, monkeypatch):
        rng = np.random.default_rng(5)
        n = 200_000
        x = rng.random(n)
        k = rng.integers(0, 10, n)
        db = Database()
        schema = Schema([ColumnDef("x", DataType.FLOAT64), ColumnDef("k", DataType.INT64)])
        db.register_table(Table.from_numpy("t", schema, {"x": x, "k": k}))

        def refuse(cls, dtype, values):
            raise AssertionError(f"Column.from_values called with {len(values)} values")

        monkeypatch.setattr(Column, "from_values", classmethod(refuse))
        cases = [
            ("SELECT x FROM t WHERE x > 0.5", x > 0.5),
            ("SELECT x FROM t WHERE x BETWEEN 0.2 AND 0.4", (x >= 0.2) & (x <= 0.4)),
            ("SELECT k FROM t WHERE k IN (1, 2, 3)", np.isin(k, [1, 2, 3])),
            ("SELECT x FROM t WHERE x = NULL", np.zeros(n, dtype=bool)),
        ]
        for query, expected in cases:
            assert db.sql(query).table.num_rows == int(expected.sum()), query
