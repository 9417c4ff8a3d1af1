"""Scalar expression trees and their vectorised evaluation.

Expressions are shared between the SQL front-end (the parser produces them)
and the programmatic query API (operators accept them directly).  Evaluation
is vectorised: an expression evaluates against a :class:`~repro.db.table.Table`
and yields a :class:`~repro.db.column.Column` of results, with SQL NULL
semantics (any NULL operand makes comparison/arithmetic results NULL, and
three-valued logic for AND/OR/NOT).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.db.column import Column
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import ExecutionError

__all__ = [
    "Expression",
    "ColumnRef",
    "Literal",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "Between",
    "InList",
    "IsNull",
    "col",
    "lit",
]

_ARITHMETIC_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "%": np.mod,
}

_COMPARISON_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

_SCALAR_FUNCTIONS: dict[str, Callable[..., np.ndarray]] = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "ln": np.log,
    "log": np.log,
    "log10": np.log10,
    "power": np.power,
    "pow": np.power,
    "floor": np.floor,
    "ceil": np.ceil,
    "round": np.round,
    "sin": np.sin,
    "cos": np.cos,
}


class Expression:
    """Base class for scalar expressions."""

    def evaluate(self, table: Table) -> Column:
        """Evaluate this expression for every row of ``table``."""
        raise NotImplementedError

    def evaluate_scalar(self, row: dict[str, Any]) -> Any:
        """Evaluate this expression against a single row dict (slow path)."""
        single = Table.from_dict("_row", {k: [v] for k, v in row.items()})
        return self.evaluate(single)[0]

    def referenced_columns(self) -> set[str]:
        """Names of all columns referenced anywhere in this expression."""
        raise NotImplementedError

    def output_name(self) -> str:
        """Default output column name when used in a SELECT list."""
        return str(self)

    # Operator sugar so tests and examples can build expressions fluently.

    def __add__(self, other: Any) -> "BinaryOp":
        return BinaryOp("+", self, _wrap(other))

    def __sub__(self, other: Any) -> "BinaryOp":
        return BinaryOp("-", self, _wrap(other))

    def __mul__(self, other: Any) -> "BinaryOp":
        return BinaryOp("*", self, _wrap(other))

    def __truediv__(self, other: Any) -> "BinaryOp":
        return BinaryOp("/", self, _wrap(other))

    def __mod__(self, other: Any) -> "BinaryOp":
        return BinaryOp("%", self, _wrap(other))

    def __gt__(self, other: Any) -> "BinaryOp":
        return BinaryOp(">", self, _wrap(other))

    def __ge__(self, other: Any) -> "BinaryOp":
        return BinaryOp(">=", self, _wrap(other))

    def __lt__(self, other: Any) -> "BinaryOp":
        return BinaryOp("<", self, _wrap(other))

    def __le__(self, other: Any) -> "BinaryOp":
        return BinaryOp("<=", self, _wrap(other))

    def eq(self, other: Any) -> "BinaryOp":
        return BinaryOp("=", self, _wrap(other))

    def ne(self, other: Any) -> "BinaryOp":
        return BinaryOp("!=", self, _wrap(other))

    def and_(self, other: Any) -> "BinaryOp":
        return BinaryOp("and", self, _wrap(other))

    def or_(self, other: Any) -> "BinaryOp":
        return BinaryOp("or", self, _wrap(other))

    def is_null(self) -> "IsNull":
        return IsNull(self, negated=False)

    def between(self, low: Any, high: Any) -> "Between":
        return Between(self, _wrap(low), _wrap(high))

    def isin(self, values: list[Any]) -> "InList":
        return InList(self, [_wrap(v) for v in values])


def _wrap(value: Any) -> Expression:
    return value if isinstance(value, Expression) else Literal(value)


def col(name: str) -> "ColumnRef":
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: Any) -> "Literal":
    """Shorthand constructor for a literal."""
    return Literal(value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a named column of the input table."""

    name: str

    def evaluate(self, table: Table) -> Column:
        return table.column(self.name)

    def referenced_columns(self) -> set[str]:
        return {self.name}

    def output_name(self) -> str:
        return self.name

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def typed_value(self) -> tuple[DataType, Any]:
        """The literal's column type and its coerced python value.

        NULL is FLOAT64.  An integer outside the INT64 range is FLOAT64, as
        in SQLite, rather than an overflow.
        """
        if self.value is None:
            return DataType.FLOAT64, None
        dtype = DataType.infer(self.value)
        value = dtype.coerce(self.value)
        if dtype is DataType.INT64 and not _INT64_MIN <= value <= _INT64_MAX:
            return DataType.FLOAT64, float(value)
        return dtype, value

    def evaluate(self, table: Table) -> Column:
        n = table.num_rows
        dtype, value = self.typed_value()
        if n == 0:
            return Column.empty(dtype)
        if value is None:
            return Column(dtype, np.full(n, np.nan), np.zeros(n, dtype=bool))
        # ``fill`` shares one str object across an object array, where
        # ``np.full`` would build a new string per row.
        values = np.empty(n, dtype=dtype.numpy_dtype)
        values.fill(value)
        return Column(dtype, values, np.ones(n, dtype=bool))

    def referenced_columns(self) -> set[str]:
        return set()

    def output_name(self) -> str:
        return repr(self.value)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary arithmetic, comparison or boolean operation."""

    op: str
    left: Expression
    right: Expression

    def referenced_columns(self) -> set[str]:
        return self.left.referenced_columns() | self.right.referenced_columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"

    def evaluate(self, table: Table) -> Column:
        op = self.op.lower()
        left = self.left.evaluate(table)
        right = self.right.evaluate(table)
        valid = left.validity & right.validity

        if op in _ARITHMETIC_OPS:
            return _evaluate_arithmetic(op, left, right, valid)
        if op in _COMPARISON_OPS:
            if _is_null_literal(self.left) or _is_null_literal(self.right):
                # Comparing with NULL is NULL, whatever the other operand's type.
                return Column(DataType.BOOL, np.zeros(len(valid), dtype=bool), valid)
            return _evaluate_comparison(op, left, right, valid)
        if op in ("and", "or"):
            return _evaluate_boolean(op, left, right)
        raise ExecutionError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary negation (``-x``) or boolean NOT."""

    op: str
    operand: Expression

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"

    def evaluate(self, table: Table) -> Column:
        operand = self.operand.evaluate(table)
        op = self.op.lower()
        if op == "-":
            if not operand.dtype.is_numeric:
                raise ExecutionError(f"cannot negate {operand.dtype.value} column")
            return Column(operand.dtype, -operand.values, operand.validity.copy())
        if op == "not":
            if operand.dtype is not DataType.BOOL:
                raise ExecutionError("NOT requires a boolean operand")
            return Column(DataType.BOOL, ~operand.values, operand.validity.copy())
        raise ExecutionError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar function call such as ``sqrt(x)`` or ``power(nu, alpha)``."""

    name: str
    args: tuple[Expression, ...]

    def referenced_columns(self) -> set[str]:
        out: set[str] = set()
        for arg in self.args:
            out |= arg.referenced_columns()
        return out

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"

    def evaluate(self, table: Table) -> Column:
        fn = _SCALAR_FUNCTIONS.get(self.name.lower())
        if fn is None:
            raise ExecutionError(f"unknown scalar function {self.name!r}")
        arg_columns = [arg.evaluate(table) for arg in self.args]
        for column in arg_columns:
            if not column.dtype.is_numeric:
                raise ExecutionError(f"function {self.name!r} requires numeric arguments")
        valid = np.ones(table.num_rows, dtype=bool)
        for column in arg_columns:
            valid &= column.validity
        with np.errstate(all="ignore"):
            values = fn(*[c.values.astype(np.float64, copy=False) for c in arg_columns])
        values = np.asarray(values, dtype=np.float64)
        valid = valid & np.isfinite(values)
        values = np.where(valid, values, np.nan)
        return Column(DataType.FLOAT64, values, valid)


@dataclass(frozen=True)
class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive on both ends)."""

    operand: Expression
    low: Expression
    high: Expression

    def referenced_columns(self) -> set[str]:
        return (
            self.operand.referenced_columns()
            | self.low.referenced_columns()
            | self.high.referenced_columns()
        )

    def __str__(self) -> str:
        return f"({self.operand} BETWEEN {self.low} AND {self.high})"

    def evaluate(self, table: Table) -> Column:
        lower = BinaryOp(">=", self.operand, self.low).evaluate(table)
        upper = BinaryOp("<=", self.operand, self.high).evaluate(table)
        return _evaluate_boolean("and", lower, upper)


@dataclass(frozen=True)
class InList(Expression):
    """``expr IN (v1, v2, ...)`` over literal values."""

    operand: Expression
    values: tuple[Expression, ...]

    def __init__(self, operand: Expression, values: list[Expression]) -> None:
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "values", tuple(values))

    def referenced_columns(self) -> set[str]:
        out = self.operand.referenced_columns()
        for value in self.values:
            out |= value.referenced_columns()
        return out

    def __str__(self) -> str:
        return f"({self.operand} IN ({', '.join(str(v) for v in self.values)}))"

    def evaluate(self, table: Table) -> Column:
        n = table.num_rows
        if not self.values:
            return Column(DataType.BOOL, np.zeros(n, dtype=bool), np.ones(n, dtype=bool))
        keys = _numeric_literal_keys(self.values)
        if keys is not None:
            operand = self.operand.evaluate(table)
            if operand.dtype.is_numeric:
                # Same float64 comparison as the ``=`` path; NaN matches nothing.
                hits = np.isin(_numeric_values(operand), keys)
                hits &= operand.validity
                return Column(DataType.BOOL, hits, operand.validity.copy())
        # A NULL item (or a non-numeric operand) keeps the OR-chain, whose
        # three-valued result a set lookup cannot express.
        result: Column | None = None
        for value in self.values:
            term = BinaryOp("=", self.operand, value).evaluate(table)
            result = term if result is None else _evaluate_boolean("or", result, term)
        assert result is not None
        return result


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS NULL`` or ``expr IS NOT NULL``."""

    operand: Expression
    negated: bool = False

    def referenced_columns(self) -> set[str]:
        return self.operand.referenced_columns()

    def __str__(self) -> str:
        return f"({self.operand} IS {'NOT ' if self.negated else ''}NULL)"

    def evaluate(self, table: Table) -> Column:
        operand = self.operand.evaluate(table)
        nulls = ~operand.validity
        values = ~nulls if self.negated else nulls
        return Column(DataType.BOOL, values, np.ones(len(values), dtype=bool))


# ---------------------------------------------------------------------------
# Evaluation helpers
# ---------------------------------------------------------------------------


def _numeric_values(column: Column) -> np.ndarray:
    if not column.dtype.is_numeric:
        raise ExecutionError(f"expected a numeric operand, got {column.dtype.value}")
    return column.values.astype(np.float64, copy=False)


def _is_null_literal(expression: Expression) -> bool:
    return isinstance(expression, Literal) and expression.value is None


def _numeric_literal_keys(items: tuple[Expression, ...]) -> np.ndarray | None:
    """The float64 values of an IN list made only of non-NULL numeric literals."""
    keys = []
    for item in items:
        if not isinstance(item, Literal):
            return None
        dtype, value = item.typed_value()
        if value is None or not dtype.is_numeric:
            return None
        keys.append(value)
    return np.array(keys, dtype=np.float64)


def _evaluate_arithmetic(op: str, left: Column, right: Column, valid: np.ndarray) -> Column:
    left_values = _numeric_values(left)
    right_values = _numeric_values(right)
    with np.errstate(all="ignore"):
        values = _ARITHMETIC_OPS[op](left_values, right_values)
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    valid = valid & finite
    values = np.where(valid, values, np.nan)
    if (
        left.dtype is DataType.INT64
        and right.dtype is DataType.INT64
        and op in ("+", "-", "*", "%")
    ):
        ints = np.where(valid, values, 0).astype(np.int64)
        from repro.db.types import null_value

        ints = np.where(valid, ints, null_value(DataType.INT64))
        return Column(DataType.INT64, ints, valid)
    return Column(DataType.FLOAT64, values, valid)


def _evaluate_comparison(op: str, left: Column, right: Column, valid: np.ndarray) -> Column:
    if left.dtype is DataType.STRING or right.dtype is DataType.STRING:
        if left.dtype is not right.dtype:
            raise ExecutionError("cannot compare string column with non-string operand")
        if valid.all():
            values = _COMPARISON_OPS[op](left.values, right.values)
        else:
            # None does not order against str: compare only rows with both operands.
            values = np.zeros(len(valid), dtype=bool)
            values[valid] = _COMPARISON_OPS[op](left.values[valid], right.values[valid])
    elif left.dtype is DataType.BOOL or right.dtype is DataType.BOOL:
        values = _COMPARISON_OPS[op](left.values.astype(np.int64), right.values.astype(np.int64))
    else:
        with np.errstate(all="ignore"):
            values = _COMPARISON_OPS[op](_numeric_values(left), _numeric_values(right))
    values = np.asarray(values, dtype=bool)
    values = np.where(valid, values, False)
    return Column(DataType.BOOL, values, valid)


def _evaluate_boolean(op: str, left: Column, right: Column) -> Column:
    if left.dtype is not DataType.BOOL or right.dtype is not DataType.BOOL:
        raise ExecutionError(f"{op.upper()} requires boolean operands")
    left_values = left.values & left.validity
    right_values = right.values & right.validity
    if op == "and":
        values = left_values & right_values
        # NULL AND FALSE -> FALSE; NULL AND TRUE -> NULL
        valid = (left.validity & right.validity) | (~left_values & left.validity) | (~right_values & right.validity)
    else:
        values = left_values | right_values
        # NULL OR TRUE -> TRUE; NULL OR FALSE -> NULL
        valid = (left.validity & right.validity) | left_values | right_values
    return Column(DataType.BOOL, values, valid)


def truthy_mask(column: Column) -> np.ndarray:
    """Convert a boolean result column to a row-selection mask (NULL = False)."""
    if column.dtype is not DataType.BOOL:
        raise ExecutionError("predicate did not evaluate to a boolean column")
    return np.asarray(column.values & column.validity, dtype=bool)
