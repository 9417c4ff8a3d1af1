"""Logical-to-physical planning for SELECT statements.

The planner turns a parsed :class:`~repro.db.sql.ast.SelectStatement` into a
tree of physical operators:

``Scan -> [HashJoin]* -> Filter(WHERE) -> Aggregate -> Filter(HAVING) ->
Project -> Distinct -> Sort -> Limit``

It also performs name resolution: qualified column references
(``m.intensity``) are rewritten to the actual column names of the (joined)
input schema, and aggregate function calls in the SELECT list are pulled out
into :class:`~repro.db.operators.aggregate.AggregateSpec` entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.catalog import Catalog
from repro.db.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.db.io_model import IOModel
from repro.db.operators import (
    Aggregate,
    AggregateSpec,
    Filter,
    HashJoin,
    Limit,
    Operator,
    Project,
    Projection,
    Sort,
    TableScan,
)
from repro.db.operators.aggregate import SUPPORTED_AGGREGATES
from repro.db.sql.ast import SelectStatement, Star
from repro.db.table import Table
from repro.errors import SQLPlanningError, UnsupportedSQLError

__all__ = ["plan_select", "PlannedQuery"]


@dataclass
class PlannedQuery:
    """The physical plan plus metadata the AQP engine wants to inspect."""

    root: Operator
    statement: SelectStatement
    base_tables: list[str]
    referenced_columns: dict[str, set[str]]


def plan_select(
    statement: SelectStatement,
    catalog: Catalog,
    io_model: IOModel | None = None,
) -> PlannedQuery:
    """Plan a SELECT statement against ``catalog``."""
    if statement.table is None:
        raise UnsupportedSQLError("SELECT without FROM is not supported")

    builder = _PlanBuilder(statement, catalog, io_model)
    return builder.build()


class _PlanBuilder:
    def __init__(self, statement: SelectStatement, catalog: Catalog, io_model: IOModel | None) -> None:
        self.statement = statement
        self.catalog = catalog
        self.io_model = io_model
        #: alias -> real table name
        self.alias_map: dict[str, str] = {}
        #: real table name -> set of its column names
        self.table_columns: dict[str, set[str]] = {}
        #: column names available after the FROM/JOIN stage
        self.available: set[str] = set()

    # -- entry point ---------------------------------------------------------

    def build(self) -> PlannedQuery:
        statement = self.statement
        plan = self._build_from_clause()

        if statement.where is not None:
            predicate = self._resolve(statement.where)
            plan = Filter(plan, predicate)

        aggregates, rewritten_items, rewritten_having = self._extract_aggregates()
        group_exprs = [self._resolve(e) for e in statement.group_by]

        if aggregates or group_exprs:
            plan = Aggregate(plan, group_exprs, aggregates)
            post_available = {self._group_key_name(e) for e in group_exprs} | {a.name for a in aggregates}
        else:
            post_available = set(self.available)

        if rewritten_having is not None:
            plan = Filter(plan, self._resolve(rewritten_having, post_available))

        projections = self._build_projections(rewritten_items, post_available, bool(aggregates or group_exprs))
        output_names = [p.name for p in projections]

        # ORDER BY may reference columns that are not in the SELECT list (e.g.
        # ``SELECT order_id FROM orders ORDER BY amount``); carry them through
        # the projection as hidden columns and strip them after the sort.
        hidden: list[Projection] = []
        if statement.order_by and not statement.distinct:
            hidden = self._hidden_sort_projections(output_names, post_available)
        plan = Project(plan, projections + hidden)

        if statement.distinct:
            plan = _Distinct(plan)

        if statement.order_by:
            bound = None if statement.limit is None else statement.limit + statement.offset
            plan = Sort(plan, self._resolve_order_keys(output_names + [p.name for p in hidden]), limit=bound)
            if hidden:
                plan = Project(plan, [Projection(ColumnRef(name), alias=name) for name in output_names])

        if statement.limit is not None:
            plan = Limit(plan, statement.limit, statement.offset)

        referenced = self._collect_referenced_columns()
        return PlannedQuery(
            root=plan,
            statement=statement,
            base_tables=list(dict.fromkeys(self.alias_map.values())),
            referenced_columns=referenced,
        )

    # -- FROM / JOIN ------------------------------------------------------------

    def _build_from_clause(self) -> Operator:
        statement = self.statement
        assert statement.table is not None
        base = self.catalog.table(statement.table.name)
        self.alias_map[statement.table.effective_name] = statement.table.name
        self.alias_map[statement.table.name] = statement.table.name
        self.table_columns[statement.table.name] = set(base.schema.names)
        self.available = set(base.schema.names)

        plan: Operator = TableScan(base, self.io_model, self._scan_columns(base), catalog=self.catalog)

        for join in statement.joins:
            right_table = self.catalog.table(join.table.name)
            self.alias_map[join.table.effective_name] = join.table.name
            self.alias_map[join.table.name] = join.table.name
            self.table_columns[join.table.name] = set(right_table.schema.names)

            right_scan = TableScan(right_table, self.io_model, self._scan_columns(right_table), catalog=self.catalog)
            left_keys, right_keys = self._resolve_join_keys(join.left_keys, join.right_keys, right_table)
            plan = HashJoin(plan, right_scan, left_keys, right_keys)

            for name in right_table.schema.names:
                if name in self.available:
                    self.available.add(f"{right_table.name}.{name}")
                else:
                    self.available.add(name)
        return plan

    def _scan_columns(self, table: Table) -> list[str] | None:
        """Restrict the scan to the columns the query references, when possible."""
        needed = self._all_statement_columns()
        if needed is None:
            return None
        names = []
        for name in table.schema.names:
            if name in needed or any(q.endswith(f".{name}") for q in needed):
                names.append(name)
        # Join keys are added later in resolution; be conservative and include
        # any column mentioned with this table's qualifier.
        return names if names else None

    def _all_statement_columns(self) -> set[str] | None:
        """Every column name (possibly qualified) the statement mentions."""
        statement = self.statement
        names: set[str] = set()
        for item in statement.items:
            if isinstance(item.expression, Star):
                return None  # SELECT * needs every column
            names |= item.expression.referenced_columns()
        for expr in statement.group_by:
            names |= expr.referenced_columns()
        if statement.where is not None:
            names |= statement.where.referenced_columns()
        if statement.having is not None:
            names |= statement.having.referenced_columns()
        for order in statement.order_by:
            names |= order.expression.referenced_columns()
        for join in statement.joins:
            names |= set(join.left_keys) | set(join.right_keys)
        # Strip qualifiers so scans can match plain column names too.
        stripped = set(names)
        for name in names:
            if "." in name:
                stripped.add(name.split(".")[-1])
        return stripped

    def _resolve_join_keys(
        self,
        left_keys: tuple[str, ...],
        right_keys: tuple[str, ...],
        right_table: Table,
    ) -> tuple[list[str], list[str]]:
        resolved_left: list[str] = []
        resolved_right: list[str] = []
        right_names = set(right_table.schema.names)
        for raw_left, raw_right in zip(left_keys, right_keys):
            left_name = self._strip_qualifier(raw_left)
            right_name = self._strip_qualifier(raw_right)
            left_qualifier = self._qualifier_of(raw_left)
            right_qualifier = self._qualifier_of(raw_right)

            left_is_right_side = self._belongs_to(left_qualifier, right_table.name) or (
                left_qualifier is None and left_name in right_names and left_name not in self.available
            )
            if left_is_right_side:
                left_name, right_name = right_name, left_name

            if left_name not in self.available:
                raise SQLPlanningError(f"join key {raw_left!r} not found in the left input")
            if right_name not in right_names:
                raise SQLPlanningError(f"join key {raw_right!r} not found in table {right_table.name!r}")
            resolved_left.append(left_name)
            resolved_right.append(right_name)
        return resolved_left, resolved_right

    def _belongs_to(self, qualifier: str | None, table_name: str) -> bool:
        if qualifier is None:
            return False
        return self.alias_map.get(qualifier) == table_name

    @staticmethod
    def _strip_qualifier(name: str) -> str:
        return name.split(".")[-1]

    @staticmethod
    def _qualifier_of(name: str) -> str | None:
        return name.split(".")[0] if "." in name else None

    # -- name resolution -----------------------------------------------------------

    def _resolve(self, expression: Expression, available: set[str] | None = None) -> Expression:
        """Rewrite qualified column references to available column names."""
        available = self.available if available is None else available

        if isinstance(expression, ColumnRef):
            return ColumnRef(self._resolve_column_name(expression.name, available))
        if isinstance(expression, Literal):
            return expression
        if isinstance(expression, BinaryOp):
            return BinaryOp(expression.op, self._resolve(expression.left, available), self._resolve(expression.right, available))
        if isinstance(expression, UnaryOp):
            return UnaryOp(expression.op, self._resolve(expression.operand, available))
        if isinstance(expression, FunctionCall):
            return FunctionCall(expression.name, tuple(self._resolve(a, available) for a in expression.args))
        if isinstance(expression, Between):
            return Between(
                self._resolve(expression.operand, available),
                self._resolve(expression.low, available),
                self._resolve(expression.high, available),
            )
        if isinstance(expression, InList):
            return InList(
                self._resolve(expression.operand, available),
                [self._resolve(v, available) for v in expression.values],
            )
        if isinstance(expression, IsNull):
            return IsNull(self._resolve(expression.operand, available), expression.negated)
        raise SQLPlanningError(f"cannot resolve expression of type {type(expression).__name__}")

    def _resolve_column_name(self, name: str, available: set[str]) -> str:
        if name in available:
            return name
        if "." in name:
            qualifier, _, bare = name.rpartition(".")
            real_table = self.alias_map.get(qualifier)
            if real_table is not None:
                qualified = f"{real_table}.{bare}"
                if qualified in available:
                    return qualified
            if bare in available:
                return bare
        raise SQLPlanningError(f"column {name!r} not found; available: {sorted(available)}")

    # -- aggregates ---------------------------------------------------------------------

    def _extract_aggregates(self):
        """Pull aggregate calls out of the SELECT/HAVING expressions.

        Returns ``(specs, rewritten_select_items, rewritten_having)`` where
        the rewritten expressions reference the aggregate outputs by name.
        """
        statement = self.statement
        specs: list[AggregateSpec] = []
        spec_index: dict[str, str] = {}

        def rewrite(expression: Expression) -> Expression:
            if isinstance(expression, FunctionCall) and expression.name.lower() in SUPPORTED_AGGREGATES:
                if len(expression.args) > 1:
                    raise UnsupportedSQLError(f"aggregate {expression.name} takes at most one argument")
                argument = self._resolve(expression.args[0]) if expression.args else None
                key = f"{expression.name.lower()}({argument})"
                if key not in spec_index:
                    spec = AggregateSpec(expression.name.lower(), argument)
                    specs.append(spec)
                    spec_index[key] = spec.name
                return ColumnRef(spec_index[key])
            if isinstance(expression, BinaryOp):
                return BinaryOp(expression.op, rewrite(expression.left), rewrite(expression.right))
            if isinstance(expression, UnaryOp):
                return UnaryOp(expression.op, rewrite(expression.operand))
            if isinstance(expression, FunctionCall):
                return FunctionCall(expression.name, tuple(rewrite(a) for a in expression.args))
            if isinstance(expression, Between):
                return Between(rewrite(expression.operand), rewrite(expression.low), rewrite(expression.high))
            if isinstance(expression, InList):
                return InList(rewrite(expression.operand), [rewrite(v) for v in expression.values])
            if isinstance(expression, IsNull):
                return IsNull(rewrite(expression.operand), expression.negated)
            return expression

        rewritten_items = []
        for item in statement.items:
            if isinstance(item.expression, Star):
                rewritten_items.append(item)
            else:
                rewritten_items.append(type(item)(expression=rewrite(item.expression), alias=item.alias))

        rewritten_having = rewrite(statement.having) if statement.having is not None else None
        return specs, rewritten_items, rewritten_having

    def _group_key_name(self, expression: Expression) -> str:
        if isinstance(expression, ColumnRef):
            return expression.name
        return expression.output_name()

    # -- projections ------------------------------------------------------------------------

    def _build_projections(self, items, post_available: set[str], is_aggregate: bool) -> list[Projection]:
        projections: list[Projection] = []
        for item in items:
            if isinstance(item.expression, Star):
                if is_aggregate:
                    raise UnsupportedSQLError("SELECT * cannot be combined with GROUP BY / aggregates")
                source = self._star_columns(item.expression)
                for name in source:
                    projections.append(Projection(ColumnRef(name), alias=name.split(".")[-1] if "." in name else name))
                continue
            resolved = self._resolve(item.expression, post_available)
            alias = item.alias
            if alias is None and isinstance(item.expression, ColumnRef):
                alias = self._strip_qualifier(item.expression.name)
            projections.append(Projection(resolved, alias=alias))
        if not projections:
            raise SQLPlanningError("SELECT list is empty")
        return projections

    def _star_columns(self, star: Star) -> list[str]:
        if star.qualifier is not None:
            real = self.alias_map.get(star.qualifier)
            if real is None:
                raise SQLPlanningError(f"unknown table alias {star.qualifier!r} in qualified star")
            names = []
            for name in sorted(self.table_columns[real]):
                qualified = f"{real}.{name}"
                names.append(qualified if qualified in self.available else name)
            return names
        # Unqualified star: every available column, base-table order first.
        ordered: list[str] = []
        for table_name in dict.fromkeys(self.alias_map.values()):
            table = self.catalog.table(table_name)
            for name in table.schema.names:
                qualified = f"{table_name}.{name}"
                if qualified in self.available and qualified not in ordered:
                    ordered.append(qualified)
                elif name in self.available and name not in ordered:
                    ordered.append(name)
        return ordered

    # -- ORDER BY ----------------------------------------------------------------------------

    def _hidden_sort_projections(
        self, output_names: list[str], post_available: set[str]
    ) -> list[Projection]:
        """Projections for ORDER BY columns missing from the SELECT list."""
        hidden: list[Projection] = []
        seen: set[str] = set(output_names)
        for order in self.statement.order_by:
            expression = order.expression
            if not isinstance(expression, ColumnRef):
                continue
            bare = self._strip_qualifier(expression.name)
            if expression.name in seen or bare in seen:
                continue
            try:
                resolved = self._resolve_column_name(expression.name, post_available)
            except SQLPlanningError:
                continue
            alias = bare
            if alias in seen:
                alias = f"__sort_{bare}"
            hidden.append(Projection(ColumnRef(resolved), alias=alias))
            seen.add(alias)
        return hidden

    def _resolve_order_keys(self, output_names: list[str]) -> list[tuple[str, bool]]:
        keys: list[tuple[str, bool]] = []
        for order in self.statement.order_by:
            expression = order.expression
            if isinstance(expression, Literal) and isinstance(expression.value, int):
                ordinal = expression.value
                if not 1 <= ordinal <= len(output_names):
                    raise SQLPlanningError(f"ORDER BY ordinal {ordinal} out of range")
                keys.append((output_names[ordinal - 1], order.ascending))
                continue
            if isinstance(expression, ColumnRef):
                name = expression.name
                bare = self._strip_qualifier(name)
                if name in output_names:
                    keys.append((name, order.ascending))
                    continue
                if bare in output_names:
                    keys.append((bare, order.ascending))
                    continue
            raise UnsupportedSQLError(
                "ORDER BY only supports output column names or ordinals in this SQL subset"
            )
        return keys

    # -- metadata ---------------------------------------------------------------------------------

    def _collect_referenced_columns(self) -> dict[str, set[str]]:
        """Map base table name -> set of its columns the statement references."""
        needed = self._all_statement_columns()
        referenced: dict[str, set[str]] = {}
        for table_name in dict.fromkeys(self.alias_map.values()):
            columns = self.table_columns[table_name]
            if needed is None:
                referenced[table_name] = set(columns)
            else:
                referenced[table_name] = {c for c in columns if c in needed}
        return referenced


class _Distinct(Operator):
    """Remove duplicate output rows (used for SELECT DISTINCT).

    Vectorised: every output column is factorised into dense codes (the same
    NULL-aware machinery grouped aggregation uses) and the first occurrence
    of each distinct composite code is kept, in input order — identical to
    the old set-of-row-tuples loop.
    """

    def __init__(self, child: Operator) -> None:
        self.child = child

    def children(self) -> list[Operator]:
        return [self.child]

    def describe(self) -> str:
        return "Distinct"

    def execute(self) -> Table:
        from repro.db.operators.codes import factorize_keys

        table = self.child.execute()
        if table.num_rows == 0:
            return table
        key_columns = [table.column(name) for name in table.schema.names]
        _, first_rows, _ = factorize_keys(key_columns, table.num_rows)
        # first_rows is ascending (groups are numbered by first occurrence),
        # so taking it preserves the original row order of survivors.
        return table.take(first_rows)
