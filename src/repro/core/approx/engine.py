"""The approximate query engine: answering SQL from captured models.

This is where the harvested models pay off (Figure 2, steps 4-5).  Given a
SQL query, the engine decides whether some usable captured model can stand
in for the stored data, regenerates the tuples the query needs from the
model ("zero-IO"), runs the rest of the query over the regenerated table,
and attaches error estimates.  Queries the models cannot cover fall back to
exact execution — with the reason recorded, because the fallback conditions
(no model, non-enumerable inputs, unsupported SQL shape) are themselves
findings the paper discusses in §4.2.

Routing happens once: :meth:`ApproximateQueryEngine.sketch_route` binds the
first route below that can serve a statement, together with the route's
prepared state, and :meth:`ApproximateQueryEngine.answer` executes exactly
that route.  A bound route that fails becomes ``exact-fallback`` with its
reason; no other route is tried.

Answer routes
-------------
``point``
    Every model input and group key is pinned by equality predicates: a
    single model evaluation (the paper's first example query).
``grouped-model`` / ``grouped-hybrid``
    ``GROUP BY`` aggregates answered by evaluating the captured per-group
    models group-by-group, with per-group error estimates.  The per-group
    router serves healthy groups from models and — in the hybrid variant —
    computes only the uncovered groups exactly and merges the two.
``range-aggregate``
    Aggregates restricted by range predicates (``BETWEEN``, ``<``, ``>``,
    ``IN``): the model is evaluated/integrated over the restricted input
    domain instead of falling back.
``analytic-aggregate``
    A global aggregate over the modelled column of an ungrouped linear-ish
    model: closed-form answer from the parameters (§4.2).
``virtual-table``
    The general route: enumerate the parameter space, generate the virtual
    table, run the query plan over it (the paper's second example query).
``exact-fallback``
    No route could be bound, or the bound route failed; execute against the
    raw data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

from repro.core.approx.aggregates import analytic_aggregate, supports_analytic
from repro.core.approx.enumeration import (
    DEFAULT_MAX_ROWS,
    EnumerationPlan,
    build_enumeration_plan,
    generate_virtual_table,
)
from repro.core.approx.error_bounds import ErrorEstimate, aggregate_error
from repro.core.approx.legal import LegalCombinationFilter
from repro.core.approx.routes.constraints import (
    bare_name as _bare_name,
    extract_constraints,
)
from repro.core.approx.routes.grouped import (
    GroupedRoutePlan,
    analyse_grouped_statement,
    answer_grouped,
    plan_grouped_route,
)
from repro.core.approx.routes.range_agg import answer_range, plan_range_route
from repro.core.approx.routes.router import RoutingPolicy
from repro.core.captured_model import CapturedModel
from repro.core.model_store import ModelStore
from repro.db.catalog import Catalog
from repro.db.database import Database
from repro.db.expressions import Between, BinaryOp, ColumnRef, Expression, InList
from repro.db.operators.aggregate import SUPPORTED_AGGREGATES
from repro.db.expressions import FunctionCall
from repro.db.sql.ast import SelectStatement, Star, Statement
from repro.db.sql.planner import plan_select
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.errors import (
    ApproximationError,
    ExecutionError,
    ModelNotFoundError,
    ReproError,
    SQLError,
)
from repro.obs.trace import NULL_TRACER, traced_operator_execute

__all__ = ["ApproximateAnswer", "ApproximateQueryEngine", "RouteDecline", "RouteSketch"]


@dataclass(frozen=True)
class RouteSketch:
    """The model route bound to serve a statement.

    Produced by :meth:`ApproximateQueryEngine.sketch_route` — the engine's
    only routing cascade — *without evaluating any model*.  The unified
    planner turns a sketch into a plan node with predicted cost and error;
    :meth:`ApproximateQueryEngine.answer` then executes exactly the bound
    route from ``state``.  A sketch is read-only: cached plans share it
    across executions, and the plan cache's catalog/store/cost version key
    guarantees the state it binds is current.
    """

    route: str
    model_ids: list[int]
    detail: str
    #: Residual standard error of the serving model (worst across models).
    residual_standard_error: float = 0.0
    #: RSE relative to the output scale, when the capture recorded it.
    relative_rse: float | None = None
    #: Model evaluations / virtual rows the route would generate.
    est_points: int = 0
    #: Grouped routes: how many groups each side serves.
    n_model_groups: int = 0
    n_exact_groups: int = 0
    #: Estimated raw rows the exact side of a hybrid plan must scan.
    uncovered_rows: float = 0.0
    #: Aggregate functions the statement computes (error prediction input).
    aggregate_functions: tuple[str, ...] = ()
    #: The modelled output column (error prediction falls back to its scale).
    output_column: str = ""
    #: The statement the route serves.
    statement: SelectStatement | None = None
    #: The serving model (None for the grouped routes, which may use several).
    model: CapturedModel | None = None
    #: The route's prepared state: the point route's ``(group key, inputs)``,
    #: a :class:`RangeRoutePlan`, the analytic route's ``(aggregates, input
    #: ranges, input means, row count)``, an :class:`EnumerationPlan` or a
    #: :class:`GroupedRoutePlan`.
    state: Any = None


@dataclass(frozen=True)
class RouteDecline:
    """Why no model route can serve a statement (the other sketch outcome).

    ``error`` is the typed error :meth:`ApproximateQueryEngine.answer`
    raises with ``reason`` when exact fallback is refused.
    """

    reason: str
    error: type[ReproError] = ApproximationError


@dataclass
class ApproximateAnswer:
    """The result of asking the engine to answer a query approximately."""

    sql: str
    table: Table
    route: str
    is_exact: bool
    used_model_ids: list[int] = field(default_factory=list)
    reason: str = ""
    #: result-column name -> standard error estimate attached to that column
    column_errors: dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    io: dict[str, float] = field(default_factory=dict)
    virtual_rows_generated: int = 0
    #: group key -> result column -> standard error (grouped routes only)
    group_errors: dict[tuple, dict[str, float]] = field(default_factory=dict)
    #: group key -> result column -> value (grouped routes only)
    group_values: dict[tuple, dict[str, Any]] = field(default_factory=dict)
    #: group key -> serving provenance ("model#<id>" / "exact"; grouped routes)
    group_routes: dict[tuple, str] = field(default_factory=dict)

    def rows(self) -> list[tuple]:
        return self.table.to_rows()

    def scalar(self) -> Any:
        if self.table.num_rows != 1 or self.table.num_columns != 1:
            raise ApproximationError(
                f"scalar() requires a 1x1 result, got {self.table.num_rows}x{self.table.num_columns}"
            )
        return self.table.row(0)[0]

    def error_estimate(self, column: str) -> ErrorEstimate | None:
        if column not in self.column_errors:
            return None
        values = [v for v in self.table.column(column).to_pylist() if v is not None]
        value = float(values[0]) if len(values) == 1 else float("nan")
        return ErrorEstimate(value=value, standard_error=self.column_errors[column])

    def group_error_estimate(self, group_key: tuple | Any, column: str) -> ErrorEstimate | None:
        """The per-group error band a grouped route attached to one aggregate."""
        key = group_key if isinstance(group_key, tuple) else (group_key,)
        errors = self.group_errors.get(key)
        if errors is None or column not in errors:
            return None
        value = self.group_values.get(key, {}).get(column)
        return ErrorEstimate(
            value=float(value) if value is not None else float("nan"),
            standard_error=errors[column],
        )


class ApproximateQueryEngine:
    """Routes SQL queries to captured models when possible."""

    def __init__(
        self,
        database: Database,
        store: ModelStore,
        max_virtual_rows: int = DEFAULT_MAX_ROWS,
        use_legal_filter: bool = False,
        routing_policy: RoutingPolicy | None = None,
    ) -> None:
        self.database = database
        self.store = store
        self.max_virtual_rows = max_virtual_rows
        self.use_legal_filter = use_legal_filter
        #: Per-group model-vs-exact routing thresholds for the grouped route.
        self.routing_policy = routing_policy or RoutingPolicy()
        #: :class:`repro.obs.Tracer` for per-route spans.  Defaults to the
        #: shared disabled tracer, so span calls cost one attribute check.
        self.tracer = NULL_TRACER
        #: Optional callback ``(table, output_column, group_columns) ->
        #: CapturedModel | None`` that harvests a grouped model on demand when
        #: a GROUP BY query finds only ungrouped captures (wired to
        #: :meth:`repro.core.harvester.ModelHarvester.ensure_grouped`).
        self.grouped_model_provider = None
        #: (table_name, key columns) -> legality filter, built lazily on demand
        self._legal_filters: dict[tuple[str, tuple[str, ...]], LegalCombinationFilter] = {}

    # -- public API -------------------------------------------------------------

    def answer(
        self,
        sql: str,
        sketch: RouteSketch | RouteDecline,
        allow_fallback: bool = True,
    ) -> ApproximateAnswer:
        """Execute the model route ``sketch`` bound for ``sql``.

        ``sketch`` is :meth:`sketch_route`'s outcome for ``sql``, bound
        against the catalog/store state this execution reads (the unified
        planner hands over its plan's).  Only the bound route runs.  When no
        route was bound, or the bound route fails, the answer is
        ``exact-fallback`` carrying the reason — or, with
        ``allow_fallback=False``, the typed error is raised.  No other model
        route is ever tried.
        """
        started = perf_counter()
        # Per-execution IO scope: interleaved queries on other threads never
        # leak pages into this answer's attribution.
        with self.database.io_model.scope() as io_scope:
            try:
                if isinstance(sketch, RouteDecline):
                    raise sketch.error(sketch.reason)
                answer = self._ROUTE_EXECUTORS[sketch.route](self, sql, sketch)
                self._note_staleness(answer)
            except (ApproximationError, ModelNotFoundError) as exc:
                if not allow_fallback:
                    raise
                answer = self._exact(sql, reason=str(exc))
        answer.elapsed_seconds = perf_counter() - started
        answer.io = io_scope.snapshot()
        return answer

    def answer_exact(self, sql: str) -> ApproximateAnswer:
        """Execute ``sql`` exactly (for comparisons and benchmarks)."""
        started = perf_counter()
        with self.database.io_model.scope() as io_scope:
            answer = self._exact(sql, reason="exact execution requested")
        answer.elapsed_seconds = perf_counter() - started
        answer.io = io_scope.snapshot()
        return answer

    # -- routing: the one cascade --------------------------------------------------

    def sketch_route(
        self, sql: str, statement: Statement | None = None, for_execution: bool = False
    ) -> RouteSketch | RouteDecline:
        """Bind — without evaluating any model — the route that serves ``sql``.

        This is the engine's only routing cascade: grouped → point → range →
        analytic → virtual-table.  Each route's plan phase runs every check
        that could make it decline, so the first route that binds is the one
        :meth:`answer` executes, and what EXPLAIN shows is what runs.  When
        no route applies, returns a :class:`RouteDecline` with the reason
        and error type.  ``for_execution=True`` permits side effects
        execution would incur anyway (the on-demand grouped harvest); a pure
        EXPLAIN must leave the store untouched and passes False.
        """
        if statement is None:
            statement = self._parse(sql)
        try:
            return self._bind_route(statement, for_execution)
        except (ApproximationError, ModelNotFoundError) as exc:
            return RouteDecline(reason=str(exc), error=type(exc))

    def _bind_route(self, statement: Statement, for_execution: bool) -> RouteSketch:
        """The cascade itself; a typed error means no model route applies."""
        if not isinstance(statement, SelectStatement):
            raise ApproximationError("only SELECT statements can be answered approximately")
        if statement.table is None or statement.joins:
            raise ApproximationError("approximate answering supports single-table queries only")
        table_name = statement.table.name
        if not self.database.has_table(table_name):
            raise ApproximationError(f"unknown table {table_name!r}")
        referenced = _referenced_columns(statement)
        functions = _aggregate_functions(statement)

        # Route 1: GROUP BY aggregates served group-by-group (does its own
        # model lookup — the query's group keys need not be covered by the
        # generically best model, and grouped models can be harvested on
        # demand through ``grouped_model_provider``).
        grouped = self._plan_grouped(statement, table_name, allow_harvest=for_execution)
        if grouped is not None:
            return self._sketch_grouped(statement, grouped, table_name, functions)

        model = self._select_model(table_name, referenced)
        covered = set(model.group_columns) | set(model.input_columns) | {model.output_column}
        uncovered = referenced - covered
        if uncovered:
            raise ApproximationError(
                f"query references columns {sorted(uncovered)} that model {model.model_id} does not cover"
            )
        pinned = _extract_pinned_values(statement.where)
        stats = self.database.stats(table_name)

        # Routes 2-5, in order; virtual-table binds or raises.
        route, state, detail, est_points = (
            self._plan_point(statement, model, pinned)
            or self._plan_range(statement, model, stats)
            or self._plan_analytic(statement, model, stats)
            or self._plan_virtual_table(model, stats, pinned)
        )
        return RouteSketch(
            route=route,
            model_ids=[model.model_id],
            detail=detail,
            residual_standard_error=model.quality.residual_standard_error,
            relative_rse=model.quality.relative_rse,
            est_points=est_points,
            aggregate_functions=functions,
            output_column=model.output_column,
            statement=statement,
            model=model,
            state=state,
        )

    def _sketch_grouped(
        self,
        statement: SelectStatement,
        grouped: GroupedRoutePlan,
        table_name: str,
        functions: tuple[str, ...],
    ) -> RouteSketch:
        from repro.core.approx.routes.aggcalc import current_group_rows

        routing = grouped.routing
        stats = self.database.stats(table_name)
        uncovered_rows = 0.0
        if routing.exact_groups:
            live = current_group_rows(stats, grouped.analysis.group_columns)
            if live is not None:
                uncovered_rows = float(
                    sum(live.get(a.key, 0.0) for a in routing.exact_groups)
                )
            else:
                # No live per-group counts: assume uniform group sizes.
                uncovered_rows = stats.row_count * (
                    len(routing.exact_groups) / max(len(routing.assignments), 1)
                )
        rse = max(
            (m.quality.residual_standard_error for m in grouped.candidates), default=0.0
        )
        relatives = [
            m.quality.relative_rse
            for m in grouped.candidates
            if m.quality.relative_rse is not None
        ]
        route = "grouped-hybrid" if routing.exact_groups else "grouped-model"
        return RouteSketch(
            route=route,
            model_ids=grouped.used_model_ids,
            detail=routing.describe(),
            residual_standard_error=rse,
            relative_rse=max(relatives) if relatives else None,
            est_points=grouped.n_model_groups,
            n_model_groups=grouped.n_model_groups,
            n_exact_groups=grouped.n_exact_groups,
            uncovered_rows=uncovered_rows,
            aggregate_functions=functions,
            output_column=grouped.analysis.output_column,
            statement=statement,
            state=grouped,
        )

    # Each ``_plan_<route>`` is a route's plan phase: None when the route does
    # not apply, else ``(route, bound state, detail, estimated points)``.

    def _plan_point(
        self,
        statement: SelectStatement,
        model: CapturedModel,
        pinned: dict[str, list[Any]],
    ) -> tuple | None:
        """Every group key and input pinned to one value: one model evaluation."""
        if statement.group_by or statement.order_by or statement.distinct:
            return None
        if _has_aggregates(statement) or len(statement.items) != 1:
            return None
        item = statement.items[0]
        if isinstance(item.expression, Star) or not isinstance(item.expression, ColumnRef):
            return None
        if _bare_name(item.expression.name) != model.output_column:
            return None
        needed = list(model.group_columns) + list(model.input_columns)
        if not all(column in pinned and len(pinned[column]) == 1 for column in needed):
            return None
        inputs: dict[str, float] = {}
        for column in model.input_columns:
            try:
                inputs[column] = float(pinned[column][0])
            except (TypeError, ValueError):
                raise ApproximationError(
                    f"input column {column!r} is pinned to a non-numeric value; "
                    "the model cannot be evaluated there"
                ) from None
        group_key = {column: pinned[column][0] for column in model.group_columns}
        return "point", (group_key or None, inputs), "all model inputs pinned by equality predicates", 1

    def _plan_range(
        self, statement: SelectStatement, model: CapturedModel, stats: TableStats
    ) -> tuple | None:
        """Aggregates restricted by range predicates."""
        plan = plan_range_route(statement, model, stats)
        if plan is None:
            return None
        detail = "model evaluated/integrated over the restricted input domain"
        return "range-aggregate", plan, detail, self._domain_points(model)

    def _plan_analytic(
        self, statement: SelectStatement, model: CapturedModel, stats: TableStats
    ) -> tuple | None:
        """Closed-form aggregates for ungrouped models (§4.2 analytic solutions)."""
        if model.is_grouped or statement.group_by or statement.where is not None:
            return None
        if not supports_analytic(model):
            return None
        aggregates = _simple_aggregates(statement, model.output_column)
        if aggregates is None:
            return None
        input_ranges: dict[str, tuple[float, float]] = {}
        input_means: dict[str, float] = {}
        for column in model.input_columns:
            column_stats = stats.columns.get(column)
            if column_stats is None or column_stats.min_value is None or column_stats.max_value is None:
                return None
            input_ranges[column] = (float(column_stats.min_value), float(column_stats.max_value))
            if column_stats.mean is not None:
                input_means[column] = float(column_stats.mean)
        state = (aggregates, input_ranges, input_means or None, stats.row_count)
        return "analytic-aggregate", state, "closed-form aggregate from model parameters", 0

    def _plan_virtual_table(
        self, model: CapturedModel, stats: TableStats, pinned: dict[str, list[Any]]
    ) -> tuple:
        """The general route: enumerate the parameter space (raises if it cannot)."""
        plan = build_enumeration_plan(
            model, stats, pinned_values=pinned, max_rows=self.max_virtual_rows
        )
        return "virtual-table", plan, f"parameter space enumerable ({plan.describe()})", plan.num_rows

    def _domain_points(self, model: CapturedModel) -> int:
        """How many domain points a range/enumeration evaluation touches."""
        stats = self.database.stats(model.table_name)
        points = 1
        for column in model.input_columns:
            column_stats = stats.columns.get(column)
            if column_stats is not None and column_stats.domain is not None:
                points *= max(len(column_stats.domain), 1)
        if model.is_grouped:
            points *= max(len(model.fit.records), 1)  # type: ignore[union-attr]
        return min(points, self.max_virtual_rows)

    def _parse(self, sql: str) -> Statement:
        """Parse through the executor's shared LRU cache (PR-3 machinery).

        The engine re-analyses the same fallback and differential statements
        over and over; re-lexing each time used to dominate small queries.
        The cache is pure (ASTs are immutable), so no version key is needed
        here — the version-keyed *plan* cache guards exact execution.
        """
        return self.database.parse_sql(sql)

    def _select_model(self, table_name: str, referenced: set[str]) -> CapturedModel:
        """Pick the captured model whose output the query needs.

        Stale models are admitted (``include_stale``) but ranked behind any
        active one: during continuous ingestion every append briefly marks
        models stale, and falling back to exact execution for that window
        would defeat the purpose of answering from models.
        """
        candidate_outputs = [
            column
            for column in referenced
            if self.store.has_model_for(table_name, column, include_stale=True)
        ]
        if not candidate_outputs:
            raise ModelNotFoundError(
                f"no captured model predicts any column referenced by the query on {table_name!r}"
            )
        # Prefer the model that covers the most of the referenced columns.
        best: CapturedModel | None = None
        best_score = -1
        for output in candidate_outputs:
            try:
                model = self.store.best_model(table_name, output, include_stale=True)
            except ModelNotFoundError:
                continue
            covered = set(model.group_columns) | set(model.input_columns) | {model.output_column}
            score = len(referenced & covered)
            if score > best_score:
                best, best_score = model, score
        if best is None:
            raise ModelNotFoundError(f"no usable captured model for table {table_name!r}")
        return best

    def _grouped_candidates(
        self,
        statement_analysis,
        table_name: str,
        allow_harvest: bool = True,
    ) -> list[CapturedModel]:
        """Grouped candidate models, harvesting on demand when allowed."""
        group_columns = statement_analysis.group_columns
        output_column = statement_analysis.output_column
        candidates = self.store.grouped_candidates(table_name, output_column, group_columns)
        if not candidates and allow_harvest and self.grouped_model_provider is not None:
            harvested = self.grouped_model_provider(table_name, output_column, group_columns)
            if harvested is not None:
                # The on-demand grouped harvest reads the raw data once; like
                # building a legality filter, it is charged as a one-off scan.
                table = self.database.table(table_name)
                self.database.io_model.charge_scan(
                    table, [c for c in harvested.coverage.columns() if c in table.schema]
                )
                candidates = self.store.grouped_candidates(
                    table_name, output_column, group_columns
                )
        return candidates

    def _plan_grouped(
        self, statement: SelectStatement, table_name: str, allow_harvest: bool = True
    ) -> GroupedRoutePlan | None:
        """The grouped route's plan phase."""
        analysis = analyse_grouped_statement(statement)
        if analysis is None:
            return None
        candidates = self._grouped_candidates(analysis, table_name, allow_harvest)
        if not candidates:
            return None
        stats = self.database.stats(table_name)
        return plan_grouped_route(
            statement,
            self.store,
            stats,
            policy=self.routing_policy,
            models=candidates,
            analysis=analysis,
        )

    # -- bound-route execution -----------------------------------------------------

    def _execute_grouped(self, sql: str, sketch: RouteSketch) -> ApproximateAnswer:
        """GROUP BY aggregates evaluated per group, with exact fill-in."""
        route_plan: GroupedRoutePlan = sketch.state
        statement = sketch.statement
        stats = self.database.stats(statement.table.name)
        tracer = self.tracer
        with tracer.span("route:grouped") as span:
            if tracer.active:
                span.annotate(
                    model_groups=route_plan.n_model_groups,
                    exact_groups=route_plan.n_exact_groups,
                    models=list(route_plan.used_model_ids),
                )
            result = answer_grouped(statement, stats, self._execute_exact_groups, route_plan)
        return ApproximateAnswer(
            sql=sql,
            table=result.table,
            route=result.route,
            is_exact=False,
            used_model_ids=result.used_model_ids,
            reason=result.reason,
            column_errors=result.column_errors,
            virtual_rows_generated=result.virtual_rows_generated,
            group_errors=result.group_errors,
            group_values=result.group_values,
            group_routes=result.group_routes,
        )

    def _execute_exact_groups(
        self, statement: SelectStatement, membership: Expression
    ) -> Table:
        """Run ``statement`` exactly, restricted to the given groups.

        This is the exact half of the hybrid grouped route: only the rows of
        the uncovered groups are scanned (and charged as real IO).
        """
        where = (
            membership
            if statement.where is None
            else BinaryOp("and", statement.where, membership)
        )
        sub_statement = SelectStatement(
            items=list(statement.items),
            table=statement.table,
            joins=[],
            where=where,
            group_by=list(statement.group_by),
            having=None,
            order_by=[],
            limit=None,
            offset=0,
            distinct=False,
        )
        planned = plan_select(sub_statement, self.database.catalog, io_model=self.database.io_model)
        tracer = self.tracer
        if tracer.active:
            with tracer.span("exact-fill-in"):
                return traced_operator_execute(planned.root, tracer)
        return planned.root.execute()

    def _execute_range(self, sql: str, sketch: RouteSketch) -> ApproximateAnswer:
        """Aggregates over range-restricted input domains."""
        model = sketch.model
        stats = self.database.stats(model.table_name)
        result = answer_range(sketch.statement, model, stats, sketch.state)
        return ApproximateAnswer(
            sql=sql,
            table=result.table,
            route=result.route,
            is_exact=False,
            used_model_ids=result.used_model_ids,
            reason=result.reason,
            column_errors=result.column_errors,
            virtual_rows_generated=result.virtual_rows_generated,
        )

    def _execute_point(self, sql: str, sketch: RouteSketch) -> ApproximateAnswer:
        """Single model evaluation at the pinned group key and inputs."""
        from repro.core.approx.point import answer_point_query

        model = sketch.model
        group_key, inputs = sketch.state
        point = answer_point_query(model, inputs, group_key)
        output_name = sketch.statement.items[0].alias or model.output_column
        table = Table.from_dict("approximate", {output_name: [point.value]})
        return ApproximateAnswer(
            sql=sql,
            table=table,
            route="point",
            is_exact=False,
            used_model_ids=[model.model_id],
            reason="all model inputs pinned by equality predicates",
            column_errors={output_name: point.error.standard_error},
            virtual_rows_generated=1,
        )

    def _execute_analytic(self, sql: str, sketch: RouteSketch) -> ApproximateAnswer:
        """Closed-form aggregates from the model parameters."""
        model = sketch.model
        aggregates, input_ranges, input_means, row_count = sketch.state
        data: dict[str, list[Any]] = {}
        errors: dict[str, float] = {}
        for alias, function in aggregates:
            result = analytic_aggregate(
                model, function, input_ranges, row_count, input_means=input_means
            )
            data[alias] = [result.value]
            errors[alias] = result.error.standard_error
        table = Table.from_dict("approximate", data)
        return ApproximateAnswer(
            sql=sql,
            table=table,
            route="analytic-aggregate",
            is_exact=False,
            used_model_ids=[model.model_id],
            reason="closed-form aggregate from linear model parameters",
            column_errors=errors,
            virtual_rows_generated=0,
        )

    def _execute_virtual_table(self, sql: str, sketch: RouteSketch) -> ApproximateAnswer:
        """Generate the virtual table and run the statement's plan over it."""
        model = sketch.model
        statement = sketch.statement
        plan: EnumerationPlan = sketch.state
        tracer = self.tracer
        with tracer.span("enumerate") as span:
            virtual = generate_virtual_table(model, plan, table_name=model.table_name)
            if tracer.active:
                span.annotate(plan=plan.describe(), virtual_rows=virtual.num_rows)

        if self.use_legal_filter:
            legal = self._legal_filter_for(model)
            virtual = legal.filter_table(virtual)

        # Execute the original statement against the model-generated table.
        shadow_catalog = Catalog()
        shadow_catalog.register_table(virtual)
        try:
            planned = plan_select(statement, shadow_catalog, io_model=None)
            with tracer.span("evaluate"):
                if tracer.active:
                    result = traced_operator_execute(planned.root, tracer)
                else:
                    result = planned.root.execute()
        except (SQLError, ExecutionError) as exc:
            # e.g. an aggregate/function outside the supported set: record it
            # as a fallback reason instead of crashing the engine mid-route.
            raise ApproximationError(
                f"query plan cannot run over the model-generated table: {exc}"
            ) from exc

        errors = self._result_errors(statement, model, virtual)
        return ApproximateAnswer(
            sql=sql,
            table=result,
            route="virtual-table",
            is_exact=False,
            used_model_ids=[model.model_id],
            reason=f"parameter space enumerated ({plan.describe()})",
            column_errors=errors,
            virtual_rows_generated=virtual.num_rows,
        )

    #: Bound route -> its executor: the single dispatch point of :meth:`answer`.
    _ROUTE_EXECUTORS = {
        "grouped-model": _execute_grouped,
        "grouped-hybrid": _execute_grouped,
        "point": _execute_point,
        "range-aggregate": _execute_range,
        "analytic-aggregate": _execute_analytic,
        "virtual-table": _execute_virtual_table,
    }

    def _exact(self, sql: str, reason: str) -> ApproximateAnswer:
        result = self.database.sql(sql)
        return ApproximateAnswer(
            sql=sql,
            table=result.table,
            route="exact-fallback",
            is_exact=True,
            reason=reason,
        )

    # -- helpers -------------------------------------------------------------------------

    def _note_staleness(self, answer: ApproximateAnswer) -> None:
        """Flag answers served by stale models so callers can tell a fresh
        answer from one awaiting the maintenance loop."""
        stale_ids = [
            model_id
            for model_id in answer.used_model_ids
            if self.store.get(model_id).status == "stale"
        ]
        if stale_ids:
            note = f"served by stale model(s) {stale_ids} pending maintenance"
            answer.reason = f"{answer.reason}; {note}" if answer.reason else note

    def _legal_filter_for(self, model: CapturedModel) -> LegalCombinationFilter:
        key_columns = tuple(list(model.group_columns) + list(model.input_columns))
        cache_key = (model.table_name, key_columns)
        if cache_key not in self._legal_filters:
            table = self.database.table(model.table_name)
            # Building the filter reads the raw data once; it is an auxiliary
            # structure like an index, charged as a one-off scan.
            self.database.io_model.charge_scan(table, list(key_columns))
            self._legal_filters[cache_key] = LegalCombinationFilter.from_table(
                table, key_columns, round_decimals=3
            )
        return self._legal_filters[cache_key]

    def _result_errors(
        self, statement: SelectStatement, model: CapturedModel, virtual: Table
    ) -> dict[str, float]:
        """Standard-error estimates for the result columns derived from the model."""
        per_row = model.quality.residual_standard_error
        errors: dict[str, float] = {}
        n = max(virtual.num_rows, 1)
        for item in statement.items:
            if isinstance(item.expression, Star):
                errors[model.output_column] = per_row
                continue
            expression = item.expression
            name = item.alias or expression.output_name()
            aggregate = _first_aggregate(expression)
            if aggregate is not None:
                function, argument = aggregate
                if argument is None or model.output_column in argument.referenced_columns():
                    errors[name] = aggregate_error(function, per_row, n)
            elif model.output_column in expression.referenced_columns():
                errors[name] = per_row
        return errors


# ---------------------------------------------------------------------------
# Statement analysis helpers (qualifier stripping and conjunct splitting are
# shared with the routes package — one implementation for the whole engine)
# ---------------------------------------------------------------------------


def _referenced_columns(statement: SelectStatement) -> set[str]:
    names: set[str] = set()
    for item in statement.items:
        if isinstance(item.expression, Star):
            raise ApproximationError("SELECT * cannot be answered from a model (unknown column set)")
        names |= item.expression.referenced_columns()
    if statement.where is not None:
        names |= statement.where.referenced_columns()
    for expression in statement.group_by:
        names |= expression.referenced_columns()
    if statement.having is not None:
        names |= statement.having.referenced_columns()
    for order in statement.order_by:
        names |= order.expression.referenced_columns()
    return {_bare_name(name) for name in names}


def _aggregate_functions(statement: SelectStatement) -> tuple[str, ...]:
    """The aggregate functions the SELECT list computes, in item order."""
    functions: list[str] = []
    for item in statement.items:
        if isinstance(item.expression, Star):
            continue
        found = _first_aggregate(item.expression)
        if found is not None:
            functions.append(found[0])
    return tuple(functions)


def _has_aggregates(statement: SelectStatement) -> bool:
    for item in statement.items:
        if isinstance(item.expression, Star):
            continue
        if _first_aggregate(item.expression) is not None:
            return True
    return False


def _first_aggregate(expression: Expression) -> tuple[str, Expression | None] | None:
    """Find the first aggregate call inside an expression tree."""
    if isinstance(expression, FunctionCall) and expression.name.lower() in SUPPORTED_AGGREGATES:
        argument = expression.args[0] if expression.args else None
        return expression.name.lower(), argument
    for child in _children_of(expression):
        found = _first_aggregate(child)
        if found is not None:
            return found
    return None


def _children_of(expression: Expression) -> list[Expression]:
    if isinstance(expression, BinaryOp):
        return [expression.left, expression.right]
    if isinstance(expression, FunctionCall):
        return list(expression.args)
    if isinstance(expression, Between):
        return [expression.operand, expression.low, expression.high]
    if isinstance(expression, InList):
        return [expression.operand, *expression.values]
    return []


def _simple_aggregates(
    statement: SelectStatement, output_column: str
) -> list[tuple[str, str]] | None:
    """If every SELECT item is ``agg(output_column)`` with a supported function,
    return the (alias, function) pairs; otherwise None."""
    pairs: list[tuple[str, str]] = []
    for item in statement.items:
        expression = item.expression
        if isinstance(expression, Star) or not isinstance(expression, FunctionCall):
            return None
        function = expression.name.lower()
        if function not in ("min", "max", "avg", "sum"):
            return None
        if len(expression.args) != 1 or not isinstance(expression.args[0], ColumnRef):
            return None
        if _bare_name(expression.args[0].name) != output_column:
            return None
        alias = item.alias or f"{function}({output_column})"
        pairs.append((alias, function))
    return pairs if pairs else None


def _extract_pinned_values(where: Expression | None) -> dict[str, list[Any]]:
    """Columns pinned to literal values by the WHERE clause's top-level
    conjuncts — derived from the routes' shared constraint analysis, so
    equality/IN decomposition has a single implementation.  Multiple pins on
    one column intersect (``g = 1 AND g IN (1, 2)`` pins to ``[1]``), which
    is always sound for enumeration: the statement's WHERE is re-applied
    over the generated table."""
    constraints = extract_constraints(where)
    return {
        column: list(constraint.values)
        for column, constraint in constraints.by_column.items()
        if constraint.is_pinned
    }


def _relative_errors(approx: Table, exact: Table) -> dict[str, float]:
    """Mean relative error per numeric column, aligning result rows by position."""
    errors: dict[str, float] = {}
    if approx.num_rows == 0 or exact.num_rows == 0:
        return errors
    for approx_name, exact_name in zip(approx.schema.names, exact.schema.names):
        approx_column = approx.column(approx_name)
        exact_column = exact.column(exact_name)
        if not (approx_column.dtype.is_numeric and exact_column.dtype.is_numeric):
            continue
        n = min(len(approx_column), len(exact_column))
        approx_values = np.asarray(approx_column.to_numpy()[:n], dtype=np.float64)
        exact_values = np.asarray(exact_column.to_numpy()[:n], dtype=np.float64)
        mask = np.isfinite(approx_values) & np.isfinite(exact_values)
        if not mask.any():
            continue
        denominator = np.where(np.abs(exact_values[mask]) > 1e-12, np.abs(exact_values[mask]), 1.0)
        errors[approx_name] = float(np.mean(np.abs(approx_values[mask] - exact_values[mask]) / denominator))
    return errors
