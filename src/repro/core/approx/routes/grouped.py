"""The grouped answer route: GROUP BY aggregates served group-by-group.

The paper's Section 2 workload is built from queries like::

    SELECT source, AVG(intensity) FROM measurements GROUP BY source

Instead of materialising a virtual table and running the full plan over it,
this route evaluates the captured *per-group* models directly — one model
evaluation per group over the (range-restricted) input domain — and attaches
a per-group :class:`~repro.core.approx.error_bounds.ErrorEstimate` to every
aggregate.  Groups no servable model covers (failed fits, groups that
appeared after the last capture) are computed exactly over just their rows
and merged in, per the routing plan of
:mod:`repro.core.approx.routes.router`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.approx.routes.aggcalc import (
    DomainRestriction,
    ItemSpec,
    aggregate_value_error,
    analyse_select_items,
    build_result_table,
    current_group_rows,
    evaluate_fit_over_domains,
    growth_scale,
    restricted_domains,
    staleness_rows,
)
from repro.core.approx.routes.constraints import (
    WhereConstraints,
    bare_name as _bare,
    extract_constraints,
)
from repro.core.approx.routes.router import RoutingPolicy, plan_group_routing
from repro.core.captured_model import CapturedModel
from repro.core.model_store import ModelStore
from repro.db.expressions import BinaryOp, ColumnRef, Expression, InList, Literal
from repro.db.sql.ast import SelectStatement
from repro.db.stats import TableStats
from repro.db.table import Table

__all__ = [
    "GroupedAnswer",
    "GroupedRoutePlan",
    "GroupedStatementAnalysis",
    "analyse_grouped_statement",
    "answer_grouped",
    "plan_grouped_route",
]


@dataclass
class GroupedAnswer:
    """A GROUP BY aggregate answered from per-group models (plus exact fill-in)."""

    table: Table
    route: str  # "grouped-model" | "grouped-hybrid"
    used_model_ids: list[int]
    reason: str
    #: aggregate column -> worst per-group standard error (conservative).
    column_errors: dict[str, float]
    #: group key -> aggregate column -> standard error (model-served groups).
    group_errors: dict[tuple[Any, ...], dict[str, float]]
    #: group key -> aggregate column -> value (model-served groups).
    group_values: dict[tuple[Any, ...], dict[str, Any]]
    #: group key -> "model#<id>" / "exact" provenance.
    group_routes: dict[tuple[Any, ...], str]
    virtual_rows_generated: int


@dataclass(frozen=True)
class GroupedRoutePlan:
    """The planned (not yet evaluated) grouped route for one statement.

    This is the *plan phase* of the grouped route, split out so the unified
    query planner can inspect the model/exact group split — and predict cost
    and error for it — without evaluating a single model.  ``answer_grouped``
    consumes it to produce the actual answer.  Cached plans share it across
    executions, so it is frozen.
    """

    analysis: GroupedStatementAnalysis
    #: Candidate models that can honor the statement's predicates.
    candidates: list[CapturedModel]
    #: Per-group model-vs-exact assignments (the PR-2 router's output).
    routing: Any  # GroupRoutingPlan
    output_null_fraction: float
    #: Serving model id -> its input-domain restriction (the restriction
    #: depends only on the model's inputs, not the group).
    restrictions: dict[int, DomainRestriction]

    @property
    def n_model_groups(self) -> int:
        return len(self.routing.model_groups)

    @property
    def n_exact_groups(self) -> int:
        return len(self.routing.exact_groups)

    @property
    def is_hybrid(self) -> bool:
        return self.routing.is_hybrid

    @property
    def used_model_ids(self) -> list[int]:
        return self.routing.used_model_ids


def plan_grouped_route(
    statement: SelectStatement,
    store: ModelStore,
    stats: TableStats,
    policy: RoutingPolicy | None = None,
    models: list[CapturedModel] | None = None,
    analysis: "GroupedStatementAnalysis | None" = None,
) -> GroupedRoutePlan | None:
    """Plan the grouped route: shape gates + per-group routing, no evaluation.

    Returns None when the statement shape is outside this route, no group
    can be served from a model, or a serving model's input domain cannot be
    restricted, leaving the statement to the other routes.  Every decline
    happens here, so a plan :func:`answer_grouped` receives always serves.
    """
    if analysis is None:
        analysis = analyse_grouped_statement(statement)
    if analysis is None:
        return None
    group_columns = analysis.group_columns
    output_column = analysis.output_column
    constraints = analysis.constraints

    # NULL group keys form their own group in exact execution; the fitted
    # parameters cannot represent it, so decline when present.  (NULLs in
    # the aggregated column are handled quantitatively via the null
    # fraction below.)
    for column in group_columns:
        column_stats = stats.columns.get(column)
        if column_stats is not None and column_stats.null_count > 0:
            return None
    output_stats = stats.columns.get(output_column)
    output_null_fraction = output_stats.null_fraction if output_stats is not None else 0.0

    candidates = models if models is not None else store.grouped_candidates(
        stats.table_name, output_column, group_columns
    )
    # A model can only honor WHERE constraints over its own input (or group)
    # columns; serving a query whose predicate mentions anything else would
    # silently drop that predicate.  Restrict to candidates that cover every
    # constrained column — none left means exact execution.
    constrained_inputs = set(constraints.by_column) - set(group_columns)
    candidates = [m for m in candidates if constrained_inputs <= set(m.input_columns)]
    if not candidates:
        return None

    # The requested group set must be *complete*: either the catalog can
    # enumerate every current key (single enumerable group column), or some
    # fresh whole-table model's fit records do.  Otherwise groups that
    # appeared after the last capture would silently vanish from the result.
    single = group_columns[0] if len(group_columns) == 1 else None
    discoverable = (
        single is not None
        and stats.columns.get(single) is not None
        and stats.columns[single].domain is not None
    )
    if not discoverable and not any(
        model.status == "active"
        and model.coverage.covers_whole_table
        and model.fitted_row_count >= stats.row_count
        for model in candidates
    ):
        return None

    requested = _requested_group_keys(candidates, stats, group_columns, constraints)
    routing = plan_group_routing(
        store,
        stats.table_name,
        output_column,
        group_columns,
        requested,
        policy,
        models=candidates,
    )
    if not routing.model_groups:
        return None
    restrictions: dict[int, DomainRestriction] = {}
    for assignment in routing.model_groups:
        model = assignment.model
        if model.model_id not in restrictions:
            restricted = restricted_domains(model, stats, constraints)
            if restricted is None:
                return None
            restrictions[model.model_id] = restricted
    return GroupedRoutePlan(
        analysis=analysis,
        candidates=candidates,
        routing=routing,
        output_null_fraction=output_null_fraction,
        restrictions=restrictions,
    )


def answer_grouped(
    statement: SelectStatement,
    stats: TableStats,
    execute_exact_groups,
    route_plan: GroupedRoutePlan,
) -> GroupedAnswer:
    """Answer a GROUP BY aggregate statement from its planned grouped route.

    ``route_plan`` comes from :func:`plan_grouped_route`.
    ``execute_exact_groups(statement, membership_expression)`` is a callback
    (supplied by the engine) that runs the statement exactly, restricted to
    the given groups, against the real catalog — charging real IO.
    """
    analysis = route_plan.analysis
    group_columns = analysis.group_columns
    specs = analysis.specs
    order_keys = analysis.order_keys
    output_null_fraction = route_plan.output_null_fraction
    plan = route_plan.routing

    data: dict[str, list[Any]] = {spec.name: [] for spec in specs}
    group_errors: dict[tuple[Any, ...], dict[str, float]] = {}
    group_values: dict[tuple[Any, ...], dict[str, Any]] = {}
    group_routes: dict[tuple[Any, ...], str] = {}
    virtual_rows = 0

    # Live per-group cardinalities from the catalog supersede the fit-time
    # counts entirely (no growth heuristics, no staleness allowance needed).
    live_rows = current_group_rows(stats, group_columns)
    for assignment in plan.model_groups:
        model = assignment.model
        restricted = route_plan.restrictions[model.model_id]
        if live_rows is not None and assignment.key in live_rows:
            observations, scale, stale_rows = live_rows[assignment.key], 1.0, 0.0
        else:
            observations = assignment.fit.n_observations
            scale = growth_scale(model, stats)
            stale_rows = staleness_rows(model, stats)
        evaluation = evaluate_fit_over_domains(
            assignment.fit,
            model,
            restricted,
            fitted_observations=observations,
            scale=scale,
            stale_rows=stale_rows,
            output_null_fraction=output_null_fraction,
        )
        if evaluation.n_points == 0:
            # The restriction keeps no input values: the group has no
            # qualifying rows and (like exact execution) emits no row.
            group_routes[assignment.key] = f"model#{model.model_id} (empty restriction)"
            continue
        virtual_rows += evaluation.n_points
        errors: dict[str, float] = {}
        values: dict[str, Any] = {}
        for spec in specs:
            if spec.kind == "group":
                position = group_columns.index(spec.group_column)
                data[spec.name].append(assignment.key[position])
            else:
                value, error = aggregate_value_error(
                    spec.function, evaluation, count_star=spec.argument is None
                )
                data[spec.name].append(value)
                errors[spec.name] = error
                values[spec.name] = value
        group_errors[assignment.key] = errors
        group_values[assignment.key] = values
        group_routes[assignment.key] = assignment.reason

    exact_keys = [a.key for a in plan.exact_groups]
    if exact_keys:
        membership = _membership_expression(group_columns, exact_keys)
        exact_table = execute_exact_groups(statement, membership)
        spec_position = {
            spec.group_column: i for i, spec in enumerate(specs) if spec.kind == "group"
        }
        # Provenance is only trackable when every group column appears in
        # the SELECT list (it usually does; GROUP BY keys outside the list
        # still merge correctly, they just go unattributed).
        key_positions = (
            [spec_position[column] for column in group_columns]
            if all(column in spec_position for column in group_columns)
            else None
        )
        for row_index in range(exact_table.num_rows):
            row = exact_table.row(row_index)
            for position, spec in enumerate(specs):
                data[spec.name].append(row[position])
            if key_positions is not None:
                group_routes[tuple(row[p] for p in key_positions)] = "exact"

    table = build_result_table(specs, data)
    if order_keys:
        table = table.sort_by(order_keys)
    if statement.limit is not None:
        table = table.slice(statement.offset, statement.offset + statement.limit)
    elif statement.offset:
        table = table.slice(statement.offset, table.num_rows)

    column_errors = {
        spec.name: max(
            (errors[spec.name] for errors in group_errors.values() if spec.name in errors),
            default=0.0,
        )
        for spec in specs
        if spec.kind == "aggregate"
    }
    route = "grouped-hybrid" if exact_keys else "grouped-model"
    return GroupedAnswer(
        table=table,
        route=route,
        used_model_ids=plan.used_model_ids,
        reason=f"per-group model evaluation: {plan.describe()}",
        column_errors=column_errors,
        group_errors=group_errors,
        group_values=group_values,
        group_routes=group_routes,
        virtual_rows_generated=virtual_rows,
    )


# ---------------------------------------------------------------------------
# Statement analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupedStatementAnalysis:
    """Everything the grouped route needs to know about a statement's shape."""

    group_columns: tuple[str, ...]
    specs: list[ItemSpec]
    output_column: str
    order_keys: list[tuple[str, bool]]
    constraints: WhereConstraints


def analyse_grouped_statement(statement: SelectStatement) -> GroupedStatementAnalysis | None:
    """The single shape gate for the grouped route.

    The engine runs this once per query — to gate the model lookup and the
    on-demand grouped harvest — and hands the result to
    :func:`plan_grouped_route`, so what triggers a harvest and what the route
    serves cannot drift apart.
    """
    group_columns = _group_by_columns(statement)
    if group_columns is None:
        return None
    if statement.having is not None or statement.distinct:
        return None
    analysed = analyse_select_items(statement, group_columns)
    if analysed is None:
        return None
    specs, output_column = analysed
    order_keys = _order_keys(statement, [spec.name for spec in specs])
    if statement.order_by and order_keys is None:
        return None
    constraints = extract_constraints(statement.where)
    if not constraints.fully_analysed:
        return None
    if constraints.constrains(output_column):
        # Predicates over the predicted values need per-row filtering; the
        # virtual-table route handles those.
        return None
    return GroupedStatementAnalysis(
        group_columns=group_columns,
        specs=specs,
        output_column=output_column,
        order_keys=order_keys or [],
        constraints=constraints,
    )


def _group_by_columns(statement: SelectStatement) -> tuple[str, ...] | None:
    """The GROUP BY keys as bare column names (None if any key is complex)."""
    if not statement.group_by:
        return None
    columns: list[str] = []
    for expression in statement.group_by:
        if not isinstance(expression, ColumnRef):
            return None
        bare = _bare(expression.name)
        if bare not in columns:
            columns.append(bare)
    return tuple(columns)


def _order_keys(
    statement: SelectStatement, output_names: list[str]
) -> list[tuple[str, bool]] | None:
    """ORDER BY resolved against the route's output columns (None = decline)."""
    keys: list[tuple[str, bool]] = []
    for order in statement.order_by:
        expression = order.expression
        if isinstance(expression, Literal) and isinstance(expression.value, int):
            ordinal = expression.value
            if not 1 <= ordinal <= len(output_names):
                return None
            keys.append((output_names[ordinal - 1], order.ascending))
            continue
        if isinstance(expression, ColumnRef):
            name = expression.name
            if name in output_names:
                keys.append((name, order.ascending))
                continue
            bare = _bare(name)
            if bare in output_names:
                keys.append((bare, order.ascending))
                continue
        return None
    return keys


def _requested_group_keys(
    candidates: list[CapturedModel],
    stats: TableStats,
    group_columns: tuple[str, ...],
    constraints: WhereConstraints,
) -> list[tuple[Any, ...]]:
    """Every group key the query could produce, filtered by the WHERE clause.

    Keys come from two places: the candidate models' fit records (fitted
    *and* failed — failed groups must be computed exactly, not dropped) and,
    for a single enumerable group column, the catalog domain — which also
    surfaces groups that appeared after the last capture.
    """
    keys: dict[tuple[Any, ...], None] = {}
    for model in candidates:
        for record in model.fit.records:  # type: ignore[union-attr]
            aligned = tuple(
                record.key[model.group_columns.index(column)] for column in group_columns
            )
            keys.setdefault(aligned, None)
    if len(group_columns) == 1:
        column_stats = stats.columns.get(group_columns[0])
        if column_stats is not None and column_stats.domain is not None:
            for value in column_stats.domain:
                keys.setdefault((value,), None)

    admitted = [
        key
        for key in keys
        if all(constraints.admits(column, key[i]) for i, column in enumerate(group_columns))
    ]
    try:
        return sorted(admitted)
    except TypeError:
        return sorted(admitted, key=repr)


def _membership_expression(
    group_columns: tuple[str, ...], keys: list[tuple[Any, ...]]
) -> Expression:
    """A predicate selecting exactly the given group keys."""
    if len(group_columns) == 1:
        return InList(ColumnRef(group_columns[0]), [Literal(key[0]) for key in keys])
    disjunction: Expression | None = None
    for key in keys:
        conjunct: Expression | None = None
        for column, value in zip(group_columns, key):
            term = BinaryOp("=", ColumnRef(column), Literal(value))
            conjunct = term if conjunct is None else BinaryOp("and", conjunct, term)
        disjunction = conjunct if disjunction is None else BinaryOp("or", disjunction, conjunct)
    assert disjunction is not None
    return disjunction

