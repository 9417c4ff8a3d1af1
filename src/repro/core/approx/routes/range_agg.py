"""The range answer route: aggregates restricted by range predicates.

``SELECT SUM(y) FROM t WHERE x BETWEEN a AND b`` used to fall back to exact
execution whenever ``x`` was not pinned by an equality.  This route answers
it from the captured model instead, by restricting the model's input domain
to the queried range:

* enumerable inputs are evaluated over the *clipped* domain (the LOFAR
  frequencies inside ``[a, b]``), row-weighted like the grouped route;
* continuous inputs of closed-form-friendly families are integrated
  analytically over the clipped interval, with the covered row count
  estimated from the catalog's selectivity model;
* grouped models are combined across their (predicate-admitted) groups —
  sums add, averages weight by per-group covered rows, extremes take the
  extreme of the per-group extremes — with error estimates propagated
  accordingly.

Like the grouped route, it has a plan phase (:func:`plan_range_route`, where
every decline happens) and an evaluate phase (:func:`answer_range`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.approx.aggregates import supports_analytic
from repro.core.approx.error_bounds import combine_independent, extreme_value_error
from repro.core.approx.aggregates import _corner_grid, _dense_grid
from repro.core.approx.routes.aggcalc import (
    DomainRestriction,
    ItemSpec,
    _as_floats,
    aggregate_value_error,
    analyse_select_items,
    build_result_table,
    current_group_rows,
    evaluate_fit_over_domains,
    growth_scale,
    restricted_domains,
    staleness_rows,
)
from repro.core.approx.routes.constraints import WhereConstraints, extract_constraints
from repro.core.captured_model import CapturedModel
from repro.db.sql.ast import SelectStatement
from repro.db.stats import TableStats
from repro.db.table import Table
from repro.fitting.families import Constant, Exponential, LinearModel, PowerLaw
from repro.fitting.model import FitResult

__all__ = [
    "RangeAnswer",
    "RangeRoutePlan",
    "analyse_range_statement",
    "answer_range",
    "plan_range_route",
]


@dataclass
class RangeAnswer:
    """An aggregate over a range-restricted domain answered from a model."""

    table: Table
    route: str  # "range-aggregate"
    used_model_ids: list[int]
    reason: str
    column_errors: dict[str, float]
    virtual_rows_generated: int
    #: Estimated raw rows the range restriction covers.
    covered_rows: float


@dataclass(frozen=True)
class InputBox:
    """Continuous model inputs clipped to the queried ranges."""

    #: input column -> clipped (low, high) interval
    ranges: dict[str, tuple[float, float]]
    #: input column -> representative point (mean or interval midpoint)
    point: dict[str, float]
    #: Estimated fraction of raw rows inside the box (0.0: no rows).
    fraction: float


@dataclass(frozen=True)
class RangeRoutePlan:
    """The planned (not yet evaluated) range route for one statement.

    The plan phase runs every check that could make the route decline, so a
    plan :func:`answer_range` receives always evaluates.  Exactly one way of
    evaluating is bound: grouped models combine the admitted ``records``
    over ``restricted``; ungrouped models evaluate over ``restricted`` or,
    for continuous inputs, integrate analytically over ``box``.
    """

    specs: list[ItemSpec]
    restricted: DomainRestriction | None
    #: Grouped models: fit records of the predicate-admitted live groups.
    records: tuple = ()
    box: InputBox | None = None


def analyse_range_statement(
    statement: SelectStatement,
    model: CapturedModel,
) -> tuple[list[ItemSpec], WhereConstraints] | None:
    """The shape gate of the range route.

    Returns the analysed select items plus WHERE constraints when this route
    *could* serve the statement from ``model``: an ungrouped aggregate whose
    predicates restrict only columns the model covers, with at least one
    genuine range (interval) restriction.  None means the statement belongs
    to another route.
    """
    if statement.group_by or statement.having is not None or statement.distinct:
        return None
    if statement.order_by:
        return None

    analysed = analyse_select_items(statement, group_columns=())
    if analysed is None:
        return None
    specs, output_column = analysed
    if output_column != model.output_column:
        return None

    constraints = extract_constraints(statement.where)
    if not constraints.fully_analysed:
        return None
    if constraints.constrains(output_column):
        return None
    meaningful = set(model.input_columns) | set(model.group_columns)
    if any(column not in meaningful for column in constraints.by_column):
        return None
    if not any(
        constraints.by_column[column].has_interval for column in constraints.by_column
    ):
        # Equality/IN-only restrictions stay on the point/enumeration routes.
        return None
    return specs, constraints


def plan_range_route(
    statement: SelectStatement,
    model: CapturedModel,
    stats: TableStats,
) -> RangeRoutePlan | None:
    """Plan the range route: shape gate plus every decline, no evaluation.

    Returns None when the statement shape is outside this route — no range
    predicate (equality-only queries keep their existing routes), residual
    conjuncts the analysis cannot express, predicates over the modelled
    output column (which need per-row filtering) — or when ``model`` cannot
    serve it: NULL or post-capture group keys, failed per-group fits, or
    continuous inputs of a family without a closed form.
    """
    analysed_range = analyse_range_statement(statement, model)
    if analysed_range is None:
        return None
    specs, constraints = analysed_range
    restricted = restricted_domains(model, stats, constraints)
    if model.is_grouped:
        if restricted is None:
            return None
        records = _admitted_records(model, stats, constraints)
        if records is None:
            return None
        return RangeRoutePlan(specs=specs, restricted=restricted, records=records)
    if restricted is not None:
        return RangeRoutePlan(specs=specs, restricted=restricted)
    if not supports_analytic(model):
        return None
    box = _input_box(model, stats, constraints)
    if box is None:
        return None
    return RangeRoutePlan(specs=specs, restricted=None, box=box)


def answer_range(
    statement: SelectStatement,
    model: CapturedModel,
    stats: TableStats,
    plan: RangeRoutePlan,
) -> RangeAnswer:
    """Evaluate a planned range route (see :func:`plan_range_route`)."""
    specs = plan.specs
    if model.is_grouped:
        result = _combine_groups(specs, model, stats, plan)
    elif plan.box is None:
        result = _enumerated(specs, model, stats, plan.restricted)
    else:
        result = _analytic_ranges(specs, model, stats, plan.box)
    values, errors, virtual_rows, covered, detail = result

    table = build_result_table(specs, {spec.name: [values[spec.name]] for spec in specs})
    if statement.limit is not None:
        table = table.slice(statement.offset, statement.offset + statement.limit)

    return RangeAnswer(
        table=table,
        route="range-aggregate",
        used_model_ids=[model.model_id],
        reason=f"model evaluated over range-restricted domain ({detail})",
        column_errors=errors,
        virtual_rows_generated=virtual_rows,
        covered_rows=covered,
    )


# ---------------------------------------------------------------------------
# Ungrouped models
# ---------------------------------------------------------------------------


def _enumerated(
    specs: list[ItemSpec],
    model: CapturedModel,
    stats: TableStats,
    restricted: DomainRestriction,
):
    evaluation = evaluate_fit_over_domains(
        model.fit,  # type: ignore[arg-type]
        model,
        restricted,
        fitted_observations=stats.row_count,
        scale=1.0,
        stale_rows=0.0,  # cardinality comes from live statistics
        output_null_fraction=_output_null_fraction(model, stats),
    )
    if evaluation.n_points == 0:
        return _empty_result(specs)
    values: dict[str, Any] = {}
    errors: dict[str, float] = {}
    for spec in specs:
        value, error = aggregate_value_error(
            spec.function, evaluation, count_star=spec.argument is None
        )
        values[spec.name] = value
        errors[spec.name] = error
    detail = f"enumerated {evaluation.n_points} restricted domain point(s)"
    return values, errors, evaluation.n_points, evaluation.covered_rows, detail


def _input_box(
    model: CapturedModel,
    stats: TableStats,
    constraints: WhereConstraints,
) -> InputBox | None:
    """Clip every continuous input to its constraint (None: cannot integrate)."""
    input_ranges: dict[str, tuple[float, float]] = {}
    point: dict[str, float] = {}
    fraction = 1.0
    for column in model.input_columns:
        column_stats = stats.columns.get(column)
        if (
            column_stats is None
            or column_stats.min_value is None
            or column_stats.max_value is None
        ):
            return None
        low, high = float(column_stats.min_value), float(column_stats.max_value)
        constraint = constraints.constraint(column)
        if constraint is None:
            input_ranges[column] = (low, high)
            point[column] = float(column_stats.mean) if column_stats.mean is not None else (low + high) / 2.0
        elif constraint.is_pinned:
            # A non-numeric pin is a type error the exact engine raises on.
            if _as_floats(constraint.values) is None:
                return None
            # admits() also applies any interval bounds pinned alongside
            # (e.g. ``x IN (2, 8) AND x < 5`` keeps only 2).
            pinned = [float(v) for v in constraint.values if constraint.admits(v)]
            if not pinned:
                return InputBox(ranges=input_ranges, point=point, fraction=0.0)
            input_ranges[column] = (min(pinned), max(pinned))
            point[column] = float(np.mean(pinned))
            fraction *= sum(column_stats.selectivity_equals(v) for v in pinned)
        else:
            clipped = constraint.clip_interval(low, high)
            if clipped is None:
                return InputBox(ranges=input_ranges, point=point, fraction=0.0)
            input_ranges[column] = clipped
            point[column] = (clipped[0] + clipped[1]) / 2.0
            fraction *= column_stats.selectivity_range(clipped[0], clipped[1])
    return InputBox(ranges=input_ranges, point=point, fraction=fraction)


def _analytic_ranges(
    specs: list[ItemSpec],
    model: CapturedModel,
    stats: TableStats,
    box: InputBox,
):
    """Integrate a continuous-input model over the clipped input box."""
    fit: FitResult = model.fit  # type: ignore[assignment]
    input_ranges, point, fraction = box.ranges, box.point, box.fraction

    row_count = stats.row_count
    est_rows = row_count * fraction
    # Binomial allowance for the selectivity estimate under uniformity.
    rows_error = math.sqrt(max(row_count, 1) * fraction * max(1.0 - fraction, 0.0))
    if est_rows <= 0:
        return _empty_result(specs)

    # ``is_linear`` means linear in the *parameters* (a Polynomial is); the
    # shortcuts here need stronger properties: corner extremes need
    # monotonicity in each input, the midpoint average needs linearity in
    # the inputs.  Everything else gets the dense interior scan.
    family = fit.family
    linear_in_inputs = isinstance(family, (Constant, LinearModel))
    monotone = linear_in_inputs or isinstance(family, (Exponential, PowerLaw))
    grid_predictions: np.ndarray | None = None
    if not monotone or not linear_in_inputs:
        grid = _dense_grid(model.input_columns, input_ranges)
        grid_predictions = np.asarray(fit.predict(grid), dtype=np.float64)
    if monotone:
        extremes = _corner_predictions(fit, model.input_columns, input_ranges)
    else:
        extremes = grid_predictions
    span = float(np.max(extremes) - np.min(extremes)) if extremes.size else 0.0
    if linear_in_inputs:
        if model.input_columns:
            avg_value = float(
                fit.predict({name: np.array([point[name]]) for name in model.input_columns})[0]
            )
        else:
            avg_value = float(fit.predict({})[0])
    else:
        avg_value = float(np.mean(grid_predictions))
    rse = fit.residual_standard_error

    n = max(est_rows, 1.0)
    avg_error = math.sqrt(rse * rse * 2.0 / n + span * span / (12.0 * n))
    # Exact COUNT(col)/SUM skip NULL outputs; COUNT(*) counts every row.
    null_fraction = min(max(_output_null_fraction(model, stats), 0.0), 1.0)
    non_null_rows = est_rows * (1.0 - null_fraction)
    null_error = (
        math.sqrt(est_rows * null_fraction * (1.0 - null_fraction))
        if 0.0 < null_fraction < 1.0
        else 0.0
    )
    values: dict[str, Any] = {}
    errors: dict[str, float] = {}
    for spec in specs:
        function = spec.function
        if function == "count":
            if spec.argument is None:
                values[spec.name] = int(round(est_rows))
                errors[spec.name] = rows_error
            else:
                values[spec.name] = int(round(non_null_rows))
                errors[spec.name] = math.hypot(rows_error, null_error)
        elif function == "avg":
            values[spec.name] = avg_value
            errors[spec.name] = avg_error
        elif function == "sum":
            values[spec.name] = avg_value * non_null_rows
            errors[spec.name] = math.sqrt(
                (avg_value * math.hypot(rows_error, null_error)) ** 2
                + (avg_error * non_null_rows) ** 2
            )
        elif function == "min":
            values[spec.name] = float(np.min(extremes))
            errors[spec.name] = extreme_value_error(rse, est_rows)
        elif function == "max":
            values[spec.name] = float(np.max(extremes))
            errors[spec.name] = extreme_value_error(rse, est_rows)
    ranges_text = ", ".join(
        f"{name} in [{low:.6g}, {high:.6g}]" for name, (low, high) in input_ranges.items()
    )
    return values, errors, 0, est_rows, f"analytic integration over {ranges_text}"


# ---------------------------------------------------------------------------
# Grouped models (combine per-group answers)
# ---------------------------------------------------------------------------


def _admitted_records(
    model: CapturedModel,
    stats: TableStats,
    constraints: WhereConstraints,
) -> tuple | None:
    """The fit records of every predicate-admitted live group.

    None when a combined answer would be silently wrong: NULL group keys,
    a failed per-group fit, or a group that appeared after the capture.
    """
    # Rows with a NULL group key have no per-group fit but still belong in a
    # global aggregate; combining fitted groups would silently drop them.
    for column in model.group_columns:
        column_stats = stats.columns.get(column)
        if column_stats is not None and column_stats.null_count > 0:
            return None

    live_rows = current_group_rows(stats, model.group_columns)
    group_columns = model.group_columns
    admitted = []
    for record in model.fit.records:  # type: ignore[union-attr]
        if not all(
            constraints.admits(column, record.key[i]) for i, column in enumerate(group_columns)
        ):
            continue
        if live_rows is not None and live_rows.get(record.key, 0.0) <= 0.0:
            # The group no longer holds any rows; it contributes nothing.
            continue
        if record.result is None:
            # A failed per-group fit would silently bias the global
            # aggregate; leave the query to the enumeration/exact paths.
            return None
        admitted.append(record)
    if live_rows is not None:
        # Groups that appeared after the capture have no per-group fit; a
        # combined answer missing their rows would be silently incomplete.
        covered_keys = {record.key for record in admitted}
        for key, count in live_rows.items():
            if count <= 0.0 or key in covered_keys:
                continue
            if all(
                constraints.admits(column, key[i]) for i, column in enumerate(group_columns)
            ):
                return None
    return tuple(admitted)


def _combine_groups(
    specs: list[ItemSpec],
    model: CapturedModel,
    stats: TableStats,
    plan: RangeRoutePlan,
):
    admitted = plan.records
    if not admitted:
        return _empty_result(specs)
    restricted = plan.restricted
    scale = growth_scale(model, stats)
    stale_allowance = staleness_rows(model, stats)
    live_rows = current_group_rows(stats, model.group_columns)

    evaluations = []
    for record in admitted:
        if live_rows is not None and record.key in live_rows:
            observations, record_scale, record_stale = live_rows[record.key], 1.0, 0.0
        else:
            observations, record_scale, record_stale = (
                record.n_observations,
                scale,
                stale_allowance,
            )
        evaluation = evaluate_fit_over_domains(
            record.result,
            model,
            restricted,
            fitted_observations=observations,
            scale=record_scale,
            stale_rows=record_stale,
            output_null_fraction=_output_null_fraction(model, stats),
        )
        if evaluation.n_points == 0:
            return _empty_result(specs)
        evaluations.append(evaluation)

    per_group: dict[str, list[tuple[Any, float]]] = {}
    for spec in specs:
        per_group[spec.name] = [
            aggregate_value_error(
                spec.function, evaluation, count_star=spec.argument is None
            )
            for evaluation in evaluations
        ]

    total_covered = sum(evaluation.covered_rows for evaluation in evaluations)
    virtual_rows = sum(evaluation.n_points for evaluation in evaluations)
    weights = [
        evaluation.covered_rows / total_covered if total_covered > 0 else 0.0
        for evaluation in evaluations
    ]

    values: dict[str, Any] = {}
    errors: dict[str, float] = {}
    for spec in specs:
        pairs = per_group[spec.name]
        function = spec.function
        if function == "count":
            values[spec.name] = int(sum(v for v, _ in pairs))
            errors[spec.name] = combine_independent([e for _, e in pairs])
        elif function == "sum":
            values[spec.name] = float(sum(v for v, _ in pairs))
            errors[spec.name] = combine_independent([e for _, e in pairs])
        elif function == "avg":
            values[spec.name] = float(sum(w * v for w, (v, _) in zip(weights, pairs)))
            errors[spec.name] = combine_independent(
                [w * e for w, (_, e) in zip(weights, pairs)]
            )
        else:  # min / max
            chooser = min if function == "min" else max
            index = chooser(range(len(pairs)), key=lambda i: pairs[i][0])
            values[spec.name] = float(pairs[index][0])
            errors[spec.name] = extreme_value_error(
                evaluations[index].residual_standard_error, max(total_covered, 2.0)
            )
    detail = f"combined {len(admitted)} group(s) over restricted domain"
    return values, errors, virtual_rows, total_covered, detail


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _output_null_fraction(model: CapturedModel, stats: TableStats) -> float:
    column_stats = stats.columns.get(model.output_column)
    return column_stats.null_fraction if column_stats is not None else 0.0


def _empty_result(specs: list[ItemSpec]):
    """SQL semantics of a global aggregate over zero rows: COUNT 0, rest NULL."""
    values = {
        spec.name: (0 if spec.function == "count" else None) for spec in specs
    }
    errors = {spec.name: 0.0 for spec in specs}
    return values, errors, 0, 0.0, "restriction covers no rows"


def _corner_predictions(
    fit: FitResult, input_columns: tuple[str, ...], input_ranges: dict[str, tuple[float, float]]
) -> np.ndarray:
    """The fit evaluated at every corner of the (clipped) input box."""
    if not input_columns:
        return np.asarray(fit.predict({}), dtype=np.float64).reshape(-1)[:1]
    return np.asarray(fit.predict(_corner_grid(input_columns, input_ranges)), dtype=np.float64)
