"""The unified accuracy-aware query planner: one entry point, cost-routed.

Every SQL statement becomes one :class:`UnifiedPlan` whose candidate nodes
are either model-serving routes (the PR-2 routing machinery, bound once at
plan time by :meth:`ApproximateQueryEngine.sketch_route`) or the
exact vectorized pipeline (PR-3), each with a predicted cost (calibrated
from ``BENCH_hotpaths.json``) and a predicted relative error (from the
captured models' quality judgements).  The accuracy contract decides which
node executes; sampled executions are verified against exact and the
observed errors feed model quality, closing the loop.

Plans are cached in an LRU keyed on (sql, contract, catalog version,
model-store version): any DDL/data change or model lifecycle event
invalidates affected decisions, so a cached decision can never outlive the
state it was costed against.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.core.approx.engine import (
    ApproximateAnswer,
    ApproximateQueryEngine,
    RouteDecline,
    RouteSketch,
)
from repro.core.approx.error_bounds import ErrorEstimate
from repro.core.model_store import ModelStore
from repro.core.planner.contract import AccuracyContract, AUTO
from repro.core.planner.cost import CostModel
from repro.core.planner.feedback import FeedbackResult, ObservedErrorFeedback
from repro.core.planner.nodes import PlanNode, UnifiedPlan
from repro.core.snapshot import Snapshot
from repro.db.database import Database
from repro.db.sql.ast import SelectStatement
from repro.db.sql.executor import QueryResult
from repro.db.stats import TableStats
from repro.errors import ApproximationError, DegradedServiceError
from repro.db.table import Table
from repro.obs.flight import is_telemetry_table
from repro.obs.hub import normalize_reason
from repro.obs.trace import Span, Tracer

__all__ = ["PlannedAnswer", "UnifiedPlanner"]

#: Shared disabled tracer for planners running without an observability
#: hub: every span call degrades to a single attribute check.
_OFF_TRACER = Tracer(enabled=False)

#: Aggregate-specific scaling of the model's base relative error: counts
#: come from (near-live) cardinalities, extremes pay the Gaussian
#: extreme-value premium, value aggregates track the model's own scale.
_AGGREGATE_ERROR_FACTOR = {
    "count": 0.25,
    "avg": 1.0,
    "sum": 1.0,
    "min": 2.0,
    "max": 2.0,
    "stddev": 1.0,
    "var": 1.0,
}


@dataclass
class PlannedAnswer:
    """The result of executing one unified plan."""

    sql: str
    contract: AccuracyContract
    plan: UnifiedPlan
    table: Table
    #: The route that served the answer: the chosen node's route, or
    #: ``exact-fallback`` when no model route was bound or the bound one
    #: failed (the reason is on ``approx.reason``).
    route_taken: str
    is_exact: bool
    approx: ApproximateAnswer | None = None
    query_result: QueryResult | None = None
    elapsed_seconds: float = 0.0
    #: Set when this execution was sampled for verification.
    feedback: FeedbackResult | None = None
    column_errors: dict[str, float] = field(default_factory=dict)

    def rows(self) -> list[tuple]:
        return self.table.to_rows()

    def scalar(self) -> Any:
        if self.table.num_rows != 1 or self.table.num_columns != 1:
            raise ApproximationError(
                f"scalar() requires a 1x1 result, got "
                f"{self.table.num_rows}x{self.table.num_columns}"
            )
        return self.table.row(0)[0]

    def error_estimate(self, column: str) -> ErrorEstimate | None:
        """The error band attached to one result column (None when exact)."""
        if self.approx is not None:
            return self.approx.error_estimate(column)
        return None

    @property
    def observed_relative_error(self) -> float | None:
        return self.feedback.observed_relative_error if self.feedback else None

    @property
    def degraded_reason(self) -> str | None:
        """Why this answer was served from surviving models only (disclosure)."""
        return self.plan.degraded_reason


class UnifiedPlanner:
    """Cost-routes every statement between model serving and exact execution."""

    def __init__(
        self,
        database: Database,
        store: ModelStore,
        engine: ApproximateQueryEngine,
        cost_model: CostModel | None = None,
        feedback: ObservedErrorFeedback | None = None,
        plan_cache_size: int = 128,
    ) -> None:
        self.database = database
        self.store = store
        self.engine = engine
        self.cost_model = cost_model or CostModel.from_bench()
        self.feedback = feedback or ObservedErrorFeedback(database, store)
        #: Optional callable ``(SelectStatement) -> str | None`` naming why a
        #: statement cannot honestly run over the raw rows (the archive
        #: tier's model-only guard).  When it fires, only pure model routes
        #: may execute; anything else raises with the reason.
        self.archive_guard = None
        #: Optional callable ``(SelectStatement) -> str | None`` naming why a
        #: component this statement depends on is failed or quarantined
        #: ("``component`` — ``quarantine reason``").  Exact execution over
        #: the surviving partial rows would be silently wrong; pure model
        #: routes still answer (with the reason disclosed on the plan) and
        #: everything else raises :class:`~repro.errors.DegradedServiceError`.
        self.degraded_guard = None
        #: Optional :class:`repro.resilience.ResilienceRuntime`.  When set,
        #: the sampled feedback verifier runs behind a circuit breaker: a
        #: failing audit is recorded (and eventually skipped) instead of
        #: failing the answer it was auditing.
        self.resilience: Any = None
        #: Optional :class:`repro.obs.Observability` hub.  When set and
        #: enabled, every execution is traced, metered, compliance-accounted
        #: and slow-logged; when absent, execution pays one attribute check.
        self.obs = None
        self.plan_cache_size = plan_cache_size
        #: Bumped by :meth:`set_cost_model`; part of the plan-cache key, so
        #: a recalibration atomically invalidates every cached route
        #: decision costed against the superseded rates.
        self._cost_version = 0
        self._plan_cache: OrderedDict[tuple, UnifiedPlan] = OrderedDict()
        # Concurrent queries share this planner; OrderedDict mutation
        # (move_to_end / insert / evict) is not atomic.
        self._cache_lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0
        #: Last snapshot handed out, reused while both registries are
        #: unchanged so repeated tiny queries do not re-copy table/model
        #: maps.  A benign overwrite race just builds one extra snapshot.
        self._snapshot_memo: Snapshot | None = None

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Pin (or reuse) a consistent snapshot of the catalog and the models.

        The memoized snapshot is reused only while both *live* versions are
        unchanged and its model pin was never dirtied by own-write
        mirroring — a mirrored pin can carry the live version number while
        missing another thread's concurrent registration.
        """
        memo = self._snapshot_memo
        if (
            memo is not None
            and not memo.models._mirrored
            and memo.catalog.version == self.database.catalog.live_version
            and memo.models._version == self.store.live_version
        ):
            return memo
        snap = Snapshot.capture(self.database.catalog, self.store)
        self._snapshot_memo = snap
        return snap

    # -- planning -------------------------------------------------------------

    def plan(
        self, sql: str, contract: AccuracyContract | None = None, for_execution: bool = False
    ) -> UnifiedPlan:
        """Build (or fetch) the unified plan for ``sql`` under ``contract``.

        ``for_execution=False`` (EXPLAIN) is side-effect free; True permits
        what real execution would do anyway (the on-demand grouped harvest).
        """
        contract = contract or AUTO
        key = (
            sql,
            contract,
            for_execution,
            self.database.catalog.version,
            self.store.version,
            self._cost_version,
        )
        with self._cache_lock:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._cache_hits += 1
                self._plan_cache.move_to_end(key)
                return cached
            self._cache_misses += 1
        started = perf_counter()
        # Planning runs outside the lock (it may scan tables for the
        # on-demand harvest); two threads racing the same key just build
        # the plan twice and the last insert wins.
        plan = self._build_plan(sql, contract, for_execution)
        plan.planning_seconds = perf_counter() - started
        with self._cache_lock:
            self._plan_cache[key] = plan
            while len(self._plan_cache) > self.plan_cache_size:
                self._plan_cache.popitem(last=False)
        return plan

    def set_cost_model(self, cost_model: CostModel) -> None:
        """Install a recalibrated cost model and invalidate cached plans.

        The adaptive calibrator's entry point: the swap and the version bump
        happen under the cache lock, so no concurrent planner can cache a
        decision costed with the old rates under the new version.
        """
        with self._cache_lock:
            self.cost_model = cost_model
            self._cost_version += 1
            self._plan_cache.clear()

    def explain(self, sql: str, contract: AccuracyContract | None = None) -> str:
        """Render the chosen route, predicted cost and predicted error per node."""
        return self.plan(sql, contract, for_execution=False).explain()

    def plan_cache_info(self) -> dict[str, int]:
        with self._cache_lock:
            return {
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "size": len(self._plan_cache),
                "capacity": self.plan_cache_size,
            }

    def _build_plan(
        self, sql: str, contract: AccuracyContract, for_execution: bool
    ) -> UnifiedPlan:
        statement = self.database.parse_sql(sql)
        catalog_version = self.database.catalog.version
        store_version = self.store.version
        telemetry = _references_telemetry(statement)

        if not isinstance(statement, SelectStatement):
            is_create = type(statement).__name__.startswith("CreateTable")
            node = PlanNode(
                kind="ddl" if is_create else "dml",
                route="create" if is_create else "insert",
                detail="DDL/DML always executes against the stored data",
            )
            return UnifiedPlan(
                sql=sql,
                contract=contract,
                statement_type=node.route,
                candidates=[node],
                chosen=node,
                reason="not a SELECT; model routes do not apply",
                catalog_version=catalog_version,
                store_version=store_version,
                telemetry=telemetry,
            )

        stats_by_table = self._statement_stats(statement)
        exact_node = self._exact_node(sql, statement, stats_by_table)
        candidates = [exact_node]

        archived_reason = (
            self.archive_guard(statement) if self.archive_guard is not None else None
        )
        degraded_reason = (
            self.degraded_guard(statement) if self.degraded_guard is not None else None
        )

        sketch: RouteSketch | RouteDecline | None = None
        if contract.mode != "exact" or archived_reason is not None or degraded_reason is not None:
            # Even under a pinned-exact contract an archived (or degraded)
            # statement needs the model candidate sketched, so EXPLAIN shows
            # the only honest route next to the unavailable exact one.
            sketch = self.engine.sketch_route(
                sql, statement=statement, for_execution=for_execution
            )
        model_node = None
        if isinstance(sketch, RouteSketch):
            model_node = self._model_node(sketch, statement, stats_by_table)
            candidates.insert(0, model_node)

        if archived_reason is not None:
            exact_node.unavailable_reason = archived_reason
            if model_node is not None and sketch.uncovered_rows > 0:
                # A hybrid plan's exact fill-in scans raw rows the archive no
                # longer holds — it is as dishonest as plain exact execution.
                model_node.unavailable_reason = (
                    "hybrid route needs an exact fill-in over archived raw rows"
                )
            chosen, reason = self._choose_archived(contract, model_node, exact_node)
        elif degraded_reason is not None:
            exact_node.unavailable_reason = degraded_reason
            if model_node is not None and sketch.uncovered_rows > 0:
                # The hybrid fill-in would scan the surviving partial rows of
                # a failed component and silently under-count.
                model_node.unavailable_reason = (
                    "hybrid route needs an exact fill-in over a degraded component"
                )
            chosen, reason = self._choose_degraded(contract, model_node, exact_node)
        else:
            chosen, reason = self._choose(contract, model_node, exact_node)
        return UnifiedPlan(
            sql=sql,
            contract=contract,
            statement_type="select",
            candidates=candidates,
            chosen=chosen,
            reason=reason,
            catalog_version=catalog_version,
            store_version=store_version,
            sketch=sketch,
            archived_reason=archived_reason,
            degraded_reason=degraded_reason,
            cost_source=self.cost_model.source,
            telemetry=telemetry,
        )

    def _statement_stats(self, statement: SelectStatement) -> dict[str, TableStats]:
        stats: dict[str, TableStats] = {}
        names = []
        if statement.table is not None:
            names.append(statement.table.name)
        names.extend(join.table.name for join in statement.joins)
        for name in names:
            if name not in stats and self.database.has_table(name):
                stats[name] = self.database.stats(name)
        return stats

    def _exact_node(
        self,
        sql: str,
        statement: SelectStatement,
        stats_by_table: dict[str, TableStats],
    ) -> PlanNode:
        seconds = self.cost_model.exact_seconds(statement, stats_by_table)
        try:
            _, plan_text = self.database.executor.plan_statement(sql, statement)
            detail = plan_text.replace("\n", " → ")
        except Exception:  # pragma: no cover - malformed SQL surfaces at execution
            detail = "vectorized exact pipeline"
        return PlanNode(
            kind="exact",
            route="exact",
            detail=detail,
            predicted_seconds=seconds,
        )

    def _model_node(
        self,
        sketch: RouteSketch,
        statement: SelectStatement,
        stats_by_table: dict[str, TableStats],
    ) -> PlanNode:
        table_stats = (
            stats_by_table.get(statement.table.name) if statement.table is not None else None
        )
        predicted_error = self._predict_relative_error(sketch, table_stats)
        fill_scan_rows = (
            float(table_stats.row_count)
            if (table_stats is not None and sketch.uncovered_rows > 0)
            else None
        )
        seconds = self.cost_model.model_route_seconds(
            sketch.est_points, sketch.uncovered_rows, fill_scan_rows=fill_scan_rows
        )
        node = PlanNode(
            kind="model-route",
            route=sketch.route,
            detail=sketch.detail,
            predicted_seconds=seconds,
            predicted_relative_error=predicted_error,
            model_ids=list(sketch.model_ids),
        )
        if sketch.route == "grouped-hybrid":
            # The hybrid subplan made explicit: model-served groups and the
            # exact fill-in are separate children with their own costs.
            node.children = [
                PlanNode(
                    kind="model-route",
                    route="grouped-model",
                    detail=f"{sketch.n_model_groups} group(s) from model(s)",
                    predicted_seconds=self.cost_model.model_route_seconds(sketch.est_points),
                    predicted_relative_error=predicted_error,
                    model_ids=list(sketch.model_ids),
                ),
                PlanNode(
                    kind="exact",
                    route="exact-fill-in",
                    detail=(
                        f"{sketch.n_exact_groups} uncovered group(s), "
                        f"≈{sketch.uncovered_rows:.0f} row(s) computed exactly"
                    ),
                    predicted_seconds=self.cost_model.exact_fill_seconds(
                        sketch.uncovered_rows, fill_scan_rows=fill_scan_rows
                    ),
                ),
            ]
        return node

    def _predict_relative_error(
        self, sketch: RouteSketch, table_stats: TableStats | None
    ) -> float:
        """Predicted |relative error| of the sketched route.

        Base: the serving model's residual error relative to the output
        scale (recorded at capture, else derived from catalog stats), then
        scaled by the worst aggregate in the SELECT list — counts come from
        near-live cardinalities, extremes pay the extreme-value premium.
        """
        base = sketch.relative_rse
        if base is None:
            scale = None
            if table_stats is not None and sketch.output_column:
                column_stats = table_stats.columns.get(sketch.output_column)
                if column_stats is not None and column_stats.mean is not None:
                    scale = abs(float(column_stats.mean))
            if scale and scale > 0 and sketch.residual_standard_error >= 0:
                base = sketch.residual_standard_error / scale
            elif sketch.residual_standard_error == 0.0:
                base = 0.0
            else:
                base = math.inf
        if sketch.aggregate_functions:
            factor = max(
                _AGGREGATE_ERROR_FACTOR.get(function, 1.0)
                for function in sketch.aggregate_functions
            )
        else:
            factor = 1.0
        return base * factor

    def _choose_archived(
        self,
        contract: AccuracyContract,
        model_node: PlanNode | None,
        exact_node: PlanNode,
    ) -> tuple[PlanNode, str]:
        """Route choice when raw rows live in the model-only archive tier.

        Exact execution is off the table — it would silently compute over a
        partial table.  A pure model route is admitted when the contract
        tolerates its predicted error; otherwise the plan is deliberately
        unexecutable and carries the honest reason.
        """
        usable = model_node is not None and model_node.is_available
        if contract.mode == "exact":
            return exact_node, (
                "contract pins exact execution, but the raw rows are archived "
                "— execution will raise"
            )
        if not usable:
            detail = (
                model_node.unavailable_reason
                if model_node is not None
                else "no model route applies"
            )
            return exact_node, f"{detail}; archived raw rows — execution will raise"
        budget = contract.error_budget
        if contract.mode == "auto" and model_node.predicted_relative_error > budget:
            return exact_node, (
                f"predicted error {model_node.predicted_relative_error:.2%} exceeds "
                f"budget {budget:.2%} and the raw rows are archived — execution will raise"
            )
        return model_node, (
            "raw segments archived to the model-only tier; serving purely from "
            "warehouse models (zero raw IO)"
        )

    def _choose_degraded(
        self,
        contract: AccuracyContract,
        model_node: PlanNode | None,
        exact_node: PlanNode,
    ) -> tuple[PlanNode, str]:
        """Route choice when a needed component is failed or quarantined.

        Mirrors :meth:`_choose_archived`: exact execution would silently run
        over the surviving partial rows.  A pure model route within budget
        still answers (the degradation is disclosed on the plan); otherwise
        execution raises a typed :class:`~repro.errors.DegradedServiceError`.
        """
        usable = model_node is not None and model_node.is_available
        if contract.mode == "exact":
            return exact_node, (
                "contract pins exact execution, but a component this statement "
                "needs is degraded — execution will raise"
            )
        if not usable:
            detail = (
                model_node.unavailable_reason
                if model_node is not None
                else "no model route applies"
            )
            return exact_node, f"{detail}; degraded component — execution will raise"
        budget = contract.error_budget
        if contract.mode == "auto" and model_node.predicted_relative_error > budget:
            return exact_node, (
                f"predicted error {model_node.predicted_relative_error:.2%} exceeds "
                f"budget {budget:.2%} and a needed component is degraded — "
                "execution will raise"
            )
        return model_node, (
            "a component this statement needs is degraded; serving from the "
            "surviving models (disclosed)"
        )

    def _choose(
        self,
        contract: AccuracyContract,
        model_node: PlanNode | None,
        exact_node: PlanNode,
    ) -> tuple[PlanNode, str]:
        if contract.mode == "exact":
            return exact_node, "contract pins exact execution"
        if contract.mode == "approx":
            if model_node is not None:
                return model_node, "contract pins model serving"
            if contract.allow_exact_fallback:
                return exact_node, "no model route applies; exact fallback"
            return exact_node, "no model route applies (execution will raise)"
        # auto: admit the model route by error budget, then route by
        # deadline and predicted cost.
        if model_node is None:
            return exact_node, "no model route applies"
        budget = contract.error_budget
        if model_node.predicted_relative_error > budget:
            return exact_node, (
                f"predicted error {model_node.predicted_relative_error:.2%} exceeds "
                f"budget {budget:.2%}"
            )
        deadline = contract.deadline_seconds
        if exact_node.predicted_seconds > deadline >= model_node.predicted_seconds:
            return model_node, (
                f"exact predicted {exact_node.predicted_seconds * 1000:.2f}ms blows the "
                f"{contract.deadline_ms:g}ms deadline; model route fits"
            )
        if contract.max_relative_error is not None:
            # An explicit error budget is a declared willingness to accept
            # approximate answers: once the predicted error fits the budget
            # the model route wins regardless of the (usually marginal on
            # small tables) cost difference.
            return model_node, (
                f"predicted error {model_node.predicted_relative_error:.2%} within "
                f"budget {budget:.2%}"
            )
        if model_node.predicted_seconds <= exact_node.predicted_seconds:
            return model_node, (
                f"no error budget given; model route "
                f"{exact_node.predicted_seconds / max(model_node.predicted_seconds, 1e-12):.1f}x "
                f"cheaper than exact"
            )
        return exact_node, "exact execution predicted cheaper than the model route"

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        sql: str,
        contract: AccuracyContract | None = None,
        snapshot: Snapshot | None = None,
    ) -> PlannedAnswer:
        """Plan and execute ``sql`` under ``contract``.

        ``snapshot`` pins the execution to an explicitly held view (see
        :meth:`snapshot`); by default every query pins a fresh (or memoized
        still-current) snapshot at entry, so concurrent ``ingest()`` /
        ``maintain()`` / ``archive()`` commits can never be observed
        mid-query.
        """
        contract = contract or AUTO
        obs = self.obs
        if obs is None or not obs.enabled:
            return self._execute(sql, contract, _OFF_TRACER, snapshot)
        tracer = obs.tracer
        started = perf_counter()
        with tracer.trace("query", sql=sql.strip()) as root:
            try:
                answer = self._execute(sql, contract, tracer, snapshot)
            except Exception as exc:
                obs.metrics.inc("query_errors_total", error=type(exc).__name__)
                raise
        self._account(obs, answer, root, perf_counter() - started)
        return answer

    def _execute(
        self,
        sql: str,
        contract: AccuracyContract,
        tracer: Tracer,
        snapshot: Snapshot | None = None,
    ) -> PlannedAnswer:
        started = perf_counter()
        snap = snapshot if snapshot is not None else self.snapshot()
        # IO is measured around planning *and* execution: planning may
        # trigger the one-off on-demand grouped harvest, whose scan is
        # charged to the query that caused it (as the engine always did).
        # A per-execution scope (not a before/after snapshot of the global
        # accountant) keeps attribution correct when queries interleave.
        # The snapshot is pinned around the whole lifecycle — parse, plan,
        # route, execute, verify-sample — so every layer reads one state;
        # DML inside the pin still lands on live tables (the executor
        # resolves INSERT targets via ``live_table``).
        with self.database.io_model.scope() as io_scope, snap.reading(
            self.database.catalog, self.store
        ):
            return self._execute_scoped(sql, contract, tracer, started, io_scope)

    def _execute_scoped(
        self,
        sql: str,
        contract: AccuracyContract,
        tracer: Tracer,
        started: float,
        io_scope: Any,
    ) -> PlannedAnswer:
        with tracer.span("parse"):
            self.database.parse_sql(sql)
        with tracer.span("plan") as plan_span:
            plan = self.plan(sql, contract, for_execution=True)
        if tracer.active:
            _annotate_plan_span(plan_span, plan)

        if plan.statement_type != "select":
            with tracer.span("execute", route_taken=plan.statement_type):
                result = self.database.sql(sql)
            return PlannedAnswer(
                sql=sql,
                contract=contract,
                plan=plan,
                table=result.table,
                route_taken=plan.statement_type,
                is_exact=True,
                query_result=result,
                elapsed_seconds=perf_counter() - started,
            )

        if plan.archived_reason is not None and not plan.is_model_route:
            # No honest route: raw rows are archived and the contract (or
            # the model population) rules out pure model serving.  An
            # explicit refusal beats an answer computed over a partial table.
            raise ApproximationError(f"{plan.reason}: {plan.archived_reason}")

        if plan.degraded_reason is not None and not plan.is_model_route:
            # Same refusal for a failed/quarantined component: the surviving
            # raw rows are incomplete, and no surviving model can honestly
            # answer — a typed error carrying the quarantine reason.
            component, _, detail = plan.degraded_reason.partition(" — ")
            raise DegradedServiceError(
                f"{plan.reason}: {plan.degraded_reason}",
                component=component,
                reason=detail or plan.degraded_reason,
            )

        if plan.is_model_route or contract.mode == "approx":
            # The engine executes exactly the route the plan bound (or, in
            # approx mode without one, falls back with the plan's decline).
            with tracer.span("execute") as exec_span:
                try:
                    approx = self.engine.answer(
                        sql,
                        plan.sketch,
                        # Falling back to exact is dishonest when raw rows are
                        # archived or a needed component is degraded: a
                        # mid-route failure must surface, not degrade into an
                        # answer over the partial table.
                        allow_fallback=(
                            contract.allow_exact_fallback
                            and plan.archived_reason is None
                            and plan.degraded_reason is None
                        ),
                    )
                except ApproximationError as exc:
                    if plan.archived_reason is not None:
                        raise ApproximationError(
                            f"{exc}; {plan.archived_reason}"
                        ) from exc
                    raise
                if tracer.active:
                    exec_span.annotate(
                        route_taken=approx.route,
                        rows=approx.table.num_rows,
                    )
                    if approx.used_model_ids:
                        exec_span.annotate(models=list(approx.used_model_ids))
                    if approx.route == "exact-fallback":
                        exec_span.annotate(fallback_reason=approx.reason)
            approx.io = io_scope.snapshot()
            answer = PlannedAnswer(
                sql=sql,
                contract=contract,
                plan=plan,
                table=approx.table,
                route_taken=approx.route,
                is_exact=approx.is_exact,
                approx=approx,
                column_errors=dict(approx.column_errors),
            )
            # No feedback sampling over archived or degraded tables: "exact"
            # would run on the partial live rows and record bogus evidence
            # against a model that is answering for the full logical table.
            # Telemetry tables are excluded too — an audit is itself a query,
            # and auditing the telemetry warehouse would generate telemetry.
            if (
                not approx.is_exact
                and approx.used_model_ids
                and plan.archived_reason is None
                and plan.degraded_reason is None
                and not plan.telemetry
                and self.feedback.should_verify(contract)
            ):
                with tracer.span("verify-sample") as verify_span:
                    answer.feedback = self._verify_guarded(sql, approx)
                if tracer.active:
                    _annotate_verify_span(verify_span, answer.feedback, plan, contract)
            answer.elapsed_seconds = perf_counter() - started
            return answer

        with tracer.span("execute", route_taken="exact") as exec_span:
            result = self.database.sql(sql)
        if tracer.active:
            exec_span.annotate(rows=result.table.num_rows)
        return PlannedAnswer(
            sql=sql,
            contract=contract,
            plan=plan,
            table=result.table,
            route_taken="exact",
            is_exact=True,
            query_result=result,
            elapsed_seconds=perf_counter() - started,
        )

    def _verify_guarded(self, sql: str, approx: ApproximateAnswer) -> FeedbackResult | None:
        """Run the sampled audit behind the verifier circuit breaker.

        The audit is advisory: with the resilience runtime attached, a
        verifier that starts failing (exception storms, an unreadable exact
        path) has its failures recorded and — past the breaker threshold —
        further samples skipped, instead of failing answers that were
        already correctly served.  Without a runtime the failure propagates
        (fail-stop, the pre-resilience behaviour).
        """
        if self.resilience is None:
            return self.feedback.verify(sql, approx)
        breaker = self.resilience.breaker("planner.verify")
        if not breaker.allow():
            return None
        try:
            result = self.feedback.verify(sql, approx)
        except Exception as exc:  # noqa: BLE001 - the audit must not kill the answer
            breaker.record_failure(f"{type(exc).__name__}: {exc}")
            if self.obs is not None and self.obs.enabled:
                self.obs.metrics.inc("verifier_failures_total", error=type(exc).__name__)
            return None
        breaker.record_success()
        return result

    def _account(
        self, obs: Any, answer: PlannedAnswer, root: Span, elapsed_seconds: float
    ) -> None:
        """Post-execution metrics, compliance and slow-log accounting."""
        metrics = obs.metrics
        route = answer.route_taken
        metrics.inc("queries_total", route=route)
        metrics.observe("query_seconds", elapsed_seconds)
        io = answer.approx.io if answer.approx is not None else (
            answer.query_result.io if answer.query_result is not None else {}
        )
        pages = io.get("pages_read", 0.0)
        if pages:
            metrics.inc("pages_read_total", pages, route=route)
        if route == "exact-fallback":
            reason = answer.approx.reason if answer.approx is not None else None
            metrics.inc("fallbacks_total", reason=normalize_reason(reason))
        model_ids = (
            list(answer.approx.used_model_ids) if answer.approx is not None else []
        )
        degraded = answer.plan.degraded_reason is not None
        if degraded:
            metrics.inc("degraded_answers_total", route=route)
        obs.compliance.record_served(
            route,
            answer.plan.chosen.predicted_relative_error
            if answer.plan.is_model_route
            else None,
            model_ids=model_ids,
            degraded=degraded,
        )
        feedback = answer.feedback
        violated: bool | None = None
        if feedback is not None:
            metrics.inc("feedback_verifications_total")
            if feedback.demoted_model_ids:
                metrics.inc(
                    "feedback_demotions_total", float(len(feedback.demoted_model_ids))
                )
            if feedback.observed_relative_error is not None:
                violated = obs.compliance.record_verified(
                    route,
                    feedback.observed_relative_error,
                    answer.contract.error_budget,
                    model_ids=feedback.recorded_model_ids,
                    demoted_ids=feedback.demoted_model_ids,
                )
                if violated:
                    metrics.inc("contract_violations_total", route=route)
        if answer.plan.telemetry:
            # Queries over the telemetry warehouse are counted above but
            # must not feed the self-observation loops: no slow-log entry,
            # no calibration sample, no SLO event, no flight record —
            # otherwise reading telemetry would mint more telemetry.
            return
        obs.slow_log.observe(
            answer.sql,
            route,
            elapsed_seconds,
            trace_summary=root.summary(),
            contract=answer.contract.describe(),
        )
        # Enabled is re-checked here (not just inside each component) so the
        # obs-off serving path pays three attribute reads, not method calls.
        calibration = getattr(obs, "calibration", None)
        if calibration is not None and calibration.enabled:
            calibration.observe_trace(root)
        slo = getattr(obs, "slo", None)
        if slo is not None and slo.enabled:
            slo.observe_query(elapsed_seconds, degraded=degraded, violated=violated)
        flight = getattr(obs, "flight", None)
        if flight is not None and flight.enabled:
            flight.on_query(answer, root, elapsed_seconds)


def _references_telemetry(statement: Any) -> bool:
    """Whether the statement reads or writes a reserved ``_telemetry_*`` table."""
    if isinstance(statement, SelectStatement):
        names = [statement.table.name] if statement.table is not None else []
        names.extend(join.table.name for join in statement.joins)
    else:
        names = [getattr(statement, "name", None)]
    return any(is_telemetry_table(name) for name in names)


def _annotate_plan_span(span: Span, plan: UnifiedPlan) -> None:
    """Attach the route decision — chosen and rejected — to the plan span."""
    span.annotate(
        decision=plan.chosen.route,
        reason=plan.reason,
        candidates=[_candidate_line(plan, node) for node in plan.candidates],
    )
    if plan.archived_reason is not None:
        span.annotate(archived=plan.archived_reason)


def _candidate_line(plan: UnifiedPlan, node: PlanNode) -> str:
    status = "chosen" if node is plan.chosen else "rejected"
    return f"{status} — {node.render(0)[0]}"


def _annotate_verify_span(
    span: Span,
    feedback: FeedbackResult | None,
    plan: UnifiedPlan,
    contract: AccuracyContract,
) -> None:
    if feedback is None:
        return
    if feedback.observed_relative_error is None:
        span.annotate(outcome="no numeric columns to verify")
        return
    span.annotate(
        predicted_relative_error=f"{plan.chosen.predicted_relative_error:.2%}",
        observed_relative_error=f"{feedback.observed_relative_error:.2%}",
    )
    if contract.max_relative_error is not None:
        span.annotate(
            budget=f"{contract.max_relative_error:.2%}",
            within_budget=feedback.observed_relative_error
            <= contract.max_relative_error,
        )
    if feedback.demoted_model_ids:
        span.annotate(demoted_models=list(feedback.demoted_model_ids))
