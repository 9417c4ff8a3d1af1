"""Answer routes for grouped and range-predicate approximate queries.

This package holds the machinery the engine uses to answer the two query
shapes the paper's Section 2 workload is built from — ``GROUP BY`` aggregates
and range-predicate aggregates — directly from captured models:

* :mod:`repro.core.approx.routes.constraints` analyses a WHERE clause's
  top-level conjuncts into per-column value/interval constraints;
* :mod:`repro.core.approx.routes.router` decides model-vs-exact *per group*,
  so healthy groups are served from models while uncovered groups are
  computed exactly and merged;
* :mod:`repro.core.approx.routes.grouped` evaluates per-group models
  group-by-group and attaches per-group error estimates;
* :mod:`repro.core.approx.routes.range_agg` answers aggregates restricted by
  range predicates by evaluating/integrating the model over the restricted
  input domain.
"""

from repro.core.approx.routes.constraints import (
    ColumnConstraint,
    WhereConstraints,
    extract_constraints,
)
from repro.core.approx.routes.grouped import GroupedAnswer, answer_grouped
from repro.core.approx.routes.range_agg import RangeAnswer, answer_range, plan_range_route
from repro.core.approx.routes.router import (
    GroupAssignment,
    GroupRoutingPlan,
    RoutingPolicy,
    plan_group_routing,
)

__all__ = [
    "ColumnConstraint",
    "WhereConstraints",
    "extract_constraints",
    "GroupAssignment",
    "GroupRoutingPlan",
    "RoutingPolicy",
    "plan_group_routing",
    "GroupedAnswer",
    "answer_grouped",
    "RangeAnswer",
    "answer_range",
    "plan_range_route",
]
