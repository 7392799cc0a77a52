"""Multi-objective scheme autotuner: Pareto fronts over the design grid.

The paper's argument is a trade — spend less *area* on ECC, buy the
reliability back with cleaning policy — and this package searches that
trade as a whole instead of scoring one configuration at a time:

* :mod:`repro.autotune.explore` expands the design grid (scheme ×
  codec × cleaning interval × ECC ways × write-buffer depth × policy
  variant × scenario) and evaluates it in two stages: each distinct
  simulation once through the sweep pool and its cell cache, then each
  point's campaign, area and energy, with content-addressed point
  caching;
* :mod:`repro.autotune.pareto` computes the non-dominated set per
  workload under **CI-aware dominance** — a point only dominates when
  its Wilson interval clears the other's;
* :mod:`repro.autotune.recommend` picks a front point under FIT/area
  budgets, conservatively (the 95% upper bound must clear the budget).

The facade entry points are :func:`repro.api.autotune` and
:func:`repro.api.recommend`; ``repro autotune`` / ``repro recommend``
render them, and the job service serves them (``docs/autotune.md``).
"""

from repro.autotune.explore import (
    DesignPoint,
    PointMetrics,
    PointTask,
    SCHEMES,
    evaluate_point,
    expand_grid,
    explore,
    point_cells,
    point_key,
)
from repro.autotune.pareto import (
    OBJECTIVES,
    ObjectiveSpec,
    available_objectives,
    dominates,
    pareto_front,
    resolve_objectives,
)
from repro.autotune.recommend import feasible, recommend

__all__ = [
    "DesignPoint",
    "OBJECTIVES",
    "ObjectiveSpec",
    "PointMetrics",
    "PointTask",
    "SCHEMES",
    "available_objectives",
    "dominates",
    "evaluate_point",
    "expand_grid",
    "explore",
    "feasible",
    "pareto_front",
    "point_cells",
    "point_key",
    "recommend",
    "resolve_objectives",
]
