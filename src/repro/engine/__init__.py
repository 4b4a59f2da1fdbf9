"""The deductive engine: bottom-up evaluation of PathLog programs.

Section 6 of the paper says "well-known bottom-up techniques may be
applied"; this package supplies them:

- :mod:`repro.engine.matching` -- solving one primitive atom against a
  database under a partial binding (with index selection);
- :mod:`repro.engine.planner` -- cost-based join planning: static atom
  orders from cardinality statistics, with a keyed plan cache;
- :mod:`repro.engine.solve` -- the ad-hoc conjunction solver: planned
  orders run as columnar plans, or through the interpreted matcher
  (the test oracle);
- :mod:`repro.engine.columnar` -- set-at-a-time execution over
  int-surrogate columns: the one executor of fixpoints, maintenance
  and ad-hoc answers, with delta seeding and int-native head emission;
- :mod:`repro.engine.batch` -- the boxed column steps of atoms with no
  int form (isa enumeration, comparisons, row-at-a-time matcher steps)
  and the depth-first chunk loop behind lazy answers and existence
  checks;
- :mod:`repro.engine.explain` -- the EXPLAIN surface: structured plan
  reports with estimated vs. actual rows and access paths;
- :mod:`repro.engine.normalize` -- rule normalisation: head scalarity
  and range-restriction checks, hoisting of head read-expressions into
  the body, body flattening;
- :mod:`repro.engine.heads` -- head realisation, including the paper's
  virtual-object creation (scalar paths in heads define objects);
- :mod:`repro.engine.stratify` -- NT89-style stratification driven by
  the *strong* dependencies of superset filters (plus the
  full-evaluation closure the magic rewrite leans on);
- :mod:`repro.engine.magic` -- demand-driven evaluation: magic-set
  rewriting of a program for one query (adornments, magic seed facts,
  guarded rule variants, recorded fallbacks) and the
  :class:`DemandEngine` front door;
- :mod:`repro.engine.incremental` -- incremental view maintenance:
  seeded semi-naive insertion and delete-and-rederive for every
  stratum, driven by the database change log;
- :mod:`repro.engine.fixpoint` -- the :class:`Engine` driver with naive
  and semi-naive iteration, resource limits, plan capture, and
  profiling;
- :mod:`repro.engine.budget` -- cooperative :class:`QueryBudget`
  deadlines, derived-fact caps, and cancellation, checked at the
  engine's coarse-grained checkpoints (see ``docs/robustness.md``).
"""

from repro.engine.budget import QueryBudget
from repro.engine.explain import PlanReport, StepView, explain_conjunction
from repro.engine.fixpoint import Engine, EngineLimits
from repro.engine.incremental import MaintenanceReport, Maintainer
from repro.engine.magic import (
    DemandEngine,
    DemandReport,
    MagicRewrite,
    rewrite_for_query,
)
from repro.engine.normalize import NormalizedRule, normalize_program, normalize_rule
from repro.engine.planner import Plan, PlanCache, PlanStep, adornment, build_plan
from repro.engine.profiler import EngineStats
from repro.engine.solve import solve
from repro.engine.stratify import full_evaluation_closure, stratify

__all__ = [
    "DemandEngine",
    "DemandReport",
    "Engine",
    "EngineLimits",
    "EngineStats",
    "MagicRewrite",
    "MaintenanceReport",
    "Maintainer",
    "NormalizedRule",
    "Plan",
    "PlanCache",
    "PlanReport",
    "PlanStep",
    "QueryBudget",
    "StepView",
    "adornment",
    "build_plan",
    "explain_conjunction",
    "full_evaluation_closure",
    "normalize_program",
    "normalize_rule",
    "rewrite_for_query",
    "solve",
    "stratify",
]
