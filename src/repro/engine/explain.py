"""The EXPLAIN surface: structured, renderable views of query plans.

A :class:`PlanReport` is the user-facing form of a planner
:class:`~repro.engine.planner.Plan`: ordered atoms with their estimated
rows and access path (index vs. scan), optionally augmented with the
*actual* per-step row counts observed while executing the plan
(``analyze``).  Reports render as aligned text tables via
:func:`repro.core.pretty.render_table`; they back
``Query.explain()``, ``Engine.explain()``, and the ``explain`` CLI
subcommand.

The ``kernel`` column names what each step runs, in one vocabulary
for ad-hoc conjunctions (``Query.explain``, the ``explain``
subcommand) and rule plans of a fixpoint run (``Engine.explain``,
``--explain``) alike -- both run on columnar plans: ``int ...`` for
steps served from the int-surrogate mirrors (every stored scalar and
set atom with a constant method and no ``@``-arguments), ``batch ...``
for a boxed isa or comparison step inside the same plan, and ``batch
row ...`` for a step that re-enters the interpreted matcher row by row
(negation, superset, dynamic methods).  Rule plans also name their head rung (``head: int
writer`` and so on): how the plan's solutions become facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.pretty import render_table
from repro.engine.columnar import compile_columnar_plan
from repro.engine.matching import UNRESTRICTED, Binding, MatchPolicy
from repro.engine.planner import Plan, PlanCache
from repro.engine.solve import _plan_for, execute_plan
from repro.flogic.atoms import Atom
from repro.oodb.database import Database


@dataclass(frozen=True, slots=True)
class StepView:
    """One plan step, ready for rendering."""

    position: int
    atom: str
    access: str
    est_rows: float
    actual_rows: int | None  #: None when the plan was not executed
    #: Kernel chosen for this step (``int ...`` / ``batch ...``); None
    #: when the plan ran through the interpreted matcher.
    kernel: str | None = None
    #: Boundness adornment (``bf``, ``magic``, ...) from a demand-driven
    #: rewrite; None outside demand runs.
    adornment: str | None = None


@dataclass(frozen=True, slots=True)
class PlanReport:
    """A structured plan: ordered atoms, estimates, observed rows."""

    title: str
    steps: tuple[StepView, ...]
    est_rows: float
    #: Solver bindings yielded when analyzed, else None.  This counts
    #: raw bindings *before* any projection/deduplication, so it can
    #: exceed ``len(Query.all(...))`` when distinct bindings project
    #: onto the same answer row.
    bindings: int | None
    #: Reason the conjunction could not be statically planned (unsafe
    #: negation, ...); the report then has no steps to show.
    fallback: str | None = None
    #: Demand section of a magic-set rewrite
    #: (:class:`repro.engine.magic.DemandReport`); rendered above the
    #: plan table when present.
    demand: object | None = None
    #: Maintenance section of the most recent incremental update
    #: (:class:`repro.engine.incremental.MaintenanceReport`): what the
    #: overdelete / rederive / insert passes did, or the recorded
    #: reason the memoised result had to be re-derived in full.
    maintenance: object | None = None
    #: How a rule plan's solutions become facts -- its head rung:
    #: ``int writer``, ``column program`` or ``per-row realize`` (see
    #: ``Evaluation._head_emitter``); None for an ad-hoc conjunction, which
    #: has no head.
    head: str | None = None

    @property
    def analyzed(self) -> bool:
        """Whether the plan was executed to collect actual rows."""
        return self.bindings is not None

    @property
    def compiled(self) -> bool:
        """Whether the steps carry kernel names."""
        return any(step.kernel is not None for step in self.steps)

    @property
    def adorned(self) -> bool:
        """Whether the steps carry demand-rewrite adornments."""
        return any(step.adornment is not None for step in self.steps)

    def render(self) -> str:
        """The aligned text table (what the CLI prints)."""
        lines = []
        if self.demand is not None:
            lines.append(self.demand.render())
            lines.append("")
        if self.maintenance is not None:
            lines.append(self.maintenance.render())
            lines.append("")
        lines.append(f"plan: {self.title}" if self.title else "plan:")
        if self.fallback is not None:
            lines.append(f"  fallback: {self.fallback}")
            return "\n".join(lines)
        headers = ["#", "atom", "access path", "est.rows"]
        aligns = "rllr"
        adorned = self.adorned
        if adorned:
            headers.insert(2, "adorn")
            aligns = "rlllr"
        compiled = self.compiled
        if compiled:
            headers.insert(-1, "kernel")
            aligns = aligns[:-1] + "l" + "r"
        if self.analyzed:
            headers.append("rows")
            aligns += "r"
        rows = []
        for step in self.steps:
            row = [str(step.position), step.atom]
            if adorned:
                row.append(step.adornment or "-")
            row.append(step.access)
            if compiled:
                row.append(step.kernel or "-")
            row.append(_fmt(step.est_rows))
            if self.analyzed:
                row.append(str(step.actual_rows))
            rows.append(row)
        lines.append(render_table(headers, rows, aligns))
        tail = f"estimated {_fmt(self.est_rows)} rows"
        if self.analyzed:
            tail += f"; {self.bindings} bindings"
        lines.append(tail)
        if self.head is not None:
            lines.append(f"head: {self.head}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fmt(value: float) -> str:
    if value >= 1e15:
        return f"{value:.1e}"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def report_for_plan(plan: Plan, *, title: str = "",
                    counters: list[int] | None = None,
                    bindings: int | None = None,
                    kernels: Iterable[str] | None = None,
                    adornments: Mapping[Atom, str] | None = None,
                    head: str | None = None) -> PlanReport:
    """Wrap a planner plan (and optional observed counts) as a report.

    ``adornments`` maps body atoms to their demand-rewrite adornment
    labels (the EXPLAIN ``adorn`` column); atoms outside the mapping
    render as ``-``.
    """
    names = tuple(kernels) if kernels is not None else None
    steps = tuple(
        StepView(
            position=index + 1,
            atom=str(step.atom),
            access=step.access,
            est_rows=step.rows,
            actual_rows=counters[index] if counters is not None else None,
            kernel=names[index] if names is not None else None,
            adornment=(adornments.get(step.atom, "-")
                       if adornments is not None else None),
        )
        for index, step in enumerate(plan.steps)
    )
    return PlanReport(title=title, steps=steps, est_rows=plan.est_rows,
                      bindings=bindings, head=head)


def explain_conjunction(db: Database, atoms: Iterable[Atom],
                        binding: Binding | None = None,
                        policy: MatchPolicy = UNRESTRICTED,
                        *, cache: PlanCache | None = None,
                        analyze: bool = True,
                        title: str = "") -> PlanReport:
    """Plan an ad-hoc conjunction and (by default) run it to observe rows.

    The report names the columnar kernel of every step -- the form
    ``Query`` answers and rule bodies run in -- and the ``analyze`` run
    executes that same form, so what you see is what runs.
    """
    initial = dict(binding or {})
    plan = _plan_for(db, atoms, initial, cache)
    kernels = compile_columnar_plan(db, plan, policy).kernel_names
    if not analyze:
        return report_for_plan(plan, title=title, kernels=kernels)
    counters = [0] * len(plan.steps)
    bindings = sum(
        1 for _ in execute_plan(db, plan, initial, policy, counters)
    )
    return report_for_plan(plan, title=title, counters=counters,
                           bindings=bindings, kernels=kernels)
