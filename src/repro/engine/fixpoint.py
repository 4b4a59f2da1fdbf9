"""The :class:`Engine`: stratified bottom-up fixpoint evaluation.

Evaluation proceeds stratum by stratum (see
:mod:`repro.engine.stratify`); within a stratum the engine iterates to a
fixpoint, either

- **naively** -- every rule re-evaluated against the full database each
  iteration -- or
- **semi-naively** -- after the first full pass, *pure* rules (bodies of
  data atoms and comparisons only) are re-evaluated only through the
  facts newly derived in the previous iteration, one delta position at a
  time, and only at the positions whose bucket of that delta is
  non-empty (:mod:`repro.engine.delta`; variable-method positions fire
  every round), in rule and then position order -- so a round costs
  what its delta can reach, and the realizer log is the one firing
  every position would give.  Rules containing superset or negation
  atoms, and rules reading ``isa`` while the delta holds new class
  memberships (the transitive closure makes per-edge deltas
  incomplete), are evaluated in full for that iteration.

Body solutions are materialised before head realisation so the solver
never iterates over indexes the realizer is mutating.

Rule bodies are evaluated through the cost-based planner
(:mod:`repro.engine.planner`): the engine owns a per-run
:class:`~repro.engine.planner.PlanCache` keyed on each rule body and its
initially-bound variable set, so the greedy join-order search runs once
per rule (and once per seeded delta position), not once per binding or per
fixpoint iteration.  By default each plan is additionally lowered to
its **batched** column-at-a-time form (:mod:`repro.engine.batch`,
``executor="batch"``): full firings push one batch through the whole
body, semi-naive rounds turn the realizer log into the initial batch in
a single pass, and rule heads are asserted straight from the solution
columns (simple heads by a precompiled emitter, all others by the
realizer's compiled column program).  ``executor="compiled"`` keeps the
tuple-at-a-time slot/kernel form of :mod:`repro.engine.compile` (the
B13 baseline), and ``executor="interpreted"`` (equivalently
``compiled=False``) the dict-binding walk (B10's baseline).  The plans
chosen for full evaluations are captured with their observed row counts
and kernel names; :meth:`Engine.explain` renders them.

Safeguards (the paper is silent on termination, so the engine is not):
``max_iterations`` per stratum, ``max_universe`` size, and
``max_virtual_depth`` for head-created objects, all raising
:class:`~repro.errors.ResourceLimitError` with actionable messages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Union

from repro.core.ast import Program, Rule
from repro.core.variables import variables_of
from repro.engine.batch import (
    compile_batch_delta_plan,
    compile_batch_plan,
    head_emitter,
)
from repro.engine.columnar import (
    IntDeltaIndex,
    columnar_head_emitter,
    compile_columnar_delta_plan,
    compile_columnar_plan,
)
from repro.engine.compile import compile_delta_plan, compile_plan
from repro.engine.delta import DeltaIndex, SeedIndex
from repro.engine.explain import PlanReport, report_for_plan
from repro.engine.heads import Derived, HeadRealizer
from repro.engine.matching import Binding, MatchPolicy, match_atom_delta
from repro.engine.normalize import (
    COMPUTED,
    NormalizedRule,
    normalize_program,
)
from repro.engine.planner import Plan, PlanCache, relevant_bound
from repro.engine.profiler import EngineStats
from repro.engine.solve import execute_plan, solve
from repro.engine.stratify import stratify
from repro.errors import BudgetExceededError, ResourceLimitError
from repro.testing.faults import fault_point
from repro.flogic.atoms import (
    EnumSupersetAtom,
    IsaAtom,
    NegationAtom,
    SupersetAtom,
)
from repro.oodb.database import Database


@dataclass(frozen=True, slots=True)
class EngineLimits:
    """Resource bounds for one evaluation run."""

    max_iterations: int = 10_000
    max_universe: int = 1_000_000
    max_virtual_depth: int = 32
    #: Virtual-nesting depth allowed for objects used *as methods* during
    #: rule matching.  The paper's generic-method programs (``kids.tc``)
    #: have an infinite minimal model; this bound truncates it uniformly
    #: (see :class:`repro.engine.matching.MatchPolicy`).  Depth 1 covers
    #: every example in the paper.
    max_method_depth: int | None = 1


class _RulePlanRecord:
    """Captured plan and observed rows for one rule's full evaluations.

    In compiled mode the record owns the rule's execution entry point
    (slot registers projected onto the head variables) and the kernel
    names for EXPLAIN; in batched mode it owns the column executor
    (``execute_cols``), the head variable -> column mapping, and -- for
    simple heads -- the batched head emitter.
    """

    __slots__ = ("rule", "plan", "counters", "bindings", "firings",
                 "execute", "kernels", "execute_cols", "head_pairs",
                 "emit")

    def __init__(self, rule: NormalizedRule, plan: Plan) -> None:
        self.rule = rule
        self.plan = plan
        self.counters = [0] * len(plan.steps)
        self.bindings = 0
        self.firings = 0
        self.execute = None
        self.kernels: tuple[str, ...] | None = None
        self.execute_cols = None
        self.head_pairs: tuple = ()
        self.emit = None


class _DeltaPlanRecord:
    """One rule's delta position: its rest-of-body plan and counters.

    ``counters`` is seed + per-step rows, filled by the compiled and
    batched chains; the interpreted executor cannot share it (its
    counters exclude the seed position), so interpreted runs fill
    ``counters[0]`` plus the separate ``rest_counters`` -- exactly one
    of the two stays zero.
    """

    __slots__ = ("plan", "counters", "rest_counters", "execute",
                 "execute_cols", "head_pairs", "emit")

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.counters = [0] * (len(plan.steps) + 1)
        self.rest_counters = [0] * len(plan.steps)
        self.execute = None
        self.execute_cols = None
        self.head_pairs: tuple = ()
        self.emit = None

    def tuples(self) -> int:
        """All per-step extensions observed through this position."""
        return sum(self.counters) + sum(self.rest_counters)


class Engine:
    """Evaluates a PathLog program bottom-up over a database.

    The input database's facts are never mutated: :meth:`run` clones it
    and returns the materialised result.  What the clone carries -- the
    cardinality catalog and, for the columnar executor, the int mirrors
    -- is built on the input when missing, so repeated runs over an
    unchanged input pay for it once.  After a run, :attr:`stats` holds
    the :class:`~repro.engine.profiler.EngineStats` of the evaluation.
    """

    def __init__(self, db: Database,
                 program: Union[Program, Iterable[Rule]],
                 *, seminaive: bool = True,
                 limits: EngineLimits | None = None,
                 use_planner: bool = True,
                 compiled: bool = True,
                 executor: str | None = None,
                 record_support: bool = False,
                 budget=None) -> None:
        self._db = db
        #: Cooperative :class:`~repro.engine.budget.QueryBudget` (or
        #: None): checked per fixpoint iteration and per kernel step,
        #: charged with every newly derived fact.
        self._budget = budget
        self._rules = normalize_program(program)
        self._seminaive = seminaive
        self._limits = limits or EngineLimits()
        self._policy = MatchPolicy(self._limits.max_method_depth)
        self._use_planner = use_planner
        # Kernel execution (batched or tuple-at-a-time) rides on the
        # planner's static plans; the pre-planner dynamic order has
        # nothing to compile.  The fixpoint defaults to the columnar
        # executor (int-surrogate columns; see
        # :mod:`repro.engine.columnar`) -- evaluation is set-semantics,
        # so neither the batch schedule nor the surrogate encoding can
        # change the result -- with ``executor="batch"`` as the boxed
        # column baseline and ``executor="compiled"`` /
        # ``compiled=False`` as the tuple-at-a-time and interpreted
        # baselines.
        if executor is None:
            executor = "columnar" if compiled else "interpreted"
        else:
            from repro.engine.solve import resolve_executor

            executor = resolve_executor(executor, compiled)
        self._executor = executor if use_planner else "interpreted"
        self._compiled = use_planner and self._executor != "interpreted"
        self._plan_cache = PlanCache(track_version=False)
        self._plan_records: dict[int, _RulePlanRecord] = {}
        # Delta-position records, keyed (rule identity, atom position) so
        # the hot per-iteration path avoids re-hashing rule bodies.
        self._delta_records: dict[tuple[int, int], _DeltaPlanRecord] = {}
        # Per-fact derivation support, recorded during run() so the
        # result can later be maintained incrementally (built lazily in
        # run(): stratification errors keep raising from there).
        self._record_support = record_support
        self.support = None
        self.stats = EngineStats(seminaive=seminaive)

    @classmethod
    def for_query(cls, db: Database,
                  program: Union[Program, Iterable[Rule]],
                  query, *, magic: bool = True, **kwargs):
        """A :class:`~repro.engine.magic.DemandEngine` for one query.

        With ``magic=True`` (the default) the program is magic-set
        rewritten so evaluation derives only the facts the query
        demands; ``magic=False`` is the full-fixpoint baseline.
        ``query`` may be PathLog text, parsed literals, or flattened
        atoms; the remaining keyword arguments are this class's.
        """
        from repro.engine.magic import DemandEngine

        return DemandEngine(db, program, query, magic=magic, **kwargs)

    def run(self) -> Database:
        """Evaluate to fixpoint; returns the materialised database.

        With a budget attached, expiry raises the typed
        :class:`~repro.errors.BudgetExceededError` subclass from the
        checkpoint that noticed; the error and :attr:`stats`
        (``stopped_at``, ``budget_checks``) report where evaluation
        stopped.  The input database is a pre-clone snapshot either
        way, so an interrupted run leaves no partial state behind --
        the half-built clone is simply discarded.
        """
        started = time.perf_counter()
        budget = self._budget
        if budget is not None:
            budget.begin_run()
            budget.check("engine.start")
        source = self._db
        # What the clone carries is built on the *source*, so it is
        # built once per source version instead of once per run: the
        # cardinality catalog, and the int mirrors the columnar kernels
        # and head emitters read (maintained in place from then on).
        source.catalog()
        if self._executor == "columnar":
            source.scalars.surrogate_view(source.interner)
            source.sets.surrogate_view(source.interner)
        work = source.clone()
        strata = stratify(self._rules)
        if self._record_support and self.support is None:
            from repro.engine.incremental import SupportIndex

            self.support = SupportIndex(self._rules)
        self.stats = EngineStats(seminaive=self._seminaive,
                                 strata=len(strata))
        # One plan per (rule body, bound set) for the whole run: the
        # engine owns its snapshot, so version tracking is unnecessary.
        # The cardinality catalog is likewise snapshotted once -- plans
        # built mid-run (delta positions) should not each pay a catalog
        # rebuild against the facts derived so far.
        self._plan_cache = PlanCache(track_version=False)
        self._run_catalog = work.catalog()
        self._plan_records = {}
        self._delta_records = {}
        realizer = HeadRealizer(
            work, max_virtual_depth=self._limits.max_virtual_depth
        )
        self.stats.snapshot_s = time.perf_counter() - started
        try:
            for level, group in enumerate(strata):
                self._eval_stratum(work, group, realizer, level)
        except BudgetExceededError as error:
            self.stats.stopped_at = error.where
            raise
        finally:
            self.stats.elapsed_s = time.perf_counter() - started
            self.stats.buckets_copied = work.buckets_copied
            self.stats.virtuals_created = realizer.virtuals_created
            self.stats.plans_built = self._plan_cache.misses
            self.stats.plan_cache_hits = self._plan_cache.hits
            self.stats.tuples = (
                sum(sum(r.counters) for r in self._plan_records.values())
                + sum(r.tuples() for r in self._delta_records.values())
            )
            if budget is not None:
                self.stats.budget_checks = budget.checks
        # The run asserted facts of the predicates its heads define and
        # nothing else, so the result keeps the run catalog and recounts
        # just those on its next use (heads with variable or computed
        # methods can touch anything: the result then rescans, as any
        # changed database does).
        defined = set().union(*(rule.defines for rule in self._rules))
        if not any(name is None or name == COMPUTED for _, name in defined):
            work.catalog_moved(defined)
        return work

    # ------------------------------------------------------------------
    # EXPLAIN surface
    # ------------------------------------------------------------------

    def plan_reports(self, adornments: dict | None = None
                     ) -> list[PlanReport]:
        """Structured plans of the last run, one per evaluated rule.

        Each report carries the join order chosen for the rule's *full*
        body evaluations, per-step estimated rows and access paths, and
        the actual rows observed across the run (delta-seeded firings
        re-plan per seed position and are not folded in).  ``adornments``
        maps rule ids to per-atom adornment labels (the demand engine's
        EXPLAIN ``adorn`` column).
        """
        adornments = adornments or {}
        return [
            report_for_plan(record.plan, title=str(record.rule),
                            counters=record.counters,
                            bindings=record.bindings,
                            kernels=record.kernels,
                            adornments=adornments.get(id(record.rule)))
            for record in self._plan_records.values()
            if record.plan.steps  # facts have no join order to explain
        ]

    def explain(self) -> str:
        """Render the per-rule plans of the last run as text."""
        reports = self.plan_reports()
        if not reports:
            return "no rule plans captured (run the engine first)"
        return "\n\n".join(report.render() for report in reports)

    # ------------------------------------------------------------------

    def _eval_stratum(self, db: Database, rules: list[NormalizedRule],
                      realizer: HeadRealizer, level: int = 0) -> None:
        budget = self._budget
        delta: list[Derived] | None = None
        iterations = 0
        # Semi-naive eligibility and seeding are static properties of
        # the rule bodies: classify once per stratum, not per round.
        seeds = SeedIndex(db, rules)
        impure = frozenset(index for index, rule in enumerate(rules)
                           if not _is_pure(rule))
        isa_full = impure.union(index for index, rule in enumerate(rules)
                                if _reads_isa(rule))
        while True:
            iterations += 1
            fault_point("engine.iteration")
            if budget is not None:
                budget.check("engine.iteration", stratum=level,
                             iteration=iterations)
            if iterations > self._limits.max_iterations:
                raise ResourceLimitError(
                    f"no fixpoint after {self._limits.max_iterations} "
                    f"iterations in one stratum; raise "
                    f"EngineLimits.max_iterations if the program is "
                    f"genuinely that deep"
                )
            new_log: list[Derived] = []
            realizer.log = new_log
            if delta is None:
                for rule in rules:
                    self._fire_full(db, rule, realizer)
            else:
                # One partition of the log serves every seeded position
                # of the round (the columnar one also interns each
                # bucket into surrogate columns once).
                index = (IntDeltaIndex(delta, db.interner)
                         if self._executor == "columnar"
                         else DeltaIndex(delta))
                for at, positions in seeds.plan(
                        index, isa_full if index.has_isa else impure):
                    if positions is None:
                        self._fire_full(db, rules[at], realizer)
                    else:
                        self._fire_delta(db, rules[at], realizer, index,
                                         positions)
            if len(db) > self._limits.max_universe:
                raise ResourceLimitError(
                    f"universe grew past EngineLimits.max_universe = "
                    f"{self._limits.max_universe} objects; the program "
                    f"likely creates virtual objects without bound"
                )
            self.stats.count_derived(new_log)
            if budget is not None:
                budget.charge(len(new_log), "engine.iteration",
                              stratum=level, iteration=iterations)
            if not new_log:
                break
            delta = new_log if self._seminaive else None
        self.stats.iterations.append(iterations)

    def _fire_full(self, db: Database, rule: NormalizedRule,
                   realizer: HeadRealizer) -> None:
        if not self._use_planner:
            solutions = list(solve(db, rule.body, {}, self._policy,
                                   use_planner=False))
            self._realize_all(db, rule, solutions, realizer)
            return
        record = self._plan_records.get(id(rule))
        if record is None:
            plan = self._plan_cache.get(db, rule.body, frozenset(),
                                        self._run_catalog)
            record = _RulePlanRecord(rule, plan)
            # Facts (empty bodies) have nothing to compile: the
            # interpreted walk yields the empty binding once.
            if self._executor == "columnar" and plan.steps:
                cplan = compile_columnar_plan(db, plan, self._policy)
                record.kernels = cplan.kernel_names
                record.emit, raw = self._head_emitter(
                    db, rule, realizer, cplan.slots, cplan)
                record.execute_cols, record.head_pairs = \
                    cplan.column_executor(record.counters,
                                          project=variables_of(rule.head),
                                          raw=raw, budget=self._budget)
                self.stats.plans_compiled += 1
            elif self._executor == "batch" and plan.steps:
                batch = compile_batch_plan(db, plan, self._policy)
                record.kernels = batch.kernel_names
                record.execute_cols, record.head_pairs = \
                    batch.column_executor(record.counters,
                                          project=variables_of(rule.head),
                                          budget=self._budget)
                record.emit, _ = self._head_emitter(
                    db, rule, realizer, batch.slots)
                self.stats.plans_compiled += 1
            elif self._compiled and plan.steps:
                compiled = compile_plan(db, plan, self._policy)
                record.kernels = compiled.kernel_names
                record.execute = compiled.executor(
                    record.counters, project=variables_of(rule.head),
                    budget=self._budget)
                self.stats.plans_compiled += 1
            self._plan_records[id(rule)] = record
        else:
            plan = record.plan
            self._plan_cache.hits += 1
        if record.execute_cols is not None:
            cols, nrows = record.execute_cols({})
            record.bindings += nrows
            record.firings += 1
            self._realize_columns(db, rule, record, cols, nrows, realizer)
            return
        if record.execute is not None:
            solutions = list(record.execute({}))
        else:
            solutions = list(
                execute_plan(db, plan, {}, self._policy, record.counters,
                             compiled=False)
            )
        record.bindings += len(solutions)
        record.firings += 1
        self._realize_all(db, rule, solutions, realizer)

    def _fire_delta(self, db: Database, rule: NormalizedRule,
                    realizer: HeadRealizer, delta: DeltaIndex,
                    positions: list[int]) -> None:
        solutions: list[Binding] = []
        # Batched positions are materialised as columns first and
        # realised after the position loop, preserving the invariant
        # that the solver never iterates indexes the realizer mutates.
        batches: list[tuple[_DeltaPlanRecord, list, int]] = []
        for position in positions:
            atom = rule.body[position]
            record = None
            if self._use_planner:
                # All of the delta atom's variables are bound in every
                # seed, so one plan covers every seed of this position.
                key = (id(rule), position)
                record = self._delta_records.get(key)
                if record is None:
                    rest = rule.body[:position] + rule.body[position + 1:]
                    bound = relevant_bound(rest, atom.variables())
                    plan = self._plan_cache.get(db, rest, bound,
                                                self._run_catalog)
                    record = _DeltaPlanRecord(plan)
                    if self._executor == "columnar":
                        cplan = compile_columnar_delta_plan(
                            db, atom, plan, self._policy)
                        record.emit, raw = self._head_emitter(
                            db, rule, realizer, cplan.slots, cplan)
                        record.execute_cols, record.head_pairs = \
                            cplan.column_executor(
                                record.counters,
                                project=variables_of(rule.head),
                                raw=raw, budget=self._budget)
                        self.stats.plans_compiled += 1
                    elif self._executor == "batch":
                        batch = compile_batch_delta_plan(db, atom, plan,
                                                         self._policy)
                        record.execute_cols, record.head_pairs = \
                            batch.column_executor(
                                record.counters,
                                project=variables_of(rule.head),
                                budget=self._budget)
                        record.emit, _ = self._head_emitter(
                            db, rule, realizer, batch.slots)
                        self.stats.plans_compiled += 1
                    elif self._compiled:
                        compiled = compile_delta_plan(db, atom, plan,
                                                      self._policy)
                        record.execute = compiled.executor(
                            record.counters,
                            project=variables_of(rule.head))
                        self.stats.plans_compiled += 1
                    self._delta_records[key] = record
                else:
                    self._plan_cache.hits += 1
            if record is not None and record.execute_cols is not None:
                cols, nrows = record.execute_cols(delta)
                batches.append((record, cols, nrows))
            elif record is not None and record.execute is not None:
                solutions.extend(record.execute(delta.entries))
            elif record is not None:
                counters = record.counters
                rest_counters = record.rest_counters
                for seed in match_atom_delta(db, atom, {}, delta.entries,
                                             self._policy):
                    counters[0] += 1
                    solutions.extend(
                        execute_plan(db, record.plan, seed, self._policy,
                                     rest_counters, compiled=False)
                    )
            else:
                rest = rule.body[:position] + rule.body[position + 1:]
                for seed in match_atom_delta(db, atom, {}, delta.entries,
                                             self._policy):
                    solutions.extend(solve(db, list(rest), seed, self._policy,
                                           use_planner=False))
        if solutions:
            self._realize_all(db, rule, solutions, realizer)
        for record, cols, nrows in batches:
            self._realize_columns(db, rule, record, cols, nrows, realizer)

    def _head_emitter(self, db: Database, rule: NormalizedRule,
                      realizer: HeadRealizer, slots: dict, cplan=None):
        """``(emit, raw)``: how one plan's solution batches are realised.

        ``emit(cols, nrows, log)`` is the first that applies of: the
        int-native emitter (columnar plans, the single-filter hot
        shape; it alone consumes ``raw`` surrogate columns, skipping
        the deref at the plan boundary), the boxed simple-head emitter,
        the realizer's compiled column program (every other head:
        virtual-creating paths, computed methods, built-in filters).
        Support recording observes per binding, so tracked rules get no
        emitter and fall back to per-row realisation -- as does a head
        with a variable the plan does not bind.
        """
        emit = None
        raw = False
        if self.support is None or not self.support.tracks(rule):
            if cplan is not None:
                emit = columnar_head_emitter(db, rule, cplan)
                raw = emit is not None
            if emit is None:
                emit = (head_emitter(db, rule, slots)
                        or realizer.compile_columns(rule.head, slots))
        if emit is None:
            self.stats.heads_fallback += 1
        else:
            self.stats.heads_compiled += 1
        return emit, raw

    def _realize_columns(self, db: Database, rule: NormalizedRule,
                         record, cols: list, nrows: int,
                         realizer: HeadRealizer) -> None:
        """Realise one batch of solution columns, set-at-a-time.

        The record's emitter (see :meth:`_head_emitter`) asserts the
        heads straight from the columns; plans without one fall back to
        per-row realisation through :meth:`_realize_all`.
        """
        fault_point("engine.emit")
        self.stats.batches += 1
        self.stats.batch_rows += nrows
        if not nrows:
            return
        if record.emit is not None:
            record.emit(cols, nrows, realizer.log)
            self.stats.firings += nrows
            return
        pairs = record.head_pairs
        solutions = [
            {var: cols[slot][i] for var, slot in pairs}
            for i in range(nrows)
        ]
        self._realize_all(db, rule, solutions, realizer)

    def _realize_all(self, db: Database, rule: NormalizedRule,
                     solutions: list[Binding],
                     realizer: HeadRealizer) -> None:
        fault_point("engine.emit")
        support = self.support
        if support is not None and support.tracks(rule):
            for binding in solutions:
                support.observe(rule, binding, db)
                realizer.realize(rule.head, binding)
                self.stats.firings += 1
            return
        for binding in solutions:
            realizer.realize(rule.head, binding)
            self.stats.firings += 1

    # ------------------------------------------------------------------
    # Incremental maintenance entry point
    # ------------------------------------------------------------------

    def maintainer(self, result: Database, base: Database):
        """A :class:`~repro.engine.incremental.Maintainer` for ``result``.

        ``result`` is the database a previous :meth:`run` produced and
        ``base`` the live base database the change log rides on.  When
        the run recorded support (``record_support=True``) the
        maintainer uses the counting algorithm for non-recursive
        support; otherwise everything is delete-and-rederive.
        Maintenance counters are accumulated into this engine's
        :attr:`stats`.
        """
        from repro.engine.incremental import Maintainer

        return Maintainer(
            result, base, self._rules, policy=self._policy,
            support=self.support, compiled=self._compiled,
            executor=self._executor,
            use_planner=self._use_planner, stats=self.stats,
            max_virtual_depth=self._limits.max_virtual_depth,
            budget=self._budget,
        )


def _is_pure(rule: NormalizedRule) -> bool:
    """Pure rules contain no superset/negation atoms (semi-naive eligible)."""
    return not any(
        isinstance(atom, (SupersetAtom, EnumSupersetAtom, NegationAtom))
        for atom in rule.body
    )


def _reads_isa(rule: NormalizedRule) -> bool:
    return any(isinstance(atom, IsaAtom) for atom in rule.body)


def evaluate(db: Database, program: Union[Program, Iterable[Rule]],
             **kwargs) -> Database:
    """One-shot convenience: build an :class:`Engine` and run it."""
    return Engine(db, program, **kwargs).run()
