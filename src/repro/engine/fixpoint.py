"""The :class:`Engine`: stratified bottom-up fixpoint evaluation.

Evaluation proceeds stratum by stratum (see
:mod:`repro.engine.stratify`); within a stratum
:meth:`Evaluation.run_stratum` -- the one semi-naive loop, which the
incremental maintainer also runs, seeded with a change -- iterates to a
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
fixpoint iteration.  Each plan is then lowered to the **columnar**
executor (:mod:`repro.engine.columnar`): full firings push one batch of
int-surrogate columns through the whole body, semi-naive rounds turn
each seeded bucket of the delta into the initial batch in a single
pass, and rule heads are asserted straight from the solution columns
(the int batch writer for stored filters, also over the virtual objects
of scalar path steps; the realizer's compiled column program for the
rest -- ``Evaluation._head_emitter`` names the rungs, EXPLAIN shows
them).

Every head path of a round writes into one round object, a
:class:`~repro.engine.delta.DeltaIndex`, which the next round reads as
its delta: the boxed paths append realizer-log entries, the int-native
emitter hands over the new surrogate columns its tables' batch writers
returned.  Those columns are also what the next round's hot seeds read,
so a fact derived on the int-native path allocates no container of its
own -- no log entry, no back-fill triple, nothing for the cyclic
collector to walk; entries are boxed only for a reader that asks
(generic and variable-method seeds, the interpreted oracle).

``interpreted=True`` runs the same plans through the interpreted
matcher instead -- the reference oracle the test suites compare the
columnar fixpoint against.  The plans chosen for full evaluations are
captured with their observed row counts and kernel names;
:meth:`Engine.explain` renders them.

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
from repro.engine.columnar import (
    columnar_head_emitter,
    compile_columnar_delta_plan,
    compile_columnar_plan,
)
from repro.engine.delta import DeltaIndex, SeedIndex
from repro.engine.explain import PlanReport, report_for_plan
from repro.engine.heads import HeadRealizer
from repro.engine.matching import Binding, MatchPolicy, match_atom_delta
from repro.engine.normalize import (
    COMPUTED,
    NormalizedRule,
    normalize_program,
)
from repro.engine.planner import Plan, PlanCache, relevant_bound
from repro.engine.profiler import EngineStats, gc_collections
from repro.engine.solve import execute_plan
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

    A columnar record owns the rule's column executor
    (``execute_cols``), the head variable -> column mapping, and the
    head emitter; an interpreted one (or a fact's empty body) has none
    and walks ``plan`` through the matcher.
    """

    __slots__ = ("rule", "plan", "counters", "bindings", "firings",
                 "kernels", "execute_cols", "head_pairs", "emit", "head")

    def __init__(self, rule: NormalizedRule, plan: Plan) -> None:
        self.rule = rule
        self.plan = plan
        self.counters = [0] * len(plan.steps)
        self.bindings = 0
        self.firings = 0
        self.kernels: tuple[str, ...] | None = None
        self.execute_cols = None
        self.head_pairs: tuple = ()
        self.emit = None
        #: The head rung EXPLAIN names (see ``Evaluation._head_emitter``).
        self.head = "per-row realize"


class _DeltaPlanRecord:
    """One rule's delta position: its rest-of-body plan and counters.

    ``counters`` is seed + per-step rows, filled by the columnar chain;
    the interpreted walk cannot share it (its plan counters exclude the
    seed position), so interpreted runs fill ``counters[0]`` plus the
    separate ``rest_counters`` -- exactly one of the two stays zero.
    """

    __slots__ = ("plan", "counters", "rest_counters", "execute_cols",
                 "head_pairs", "emit", "head")

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.counters = [0] * (len(plan.steps) + 1)
        self.rest_counters = [0] * len(plan.steps)
        self.execute_cols = None
        self.head_pairs: tuple = ()
        self.emit = None
        #: The head rung (see ``Evaluation._head_emitter``).
        self.head = "per-row realize"

    def tuples(self) -> int:
        """All per-step extensions observed through this position."""
        return sum(self.counters) + sum(self.rest_counters)


class Evaluation:
    """One evaluation's semi-naive state over one database: plan cache,
    plan and delta records, head emitters, realizer, stats, budget and
    limits.

    :meth:`run_stratum` is the one semi-naive loop.  :meth:`Engine.run`
    calls it once per stratum with no seed; the incremental maintainer
    keeps one instance on its result database and seeds it with a
    change.
    """

    def __init__(self, db: Database, *, limits: EngineLimits,
                 policy: MatchPolicy, interpreted: bool, budget,
                 stats: EngineStats, seminaive: bool = True,
                 catalog=None) -> None:
        self.db = db
        self.limits = limits
        self.policy = policy
        self.interpreted = interpreted
        #: Checked per round and kernel step; records read it per call,
        #: so a record compiled under one budget serves any later one.
        self.budget = budget
        self.stats = stats
        self.seminaive = seminaive
        #: Statistics new plans are built against: a run pins its
        #: start-of-run catalog; None reads the live one.
        self.catalog = catalog
        # One plan per (rule body, bound set): the database's owner
        # decides when it changes, so no version tracking.
        self.plan_cache = PlanCache(track_version=False)
        self.plan_records: dict[int, _RulePlanRecord] = {}
        # Delta-position records, keyed (rule identity, atom position) so
        # the hot per-round path avoids re-hashing rule bodies.
        self.delta_records: dict[tuple[int, int], _DeltaPlanRecord] = {}
        self.realizer = HeadRealizer(
            db, max_virtual_depth=limits.max_virtual_depth)

    def run_stratum(self, rules: list[NormalizedRule], level: int, *,
                    site: str, seed: DeltaIndex | None = None) -> int:
        """Round ``rules`` to their fixpoint; returns the facts derived.

        Without a ``seed`` the first round fires every rule in full and
        impure rules (superset, negation) fire in full every round.  A
        ``seed`` is the first round's delta; its caller vouches that no
        rule reads a changed predicate under negation or in a superset
        source, so rules fire only their seeded positions.  Isa readers
        fire in full in rounds whose delta holds isa.  Each round passes
        the fault point and budget checkpoint ``site`` once.
        """
        db = self.db
        budget = self.budget
        limits = self.limits
        stats = self.stats
        realizer = self.realizer
        interner = db.interner
        # Semi-naive eligibility and seeding are static properties of
        # the rule bodies: classify once per stratum, not per round.
        seeds = SeedIndex(db, rules)
        isa_full = frozenset(index for index, rule in enumerate(rules)
                             if _reads_isa(rule))
        impure: frozenset = frozenset()
        if seed is None:
            impure = frozenset(index for index, rule in enumerate(rules)
                               if not _is_pure(rule))
            isa_full |= impure
        delta = seed
        iterations = derived = 0
        while True:
            iterations += 1
            fault_point(site)
            if budget is not None:
                budget.check(site, stratum=level, iteration=iterations)
            if iterations > limits.max_iterations:
                raise ResourceLimitError(
                    f"no fixpoint after {limits.max_iterations} "
                    f"iterations in one stratum; raise "
                    f"EngineLimits.max_iterations if the program is "
                    f"genuinely that deep"
                )
            new = DeltaIndex(interner=interner)
            realizer.log = new
            if delta is None:
                for rule in rules:
                    self._fire_full(rule)
            else:
                for at, positions in seeds.plan(
                        delta, isa_full if delta.has_isa else impure):
                    if positions is None:
                        self._fire_full(rules[at])
                    else:
                        self._fire_delta(rules[at], delta, positions)
            if len(db) > limits.max_universe:
                raise ResourceLimitError(
                    f"universe grew past EngineLimits.max_universe = "
                    f"{limits.max_universe} objects; the program "
                    f"likely creates virtual objects without bound"
                )
            stats.count_derived(new)
            count = len(new)
            if budget is not None:
                budget.charge(count, site, stratum=level,
                              iteration=iterations)
            if not count:
                break
            derived += count
            delta = new if self.seminaive else None
        stats.iterations.append(iterations)
        return derived

    def tuples(self) -> int:
        """Per-step extensions observed through every record."""
        return (sum(sum(r.counters) for r in self.plan_records.values())
                + sum(r.tuples() for r in self.delta_records.values()))

    def _fire_full(self, rule: NormalizedRule) -> None:
        db = self.db
        record = self.plan_records.get(id(rule))
        if record is None:
            plan = self.plan_cache.get(db, rule.body, frozenset(),
                                       self.catalog)
            record = _RulePlanRecord(rule, plan)
            # Facts (empty bodies) have nothing to compile: the
            # interpreted walk yields the empty binding once.
            if not self.interpreted and plan.steps:
                cplan = compile_columnar_plan(db, plan, self.policy)
                record.kernels = cplan.kernel_names
                record.emit, raw, record.head = self._head_emitter(
                    rule, cplan)
                record.execute_cols, record.head_pairs = \
                    cplan.column_executor(record.counters,
                                          project=variables_of(rule.head),
                                          raw=raw)
                self.stats.plans_compiled += 1
            self.plan_records[id(rule)] = record
        else:
            self.plan_cache.hits += 1
        if record.execute_cols is not None:
            cols, nrows = record.execute_cols({}, self.budget)
            record.bindings += nrows
            record.firings += 1
            self._realize_columns(rule, record, cols, nrows)
            return
        solutions = list(execute_plan(db, record.plan, {}, self.policy,
                                      record.counters, interpreted=True))
        record.bindings += len(solutions)
        record.firings += 1
        self._realize_all(rule, solutions)

    def _fire_delta(self, rule: NormalizedRule, delta: DeltaIndex,
                    positions: list[int]) -> None:
        solutions: list[Binding] = []
        # Column batches are materialised first and realised after the
        # position loop, preserving the invariant that the solver never
        # iterates indexes the realizer mutates.
        batches: list[tuple[_DeltaPlanRecord, list, int]] = []
        for position in positions:
            record = self.delta_record(rule, position)
            if record.execute_cols is not None:
                cols, nrows = record.execute_cols(delta, self.budget)
                batches.append((record, cols, nrows))
            else:
                solutions += self.walk_delta(rule, position, record, delta)
        if solutions:
            self._realize_all(rule, solutions)
        for record, cols, nrows in batches:
            self._realize_columns(rule, record, cols, nrows)

    def delta_record(self, rule: NormalizedRule,
                     position: int) -> _DeltaPlanRecord:
        """The record of one rule's delta position, built on first use."""
        key = (id(rule), position)
        record = self.delta_records.get(key)
        if record is not None:
            self.plan_cache.hits += 1
            return record
        db = self.db
        atom = rule.body[position]
        # All of the delta atom's variables are bound in every seed, so
        # one plan covers every seed of this position.
        rest = rule.body[:position] + rule.body[position + 1:]
        bound = relevant_bound(rest, atom.variables())
        record = _DeltaPlanRecord(
            self.plan_cache.get(db, rest, bound, self.catalog))
        if not self.interpreted:
            cplan = compile_columnar_delta_plan(db, atom, record.plan,
                                                self.policy)
            record.emit, raw, record.head = self._head_emitter(rule, cplan)
            record.execute_cols, record.head_pairs = \
                cplan.column_executor(record.counters,
                                      project=variables_of(rule.head),
                                      raw=raw)
            self.stats.plans_compiled += 1
        self.delta_records[key] = record
        return record

    def walk_delta(self, rule: NormalizedRule, position: int,
                   record: _DeltaPlanRecord,
                   delta: DeltaIndex) -> list[Binding]:
        """Interpreted: full body bindings seeded at ``position``."""
        db = self.db
        policy = self.policy
        rest_counters = record.rest_counters
        solutions: list[Binding] = []
        for seed in match_atom_delta(db, rule.body[position], {},
                                     delta.boxed(), policy):
            record.counters[0] += 1
            solutions.extend(execute_plan(db, record.plan, seed, policy,
                                          rest_counters, interpreted=True))
        return solutions

    def _head_emitter(self, rule: NormalizedRule, cplan):
        """``(emit, raw, rung)``: how one columnar plan's batches are
        realised, and the name EXPLAIN gives that head rung.

        ``emit(cols, nrows, log)`` is the first that applies of:

        - ``int writer`` -- the int-native emitter
          (:func:`~repro.engine.columnar.columnar_head_emitter`): stored
          scalar and set filters, also over scalar path steps that
          create virtual objects; it alone consumes ``raw`` surrogate
          columns, skipping the deref at the plan boundary;
        - ``column program`` -- the realizer's compiled column program
          (:meth:`~repro.engine.heads.HeadRealizer.compile_columns`)
          for every other head: isa filters, ``@``-arguments, a method
          written twice, an open change log (so every maintained head),
          virtual objects outside the int writer's shape, computed
          methods, built-in filters.

        A head with a variable the plan does not bind gets no emitter
        and falls back to ``per-row realize``.
        """
        realizer = self.realizer
        emit = columnar_head_emitter(self.db, rule, cplan, realizer)
        rung = "int writer"
        if emit is None:
            emit = realizer.compile_columns(rule.head, cplan.slots)
            rung = "column program"
        if emit is None:
            rung = "per-row realize"
            self.stats.heads_fallback += 1
        else:
            self.stats.heads_compiled += 1
        return emit, rung == "int writer", rung

    def _realize_columns(self, rule: NormalizedRule, record, cols: list,
                         nrows: int) -> None:
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
            record.emit(cols, nrows, self.realizer.log)
            self.stats.firings += nrows
            return
        pairs = record.head_pairs
        solutions = [
            {var: cols[slot][i] for var, slot in pairs}
            for i in range(nrows)
        ]
        self._realize_all(rule, solutions)

    def _realize_all(self, rule: NormalizedRule,
                     solutions: list[Binding]) -> None:
        fault_point("engine.emit")
        realizer = self.realizer
        for binding in solutions:
            realizer.realize(rule.head, binding)
            self.stats.firings += 1


class Engine:
    """Evaluates a PathLog program bottom-up over a database.

    The input database's facts are never mutated: :meth:`run` clones it
    and returns the materialised result.  What the clone carries -- the
    cardinality catalog and the int mirrors the columnar kernels read
    -- is built on the input when missing, so repeated runs over an
    unchanged input pay for it once.  After a run, :attr:`stats` holds
    the :class:`~repro.engine.profiler.EngineStats` of the evaluation.
    ``interpreted=True`` evaluates through the interpreted matcher (the
    test oracle) instead of the columnar executor.
    """

    def __init__(self, db: Database,
                 program: Union[Program, Iterable[Rule]],
                 *, seminaive: bool = True,
                 limits: EngineLimits | None = None,
                 interpreted: bool = False,
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
        self._interpreted = interpreted
        self._evaluation: Evaluation | None = None  # the last run's
        self.stats = EngineStats(seminaive=seminaive)

    @classmethod
    def for_query(cls, db: Database,
                  program: Union[Program, Iterable[Rule]],
                  query, **kwargs):
        """A :class:`~repro.engine.magic.DemandEngine` for one query.

        The program is magic-set rewritten so evaluation derives only
        the facts the query demands.  ``query`` may be PathLog text,
        parsed literals, or flattened atoms; the remaining keyword
        arguments are this class's.
        """
        from repro.engine.magic import DemandEngine

        return DemandEngine(db, program, query, **kwargs)

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
        collections = gc_collections()
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
        if not self._interpreted:
            source.scalars.surrogate_view(source.interner)
            source.sets.surrogate_view(source.interner)
        work = source.clone()
        strata = stratify(self._rules)
        self.stats = EngineStats(seminaive=self._seminaive,
                                 strata=len(strata))
        evaluation = self._evaluation = Evaluation(
            work, limits=self._limits, policy=self._policy,
            interpreted=self._interpreted, budget=budget, stats=self.stats,
            seminaive=self._seminaive, catalog=work.catalog())
        self.stats.snapshot_s = time.perf_counter() - started
        try:
            for level, group in enumerate(strata):
                evaluation.run_stratum(group, level, site="engine.iteration")
        except BudgetExceededError as error:
            self.stats.stopped_at = error.where
            raise
        finally:
            self.stats.elapsed_s = time.perf_counter() - started
            self.stats.gc_passes = tuple(
                now - then for now, then in zip(gc_collections(), collections))
            self.stats.buckets_copied = work.buckets_copied
            self.stats.virtuals_created = evaluation.realizer.virtuals_created
            self.stats.plans_built = evaluation.plan_cache.misses
            self.stats.plan_cache_hits = evaluation.plan_cache.hits
            self.stats.tuples = evaluation.tuples()
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
        if self._evaluation is None:
            return []
        return [
            report_for_plan(record.plan, title=str(record.rule),
                            counters=record.counters,
                            bindings=record.bindings,
                            kernels=record.kernels, head=record.head,
                            adornments=adornments.get(id(record.rule)))
            for record in self._evaluation.plan_records.values()
            if record.plan.steps  # facts have no join order to explain
        ]

    def explain(self) -> str:
        """Render the per-rule plans of the last run as text."""
        reports = self.plan_reports()
        if not reports:
            return "no rule plans captured (run the engine first)"
        return "\n\n".join(report.render() for report in reports)

    # ------------------------------------------------------------------
    # Incremental maintenance entry point
    # ------------------------------------------------------------------

    def maintainer(self, result: Database, base: Database):
        """A :class:`~repro.engine.incremental.Maintainer` for ``result``.

        ``result`` is the database a previous :meth:`run` produced and
        ``base`` the live base database the change log rides on.
        Deletions are maintained by delete-and-rederive, insertions by
        seeded semi-naive rounds, both on the maintainer's own
        :class:`Evaluation` under this engine's limits; each
        :meth:`~repro.engine.incremental.Maintainer.apply` call brings
        its own budget (the run's budget belonged to the run).  The
        maintenance counters (runs, overdeleted, rederived, reinserted)
        are accumulated into this engine's :attr:`stats`.
        """
        from repro.engine.incremental import Maintainer

        return Maintainer(
            result, base, self._rules, limits=self._limits,
            policy=self._policy, interpreted=self._interpreted,
            stats=self.stats,
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
