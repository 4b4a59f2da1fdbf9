"""The :class:`Query` facade: solve conjunctions against a database.

Queries are given as PathLog text (``"X : employee..vehicles.color[Z]"``
-- possibly several literals separated by commas), as parsed literals,
or as tuples of literals.  Answers are projections of the solutions onto
the *user* variables (auxiliary flattening variables are hidden),
deduplicated, in deterministic order.

Conjunctions are join-ordered by the cost-based planner; each Query
instance memoises plans in a :class:`~repro.engine.planner.PlanCache`
that invalidates itself when the database's facts change.
:meth:`Query.explain` exposes the chosen plan -- ordered atoms,
estimated vs. actual rows, index vs. scan access paths.

Examples::

    q = Query(db)
    q.ask("p1 : employee")                        # truth
    q.all("X : employee[age -> 30].city[C]")      # bindings
    q.objects("p1..assistants[salary -> 1000]")   # denotation
    print(q.explain("X : employee.city[C]"))      # the join plan
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, Sequence, Union

from repro.core.ast import Comparison, Literal, Negation, Reference, Var
from repro.core.pretty import literal_to_text
from repro.core.valuation import VariableValuation, valuate
from repro.core.variables import variables_of
from repro.engine.explain import PlanReport, explain_conjunction
from repro.engine.planner import PlanCache
from repro.engine.solve import exists as solve_exists
from repro.engine.solve import solve
from repro.errors import BudgetExceededError, EvaluationError
from repro.flogic.flatten import flatten_conjunction
from repro.lang.parser import parse_query, parse_reference
from repro.oodb.database import Database
from repro.oodb.oid import Oid, oid_sort_key
from repro.query.bindings import Answer

#: Accepted query inputs.
QueryInput = Union[str, Reference, Comparison, Sequence[Literal]]


class Query:
    """Evaluates conjunctive PathLog queries over one database.

    ``compiled=True`` (the default) executes each cached plan through
    its compiled slot/kernel form (:mod:`repro.engine.compile`);
    ``compiled=False`` keeps the interpreted dict-binding executor (the
    B10 baseline).

    With ``program=...`` the query runs *over rules*: each query first
    evaluates the program, then answers against the materialised result.
    ``magic=True`` (the default) evaluates **on demand** -- the program
    is magic-set rewritten per query (:mod:`repro.engine.magic`) so only
    the facts the query can reach are derived; ``magic=False`` is the
    materialise-everything baseline (the full fixpoint is computed once
    and shared by every query).  Demand evaluations are memoised per
    flattened conjunction in a bounded LRU.

    With ``incremental=True`` (the default) and an active change log on
    the base database (:meth:`~repro.oodb.database.Database.begin_changes`),
    memoised results are **maintained in place** when base facts change:
    the recorded insert/delete deltas drive the counting /
    delete-and-rederive passes of :mod:`repro.engine.incremental`
    instead of re-running the fixpoint from scratch.  When maintenance
    must fall back (negation or superset atoms over changed predicates,
    isa deletions, un-rederivable heads) the result is re-derived in
    full and the recorded reason is surfaced through
    :meth:`explain`'s ``maintenance:`` section.  ``incremental=False``
    restores the wholesale invalidate-on-any-change baseline (what the
    B12 benchmark measures against).
    """

    #: Demand memo bound: each entry retains a materialised database
    #: clone, so the cache is a small LRU rather than unbounded.
    _MAX_DEMAND_ENTRIES = 16

    def __init__(self, db: Database, *, compiled: bool = True,
                 program=None, magic: bool = True,
                 seminaive: bool = True, limits=None,
                 incremental: bool = True,
                 executor: str | None = None,
                 memo_entries: int | None = None,
                 budget=None, thread_safe: bool = False) -> None:
        self._db = db
        self._plans = PlanCache()
        self._compiled = compiled
        #: Cooperative :class:`~repro.engine.budget.QueryBudget` (or
        #: None), shared by every layer a query touches: program
        #: evaluation, incremental maintenance, and the ad-hoc
        #: conjunction solve.  The deadline anchors on first use.
        self._budget = budget
        #: None defers to the per-layer defaults: ad-hoc conjunction
        #: solving stays tuple-at-a-time (answers stream lazily -- an
        #: ``ask()`` stops at the first solution), while program
        #: evaluation uses the engine's batched default.  An explicit
        #: value pins both layers.
        self._executor = executor
        self._program = program
        self._magic = magic
        self._seminaive = seminaive
        self._limits = limits
        self._incremental = incremental
        self._memo_entries = (self._MAX_DEMAND_ENTRIES
                              if memo_entries is None else memo_entries)
        self._materialized: Database | None = None
        self._demand_dbs: dict[tuple, Database] = {}
        self._demand_engines: dict[tuple, object] = {}
        #: One plan cache per memoised result database (keyed by id),
        #: so repeat queries skip planning and kernel lowering.
        self._result_caches: dict[int, PlanCache] = {}
        self._cache_version: int | None = None
        #: Per-result maintenance bookkeeping (all keyed by result id):
        #: the engine that produced it, its lazily-built maintainer, and
        #: the (data version, change-log cursor) it is synced to.
        self._engines: dict[int, object] = {}
        self._maintainers: dict[int, object] = {}
        self._memo_state: dict[int, tuple[int, int]] = {}
        #: The :class:`~repro.engine.magic.DemandEngine` behind the most
        #: recent demand evaluation (stats, demand report, rule plans).
        self.last_demand = None
        #: The :class:`~repro.engine.incremental.MaintenanceReport` of
        #: the most recent evaluation: what incremental maintenance did,
        #: or why it fell back to full re-derivation.  None when the
        #: memoised result was simply fresh (or on a first evaluation).
        self.last_maintenance = None
        #: Memoised results evicted from the LRU over this Query's life.
        self.memo_evictions = 0
        #: Copy-on-write copies made by this Query's evaluations over
        #: its life, publication back-fills included (see
        #: :attr:`~repro.oodb.database.Database.buckets_copied`).
        self.buckets_copied = 0
        #: Persistent change-log lease pinning the memo low-water mark.
        self._hold = None
        #: With ``thread_safe=True`` the memo bookkeeping in
        #: :meth:`_db_for` (evaluation, maintenance, eviction, LRU
        #: reordering) runs under one re-entrant lock, and freshly
        #: materialised result databases are *published*: their lazy
        #: mirror-first columns are drained before any other thread can
        #: read them, so concurrent readers never race a back-fill.
        #: The conjunction solve itself still runs unlocked -- safe as
        #: long as the answering databases are not mutated concurrently
        #: (the server's single-writer gate guarantees exactly that).
        self._thread_safe = thread_safe
        self._lock = threading.RLock()

    @property
    def plan_cache(self) -> PlanCache:
        """The plan cache (hits/misses/invalidations are inspectable)."""
        return self._plans

    # ------------------------------------------------------------------
    # Program evaluation (demand-driven or full fixpoint)
    # ------------------------------------------------------------------

    def _db_for(self, atoms: tuple, budget=None) -> Database:
        """The database to answer against: base, demanded, or full.

        ``budget`` overrides the construction-time budget for this one
        evaluation (servers attach a per-request deadline to a shared
        Query this way); memo lookups and maintenance bookkeeping run
        under the instance lock when ``thread_safe=True``.
        """
        if self._program is None:
            return self._db
        with self._lock:
            return self._db_for_locked(atoms, budget)

    def _db_for_locked(self, atoms: tuple, budget=None) -> Database:
        if budget is None:
            budget = self._budget
        if budget is not None:
            budget.start()
            budget.check("query")
        version = self._db.data_version()
        self.last_maintenance = None
        if not self._incremental and version != self._cache_version:
            # Baseline discipline: any base change invalidates every
            # memoised result wholesale.
            self._materialized = None
            self._demand_dbs.clear()
            self._demand_engines.clear()
            self._result_caches.clear()
            self._engines.clear()
            self._maintainers.clear()
            self._memo_state.clear()
            self._cache_version = version
        if not self._magic:
            result = self._materialized
            if result is not None and not self._fresh(result, version):
                self._forget(result)
                self._materialized = result = None
            if result is None:
                from repro.engine.fixpoint import Engine

                engine = Engine(
                    self._db, self._program, seminaive=self._seminaive,
                    limits=self._limits, compiled=self._compiled,
                    executor=self._executor,
                    record_support=self._record_support(),
                    budget=budget,
                )
                result = engine.run()
                self._materialized = result
                self._register(result, engine, version)
                self.buckets_copied += result.buckets_copied
            return result
        key = tuple(atoms)
        result = self._demand_dbs.get(key)
        if result is not None:
            # LRU touch: re-insert at the most-recent end.
            engine = self._demand_engines.pop(key)
            self._demand_engines[key] = engine
            self._demand_dbs.pop(key)
            self._demand_dbs[key] = result
            if not self._fresh(result, version):
                self._evict(key)
                result = None
        if result is None:
            from repro.engine.magic import DemandEngine

            engine = DemandEngine(
                self._db, self._program, key, magic=True,
                seminaive=self._seminaive, limits=self._limits,
                compiled=self._compiled, executor=self._executor,
                record_support=self._record_support(),
                budget=budget,
            )
            result = engine.run()
            if self._memo_entries > 0:
                while self._demand_dbs \
                        and len(self._demand_dbs) >= self._memo_entries:
                    self._evict(next(iter(self._demand_dbs)), count=True)
                self._demand_dbs[key] = result
                self._demand_engines[key] = engine
                self._register(result, engine, version)
            self.buckets_copied += result.buckets_copied
            engine.stats.memo_evictions = self.memo_evictions
            self.last_demand = engine
        else:
            self.last_demand = self._demand_engines[key]
        return result

    def _record_support(self) -> bool:
        """Whether a fresh evaluation should record derivation support.

        Only worthwhile when maintenance can actually consume it: a
        change log must already be active on the base.  A log begun
        *after* this memo entry simply means one more full rebuild on
        the first change -- the replacement run records support.
        """
        return self._incremental and self._db.change_log is not None

    def _publish(self, result: Database) -> None:
        """Make ``result`` safe for unlocked concurrent readers.

        Columnar head emission leaves mirror-first inserts that the
        boxed tables back-fill lazily on the *next* boxed read; under
        ``thread_safe=True`` that first read may come from several
        threads at once, so the drain is forced here -- while the
        instance lock is still held -- instead.
        """
        if self._thread_safe:
            result.scalars.sync()
            result.sets.sync()

    def _register(self, result: Database, engine, version: int) -> None:
        """Track a freshly materialised result for reuse + maintenance."""
        self._publish(result)
        self._result_caches[id(result)] = PlanCache()
        log = self._db.change_log
        if (self._incremental and log is not None
                and log.in_sync(version, log.cursor())):
            self._memo_state[id(result)] = (version, log.cursor())
            self._engines[id(result)] = engine
        else:
            # No provable change log (or incremental off): cursor -1
            # means plain version comparison -- the entry stays fresh
            # until any base change, then is discarded.
            self._memo_state[id(result)] = (version, -1)
        self._update_hold()

    def _update_hold(self) -> None:
        """Publish this query's change-log low-water mark to the base.

        The smallest cursor any memo entry still needs is pinned through
        one persistent :class:`~repro.oodb.database.ChangeLease`
        (:meth:`Database.held_changes`), so
        :meth:`Database.trim_changes` can drop the log prefix no live
        consumer can ever replay again -- the log stays bounded across
        an unbounded stream of maintain cycles.  When no memo entry
        holds a cursor the lease is released outright.
        """
        cursors = [cursor for _, cursor in self._memo_state.values()
                   if cursor >= 0]
        if cursors:
            low = min(cursors)
            if self._hold is None or self._hold.released:
                self._hold = self._db.held_changes(low)
            else:
                self._hold.move(low)
        elif self._hold is not None:
            self._hold.release()
            self._hold = None

    def _fresh(self, result: Database, version: int) -> bool:
        """Whether ``result`` answers for the current base facts.

        True when nothing changed, or when the change log covers the
        gap and incremental maintenance brought the result up to date.
        False means the caller must discard and re-derive (the
        unapplied :class:`MaintenanceReport`, if any, stays on
        :attr:`last_maintenance` with its fallback reason).
        """
        state = self._memo_state.get(id(result))
        if state is None:
            return False
        old_version, cursor = state
        if old_version == version:
            return True
        log = self._db.change_log
        if (not self._incremental or log is None or cursor < 0
                or not log.in_sync(version, log.cursor())
                or not log.in_sync(old_version, cursor)):
            return False
        maintainer = self._maintainers.get(id(result))
        if maintainer is None:
            engine = self._engines.get(id(result))
            if engine is None:
                return False
            maintainer = engine.maintainer(result, self._db)
            self._maintainers[id(result)] = maintainer
        try:
            report = maintainer.apply(log.since(cursor))
        except BudgetExceededError:
            # The budget expired mid-maintenance.  The maintainer rolled
            # the result back to its consistent pre-call state, so the
            # memo entry (and its sync cursor) stays valid for a retry;
            # the expiry itself must reach the caller.
            raise
        except Exception as error:
            # Maintenance died mid-application (an injected fault, a
            # genuine bug).  The maintainer's transactional apply rolled
            # the result database back, so nothing is corrupted -- but
            # the entry is now suspect: report the failure, let the
            # caller discard it and re-derive from scratch.
            from repro.engine.incremental import MaintenanceReport

            self.last_maintenance = MaintenanceReport(
                applied=False,
                reason=(f"maintenance aborted by "
                        f"{type(error).__name__}: {error}; rolled back "
                        f"and re-deriving from scratch"),
            )
            return False
        self.last_maintenance = report
        if not report.applied:
            return False
        self._publish(result)
        self._memo_state[id(result)] = (version, log.cursor())
        # Every sync state advanced past the consumed slice; move the
        # low-water mark and trim the base log behind it.
        self._update_hold()
        self._db.trim_changes()
        return True

    def sync(self) -> dict:
        """Bring every memoised result up to date with the base, now.

        Walks the full materialisation and each demand memo entry and
        either maintains it incrementally (through the transactional
        :meth:`Maintainer.apply`) or evicts it when maintenance fell
        back or failed -- the next query then re-derives from scratch.
        Returns ``{"maintained": n, "evicted": n}``.

        A single-writer server calls this right after applying a write
        batch, while readers are still excluded: reads that follow find
        every surviving memo entry fresh and never trigger maintenance
        themselves, so result databases are only ever mutated from the
        writer side of the gate.  Budget expiries raised by the owning
        engines' budgets propagate after the entry is rolled back.
        """
        maintained = evicted = 0
        with self._lock:
            version = self._db.data_version()
            result = self._materialized
            if result is not None:
                before = self._memo_state.get(id(result))
                if self._fresh(result, version):
                    if before is not None and before[0] != version:
                        maintained += 1
                else:
                    self._forget(result)
                    self._materialized = None
                    evicted += 1
            for key in list(self._demand_dbs):
                entry = self._demand_dbs[key]
                before = self._memo_state.get(id(entry))
                if self._fresh(entry, version):
                    if before is not None and before[0] != version:
                        maintained += 1
                else:
                    self._evict(key)
                    evicted += 1
            self._db.trim_changes()
        return {"maintained": maintained, "evicted": evicted}

    def forget(self) -> int:
        """Drop every memoised result; returns how many were dropped.

        The recovery hammer for a failed :meth:`sync`: when maintenance
        died half-way (a crash injected under chaos testing, an
        unexpected error), evicting everything restores the invariant
        that readers only ever *build fresh* result databases -- they
        never patch a shared one -- at the cost of re-deriving on the
        next query.  Also releases the memo change-log lease, so the
        base log becomes fully trimmable again.
        """
        with self._lock:
            dropped = 0
            if self._materialized is not None:
                self._forget(self._materialized)
                self._materialized = None
                dropped += 1
            for key in list(self._demand_dbs):
                self._evict(key)
                dropped += 1
            self._db.trim_changes()
            return dropped

    def _evict(self, key: tuple, *, count: bool = False) -> None:
        """Drop one demand memo entry (and its maintenance state)."""
        result = self._demand_dbs.pop(key)
        self._demand_engines.pop(key, None)
        self._forget(result)
        if count:
            self.memo_evictions += 1

    def _forget(self, result: Database) -> None:
        for registry in (self._result_caches, self._memo_state,
                         self._maintainers, self._engines):
            registry.pop(id(result), None)
        self._update_hold()

    # ------------------------------------------------------------------

    def solutions(self, query: QueryInput,
                  variables: Iterable[str] | None = None,
                  *, budget=None) -> Iterator[Answer]:
        """Yield deduplicated answers projected onto ``variables``.

        ``variables`` defaults to all variables appearing in the query,
        in first-occurrence order.  ``budget`` attaches a per-call
        :class:`~repro.engine.budget.QueryBudget` overriding the
        construction-time one (how a server maps per-request deadlines
        onto a shared Query).
        """
        if budget is None:
            budget = self._budget
        literals = self._as_literals(query)
        wanted = self._wanted_variables(literals, variables)
        atoms = flatten_conjunction(literals)
        db = self._db_for(atoms, budget)
        seen: set[tuple] = set()
        for binding in solve(db, atoms, {}, cache=self._cache_for(db),
                             compiled=self._compiled,
                             executor=self._executor,
                             budget=budget):
            row = {name: binding[Var(name)] for name in wanted}
            key = tuple(row[name] for name in wanted)
            if key in seen:
                continue
            seen.add(key)
            yield Answer(row)

    def all(self, query: QueryInput,
            variables: Iterable[str] | None = None,
            *, sort: bool = True, budget=None) -> list[Answer]:
        """All answers as a list; sorted deterministically by default."""
        answers = list(self.solutions(query, variables, budget=budget))
        if sort:
            answers.sort(key=lambda a: a.sort_key())
        return answers

    def ask(self, query: QueryInput, *, budget=None) -> bool:
        """True iff the query has at least one solution.

        Under the batched executors the check short-circuits *inside*
        the plan (:func:`repro.engine.solve.exists`): rows flow through
        the kernels in small chunks and the first surviving terminal
        row answers, instead of materialising every intermediate batch.
        The tuple-at-a-time executors already stop at their first
        solution.
        """
        if budget is None:
            budget = self._budget
        literals = self._as_literals(query)
        atoms = flatten_conjunction(literals)
        db = self._db_for(atoms, budget)
        return solve_exists(db, atoms, {}, cache=self._cache_for(db),
                            compiled=self._compiled,
                            executor=self._executor,
                            budget=budget)

    def objects(self, ref: Union[str, Reference],
                *, budget=None) -> frozenset[Oid]:
        """The set of objects a reference denotes, over all solutions.

        For a ground reference this is exactly ``nu_I(ref)``; for a
        reference with variables it is the union over all satisfying
        valuations (the natural "result column" reading).
        """
        if budget is None:
            budget = self._budget
        reference = (parse_reference(ref) if isinstance(ref, str) else ref)
        if self._program is None and not variables_of(reference):
            return valuate(reference, self._db, VariableValuation())
        from repro.core.variables import FreshVariables
        from repro.flogic.flatten import flatten_reference

        flattened = flatten_reference(
            reference, FreshVariables(avoid=variables_of(reference))
        )
        db = self._db_for(tuple(flattened.atoms), budget)
        if not variables_of(reference):
            return valuate(reference, db, VariableValuation())
        found: set[Oid] = set()
        for binding in solve(db, flattened.atoms, {},
                             cache=self._cache_for(db),
                             compiled=self._compiled,
                             executor=self._executor,
                             budget=budget):
            if isinstance(flattened.term, Var):
                found.add(binding[flattened.term])
            else:
                found.add(db.lookup_name(flattened.term.value))
        return frozenset(found)

    def count(self, query: QueryInput,
              variables: Iterable[str] | None = None,
              *, budget=None) -> int:
        """Number of distinct answers."""
        return sum(1 for _ in self.solutions(query, variables,
                                             budget=budget))

    def explain(self, query: QueryInput, *,
                analyze: bool = True) -> PlanReport:
        """The join plan the solver uses for ``query``.

        The report lists the scheduled atoms in execution order with
        their estimated rows and access path; with ``analyze=True`` (the
        default) the plan is also executed and each step's *actual* row
        count recorded.  The plan comes from the same cache the other
        query methods use, so what you see is what runs.  The report's
        ``bindings`` counts raw solver bindings; :meth:`all` may return
        fewer rows after projection and deduplication.

        A conjunction the planner must reject (an unsafe negation whose
        variables the positive part cannot bind) renders its fallback
        reason instead of raising.  In program mode with ``magic=True``
        the report also carries the demand section (adornments, seeds,
        rewritten vs. fallback rules) of the evaluation that produced
        the answers, and -- when this call found the memoised result
        stale -- the ``maintenance:`` section describing what the
        incremental update did, including the recorded fallback reason
        when the result had to be re-derived in full instead.
        """
        literals = self._as_literals(query)
        atoms = flatten_conjunction(literals)
        title = ", ".join(literal_to_text(lit) for lit in literals)
        db = self._db_for(atoms)
        try:
            report = explain_conjunction(db, atoms, {},
                                         cache=self._cache_for(db),
                                         analyze=analyze, title=title,
                                         compiled=self._compiled,
                                         executor=self._executor)
        except BudgetExceededError:
            # A budget expiry is a real failure, not a planning
            # rejection to render: let it reach the caller.
            raise
        except EvaluationError as error:
            # Only planning rejections (unsafe negation, unready
            # comparisons) are rendered as a fallback; failures of the
            # program evaluation itself propagate from _db_for above.
            report = PlanReport(title=title, steps=(), est_rows=0.0,
                                bindings=None, fallback=str(error))
        from dataclasses import replace

        if self._program is not None and self._magic \
                and self.last_demand is not None \
                and report.fallback is None:
            report = replace(report,
                             demand=self.last_demand.demand_report())
        if self._program is not None and self.last_maintenance is not None:
            report = replace(report, maintenance=self.last_maintenance)
        return report

    def _cache_for(self, db: Database) -> PlanCache | None:
        """The plan cache for one answering database.

        The base db shares `self._plans`; every memoised result
        database (demand or full materialisation) owns its own cache,
        because sharing one version-tracked cache across databases
        would thrash on every switch.
        """
        if db is self._db:
            return self._plans
        return self._result_caches.get(id(db))

    # ------------------------------------------------------------------

    @staticmethod
    def _as_literals(query: QueryInput) -> tuple[Literal, ...]:
        if isinstance(query, str):
            return parse_query(query)
        if isinstance(query, (Reference, Comparison, Negation)):
            return (query,)
        return tuple(query)

    @staticmethod
    def _wanted_variables(literals: tuple[Literal, ...],
                          variables: Iterable[str] | None) -> list[str]:
        if variables is not None:
            return list(variables)
        wanted: dict[str, None] = {}
        for literal in literals:
            if isinstance(literal, Negation):
                # Negation never binds: its variables are answer
                # variables only if they also occur positively.
                continue
            if isinstance(literal, Comparison):
                for side in literal.references():
                    for var in variables_of(side):
                        wanted.setdefault(var.name, None)
            else:
                for var in variables_of(literal):
                    wanted.setdefault(var.name, None)
        return list(wanted)


def sorted_objects(objects: Iterable[Oid]) -> list[Oid]:
    """Deterministically sorted object list (test/bench helper)."""
    return sorted(objects, key=oid_sort_key)
