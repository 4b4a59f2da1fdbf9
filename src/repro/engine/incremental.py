"""Incremental view maintenance: delete-and-rederive (DRed).

A materialised evaluation result (the database an
:class:`~repro.engine.fixpoint.Engine` run produced, possibly for a
magic-set rewritten program) is a view over the base facts.  This module
maintains such a view **in place** under base-fact changes recorded by
the database's change log (:meth:`~repro.oodb.database.Database.begin_changes`),
instead of re-deriving the whole fixpoint from scratch:

- **Deletion** is the classic delete-and-rederive construction, for
  recursive and non-recursive strata alike: an *overdelete* closure --
  seeded from the deleted base facts and computed with the engine's own
  **columnar delta plans**
  (:func:`~repro.engine.columnar.compile_columnar_delta_plan`) against
  the pristine view -- collects every fact whose derivation may have
  used a deleted fact; stratum by stratum those facts are removed, a
  *rederive* pass re-asserts each one that is still derivable
  (goal-directed, head unified against the fact), and the rederived
  facts propagate semi-naively within the stratum.

- **Insertion** is the easy monotone direction: new base facts are
  replayed into the view and the rules fire semi-naively with the
  insertions as the initial delta, stratum by stratum.

Insertion and rederivation seed the engine's own stratum loop
(:meth:`~repro.engine.fixpoint.Evaluation.run_stratum`) on one
:class:`~repro.engine.fixpoint.Evaluation` kept over the result
database, sharing its records, head rungs and limits; the budget is
the one each :meth:`Maintainer.apply` call passes.  The overdelete
closure reads the head-variable columns of the same delta
records.  A maintainer built for an ``interpreted=True`` engine runs
all of it on the interpreted matcher.

Re-asserted facts are bit-identical tuples of the facts that were
removed, so **virtual-object identity is preserved** -- a rederived
``boss(p1)`` is the same :class:`~repro.oodb.oid.VirtualOid` the
original run created.

Not every change is maintainable.  :meth:`Maintainer.apply` first
computes the closure of predicates whose extension may change and
**falls back** (returning the reason, mutating nothing) when

- a rule reads a changed predicate under negation or inside a superset
  source (the stratified semantics need the complete relation),
- a rule with a superset atom reads a changed predicate at all
  (superset atoms cannot be delta-seeded),
- deletions reach a predicate defined by a rule whose head cannot be
  unified for rederivation (virtual-creating paths, variable or
  computed methods), or
- deletions reach class memberships read by some rule (the ``isa``
  transitive closure makes per-edge deletion deltas incomplete).

The caller (:class:`~repro.query.query.Query`) then re-derives from
scratch, exactly as before this module existed -- mirroring the magic
rewrite's fallback discipline, with the reason surfaced through the
EXPLAIN ``maintenance:`` section.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import builtins as _builtins
from repro.core.ast import (
    IsaFilter,
    Molecule,
    Name,
    ScalarFilter,
    SetEnumFilter,
    Var,
)
from repro.core.variables import variables_of
from repro.engine.columnar import compile_columnar_plan
from repro.engine.delta import DeltaIndex, SeedIndex
from repro.engine.fixpoint import EngineLimits, Evaluation
from repro.engine.matching import Binding, MatchPolicy
from repro.engine.normalize import ISA_PRED, NormalizedRule, Pred, pred_matches
from repro.engine.planner import relevant_bound
from repro.engine.profiler import EngineStats
from repro.engine.solve import execute_plan
from repro.engine.stratify import stratify
from repro.flogic.atoms import EnumSupersetAtom, SupersetAtom
from repro.oodb.database import ChangeEntry, Database
from repro.oodb.oid import NamedOid, Oid
from repro.testing.faults import fault_point

#: A fact in realizer-log shape (see :mod:`repro.engine.heads`).
Fact = tuple


# ---------------------------------------------------------------------------
# Fact helpers (the three primitive kinds, in realizer-log shape)
# ---------------------------------------------------------------------------

def fact_pred(fact: Fact) -> Pred:
    """The stratification predicate a fact belongs to.

    Facts whose method is not a named object (virtual methods from
    generic rules) map to the wildcard name ``None``, which
    conservatively matches every predicate of the kind.
    """
    kind = fact[0]
    if kind == "isa":
        return ISA_PRED
    method = fact[1]
    return (kind, method.value if isinstance(method, NamedOid) else None)


def fact_present(db: Database, fact: Fact) -> bool:
    """Whether ``fact`` is currently stored in ``db``."""
    kind = fact[0]
    if kind == "scalar":
        return db.scalars.get(fact[1], fact[2], fact[3]) == fact[4]
    if kind == "set":
        return fact[4] in db.sets.get(fact[1], fact[2], fact[3])
    return fact[2] in db.hierarchy.declared_parents(fact[1])


# ---------------------------------------------------------------------------
# Simple heads: direct substitution and unification
# ---------------------------------------------------------------------------

class HeadSpec:
    """A rule head reduced to fact templates (simple heads only).

    A head is *simple* when substituting a body solution into it yields
    its derived facts directly -- a molecule over a name or variable
    whose filters carry only names and variables (no paths, so no
    virtual objects are created, and no computed methods).  Simple
    heads support the two operations maintenance needs: producing the
    facts of a binding (overdelete candidates, protected ground facts)
    and unifying a fact back into a binding (goal-directed
    rederivation).
    """

    __slots__ = ("head_vars", "templates")

    def __init__(self, head_vars: tuple[Var, ...],
                 templates: tuple[tuple, ...]) -> None:
        #: Head variables in deterministic order (overdelete dedup key).
        self.head_vars = head_vars
        #: ``("scalar"|"set", method, subject, args, result)`` or
        #: ``("isa", obj, cls)`` with :class:`Name`/:class:`Var` slots.
        self.templates = templates

    def facts(self, db: Database, binding: Binding) -> tuple[Fact, ...]:
        """The facts this head asserts under a (total) binding."""
        out = []
        for template in self.templates:
            if template[0] == "isa":
                out.append(("isa", _term_oid(template[1], db, binding),
                            _term_oid(template[2], db, binding)))
            else:
                kind, method, subject, args, result = template
                out.append((kind, _term_oid(method, db, binding),
                            _term_oid(subject, db, binding),
                            tuple(_term_oid(a, db, binding) for a in args),
                            _term_oid(result, db, binding)))
        return tuple(out)

    def unify(self, db: Database, fact: Fact) -> list[Binding]:
        """Bindings under which some template produces exactly ``fact``."""
        bindings = []
        for template in self.templates:
            if template[0] != fact[0]:
                continue
            if template[0] == "isa":
                pairs = ((template[1], fact[1]), (template[2], fact[2]))
            else:
                _, method, subject, args, result = template
                if len(args) != len(fact[3]):
                    continue
                pairs = ((method, fact[1]), (subject, fact[2]),
                         *zip(args, fact[3]), (result, fact[4]))
            binding = self._unify_pairs(pairs, db)
            if binding is not None:
                bindings.append(binding)
        return bindings

    @staticmethod
    def _unify_pairs(pairs, db: Database) -> Binding | None:
        binding: Binding = {}
        for term, obj in pairs:
            if isinstance(term, Name):
                if db.lookup_name(term.value) != obj:
                    return None
            else:
                known = binding.get(term)
                if known is None:
                    binding[term] = obj
                elif known != obj:
                    return None
        return binding


def _term_oid(term, db: Database, binding: Binding) -> Oid:
    if isinstance(term, Name):
        return db.lookup_name(term.value)
    return binding[term]


def simple_head(rule: NormalizedRule) -> HeadSpec | None:
    """The :class:`HeadSpec` of a rule, or None for complex heads."""
    head = rule.head
    head_vars = tuple(sorted(variables_of(head), key=lambda v: v.name))
    if isinstance(head, (Name, Var)):
        return HeadSpec(head_vars, ())
    if not isinstance(head, Molecule):
        return None
    if not isinstance(head.base, (Name, Var)):
        return None
    templates: list[tuple] = []
    for filt in head.filters:
        if isinstance(filt, IsaFilter):
            if not isinstance(filt.cls, (Name, Var)):
                return None
            templates.append(("isa", head.base, filt.cls))
            continue
        if not isinstance(filt, (ScalarFilter, SetEnumFilter)):
            return None
        if not isinstance(filt.method, Name):
            return None
        if any(not isinstance(a, (Name, Var)) for a in filt.args):
            return None
        if isinstance(filt, ScalarFilter):
            if not isinstance(filt.result, (Name, Var)):
                return None
            if _builtins.is_builtin_scalar(NamedOid(filt.method.value)):
                continue  # built-in filters assert nothing
            templates.append(("scalar", filt.method, head.base,
                              tuple(filt.args), filt.result))
        else:
            if any(not isinstance(e, (Name, Var)) for e in filt.elements):
                return None
            for element in filt.elements:
                templates.append(("set", filt.method, head.base,
                                  tuple(filt.args), element))
    return HeadSpec(head_vars, tuple(templates))


# ---------------------------------------------------------------------------
# The maintenance report (EXPLAIN surface + stats)
# ---------------------------------------------------------------------------

@dataclass
class MaintenanceReport:
    """What one :meth:`Maintainer.apply` run did (or why it could not)."""

    applied: bool
    #: Fallback reason when ``applied`` is False (nothing was mutated;
    #: the caller re-derives from scratch).
    reason: str | None = None
    deleted_base: int = 0
    inserted_base: int = 0
    #: Derived facts removed by the overdelete pass.
    overdeleted: int = 0
    #: Overdeleted facts re-asserted by the rederive pass, including
    #: its semi-naive propagation within recursive strata.
    rederived: int = 0
    #: Facts derived by the insertion pass.
    reinserted: int = 0
    rules_affected: int = 0
    elapsed_s: float = 0.0

    def render(self) -> str:
        """The EXPLAIN ``maintenance:`` section."""
        lines = ["maintenance:"]
        if not self.applied:
            lines.append(f"  full re-derivation: {self.reason}")
            return "\n".join(lines)
        lines.append(
            f"  incremental: {self.deleted_base} base fact(s) deleted, "
            f"{self.inserted_base} inserted"
        )
        lines.append(
            f"  overdeleted {self.overdeleted}, rederived "
            f"{self.rederived}, reinserted {self.reinserted} "
            f"({self.rules_affected} rule(s) affected)"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def net_changes(changes) -> tuple[list[Fact], list[Fact]]:
    """Compact a change-log slice into net (inserted, deleted) facts.

    An insert-then-delete (or delete-then-insert) of the same fact
    cancels out: the fact's stored state is unchanged end to end.
    """
    net: dict[Fact, str] = {}
    for sign, fact in changes:
        previous = net.pop(fact, None)
        if previous is None:
            net[fact] = sign
    inserted = [fact for fact, sign in net.items() if sign == "+"]
    deleted = [fact for fact, sign in net.items() if sign == "-"]
    return inserted, deleted


# ---------------------------------------------------------------------------
# The maintainer
# ---------------------------------------------------------------------------

class Maintainer:
    """Maintains one materialised result database under base changes.

    Owned by the engine that produced the result
    (:meth:`repro.engine.fixpoint.Engine.maintainer`); one maintainer
    per memoised result.  Its :attr:`evaluation` (plans, compiled
    records, head emitters) persists across :meth:`apply` calls, so a
    steady stream of single-fact updates pays planning and kernel
    lowering once.  The result database gets its own change log so its
    cardinality catalog is patched rather than rebuilt after each
    maintenance run.
    """

    def __init__(self, db: Database, base: Database,
                 rules: list[NormalizedRule], *,
                 limits: EngineLimits,
                 policy: MatchPolicy,
                 interpreted: bool = False,
                 stats=None) -> None:
        self._db = db
        self._base = base
        self._rules = list(rules)
        self._stats = stats
        self._strata = stratify(self._rules)
        self._stratum_of: dict[int, int] = {}
        for level, group in enumerate(self._strata):
            for rule in group:
                self._stratum_of[id(rule)] = level
        self._specs: dict[int, HeadSpec | None] = {
            id(rule): simple_head(rule) for rule in self._rules
        }
        # Facts asserted by ground program rules (including magic seed
        # facts) hold unconditionally -- like base facts, they can never
        # be overdeleted.  Ground heads are variable-free, so simple
        # ones enumerate their facts directly; fact rules with complex
        # heads force deletion fallback instead (see _fallback_reason).
        self._protected: set[Fact] = set()
        for rule in self._rules:
            if not rule.is_fact:
                continue
            spec = self._specs[id(rule)]
            if spec is not None:
                self._protected.update(spec.facts(db, {}))
        # Keep the result database's own catalog patchable in place.
        # Records compiled under the open log never take the int writer
        # (its mirror-first writes escape the log and rollback_changes):
        # heads write through the logged API and project boxed columns.
        db.begin_changes()
        #: The stratum loop's state; its stats count maintenance work.
        #: Its budget is the current :meth:`apply` call's (None between
        #: calls).
        self.evaluation = Evaluation(
            db, limits=limits, policy=policy, interpreted=interpreted,
            budget=None, stats=EngineStats())

    # -- public entry point ---------------------------------------------

    def apply(self, changes: list[ChangeEntry], *,
              budget=None) -> MaintenanceReport:
        """Maintain the result under a change-log slice, all or nothing.

        ``budget`` is this call's cooperative
        :class:`~repro.engine.budget.QueryBudget` (or None), checked per
        round and kernel step: expiry raises mid-apply and rides the
        same rollback as any other failure.

        Returns the applied report, or an unapplied one carrying the
        fallback reason -- in which case **nothing was mutated** (all
        fallback conditions are decided before the first write) and the
        caller should re-derive from scratch.

        The write phase is transactional: any exception mid-application
        (a budget expiry, an injected fault, a genuine bug) rolls the
        result database back to its pre-call state through
        :meth:`~repro.oodb.database.Database.rollback_changes` and
        re-raises.  The caller observes either a fully maintained view
        or the untouched one it started with, never a half-applied mix.
        """
        started = time.perf_counter()
        fault_point("maintain.apply")
        if budget is not None:
            budget.begin_run()
            budget.check("maintain.apply")
        inserted, deleted = net_changes(changes)
        report = MaintenanceReport(applied=True,
                                   deleted_base=len(deleted),
                                   inserted_base=len(inserted))
        if not inserted and not deleted:
            return report
        closure = self._changed_closure(inserted + deleted)
        affected = [rule for rule in self._rules
                    if not rule.is_fact and _reads_any(rule, closure)]
        reason = self._fallback_reason(closure, affected, bool(deleted))
        if reason is not None:
            return MaintenanceReport(applied=False, reason=reason,
                                     deleted_base=len(deleted),
                                     inserted_base=len(inserted))
        report.rules_affected = len(affected)
        # -- writes start here; everything below is all-or-nothing ------
        checkpoint = self._db.begin_changes().cursor()
        universe = self._db.universe()  # U as it was, restored on failure
        self.evaluation.budget = budget
        try:
            if deleted:
                self._delete_pass(deleted, affected, report)
            if inserted:
                self._insert_pass(inserted, affected, report)
        except BaseException:
            self._db.rollback_changes(checkpoint, universe)
            self.evaluation.realizer.log = []
            raise
        finally:
            self.evaluation.budget = None
        # Keep the result database's private log bounded: fold the
        # entries this run produced into its catalog (an O(delta)
        # patch), then drop the consumed prefix.
        self._db.catalog()
        self._db.trim_changes()
        report.elapsed_s = time.perf_counter() - started
        if self._stats is not None:
            self._stats.facts_overdeleted += report.overdeleted
            self._stats.facts_rederived += report.rederived
            self._stats.facts_reinserted += report.reinserted
            self._stats.maintenance_runs += 1
        return report

    # -- change classification ------------------------------------------

    def _changed_closure(self, facts: list[Fact]) -> set[Pred]:
        """Predicates whose extension may differ after the changes."""
        changed: set[Pred] = {fact_pred(fact) for fact in facts}
        grew = True
        while grew:
            grew = False
            for rule in self._rules:
                if rule.is_fact or rule.defines <= changed:
                    continue
                if _reads_any(rule, changed):
                    changed |= rule.defines
                    grew = True
        return changed

    def _fallback_reason(self, closure: set[Pred],
                         affected: list[NormalizedRule],
                         deleting: bool) -> str | None:
        for rule in affected:
            if any(pred_matches(read, pred)
                   for read in rule.strong_reads for pred in closure):
                return (f"negation or superset source reads a changed "
                        f"predicate in {rule}")
            if any(isinstance(atom, (SupersetAtom, EnumSupersetAtom))
                   for atom in rule.body):
                return (f"superset atom in a rule reading changed "
                        f"predicates ({rule})")
        if not deleting:
            return None
        if ISA_PRED in closure and any(
                ISA_PRED in rule.weak_reads for rule in self._rules):
            return ("deletions reach class memberships; per-edge isa "
                    "deltas are incomplete under the transitive closure")
        for pred in closure:
            for rule in self._rules:
                if not any(pred_matches(pred, define)
                           for define in rule.defines):
                    continue
                if self._specs[id(rule)] is None:
                    what = ("asserts facts that cannot be enumerated "
                            "for protection" if rule.is_fact
                            else "has a head that cannot be unified "
                                 "for rederivation")
                    return (f"deletions reach {pred[0]}:{pred[1]}, whose "
                            f"defining rule {rule} {what}")
        return None

    # -- the deletion pass (DRed) -----------------------------------------

    def _delete_pass(self, deleted: list[Fact],
                     affected: list[NormalizedRule],
                     report: MaintenanceReport) -> None:
        db = self._db
        # Group the overdeleted facts by the stratum where their
        # predicate is decided (the highest stratum among defining
        # rules); facts no rule defines are pure base data.
        by_level: dict[int, list[Fact]] = {}
        levels: dict[Pred, int] = {}
        for fact in self._overdelete_closure(deleted, affected):
            pred = fact_pred(fact)
            level = levels.get(pred)
            if level is None:
                level = levels[pred] = max(
                    (self._stratum_of[id(rule)] for rule in self._rules
                     if not rule.is_fact
                     and any(pred_matches(pred, d) for d in rule.defines)),
                    default=-1)
            by_level.setdefault(level, []).append(fact)
        for level in sorted(by_level):
            if level < 0:
                # Pure base data (no rule derives it): the deletion just
                # lands in the view, counted as deleted_base already.
                for fact in by_level[level]:
                    db.apply_entry("-", fact)
            else:
                self._dred(level, by_level[level], report)

    def _overdelete_closure(self, deleted: list[Fact],
                            affected: list[NormalizedRule]) -> list[Fact]:
        """The classic DRed overapproximation, against the pristine view.

        Returns, in discovery order, the deleted facts still in the view
        and every derived fact whose derivation may have used one of
        them.  Nothing is removed here: every later removal was seeded
        through the closure, so matching rule bodies against the
        unmodified view keeps the overapproximation complete even for
        derivations that used several deleted facts.
        """
        db = self._db
        base = self._base
        protected = self._protected  # a ground program rule asserts them
        overdeleted: dict[Fact, None] = {
            fact: None for fact in deleted
            if fact_present(db, fact) and fact not in protected}
        # Head bindings already expanded, per rule: body valuations that
        # project onto one head binding derive the same facts.
        expanded: set[tuple] = set()
        evaluation = self.evaluation
        budget = evaluation.budget
        seeds = SeedIndex(db, affected)
        frontier = list(overdeleted)
        while frontier:
            fault_point("maintain.overdelete")
            if budget is not None:
                budget.check("maintain.overdelete")
            batch = DeltaIndex(frontier, interner=db.interner)
            frontier = []
            for at, positions in seeds.plan(batch):
                rule = affected[at]
                spec = self._specs[id(rule)]
                for position in positions:
                    record = evaluation.delta_record(rule, position)
                    if record.execute_cols is None:
                        bindings = evaluation.walk_delta(rule, position,
                                                         record, batch)
                    else:  # head-variable columns, boxed (see __init__)
                        cols, nrows = record.execute_cols(batch, budget)
                        pairs = record.head_pairs
                        bindings = [{var: cols[slot][i]
                                     for var, slot in pairs}
                                    for i in range(nrows)]
                    for binding in bindings:
                        key = (id(rule),
                               tuple(binding[v] for v in spec.head_vars))
                        if key in expanded:
                            continue
                        expanded.add(key)
                        for fact in spec.facts(db, binding):
                            if fact in overdeleted \
                                    or not fact_present(db, fact) \
                                    or fact_present(base, fact) \
                                    or fact in protected:
                                continue  # base and ground facts stay
                            overdeleted[fact] = None
                            frontier.append(fact)
        return list(overdeleted)

    def _dred(self, level: int, facts: list[Fact],
              report: MaintenanceReport) -> None:
        """Remove, then rederive-and-propagate, within one stratum."""
        fault_point("maintain.dred")
        budget = self.evaluation.budget
        if budget is not None:
            budget.check("maintain.dred", stratum=level)
        db = self._db
        realizer = self.evaluation.realizer
        removed: list[Fact] = []
        for fact in facts:
            if db.apply_entry("-", fact):
                removed.append(fact)
                report.overdeleted += 1
        rederived: list[Fact] = []
        realizer.log = rederived
        for fact in removed:
            pred = fact_pred(fact)
            for rule in self._rules:
                if rule.is_fact or not any(pred_matches(pred, d)
                                           for d in rule.defines):
                    continue
                spec = self._specs[id(rule)]
                if any(self._body_solvable(rule, binding)
                       for binding in spec.unify(db, fact)):
                    realizer.replay((fact,))
                    report.rederived += 1
                    break
        # Propagate: a rederived fact may re-derive other removed facts
        # of this stratum.
        if rederived:
            report.rederived += self.evaluation.run_stratum(
                self._strata[level], level, site="maintain.rederive",
                seed=DeltaIndex(rederived, interner=db.interner))

    # -- the insertion pass ---------------------------------------------

    def _insert_pass(self, inserted: list[Fact],
                     affected: list[NormalizedRule],
                     report: MaintenanceReport) -> None:
        db = self._db
        evaluation = self.evaluation
        log = db.change_log
        start = log.cursor()
        evaluation.realizer.log = []
        evaluation.realizer.replay(inserted)
        affected_ids = {id(rule) for rule in affected}
        for level, group in enumerate(self._strata):
            rules = [rule for rule in group if id(rule) in affected_ids]
            if not rules:
                continue
            # Seed: everything the pass wrote so far, from the result's
            # change log (every maintained head writes through it).
            carry = [fact for _, fact in log.since(start)]
            if carry:
                report.reinserted += evaluation.run_stratum(
                    rules, level, site="maintain.insert",
                    seed=DeltaIndex(carry, interner=db.interner))

    # -- body evaluation ------------------------------------------------

    def _body_solvable(self, rule: NormalizedRule,
                       binding: Binding) -> bool:
        """One goal-directed existence check of a rule body.

        Columnar plans short-circuit inside the plan in small chunks
        (:meth:`~repro.engine.columnar.ColumnarPlan.exists`): the check
        wants the first surviving row, not all of them.
        """
        evaluation = self.evaluation
        bound = relevant_bound(rule.body, binding)
        plan = evaluation.plan_cache.get(self._db, rule.body, bound)
        if evaluation.interpreted:
            for _ in execute_plan(self._db, plan, binding,
                                  evaluation.policy, interpreted=True,
                                  budget=evaluation.budget):
                return True
            return False
        return compile_columnar_plan(
            self._db, plan, evaluation.policy).exists(
                binding, evaluation.stats, evaluation.budget)


def _reads_any(rule: NormalizedRule, preds: set[Pred]) -> bool:
    return any(
        pred_matches(read, pred)
        for read in rule.weak_reads | rule.strong_reads
        for pred in preds
    )
