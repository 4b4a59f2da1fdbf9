"""Incremental view maintenance: counting + delete-and-rederive (DRed).

A materialised evaluation result (the database an
:class:`~repro.engine.fixpoint.Engine` run produced, possibly for a
magic-set rewritten program) is a view over the base facts.  This module
maintains such a view **in place** under base-fact changes recorded by
the database's change log (:meth:`~repro.oodb.database.Database.begin_changes`),
instead of re-deriving the whole fixpoint from scratch:

- **Counting** (non-recursive support).  During fixpoint evaluation the
  engine records, per derived fact, how many distinct ``(rule, head
  binding)`` pairs support it (:class:`SupportIndex`).  A rule is
  *tracked* when its head is simple enough to substitute directly and it
  reads nothing its own stratum defines; a predicate is
  counting-managed when every rule defining it is tracked.  On deletion,
  each support whose derivation touched a deleted fact is re-checked
  with one goal-directed body solve (head variables bound); dead
  supports decrement the counts and only facts reaching zero are
  actually removed -- facts with surviving derivations are never
  deleted and re-inserted.

- **DRed** (recursive support).  Predicates with recursive or untracked
  definitions use the classic delete-and-rederive construction:
  an *overdelete* closure -- seeded from the deleted base facts and
  computed with the **existing compiled delta kernels**
  (:func:`~repro.engine.compile.compile_delta_plan`) against the
  pristine view -- removes every fact whose derivation may have used a
  deleted fact, then a *rederive* pass re-asserts each removed fact
  that is still derivable (goal-directed, head unified against the
  fact) and propagates semi-naively within the stratum.

- **Insertion** is the easy monotone direction: new base facts are
  replayed into the view and the rules fire semi-naively with the
  insertions as the initial delta, stratum by stratum (mirroring the
  engine's own iteration, including the full-evaluation escape for
  ``isa`` deltas).

All three passes round the way the engine does: each round partitions
its batch once and fires only the rule positions it can seed
(:mod:`repro.engine.delta`).

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
from functools import partial

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
from repro.engine.columnar import IntDeltaIndex
from repro.engine.delta import DeltaIndex, SeedIndex
from repro.engine.heads import HeadRealizer
from repro.engine.matching import Binding, MatchPolicy, match_atom_delta
from repro.engine.normalize import ISA_PRED, NormalizedRule, Pred, pred_matches
from repro.engine.planner import PlanCache, relevant_bound
from repro.engine.solve import execute_plan, solve
from repro.engine.solve import exists as solve_exists
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


def remove_fact(db: Database, fact: Fact) -> bool:
    """Delete one stored fact from ``db`` (through the retraction API,
    so an active change log on ``db`` stays in sync)."""
    kind = fact[0]
    if kind == "scalar":
        return db.retract_scalar(fact[1], fact[2], fact[3])
    if kind == "set":
        return db.retract_set_member(fact[1], fact[2], fact[3], fact[4])
    return db.retract_isa(fact[1], fact[2])


def assert_fact(db: Database, fact: Fact) -> bool:
    """Store one fact into ``db``; False when it was already present."""
    kind = fact[0]
    if kind == "scalar":
        return db.assert_scalar(fact[1], fact[2], fact[3], fact[4])
    if kind == "set":
        return db.assert_set_member(fact[1], fact[2], fact[3], fact[4])
    return db.assert_isa(fact[1], fact[2])


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
    facts of a binding (support counting, overdelete candidates) and
    unifying a fact back into a binding (goal-directed rederivation).
    """

    __slots__ = ("head_vars", "templates")

    def __init__(self, head_vars: tuple[Var, ...],
                 templates: tuple[tuple, ...]) -> None:
        #: Head variables in deterministic order (support-key layout).
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
# Support counting
# ---------------------------------------------------------------------------

class _TrackedRule:
    __slots__ = ("key", "spec")

    def __init__(self, key: int, spec: HeadSpec) -> None:
        self.key = key
        self.spec = spec


class SupportIndex:
    """Per-fact derivation support, recorded during fixpoint evaluation.

    Support is counted at ``(rule, head binding)`` granularity: two body
    valuations that project onto the same head binding derive the same
    facts and collapse into one support (deciding whether that support
    survives a deletion is a single existential body check either way).
    The ``seen`` set deduplicates the semi-naive engine's re-discovery
    of the same solution through different delta positions.

    Only *tracked* rules record support: simple-headed rules that read
    nothing their own stratum defines.  A predicate is counting-managed
    (:meth:`Maintainer` consults this) when all of its defining rules
    are tracked; everything else is maintained by delete-and-rederive,
    which needs no counts.
    """

    def __init__(self, rules: list[NormalizedRule]) -> None:
        self._tracked: dict[int, _TrackedRule] = {}
        self.counts: dict[Fact, int] = {}
        self.seen: set[tuple] = set()
        #: Open transaction journal (inverse operations, applied LIFO
        #: by :meth:`rollback_txn`), or None outside a transaction.
        self._journal: list[tuple] | None = None
        for group in stratify(rules):
            defines_here = [d for rule in group for d in rule.defines]
            for rule in group:
                if rule.is_fact:
                    continue
                spec = simple_head(rule)
                if spec is None:
                    continue
                recursive = any(
                    pred_matches(read, define)
                    for read in rule.weak_reads | rule.strong_reads
                    for define in defines_here
                )
                if recursive:
                    continue
                self._tracked[id(rule)] = _TrackedRule(len(self._tracked),
                                                       spec)

    def tracks(self, rule: NormalizedRule) -> bool:
        """Whether this index records support for ``rule``."""
        return id(rule) in self._tracked

    def observe(self, rule: NormalizedRule, binding: Binding,
                db: Database) -> None:
        """Record one body solution of a tracked rule (idempotent)."""
        tracked = self._tracked.get(id(rule))
        if tracked is None:
            return
        key = (tracked.key,
               tuple(binding[v] for v in tracked.spec.head_vars))
        if key in self.seen:
            return
        self.seen.add(key)
        counts = self.counts
        facts = tracked.spec.facts(db, binding)
        if self._journal is not None:
            self._journal.append(("observe", key, facts))
        for fact in facts:
            counts[fact] = counts.get(fact, 0) + 1

    def support_key(self, rule: NormalizedRule,
                    binding: Binding) -> tuple | None:
        """The ``seen`` key of a solution, or None for untracked rules."""
        tracked = self._tracked.get(id(rule))
        if tracked is None:
            return None
        return (tracked.key,
                tuple(binding[v] for v in tracked.spec.head_vars))

    def retract(self, key: tuple, facts: tuple[Fact, ...]) -> None:
        """Drop one dead support, decrementing its facts' counts."""
        if self._journal is not None and key in self.seen:
            self._journal.append(("retract", key, facts))
        self.seen.discard(key)
        counts = self.counts
        for fact in facts:
            remaining = counts.get(fact, 0) - 1
            if remaining > 0:
                counts[fact] = remaining
            else:
                counts.pop(fact, None)

    def forget(self, fact: Fact) -> None:
        """Drop a fact's counts entirely (DRed removal)."""
        if self._journal is not None and fact in self.counts:
            self._journal.append(("forget", fact, self.counts[fact]))
        self.counts.pop(fact, None)

    # -- transactions (the Maintainer's all-or-nothing apply) -----------

    def begin_txn(self) -> None:
        """Start journalling mutations for a possible rollback."""
        self._journal = []

    def commit_txn(self) -> None:
        """Keep the mutations since :meth:`begin_txn`; drop the journal."""
        self._journal = None

    def rollback_txn(self) -> None:
        """Undo every mutation since :meth:`begin_txn`, newest first.

        LIFO replay of the journal makes each inverse exact even when
        several operations touched the same fact or support key.
        """
        journal, self._journal = self._journal, None
        if not journal:
            return
        counts = self.counts
        for entry in reversed(journal):
            op = entry[0]
            if op == "observe":
                _, key, facts = entry
                self.seen.discard(key)
                for fact in facts:
                    remaining = counts.get(fact, 0) - 1
                    if remaining > 0:
                        counts[fact] = remaining
                    else:
                        counts.pop(fact, None)
            elif op == "retract":
                _, key, facts = entry
                self.seen.add(key)
                for fact in facts:
                    counts[fact] = counts.get(fact, 0) + 1
            else:  # "forget"
                _, fact, count = entry
                counts[fact] = count


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
    #: Derived facts removed by the overdelete / counting passes.
    overdeleted: int = 0
    #: Supports that survived re-checking (facts kept without churn).
    kept_by_support: int = 0
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
            f"{self.rederived}, reinserted {self.reinserted}, kept by "
            f"support {self.kept_by_support} "
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

class _DeltaExec:
    """Cached delta machinery for one (rule, body position)."""

    __slots__ = ("atom", "rest", "plan", "execute", "execute_cols",
                 "head_pairs")

    def __init__(self, atom, rest, plan, execute) -> None:
        self.atom = atom
        self.rest = rest
        self.plan = plan
        self.execute = execute  #: compiled executor or None (interpreted)
        self.execute_cols = None  #: batched column executor, if batched
        self.head_pairs: tuple = ()


class Maintainer:
    """Maintains one materialised result database under base changes.

    Owned by the engine that produced the result
    (:meth:`repro.engine.fixpoint.Engine.maintainer`); one maintainer
    per memoised result.  Plans, compiled delta kernels, and the
    support index persist across :meth:`apply` calls, so a steady
    stream of single-fact updates pays planning and kernel lowering
    once.  The result database gets its own change log so its
    cardinality catalog is patched rather than rebuilt after each
    maintenance run.
    """

    def __init__(self, db: Database, base: Database,
                 rules: list[NormalizedRule], *,
                 policy: MatchPolicy,
                 support: SupportIndex | None = None,
                 compiled: bool = True, use_planner: bool = True,
                 executor: str | None = None,
                 stats=None, max_virtual_depth: int = 32,
                 budget=None) -> None:
        self._db = db
        self._base = base
        self._rules = list(rules)
        self._policy = policy
        self._support = support
        #: Cooperative :class:`~repro.engine.budget.QueryBudget` (or
        #: None): checked once per maintenance round.  Expiry raises
        #: mid-apply and rides the same rollback as any other failure.
        self._budget = budget
        self._use_planner = use_planner
        # The delta passes reuse the engine's batched kernels when the
        # owning engine ran batched (columnar or boxed); goal-directed
        # existence checks (``_body_solvable``) then short-circuit
        # inside the plan in small chunks -- they want the first
        # surviving row, not all of them.
        if executor is None:
            executor = "compiled" if compiled else "interpreted"
        self._executor = executor if use_planner else "interpreted"
        self._compiled = use_planner and self._executor != "interpreted"
        # Columnar seeds read each round's buckets as interned columns.
        self._partition = (partial(IntDeltaIndex, interner=db.interner)
                           if self._executor == "columnar" else DeltaIndex)
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
        self._plan_cache = PlanCache(track_version=False)
        self._delta_execs: dict[tuple[int, int], _DeltaExec] = {}
        self._realizer = HeadRealizer(db, max_virtual_depth=max_virtual_depth)
        # Keep the result database's own catalog patchable in place.
        db.begin_changes()

    # -- public entry point ---------------------------------------------

    def apply(self, changes: list[ChangeEntry]) -> MaintenanceReport:
        """Maintain the result under a change-log slice, all or nothing.

        Returns the applied report, or an unapplied one carrying the
        fallback reason -- in which case **nothing was mutated** (all
        fallback conditions are decided before the first write) and the
        caller should re-derive from scratch.

        The write phase is transactional: any exception mid-application
        (a budget expiry, an injected fault, a genuine bug) rolls the
        result database back to its pre-call state through
        :meth:`~repro.oodb.database.Database.rollback_changes` --
        restoring the support index from its journal first -- and
        re-raises.  The caller observes either a fully maintained view
        or the untouched one it started with, never a half-applied mix.
        """
        started = time.perf_counter()
        fault_point("maintain.apply")
        budget = self._budget
        if budget is not None:
            budget.start()
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
        support = self._support
        if support is not None:
            support.begin_txn()
        try:
            if deleted:
                self._delete_pass(deleted, affected, report)
            if inserted:
                self._insert_pass(inserted, affected, report)
        except BaseException:
            if support is not None:
                support.rollback_txn()
            self._db.rollback_changes(checkpoint)
            self._realizer.log = []
            raise
        if support is not None:
            support.commit_txn()
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

    # -- the deletion pass (counting + DRed) ----------------------------

    def _delete_pass(self, deleted: list[Fact],
                     affected: list[NormalizedRule],
                     report: MaintenanceReport) -> None:
        db = self._db
        support = self._support
        overdeleted, candidates = self._overdelete_closure(deleted, affected)
        # Group candidate facts by the stratum where their predicate is
        # decided (the highest stratum among defining rules); facts no
        # rule defines are pure base data, removed outright.
        by_level: dict[int, list[Fact]] = {}
        definers: dict[Pred, list[NormalizedRule]] = {}
        for fact in overdeleted:
            pred = fact_pred(fact)
            rules = definers.get(pred)
            if rules is None:
                rules = definers[pred] = [
                    rule for rule in self._rules if not rule.is_fact
                    and any(pred_matches(pred, d) for d in rule.defines)
                ]
            level = max((self._stratum_of[id(rule)] for rule in rules),
                        default=-1)
            by_level.setdefault(level, []).append(fact)
        counting_preds = {
            pred: bool(rules) and support is not None
            and all(support.tracks(rule) for rule in rules)
            for pred, rules in definers.items()
        }
        candidates_by_level: dict[int, list] = {}
        for entry in candidates:
            candidates_by_level.setdefault(
                self._stratum_of[id(entry[0])], []).append(entry)
        budget = self._budget
        for level in sorted(set(by_level) | set(candidates_by_level)):
            if level < 0:
                # Pure base data (no rule derives it): the deletion just
                # lands in the view, counted as deleted_base already.
                for fact in by_level.get(level, ()):
                    remove_fact(db, fact)
                continue
            fault_point("maintain.counting")
            if budget is not None:
                budget.check("maintain.counting", stratum=level)
            # Counting first: retract dead supports of tracked rules.
            for rule, key, facts, binding in \
                    candidates_by_level.get(level, ()):
                if support is None or key not in support.seen:
                    continue
                if self._body_solvable(rule, binding):
                    report.kept_by_support += 1
                    continue
                support.retract(key, facts)
            dred: list[Fact] = []
            for fact in by_level.get(level, ()):
                if counting_preds[fact_pred(fact)]:
                    if support.counts.get(fact, 0) <= 0 \
                            and fact_present(db, fact):
                        remove_fact(db, fact)
                        report.overdeleted += 1
                else:
                    dred.append(fact)
            if dred:
                self._dred(level, dred, report)

    def _overdelete_closure(self, deleted: list[Fact],
                            affected: list[NormalizedRule]):
        """The classic DRed overapproximation, against the pristine view.

        Returns the ordered overdelete candidate set and every candidate
        derivation ``(rule, support key, facts, head binding)`` whose
        body touched a candidate fact.  Nothing is removed here: facts
        removed later (by counts reaching zero or DRed) were all seeded
        through the closure, so matching rule bodies against the
        unmodified view keeps the overapproximation complete even for
        derivations that used several deleted facts.
        """
        db = self._db
        base = self._base
        support = self._support
        overdeleted: dict[Fact, None] = {}
        for fact in deleted:
            if not fact_present(db, fact):
                continue
            if fact in self._protected:
                continue  # a ground program rule still asserts it
            overdeleted[fact] = None
        candidate_keys: set = set()
        candidates: list = []
        budget = self._budget
        seeds = SeedIndex(db, affected)
        frontier = list(overdeleted)
        while frontier:
            fault_point("maintain.overdelete")
            if budget is not None:
                budget.check("maintain.overdelete")
            batch = self._partition(frontier)
            frontier = []
            for at, positions in seeds.plan(batch):
                rule = affected[at]
                spec = self._specs[id(rule)]
                for position in positions:
                    for binding in self._delta_solutions(rule, position,
                                                         batch):
                        # Project onto the head variables: a support is
                        # a (rule, head binding) pair, and its later
                        # aliveness re-check must be existential over
                        # the whole body -- seeding the full (dead)
                        # body valuation would wrongly kill facts whose
                        # other valuations survive.  (The compiled
                        # executors already project; the interpreted
                        # path yields full bindings.)
                        head_binding = {v: binding[v]
                                        for v in spec.head_vars}
                        facts = spec.facts(db, head_binding)
                        key = (support.support_key(rule, head_binding)
                               if support is not None else None)
                        if key is None:
                            key = (id(rule), tuple(
                                head_binding[v] for v in spec.head_vars))
                        if key in candidate_keys:
                            continue
                        candidate_keys.add(key)
                        candidates.append((rule, key, facts, head_binding))
                        for fact in facts:
                            if fact in overdeleted:
                                continue
                            if not fact_present(db, fact):
                                continue
                            if fact_present(base, fact):
                                continue  # EDB-protected: cannot vanish
                            if fact in self._protected:
                                continue  # asserted by a ground rule
                            overdeleted[fact] = None
                            frontier.append(fact)
        return overdeleted, candidates

    def _dred(self, level: int, facts: list[Fact],
              report: MaintenanceReport) -> None:
        """Remove, then rederive-and-propagate, within one stratum."""
        fault_point("maintain.dred")
        db = self._db
        support = self._support
        budget = self._budget
        removed: list[Fact] = []
        for fact in facts:
            if remove_fact(db, fact):
                removed.append(fact)
                report.overdeleted += 1
                if support is not None:
                    support.forget(fact)
        rederived: list[Fact] = []
        self._realizer.log = rederived
        for fact in removed:
            pred = fact_pred(fact)
            for rule in self._rules:
                if rule.is_fact or not any(pred_matches(pred, d)
                                           for d in rule.defines):
                    continue
                spec = self._specs[id(rule)]
                if any(self._body_solvable(rule, binding)
                       for binding in spec.unify(db, fact)):
                    self._realizer.replay((fact,))
                    report.rederived += 1
                    break
        # Propagate: a rederived fact may restore support for other
        # removed facts of this stratum (semi-naive, realizer-logged).
        delta = rederived
        group = self._strata[level]
        seeds = SeedIndex(db, group)
        while delta:
            fault_point("maintain.rederive")
            if budget is not None:
                budget.check("maintain.rederive", stratum=level)
            log: list = []
            self._realizer.log = log
            batch = self._partition(delta)
            for at, positions in seeds.plan(batch):
                rule = group[at]
                for position in positions:
                    # Materialise before realising: the realizer mutates
                    # the indexes the delta kernels iterate.
                    for binding in list(self._delta_solutions(
                            rule, position, batch)):
                        self._realizer.realize(rule.head, binding)
            report.rederived += len(log)
            delta = log

    # -- the insertion pass ---------------------------------------------

    def _insert_pass(self, inserted: list[Fact],
                     affected: list[NormalizedRule],
                     report: MaintenanceReport) -> None:
        db = self._db
        support = self._support
        budget = self._budget
        carry: list[Fact] = []
        self._realizer.log = carry
        self._realizer.replay(inserted)
        affected_ids = {id(rule) for rule in affected}
        for group in self._strata:
            rules = [rule for rule in group if id(rule) in affected_ids]
            if not rules:
                continue
            seeds = SeedIndex(db, rules)
            isa_readers = frozenset(at for at, rule in enumerate(rules)
                                    if _reads_isa(rule))
            delta = list(carry)
            while delta:
                fault_point("maintain.insert")
                if budget is not None:
                    budget.check("maintain.insert")
                log: list = []
                self._realizer.log = log
                batch = self._partition(delta)
                for at, positions in seeds.plan(
                        batch, isa_readers if batch.has_isa else frozenset()):
                    rule = rules[at]
                    if positions is None:
                        self._fire_full(rule, db, support)
                        continue
                    for position in positions:
                        # Materialise before realising (the realizer
                        # mutates the indexes the kernels iterate).
                        for binding in list(self._delta_solutions(
                                rule, position, batch)):
                            if support is not None:
                                support.observe(rule, binding, db)
                            self._realizer.realize(rule.head, binding)
                report.reinserted += len(log)
                carry.extend(log)
                delta = log

    def _fire_full(self, rule: NormalizedRule, db: Database,
                   support: SupportIndex | None) -> None:
        solutions = solve(db, rule.body, {}, self._policy,
                          cache=self._plan_cache,
                          use_planner=self._use_planner,
                          compiled=self._compiled)
        for binding in list(solutions):
            if support is not None:
                support.observe(rule, binding, db)
            self._realizer.realize(rule.head, binding)

    # -- body evaluation ------------------------------------------------

    def _body_solvable(self, rule: NormalizedRule,
                       binding: Binding) -> bool:
        """One goal-directed existence check of a rule body."""
        if not self._use_planner:
            for _ in solve(self._db, rule.body, binding, self._policy,
                           use_planner=False):
                return True
            return False
        bound = relevant_bound(rule.body, binding)
        plan = self._plan_cache.get(self._db, rule.body, bound)
        if self._executor in ("columnar", "batch"):
            return solve_exists(self._db, rule.body, binding, self._policy,
                                plan=plan, executor=self._executor,
                                stats=self._stats, budget=self._budget)
        for _ in execute_plan(self._db, plan, binding, self._policy,
                              compiled=self._compiled,
                              budget=self._budget):
            return True
        return False

    def _delta_solutions(self, rule: NormalizedRule, position: int,
                         batch: DeltaIndex):
        """Solutions of a rule body seeded from ``batch`` at ``position``.

        Yields head-variable bindings, using the cached compiled delta
        kernel for the position (the engine's own semi-naive machinery)
        or the interpreted seed walk when compilation is off.
        """
        atom = rule.body[position]
        if not self._use_planner:
            rest = rule.body[:position] + rule.body[position + 1:]
            for seed in match_atom_delta(self._db, atom, {}, batch.entries,
                                         self._policy):
                yield from solve(self._db, list(rest), seed, self._policy,
                                 use_planner=False)
            return
        key = (id(rule), position)
        record = self._delta_execs.get(key)
        if record is None:
            rest = rule.body[:position] + rule.body[position + 1:]
            bound = relevant_bound(rest, atom.variables())
            plan = self._plan_cache.get(self._db, rest, bound)
            execute = None
            record = _DeltaExec(atom, rest, plan, execute)
            if self._executor == "columnar":
                from repro.engine.columnar import compile_columnar_delta_plan

                record.execute_cols, record.head_pairs = \
                    compile_columnar_delta_plan(
                        self._db, atom, plan, self._policy
                    ).column_executor(None, project=variables_of(rule.head),
                                      budget=self._budget)
            elif self._executor == "batch":
                from repro.engine.batch import compile_batch_delta_plan

                record.execute_cols, record.head_pairs = \
                    compile_batch_delta_plan(
                        self._db, atom, plan, self._policy
                    ).column_executor(None, project=variables_of(rule.head),
                                      budget=self._budget)
            elif self._compiled:
                from repro.engine.compile import compile_delta_plan

                record.execute = compile_delta_plan(
                    self._db, atom, plan, self._policy
                ).executor(None, project=variables_of(rule.head))
            self._delta_execs[key] = record
        if record.execute_cols is not None:
            cols, nrows = record.execute_cols(batch)
            pairs = record.head_pairs
            if self._stats is not None:
                self._stats.batches += 1
                self._stats.batch_rows += nrows
            for i in range(nrows):
                yield {var: cols[slot][i] for var, slot in pairs}
            return
        if record.execute is not None:
            yield from record.execute(batch.entries)
            return
        for seed in match_atom_delta(self._db, atom, {}, batch.entries,
                                     self._policy):
            yield from execute_plan(self._db, record.plan, seed,
                                    self._policy, compiled=False)


def _reads_any(rule: NormalizedRule, preds: set[Pred]) -> bool:
    return any(
        pred_matches(read, pred)
        for read in rule.weak_reads | rule.strong_reads
        for pred in preds
    )


def _reads_isa(rule: NormalizedRule) -> bool:
    return any(read == ISA_PRED for read in rule.weak_reads)
