"""Cost-based join planning for conjunction solving.

The conjunction solver needs an atom order.  The order only depends on
*which* variables are bound -- never on their values -- because every
data atom binds all of its variables when it matches.  So instead of
re-running a greedy cost search at every node of the backtracking tree
(the pre-planner behaviour), we build one static :class:`Plan` per
``(conjunction, initially-bound variables)`` pair and execute it.

Costs come from the :class:`~repro.oodb.statistics.CardinalityCatalog`:
per-method fact counts, distinct-subject and distinct-result counts, and
isa fan-out -- plus *exact* index bucket sizes when a method and a name
constant meet (``color -> red`` is estimated by the real size of the
``(color, red)`` index bucket).  The estimate mirrors the access path
:func:`repro.engine.matching.match_atom` will actually take, so EXPLAIN
output shows index vs. scan decisions faithfully.

Non-data atoms keep their scheduling semantics from the heuristic era:

- ready comparisons are free filters and run immediately;
- superset atoms run after data atoms (unbound source variables force
  universe enumeration and are penalised per variable);
- negations wait until the variables they share with other remaining
  atoms are bound; if that never happens the conjunction flounders and
  planning raises :class:`~repro.errors.EvaluationError`.

:class:`PlanCache` memoises plans keyed on the conjunction and the
initially-bound variable set, invalidating when the database's data
version changes (or never, for an engine run that owns its snapshot).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core import builtins as _builtins
from repro.core.ast import Name, Var
from repro.engine.matching import MAGIC_METHOD_PREFIX
from repro.flogic.atoms import (
    Atom,
    ComparisonAtom,
    EnumSupersetAtom,
    IsaAtom,
    NegationAtom,
    ScalarAtom,
    SetMemberAtom,
    SupersetAtom,
    Term,
)
from repro.oodb.database import Database
from repro.oodb.statistics import CardinalityCatalog

#: Cost of a comparison whose sides are not yet bound (schedulable, but
#: only after everything that could bind them).
UNREADY = 1e9

#: Cost marking an atom that must not run yet (floundering guard).
MUST_WAIT = 1e12

#: Base cost of a superset atom: always after data atoms.
_SUPERSET_BASE = 1e5


@dataclass(frozen=True, slots=True)
class Estimate:
    """One atom's predicted evaluation behaviour under a bound-var set."""

    cost: float  #: work: facts the matcher will touch (ordering key)
    rows: float  #: bindings the atom is expected to yield
    access: str  #: human-readable access path (EXPLAIN output)


@dataclass(frozen=True, slots=True)
class PlanStep:
    """One scheduled atom with its estimate at planning time."""

    atom: Atom
    cost: float
    rows: float
    access: str


@dataclass(frozen=True, slots=True)
class Plan:
    """A static atom order for one conjunction and initial binding."""

    steps: tuple[PlanStep, ...]
    bound_in: frozenset[Var]
    #: Memoised :class:`~repro.engine.columnar.ColumnarPlan` forms, keyed
    #: per (database, match policy) by
    #: :func:`~repro.engine.columnar.compile_columnar_plan`.
    #: Excluded from equality; a plan is its steps, not its lowerings.
    compiled_cache: dict = field(default_factory=dict, compare=False,
                                 repr=False)

    @property
    def est_rows(self) -> float:
        """Rough joint cardinality: product of per-step row estimates."""
        total = 1.0
        for step in self.steps:
            total *= max(step.rows, 1e-3)
            if total > 1e18:
                return 1e18
        return total

    def order(self) -> tuple[Atom, ...]:
        """The scheduled atoms, in execution order."""
        return tuple(step.atom for step in self.steps)


# ---------------------------------------------------------------------------
# Boundness helpers
# ---------------------------------------------------------------------------

def is_bound(term: Term, bound: frozenset[Var] | set[Var]) -> bool:
    """Names always denote; variables must be in the bound set."""
    return isinstance(term, Name) or term in bound


def adorn_positions(atom: Atom) -> tuple[Term, Term] | None:
    """The (subject-like, result-like) terms adornments range over.

    Adornments abstract an atom's boundness the same way the planner
    does -- only *which* positions are bound matters -- and drive the
    magic-set rewrite (:mod:`repro.engine.magic`) and the EXPLAIN
    adornment column.  Non-data atoms have no adornable positions.
    """
    if isinstance(atom, ScalarAtom):
        return (atom.subject, atom.result)
    if isinstance(atom, SetMemberAtom):
        return (atom.subject, atom.member)
    if isinstance(atom, IsaAtom):
        return (atom.obj, atom.cls)
    return None


def adornment(atom: Atom,
              bound: set[Var] | frozenset[Var]) -> str | None:
    """The ``b``/``f`` adornment of ``atom`` under a bound-variable set."""
    positions = adorn_positions(atom)
    if positions is None:
        return None
    return "".join("b" if is_bound(term, bound) else "f"
                   for term in positions)


def relevant_bound(atoms: Iterable[Atom],
                   binding: Iterable[Var]) -> frozenset[Var]:
    """The bound variables that can influence planning of ``atoms``.

    Restricting the cache key to variables actually occurring in the
    conjunction keeps hits high when callers seed solve() with bindings
    mentioning unrelated variables.
    """
    occurring: set[Var] = set()
    for atom in atoms:
        occurring.update(atom.variables())
        if isinstance(atom, (SupersetAtom, EnumSupersetAtom)):
            occurring.update(atom.source_variables())
        elif isinstance(atom, NegationAtom):
            occurring.update(atom.inner_variables())
    return frozenset(v for v in binding if v in occurring)


# ---------------------------------------------------------------------------
# Per-atom estimation
# ---------------------------------------------------------------------------

def estimate_atom(db: Database, catalog: CardinalityCatalog, atom: Atom,
                  bound: frozenset[Var] | set[Var]) -> Estimate:
    """Cost/rows/access-path estimate of solving ``atom`` next.

    Negation atoms get their context-free estimate here; the planner
    overrides it with the floundering-aware cost when choosing among
    several atoms (see :func:`negation_estimate`).
    """
    if isinstance(atom, ComparisonAtom):
        if all(is_bound(t, bound) for t in atom.terms()):
            return Estimate(-5.0, 0.5, "filter")
        return Estimate(UNREADY, 1.0, "unready comparison")
    if isinstance(atom, (SupersetAtom, EnumSupersetAtom)):
        return _superset_estimate(db, catalog, atom, bound)
    if isinstance(atom, NegationAtom):
        unbound = [v for v in atom.inner_variables() if v not in bound]
        return Estimate(600.0 if unbound else 500.0, 0.5, "negation")
    if isinstance(atom, ScalarAtom):
        return _scalar_estimate(db, catalog, atom, bound)
    if isinstance(atom, SetMemberAtom):
        return _set_estimate(db, catalog, atom, bound)
    if isinstance(atom, IsaAtom):
        return _isa_estimate(db, catalog, atom, bound)
    raise TypeError(f"unknown atom kind: {atom!r}")  # pragma: no cover


def _scalar_estimate(db: Database, catalog: CardinalityCatalog,
                     atom: ScalarAtom,
                     bound: frozenset[Var] | set[Var]) -> Estimate:
    known = isinstance(atom.method, Name)
    method = db.lookup_name(atom.method.value) if known else None
    m_bound = known or atom.method in bound
    s_bound = is_bound(atom.subject, bound)
    r_bound = is_bound(atom.result, bound)
    args_bound = all(is_bound(a, bound) for a in atom.args)
    check = 0.5 if r_bound else 1.0

    if known and _builtins.is_builtin_scalar(method):
        if s_bound or r_bound:
            return Estimate(1.0, 1.0 if not (s_bound and r_bound) else 0.5,
                            "builtin self")
        return Estimate(float(catalog.universe) + 1.0,
                        float(catalog.universe), "universe scan")

    if known:
        card = catalog.scalar.get(method)
        facts = float(card.facts) if card else 0.0
        per_subject = card.per_subject if card else 0.0
        per_result = card.per_result if card else 0.0
    else:
        # A variable at method position: average over stored methods.
        n_methods = max(1, len(catalog.scalar))
        facts = catalog.scalar_total / n_methods
        per_subject = catalog.avg_scalar_facts_per_subject
        per_result = max(1.0, facts / 10.0)

    if m_bound and s_bound and args_bound:
        # Scalar methods are functions: at most one row per application.
        rows = (1.0 if facts or not known else 0.0) * check
        return Estimate(1.0, rows, "primary lookup")
    if m_bound and r_bound:
        if known and isinstance(atom.result, Name):
            rows = float(db.scalars.count_method_result(
                method, db.lookup_name(atom.result.value)))
        else:
            rows = per_result
        if s_bound:
            rows = min(rows, 1.0)
        # A variable result bound by an earlier step arrives as a whole
        # column: the columnar executor serves this shape as a merge
        # join over the sorted inverse bucket rather than a per-row
        # probe.
        access = ("method+result index" if isinstance(atom.result, Name)
                  else "method+result index (merge)")
        return Estimate(rows + 1.0, rows, access)
    if m_bound:
        rows = per_subject * check if s_bound else facts * check
        return Estimate(facts + 1.0 if s_bound else rows + 1.0, rows,
                        "method index")
    if s_bound:
        if isinstance(atom.subject, Name):
            touched = float(db.scalars.count_subject(
                db.lookup_name(atom.subject.value)))
        else:
            touched = catalog.avg_scalar_facts_per_subject
        return Estimate(touched + 1.0, touched * check, "subject index")
    total = float(catalog.scalar_total)
    return Estimate(total + 1.0, total * check, "table scan")


def _set_estimate(db: Database, catalog: CardinalityCatalog,
                  atom: SetMemberAtom,
                  bound: frozenset[Var] | set[Var]) -> Estimate:
    known = isinstance(atom.method, Name)
    method = db.lookup_name(atom.method.value) if known else None
    m_bound = known or atom.method in bound
    s_bound = is_bound(atom.subject, bound)
    r_bound = is_bound(atom.member, bound)
    args_bound = all(is_bound(a, bound) for a in atom.args)
    check = 0.5 if r_bound else 1.0

    if known:
        card = catalog.sets.get(method)
        facts = float(card.facts) if card else 0.0
        apps = float(card.apps) if card else 0.0
        per_result = card.per_result if card else 0.0
        avg_set = facts / apps if apps else 0.0
    else:
        n_methods = max(1, len(catalog.sets))
        facts = catalog.set_total / n_methods
        apps = catalog.set_apps_total / n_methods
        per_result = max(1.0, facts / 10.0)
        avg_set = facts / apps if apps else 1.0

    if m_bound and s_bound and args_bound:
        rows = (min(1.0, avg_set) if r_bound else avg_set)
        return Estimate(avg_set + 1.0, rows * (check if r_bound else 1.0),
                        "primary lookup")
    if m_bound and r_bound:
        if known and isinstance(atom.member, Name):
            rows = float(db.sets.count_method_member(
                method, db.lookup_name(atom.member.value)))
        else:
            rows = per_result
        if s_bound:
            rows = min(rows, 1.0)
        # As for scalars: a column of bound members is answered with a
        # merge join over the sorted inverse bucket.
        access = ("method+member index" if isinstance(atom.member, Name)
                  else "method+member index (merge)")
        return Estimate(rows + 1.0, rows, access)
    if m_bound:
        return Estimate(facts + 1.0, facts * check, "method index")
    if s_bound:
        if isinstance(atom.subject, Name):
            apps_here = db.sets.count_subject_apps(
                db.lookup_name(atom.subject.value))
            touched = apps_here * max(1.0, avg_set)
        else:
            touched = catalog.avg_set_facts_per_subject
        return Estimate(touched + 1.0, touched * check, "subject index")
    total = float(catalog.set_total)
    return Estimate(total + 1.0, total * check, "table scan")


def _isa_estimate(db: Database, catalog: CardinalityCatalog, atom: IsaAtom,
                  bound: frozenset[Var] | set[Var]) -> Estimate:
    o_bound = is_bound(atom.obj, bound)
    c_bound = is_bound(atom.cls, bound)
    if o_bound and c_bound:
        return Estimate(1.0, 0.5, "isa check")
    if o_bound:
        fanout = catalog.avg_classes_per_object
        return Estimate(fanout + 1.0, fanout, "classes-of")
    if c_bound:
        if isinstance(atom.cls, Name):
            extent = float(len(db.members(db.lookup_name(atom.cls.value))))
        else:
            extent = catalog.isa_edges / max(1, catalog.isa_classes)
        return Estimate(extent + 1.0, extent, "class extent")
    pairs = float(catalog.isa_edges)
    return Estimate(pairs + 1.0, pairs, "hierarchy scan")


def _superset_estimate(db: Database, catalog: CardinalityCatalog, atom,
                       bound: frozenset[Var] | set[Var]) -> Estimate:
    free_terms = sum(1 for v in atom.variables() if v not in bound)
    free_source = sum(1 for v in atom.source_variables() if v not in bound)
    universe = max(1.0, float(catalog.universe))
    enumerations = universe ** free_source
    # Always executable, only expensive: the cost must stay strictly
    # below UNREADY (a superset can bind a comparison's sides) and
    # below MUST_WAIT (it is never a floundering negation).
    cost = min(_SUPERSET_BASE + 10.0 * free_terms + 10.0 * enumerations,
               UNREADY / 2.0)
    known = isinstance(atom.method, Name)
    if known:
        card = catalog.sets.get(db.lookup_name(atom.method.value))
        apps = float(card.apps) if card else 1.0
    else:
        apps = float(max(1, catalog.set_apps_total))
    subject_free = not is_bound(atom.subject, bound)
    rows = enumerations * (apps if subject_free else 1.0)
    return Estimate(cost, rows, "superset")


def negation_estimate(atoms: Sequence[Atom], index: int, atom: NegationAtom,
                      bound: frozenset[Var] | set[Var]) -> Estimate:
    """Floundering-aware negation cost among ``atoms``.

    A negation whose unbound variables also occur in *other* remaining
    atoms must wait: running it early would quantify those shared
    variables existentially inside the negation and flip answers.
    Variables local to the negation stay existential and are fine.
    """
    unbound = [v for v in atom.inner_variables() if v not in bound]
    if not unbound:
        return Estimate(500.0, 0.5, "negation")
    elsewhere: set[Var] = set()
    for other_index, other in enumerate(atoms):
        if other_index == index:
            continue
        elsewhere.update(other.variables())
        if isinstance(other, (SupersetAtom, EnumSupersetAtom)):
            elsewhere.update(other.source_variables())
        if isinstance(other, NegationAtom):
            elsewhere.update(other.inner_variables())
    if any(v in elsewhere for v in unbound):
        return Estimate(MUST_WAIT, 1.0, "negation (blocked)")
    # Purely negation-local variables: existential, safe to run.
    return Estimate(600.0, 0.5, "negation")


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------

def build_plan(db: Database, atoms: Sequence[Atom],
               bound: Iterable[Var] = (),
               catalog: CardinalityCatalog | None = None) -> Plan:
    """Greedy static join order for ``atoms`` given initially-bound vars.

    Repeatedly schedules the cheapest remaining atom under the abstract
    binding (the set of bound variables), then marks the variables that
    atom binds.  Cost ties break towards the atom expected to yield
    *fewer rows*: the columnar executor's dominant cost is the width of
    the intermediate binding batch, so among equally cheap steps
    the more selective one goes first.  Raises
    :class:`~repro.errors.EvaluationError` when only blocked negations
    remain (the conjunction is unsafe).  This check is *static*: a
    structurally unsafe conjunction is rejected at plan time even when
    its positive part happens to match no data -- stricter than the
    legacy dynamic order, which only floundered when execution actually
    reached the negations.
    """
    catalog = catalog if catalog is not None else db.catalog()
    remaining = list(atoms)
    bound_now: set[Var] = set(bound)
    bound_in = frozenset(bound_now)
    steps: list[PlanStep] = []
    while remaining:
        best_index = 0
        best: Estimate | None = None
        for index, atom in enumerate(remaining):
            if isinstance(atom, NegationAtom):
                est = negation_estimate(remaining, index, atom, bound_now)
            else:
                est = estimate_atom(db, catalog, atom, bound_now)
            if best is None or est.cost < best.cost or (
                    est.cost == best.cost and est.rows < best.rows):
                best = est
                best_index = index
        assert best is not None
        if best.cost >= MUST_WAIT:
            from repro.errors import EvaluationError

            raise EvaluationError(
                "unsafe negation: its variables cannot be bound by the "
                "positive part of the conjunction"
            )
        atom = remaining.pop(best_index)
        steps.append(PlanStep(atom, best.cost, best.rows, best.access))
        if isinstance(atom, (ScalarAtom, SetMemberAtom, IsaAtom)):
            bound_now.update(atom.variables())
        elif isinstance(atom, (SupersetAtom, EnumSupersetAtom)):
            bound_now.update(atom.variables())
            bound_now.update(atom.source_variables())
        # Comparisons and negations bind nothing.
    return Plan(tuple(steps), bound_in)


# ---------------------------------------------------------------------------
# Structural plan keys (adornment-aware reuse)
# ---------------------------------------------------------------------------

def _canon_node(node, mapping: dict) -> object:
    """A hashable signature of one AST/atom node, variables abstracted.

    Variables become first-occurrence indexes (alpha-renaming), and
    magic demand predicates (``magic$kind$name$adornment``) drop their
    adornment suffix, so the rule-body variants the magic rewrite emits
    for different adornments of one predicate -- and plain conjunctions
    that differ only in variable naming -- share a signature.  All
    other name constants are kept verbatim: estimates probe exact index
    buckets for constants, so conjunctions over different objects must
    not share plans.
    """
    if isinstance(node, Var):
        return ("v", mapping.setdefault(node, len(mapping)))
    if isinstance(node, Name):
        value = node.value
        if isinstance(value, str) and value.startswith(MAGIC_METHOD_PREFIX):
            return ("magic", *value.split("$")[1:-1])
        return ("n", value)
    if isinstance(node, tuple):
        return tuple(_canon_node(item, mapping) for item in node)
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return (type(node).__name__,
                *(_canon_node(getattr(node, f.name), mapping)
                  for f in dataclasses.fields(node)))
    return node


def structural_key(atoms: Sequence[Atom],
                   bound: Iterable[Var]) -> tuple:
    """The (conjunction, bound-set) structure of a planning problem.

    Two keys coincide exactly when the conjunctions are equal up to
    variable renaming and magic-adornment naming and bind the same
    positions -- the planner would walk the same search space, so one
    greedy search can serve both (see :class:`PlanCache`).
    """
    mapping: dict[Var, int] = {}
    signature = tuple(_canon_node(atom, mapping) for atom in atoms)
    canon_bound = frozenset(mapping[v] for v in bound if v in mapping)
    return (signature, canon_bound)


def _order_of(atoms: tuple[Atom, ...], plan: Plan) -> tuple[int, ...] | None:
    """Each plan step's index into ``atoms`` (duplicates disambiguated)."""
    positions: dict[Atom, list[int]] = {}
    for index, atom in enumerate(atoms):
        positions.setdefault(atom, []).append(index)
    order: list[int] = []
    for step in plan.steps:
        indexes = positions.get(step.atom)
        if not indexes:  # pragma: no cover - steps are a permutation
            return None
        order.append(indexes.pop(0))
    return tuple(order)


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

class PlanCache:
    """Memoised plans keyed on ``(conjunction, bound variables)``.

    With ``track_version=True`` (the query-time default) every lookup
    compares the database's :meth:`~repro.oodb.database.Database.data_version`
    and drops all cached plans when facts changed.  The engine passes
    ``track_version=False``: it owns its evaluation snapshot and keeps
    one plan per rule body for the whole run, so the greedy search is
    not re-run for every binding (or every fixpoint iteration).

    Behind the exact key sits a **structural** layer keyed by
    :func:`structural_key`: when a conjunction misses exactly but an
    alpha-equivalent one (same atoms up to variable renaming and magic
    adornment naming, same bound positions) was planned before, its
    step order and estimates are replayed onto the new atoms instead of
    re-running the greedy search.  This is what lets the magic
    rewrite's rule-body variants for different adornments -- and
    re-parsed queries with fresh variable names -- share planning work;
    ``structural_hits`` counts these replays (they also count as
    ``hits``).  Safety transfers with the order: a stored order exists
    only for conjunctions the planner accepted, and alpha-equivalence
    preserves which schedules keep negations and comparisons bound.
    """

    def __init__(self, *, track_version: bool = True,
                 max_entries: int = 1024,
                 structural: bool = True) -> None:
        self._track_version = track_version
        self._max_entries = max_entries
        self._structural = structural
        self._plans: dict[tuple, Plan] = {}
        #: structural key -> (step order, per-step (cost, rows, access)).
        self._orders: dict[tuple, tuple] = {}
        self._version: int | None = None
        self.hits = 0
        self.misses = 0
        self.structural_hits = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._plans)

    def invalidate(self) -> None:
        """Drop every cached plan (and structural order)."""
        if self._plans or self._orders:
            self.invalidations += 1
        self._plans.clear()
        self._orders.clear()

    def _store(self, key: tuple, plan: Plan) -> None:
        if len(self._plans) >= self._max_entries:
            self._plans.clear()
        self._plans[key] = plan

    def get(self, db: Database, atoms: tuple[Atom, ...],
            bound: frozenset[Var],
            catalog: CardinalityCatalog | None = None) -> Plan:
        """The cached plan for this key, built on first use.

        ``catalog`` pins the statistics a cache miss plans against; the
        engine passes its start-of-run snapshot so mid-run derivations
        do not trigger catalog rebuilds between rule plannings.
        """
        if self._track_version:
            version = db.data_version()
            if version != self._version:
                if self._version is not None:
                    self.invalidate()
                self._version = version
        key = (atoms, bound)
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            return plan
        skey = structural_key(atoms, bound) if self._structural else None
        if skey is not None:
            entry = self._orders.get(skey)
            if entry is not None:
                order, estimates = entry
                plan = Plan(
                    tuple(PlanStep(atoms[index], cost, rows, access)
                          for index, (cost, rows, access)
                          in zip(order, estimates)),
                    frozenset(bound),
                )
                self.hits += 1
                self.structural_hits += 1
                self._store(key, plan)
                return plan
        self.misses += 1
        plan = build_plan(db, atoms, bound, catalog)
        if skey is not None:
            order = _order_of(atoms, plan)
            if order is not None:
                if len(self._orders) >= self._max_entries:
                    self._orders.clear()
                self._orders[skey] = (
                    order,
                    tuple((step.cost, step.rows, step.access)
                          for step in plan.steps),
                )
        self._store(key, plan)
        return plan
