"""Backtracking conjunction solver over statically planned atom orders.

Given a conjunction of atoms, :func:`solve` yields every binding of
their variables that satisfies all of them.  The atom order comes from
the cost-based planner (:mod:`repro.engine.planner`): one static
:class:`~repro.engine.planner.Plan` is built per ``(conjunction,
initially-bound variables)`` pair from cardinality statistics, then
executed without per-node re-planning.  This is correct because an
atom's boundness pattern -- the only planning input -- evolves
identically along every branch of the search: a matched data atom binds
all of its variables.

This is the solver for *ad-hoc* conjunctions -- ``Query`` answers and
the maintainer's full rule firings -- and it runs every plan on the
same executor as rule bodies inside a fixpoint: the columnar plan
(:mod:`repro.engine.columnar`), set-at-a-time over int-surrogate
columns.  Answers stream lazily out of its depth-first chunk loop
(:meth:`~repro.engine.columnar.ColumnarPlan.rows`), and :func:`exists`
stops at the first chunk that survives every step.

``interpreted=True`` walks the same plan through the interpreted
matcher (:func:`~repro.engine.matching.match_atom`) with dict
bindings: the reference oracle the test suites hold every production
path to.  The fixed-penalty dynamic order (:func:`_solve_dynamic`) is
kept only as the inner solver of negation, which is re-entered once per
candidate binding -- building a statistics plan each time would cost
more than the (typically tiny) inner conjunction itself.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.engine.columnar import compile_columnar_plan
from repro.engine.matching import (
    UNRESTRICTED,
    Binding,
    MatchPolicy,
    match_atom,
    resolve,
)
from repro.engine.planner import (
    MUST_WAIT,
    Plan,
    PlanCache,
    build_plan,
    estimate_atom,
    relevant_bound,
)
from repro.flogic.atoms import (
    Atom,
    ComparisonAtom,
    EnumSupersetAtom,
    IsaAtom,
    NegationAtom,
    ScalarAtom,
    SetMemberAtom,
    SupersetAtom,
)
from repro.oodb.database import Database


def atom_cost(db: Database, atom: Atom, binding: Binding) -> float:
    """Statistics-based cost of solving ``atom`` next under ``binding``.

    Delegates to the planner's cardinality estimator; kept as a function
    of a concrete binding (only *which* variables are bound matters).
    The selection loop itself lives in
    :func:`repro.engine.planner.build_plan`.
    """
    return estimate_atom(db, db.catalog(), atom, set(binding)).cost


# ---------------------------------------------------------------------------
# Planned execution
# ---------------------------------------------------------------------------

def solve(db: Database, atoms: Iterable[Atom],
          binding: Binding | None = None,
          policy: MatchPolicy = UNRESTRICTED,
          *, cache: PlanCache | None = None,
          plan: Plan | None = None,
          interpreted: bool = False,
          budget=None) -> Iterator[Binding]:
    """Yield every binding satisfying all ``atoms`` (extends ``binding``).

    ``cache`` memoises plans across calls (the engine and the query API
    each own one); ``plan`` short-circuits planning entirely;
    ``interpreted=True`` runs the plan through the interpreted matcher
    (the test oracle) instead of its columnar kernels; and ``budget``
    (a :class:`~repro.engine.budget.QueryBudget`) inserts cooperative
    checkpoints -- per step and per chunk on the columnar plan, once on
    entry and then every 256 solutions on the interpreted walk.
    """
    initial = dict(binding or {})
    if plan is None:
        plan = _plan_for(db, atoms, initial, cache)
    yield from execute_plan(db, plan, initial, policy,
                            interpreted=interpreted, budget=budget)


def _plan_for(db: Database, atoms: Iterable[Atom], binding: Binding,
              cache: PlanCache | None) -> Plan:
    atoms_t = tuple(atoms)
    bound = relevant_bound(atoms_t, binding)
    if cache is not None:
        return cache.get(db, atoms_t, bound)
    return build_plan(db, atoms_t, bound)


def execute_plan(db: Database, plan: Plan,
                 binding: Binding | None = None,
                 policy: MatchPolicy = UNRESTRICTED,
                 counters: list[int] | None = None,
                 *, interpreted: bool = False,
                 budget=None) -> Iterator[Binding]:
    """Run a static plan; ``counters[i]`` accumulates step i's actual rows.

    The plan is lowered once to its columnar form
    (:func:`~repro.engine.columnar.compile_columnar_plan`, memoised on
    the plan) and its solutions stream out as dicts;
    ``interpreted=True`` keeps the dict-binding walk instead.  Per-step
    counters mean the same under both.  ``budget`` adds cooperative
    checkpoints; without one both paths are unchanged.
    """
    if not interpreted:
        yield from compile_columnar_plan(db, plan, policy).rows(
            binding, counters, budget)
        return
    steps = plan.steps
    last = len(steps)

    # The counting and plain walks are separate closures so the hot
    # per-tuple path carries no ``counters is not None`` branch.
    if counters is None:
        def descend(index: int, current: Binding) -> Iterator[Binding]:
            if index == last:
                yield current
                return
            atom = steps[index].atom
            for extended in match_atom(db, atom, current, policy):
                yield from descend(index + 1, extended)
    else:
        def descend(index: int, current: Binding) -> Iterator[Binding]:
            if index == last:
                yield current
                return
            atom = steps[index].atom
            for extended in match_atom(db, atom, current, policy):
                counters[index] += 1
                yield from descend(index + 1, extended)

    if budget is not None:
        budget.start()
        yield from _checked_rows(descend(0, dict(binding or {})), budget)
        return
    yield from descend(0, dict(binding or {}))


def _checked_rows(rows: Iterator[Binding], budget) -> Iterator[Binding]:
    """Periodic budget checkpoints over an interpreted solution stream.

    The dict-binding walk has no step loop to hook, so the checkpoint
    granularity is coarser: once on entry, then every 256 yielded rows.
    """
    budget.check("solve.rows")
    count = 0
    for row in rows:
        count += 1
        if not count & 0xFF:
            budget.check("solve.rows")
        yield row


def exists(db: Database, atoms: Iterable[Atom],
           binding: Binding | None = None,
           policy: MatchPolicy = UNRESTRICTED,
           *, cache: PlanCache | None = None,
           plan: Plan | None = None,
           interpreted: bool = False,
           budget=None) -> bool:
    """True iff the conjunction has at least one solution.

    The columnar plan stops at the first chunk that survives every step
    (:meth:`~repro.engine.columnar.ColumnarPlan.exists`); the
    interpreted walk at its first solution.
    """
    initial = dict(binding or {})
    if plan is None:
        plan = _plan_for(db, atoms, initial, cache)
    if not interpreted:
        return compile_columnar_plan(db, plan, policy).exists(
            initial, budget=budget)
    for _ in execute_plan(db, plan, initial, policy, interpreted=True,
                          budget=budget):
        return True
    return False


# ---------------------------------------------------------------------------
# Dynamic ordering (fixed penalty constants): the negation inner solver
# ---------------------------------------------------------------------------

#: Cost added per unbound position; bound methods/subjects are the most
#: selective, hence their larger discounts.
_UNBOUND_PENALTY = 10.0


def heuristic_atom_cost(db: Database, atom: Atom, binding: Binding) -> float:
    """The constant-cost heuristic: boundness counting, no statistics."""
    if isinstance(atom, ComparisonAtom):
        unbound = sum(1 for v in atom.variables() if v not in binding)
        # A ready comparison is a free filter; an unready one must wait.
        return -5.0 if unbound == 0 else 1e9
    if isinstance(atom, (SupersetAtom, EnumSupersetAtom)):
        free_terms = sum(1 for v in atom.variables() if v not in binding)
        free_source = sum(1 for v in atom.source_variables()
                          if v not in binding)
        # Prefer these after data atoms; unbound source variables force
        # universe enumeration, so weigh them heavily.
        return 100.0 + _UNBOUND_PENALTY * free_terms + 1000.0 * free_source
    if isinstance(atom, NegationAtom):
        free_inner = sum(1 for v in atom.inner_variables()
                         if v not in binding)
        return 500.0 + 100.0 * free_inner
    cost = 0.0
    if isinstance(atom, (ScalarAtom, SetMemberAtom)):
        if resolve(atom.method, db, binding) is None:
            cost += 30.0
        if resolve(atom.subject, db, binding) is None:
            cost += 15.0
        last = atom.result if isinstance(atom, ScalarAtom) else atom.member
        if resolve(last, db, binding) is None:
            cost += 5.0
        for arg in atom.args:
            if resolve(arg, db, binding) is None:
                cost += 5.0
        return cost
    if isinstance(atom, IsaAtom):
        if resolve(atom.obj, db, binding) is None:
            cost += 15.0
        if resolve(atom.cls, db, binding) is None:
            cost += 10.0
        return cost
    raise TypeError(f"unknown atom kind: {atom!r}")  # pragma: no cover


def _heuristic_pick_next(db: Database, atoms: Sequence[Atom],
                         binding: Binding) -> tuple[int, float]:
    best_index = 0
    best_cost = float("inf")
    for index, atom in enumerate(atoms):
        if isinstance(atom, NegationAtom):
            cost = _heuristic_negation_cost(atoms, index, atom, binding)
        else:
            cost = heuristic_atom_cost(db, atom, binding)
        if cost < best_cost:
            best_cost = cost
            best_index = index
    return best_index, best_cost


def _heuristic_negation_cost(atoms: Sequence[Atom], index: int,
                             atom: NegationAtom, binding: Binding) -> float:
    unbound = [v for v in atom.inner_variables() if v not in binding]
    if not unbound:
        return 500.0
    elsewhere: set = set()
    for other_index, other in enumerate(atoms):
        if other_index == index:
            continue
        elsewhere.update(other.variables())
        if isinstance(other, (SupersetAtom, EnumSupersetAtom)):
            elsewhere.update(other.source_variables())
        if isinstance(other, NegationAtom):
            elsewhere.update(other.inner_variables())
    if any(v in elsewhere for v in unbound):
        return MUST_WAIT
    # Purely negation-local variables: existential, safe to run.
    return 600.0


def _solve_dynamic(db: Database, atoms: list[Atom], binding: Binding,
                   policy: MatchPolicy) -> Iterator[Binding]:
    """Solve ``atoms`` picking the cheapest atom at every node."""
    if not atoms:
        yield binding
        return
    index, cost = _heuristic_pick_next(db, atoms, binding)
    if cost >= MUST_WAIT:
        from repro.errors import EvaluationError

        raise EvaluationError(
            "unsafe negation: its variables cannot be bound by the "
            "positive part of the conjunction"
        )
    atom = atoms[index]
    rest = atoms[:index] + atoms[index + 1:]
    for extended in match_atom(db, atom, binding, policy):
        yield from _solve_dynamic(db, rest, extended, policy)
