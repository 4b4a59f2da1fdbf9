"""Matching one atom against a database under a partial binding.

A *binding* is a plain ``dict[Var, Oid]``.  ``match_atom`` yields
extended bindings, one per way the atom can be satisfied; it selects the
most useful index for the bound positions.

Design notes (documented restrictions, all tested):

- An unbound variable at *method* position ranges over the methods that
  have stored facts, not over built-ins: ``self`` holds for every object
  and would make ``X[M -> Y]`` enumerate ``U^2``.  This mirrors the
  safety conditions of Datalog; the paper's generic-method rules only
  ever need stored methods.
- Superset atoms whose *source* contains unbound variables enumerate
  those variables over the universe -- correct but potentially large,
  exactly what Definition 4 quantifies over.  The conjunction solver
  orders such atoms last so this is rare.
- A vacuous superset (empty required set) with an unbound subject
  enumerates the universe: every object qualifies (Definition 4 case 7).
- Comparison atoms require both sides bound (another safety condition).
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.core import builtins as _builtins
from repro.core.ast import Name, Var
from repro.core.entailment import compare_oids
from repro.core.valuation import VariableValuation, valuate
from repro.errors import EvaluationError
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
from repro.oodb.oid import NamedOid, Oid

Binding = dict[Var, Oid]

#: Methods carrying this name prefix are internal demand predicates of
#: the magic-set rewrite (:mod:`repro.engine.magic`).  They behave like
#: hidden system tables: a *variable* at method position never ranges
#: over them (otherwise demand bookkeeping would leak into wildcard
#: query answers and rule firings), while an explicit name -- the
#: rewrite's own guard atoms -- matches them normally.  The ``$`` is
#: unlexable, so no user program can name one.
MAGIC_METHOD_PREFIX = "magic$"


def method_visible(method: Oid) -> bool:
    """Whether a variable at method position may enumerate ``method``."""
    return not (isinstance(method, NamedOid)
                and isinstance(method.value, str)
                and method.value.startswith(MAGIC_METHOD_PREFIX))


class MatchPolicy:
    """Tunable restrictions on matching.

    ``max_method_depth`` bounds the virtual-nesting depth of objects
    acceptable at *method* position (None = unlimited).  Rationale: for
    generic-method programs like the paper's transitive closure
    (Section 6), the minimal model is infinite -- ``kids.tc`` is itself
    a method, so ``kids.tc.tc`` has derivable facts, and so on forever.
    Bottom-up materialisation must truncate somewhere; bounding the
    *method-object* depth uniformly (whether the method term was
    enumerated or arrived bound) keeps evaluation terminating, keeps
    answers independent of join order, and preserves every example in
    the paper (which needs depth 1: ``tc(kids)``).  The engine defaults
    to depth 1; ad-hoc queries default to unlimited because a stored
    database is finite anyway.
    """

    __slots__ = ("max_method_depth",)

    def __init__(self, max_method_depth: int | None = None) -> None:
        self.max_method_depth = max_method_depth

    def method_ok(self, method: Oid) -> bool:
        """May ``method`` be used at method position?"""
        if self.max_method_depth is None:
            return True
        from repro.oodb.oid import VirtualOid

        if isinstance(method, VirtualOid):
            return method.depth() <= self.max_method_depth
        return True


#: No restrictions (query-time default).
UNRESTRICTED = MatchPolicy(None)


def resolve(term: Term, db: Database, binding: Binding) -> Oid | None:
    """The object a term denotes under ``binding``; None when unbound."""
    if isinstance(term, Name):
        return db.lookup_name(term.value)
    return binding.get(term)


def unify(term: Term, obj: Oid, db: Database,
          binding: Binding) -> Binding | None:
    """Bind/check one term against one object; None on mismatch."""
    known = resolve(term, db, binding)
    if known is None:
        extended = dict(binding)
        extended[term] = obj  # type: ignore[index]  # only Vars are unbound
        return extended
    if known == obj:
        return binding
    return None


def unify_all(pairs, db: Database, binding: Binding) -> Binding | None:
    """Unify a sequence of (term, obj) pairs; None on any mismatch."""
    current = binding
    for term, obj in pairs:
        current = unify(term, obj, db, current)
        if current is None:
            return None
    return current


def match_atom(db: Database, atom: Atom, binding: Binding,
               policy: MatchPolicy = UNRESTRICTED) -> Iterator[Binding]:
    """All extensions of ``binding`` that satisfy ``atom`` in ``db``."""
    if isinstance(atom, ScalarAtom):
        yield from _match_scalar(db, atom, binding, policy)
    elif isinstance(atom, SetMemberAtom):
        yield from _match_set_member(db, atom, binding, policy)
    elif isinstance(atom, IsaAtom):
        yield from _match_isa(db, atom, binding)
    elif isinstance(atom, SupersetAtom):
        yield from _match_superset(db, atom, binding, atom.source, None,
                                   policy)
    elif isinstance(atom, EnumSupersetAtom):
        yield from _match_superset(db, atom, binding, None, atom.elements,
                                   policy)
    elif isinstance(atom, ComparisonAtom):
        yield from _match_comparison(db, atom, binding)
    elif isinstance(atom, NegationAtom):
        yield from _match_negation(db, atom, binding, policy)
    else:  # pragma: no cover - future atom kinds
        raise TypeError(f"unknown atom kind: {atom!r}")


# ---------------------------------------------------------------------------
# Data atoms
# ---------------------------------------------------------------------------

def _match_scalar(db: Database, atom: ScalarAtom, binding: Binding,
                  policy: MatchPolicy) -> Iterator[Binding]:
    method = resolve(atom.method, db, binding)
    subject = resolve(atom.subject, db, binding)
    result = resolve(atom.result, db, binding)

    if method is not None and not policy.method_ok(method):
        return
    if method is not None and _builtins.is_builtin_scalar(method):
        yield from _match_self(db, atom, binding, subject, result)
        return

    args_resolved = [resolve(a, db, binding) for a in atom.args]
    all_args_bound = all(a is not None for a in args_resolved)

    if method is not None and subject is not None and all_args_bound:
        value = db.scalars.get(method, subject, tuple(args_resolved))
        if value is None:
            return
        extended = unify(atom.result, value, db, binding)
        if extended is not None:
            yield extended
        return

    for (fm, fs, fargs), fr in db.scalars.match(method, subject, result):
        if len(fargs) != len(atom.args):
            continue
        if not policy.method_ok(fm):
            continue
        if method is None and not method_visible(fm):
            continue
        pairs = [(atom.method, fm), (atom.subject, fs), (atom.result, fr)]
        pairs.extend(zip(atom.args, fargs))
        extended = unify_all(pairs, db, binding)
        if extended is not None:
            yield extended


def _match_self(db: Database, atom: ScalarAtom, binding: Binding,
                subject: Oid | None, result: Oid | None) -> Iterator[Binding]:
    """The built-in identity: ``o.self = o``, no parameters."""
    if atom.args:
        return
    if subject is not None:
        extended = unify(atom.result, subject, db, binding)
        if extended is not None:
            yield extended
        return
    if result is not None:
        extended = unify(atom.subject, result, db, binding)
        if extended is not None:
            yield extended
        return
    for obj in db.universe():
        extended = unify_all(
            [(atom.subject, obj), (atom.result, obj)], db, binding
        )
        if extended is not None:
            yield extended


def _match_set_member(db: Database, atom: SetMemberAtom, binding: Binding,
                      policy: MatchPolicy) -> Iterator[Binding]:
    method = resolve(atom.method, db, binding)
    subject = resolve(atom.subject, db, binding)
    member = resolve(atom.member, db, binding)

    if method is not None and not policy.method_ok(method):
        return
    args_resolved = [resolve(a, db, binding) for a in atom.args]
    if (method is not None and subject is not None
            and all(a is not None for a in args_resolved)):
        stored = db.sets.get(method, subject, tuple(args_resolved))
        if member is not None:
            if member in stored:
                yield binding
            return
        for value in stored:
            extended = unify(atom.member, value, db, binding)
            if extended is not None:
                yield extended
        return

    for (fm, fs, fargs), fr in db.sets.match(method, subject, member):
        if len(fargs) != len(atom.args):
            continue
        if not policy.method_ok(fm):
            continue
        if method is None and not method_visible(fm):
            continue
        pairs = [(atom.method, fm), (atom.subject, fs), (atom.member, fr)]
        pairs.extend(zip(atom.args, fargs))
        extended = unify_all(pairs, db, binding)
        if extended is not None:
            yield extended


def _match_isa(db: Database, atom: IsaAtom,
               binding: Binding) -> Iterator[Binding]:
    obj = resolve(atom.obj, db, binding)
    cls = resolve(atom.cls, db, binding)
    if obj is not None and cls is not None:
        if db.isa(obj, cls):
            yield binding
        return
    if obj is not None:
        for candidate in db.classes_of(obj):
            extended = unify(atom.cls, candidate, db, binding)
            if extended is not None:
                yield extended
        return
    if cls is not None:
        for candidate in db.members(cls):
            extended = unify(atom.obj, candidate, db, binding)
            if extended is not None:
                yield extended
        return
    for candidate in db.hierarchy.objects():
        for parent in db.classes_of(candidate):
            extended = unify_all(
                [(atom.obj, candidate), (atom.cls, parent)], db, binding
            )
            if extended is not None:
                yield extended


# ---------------------------------------------------------------------------
# Superset atoms (Definition 4, cases 7 and 8)
# ---------------------------------------------------------------------------

def _match_superset(db: Database, atom, binding: Binding,
                    source, elements,
                    policy: MatchPolicy) -> Iterator[Binding]:
    free = [v for v in atom.source_variables() if v not in binding]
    for source_binding in _enumerate_over_universe(db, binding, free):
        required = _required_set(db, source_binding, source, elements)
        yield from _match_superset_core(db, atom, source_binding, required,
                                        policy)


def _required_set(db: Database, binding: Binding,
                  source, elements) -> frozenset[Oid]:
    valuation = VariableValuation(binding)
    if source is not None:
        return valuate(source, db, valuation)
    required: set[Oid] = set()
    for element in elements:
        required.update(valuate(element, db, valuation))
    return frozenset(required)


def _match_superset_core(db: Database, atom, binding: Binding,
                         required: frozenset[Oid],
                         policy: MatchPolicy) -> Iterator[Binding]:
    method = resolve(atom.method, db, binding)
    subject = resolve(atom.subject, db, binding)
    args_resolved = [resolve(a, db, binding) for a in atom.args]
    all_args_bound = all(a is not None for a in args_resolved)

    methods = [method] if method is not None else sorted(
        db.sets.methods(), key=lambda o: str(o)
    )
    for m in methods:
        if not policy.method_ok(m):
            continue
        if method is None and not method_visible(m):
            continue
        base = unify(atom.method, m, db, binding)
        if base is None:
            continue
        if subject is not None and all_args_bound:
            if db.sets.get(m, subject, tuple(args_resolved)) >= required:
                yield base
            continue
        if required:
            pivot = next(iter(required))
            for (fm, fs, fargs), _ in db.sets.match(m, subject, pivot):
                if len(fargs) != len(atom.args):
                    continue
                pairs = [(atom.subject, fs)]
                pairs.extend(zip(atom.args, fargs))
                extended = unify_all(pairs, db, base)
                if extended is None:
                    continue
                if db.sets.get(fm, fs, fargs) >= required:
                    yield extended
            continue
        # Vacuous superset with an unbound subject: every object of the
        # universe satisfies the inclusion (Definition 4, case 7).
        if not all_args_bound:
            raise EvaluationError(
                "cannot solve a vacuous superset filter with unbound "
                "@-parameters; bind them earlier in the body"
            )
        for candidate in db.universe():
            extended = unify(atom.subject, candidate, db, base)
            if extended is not None:
                yield extended


def _enumerate_over_universe(db: Database, binding: Binding,
                             free: list[Var]) -> Iterator[Binding]:
    """All extensions binding ``free`` variables over the universe."""
    if not free:
        yield binding
        return
    universe = list(db.universe())
    for combo in itertools.product(universe, repeat=len(free)):
        extended = dict(binding)
        extended.update(zip(free, combo))
        yield extended


# ---------------------------------------------------------------------------
# Delta matching (semi-naive evaluation)
# ---------------------------------------------------------------------------

def match_atom_delta(db: Database, atom: Atom, binding: Binding,
                     delta, policy: MatchPolicy = UNRESTRICTED
                     ) -> Iterator[Binding]:
    """Match a data atom against a batch of newly derived primitives.

    ``delta`` holds realizer log entries: ``("scalar", m, s, args, r)``,
    ``("set", m, s, args, r)``, ``("isa", o, c)``.  Only scalar and
    set-member atoms are delta-matched (the engine handles isa deltas by
    falling back to full evaluation, because the hierarchy's transitive
    closure makes per-edge deltas incomplete).
    """
    if isinstance(atom, ScalarAtom):
        wanted = "scalar"
        pattern = (atom.method, atom.subject, atom.args, atom.result)
    elif isinstance(atom, SetMemberAtom):
        wanted = "set"
        pattern = (atom.method, atom.subject, atom.args, atom.member)
    else:
        return
    method_t, subject_t, args_t, result_t = pattern
    method_unbound = resolve(method_t, db, binding) is None
    for entry in delta:
        if entry[0] != wanted:
            continue
        _, fm, fs, fargs, fr = entry
        if len(fargs) != len(args_t):
            continue
        if not policy.method_ok(fm):
            continue
        if method_unbound and not method_visible(fm):
            continue
        pairs = [(method_t, fm), (subject_t, fs), (result_t, fr)]
        pairs.extend(zip(args_t, fargs))
        extended = unify_all(pairs, db, binding)
        if extended is not None:
            yield extended


# ---------------------------------------------------------------------------
# Negation as failure
# ---------------------------------------------------------------------------

def _match_negation(db: Database, atom: NegationAtom, binding: Binding,
                    policy: MatchPolicy) -> Iterator[Binding]:
    """``not (...)``: succeed (binding nothing) iff the inner fails.

    The conjunction solver defers negations until the variables shared
    with the positive body part are bound, so the inner solve here only
    existentially enumerates negation-local variables.  The inner
    existence check runs on the constant-cost heuristic order: it is
    re-entered once per candidate binding, and building a statistics
    plan each time would cost more than the (typically tiny) inner
    conjunction itself.
    """
    from repro.engine.solve import _solve_dynamic

    scoped = {var: obj for var, obj in binding.items()
              if var in atom.inner_variables()}
    for _ in _solve_dynamic(db, list(atom.inner), scoped, policy):
        return
    yield binding


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

def _match_comparison(db: Database, atom: ComparisonAtom,
                      binding: Binding) -> Iterator[Binding]:
    left = resolve(atom.left, db, binding)
    right = resolve(atom.right, db, binding)
    if left is None or right is None:
        raise EvaluationError(
            f"comparison {atom} requires both sides bound; reorder the "
            f"body so its variables are bound first"
        )
    if compare_oids(atom.op, left, right):
        yield binding
