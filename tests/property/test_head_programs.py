"""Property: a compiled column head program is ``HeadRealizer.realize``.

Random head spines -- paths, nested paths, computed ``(M.tc)`` methods,
multi-filter molecules, set enumerations, isa filters, the built-in
``self``, ``@``-arguments -- over random solution batches (duplicate
rows included) and random stored facts.  Running the compiled program
over the batch must leave exactly what row-by-row ``realize`` leaves:
the same facts, the same realizer ``log`` in the same order, the same
``virtuals_created``, the same virtual objects, and -- when a row fails
-- the same error, raised after the same side effects
(``ScalarConflictError``, ``ResourceLimitError`` at
``max_virtual_depth``, hierarchy cycles, the built-in identity).  A head
variable without a column is not compiled at all: ``realize`` stays the
one place that reports it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, Engine, parse_program
from repro.core.ast import (
    IsaFilter,
    Molecule,
    Name,
    Paren,
    Path,
    ScalarFilter,
    SetEnumFilter,
    Var,
)
from repro.core.variables import variables_of
from repro.engine.heads import HeadRealizer
from repro.errors import EvaluationError, PathLogError
from repro.oodb.oid import NamedOid, VirtualOid
from tests.property.strategies import databases

pytestmark = pytest.mark.property

METHODS = ("m1", "m2", "boss", "self")
OBJECTS = ("a", "b", "c", 1, "red")
VARS = ("X", "Y", "Z")

terms = st.one_of(st.sampled_from(OBJECTS).map(Name),
                  st.sampled_from(VARS).map(Var))


def spines(depth: int = 3):
    """Normalised head spines: what ``normalize_rule`` hands the engine
    (reads already hoisted, so arguments and results are terms)."""

    def extend(children):
        methods = st.one_of(
            st.sampled_from(METHODS).map(Name),
            st.sampled_from(VARS).map(Var),
            st.builds(Path, base=terms,
                      method=st.sampled_from(METHODS[:3]).map(Name),
                      args=st.just(()),
                      set_valued=st.just(False)).map(Paren),
        )
        args = st.lists(terms, max_size=1).map(tuple)
        paths = st.builds(Path, base=children, method=methods, args=args,
                          set_valued=st.just(False))
        filters = st.one_of(
            st.builds(ScalarFilter, method=methods, args=args, result=terms),
            st.builds(SetEnumFilter, method=methods, args=args,
                      elements=st.lists(terms, max_size=2).map(tuple)),
            st.builds(IsaFilter, cls=terms),
        )
        molecules = st.builds(
            Molecule, base=children,
            filters=st.lists(filters, min_size=1, max_size=3).map(tuple))
        return st.one_of(paths, molecules)

    return st.recursive(terms, extend, max_leaves=depth * 2)


def _oid(value):
    return NamedOid(value)


#: Column values: named objects plus virtuals of depth 1 and 2, so the
#: depth limit can trip on the first path step.
COLUMN_VALUES = tuple(_oid(v) for v in OBJECTS) + (
    VirtualOid(_oid("boss"), _oid("a")),
    VirtualOid(_oid("m1"), VirtualOid(_oid("boss"), _oid("b"))),
)

stored_facts = st.lists(
    st.tuples(st.sampled_from(METHODS[:3]), st.sampled_from(COLUMN_VALUES),
              st.sampled_from(COLUMN_VALUES)),
    max_size=6)


def _run(db, head, rows, bound, max_depth, compiled):
    """Realise ``rows`` into a clone of ``db``; everything observable."""
    work = db.clone()
    realizer = HeadRealizer(work, max_virtual_depth=max_depth)
    error = None
    try:
        if compiled:
            slot_of = {var: slot for slot, var in enumerate(bound)}
            cols = [[row[var] for row in rows] for var in bound]
            emit = realizer.compile_columns(head, slot_of)
            if emit is None:
                return None
            emit(cols, len(rows), realizer.log)
        else:
            for row in rows:
                realizer.realize(head, row)
    except PathLogError as failure:
        error = (type(failure), str(failure))
    return {
        "error": error,
        "log": list(realizer.log),
        "virtuals_created": realizer.virtuals_created,
        "scalars": dict(work.scalars.items()),
        "sets": dict(work.sets.items()),
        "isa": set(work.hierarchy.declared_edges()),
        "virtuals": {oid for oid in work.universe()
                     if isinstance(oid, VirtualOid)},
    }


@given(head=spines(), db=databases(), facts=stored_facts,
       rows=st.lists(st.fixed_dictionaries(
           {Var(name): st.sampled_from(COLUMN_VALUES) for name in VARS}),
           max_size=5),
       repeat=st.booleans(), max_depth=st.integers(1, 4),
       unbound=st.sampled_from((None,) + VARS))
@settings(max_examples=400, deadline=None)
def test_program_equals_row_by_row_realize(head, db, facts, rows, repeat,
                                           max_depth, unbound):
    for method, subject, result in facts:
        if db.scalars.get(_oid(method), subject, ()) is None:
            db.assert_scalar(_oid(method), subject, (), result)
    if repeat:
        rows = rows + rows[:2]  # the same binding twice in one batch
    bound = [Var(name) for name in VARS if name != unbound]
    rows = [{var: row[var] for var in bound} for row in rows]

    compiled = _run(db, head, rows, bound, max_depth, compiled=True)
    reference = _run(db, head, rows, bound, max_depth, compiled=False)
    missing = [var for var in variables_of(head) if var not in bound]
    if missing:
        # Not compiled; ``realize`` reports the variable (or an earlier
        # error of the same row) as soon as there is a row.
        assert compiled is None
        if rows:
            assert reference["error"] is not None
            kind, message = reference["error"]
            if kind is EvaluationError and "unbound" in message:
                assert any(var.name in message for var in missing)
        return
    assert compiled == reference


def _path(base, method, *args):
    return Path(base, method, tuple(args), set_valued=False)


X, Y = Var("X"), Var("Y")

#: Spines whose steps each create an object: any change in evaluation
#: order shows in the log (and in which step hits the depth limit).
ORDERED_SPINES = (
    _path(_path(X, Name("m1")), Paren(_path(Y, Name("m2")))),
    Molecule(_path(X, Name("m1")), (
        ScalarFilter(Paren(_path(Y, Name("m2"))), (), X),
        SetEnumFilter(Paren(_path(X, Name("boss"))), (Y,), (X, Y)),
        IsaFilter(Y),
    )),
    _path(_path(_path(X, Name("m1")), Name("m2"), Y), Name("boss")),
    Molecule(_path(X, Name("self")), (
        ScalarFilter(Name("self"), (), X),
        ScalarFilter(Name("m1"), (), Y),
    )),
)


@pytest.mark.parametrize("head", ORDERED_SPINES, ids=str)
@pytest.mark.parametrize("max_depth", [1, 2, 3, 8])
def test_steps_run_in_realize_order(head, max_depth):
    db = Database()
    a, b = db.obj("a"), db.obj("b")
    rows = [{X: a, Y: b}, {X: b, Y: a}, {X: a, Y: b}]
    compiled = _run(db, head, rows, [X, Y], max_depth, compiled=True)
    reference = _run(db, head, rows, [X, Y], max_depth, compiled=False)
    assert compiled == reference
    assert compiled["log"] or compiled["error"]


RULE_POOL = (
    "X.address[street -> X.street; city -> X.city] <- X : c1.",
    "X.m1.boss[tag -> Y] <- X[kids ->> {Y}].",
    "X.view[of -> X; peers ->> {Y, Z}] <- X[kids ->> {Y}], X[a ->> {Z}].",
    "X[(M.tc) ->> {Y}] <- X[M ->> {Y}], X : c1.",
    "X.twin : c3 <- X : c2.",
    "X.boss@(Y)[seen -> 1] <- X[kids ->> {Y}].",
    "X.self[mark -> 1] <- X[color -> red].",
    "X[self -> X; ok -> 1] <- X : c1.",
    "X.v5[tag -> 1] <- X[color -> red].",
    "X.v5.v6[tag -> 2] <- X[color -> red].",
)


def _outcome(db, rules, **kwargs):
    engine = Engine(db, rules, **kwargs)
    try:
        result = engine.run()
    except PathLogError as failure:
        return (type(failure), str(failure)), engine.stats
    facts = (set(result.scalars.items()),
             {(key, members) for key, members in result.sets.items()},
             set(result.hierarchy.declared_edges()))
    stats = engine.stats
    return (facts, stats.virtuals_created, stats.derived_total,
            stats.firings), stats


@given(db=databases(),
       picks=st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=4,
                      unique=True))
@settings(max_examples=120, deadline=None)
def test_engine_with_programs_equals_per_row_engines(db, picks):
    for index, name in enumerate(sorted(db.universe(), key=str)[:4]):
        for method in ("street", "city"):
            if db.scalars.get(_oid(method), name, ()) is None:
                db.assert_scalar(_oid(method), name, (),
                                 _oid(f"{method}{index % 2}"))
    rules = parse_program("\n".join(picks))
    columnar, stats = _outcome(db, rules)
    assert stats.heads_fallback == 0
    assert columnar == _outcome(db, rules, executor="batch")[0]
    # Interpreted evaluation and support-tracked runs realise row by row.
    assert columnar == _outcome(db, rules, executor="interpreted")[0]
    tracked, tracked_stats = _outcome(db, rules, record_support=True)
    assert columnar == tracked
    assert (tracked_stats.heads_compiled + tracked_stats.heads_fallback
            == tracked_stats.plans_compiled)
