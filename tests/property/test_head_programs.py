"""Property: every head rung realises what ``HeadRealizer.realize`` does.

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

The int batch writer (``columnar_head_emitter``) runs a head step by
step over the batch instead of row by row, so its contract is a little
looser where row order cannot matter: on heads whose steps each write
a method of their own, the same facts, virtual objects and
``virtuals_created``, the same order *within* each ``(kind, method)``
bucket of the round, and an error exactly when ``realize`` raises one.
At engine level the int writer must match the column program it
replaced (same plans, so the same per-bucket order) and the
``interpreted=True`` oracle.
"""

from types import SimpleNamespace
from unittest import mock

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
from repro.engine.columnar import columnar_head_emitter
from repro.engine.delta import DeltaIndex
from repro.engine.heads import HeadRealizer
from repro.engine.profiler import EngineStats
from repro.errors import EvaluationError, PathLogError, ScalarConflictError
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
    "X.w1[w2 -> X; w3 ->> {Y}] <- X[kids ->> {Y}].",
    "X.p1[p1 -> X] <- X[kids ->> {Y}].",
)


def _failure(failure):
    if isinstance(failure, ScalarConflictError):
        # Which two results of the application an engine derives first
        # depends on its evaluation order; the application does not.
        return (type(failure), failure.method, failure.subject,
                failure.arguments)
    return type(failure), str(failure)


def _outcome(db, rules, **kwargs):
    engine = Engine(db, rules, **kwargs)
    try:
        result = engine.run()
    except PathLogError as failure:
        return _failure(failure), engine.stats
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
    # Interpreted evaluation realises row by row.
    assert columnar == _outcome(db, rules, interpreted=True)[0]


# -- the int batch writer ----------------------------------------------

PATH_METHODS = ("p1", "p2", "p3")
FILTER_METHODS = ("m1", "m2", "m3")


@st.composite
def int_heads(draw):
    """Heads the int batch writer takes: stored scalar and set filters
    over zero to two stored path steps, every method written once."""
    base = draw(terms)
    for method in draw(st.lists(st.sampled_from(PATH_METHODS), max_size=2,
                                unique=True)):
        base = _path(base, Name(method))
    filters = []
    for method in draw(st.lists(st.sampled_from(FILTER_METHODS),
                                min_size=1, max_size=3, unique=True)):
        if draw(st.booleans()):
            filters.append(ScalarFilter(Name(method), (), draw(terms)))
        else:
            filters.append(SetEnumFilter(Name(method), (), (draw(terms),)))
    return Molecule(base, tuple(filters))


def _by_bucket(entries):
    """Realizer-log entries grouped by ``(kind, method)``, in order."""
    buckets: dict = {}
    for entry in entries:
        buckets.setdefault(entry[:2], []).append(entry)
    return buckets


def _observe(work, realizer, log, error):
    return {
        "error": error,
        "log": _by_bucket(log),
        "virtuals_created": realizer.virtuals_created,
        "scalars": dict(work.scalars.items()),
        "sets": dict(work.sets.items()),
        "virtuals": {oid for oid in work.universe()
                     if isinstance(oid, VirtualOid)},
    }


def _run_int_writer(db, head, rows, bound, boxed, max_depth):
    """Emit ``rows`` through the int batch writer into a clone of ``db``;
    the variables in ``boxed`` arrive as OID columns, the rest as
    surrogates."""
    work = db.clone()
    work.scalars.surrogate_view(work.interner)
    work.sets.surrogate_view(work.interner)
    realizer = HeadRealizer(work, max_virtual_depth=max_depth)
    rule = SimpleNamespace(head=head)
    plan = SimpleNamespace(interner=work.interner,
                           slots={var: k for k, var in enumerate(bound)},
                           reps=[var not in boxed for var in bound])
    emit = columnar_head_emitter(work, rule, plan, realizer)
    assert emit is not None
    cols = [[row[var] if var in boxed else work.intern(row[var])
             for row in rows] for var in bound]
    log = DeltaIndex(interner=work.interner)
    error = None
    try:
        emit(cols, len(rows), log)
    except PathLogError as failure:
        error = type(failure)
    return _observe(work, realizer, log.boxed(), error)


def _run_realize(db, head, rows, max_depth):
    work = db.clone()
    realizer = HeadRealizer(work, max_virtual_depth=max_depth)
    error = None
    try:
        for row in rows:
            realizer.realize(head, row)
    except PathLogError as failure:
        error = type(failure)
    return _observe(work, realizer, realizer.log, error)


@given(head=int_heads(), db=databases(),
       facts=st.lists(st.tuples(
           st.sampled_from(PATH_METHODS + FILTER_METHODS),
           st.sampled_from(COLUMN_VALUES), st.sampled_from(COLUMN_VALUES)),
           max_size=6),
       rows=st.lists(st.fixed_dictionaries(
           {Var(name): st.sampled_from(COLUMN_VALUES) for name in VARS}),
           max_size=5),
       boxed=st.sets(st.sampled_from(VARS).map(Var)),
       max_depth=st.integers(1, 4))
@settings(max_examples=400, deadline=None)
def test_int_writer_equals_row_by_row_realize(head, db, facts, rows, boxed,
                                              max_depth):
    for method, subject, result in facts:
        if db.scalars.get(_oid(method), subject, ()) is None:
            db.assert_scalar(_oid(method), subject, (), result)
    # Column values come from stored facts in a run: registered already.
    for value in COLUMN_VALUES:
        db.register(value)
    bound = [Var(name) for name in VARS]
    written = _run_int_writer(db, head, rows, bound, boxed, max_depth)
    reference = _run_realize(db, head, rows, max_depth)
    # Step by step, an error may surface at another row (and so as
    # another error) than row by row, after other side effects; whether
    # one is raised does not change.
    assert (written["error"] is None) == (reference["error"] is None)
    if reference["error"] is None:
        assert written == reference


def _engine_outcome(db, rules, **kwargs):
    """Facts, virtual objects, counters and per-bucket log of one run."""
    logs = []
    count = EngineStats.count_derived

    def record(stats, delta):
        logs.extend(delta.boxed())
        count(stats, delta)

    engine = Engine(db, rules, **kwargs)
    with mock.patch.object(EngineStats, "count_derived", record):
        try:
            result = engine.run()
        except PathLogError as failure:
            return {"error": type(failure)}, engine
    return {
        "error": None,
        "facts": (dict(result.scalars.items()), dict(result.sets.items()),
                  set(result.hierarchy.declared_edges())),
        "virtuals": {oid for oid in result.universe()
                     if isinstance(oid, VirtualOid)},
        "virtuals_created": engine.stats.virtuals_created,
        "derived": engine.stats.derived_total,
        "log": _by_bucket(logs),
    }, engine


def _no_int_writer(db, rule, cplan, realizer=None):
    """The int writer as it was before path heads: simple heads only."""
    if not isinstance(rule.head, Molecule) or not isinstance(
            rule.head.base, (Name, Var)):
        return None
    return columnar_head_emitter(db, rule, cplan, realizer)


VIEW_POOL = (
    "X.address[street -> X.street; city -> X.city] <- X : c1.",
    "X.boss2[of -> X; kin ->> {Y}] <- X : c2[kids ->> {Y}].",
    "X.v1.v2[tag -> 1; mark ->> {red}] <- X[color -> red].",
    "X.v3[seen ->> {Y}] <- X[kids ->> {Y}], Y : c1.",
    "X.v4[tag -> Y] <- X[boss -> Y].",
    "X.v1[lbl -> X] <- X[kids ->> {Y}].",
    "X.v9[tag -> Y] <- X[kids ->> {Y}].",  # two kids: a conflict
)


@given(db=databases(),
       picks=st.lists(st.sampled_from(VIEW_POOL), min_size=1, max_size=3,
                      unique=True))
@settings(max_examples=120, deadline=None)
def test_view_heads_on_the_int_writer_match_the_oracle(db, picks):
    for index, name in enumerate(sorted(db.universe(), key=str)[:4]):
        for method in ("street", "city"):
            if db.scalars.get(_oid(method), name, ()) is None:
                db.assert_scalar(_oid(method), name, (),
                                 _oid(f"{method}{index % 2}"))
    rules = parse_program("\n".join(picks))
    written, engine = _engine_outcome(db, rules)
    assert all(report.head == "int writer"
               for report in engine.plan_reports())
    with mock.patch("repro.engine.fixpoint.columnar_head_emitter",
                    _no_int_writer):
        programmed, _ = _engine_outcome(db, rules)
    oracle, _ = _engine_outcome(db, rules, interpreted=True)
    # The column program sees the very batches the int writer saw:
    # everything matches, each bucket's order included.
    assert written == programmed
    # The oracle matches too, up to the order rows leave the joins.
    assert (written["error"] is None) == (oracle["error"] is None)
    if oracle["error"] is None:
        for outcome in (written, oracle):
            outcome["log"] = {key: set(entries)
                              for key, entries in outcome["log"].items()}
        assert written == oracle


def test_a_path_method_written_as_a_filter_stays_on_the_column_program():
    """``X.p[p -> Y]`` with ``p(o1) = o2`` and the rows ``(o1, o3)``,
    ``(o2, o4)``: row by row, ``o1.p`` is ``o2`` and ``o2.p`` becomes
    ``o3`` before the second row reads it; step by step, ``o2.p`` would
    become a virtual object first and ``o2[p -> o3]`` would conflict."""
    db = Database()
    db.add_object("o1", scalars={"p": "o2", "q": "o3"})
    db.add_object("o2", scalars={"q": "o4"})
    rules = parse_program("X.p[p -> Y] <- X[q -> Y].")
    engine = Engine(db, rules)
    result = engine.run()
    assert [report.head for report in engine.plan_reports()] == [
        "column program"]
    p = result.obj("p")
    assert result.scalars.get(p, result.obj("o2")) == result.obj("o3")
    assert result.scalars.get(p, result.obj("o3")) == result.obj("o4")
    assert engine.stats.virtuals_created == 0
    oracle = Engine(db, rules, interpreted=True).run()
    assert set(result.scalars.items()) == set(oracle.scalars.items())
    # Step by step, the same batch conflicts.
    with pytest.raises(ScalarConflictError):
        with mock.patch("repro.engine.columnar._int_head",
                        _step_major_anyway):
            Engine(db, rules).run()


def _step_major_anyway(db, head):
    """``_int_head`` without the one-method-per-step rule."""
    return (head.base.base, [head.base.method.value],
            [("scalar", filt.method.value, filt.result)
             for filt in head.filters])
