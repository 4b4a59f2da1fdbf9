"""Property: delta-driven rounds derive what firing every position would.

A semi-naive round fires only the rule positions its delta can seed
(:class:`~repro.engine.delta.SeedIndex`).  Random stratified programs --
the left-, right- and doubly-recursive formulations of one transitive
closure (Liu et al.), variable-method atoms (positions every round
fires), isa-reading rules that receive isa deltas, negation and
superset strata, virtual-object heads (on the int batch writer, some
over the recursive relation, one behind an isa check on a class the
same stratum derives), a two-element head writing boxed entries into a
bucket the int-native emitter also writes -- must, on the columnar
executor and on the interpreted oracle alike:

- produce exactly the realizer log, round count and ``firings`` /
  ``derived`` / ``tuples`` of a round that fires every position (the
  seed index handed a delta holding every bucket it knows);
- reach the fixpoint, derivation log (as a set), virtual-object count
  and ``objects()`` denotations of naive iteration
  (``seminaive=False``), plain and magic-rewritten;
- keep incremental maintenance (insert and delete cycles, isa changes
  included) equal to a scratch re-derivation.

On the columnar executor they must also give the realizer log, counters
and fixpoint of rounds that box every int-native fact the moment it is
recorded: lazy boxing is unobservable.

Round counts are compared with the every-position round, not with
naive iteration: a naive round sees facts derived earlier in the same
round through *every* atom, a semi-naive one only through the non-seed
atoms, so mutually recursive rules can need more semi-naive rounds.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine
from repro.engine.delta import DeltaIndex, SeedIndex
from repro.engine.profiler import EngineStats
from repro.engine.solve import solve
from repro.flogic.flatten import flatten_conjunction
from repro.lang.parser import parse_program, parse_query
from repro.query import Query
from tests.property.strategies import databases, deep_databases

pytestmark = pytest.mark.property

#: The columnar executor, then the interpreted oracle.
MODES = (False, True)

#: One transitive closure of ``kids``, three ways.
CLOSURES = {
    "left": ("X[tcl ->> {Y}] <- X[kids ->> {Y}].",
             "X[tcl ->> {Z}] <- X[tcl ->> {Y}], Y[kids ->> {Z}]."),
    "right": ("X[tcr ->> {Y}] <- X[kids ->> {Y}].",
              "X[tcr ->> {Z}] <- X[kids ->> {Y}], Y[tcr ->> {Z}]."),
    "double": ("X[tcd ->> {Y}] <- X[kids ->> {Y}].",
               "X[tcd ->> {Z}] <- X[tcd ->> {Y}], Y[tcd ->> {Z}]."),
}

#: Rules riding along: variable methods (``any``, ``val``), isa derived
#: and read in one stratum (``c9``/``d6``), deep isa chains (``d7``),
#: negation and superset strata over the closures (``lone``, ``wide``),
#: virtual objects (``v5``) and a join through them (``via``), views
#: over the closure and over a derived class (``v6``, ``v8``), and a
#: two-element head (boxed entries) into the ``tcl`` bucket.
EXTRAS = (
    "X[tcl ->> {Y, W}] <- X[kids ->> {Y}], Y[kids ->> {W}].",
    "X[any ->> {V}] <- X[M ->> {V}], X : c1.",
    "X[val ->> {M}] <- X[M -> V], V[color -> red].",
    "X : c9 <- X[boss -> Y].",
    "X : c9 <- X[tcl ->> {Y}], Y : c2.",
    "X[d6 ->> {Y}] <- X : c9, X[kids ->> {Y}].",
    "X[d7 -> 1] <- X : k2.",
    "X[lone -> 1] <- X : c1, not X[tcl ->> {Y}].",
    "X[wide ->> {Y}] <- X[kids ->> {W}], Y : c2, X[tcr ->> Y..kids].",
    "X.v5[tag -> 1] <- X[color -> red].",
    "X[via ->> {Z}] <- X[tcl ->> {Y}], Y.v5[tag -> Z].",
    "X.v6[of -> X; near ->> {Y}] <- X[tcl ->> {Y}].",
    "X.v8[seen ->> {Y}] <- X : c9[kids ->> {Y}].",
)

QUERIES = (
    "p1[tcl ->> {Y}]",
    "X[tcr ->> {Y}]",
    "p2[tcd ->> {Y}]",
    "X[any ->> {V}]",
    "X[d6 ->> {Y}]",
    "X : c9",
    "X[lone -> V]",
    "X[via ->> {Z}]",
    "X[d7 -> V]",
    "X[val ->> {M}]",
    "X[wide ->> {Y}]",
)

REFERENCES = ("X.v5", "X[tcl ->> {Y}].v5", "X[via ->> {Z}]", "X.v6",
              "X.v8")

#: Maintenance cycles insert and delete, half and half, exactly the
#: facts the pool's rules read: closure edges, bosses, colours, classes.
SUBJECTS = ("p1", "p2", "p3", "a", "b")
mutations = st.lists(st.one_of(
    st.tuples(st.sampled_from(("+set", "-set")), st.just("kids"),
              st.sampled_from(SUBJECTS), st.sampled_from(SUBJECTS)),
    st.tuples(st.sampled_from(("+scalar", "-scalar")),
              st.sampled_from(("boss", "color")), st.sampled_from(SUBJECTS),
              st.sampled_from(("red", "blue") + SUBJECTS)),
    st.tuples(st.sampled_from(("+isa", "-isa")), st.just(None),
              st.sampled_from(SUBJECTS), st.sampled_from(("c1", "c2", "k2"))),
), min_size=2, max_size=6)


@st.composite
def programs(draw):
    """Rule texts: one to three closure shapes plus extras, any order."""
    shapes = draw(st.lists(st.sampled_from(sorted(CLOSURES)), min_size=1,
                           max_size=3, unique=True))
    extras = draw(st.lists(st.sampled_from(EXTRAS), max_size=4, unique=True))
    rules = [rule for shape in shapes for rule in CLOSURES[shape]]
    return draw(st.permutations(rules + extras))


class _Recording(EngineStats):
    """Engine stats that also keep every round's realizer log: the
    round's boxed view, in emission order."""

    def count_derived(self, delta) -> None:
        self.__dict__.setdefault("log", []).extend(delta.boxed())
        super().count_derived(delta)


_seeded_plan = SeedIndex.plan


def _every_position(self, delta, full=frozenset()):
    """The round before it was delta-driven: every position fires."""
    # One part per known bucket: the partition keys it on its first two
    # fields, which are the bucket key itself.
    everything = DeltaIndex(list(self._by_bucket))
    return _seeded_plan(self, everything, full)


def _run(engine):
    with mock.patch("repro.engine.fixpoint.EngineStats", _Recording):
        result = engine.run()
    return result, engine.stats, getattr(engine.stats, "log", [])


def _facts(db):
    return (
        set(db.scalars.items()),
        {(key, frozenset(bucket)) for key, bucket in db.sets.items()},
        set(db.hierarchy.declared_edges()),
    )


def _counters(stats):
    return (stats.iterations, stats.firings, stats.derived_total,
            stats.tuples)


def _answers(db, text):
    atoms = flatten_conjunction(parse_query(text))
    return {frozenset(b.items()) for b in solve(db, atoms)}


def _mutate(db, op):
    sign, method, subject, value = op
    subject, value = db.obj(subject), db.obj(value)
    if method is None:
        (db.assert_isa if sign == "+isa" else db.retract_isa)(subject, value)
    elif sign == "+set":
        db.assert_set_member(db.obj(method), subject, (), value)
    elif sign == "-set":
        db.retract_set_member(db.obj(method), subject, (), value)
    else:
        db.retract_scalar(db.obj(method), subject, ())
        if sign == "+scalar":
            db.assert_scalar(db.obj(method), subject, (), value)


@given(db=deep_databases(), rules=programs())
@settings(max_examples=60, deadline=None)
def test_rounds_fire_what_every_position_would(db, rules):
    program = parse_program("\n".join(rules))
    for interpreted in MODES:
        _, driven, driven_log = _run(Engine(db, program,
                                            interpreted=interpreted))
        with mock.patch.object(SeedIndex, "plan", _every_position):
            _, full, full_log = _run(Engine(db, program,
                                            interpreted=interpreted))
        assert driven_log == full_log, interpreted
        assert _counters(driven) == _counters(full), interpreted
        assert driven.batches <= full.batches
        assert driven.plans_built <= full.plans_built


def _box_at_once(self, kind, method, subjects, results):
    """Rounds as they were before int batches: every int-native fact
    boxed into a realizer-log entry the moment it is recorded."""
    resolver = self.interner.resolver()
    for s, r in zip(subjects, results):
        self.append((kind, method, resolver[s], (), resolver[r]))


@given(db=deep_databases(), rules=programs())
@settings(max_examples=40, deadline=None)
def test_lazy_boxing_is_unobservable(db, rules):
    program = parse_program("\n".join(rules))
    result, stats, log = _run(Engine(db, program))
    with mock.patch.object(DeltaIndex, "append_columns", _box_at_once):
        eager, eager_stats, eager_log = _run(Engine(db, program))
    assert log == eager_log
    assert _counters(stats) == _counters(eager_stats)
    assert _facts(result) == _facts(eager)


@given(db=deep_databases(), rules=programs())
@settings(max_examples=60, deadline=None)
def test_fixpoint_and_log_match_naive_iteration(db, rules):
    program = parse_program("\n".join(rules))
    results = []
    for interpreted in MODES:
        for seminaive in (True, False):
            result, stats, log = _run(Engine(
                db, program, seminaive=seminaive, interpreted=interpreted))
            assert len(set(log)) == len(log) == stats.derived_total
            results.append((_facts(result), set(log),
                            stats.virtuals_created))
    assert all(result == results[0] for result in results[1:])


@given(db=deep_databases(), rules=programs(),
       reference=st.sampled_from(REFERENCES))
@settings(max_examples=30, deadline=None)
def test_objects_identity_matches_naive_iteration(db, rules, reference):
    program = parse_program("\n".join(rules))
    denotations = [
        Query(db, program=program, seminaive=seminaive,
              interpreted=interpreted).objects(reference)
        for interpreted in MODES for seminaive in (True, False)
    ]
    assert all(result == denotations[0] for result in denotations[1:])


@given(db=deep_databases(), rules=programs(),
       query=st.sampled_from(QUERIES))
@settings(max_examples=40, deadline=None)
def test_magic_rewritten_rounds(db, rules, query):
    program = parse_program("\n".join(rules))
    expected = _answers(Engine(db, program).run(), query)
    for interpreted in MODES:
        runs = []
        for seminaive, plan in ((True, _seeded_plan),
                                (True, _every_position),
                                (False, _seeded_plan)):
            engine = Engine.for_query(db, program, query,
                                      seminaive=seminaive,
                                      interpreted=interpreted)
            with mock.patch.object(SeedIndex, "plan", plan):
                runs.append(_run(engine))
        (driven, stats, log), (_, full, full_log), (naive, _, naive_log) = runs
        assert _answers(driven, query) == _answers(naive, query) == expected
        assert log == full_log and _counters(stats) == _counters(full)
        assert set(log) == set(naive_log)


@given(db=databases(), rules=programs())
@settings(max_examples=40, deadline=None)
def test_closure_shape_does_not_change_the_closure(db, rules):
    """Left, right and double recursion derive one relation."""
    program = parse_program("\n".join(rules + list(
        rule for shape in CLOSURES.values() for rule in shape
        if rule not in rules)))
    for interpreted in MODES:
        result = Engine(db, program, interpreted=interpreted).run()
        left, right, double = (
            {(subject, member)
             for (method, subject, _), members in result.sets.items()
             if method == result.obj(name) for member in members}
            for name in ("tcl", "tcr", "tcd"))
        assert left == right == double, interpreted


@given(db=databases(), rules=programs(), magic=st.booleans(),
       ops=mutations)
@settings(max_examples=40, deadline=None)
def test_maintenance_cycles_match_scratch(db, rules, magic, ops):
    db.begin_changes()
    program = parse_program("\n".join(rules))
    queries = [Query(db, program=program, magic=magic,
                     interpreted=interpreted) for interpreted in MODES]
    for op in [None, *ops]:
        if op is not None:
            _mutate(db, op)
        scratch = Query(db.clone(), program=program, magic=magic)
        for text in QUERIES:
            expected = scratch.all(text)
            for maintained in queries:
                assert maintained.all(text) == expected, (op, text)
