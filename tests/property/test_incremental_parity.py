"""Property: incremental maintenance never changes query answers.

Random insert/delete sequences over random databases, queried through
long-lived ``Query(db, program=...)`` instances after every mutation:
the incrementally maintained answers (both ``magic=False`` full
materialisation and ``magic=True`` demand evaluation) must equal a
from-scratch re-derivation at each step -- including when maintenance
falls back (negation, superset sources, isa deletions, virtual-creating
heads) and including the identity of virtual objects in the answers
(OIDs compare structurally, so equal sort keys mean the maintained
result reuses the same ``VirtualOid`` a fresh run would create).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PathLogError
from repro.lang.parser import parse_program
from repro.query import Query
from tests.property.strategies import databases

pytestmark = pytest.mark.property

#: Rules sweep DRed over non-recursive (d2/d6) and recursive (d1) rules,
#: derived-from-derived (d3), stratified negation (d4), and a
#: virtual-creating path head (v5) -- the last two exercise the
#: fallback-to-rebuild path under the relevant mutations.  d7 negates
#: ``m1``, which no mutation touches, so its seeded rounds run the
#: negation step instead of falling back; d8's variable method puts
#: its position on the seed index's always-fire list.
RULES = """
    p1[d1 ->> {b}].
    a[d2 -> 1].
    X[d1 ->> {Y}] <- X[kids ->> {Y}].
    X[d1 ->> {Z}] <- X[d1 ->> {Y}], Y[kids ->> {Z}].
    X[d2 -> 1] <- X[a ->> {Y}], Y[color -> red].
    X[d3 ->> {Y}] <- X[d1 ->> {Y}], Y : c1.
    X[d4 -> 1] <- X : c1, not X[kids ->> {K}].
    X.v5[tag -> 1] <- X[color -> red].
    X : c9 <- X[boss -> Y].
    X[d7 ->> {Y}] <- X[kids ->> {Y}], not Y[m1 -> 1].
    X[d8 ->> {M}] <- X[M -> red].
"""

QUERIES = (
    "p1[d1 ->> {Y}]",
    "X[d1 ->> {Y}]",
    "X[d2 -> V]",
    "X[d3 ->> {Y}]",
    "X[d4 -> V]",
    "X[v5 -> S]",
    "X : c9",
    "X[d7 ->> {Y}]",
    "X[d8 ->> {M}]",
)

SUBJECTS = ("p1", "p2", "a", "b", "c")
VALUES = ("red", "blue", "p1", "b", 1)


@st.composite
def mutations(draw, min_size=1, max_size=6):
    """A sequence of base-fact mutations over the shared name pools."""
    ops = st.one_of(
        st.tuples(st.just("set_scalar"), st.sampled_from(SUBJECTS),
                  st.sampled_from(("color", "boss")),
                  st.sampled_from(VALUES)),
        st.tuples(st.just("del_scalar"), st.sampled_from(SUBJECTS),
                  st.sampled_from(("color", "boss"))),
        st.tuples(st.just("add_member"), st.sampled_from(SUBJECTS),
                  st.sampled_from(("kids", "a")),
                  st.sampled_from(SUBJECTS)),
        st.tuples(st.just("del_member"), st.sampled_from(SUBJECTS),
                  st.sampled_from(("kids", "a")),
                  st.sampled_from(SUBJECTS)),
        st.tuples(st.just("add_isa"), st.sampled_from(SUBJECTS),
                  st.sampled_from(("c1", "c2"))),
        st.tuples(st.just("del_isa"), st.sampled_from(SUBJECTS),
                  st.sampled_from(("c1", "c2"))),
    )
    return draw(st.lists(ops, min_size=min_size, max_size=max_size))


def apply_mutation(db, op):
    kind = op[0]
    if kind == "set_scalar":
        method, subject = db.obj(op[2]), db.obj(op[1])
        db.retract_scalar(method, subject, ())
        db.assert_scalar(method, subject, (), db.obj(op[3]))
    elif kind == "del_scalar":
        db.retract_scalar(db.obj(op[2]), db.obj(op[1]), ())
    elif kind == "add_member":
        db.assert_set_member(db.obj(op[2]), db.obj(op[1]), (),
                             db.obj(op[3]))
    elif kind == "del_member":
        db.retract_set_member(db.obj(op[2]), db.obj(op[1]), (),
                              db.obj(op[3]))
    elif kind == "add_isa":
        db.assert_isa(db.obj(op[1]), db.obj(op[2]))
    else:
        db.retract_isa(db.obj(op[1]), db.obj(op[2]))


def answer_keys(query, text):
    return [answer.sort_key() for answer in query.all(text)]


@given(db=databases(), steps=mutations(),
       query=st.sampled_from(QUERIES))
@settings(max_examples=40, deadline=None)
def test_maintained_answers_equal_scratch_after_every_mutation(
        db, steps, query):
    db.begin_changes()
    program = parse_program(RULES)
    maintained = Query(db, program=program, magic=False)
    interpreted = Query(db, program=program, magic=False, interpreted=True)
    demand = Query(db, program=program, magic=True)
    try:
        answer_keys(maintained, query)
        answer_keys(interpreted, query)
        answer_keys(demand, query)
    except PathLogError:
        return  # the random base data rejects this program outright
    for op in steps:
        try:
            apply_mutation(db, op)
        except PathLogError:
            continue  # e.g. an isa edge that would close a cycle
        scratch = Query(db.clone(), program=program, magic=False)
        try:
            expected = answer_keys(scratch, query)
        except PathLogError:
            # The mutated base now conflicts with the rules (e.g. a
            # scalar conflict inside derivation); the maintained
            # queries must reject it the same way.
            continue
        assert answer_keys(maintained, query) == expected
        assert answer_keys(interpreted, query) == expected
        assert answer_keys(demand, query) == expected


@given(db=databases(), steps=mutations(max_size=4))
@settings(max_examples=25, deadline=None)
def test_maintained_objects_preserve_virtual_identity(db, steps):
    """`objects()` over a virtual-creating reference, after mutations."""
    db.begin_changes()
    program = parse_program(RULES)
    maintained = Query(db, program=program, magic=False)
    reference = "p1.v5"
    try:
        maintained.objects(reference)
    except PathLogError:
        return
    for op in steps:
        try:
            apply_mutation(db, op)
        except PathLogError:
            continue
        scratch = Query(db.clone(), program=program, magic=False)
        try:
            expected = scratch.objects(reference)
        except PathLogError:
            continue
        assert maintained.objects(reference) == expected
