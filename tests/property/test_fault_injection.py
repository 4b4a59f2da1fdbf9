"""Property: random fault schedules never corrupt engine state.

Seeded :func:`~repro.testing.inject_random` plans fire
:class:`InjectedFault` at random engine and maintenance sites while
long-lived queries run over a mutating database.  Whatever the schedule
hits, three guarantees must hold at every step:

* a fault inside :meth:`Maintainer.apply` rolls the memoised result
  back to its pre-call state (all-or-nothing application),
* an unfaulted retry -- or the ``Query`` scratch fallback -- produces
  exactly the answers a never-faulted evaluation would, and
* the change-log arithmetic (``ChangeLog.in_sync``) stays provable,
  because every undo goes through the ordinary assert/retract API.

Faults restricted to maintenance sites must never escape ``Query.all``
at all: the memo entry is discarded and answers come from scratch.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.fixpoint import Engine
from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.query import Query
from repro.testing import InjectedFault, inject_random

pytestmark = pytest.mark.property

#: Recursive set rule (DRed + rederive), plus a scalar derived from the
#: recursion and a class test (non-recursive DRed, isa deltas).
RULES = """
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
    X[reach -> 1] <- X[desc ->> {Y}], Y : leaf.
"""

QUERIES = ("peter[desc ->> {X}]", "X[desc ->> {Y}]", "X[reach -> V]")

SUBJECTS = ("peter", "tim", "mary", "tom", "ann")

MAINTAIN_SITES = (
    "maintain.apply", "maintain.overdelete", "maintain.dred",
    "maintain.rederive", "maintain.insert", "heads.replay",
)

ALL_SITES = MAINTAIN_SITES + (
    "engine.iteration", "engine.emit", "columnar.step",
)


def seeded_db():
    db = Database()
    kids = db.obj("kids")
    db.assert_set_member(kids, db.obj("peter"), (), db.obj("tim"))
    db.assert_set_member(kids, db.obj("peter"), (), db.obj("mary"))
    db.assert_set_member(kids, db.obj("mary"), (), db.obj("tom"))
    db.assert_set_member(kids, db.obj("tim"), (), db.obj("tom"))
    db.assert_isa(db.obj("tom"), db.obj("leaf"))
    return db


@st.composite
def mutations(draw, max_size=5):
    """Random kids-edge and leaf-membership mutations."""
    ops = st.one_of(
        st.tuples(st.just("add_member"), st.sampled_from(SUBJECTS),
                  st.sampled_from(SUBJECTS)),
        st.tuples(st.just("del_member"), st.sampled_from(SUBJECTS),
                  st.sampled_from(SUBJECTS)),
        st.tuples(st.just("add_isa"), st.sampled_from(SUBJECTS)),
        st.tuples(st.just("del_isa"), st.sampled_from(SUBJECTS)),
    )
    return draw(st.lists(ops, min_size=1, max_size=max_size))


def apply_mutation(db, op):
    kids = db.obj("kids")
    if op[0] == "add_member":
        db.assert_set_member(kids, db.obj(op[1]), (), db.obj(op[2]))
    elif op[0] == "del_member":
        db.retract_set_member(kids, db.obj(op[1]), (), db.obj(op[2]))
    elif op[0] == "add_isa":
        db.assert_isa(db.obj(op[1]), db.obj("leaf"))
    else:
        db.retract_isa(db.obj(op[1]), db.obj("leaf"))


def answer_keys(query, text):
    return [answer.sort_key() for answer in query.all(text)]


def set_state(db):
    return {key: members for key, members in db.sets.items() if members}


def snapshot(db):
    return set_state(db), dict(db.scalars.items())


@given(steps=mutations(), query=st.sampled_from(QUERIES),
       magic=st.booleans(),
       seed=st.integers(0, 2 ** 16),
       rate=st.sampled_from((0.01, 0.05, 0.2)))
@settings(max_examples=200, deadline=None)
def test_faulted_cycles_never_corrupt_answers(
        steps, query, magic, seed, rate):
    """The workhorse: query/mutate/query cycles under random faults.

    After every mutation the memoised query runs once inside a random
    fault plan; whether or not that attempt dies, the unfaulted retry
    must equal a from-scratch re-derivation, and the base change log
    must still explain every version bump.
    """
    db = seeded_db()
    log = db.begin_changes()
    program = parse_program(RULES)
    maintained = Query(db, program=program, magic=magic)
    answer_keys(maintained, query)  # materialise + memoise, unfaulted
    for op in steps:
        apply_mutation(db, op)
        with inject_random(seed=seed, rate=rate, sites=ALL_SITES):
            try:
                answer_keys(maintained, query)
            except InjectedFault:
                pass  # the retry below must recover completely
        assert log.in_sync(db.data_version(), log.cursor())
        retry = answer_keys(maintained, query)
        scratch = Query(db.clone(), program=program, magic=magic)
        assert retry == answer_keys(scratch, query)


@given(steps=mutations(max_size=4),
       seed=st.integers(0, 2 ** 16),
       rate=st.sampled_from((0.05, 0.3, 1.0)))
@settings(max_examples=100, deadline=None)
def test_apply_faults_roll_back_and_retry_matches_scratch(
        steps, seed, rate):
    """Direct ``Maintainer.apply``: all-or-nothing under any schedule."""
    db = seeded_db()
    log = db.begin_changes()
    program = parse_program(RULES)
    engine = Engine(db, program)
    result = engine.run()
    maintainer = engine.maintainer(result, db)
    cursor = log.cursor()
    for op in steps:
        apply_mutation(db, op)
    before = snapshot(result)
    faulted = False
    with inject_random(seed=seed, rate=rate, sites=MAINTAIN_SITES):
        try:
            report = maintainer.apply(log.since(cursor))
        except InjectedFault:
            faulted = True
    if faulted:
        # Rolled back: bit-identical to the pre-call state.
        assert snapshot(result) == before
        report = maintainer.apply(log.since(cursor))
    if report.applied:
        fresh = Engine(db, program).run()
        assert set_state(result) == set_state(fresh)
        assert dict(result.scalars.items()) \
            == dict(fresh.scalars.items())
    else:
        assert snapshot(result) == before  # fallback never half-writes


@given(steps=mutations(), magic=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_query_degrades_gracefully_under_maintenance_faults(
        steps, magic, seed):
    """Maintenance-site faults never escape ``Query.all``: the memo is
    discarded and answers come from a scratch re-derivation."""
    db = seeded_db()
    db.begin_changes()
    program = parse_program(RULES)
    query = Query(db, program=program, magic=magic)
    answer_keys(query, "X[desc ->> {Y}]")
    for op in steps:
        apply_mutation(db, op)
        with inject_random(seed=seed, rate=0.5, sites=MAINTAIN_SITES):
            answers = answer_keys(query, "X[desc ->> {Y}]")
        scratch = Query(db.clone(), program=program, magic=magic)
        assert answers == answer_keys(scratch, "X[desc ->> {Y}]")
