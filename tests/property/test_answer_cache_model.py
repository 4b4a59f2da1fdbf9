"""Property: a cached answer served by ``Query.peek`` is always right.

One long-lived ``Query`` (``memo_entries=2``, so memos and answer
entries are evicted) over a database with an open change log runs a
random interleaving of committed and failing ``apply_batch`` calls,
aliases, ``sync``, ``answer`` and ``peek``.  Entries now outlive writes
to predicates they do not read, so after every step the invariant is:
every ``peek`` hit equals the encoded answer of a fresh
``Query(db.clone(), program=...)`` -- which shares the evaluator with
production but none of the memo, maintenance, cache or log state --
and reports the base's current data version and change-log cursor.
"""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PathLogError
from repro.lang.parser import parse_program
from repro.oodb.oid import NamedOid
from repro.query import Query
from tests.property.strategies import databases
from tests.property.test_incremental_parity import QUERIES, RULES

pytestmark = pytest.mark.property

#: The maintained views' texts, plus texts over base predicates only
#: that read a scalar, a set, the hierarchy and a negated method.
TEXTS = QUERIES + (
    "X[color -> C]",
    "X : c1[kids ->> {Y}]",
    "X : c2, not X[boss -> B]",
    "p1[kids ->> {Y}].color[C]",
)

#: The rules of RULES that maintenance keeps without a fallback, so
#: full materialisations (``magic=False``) survive writes too.
MAINTAINED = """
    p1[d1 ->> {b}].
    X[d1 ->> {Y}] <- X[kids ->> {Y}].
    X[d1 ->> {Z}] <- X[d1 ->> {Y}], Y[kids ->> {Z}].
    X[d2 -> 1] <- X[a ->> {Y}], Y[color -> red].
    X[d3 ->> {Y}] <- X[d1 ->> {Y}], Y : c1.
"""

SUBJECTS = ("p1", "p2", "a", "b", "c")
VALUES = ("red", "blue", "p1", "b", 1)
NAMES = VALUES + tuple({name for text in TEXTS
                        for name in re.findall(r"\b[a-z]\w*", text)
                        if name != "not"} | set(SUBJECTS))


def n(value):
    return NamedOid(value)


#: One change over the pools, as change entries: a scalar is re-set
#: (whatever was stored is retracted first) or retracted; a set member
#: or class membership is added (twice as often) or removed.
signs = st.sampled_from("++-")
scalar_keys = st.tuples(st.just("scalar"),
                        st.sampled_from((n("color"), n("boss"))),
                        st.sampled_from(SUBJECTS).map(n), st.just(()))
changes = st.one_of(
    scalar_keys.flatmap(lambda key: st.one_of(
        st.sampled_from(VALUES).map(lambda value: [
            ("-", (*key, None)), ("+", (*key, n(value)))]),
        st.just([("-", (*key, None))]))),
    st.tuples(signs, st.tuples(
        st.just("set"), st.sampled_from((n("kids"), n("a"))),
        st.sampled_from(SUBJECTS).map(n), st.just(()),
        st.sampled_from(SUBJECTS).map(n))).map(lambda entry: [entry]),
    st.tuples(signs, st.tuples(
        st.just("isa"), st.sampled_from(SUBJECTS).map(n),
        st.sampled_from((n("c1"), n("c2"))))).map(lambda entry: [entry]),
)

batches = st.lists(changes, min_size=1, max_size=2).map(
    lambda parts: [entry for part in parts for entry in part])

#: Each step is one change to the base or the memos, then maybe a
#: read through ``answer`` of one of the example's texts (by index).
#: Most changes are batches, committed four times as often as refused,
#: and synced at once (as a server does after a commit) twice as often
#: as not: an unsynced memo answers nothing.  An alias disrupts the
#: change log, so every memo is re-derived after it.
steps = st.lists(st.tuples(st.one_of(
    st.tuples(st.sampled_from(("commit",) * 4 + ("fail",)), batches,
              st.sampled_from((True, True, False))),
    st.tuples(st.just("alias"), st.sampled_from(SUBJECTS),
              st.sampled_from(SUBJECTS)),
    st.tuples(st.just("sync")),
), st.sampled_from((None, 0, 1))), min_size=1, max_size=20)

#: One or two texts per example: more would mostly evict each other
#: from the two entries.
text_pools = st.lists(st.sampled_from(TEXTS), min_size=1, max_size=2,
                      unique=True)


def encode(answers):
    return json.dumps([a.values_dict() for a in answers]).encode()


def refuse():
    raise RuntimeError("commit refused")


@pytest.mark.parametrize("rules", [RULES, MAINTAINED],
                         ids=["rules", "maintained"])
@pytest.mark.parametrize("magic", [True, False])
@given(db=databases(), pool=text_pools, script=steps)
@settings(max_examples=25, deadline=None)
def test_every_peek_hit_equals_a_fresh_answer(magic, rules, db, pool,
                                              script):
    program = parse_program(rules)
    # Every name a step can write or a text mentions is in U up front:
    # a write or a read that grows U drops every entry, and would hide
    # the entries that survive.
    for name in NAMES:
        db.lookup_name(name)
    db.begin_changes()
    query = Query(db, program=program, magic=magic, memo_entries=2)
    fresh = {}

    def expected(text):
        # Writes and aliases move the data version; reads may grow U.
        key = (text, db.data_version(), len(db))
        if key not in fresh:
            fresh[key] = encode(Query(db.clone(), program=program)
                                .all(text))
        return fresh[key]

    def answer(text):
        try:
            data = query.answer(text, None, None, encode)
        except PathLogError:
            return  # a base the program rejects
        assert data == expected(text)

    for text in pool:
        answer(text)
    for (op, *args), index in script:
        try:
            if op == "commit":
                db.apply_batch(args[0])
            elif op == "fail":
                with pytest.raises(RuntimeError):
                    db.apply_batch(args[0], commit=refuse)
            elif op == "alias":
                db.alias(*args)
            else:
                query.sync()
        except PathLogError:
            pass  # a conflicting batch, rolled back
        if op in ("commit", "fail") and args[1]:
            query.sync()
        if index is not None:
            answer(pool[index % len(pool)])
        for text in pool:
            hit = query.peek(text)
            if hit is None:
                continue
            try:
                want = expected(text)
            except PathLogError:
                pytest.fail(f"a cached answer of {text!r} outlived a "
                            f"base the program now rejects")
            assert hit == (want, db.data_version(),
                           db.change_log.cursor())
