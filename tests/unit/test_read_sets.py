"""Cached answers keyed on what they read (docs/server.md "Repeat
reads").

``Query.answer`` records the predicates its flattened conjunction reads
-- scalar and set methods, negated ones included, and the class
hierarchy -- and ``Query.peek`` serves the entry while none of their
versions moved.  A write to one of them must make the next read miss
and recompute; a write to anything else must leave the entry serving,
reporting the state it is proven at.
"""

import asyncio
import json

import pytest

from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid
from repro.query import Query
from repro.server import Client, Server, ServerConfig

RULES = "X[colleague ->> {Y}] <- X[worksFor -> D], Y[worksFor -> D]."

#: Reads a scalar method, a set method, the hierarchy and, negated, a
#: fourth method -- each in one place only.
TEXT = ("X : employee[worksFor -> D], X[vehicles ->> {V}], "
        "not X[retired -> yes]")


def n(value):
    return NamedOid(value)


def scalar(sign, method, subject, result):
    return sign, ("scalar", n(method), n(subject), (), n(result))


#: A write touching exactly one predicate the text reads, per kind.
#: Every write names objects already in ``U`` only: a growing ``U``
#: alone would make the next read miss.
WRITES = {
    "scalar": [scalar("-", "worksFor", "p0", "d1"),
               scalar("+", "worksFor", "p0", "d2")],
    "set": [("+", ("set", n("vehicles"), n("p0"), (), n("c1")))],
    "isa": [("+", ("isa", n("p2"), n("employee")))],
    "negated": [scalar("-", "retired", "p1", "yes")],
}
#: A write touching none of them.
UNRELATED = [scalar("-", "color", "c0", "red"),
             scalar("+", "color", "c0", "blue")]

MODES = {"no program": {}, "magic": {"magic": True},
         "full": {"magic": False}}


def company():
    db = Database()
    db.add_object("p0", classes=["employee"], scalars={"worksFor": "d1"},
                  sets={"vehicles": ["c0"]})
    db.add_object("p1", classes=["employee"],
                  scalars={"worksFor": "d2", "retired": "yes"},
                  sets={"vehicles": ["c1"]})
    db.add_object("p2", scalars={"worksFor": "d1"}, sets={"vehicles": ["c2"]})
    db.add_object("c0", scalars={"color": "red"})
    db.add_object("c1", scalars={"color": "blue"})
    db.begin_changes()
    return db


def encode(answers):
    return json.dumps([a.values_dict() for a in answers]).encode()


def make_query(db, mode, **options):
    if mode == "no program":
        return Query(db, **options)
    return Query(db, program=parse_program(RULES), **MODES[mode], **options)


def scratch(db, mode, text):
    """The encoded answer of a fresh Query over a copy of ``db``."""
    return encode(make_query(db.clone(), mode).all(text))


def write(db, query, entries):
    db.apply_batch(entries)
    query.sync()


@pytest.mark.parametrize("mode", list(MODES))
class TestReadSet:
    @pytest.mark.parametrize("touched", list(WRITES))
    def test_a_write_to_a_read_predicate_misses(self, mode, touched):
        db = company()
        query = make_query(db, mode)
        first = query.answer(TEXT, None, None, encode)
        assert query.peek(TEXT) is not None
        write(db, query, WRITES[touched])
        assert query.peek(TEXT) is None
        after = query.answer(TEXT, None, None, encode)
        assert after == scratch(db, mode, TEXT) != first
        assert query.peek(TEXT)[0] == after

    def test_a_write_to_no_read_predicate_hits(self, mode):
        db = company()
        query = make_query(db, mode)
        first = query.answer(TEXT, None, None, encode)
        write(db, query, UNRELATED)
        assert query.peek(TEXT) == (first, db.data_version(),
                                    db.change_log.cursor())
        assert first == scratch(db, mode, TEXT)

    def test_a_variable_method_reads_everything(self, mode):
        db = company()
        query = make_query(db, mode)
        text = "X[M -> red]"
        query.answer(text, None, None, encode)
        assert query.peek(text) is not None
        write(db, query, UNRELATED)
        assert query.peek(text) is None
        assert query.answer(text, None, None, encode) \
            == scratch(db, mode, text)

    def test_an_alias_misses(self, mode):
        db = company()
        query = make_query(db, mode)
        text = "X[worksFor -> d1]"
        query.answer(text, None, None, encode)
        db.alias("d1", "d2")
        query.sync()
        assert query.peek(text) is None
        assert query.answer(text, None, None, encode) \
            == scratch(db, mode, text)


@pytest.mark.parametrize("magic", [True, False])
def test_a_derived_answer_outlives_writes_that_leave_it(magic):
    """A memo's derived predicate moves only when maintenance changes
    its facts, so a base write it survives keeps its answers cached."""
    db = company()
    query = make_query(db, "magic" if magic else "full")
    text = "p0[colleague ->> {Y}]"
    first = query.answer(text, None, None, encode)
    write(db, query, UNRELATED + WRITES["set"])
    assert query.peek(text)[0] == first
    write(db, query, [scalar("-", "worksFor", "p1", "d2"),
                      scalar("+", "worksFor", "p1", "d1")])
    assert query.peek(text) is None
    after = query.answer(text, None, None, encode)
    assert after == scratch(db, "magic" if magic else "full", text) != first


def test_a_hit_reports_the_version_of_the_last_acknowledged_write():
    async def main():
        async with Server(company(), program=parse_program(RULES),
                          config=ServerConfig(port=0)) as server:
            async with Client(*server.address) as client:
                first = await client.query(TEXT)
                ack = await client.write([["-scalar", "color", "c0", []],
                                          ["+scalar", "color", "c0", [],
                                           "blue"]])
                assert ack["version"] > first["version"]
                hits = server.stats.answer_cache_hits
                again = await client.query(TEXT)
                assert server.stats.answer_cache_hits == hits + 1
                assert again["answers"] == first["answers"]
                assert again["version"] == ack["version"]
                assert again["cursor"] == server.database.change_log.cursor()
                assert again["cursor"] > first["cursor"]

    asyncio.run(main())
