"""Per-predicate version counters (``_MethodTable.versions``,
``Database.version_of``): each write moves the counter of the predicate
it changes and no other, and ``data_version()`` stays their sum."""

import pytest

from repro.errors import ScalarConflictError
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid

PREDICATES = (("scalar", NamedOid("age")), ("scalar", NamedOid("city")),
              ("set", NamedOid("kids")), ("set", NamedOid("friends")),
              ("isa", None), ("alias", None))


def n(value):
    return NamedOid(value)


@pytest.fixture
def db():
    db = Database()
    db.add_object("p1", classes=["employee"],
                  scalars={"age": 30, "city": "bonn"},
                  sets={"kids": ["p2"], "friends": ["p3"]})
    db.add_object("p2", scalars={"age": 5})
    return db


def versions(db):
    return {pred: db.version_of(pred) for pred in PREDICATES}


def moved(before, after):
    return {pred for pred in before if before[pred] != after[pred]}


def old_sum(db):
    """``data_version()`` as it was defined before per-method counters."""
    return (db.scalars.version + db.sets.version + db.hierarchy.version
            + db._alias_version)


class TestEachMutatorMovesOnlyItsOwnCounter:
    @pytest.mark.parametrize("write, pred", [
        (lambda db: db.assert_scalar(n("age"), n("p3"), (), n(7)),
         ("scalar", n("age"))),
        (lambda db: db.retract_scalar(n("city"), n("p1"), ()),
         ("scalar", n("city"))),
        (lambda db: db.assert_set_member(n("kids"), n("p1"), (), n("p4")),
         ("set", n("kids"))),
        (lambda db: db.retract_set_member(n("friends"), n("p1"), (),
                                          n("p3")),
         ("set", n("friends"))),
        (lambda db: db.assert_isa(n("p2"), n("employee")), ("isa", None)),
        (lambda db: db.retract_isa(n("p1"), n("employee")), ("isa", None)),
        (lambda db: db.alias("boss", "p1"), ("alias", None)),
    ], ids=["put", "remove", "add", "discard", "declare", "undeclare",
            "alias"])
    def test_one_write_one_counter(self, db, write, pred):
        before, version = versions(db), db.data_version()
        write(db)
        after = versions(db)
        assert moved(before, after) == {pred}
        assert after[pred] == before[pred] + 1
        assert db.data_version() == version + 1 == old_sum(db)

    def test_a_write_that_changes_nothing_moves_nothing(self, db):
        before, version = versions(db), db.data_version()
        assert not db.assert_scalar(n("age"), n("p1"), (), n(30))
        assert not db.assert_set_member(n("kids"), n("p1"), (), n("p2"))
        assert not db.retract_scalar(n("age"), n("p9"), ())
        assert versions(db) == before
        assert db.data_version() == version

    def test_parameterised_facts_count_for_their_method(self, db):
        before = db.version_of(("scalar", n("salary")))
        db.assert_scalar(n("salary"), n("p1"), (n(1994),), n(1000))
        assert db.version_of(("scalar", n("salary"))) == before + 1

    def test_an_unknown_method_reads_zero(self, db):
        assert db.version_of(("scalar", n("nothing"))) == 0
        assert db.version_of(("set", n("age"))) == 0


class TestIntWriter:
    @pytest.mark.parametrize("kind", ["scalar", "set"])
    def test_bumps_once_per_batch_by_its_row_count(self, db, kind,
                                                   monkeypatch):
        table = db.scalars if kind == "scalar" else db.sets
        table.surrogate_view(db.interner)
        method = db.obj("rank")
        write = table.int_writer(method, db.intern(method))
        bumps = []
        real = table._bump
        monkeypatch.setattr(table, "_bump", lambda method, count=1: (
            bumps.append(count), real(method, count)))
        before, version = versions(db), db.data_version()
        subjects = [db.intern(n(f"q{i}")) for i in range(5)]
        one = db.intern(n(1))
        new_s, _ = write(subjects + subjects[:2], [one] * 7)
        assert len(new_s) == 5
        assert bumps == [5]
        assert db.version_of((kind, method)) == 5
        assert versions(db) == before  # no other predicate moved
        assert db.data_version() == version + 5 == old_sum(db)
        assert write(subjects, [one] * 5) == ([], [])  # all present
        assert bumps == [5]

    def test_a_conflict_part_way_still_counts_the_rows_written(self, db):
        db.scalars.surrogate_view(db.interner)
        method = db.obj("rank")
        write = db.scalars.int_writer(method, db.intern(method))
        p1, p2 = db.intern(n("p1")), db.intern(n("p2"))
        one, two = db.intern(n(1)), db.intern(n(2))
        write([p1], [one])
        with pytest.raises(ScalarConflictError):
            write([p2, p1], [one, two])
        assert db.version_of(("scalar", method)) == 2
        assert db.data_version() == old_sum(db)


class TestRolledBackBatch:
    def test_moves_the_counters_it_touched_and_no_others(self, db):
        db.begin_changes()
        before, version = versions(db), db.data_version()
        with pytest.raises(ScalarConflictError):
            db.apply_batch([
                ("+", ("set", n("kids"), n("p1"), (), n("p9"))),
                ("+", ("isa", n("p2"), n("employee"))),
                ("+", ("scalar", n("age"), n("p1"), (), n(99))),
            ])
        after = versions(db)
        assert db.sets.get(n("kids"), n("p1")) == {n("p2")}
        assert not db.isa(n("p2"), n("employee"))
        # Each applied entry and its undo bump the counter once each.
        assert moved(before, after) == {("set", n("kids")), ("isa", None)}
        assert after[("set", n("kids"))] == before[("set", n("kids"))] + 2
        assert after[("isa", None)] == before[("isa", None)] + 2
        assert db.data_version() == version + 4 == old_sum(db)
        assert db.change_log.in_sync(db.data_version(),
                                     db.change_log.cursor())


class TestClone:
    def test_carries_the_counters_then_diverges(self, db):
        db.assert_scalar(n("age"), n("p3"), (), n(1))
        copy = db.clone()
        assert versions(copy) == versions(db)
        assert copy.data_version() == db.data_version()
        base = versions(db)
        copy.assert_set_member(n("kids"), n("p1"), (), n("p5"))
        db.retract_scalar(n("age"), n("p3"), ())
        assert moved(base, versions(copy)) == {("set", n("kids"))}
        assert moved(base, versions(db)) == {("scalar", n("age"))}
        assert copy.version_of(("scalar", n("age"))) \
            == base[("scalar", n("age"))]
        assert db.version_of(("set", n("kids"))) == base[("set", n("kids"))]
        assert copy.data_version() == old_sum(copy)
        assert db.data_version() == old_sum(db)


def test_table_versions_sum_to_the_table_version(db):
    db.retract_set_member(n("kids"), n("p1"), (), n("p2"))
    db.assert_scalar(n("age"), n("p7"), (), n(3))
    for table in (db.scalars, db.sets):
        assert sum(table.versions.values()) == table.version
    assert db.data_version() == old_sum(db)
