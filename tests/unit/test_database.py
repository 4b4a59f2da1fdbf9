"""Database facade tests: names, aliases, builtins, loading, change
entries, cloning."""

import pytest

from repro.core.builtins import SELF_OID
from repro.errors import ScalarConflictError
from repro.oodb.database import Database
from repro.oodb.hierarchy import HierarchyError
from repro.oodb.oid import NamedOid


def n(value):
    return NamedOid(value)


class TestNames:
    def test_lookup_registers_in_universe(self):
        db = Database()
        oid = db.lookup_name("mary")
        assert oid == n("mary")
        assert oid in db

    def test_alias_makes_names_codenote(self):
        db = Database()
        db.add_object("mary", scalars={"age": 30})
        db.alias("maria", "mary")
        assert db.lookup_name("maria") == db.lookup_name("mary")
        assert db.scalar_apply(n("age"), db.lookup_name("maria")) == n(30)


class TestBuiltins:
    def test_self_is_identity(self):
        db = Database()
        mary = db.lookup_name("mary")
        assert db.scalar_apply(SELF_OID, mary) == mary

    def test_self_with_args_is_undefined(self):
        db = Database()
        mary = db.lookup_name("mary")
        assert db.scalar_apply(SELF_OID, mary, (n(1),)) is None

    def test_integer_and_string_value_classes(self):
        db = Database()
        assert db.isa(n(42), n("integer"))
        assert db.isa(n("abc"), n("string"))
        assert not db.isa(n(42), n("string"))
        assert not db.isa(n("abc"), n("integer"))

    def test_value_classes_not_enumerable(self):
        db = Database()
        db.lookup_name(42)
        assert db.members(n("integer")) == frozenset()

    def test_declared_and_builtin_isa_combine(self):
        db = Database()
        db.subclass("evenNumber", "integer")
        # hierarchy edge works alongside builtin membership
        assert db.isa(n("evenNumber"), n("integer"))


class TestLoading:
    def test_add_object_full(self):
        db = Database()
        db.subclass("automobile", "vehicle")
        db.add_object("car1", classes=["automobile"],
                      scalars={"color": "red"}, sets={"tags": ["fast", "old"]})
        car = db.lookup_name("car1")
        assert db.isa(car, n("vehicle"))
        assert db.scalar_apply(n("color"), car) == n("red")
        assert db.set_apply(n("tags"), car) == {n("fast"), n("old")}

    def test_add_object_extends_existing(self):
        db = Database()
        db.add_object("p1", scalars={"age": 30})
        db.add_object("p1", sets={"vehicles": ["car1"]})
        p1 = db.lookup_name("p1")
        assert db.scalar_apply(n("age"), p1) == n(30)
        assert db.set_apply(n("vehicles"), p1) == {n("car1")}

    def test_repr_mentions_sizes(self):
        db = Database()
        db.add_object("p1", classes=["c"], scalars={"a": 1})
        assert "scalar=1" in repr(db)


class TestChangeEntries:
    def test_a_refused_assertion_leaves_the_universe(self):
        db = Database()
        db.add_object("p1", classes=["c"], scalars={"age": 30})
        universe = db.universe()
        with pytest.raises(ScalarConflictError):
            db.apply_entry("+", ("scalar", n("age"), n("p1"), (), n(77)))
        with pytest.raises(HierarchyError):
            db.apply_entry("+", ("isa", n("c"), n("c")))
        assert db.universe() == universe

    def test_a_scalar_retraction_is_guarded_on_its_result(self):
        db = Database()
        db.add_object("p1", scalars={"age": 30})
        age = ("scalar", n("age"), n("p1"), ())
        assert not db.apply_entry("-", age + (n(31),))
        assert db.apply_entry("-", age + (None,))
        assert db.scalar_apply(n("age"), n("p1")) is None

    def test_apply_batch_rolls_back_facts_and_universe(self):
        db = Database()
        db.add_object("p1", scalars={"age": 30})
        universe = db.universe()
        log = db.begin_changes()
        with pytest.raises(ScalarConflictError):
            db.apply_batch([("+", ("isa", n("ghost"), n("c"))),
                            ("-", ("scalar", n("age"), n("p1"), (), None)),
                            ("+", ("scalar", n("age"), n("p1"), (), n(1))),
                            ("+", ("scalar", n("age"), n("p1"), (), n(2)))])
        assert db.universe() == universe
        assert db.scalar_apply(n("age"), n("p1")) == n(30)
        assert not db.isa(n("ghost"), n("c"))
        assert log.in_sync(db.data_version(), log.cursor())
        assert db.apply_batch([("+", ("isa", n("ghost"), n("c")))]) == 1
        assert n("ghost") in db


class TestClone:
    def test_clone_is_deep(self):
        db = Database()
        db.add_object("p1", classes=["employee"], scalars={"age": 30},
                      sets={"vehicles": ["car1"]})
        copy = db.clone()
        copy.add_object("p2", classes=["employee"])
        copy.add_object("p1", sets={"vehicles": ["car2"]})
        assert db.lookup_name("p2") in copy
        assert n("car2") not in db.set_apply(n("vehicles"), n("p1"))
        assert not db.members(n("employee")) == copy.members(n("employee"))

    def test_clone_preserves_aliases(self):
        db = Database()
        db.add_object("mary", scalars={"age": 30})
        db.alias("maria", "mary")
        copy = db.clone()
        assert copy.lookup_name("maria") == n("mary")

    def test_clone_carries_data_version(self):
        # Regression: cloned method tables and hierarchy used to restart
        # their version counters, so a clone's data_version could equal
        # a version the source had when its facts were *different* --
        # and a plan/catalog cache keyed on that value would serve a
        # stale entry for the clone's data.
        db = Database()
        db.add_object("p1", classes=["employee"], scalars={"age": 30},
                      sets={"vehicles": ["car1", "car2"]})
        db.scalars.remove(n("age"), n("p1"), ())
        assert db.clone().data_version() == db.data_version()

    def test_clone_version_does_not_collide_with_source_history(self):
        from repro.engine.planner import PlanCache
        from repro.flogic.atoms import ScalarAtom
        from repro.core.ast import Name, Var

        db = Database()
        db.add_object("car1", scalars={"color": "red"})
        seen = db.data_version()
        db.add_object("car2", scalars={"color": "red"})
        clone = db.clone()
        clone.scalars.remove(n("color"), n("car2"), ())
        # The clone now holds different facts than the source did at any
        # earlier version; its version must not replay one of those.
        assert clone.data_version() != seen
        # And a version-tracking plan cache warmed on the source must
        # re-plan (not hit) when pointed at the mutated clone.
        cache = PlanCache()
        atoms = (ScalarAtom(Name("color"), Var("Y"), (), Name("red")),)
        cache.get(db, atoms, frozenset())
        cache.get(clone, atoms, frozenset())
        assert cache.misses == 2

    def test_virtual_count(self):
        from repro.oodb.oid import VirtualOid

        db = Database()
        db.register(VirtualOid(n("boss"), n("p1")))
        assert db.virtual_count() == 1
