"""Definition 4: the valuation function, case by case."""

import pytest

from repro.core.ast import Name, Var
from repro.core.valuation import GROUND, VariableValuation, valuate
from repro.errors import UnboundVariableError
from repro.lang.parser import parse_reference
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid
from repro.query import Query


def n(value):
    return NamedOid(value)


def val(db, text, **bindings):
    nu = VariableValuation({Var(k): v for k, v in bindings.items()})
    return valuate(parse_reference(text, check=False), db, nu)


@pytest.fixture
def db():
    db = Database()
    db.subclass("automobile", "vehicle")
    db.add_object("car1", classes=["automobile"],
                  scalars={"color": "red", "cylinders": 4})
    db.add_object("p1", classes=["employee"],
                  scalars={"age": 30},
                  sets={"vehicles": ["car1"], "assistants": ["a1", "a2"]})
    db.add_object("a1", scalars={"salary": 1000})
    db.add_object("a2", scalars={"salary": 2000})
    db.add_object("john")  # the bachelor
    return db


class TestSimpleReferences:
    def test_case1_variable(self, db):
        assert val(db, "X", X=n("p1")) == {n("p1")}

    def test_case1_unbound_raises(self, db):
        with pytest.raises(UnboundVariableError):
            val(db, "X")

    def test_case2_name(self, db):
        assert val(db, "p1") == {n("p1")}

    def test_unknown_name_still_denotes(self, db):
        # I_N is total: every name denotes an object.
        assert val(db, "ghost") == {n("ghost")}

    def test_paren_transparent(self, db):
        assert val(db, "(p1.age)") == val(db, "p1.age")


class TestPaths:
    def test_case3_scalar_path(self, db):
        assert val(db, "p1.age") == {n(30)}

    def test_case3_undefined_denotes_empty(self, db):
        # The paper: for a bachelor john, john.spouse denotes no object.
        assert val(db, "john.spouse") == frozenset()

    def test_case4_set_path(self, db):
        assert val(db, "p1..assistants") == {n("a1"), n("a2")}

    def test_scalar_method_over_set(self, db):
        # p1..assistants.salary = the set of salaries.
        assert val(db, "p1..assistants.salary") == {n(1000), n(2000)}

    def test_builtin_self(self, db):
        assert val(db, "p1.self") == {n("p1")}

    def test_no_nested_sets(self, db):
        # john..kids..kids: flat, not a set of sets (paper Section 5).
        program_db = Database()
        program_db.add_object("john", sets={"kids": ["k1", "k2"]})
        program_db.add_object("k1", sets={"kids": ["g1"]})
        program_db.add_object("k2", sets={"kids": ["g2", "g3"]})
        assert val(program_db, "john..kids..kids") == {
            n("g1"), n("g2"), n("g3"),
        }

    @pytest.mark.parametrize("depth", [4, 16, 64])
    def test_case3_deep_scalar_path(self, depth):
        chain = Database()
        for index in range(depth + 1):
            chain.add_object(f"n{index}", scalars={"next": f"n{index + 1}"})
        text = "n0" + ".next" * depth
        assert val(chain, text) == {n(f"n{depth}")}
        # Flatten-and-solve reaches the same node.
        assert Query(chain).objects(text) == {n(f"n{depth}")}


class TestMolecules:
    def test_case5_isa(self, db):
        assert val(db, "car1 : automobile") == {n("car1")}
        assert val(db, "car1 : vehicle") == {n("car1")}  # transitive
        assert val(db, "p1 : automobile") == frozenset()

    def test_case6_scalar_filter(self, db):
        assert val(db, "p1[age -> 30]") == {n("p1")}
        assert val(db, "p1[age -> 31]") == frozenset()

    def test_case6_result_must_denote(self, db):
        # john.spouse denotes nothing, so the filter can never hold.
        assert val(db, "p1[age -> john.spouse]") == frozenset()

    def test_filters_restrict_sets(self, db):
        # Paper (4.2): assistants with salary 1000.
        assert val(db, "p1..assistants[salary -> 1000]") == {n("a1")}

    def test_case7_superset(self, db):
        db.add_object("p2", sets={"friends": ["a1", "a2", "x"]})
        assert val(db, "p2[friends ->> p1..assistants]") == {n("p2")}
        db.add_object("p3", sets={"friends": ["a1"]})
        assert val(db, "p3[friends ->> p1..assistants]") == frozenset()

    def test_case7_vacuous_superset(self, db):
        # john has no assistants: the inclusion holds for ANY subject,
        # even one with no friends at all (Definition 4, case 7).
        assert val(db, "p1[friends ->> john..assistants]") == {n("p1")}

    def test_case8_enum(self, db):
        db.add_object("p2", sets={"friends": ["a1", "a2"]})
        assert val(db, "p2[friends ->> {a1}]") == {n("p2")}
        assert val(db, "p2[friends ->> {a1, a2}]") == {n("p2")}
        assert val(db, "p2[friends ->> {a1, zz}]") == frozenset()

    def test_case8_nondenoting_elements_drop_out(self, db):
        # john.spouse does not denote; S = {a1} only.
        db.add_object("p2", sets={"friends": ["a1"]})
        assert val(db, "p2[friends ->> {a1, john.spouse}]") == {n("p2")}

    def test_case8_empty_enum_is_vacuous(self, db):
        assert val(db, "john[friends ->> {}]") == {n("john")}

    def test_empty_filter_list_checks_existence(self, db):
        # Paper Section 5: t0[] is true iff t0 denotes an object.
        assert val(db, "p1.age[]") == {n(30)}
        assert val(db, "john.spouse[]") == frozenset()

    def test_selector(self, db):
        assert val(db, "p1.age[X]", X=n(30)) == {n(30)}
        assert val(db, "p1.age[X]", X=n(31)) == frozenset()


class TestParameterisedMethods:
    def test_args_participate(self):
        db = Database()
        john = db.lookup_name("john")
        db.assert_scalar(n("salary"), john, (n(1994),), n(1000))
        assert val(db, "john.salary@(1994)") == {n(1000)}
        assert val(db, "john.salary@(1995)") == frozenset()

    def test_set_valued_argument(self):
        # Paper: p1.paidFor@(p1..vehicles) -- the set of prices.
        db = Database()
        p1 = db.lookup_name("p1")
        db.add_object("p1", sets={"vehicles": ["v1", "v2"]})
        db.assert_scalar(n("paidFor"), p1, (n("v1"),), n(100))
        db.assert_scalar(n("paidFor"), p1, (n("v2"),), n(200))
        assert val(db, "p1.paidFor@(p1..vehicles)") == {n(100), n(200)}


class TestFlagship:
    def test_example_2_1(self, db):
        db.add_object("p1", scalars={"city": "newYork"})
        result = val(
            db,
            "X : employee[age -> 30; city -> newYork]"
            "..vehicles : automobile[cylinders -> 4].color[Z]",
            X=n("p1"), Z=n("red"),
        )
        assert result == {n("red")}
