"""Experiments E6.x: every rule program of Section 6, end to end."""

import pytest

from repro.datasets.genealogy import closure_edges, desc_rules, generic_tc_rules
from repro.engine import Engine
from repro.frontends import compile_xsql_view
from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid, VirtualOid
from repro.query import Query


def n(value):
    return NamedOid(value)


def run(text_or_program, db=None):
    program = (parse_program(text_or_program)
               if isinstance(text_or_program, str) else text_or_program)
    return Engine(db or Database(), program).run()


class TestE60IntensionalPower:
    def test_power_derived_from_engine(self):
        out = run("""
            car1 : automobile. car1[engine -> e1]. e1[power -> 90].
            bike1 : vehicle.
            X[power -> Y] <- X : automobile.engine[power -> Y].
        """)
        assert out.scalar_apply(n("power"), n("car1")) == n(90)
        assert out.scalar_apply(n("power"), n("bike1")) is None
        assert out.virtual_count() == 0  # no virtual objects involved


class TestE61VirtualBoss:
    def test_boss_created_for_extensional_employee(self):
        out = run("""
            p1 : employee. p1[worksFor -> cs1].
            X.boss[worksFor -> D] <- X : employee[worksFor -> D].
        """)
        boss = out.scalar_apply(n("boss"), n("p1"))
        assert boss == VirtualOid(n("boss"), n("p1"))
        assert out.scalar_apply(n("worksFor"), boss) == n("cs1")

    def test_existing_boss_reused(self):
        out = run("""
            p1 : employee. p1[worksFor -> cs1]. p1[boss -> mary].
            X.boss[worksFor -> D] <- X : employee[worksFor -> D].
        """)
        assert out.scalar_apply(n("boss"), n("p1")) == n("mary")
        assert out.scalar_apply(n("worksFor"), n("mary")) == n("cs1")
        assert out.virtual_count() == 0


class TestE62ExistingBossesOnly:
    def test_no_virtual_objects(self):
        out = run("""
            p1 : employee. p1[worksFor -> cs1].
            p2 : employee. p2[worksFor -> cs2]. p2[boss -> b2].
            Z[worksFor -> D] <- X : employee[worksFor -> D].boss[Z].
        """)
        assert out.scalar_apply(n("worksFor"), n("b2")) == n("cs2")
        assert out.scalar_apply(n("boss"), n("p1")) is None
        assert out.virtual_count() == 0


class TestE63XsqlView:
    def test_view_equals_rule_6_1(self):
        db = Database()
        db.add_object("p1", classes=["employee"],
                      scalars={"worksFor": "cs1"})
        view = compile_xsql_view("""
            CREATE VIEW EmployeeBoss
            SELECT WorksFor = D
            FROM Employee X
            OID FUNCTION OF X
            WHERE X.WorksFor[D]
        """)
        out = Engine(db, [view]).run()
        # The view object is addressed as a METHOD application, not as
        # EmployeeBoss(p1): the paper's simplification.
        assert Query(out).objects("p1.employeeBoss.worksFor") == {n("cs1")}
        assert out.scalar_apply(n("employeeBoss"), n("p1")) == \
            VirtualOid(n("employeeBoss"), n("p1"))


class TestE64Desc:
    PAPER_FACTS = """
        peter[kids ->> {tim, mary}].
        tim[kids ->> {sally}].
        mary[kids ->> {tom, paul}].
    """

    def test_paper_family(self):
        db = run(self.PAPER_FACTS)
        out = run(desc_rules(), db=db)
        assert out.set_apply(n("desc"), n("peter")) == {
            n("tim"), n("mary"), n("sally"), n("tom"), n("paul"),
        }
        assert out.set_apply(n("desc"), n("mary")) == {n("tom"), n("paul")}

    def test_matches_networkx_on_random_forest(self):
        from repro.datasets import build_family

        db, graph = build_family(generations=5, branching=3, seed=17)
        out = run(desc_rules(), db=db)
        derived = {
            (subject.value, member.value)
            for (method, subject, _), members in out.sets.items()
            if method == n("desc")
            for member in members
        }
        assert derived == closure_edges(graph)


class TestE65GenericTc:
    def test_exact_paper_output(self):
        db = run(TestE64Desc.PAPER_FACTS)
        out = run(generic_tc_rules(), db=db)
        tc_kids = VirtualOid(n("tc"), n("kids"))
        assert out.scalar_apply(n("tc"), n("kids")) == tc_kids
        assert out.set_apply(tc_kids, n("peter")) == {
            n("tim"), n("mary"), n("sally"), n("tom"), n("paul"),
        }

    def test_generic_equals_specialised(self):
        from repro.datasets import build_family

        db, _ = build_family(generations=5, branching=2, seed=23)
        via_desc = run(desc_rules(), db=db)
        via_naive = Engine(db, desc_rules(), seminaive=False).run()
        via_tc = run(generic_tc_rules(), db=db)
        tc_kids = VirtualOid(n("tc"), n("kids"))
        for person in db.universe():
            assert via_desc.set_apply(n("desc"), person) == \
                via_naive.set_apply(n("desc"), person) == \
                via_tc.set_apply(tc_kids, person)


class TestE66StratifiedFriends:
    def test_paper_friends_rule(self):
        # Section 6: "... <- X[friends ->> p1..assistants] should only
        # be applied once the set of p1's assistants is complete."
        out = run("""
            h1 : helper. h2 : helper.
            p1[assistants ->> {X}] <- X : helper.
            p2[friends ->> {h1, h2, h3}].
            X[welcoming -> yes] <- X[friends ->> p1..assistants].
        """)
        assert out.scalar_apply(n("welcoming"), n("p2")) == n("yes")

    def test_incomplete_set_would_not_qualify(self):
        out = run("""
            h1 : helper. h2 : helper.
            p1[assistants ->> {X}] <- X : helper.
            p2[friends ->> {h1}].
            X[welcoming -> yes] <- X[friends ->> p1..assistants].
        """)
        assert out.scalar_apply(n("welcoming"), n("p2")) is None
