"""Head realisation tests: virtual objects, assertions, conflicts."""

import pytest

from repro.core.ast import Var
from repro.engine.heads import HeadRealizer
from repro.engine.normalize import normalize_rule
from repro.errors import EvaluationError, ResourceLimitError, ScalarConflictError
from repro.lang.parser import parse_reference, parse_rule
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid, VirtualOid


def n(value):
    return NamedOid(value)


def head_of(text: str):
    """Parse `text.` as a rule head through normalisation (body X:any)."""
    rule = normalize_rule(parse_rule(text))
    return rule.head


@pytest.fixture
def db():
    db = Database()
    db.add_object("p1", classes=["employee"], scalars={"worksFor": "cs1"})
    return db


class TestScalarAssertions:
    def test_molecule_filter_asserts_fact(self, db):
        realizer = HeadRealizer(db)
        obj, changed = realizer.realize(
            parse_reference("p1[age -> 30]"), {})
        assert obj == n("p1")
        assert changed
        assert db.scalar_apply(n("age"), n("p1")) == n(30)
        assert realizer.log == [("scalar", n("age"), n("p1"), (), n(30))]

    def test_idempotent_realization(self, db):
        realizer = HeadRealizer(db)
        realizer.realize(parse_reference("p1[age -> 30]"), {})
        _, changed = realizer.realize(parse_reference("p1[age -> 30]"), {})
        assert not changed

    def test_conflict_detected(self, db):
        realizer = HeadRealizer(db)
        realizer.realize(parse_reference("p1[age -> 30]"), {})
        with pytest.raises(ScalarConflictError):
            realizer.realize(parse_reference("p1[age -> 31]"), {})

    def test_variable_resolution(self, db):
        realizer = HeadRealizer(db)
        obj, _ = realizer.realize(
            parse_reference("X[age -> A]"),
            {Var("X"): n("p1"), Var("A"): n(30)},
        )
        assert db.scalar_apply(n("age"), n("p1")) == n(30)

    def test_unbound_variable_is_an_error(self, db):
        realizer = HeadRealizer(db)
        with pytest.raises(EvaluationError, match="unbound"):
            realizer.realize(parse_reference("X[age -> 30]"), {})


class TestSetAndIsaAssertions:
    def test_enum_filter_adds_members(self, db):
        realizer = HeadRealizer(db)
        realizer.realize(parse_reference("p1[kids ->> {a, b}]"), {})
        assert db.set_apply(n("kids"), n("p1")) == {n("a"), n("b")}

    def test_isa_assertion(self, db):
        realizer = HeadRealizer(db)
        _, changed = realizer.realize(parse_reference("p1 : manager"), {})
        assert changed
        assert db.isa(n("p1"), n("manager"))
        assert realizer.log[-1] == ("isa", n("p1"), n("manager"))


class TestVirtualObjects:
    def test_path_creates_virtual_when_undefined(self, db):
        realizer = HeadRealizer(db)
        obj, changed = realizer.realize(parse_reference("p1.boss"), {})
        assert obj == VirtualOid(n("boss"), n("p1"))
        assert changed
        assert realizer.virtuals_created == 1
        assert db.scalar_apply(n("boss"), n("p1")) == obj

    def test_existing_method_is_referenced_not_recreated(self, db):
        db.add_object("p1", scalars={"boss": "mary"})
        realizer = HeadRealizer(db)
        obj, changed = realizer.realize(parse_reference("p1.boss"), {})
        assert obj == n("mary")
        assert not changed

    def test_recreation_is_idempotent(self, db):
        realizer = HeadRealizer(db)
        first, _ = realizer.realize(parse_reference("p1.boss"), {})
        second, changed = realizer.realize(parse_reference("p1.boss"), {})
        assert first == second
        assert not changed
        assert realizer.virtuals_created == 1

    def test_filters_apply_to_virtual(self, db):
        realizer = HeadRealizer(db)
        head = head_of("X.boss[worksFor -> D] <- X : employee[worksFor -> D].")
        obj, _ = realizer.realize(
            head, {Var("X"): n("p1"), Var("D"): n("cs1")})
        assert db.scalar_apply(n("worksFor"), obj) == n("cs1")

    def test_computed_method_object(self, db):
        head = head_of("X[(M.tc) ->> {Y}] <- X[M ->> {Y}].")
        realizer = HeadRealizer(db)
        realizer.realize(head, {Var("X"): n("peter"), Var("M"): n("kids"),
                                Var("Y"): n("tim")})
        tc_kids = VirtualOid(n("tc"), n("kids"))
        assert db.scalar_apply(n("tc"), n("kids")) == tc_kids
        assert db.set_apply(tc_kids, n("peter")) == {n("tim")}

    def test_depth_limit(self, db):
        realizer = HeadRealizer(db, max_virtual_depth=3)
        ref = parse_reference("p1.b.b.b.b")
        with pytest.raises(ResourceLimitError, match="nesting"):
            realizer.realize(ref, {})

    def test_self_in_head_is_identity(self, db):
        realizer = HeadRealizer(db)
        obj, changed = realizer.realize(parse_reference("p1.self"), {})
        assert obj == n("p1")
        assert not changed
        assert realizer.virtuals_created == 0

    def test_self_not_redefinable(self, db):
        realizer = HeadRealizer(db)
        with pytest.raises(EvaluationError, match="identity"):
            realizer.realize(parse_reference("p1[self -> mary]"), {})

    def test_parameterised_virtual(self, db):
        realizer = HeadRealizer(db)
        obj, _ = realizer.realize(parse_reference("p1.review@(1994)"), {})
        assert obj == VirtualOid(n("review"), n("p1"), (n(1994),))

    def test_new_virtual_is_the_shared_identity_and_limit(self, db):
        # The int batch writer creates virtual objects through the same
        # call: identity, the depth limit and the counter are shared.
        realizer = HeadRealizer(db, max_virtual_depth=1)
        made = realizer.new_virtual(n("boss"), n("p1"), ())
        walked, _ = HeadRealizer(db).realize(parse_reference("p1.boss"), {})
        assert made == walked == VirtualOid(n("boss"), n("p1"))
        assert realizer.virtuals_created == 1
        with pytest.raises(ResourceLimitError, match="max_virtual_depth"):
            realizer.new_virtual(n("boss"), made, ())
        assert realizer.virtuals_created == 1
