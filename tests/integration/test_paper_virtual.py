"""Experiment E2.4: the address view -- virtual objects with attributes."""

from repro.core.signatures import SignatureSet
from repro.engine import Engine
from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid, VirtualOid
from repro.query import Query


def n(value):
    return NamedOid(value)


ADDRESS_RULE = """
    X.address[street -> X.street; city -> X.city] <- X : person.
"""


def people_db() -> Database:
    db = Database()
    db.add_object("ann", classes=["person"],
                  scalars={"street": "mainSt", "city": "newYork"})
    db.add_object("bob", classes=["person"],
                  scalars={"street": "elmSt", "city": "detroit"})
    db.add_object("cara", classes=["person"])  # attribute-less
    return db


class TestAddressView:
    def test_virtual_addresses_created(self):
        out = Engine(people_db(), parse_program(ADDRESS_RULE)).run()
        ann_addr = out.scalar_apply(n("address"), n("ann"))
        assert ann_addr == VirtualOid(n("address"), n("ann"))
        assert out.scalar_apply(n("street"), ann_addr) == n("mainSt")
        assert out.scalar_apply(n("city"), ann_addr) == n("newYork")

    def test_one_address_per_qualifying_person(self):
        engine = Engine(people_db(), parse_program(ADDRESS_RULE))
        out = engine.run()
        assert out.virtual_count() == 2
        # address, street and city: three scalars per qualifying person.
        assert engine.stats.derived_scalar == 3 * 2

    def test_attributeless_person_gets_no_address(self):
        # cara has neither street nor city: the head reads fail to
        # denote, so the rule cannot fire for her (guarded reading).
        out = Engine(people_db(), parse_program(ADDRESS_RULE)).run()
        assert out.scalar_apply(n("address"), n("cara")) is None

    def test_addresses_are_queryable_through_paths(self):
        out = Engine(people_db(), parse_program(ADDRESS_RULE)).run()
        rows = Query(out).all("X : person.address[city -> C]",
                              variables=["X", "C"])
        assert {(r.value("X"), r.value("C")) for r in rows} == {
            ("ann", "newYork"), ("bob", "detroit"),
        }

    def test_restructuring_is_stable_under_reevaluation(self):
        db = Engine(people_db(), parse_program(ADDRESS_RULE)).run()
        again = Engine(db, parse_program(ADDRESS_RULE)).run()
        assert again.virtual_count() == db.virtual_count()
        assert dict(again.scalars.items()) == dict(db.scalars.items())

    def test_signature_types_the_view(self):
        out = Engine(people_db(), parse_program(ADDRESS_RULE)).run()
        sigs = SignatureSet()
        sigs.declare_scalar("person", "address", (), "addressObj")
        sigs.declare_scalar("addressObj", "street", (), "string")
        sigs.declare_scalar("addressObj", "city", (), "string")
        sigs.type_virtual_objects(out)
        assert sigs.check_database(out) == []
        rows = Query(out).all("A : addressObj", variables=["A"])
        assert len(rows) == 2
