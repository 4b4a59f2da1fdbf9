"""JSON serialisation tests: round-trips and malformed input."""

import pytest

from repro.oodb.database import Database
from repro.oodb.oid import NamedOid, VirtualOid
from repro.oodb.serialize import (
    SerializationError,
    decode_oid,
    dumps,
    encode_oid,
    loads,
)


def n(value):
    return NamedOid(value)


class TestOidCodec:
    def test_named_round_trip(self):
        for value in ("mary", 30, "New York"):
            assert decode_oid(encode_oid(n(value))) == n(value)

    def test_virtual_round_trip(self):
        nested = VirtualOid(VirtualOid(n("tc"), n("kids")), n("peter"),
                            (n(1994),))
        assert decode_oid(encode_oid(nested)) == nested

    @pytest.mark.parametrize("bad", [
        42, "x", {"z": 1}, {"v": []}, {"v": [1]}, {"n": True}, {"n": [1]},
    ])
    def test_malformed_oids_rejected(self, bad):
        with pytest.raises(SerializationError):
            decode_oid(bad)


class TestDatabaseRoundTrip:
    def build(self) -> Database:
        db = Database()
        db.subclass("automobile", "vehicle")
        db.add_object("car1", classes=["automobile"],
                      scalars={"color": "red", "cylinders": 4})
        db.add_object("p1", classes=["employee"],
                      sets={"vehicles": ["car1"]})
        db.alias("auto1", "car1")
        subject = db.lookup_name("john")
        db.assert_scalar(n("salary"), subject, (n(1994),), n(1000))
        boss = VirtualOid(n("boss"), n("p1"))
        db.assert_scalar(n("boss"), n("p1"), (), boss)
        return db

    def test_round_trip_preserves_everything(self):
        db = self.build()
        restored = loads(dumps(db))
        assert restored.universe() == db.universe()
        assert set(restored.hierarchy.declared_edges()) == \
            set(db.hierarchy.declared_edges())
        assert dict(restored.scalars.items()) == dict(db.scalars.items())
        assert dict(restored.sets.items()) == dict(db.sets.items())
        assert restored.lookup_name("auto1") == n("car1")

    def test_round_trip_is_stable(self):
        db = self.build()
        once = dumps(db)
        assert dumps(loads(once)) == once

    def test_reflexive_flag_preserved(self):
        db = Database(reflexive_isa=True)
        db.subclass("a", "b")
        assert loads(dumps(db)).hierarchy.reflexive

    def test_invalid_json(self):
        with pytest.raises(SerializationError, match="invalid JSON"):
            loads("{nope")

    def test_wrong_version(self):
        with pytest.raises(SerializationError, match="version"):
            loads('{"format": 99}')


class TestFactCodec:
    """encode_fact/decode_fact carry the WAL's change-entry payloads."""

    def test_isa_round_trip(self):
        from repro.oodb.serialize import decode_fact, encode_fact
        fact = ("isa", n("tom"), n("cat"))
        assert decode_fact(encode_fact(fact)) == fact

    def test_scalar_and_set_round_trip(self):
        from repro.oodb.serialize import decode_fact, encode_fact
        for kind in ("scalar", "set"):
            fact = (kind, n("salary"), n("p1"), (n(1994),), n(1000))
            assert decode_fact(encode_fact(fact)) == fact

    def test_virtual_oids_survive(self):
        from repro.oodb.serialize import decode_fact, encode_fact
        boss = VirtualOid(n("boss"), n("p1"))
        fact = ("scalar", n("boss"), n("p1"), (), boss)
        assert decode_fact(encode_fact(fact)) == fact

    def test_unknown_kind_rejected_on_encode(self):
        from repro.oodb.serialize import encode_fact
        with pytest.raises(TypeError):
            encode_fact(("alias", "t", n("tom")))

    @pytest.mark.parametrize("bad", [
        42, [], ["isa"], ["isa", {"n": "a"}],
        ["scalar", {"n": "m"}, {"n": "s"}],
        ["scalar", {"n": "m"}, {"n": "s"}, "args", {"n": "r"}],
        ["nope", {"n": "a"}, {"n": "b"}],
    ])
    def test_malformed_facts_rejected_on_decode(self, bad):
        from repro.oodb.serialize import decode_fact
        with pytest.raises(SerializationError):
            decode_fact(bad)


class TestByteStability:
    """Snapshot checksums need ``to_dict`` to be byte-stable: two
    databases holding the same facts must encode identically however
    the facts were inserted."""

    def test_insertion_order_does_not_change_bytes(self):
        from repro.oodb.serialize import to_dict
        import json

        def forward():
            db = Database()
            db.assert_isa(n("a"), n("c1"))
            db.assert_isa(n("b"), n("c2"))
            db.assert_scalar(n("m"), n("a"), (), n(1))
            db.assert_scalar(n("m"), n("b"), (), n(2))
            db.assert_set_member(n("s"), n("a"), (), n("x"))
            db.assert_set_member(n("s"), n("a"), (), n("y"))
            db.alias("one", n("a"))
            db.alias("two", n("b"))
            return db

        def backward():
            db = Database()
            db.alias("two", n("b"))
            db.alias("one", n("a"))
            db.assert_set_member(n("s"), n("a"), (), n("y"))
            db.assert_set_member(n("s"), n("a"), (), n("x"))
            db.assert_scalar(n("m"), n("b"), (), n(2))
            db.assert_scalar(n("m"), n("a"), (), n(1))
            db.assert_isa(n("b"), n("c2"))
            db.assert_isa(n("a"), n("c1"))
            return db

        canonical = lambda db: json.dumps(to_dict(db), sort_keys=True,
                                          separators=(",", ":"))
        assert canonical(forward()) == canonical(backward())

    def test_old_snapshots_with_empty_set_rows_still_load(self):
        """Before fully retracted applications left nothing behind, a
        snapshot could carry ``[m, s, args, []]``; such a row loads to
        the same state as its absence."""
        from repro.oodb.serialize import from_dict, to_dict
        db = Database()
        db.assert_set_member(n("kids"), n("tom"), (), n("tim"))
        document = to_dict(db)
        document["sets"].append(
            [{"n": "color"}, {"n": "tom"}, [], []])
        loaded = from_dict(document)
        assert not loaded.sets.defined(n("color"), n("tom"))
        assert dict(loaded.sets.items()) == dict(db.sets.items())
        assert to_dict(loaded) == to_dict(db)

    def test_pinned_encoding_bytes(self):
        """The exact bytes are pinned: changing them breaks every
        existing snapshot's checksum, so it must bump FORMAT_VERSION."""
        from repro.oodb.serialize import to_dict
        import json
        db = Database()
        db.assert_isa(n("tom"), n("cat"))
        db.assert_scalar(n("age"), n("tom"), (), n(3))
        encoded = json.dumps(to_dict(db), sort_keys=True,
                             separators=(",", ":"))
        assert encoded == (
            '{"aliases":[],"format":1,'
            '"isa":[[{"n":"tom"},{"n":"cat"}]],'
            '"reflexive_isa":false,'
            '"scalars":[[{"n":"age"},{"n":"tom"},[],{"n":3}]],'
            '"sets":[],'
            '"universe":[{"n":3},{"n":"age"},{"n":"cat"},{"n":"tom"}]}'
        )
