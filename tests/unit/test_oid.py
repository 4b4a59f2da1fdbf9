"""OID tests: display, nesting depth, hashing, deterministic ordering."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from repro.oodb.oid import NamedOid, VirtualOid, oid_sort_key


class TestNamedOid:
    def test_display_bare_and_quoted(self):
        assert NamedOid("mary").display() == "mary"
        assert NamedOid("New York").display() == '"New York"'
        assert NamedOid(30).display() == "30"

    def test_structural_equality(self):
        assert NamedOid("a") == NamedOid("a")
        assert NamedOid("a") != NamedOid("b")
        assert NamedOid(4) != NamedOid("4")

    def test_hash_is_cached_and_unchanged(self):
        # The value the generated dataclass hash gave, computed once.
        for value in ("a", 30, "New York"):
            oid = NamedOid(value)
            assert hash(oid) == oid._hash == hash((value,))
        assert repr(NamedOid("a")) == "NamedOid(value='a')"
        assert NamedOid("a") == NamedOid("a")  # the cache is not compared

    def test_copies_and_pickles_rebuild_the_hash(self):
        oid = NamedOid("mary")
        for twin in (copy.copy(oid), copy.deepcopy(oid),
                     pickle.loads(pickle.dumps(oid))):
            assert twin == oid and hash(twin) == hash(oid)
        # Another process salts string hashes differently: the
        # unpickled object must hash as that process's own would.
        script = ("import pickle, sys; o = pickle.load(sys.stdin.buffer); "
                  "print(hash(o) == hash(('mary',)) == o._hash)")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        done = subprocess.run([sys.executable, "-c", script],
                              input=pickle.dumps(oid), env=env,
                              capture_output=True, check=True)
        assert done.stdout.strip() == b"True"


class TestVirtualOid:
    def test_display_is_the_creating_path(self):
        boss = VirtualOid(NamedOid("boss"), NamedOid("p1"))
        assert boss.display() == "p1.boss"

    def test_display_with_args(self):
        v = VirtualOid(NamedOid("salary"), NamedOid("john"), (NamedOid(1994),))
        assert v.display() == "john.salary@(1994)"

    def test_nested_display(self):
        boss = VirtualOid(NamedOid("boss"), NamedOid("p1"))
        boss2 = VirtualOid(NamedOid("boss"), boss)
        assert boss2.display() == "p1.boss.boss"

    def test_depth(self):
        boss = VirtualOid(NamedOid("boss"), NamedOid("p1"))
        assert boss.depth() == 1
        assert VirtualOid(NamedOid("boss"), boss).depth() == 2
        # Depth follows the deepest component, including the method.
        tc_kids = VirtualOid(NamedOid("tc"), NamedOid("kids"))
        deep = VirtualOid(tc_kids, NamedOid("x"))
        assert deep.depth() == 2

    def test_hash_consing_by_structure(self):
        a = VirtualOid(NamedOid("m"), NamedOid("s"), (NamedOid(1),))
        b = VirtualOid(NamedOid("m"), NamedOid("s"), (NamedOid(1),))
        assert a == b
        assert hash(a) == hash(b)


class TestSortKey:
    def test_named_before_virtual(self):
        named = NamedOid("z")
        virtual = VirtualOid(NamedOid("a"), NamedOid("a"))
        assert oid_sort_key(named) < oid_sort_key(virtual)

    def test_total_order_over_mixed_values(self):
        oids = [NamedOid(5), NamedOid("a"), NamedOid("b"), NamedOid(10),
                VirtualOid(NamedOid("m"), NamedOid("s"))]
        ordered = sorted(oids, key=oid_sort_key)
        assert sorted(ordered, key=oid_sort_key) == ordered

    def test_rejects_non_oid(self):
        with pytest.raises(TypeError):
            oid_sort_key("oops")  # type: ignore[arg-type]
