"""Method table tests: storage, conflicts, index/scan parity."""

import pytest

from repro.errors import ScalarConflictError
from repro.oodb.methods import ScalarMethodTable, SetMethodTable
from repro.oodb.oid import NamedOid


def n(value):
    return NamedOid(value)


@pytest.fixture(params=[True, False], ids=["indexed", "scan"])
def scalar_table(request):
    table = ScalarMethodTable(indexed=request.param)
    table.put(n("age"), n("p1"), (), n(30))
    table.put(n("age"), n("p2"), (), n(45))
    table.put(n("city"), n("p1"), (), n("newYork"))
    table.put(n("salary"), n("p1"), (n(1994),), n(1000))
    return table


@pytest.fixture(params=[True, False], ids=["indexed", "scan"])
def set_table(request):
    table = SetMethodTable(indexed=request.param)
    table.add(n("kids"), n("peter"), (), n("tim"))
    table.add(n("kids"), n("peter"), (), n("mary"))
    table.add(n("kids"), n("tim"), (), n("sally"))
    table.add(n("friends"), n("p2"), (), n("tim"))
    return table


class TestScalarTable:
    def test_get(self, scalar_table):
        assert scalar_table.get(n("age"), n("p1")) == n(30)
        assert scalar_table.get(n("age"), n("p3")) is None

    def test_args_distinguish_applications(self, scalar_table):
        assert scalar_table.get(n("salary"), n("p1"), (n(1994),)) == n(1000)
        assert scalar_table.get(n("salary"), n("p1")) is None

    def test_duplicate_put_returns_false(self, scalar_table):
        assert scalar_table.put(n("age"), n("p1"), (), n(30)) is False

    def test_conflict_raises(self, scalar_table):
        with pytest.raises(ScalarConflictError):
            scalar_table.put(n("age"), n("p1"), (), n(31))

    def test_match_by_method(self, scalar_table):
        rows = list(scalar_table.match(method=n("age")))
        assert len(rows) == 2

    def test_match_by_method_and_result(self, scalar_table):
        rows = list(scalar_table.match(method=n("age"), result=n(45)))
        assert [key[1] for key, _ in rows] == [n("p2")]

    def test_match_by_subject(self, scalar_table):
        rows = list(scalar_table.match(subject=n("p1")))
        assert len(rows) == 3

    def test_match_all(self, scalar_table):
        assert len(list(scalar_table.match())) == len(scalar_table) == 4

    def test_remove(self, scalar_table):
        assert scalar_table.remove(n("age"), n("p1"), ())
        assert scalar_table.get(n("age"), n("p1")) is None
        assert not list(scalar_table.match(method=n("age"), result=n(30)))
        assert scalar_table.remove(n("age"), n("p1"), ()) is False

    def test_methods(self, scalar_table):
        assert scalar_table.methods() == {n("age"), n("city"), n("salary")}

    def test_clone_independent(self, scalar_table):
        copy = scalar_table.clone()
        copy.put(n("age"), n("p9"), (), n(1))
        assert scalar_table.get(n("age"), n("p9")) is None


class TestSetTable:
    def test_get_returns_frozenset(self, set_table):
        assert set_table.get(n("kids"), n("peter")) == {n("tim"), n("mary")}
        assert set_table.get(n("kids"), n("nobody")) == frozenset()

    def test_duplicate_add_returns_false(self, set_table):
        assert set_table.add(n("kids"), n("peter"), (), n("tim")) is False

    def test_len_counts_memberships(self, set_table):
        assert len(set_table) == 4
        assert set_table.applications() == 3

    def test_match_by_method(self, set_table):
        rows = list(set_table.match(method=n("kids")))
        assert len(rows) == 3

    def test_match_by_method_and_member(self, set_table):
        rows = list(set_table.match(method=n("kids"), member=n("tim")))
        assert [key[1] for key, _ in rows] == [n("peter")]

    def test_match_by_subject(self, set_table):
        rows = list(set_table.match(subject=n("peter")))
        assert {member for _, member in rows} == {n("tim"), n("mary")}

    def test_discard(self, set_table):
        assert set_table.discard(n("kids"), n("peter"), (), n("tim"))
        assert n("tim") not in set_table.get(n("kids"), n("peter"))
        assert set_table.discard(n("kids"), n("peter"), (), n("tim")) is False

    def test_fully_retracted_application_leaves_nothing_behind(
            self, set_table):
        # Logs and snapshots only express memberships, so "defined and
        # empty" must not be a state: the key goes with its last member.
        set_table.discard(n("friends"), n("p2"), (), n("tim"))
        assert not set_table.defined(n("friends"), n("p2"))
        assert set_table.get(n("friends"), n("p2")) == frozenset()
        assert (n("friends"), n("p2"), ()) not in dict(set_table.items())
        assert n("friends") not in set_table.methods()
        for view in (set_table.by_method_view(),
                     set_table.by_method_member_view(),
                     set_table.by_subject_view()):
            assert all(view.values())
            assert n("friends") not in view and n("p2") not in view

    def test_clone_independent(self, set_table):
        copy = set_table.clone()
        copy.add(n("kids"), n("peter"), (), n("extra"))
        assert n("extra") not in set_table.get(n("kids"), n("peter"))


class TestIndexScanParity:
    """The same queries must give identical results with indexes off."""

    def test_scalar_parity(self):
        indexed = ScalarMethodTable(indexed=True)
        scan = ScalarMethodTable(indexed=False)
        facts = [
            (n("a"), n("s1"), (), n(1)),
            (n("a"), n("s2"), (), n(2)),
            (n("b"), n("s1"), (n("x"),), n(1)),
        ]
        for fact in facts:
            indexed.put(*fact)
            scan.put(*fact)
        for pattern in [{}, {"method": n("a")}, {"subject": n("s1")},
                        {"method": n("a"), "result": n(1)}]:
            assert (sorted(indexed.match(**pattern), key=str)
                    == sorted(scan.match(**pattern), key=str))

    def test_set_parity(self):
        indexed = SetMethodTable(indexed=True)
        scan = SetMethodTable(indexed=False)
        for member in ("x", "y", "z"):
            indexed.add(n("m"), n("s"), (), n(member))
            scan.add(n("m"), n("s"), (), n(member))
        for pattern in [{}, {"method": n("m")}, {"subject": n("s")},
                        {"method": n("m"), "member": n("y")}]:
            assert (sorted(indexed.match(**pattern), key=str)
                    == sorted(scan.match(**pattern), key=str))
