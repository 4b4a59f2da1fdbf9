"""Method table tests: storage, conflicts, index/brute-force parity."""

import pytest

from repro.errors import ScalarConflictError
from repro.oodb.methods import ScalarMethodTable, SetMethodTable
from repro.oodb.oid import NamedOid


def n(value):
    return NamedOid(value)


@pytest.fixture
def scalar_table():
    table = ScalarMethodTable()
    table.put(n("age"), n("p1"), (), n(30))
    table.put(n("age"), n("p2"), (), n(45))
    table.put(n("city"), n("p1"), (), n("newYork"))
    table.put(n("salary"), n("p1"), (n(1994),), n(1000))
    return table


@pytest.fixture
def set_table():
    table = SetMethodTable()
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
    """Every index-served lookup equals a brute-force filter over
    ``items()``: all eight bound/unbound ``match`` patterns (with values
    that occur and one that does not), ``methods()`` and every
    ``count_*``."""

    METHODS = (n("a"), n("b"), n("absent"))
    SUBJECTS = (n("s1"), n("s2"), n("absent"))
    VALUES = (n(1), n(2), n("absent"))

    def patterns(self, value_name):
        for method in (None, *self.METHODS):
            for subject in (None, *self.SUBJECTS):
                for value in (None, *self.VALUES):
                    yield {"method": method, "subject": subject,
                           value_name: value}

    @staticmethod
    def brute(rows, method, subject, value):
        return sorted(((key, v) for key, v in rows
                       if method in (None, key[0])
                       and subject in (None, key[1])
                       and value in (None, v)), key=str)

    def test_scalar_parity(self):
        table = ScalarMethodTable()
        for fact in [(n("a"), n("s1"), (), n(1)),
                     (n("a"), n("s2"), (), n(2)),
                     (n("b"), n("s1"), (n("x"),), n(1)),
                     (n("b"), n("s2"), (), n(1))]:
            table.put(*fact)
        table.remove(n("b"), n("s2"), ())
        rows = list(table.items())
        for pattern in self.patterns("result"):
            assert (sorted(table.match(**pattern), key=str)
                    == self.brute(rows, *pattern.values())), pattern
        assert table.methods() == {key[0] for key, _ in rows}
        for method in self.METHODS:
            assert table.count_method(method) == len(
                self.brute(rows, method, None, None))
            for result in self.VALUES:
                assert table.count_method_result(method, result) == len(
                    self.brute(rows, method, None, result))
        for subject in self.SUBJECTS:
            assert table.count_subject(subject) == len(
                self.brute(rows, None, subject, None))

    def test_set_parity(self):
        table = SetMethodTable()
        for fact in [(n("a"), n("s1"), (), n(1)),
                     (n("a"), n("s1"), (), n(2)),
                     (n("a"), n("s2"), (), n(1)),
                     (n("b"), n("s1"), (n("x"),), n(2)),
                     (n("b"), n("s2"), (), n(1))]:
            table.add(*fact)
        table.discard(n("b"), n("s2"), (), n(1))
        rows = [(key, member) for key, members in table.items()
                for member in members]
        apps = [(key, None) for key, _ in table.items()]
        for pattern in self.patterns("member"):
            assert (sorted(table.match(**pattern), key=str)
                    == self.brute(rows, *pattern.values())), pattern
        assert table.methods() == {key[0] for key, _ in rows}
        for method in self.METHODS:
            assert table.count_method_apps(method) == len(
                self.brute(apps, method, None, None))
            for member in self.VALUES:
                assert table.count_method_member(method, member) == len(
                    self.brute(rows, method, None, member))
        for subject in self.SUBJECTS:
            assert table.count_subject_apps(subject) == len(
                self.brute(apps, None, subject, None))
