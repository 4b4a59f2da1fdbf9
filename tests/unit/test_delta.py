"""Delta-driven semi-naive rounds: the partition, the seed index, the cost.

:class:`~repro.engine.delta.DeltaIndex` partitions one round's delta by
``(kind, method)``; :class:`~repro.engine.delta.SeedIndex` names the
rule positions each bucket can seed.  These tests pin what a round
fires (rule order, then position order; variable-method and full-fire
rules), that constant-method seeds read only their own bucket, that an
isa delta still fires a maintained rule whole, and that a cold
linear-recursive demand run executes one batch per round.
"""

import pytest

from repro.core.ast import Name, Var
from repro.datasets import CompanyConfig, build_company
from repro.engine import Engine
from repro.engine.columnar import compile_columnar_delta_plan
from repro.engine.delta import DeltaIndex, SeedIndex
from repro.engine.normalize import normalize_program
from repro.engine.planner import build_plan, relevant_bound
from repro.flogic.atoms import SetMemberAtom
from repro.flogic.flatten import flatten_conjunction
from repro.lang.parser import parse_program, parse_query
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid
from repro.query import Query


def n(value):
    return NamedOid(value)


class TestDeltaIndex:
    def test_partitions_by_kind_and_method(self):
        entries = [("set", n("kids"), n("a"), (), n("b")),
                   ("scalar", n("kids"), n("a"), (), n("c")),
                   ("set", n("kids"), n("b"), (), n("c"))]
        index = DeltaIndex(entries)
        assert index.bucket("set", n("kids")) == [entries[0], entries[2]]
        assert index.bucket("scalar", n("kids")) == [entries[1]]
        assert index.bucket("set", n("other")) == ()
        assert not index.has_isa

    def test_has_isa_from_the_same_partition(self):
        index = DeltaIndex([("set", n("kids"), n("a"), (), n("b")),
                            ("isa", n("a"), n("person"))])
        assert index.has_isa


class TestSeedIndex:
    RULES = """
        X[d ->> {Y}] <- X[kids ->> {Y}].
        X[d ->> {Z}] <- X[d ->> {Y}], Y[kids ->> {Z}].
        X[e -> V] <- X[M -> V], X[age -> A].
        X[f -> 1] <- X : person, X[age -> A].
    """

    @pytest.fixture
    def seeds(self):
        db = Database()
        return db, SeedIndex(db, normalize_program(parse_program(self.RULES)))

    def test_one_bucket_fires_its_positions_in_rule_order(self, seeds):
        _, index = seeds
        delta = DeltaIndex([("set", n("kids"), n("a"), (), n("b"))])
        # Rule 2 reads ``M`` (a variable method): it fires every round.
        assert index.plan(delta) == [(0, [0]), (1, [1]), (2, [0])]

    def test_buckets_merge_in_position_order(self, seeds):
        _, index = seeds
        delta = DeltaIndex([("set", n("d"), n("a"), (), n("b")),
                            ("set", n("kids"), n("b"), (), n("c")),
                            ("scalar", n("age"), n("a"), (), n(3))])
        assert index.plan(delta) == [(0, [0]), (1, [0, 1]), (2, [0, 1]),
                                     (3, [1])]

    def test_full_rules_fire_whole_whatever_the_delta(self, seeds):
        _, index = seeds
        delta = DeltaIndex([("isa", n("a"), n("person"))])
        assert index.plan(delta, frozenset({3})) == [(2, [0]), (3, None)]

    def test_resolution_registers_no_names(self):
        db = Database()
        before = db.universe()
        SeedIndex(db, normalize_program(parse_program(self.RULES)))
        assert db.universe() == before


class TestGenericSeedReadsItsBucket:
    """Constant-subject seeds (every magic guard) take the generic path."""

    @pytest.fixture
    def db(self):
        db = Database()
        for i, color in enumerate(["red", "blue", "green"]):
            db.add_object(f"car{i}", scalars={"color": color})
        return db

    ENTRIES = [
        ("set", n("wants"), n("demand"), (), n("car0")),   # the one row
        ("set", n("wants"), n("other"), (), n("car1")),    # subject differs
        ("set", n("decoy"), n("demand"), (), n("car2")),   # other bucket
        ("set", n("decoy"), n("other"), (), n("car1")),    # other bucket
    ]

    def test_same_rows_from_its_own_bucket_only(self, db):
        atom = SetMemberAtom(Name("wants"), Name("demand"), (), Var("X"))
        rest = flatten_conjunction(parse_query("X[color -> C]"))
        plan = build_plan(db, rest, relevant_bound(rest, atom.variables()))
        delta_plan = compile_columnar_delta_plan(db, atom, plan)
        assert delta_plan.kernel_names[0] == "batch delta-set seed"
        execute, out = delta_plan.column_executor()

        def rows(delta):
            cols, nrows = execute(delta)
            return {frozenset((var, cols[slot][i]) for var, slot in out)
                    for i in range(nrows)}

        expected = {frozenset({(Var("X"), n("car0")), (Var("C"), n("red"))})}
        assert rows(list(self.ENTRIES)) == expected
        index = DeltaIndex(list(self.ENTRIES))
        index.entries = _Unreadable()
        assert rows(index) == expected


class _Unreadable:
    def __iter__(self):
        raise AssertionError("a constant-method seed read the whole round")


class TestMaintainerRounds:
    def test_isa_insertion_fires_a_rule_with_no_data_position(self):
        """No bucket seeds ``X : k2``; the isa delta fires it whole."""
        db = Database()
        db.add_object("p1", sets={"kids": ["p2"]})
        db.begin_changes()
        program = parse_program("""
            X[tc ->> {Y}] <- X[kids ->> {Y}].
            X[d7 -> 1] <- X : k2.
        """)
        queries = [Query(db, program=program, magic=magic)
                   for magic in (False, True)]
        assert [query.all("X[d7 -> V]") for query in queries] == [[], []]
        db.assert_isa(db.obj("p1"), db.obj("k2"))
        for query in queries:
            assert [str(answer.value("X")) for answer
                    in query.all("X[d7 -> V]")] == ["p1"]
            assert query.last_maintenance.applied
            assert query.last_maintenance.reinserted == 1


class TestRoundCost:
    """A cold ``pK[commandChain ->> {Y}]`` demand run: one batch a round."""

    RULES = """
        X[commandChain ->> {Y}] <- X[mentor -> Y].
        X[commandChain ->> {Z}] <- X[commandChain ->> {Y}], Y[mentor -> Z].
        X[redOwner -> 1] <- X[vehicles ->> {V}], V[color -> red].
    """

    @pytest.fixture(scope="class")
    def company(self):
        db = build_company(CompanyConfig(employees=400, seed=11))
        for index in range(1, 400):
            db.add_object(f"p{index}", scalars={"mentor": f"p{index - 1}"})
        return db

    @pytest.mark.parametrize("interpreted", [
        pytest.param(False, id="columnar"),
        pytest.param(True, id="interpreted")])
    def test_batches_follow_rounds_not_positions(self, company, interpreted):
        engine = Engine.for_query(company, parse_program(self.RULES),
                                  "p200[commandChain ->> {Y}]",
                                  interpreted=interpreted)
        engine.run()
        stats = engine.stats
        iterations = sum(stats.iterations)
        # Recorded before rounds became delta-driven: the derivation is
        # unchanged, only the positions executed with nothing to read
        # are gone (they made ``batches`` about 5 x ``iterations``).
        assert (stats.firings, stats.derived_total, stats.tuples,
                stats.iterations) == (205, 201, 611, [200])
        assert stats.batches <= iterations + len(engine.rewrite.rules)
