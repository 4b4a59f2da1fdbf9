"""Delta-driven semi-naive rounds: the partition, the seed index, the cost.

:class:`~repro.engine.delta.DeltaIndex` holds one round's new facts --
boxed entries and int-native batches -- by ``(kind, method)``;
:class:`~repro.engine.delta.SeedIndex` names the rule positions each
bucket can seed.  These tests pin both views of a round (int columns,
boxed entries in emission order), what a round fires (rule order, then
position order; variable-method and full-fire rules), that
constant-method seeds read only their own bucket, that an isa delta
still fires a maintained rule whole, and that a cold linear-recursive
demand run executes one batch per round.
"""

from unittest import mock

import pytest

from repro.core.ast import Name, Var
from repro.datasets import CompanyConfig, build_company
from repro.engine import Engine
from repro.engine.columnar import compile_columnar_delta_plan
from repro.engine.delta import DeltaIndex, SeedIndex
from repro.engine.normalize import normalize_program
from repro.engine.planner import build_plan, relevant_bound
from repro.engine.profiler import EngineStats
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

    def test_carried_surrogates_skip_reinterning(self):
        db = Database()
        reach = n("reach")
        p1, car0 = db.intern(n("p1")), db.intern(n("car0"))
        index = DeltaIndex(interner=db.interner)
        index.append_columns("set", reach, [p1], [car0])  # int batch
        for entry in [("set", reach, n("p2"), (), n("car2")),  # boxed
                      ("scalar", n("age"), n("p1"), (), n(30)),
                      ("isa", n("p1"), n("flagged"))]:
            index.append(entry)
        subjects, results = index.int_bucket("set", reach)
        assert subjects == [p1, db.intern(n("p2"))]
        assert results == [car0, db.intern(n("car2"))]
        # Memoised: the same bucket object serves every rule position.
        assert index.int_bucket("set", reach) is index.int_bucket(
            "set", reach)

    def test_a_lone_batch_is_its_own_bucket(self):
        db = Database()
        subjects, results = [1, 2], [3, 4]
        index = DeltaIndex(interner=db.interner)
        index.append_columns("set", n("d"), subjects, results)
        found = index.int_bucket("set", n("d"))
        assert found[0] is subjects and found[1] is results

    def test_mixed_rounds_box_in_emission_order(self):
        db = Database()
        a, b, c = (db.intern(n(name)) for name in "abc")
        index = DeltaIndex(interner=db.interner)
        index.append(("set", n("d"), n("x"), (), n("y")))
        index.append_columns("set", n("d"), [a, b], [b, c])
        index.append(("scalar", n("w"), n("a"), (), n(1)))
        index.append(("set", n("d"), n("p"), (n(1),), n("q")))
        index.append_columns("scalar", n("w"), [b], [c])
        assert len(index) == 6
        assert index.counts() == {"scalar": 2, "set": 4, "isa": 0}
        assert index.boxed() == [
            ("set", n("d"), n("x"), (), n("y")),
            ("set", n("d"), n("a"), (), n("b")),
            ("set", n("d"), n("b"), (), n("c")),
            ("scalar", n("w"), n("a"), (), n(1)),
            ("set", n("d"), n("p"), (n(1),), n("q")),
            ("scalar", n("w"), n("b"), (), n("c")),
        ]
        assert index.bucket("set", n("d")) == [
            entry for entry in index.boxed() if entry[:2] == ("set", n("d"))]
        # Parameterised facts have no int form; the rest keep the order.
        assert index.int_bucket("set", n("d")) == (
            [db.intern(n("x")), a, b], [db.intern(n("y")), b, c])
        assert set(index.keys()) == {("set", n("d")), ("scalar", n("w"))}
        assert not index.has_isa

    def test_a_boxed_round_is_read_as_written(self):
        entries = [("set", n("kids"), n("a"), (), n("b")),
                   ("isa", n("a"), n("person"))]
        index = DeltaIndex(entries)
        assert index.boxed() == entries
        assert index.bucket("set", n("kids")) == entries[:1]
        assert len(index) == 2
        assert index.counts() == {"scalar": 0, "set": 1, "isa": 1}


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


def _box_at_once(self, kind, method, subjects, results):
    """``append_columns`` as the round had it before int batches: every
    fact boxed into a realizer-log entry the moment it is recorded."""
    resolver = self.interner.resolver()
    for s, r in zip(subjects, results):
        self.append((kind, method, resolver[s], (), resolver[r]))


class _Rounds(EngineStats):
    """Engine stats that also keep each round's boxed view, in order."""

    def count_derived(self, delta) -> None:
        self.__dict__.setdefault("rounds", []).append(list(delta.boxed()))
        super().count_derived(delta)


class TestMixedRounds:
    """One bucket, ``d``, gets int batches (single-filter heads) and
    boxed entries (a two-element head) in the same rounds; a
    variable-method position, a constant-subject (generic) seed, a
    virtual head and the hot seeds of ``d`` all read those rounds."""

    RULES = """
        X[d ->> {Y}] <- X[kids ->> {Y}].
        X[d ->> {Y, Z}] <- X[pals ->> {Y}], Y[pals ->> {Z}].
        X[d ->> {Z}] <- X[d ->> {Y}], Y[kids ->> {Z}].
        X[d ->> {W, Z}] <- X[d ->> {Y}], Y[pals ->> {W}], W[kids ->> {Z}].
        X[any ->> {V}] <- X[M ->> {V}], X : c1.
        X.v5[tag ->> {Y}] <- X[d ->> {Y}].
        p1[seen ->> {Y}] <- p1[d ->> {Y}].
    """

    @pytest.fixture
    def db(self):
        db = Database()
        for i in range(7):
            db.add_object(f"p{i}", sets={"kids": [f"p{i + 1}"],
                                         "pals": [f"p{(i + 3) % 8}"]},
                          classes=["c1"] if i % 2 else [])
        return db

    def run(self, db, **kwargs):
        engine = Engine(db, parse_program(self.RULES), **kwargs)
        with mock.patch("repro.engine.fixpoint.EngineStats", _Rounds):
            result = engine.run()
        return result, engine.stats

    @staticmethod
    def facts(db):
        return (set(db.scalars.items()), set(db.sets.items()),
                set(db.hierarchy.declared_edges()))

    @staticmethod
    def counters(stats):
        return (stats.iterations, stats.firings, stats.derived_total,
                stats.derived_set, stats.derived_scalar, stats.tuples,
                stats.virtuals_created)

    def test_rounds_really_mix(self, db):
        """The premise: a round read as a delta holds ``d`` both ways."""
        mixed = []
        record = _Rounds.count_derived

        def spy(stats, delta):
            boxed = {entry[:2] for entry in delta._boxed}
            mixed.append(sorted(map(repr, boxed & delta._by_key.keys())))
            record(stats, delta)

        with mock.patch.object(_Rounds, "count_derived", spy):
            _, stats = self.run(db)
        d = repr(("set", n("d")))
        assert mixed[0] == mixed[1] == [d], mixed
        assert stats.iterations[0] > 2

    def test_lazy_boxing_equals_boxing_at_once(self, db):
        result, stats = self.run(db)
        with mock.patch.object(DeltaIndex, "append_columns", _box_at_once):
            eager, eager_stats = self.run(db)
        assert stats.rounds == eager_stats.rounds  # in order
        assert self.counters(stats) == self.counters(eager_stats)
        assert self.facts(result) == self.facts(eager)

    def test_equals_the_interpreted_oracle(self, db):
        result, stats = self.run(db)
        oracle, oracle_stats = self.run(db, interpreted=True)
        assert self.facts(result) == self.facts(oracle)
        assert self.counters(stats) == self.counters(oracle_stats)
        # Round by round the same facts (kernel row order may differ).
        assert ([sorted(map(repr, r)) for r in stats.rounds]
                == [sorted(map(repr, r)) for r in oracle_stats.rounds])
        for reference in ("X.v5", "p1[seen ->> {Y}]", "X[any ->> {V}]"):
            assert (Query(db, program=parse_program(self.RULES))
                    .objects(reference)
                    == Query(db, program=parse_program(self.RULES),
                             interpreted=True).objects(reference))


class TestGenericSeedReadsItsBucket:
    """Constant-subject seeds (every magic guard) read their int bucket."""

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
        assert delta_plan.kernel_names[0] == "int delta-set seed"
        execute, out = delta_plan.column_executor()

        def rows(delta):
            cols, nrows = execute(delta)
            return {frozenset((var, cols[slot][i]) for var, slot in out)
                    for i in range(nrows)}

        expected = {frozenset({(Var("X"), n("car0")), (Var("C"), n("red"))})}
        assert rows(list(self.ENTRIES)) == expected
        # A round carries the interner of the database it derives into.
        index = DeltaIndex(list(self.ENTRIES), db.interner)
        with mock.patch.object(DeltaIndex, "boxed", _unreadable):
            assert rows(index) == expected


def _unreadable(self):
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
