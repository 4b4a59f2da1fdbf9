"""The carried snapshot: what ``Database.clone`` brings along, and
what it shares.

A clone carries the int mirrors and the cardinality catalog of its
source, so ``Engine.run`` builds them at most once per source-database
version -- never per run -- and the result database keeps the run's
catalog, recounting only what the rules derived.  The clone is
copy-on-write: it shares every inner bucket with its source until one
side writes to it, so a run pays for what it derives, not for the
database it reads.
"""

import sys
import threading

import pytest

from repro import Database, Engine, Query, parse_program
from repro.datasets import CompanyConfig, build_company
from repro.engine.columnar import compile_columnar_plan
from repro.engine.planner import build_plan
from repro.flogic.flatten import flatten_conjunction
from repro.lang.parser import parse_query
from repro.oodb import methods
from repro.oodb.oid import NamedOid, OidInterner
from repro.oodb.statistics import CardinalityCatalog

RULES = """\
X.address[street -> X.street; city -> X.city] <- X : person.
X[desc ->> {Y}] <- X[kids ->> {Y}].
X[desc ->> {Z}] <- X[desc ->> {Y}], Y[kids ->> {Z}].
X : parent <- X[kids ->> {Y}].
"""


def n(value):
    return NamedOid(value)


@pytest.fixture
def db():
    db = Database()
    db.subclass("employee", "person")
    for index in range(6):
        db.add_object(
            f"p{index}", classes=["employee"],
            scalars={"street": f"s{index % 2}", "city": "c",
                     "age": 30 + index},
            sets={"kids": [f"p{index + 1}"]} if index < 5 else None)
    return db


@pytest.fixture
def built(monkeypatch):
    """Counts of mirror constructions and catalog scans."""
    counts = {"views": 0, "catalogs": 0}
    for cls in (methods.ScalarSurrogateView, methods.SetSurrogateView):
        original = cls.__init__

        def init(self, *args, _original=original, **kwargs):
            counts["views"] += 1
            _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    original_build = CardinalityCatalog.build.__func__

    def build(cls, database):
        counts["catalogs"] += 1
        return original_build(cls, database)
    monkeypatch.setattr(CardinalityCatalog, "build", classmethod(build))
    return counts


def catalog_fields(catalog):
    return {name: getattr(catalog, name) for name in catalog.__slots__}


class TestCloneCarries:
    def test_clone_with_mirrors_runs_a_columnar_plan_without_rebuilding(
            self, db, built):
        db.scalars.surrogate_view(db.interner)
        db.sets.surrogate_view(db.interner)
        db.catalog()
        before = dict(built)
        clone = db.clone()
        atoms = flatten_conjunction(parse_query(
            "X : employee[street -> S], X[kids ->> {Y}], Y[age -> A]"))
        plan = compile_columnar_plan(clone, build_plan(clone, atoms))
        # Both mirrors are read: an int set kernel and an int scalar one.
        assert {"int set m-scan", "int scalar get"} <= set(plan.kernel_names)
        rows = list(plan.execute())
        assert len(rows) == 5
        assert built == before

    def test_carried_mirror_is_bound_to_the_cloned_interner(self, db):
        view = db.scalars.surrogate_view(db.interner)
        clone = db.clone()
        carried = clone.scalars.surrogate_view(clone.interner)
        assert carried is not view
        assert carried.interner is clone.interner
        assert carried.apps == view.apps
        # New objects of the clone get surrogates the source never sees.
        clone.add_object("fresh", scalars={"age": 1})
        assert db.interner.surrogate(n("fresh")) is None
        assert view.apps == db.clone().scalars.surrogate_view(
            db.interner).apps

    def test_a_foreign_mirror_is_rebuilt_not_trusted(self, db):
        foreign = OidInterner()
        foreign.intern(n("padding"))  # shift every surrogate by one
        db.scalars.surrogate_view(foreign)
        clone = db.clone()
        view = clone.scalars.surrogate_view(clone.interner)
        assert view.interner is clone.interner
        m, s = clone.intern(n("age")), clone.intern(n("p0"))
        assert clone.resolve(view.apps[m][s]) == n(30)

    def test_clone_carries_an_independent_catalog(self, db):
        db.begin_changes()
        source = db.catalog()
        clone = db.clone()
        carried = clone.catalog()
        assert carried is not source
        assert catalog_fields(carried) == catalog_fields(source)
        db.add_object("p9", scalars={"age": 1})
        assert db.catalog() is source  # patched in place from the log
        assert source.scalar[n("age")].facts == 7
        assert carried.scalar[n("age")].facts == 6

    def test_stale_catalog_is_not_served_by_the_clone(self, db):
        db.catalog()
        db.add_object("p9", scalars={"age": 1})
        clone = db.clone()
        assert clone.catalog().scalar[n("age")].facts == 7


def _inner_buckets(db):
    """``{path: bucket}`` for every inner container a clone may share:
    index buckets and membership sets of both tables, and the mirror
    slices down to their member sets and subject lists."""
    found = {}
    for kind, table in (("scalar", db.scalars), ("set", db.sets)):
        for name in table._SHARED[1:]:
            for outer, bucket in getattr(table, name).items():
                found[kind, name, outer] = bucket
        view = table._surrogates
        for m, bucket in view.apps.items():
            found[kind, "apps", m] = bucket
            found[kind, "inverse", m] = view.inverse[m]
            for r, subjects in view.inverse[m].items():
                found[kind, "inverse", m, r] = subjects
            if kind == "set":
                for s, members in bucket.items():
                    found[kind, "apps", m, s] = members
    for key, members in db.sets._facts.items():
        found["set", "_facts", key] = members
    return found


def _differing(left, right):
    a, b = _inner_buckets(left), _inner_buckets(right)
    return {path for path in a.keys() | b.keys()
            if a.get(path) is not b.get(path)}


def _slice_paths(left, right, kind, m):
    """The member-set and subject-list paths of one mirror slice."""
    return {path for db in (left, right) for path in _inner_buckets(db)
            if len(path) == 4 and path[0] == kind and path[2] == m}


class TestCloneShares:
    """The sharing invariant, object by object (no timing involved)."""

    @pytest.fixture
    def source(self, db):
        db.scalars.surrogate_view(db.interner)
        db.sets.surrogate_view(db.interner)
        db.catalog()
        return db

    def test_an_untouched_clone_shares_every_inner_bucket(self, source):
        clone = source.clone()
        assert _inner_buckets(source)  # there is something to share
        assert _differing(source, clone) == set()
        assert clone.hierarchy._up is source.hierarchy._up
        assert clone.buckets_copied == source.buckets_copied == 0
        # ... while every top-level container is the clone's own.
        for table, copy in ((source.scalars, clone.scalars),
                            (source.sets, clone.sets)):
            for name in table._SHARED:
                assert getattr(copy, name) is not getattr(table, name)
            assert copy._surrogates.apps is not table._surrogates.apps
            assert (copy._surrogates.inverse
                    is not table._surrogates.inverse)

    @pytest.mark.parametrize("writer", ["clone", "source"])
    def test_one_scalar_write_copies_its_three_buckets_and_one_slice(
            self, source, writer):
        clone = source.clone()
        side = clone if writer == "clone" else source
        side.retract_scalar(n("age"), n("p1"))
        side.assert_scalar(n("age"), n("p1"), (), n(99))
        age, p1 = n("age"), n("p1")
        m = source.intern(age)
        differing = _differing(source, clone)
        assert {path for path in differing if len(path) == 3} == {
            ("scalar", "_by_method", age),
            ("scalar", "_by_method_result", (age, n(31))),   # pruned
            ("scalar", "_by_method_result", (age, n(99))),   # created
            ("scalar", "_by_subject", p1),
            ("scalar", "apps", m), ("scalar", "inverse", m),
        }
        # Inside the one copied mirror slice everything is private ...
        assert ({path for path in differing if len(path) == 4}
                == _slice_paths(source, clone, "scalar", m))
        # ... and the set table, the other methods and subjects are not.
        assert side.buckets_copied == 3
        other = source if side is clone else clone
        assert other.buckets_copied == 0
        assert other.scalars.get(age, p1) == n(31)

    def test_one_set_write_copies_the_member_set_and_its_paths(
            self, source):
        clone = source.clone()
        kids, p0 = n("kids"), n("p0")
        key = (kids, p0, ())
        clone.assert_set_member(kids, p0, (), n("p5"))
        m = source.intern(kids)
        differing = _differing(source, clone)
        assert {path for path in differing if len(path) == 3} == {
            ("set", "_facts", key),
            ("set", "_by_method", kids),
            ("set", "_by_method_member", (kids, n("p5"))),
            ("set", "_by_subject", p0),
            ("set", "apps", m), ("set", "inverse", m),
        }
        # The mirror slice of ``kids`` is private down to its member
        # sets and subject lists; no other method's is.
        assert ({path for path in differing if len(path) == 4}
                == _slice_paths(source, clone, "set", m))
        members = clone.sets._facts[key]
        assert clone.sets._by_method[kids][key] is members
        assert clone.sets._by_subject[p0][key] is members
        assert source.sets.get(kids, p0) == {n("p1")}
        # A second write to the same application (of a member nobody
        # else has, so no shared pair bucket) copies nothing more.
        copied = clone.buckets_copied
        clone.assert_set_member(kids, p0, (), n("p0"))
        assert clone.buckets_copied == copied

    def test_a_fully_retracted_application_is_gone_everywhere(self, source):
        clone = source.clone()
        kids, p0 = n("kids"), n("p0")
        clone.retract_set_member(kids, p0, (), n("p1"))
        assert not clone.sets.defined(kids, p0)
        assert (kids, p0, ()) not in clone.sets.by_method_view()[kids]
        assert p0 not in clone.sets.by_subject_view()
        assert (kids, n("p1")) not in clone.sets.by_method_member_view()
        view = clone.sets.surrogate_view(clone.interner)
        assert clone.intern(p0) not in view.apps[clone.intern(kids)]
        assert source.sets.get(kids, p0) == {n("p1")}
        assert _inner_buckets(source).keys() > _inner_buckets(clone).keys()

    def test_the_hierarchy_and_its_memo_are_shared_until_an_isa_write(
            self, source):
        source.members(n("person"))  # memoised before the clone ...
        clone = source.clone()
        hierarchy = clone.hierarchy
        assert hierarchy._descendants_memo is source.hierarchy._descendants_memo
        assert n("person") in hierarchy._descendants_memo
        clone.classes_of(n("p0"))  # ... or after it, by either side
        assert n("p0") in source.hierarchy._ancestors_memo
        clone.assert_isa(n("p0"), n("manager"))
        assert hierarchy._up is not source.hierarchy._up
        assert hierarchy.copied == 1
        assert n("manager") not in source.classes_of(n("p0"))
        assert n("manager") in clone.classes_of(n("p0"))
        assert source.members(n("person")) == clone.members(n("person"))
        clone.assert_isa(n("p1"), n("manager"))
        assert hierarchy.copied == 1  # once per clone, not per write


class TestStaleWriter:
    def test_a_writer_acquired_before_a_clone_fails_loudly(self, db):
        db.sets.surrogate_view(db.interner)
        desc = db.obj("desc")
        write = db.sets.int_writer(desc, db.intern(desc))
        write.check()
        assert write(db.intern(n("p0")), db.intern(n("p1")))
        clone = db.clone()
        # The slice the closure captured is shared with the clone now:
        # one more row would show up on both sides.
        with pytest.raises(RuntimeError, match="cloned"):
            write.check()
        fresh = db.sets.int_writer(desc, db.intern(desc))
        fresh.check()
        assert fresh(db.intern(n("p0")), db.intern(n("p2")))
        assert clone.sets.get(desc, n("p0")) == {n("p1")}
        assert db.sets.get(desc, n("p0")) == {n("p1"), n("p2")}

    def test_the_columnar_emitter_checks_once_per_batch(self, db):
        from repro.engine.columnar import columnar_head_emitter
        from repro.engine.normalize import normalize_program

        rule, = normalize_program(parse_program(
            "X[desc ->> {Y}] <- X[kids ->> {Y}]."))
        plan = compile_columnar_plan(db, build_plan(db, rule.body, ()))
        emit = columnar_head_emitter(db, rule, plan)
        execute, _ = plan.column_executor(raw=True)
        cols, nrows = execute()
        log = []
        emit(cols, nrows, log)
        assert len(log) == 5
        db.clone()
        with pytest.raises(RuntimeError, match="cloned"):
            emit(cols, nrows, [])


class TestConcurrentClones:
    def test_clones_of_one_source_while_earlier_clones_are_read(self, db):
        """Readers under the server's shared gate: some threads clone
        the (quiescent) base and evaluate on their clone, others keep
        reading clones taken earlier.  No reader may ever see another
        thread's derivations, and the base must come out unchanged."""
        rules = parse_program(RULES)
        db.scalars.surrogate_view(db.interner)
        db.sets.surrogate_view(db.interner)
        db.catalog()
        expected = {key: frozenset(members)
                    for key, members in Engine(db, rules).run().sets.items()}
        base_sets = dict(db.sets.items())
        base_scalars = dict(db.scalars.items())
        earlier = [db.clone() for _ in range(3)]
        failures = []
        stop = threading.Event()

        def cloner():
            try:
                for _ in range(15):
                    result = Engine(db, rules).run()
                    if dict(result.sets.items()) != expected:
                        failures.append("a run saw foreign facts")
                    own = db.clone()
                    own.add_object("scratch", sets={"kids": ["p0"]})
            except Exception as error:  # surfaced by the assert below
                failures.append(repr(error))

        def reader(clone):
            try:
                while not stop.is_set():
                    if dict(clone.sets.items()) != base_sets:
                        failures.append("a clone changed under a reader")
                    if clone.members(n("person")) != db.members(n("person")):
                        failures.append("isa changed under a reader")
            except Exception as error:
                failures.append(repr(error))

        threads = ([threading.Thread(target=cloner) for _ in range(3)]
                   + [threading.Thread(target=reader, args=(clone,))
                      for clone in earlier])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads[:3]:
                thread.join(timeout=60)
            stop.set()
            for thread in threads[3:]:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert dict(db.sets.items()) == base_sets
        assert dict(db.scalars.items()) == base_scalars
        assert db.buckets_copied == 0


class TestEngineRunPaysOncePerSourceVersion:
    def test_second_run_builds_no_mirror_and_scans_no_catalog(
            self, db, built):
        rules = parse_program(RULES)
        first = Engine(db, rules).run()
        assert built["views"] == 2 and built["catalogs"] == 1
        before = dict(built)
        engine = Engine(db, rules)
        second = engine.run()
        assert built == before
        assert engine.stats.derived_total > 0
        assert set(second.scalars.items()) == set(first.scalars.items())

    def test_demand_runs_share_the_source_snapshot(self, db, built):
        query = Query(db, program=parse_program(RULES))
        assert query.count("p0[desc ->> {Y}]") == 5
        before = dict(built)
        # A different key: a new demand run *and* a query conjunction
        # planned against its result -- neither rescans anything.
        assert query.count("p3[desc ->> {Y}]") == 2
        assert built == before

    def test_a_base_change_rebuilds_once(self, db, built):
        rules = parse_program(RULES)
        Engine(db, rules).run()
        db.add_object("p6", classes=["employee"],
                      scalars={"street": "s", "city": "c"})
        before = dict(built)
        Engine(db, rules).run()
        Engine(db, rules).run()
        # Mirrors are maintained in place; the catalog (no change log
        # here) is rescanned once for the new version.
        assert built["views"] == before["views"]
        assert built["catalogs"] == before["catalogs"] + 1


class TestResultCatalog:
    @pytest.mark.parametrize("executor",
                             ["columnar", "batch", "interpreted"])
    def test_result_catalog_equals_a_fresh_scan(self, db, executor, built):
        result = Engine(db, parse_program(RULES), executor=executor).run()
        before = built["catalogs"]
        seeded = catalog_fields(result.catalog())
        assert built["catalogs"] == before  # recounted, not rescanned
        assert seeded == catalog_fields(CardinalityCatalog.build(result))
        assert seeded["scalar"][n("address")].facts == 6
        assert seeded["sets"][n("desc")].facts == 15

    def test_computed_method_heads_fall_back_to_a_scan(self, db, built):
        rules = parse_program(
            "X[(M.tc) ->> {Y}] <- X[M ->> {Y}].")
        result = Engine(db, rules).run()
        before = built["catalogs"]
        catalog = result.catalog()
        assert built["catalogs"] == before + 1
        assert catalog_fields(catalog) == catalog_fields(
            CardinalityCatalog.build(result))

    def test_recount_follows_later_changes(self, db):
        result = Engine(db, parse_program(RULES)).run()
        result.add_object("late", scalars={"age": 1})
        assert catalog_fields(result.catalog()) == catalog_fields(
            CardinalityCatalog.build(result))

    def test_unindexed_results_rescan(self, built):
        db = Database(indexed=False)
        db.add_object("a", sets={"kids": ["b"]})
        result = Engine(db, parse_program(RULES)).run()
        assert catalog_fields(result.catalog()) == catalog_fields(
            CardinalityCatalog.build(result))


class TestStats:
    def test_elapsed_covers_the_snapshot(self, db):
        engine = Engine(db, parse_program(RULES))
        engine.run()
        stats = engine.stats
        assert 0 < stats.snapshot_s <= stats.elapsed_s
        row = stats.as_row()
        assert row["snapshot-s"] == round(stats.snapshot_s, 4)
        assert row["seconds"] == round(stats.elapsed_s, 4)

    def test_a_cold_demand_run_copies_what_it_derives_into(self):
        """``pK[commandChain ->> {Y}]`` over the served company: the
        number of buckets the run (and the back-fill after it) copies
        is bounded by its answer size, whatever ``employees`` is."""
        rules = parse_program(
            "X[commandChain ->> {Y}] <- X[mentor -> Y].\n"
            "X[commandChain ->> {Z}] <- "
            "X[commandChain ->> {Y}], Y[mentor -> Z].\n"
            "X[redOwner -> 1] <- X[vehicles ->> {V}], V[color -> red].\n")
        copied = {}
        for employees in (100, 400):
            company = build_company(
                CompanyConfig(employees=employees, seed=11))
            for index in range(1, employees):
                company.add_object(
                    f"p{index}", scalars={"mentor": f"p{index - 1}"})
            for key in (5, 60):
                engine = Engine.for_query(
                    company, rules, f"p{key}[commandChain ->> {{Y}}]")
                result = engine.run()
                stats = engine.stats
                assert stats.buckets_copied == result.buckets_copied
                assert stats.as_row()["buckets-copied"] \
                    == stats.buckets_copied
                answers = result.sets.get(n("commandChain"), n(f"p{key}"))
                assert len(answers) == key  # drains the back-fill
                assert result.buckets_copied <= len(answers)
                copied[employees, key] = result.buckets_copied
                assert company.buckets_copied == 0
        assert copied[100, 5] == copied[400, 5]
        assert copied[100, 60] == copied[400, 60]

    def test_head_plans_are_counted(self, db):
        engine = Engine(db, parse_program(RULES))
        engine.run()
        assert engine.stats.heads_compiled == engine.stats.plans_compiled
        assert engine.stats.heads_fallback == 0
        assert engine.stats.as_row()["heads-fallback"] == 0

    def test_support_tracked_rules_count_as_fallback(self, db):
        engine = Engine(db, parse_program(RULES), record_support=True)
        engine.run()
        assert engine.stats.heads_fallback > 0
        assert (engine.stats.heads_compiled + engine.stats.heads_fallback
                == engine.stats.plans_compiled)
