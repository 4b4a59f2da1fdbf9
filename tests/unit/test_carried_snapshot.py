"""The carried snapshot: what ``Database.clone`` brings along.

A clone is a structural copy that carries the int mirrors and the
cardinality catalog of its source, so ``Engine.run`` builds them at most
once per source-database version -- never per run -- and the result
database keeps the run's catalog, recounting only what the rules
derived.
"""

import pytest

from repro import Database, Engine, Query, parse_program
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
