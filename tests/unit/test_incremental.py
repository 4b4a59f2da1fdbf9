"""Unit tests for incremental view maintenance.

Covers the change-log API on :class:`Database`, catalog patching, head
specs, the maintainer's DRed / insert passes with their fallback
reasons, the query-level LRU memo, and the
EXPLAIN ``maintenance:`` section.
"""

import pytest

from repro.engine.fixpoint import Engine, EngineLimits
from repro.engine.incremental import (
    MaintenanceReport,
    fact_pred,
    net_changes,
    simple_head,
)
from repro.engine.normalize import normalize_program
from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.query import Query


def names(db, *values):
    return tuple(db.obj(v) for v in values)


@pytest.fixture
def db():
    base = Database()
    base.add_object("p1", classes=["employee"],
                    scalars={"city": "ny"}, sets={"kids": ["p2"]})
    base.add_object("p2", classes=["employee"], scalars={"city": "ny"})
    base.add_object("car1", scalars={"color": "red"})
    return base


# ---------------------------------------------------------------------------
# The change log
# ---------------------------------------------------------------------------

class TestChangeLog:
    def test_records_asserts_and_retracts(self, db):
        log = db.begin_changes()
        kids, p2, p3 = names(db, "kids", "p2", "p3")
        assert db.assert_set_member(kids, p2, (), p3)
        assert db.retract_set_member(kids, db.obj("p1"), (), p2)
        assert db.retract_scalar(db.obj("city"), p2, ())
        assert db.assert_isa(p3, db.obj("employee"))
        signs = [sign for sign, _ in log.entries]
        kinds = [fact[0] for _, fact in log.entries]
        assert signs == ["+", "-", "-", "+"]
        assert kinds == ["set", "set", "scalar", "isa"]

    def test_noop_mutations_are_not_recorded(self, db):
        log = db.begin_changes()
        kids, p1, p2 = names(db, "kids", "p1", "p2")
        assert not db.assert_set_member(kids, p1, (), p2)  # present
        assert not db.retract_set_member(kids, p2, (), p1)  # absent
        assert not db.retract_scalar(db.obj("age"), p1, ())
        assert not db.retract_isa(p1, db.obj("person"))  # not declared
        assert log.entries == []

    def test_in_sync_tracks_the_data_version(self, db):
        log = db.begin_changes()
        version = db.data_version()
        assert log.in_sync(version, log.cursor())
        db.retract_scalar(db.obj("city"), db.obj("p1"), ())
        assert log.in_sync(db.data_version(), log.cursor())
        # A mutation behind the log's back breaks the accounting.
        db.scalars.put(db.obj("age"), db.obj("p1"), (), db.obj("p2"))
        assert not log.in_sync(db.data_version(), log.cursor())

    def test_alias_disrupts(self, db):
        log = db.begin_changes()
        db.alias("ny", "boston")
        assert log.disrupted is not None
        assert not log.in_sync(db.data_version(), log.cursor())

    def test_begin_changes_is_idempotent(self, db):
        log = db.begin_changes()
        assert db.begin_changes() is log
        db.end_changes()
        assert db.change_log is None

    def test_clone_does_not_carry_the_log(self, db):
        db.begin_changes()
        assert db.clone().change_log is None

    def test_net_changes_cancels_round_trips(self, db):
        log = db.begin_changes()
        kids, p2, p3 = names(db, "kids", "p2", "p3")
        db.assert_set_member(kids, p2, (), p3)
        db.retract_set_member(kids, p2, (), p3)
        db.retract_set_member(kids, db.obj("p1"), (), p2)
        db.assert_set_member(kids, db.obj("p1"), (), p2)
        inserted, deleted = net_changes(log.entries)
        assert inserted == [] and deleted == []


# ---------------------------------------------------------------------------
# Catalog patching
# ---------------------------------------------------------------------------

class TestCatalogPatch:
    def test_patched_in_place_under_a_log(self, db):
        db.begin_changes()
        catalog = db.catalog()
        kids, p2, p3 = names(db, "kids", "p2", "p3")
        before = catalog.sets[kids].facts
        db.assert_set_member(kids, p2, (), p3)
        patched = db.catalog()
        assert patched is catalog  # same object, adjusted counts
        assert patched.sets[kids].facts == before + 1
        db.retract_set_member(kids, p2, (), p3)
        assert db.catalog().sets[kids].facts == before

    def test_counts_match_a_fresh_build(self, db):
        db.begin_changes()
        db.catalog()
        city, p2 = names(db, "city", "p2")
        db.retract_scalar(city, p2, ())
        db.assert_scalar(db.obj("age"), p2, (), db.obj(30))
        patched = db.catalog()
        from repro.oodb.statistics import CardinalityCatalog

        fresh = CardinalityCatalog.build(db)
        assert patched.scalar_total == fresh.scalar_total
        assert patched.scalar[city].facts == fresh.scalar[city].facts
        assert patched.isa_edges == fresh.isa_edges

    def test_a_full_retract_patches_to_what_a_rebuild_counts(self, db):
        from repro.oodb.statistics import CardinalityCatalog

        def fields(catalog):
            return {name: getattr(catalog, name)
                    for name in catalog.__slots__}

        db.begin_changes()
        catalog = db.catalog()
        color, peter, tim = names(db, "color", "peter", "tim")
        db.catalog()  # the names above grew the universe
        for member in (tim, peter):
            db.assert_set_member(color, peter, (), member)
        assert db.catalog() is catalog
        assert catalog.sets[color].apps == 1  # one application, two facts
        for member in (tim, peter):
            db.retract_set_member(color, peter, (), member)
        assert db.catalog() is catalog  # patched, not rebuilt
        assert color not in catalog.sets
        assert fields(catalog) == fields(CardinalityCatalog.build(db))

    def test_without_a_log_the_catalog_rebuilds(self, db):
        first = db.catalog()
        db.retract_scalar(db.obj("city"), db.obj("p2"), ())
        assert db.catalog() is not first


# ---------------------------------------------------------------------------
# Head specs
# ---------------------------------------------------------------------------

RULES = """
    X[d1 ->> {Y}] <- X[kids ->> {Y}].
    X[d1 ->> {Z}] <- X[d1 ->> {Y}], Y[kids ->> {Z}].
    X[red -> 1] <- X[color -> red].
    X.v1[tag -> 1] <- X[color -> red].
"""


class TestHeadSpecs:
    def rules(self):
        return normalize_program(parse_program(RULES))

    def test_simple_heads_classified(self):
        rules = self.rules()
        assert simple_head(rules[0]) is not None
        assert simple_head(rules[2]) is not None
        assert simple_head(rules[3]) is None  # path head creates virtuals

    def test_fact_pred_wildcards_virtual_methods(self, db):
        from repro.oodb.oid import VirtualOid

        virtual = VirtualOid(db.obj("tc"), db.obj("kids"))
        assert fact_pred(("set", virtual, db.obj("p1"), (), db.obj("p2"))) \
            == ("set", None)
        assert fact_pred(("isa", db.obj("p1"), db.obj("c1"))) == ("isa", "isa")


# ---------------------------------------------------------------------------
# Maintainer passes and fallbacks
# ---------------------------------------------------------------------------

def maintained_pair(db, text_rules):
    """An engine-run result plus its maintainer, under a change log."""
    log = db.begin_changes()
    engine = Engine(db, parse_program(text_rules))
    result = engine.run()
    return log, result, engine.maintainer(result, db)


class TestMaintainer:
    def test_dred_rederives_a_fact_with_a_second_derivation(self, db):
        db.add_object("car2", scalars={"color": "red"})
        db.add_object("p1", sets={"cars": ["car1", "car2"]})
        log, result, maintainer = maintained_pair(
            db, "X[hasRed -> 1] <- X[cars ->> {C}], C[color -> red].")
        fact = ("scalar", db.obj("hasRed"), db.obj("p1"), (), db.obj(1))
        db.retract_scalar(db.obj("color"), db.obj("car1"), ())
        report = maintainer.apply(log.since(0))
        assert report.applied
        assert (report.overdeleted, report.rederived) == (1, 1)
        assert result.scalars.get(*fact[1:4]) == fact[4]
        db.retract_scalar(db.obj("color"), db.obj("car2"), ())
        report = maintainer.apply(log.since(1))
        assert report.applied
        assert result.scalars.get(*fact[1:4]) is None

    @pytest.mark.parametrize("interpreted", [False, True])
    def test_counting_recheck_is_existential_over_head_bindings(
            self, db, interpreted):
        # Regression: the interpreted delta path yields *full* body
        # bindings; re-checking a derivation with the dead valuation
        # seeded (instead of just the head binding) wrongly deleted
        # facts whose other valuations survive.
        db.add_object("car2", scalars={"color": "red"})
        db.add_object("p1", sets={"cars": ["car1", "car2"]})
        log = db.begin_changes()
        engine = Engine(
            db, parse_program(
                "X[hasRed -> 1] <- X[cars ->> {C}], C[color -> red]."),
            interpreted=interpreted)
        result = engine.run()
        maintainer = engine.maintainer(result, db)
        db.retract_scalar(db.obj("color"), db.obj("car1"), ())
        report = maintainer.apply(log.since(0))
        assert report.applied
        assert result.scalars.get(db.obj("hasRed"), db.obj("p1"), ()) \
            == db.obj(1)

    def test_dred_rederives_through_remaining_paths(self, db):
        # Two kids paths p1 -> p2: direct and via p3.
        db.add_object("p1", sets={"kids": ["p3"]})
        db.add_object("p3", sets={"kids": ["p2"]})
        log, result, maintainer = maintained_pair(db, """
            X[d1 ->> {Y}] <- X[kids ->> {Y}].
            X[d1 ->> {Z}] <- X[d1 ->> {Y}], Y[kids ->> {Z}].
        """)
        d1, p1, p2 = names(db, "d1", "p1", "p2")
        db.retract_set_member(db.obj("kids"), p1, (), p2)
        report = maintainer.apply(log.since(0))
        assert report.applied and report.overdeleted >= 1
        assert report.rederived >= 1  # p1 d1 p2 survives via p3
        assert p2 in result.sets.get(d1, p1, ())

    @pytest.mark.parametrize("extra", [
        "",  # non-recursive stratum
        "S[p ->> {V}] <- S[p ->> {W}], W[kids ->> {V}].",  # recursive/DRed
    ])
    def test_program_fact_rules_are_protected(self, db, extra):
        # Regression: a fact asserted by a ground program rule holds
        # unconditionally and must survive losing its *derived* support
        # (this also protects magic seed facts under demand maintenance).
        log, result, maintainer = maintained_pair(db, f"""
            p1[p ->> {{p2}}].
            S[p ->> {{V}}] <- S[kids ->> {{V}}].
            {extra}
        """)
        p, p1, p2 = names(db, "p", "p1", "p2")
        assert p2 in result.sets.get(p, p1, ())
        db.retract_set_member(db.obj("kids"), p1, (), p2)
        report = maintainer.apply(log.since(0))
        assert report.applied
        assert p2 in result.sets.get(p, p1, ())

    def test_fact_rule_with_complex_head_forces_deletion_fallback(self, db):
        log, result, maintainer = maintained_pair(db, """
            p1.anchor[tag -> 1].
            S[tag -> 1] <- S[kids ->> {V}].
        """)
        db.retract_set_member(db.obj("kids"), db.obj("p1"), (), db.obj("p2"))
        report = maintainer.apply(log.since(0))
        assert not report.applied
        assert "cannot be enumerated" in report.reason

    def test_base_facts_are_edb_protected(self, db):
        # A derived fact that is also asserted in the base must survive
        # losing its derivation.
        db.assert_scalar(db.obj("red"), db.obj("car1"), (), db.obj(1))
        log, result, maintainer = maintained_pair(
            db, "X[red -> 1] <- X[color -> red].")
        db.retract_scalar(db.obj("color"), db.obj("car1"), ())
        report = maintainer.apply(log.since(0))
        assert report.applied
        assert result.scalars.get(db.obj("red"), db.obj("car1"), ()) \
            == db.obj(1)

    def test_fallback_on_negation_over_changed_predicate(self, db):
        log, result, maintainer = maintained_pair(
            db, "X[lonely -> 1] <- X : employee, not X[kids ->> {K}].")
        db.retract_set_member(db.obj("kids"), db.obj("p1"), (), db.obj("p2"))
        report = maintainer.apply(log.since(0))
        assert not report.applied
        assert "negation or superset" in report.reason
        # Nothing was mutated: the stale derived fact is untouched.
        assert result.scalars.get(db.obj("lonely"), db.obj("p2"), ()) \
            == db.obj(1)

    def test_fallback_on_superset_reader(self, db):
        db.add_object("p2", sets={"kids": []})
        log, result, maintainer = maintained_pair(
            db, "X[covers -> 1] <- X[kids ->> p2..kids].")
        db.assert_set_member(db.obj("kids"), db.obj("p2"), (), db.obj("p1"))
        report = maintainer.apply(log.since(0))
        assert not report.applied and "superset" in report.reason

    def test_fallback_on_isa_deletion_with_isa_readers(self, db):
        log, result, maintainer = maintained_pair(
            db, "X[emp -> 1] <- X : employee.")
        db.retract_isa(db.obj("p1"), db.obj("employee"))
        report = maintainer.apply(log.since(0))
        assert not report.applied and "class membership" in report.reason

    def test_isa_insertions_are_maintained(self, db):
        log, result, maintainer = maintained_pair(
            db, "X[emp -> 1] <- X : employee.")
        db.assert_isa(db.obj("p3"), db.obj("employee"))
        report = maintainer.apply(log.since(0))
        assert report.applied
        assert result.scalars.get(db.obj("emp"), db.obj("p3"), ()) \
            == db.obj(1)

    def test_fallback_on_unrederivable_head_deletion(self, db):
        log, result, maintainer = maintained_pair(
            db, "X.v1[tag -> 1] <- X[color -> red].")
        db.retract_scalar(db.obj("color"), db.obj("car1"), ())
        report = maintainer.apply(log.since(0))
        assert not report.applied and "cannot be unified" in report.reason

    def test_virtual_identity_preserved_on_insertion(self, db):
        log, result, maintainer = maintained_pair(
            db, "X.v1[tag -> 1] <- X[color -> red].")
        v1 = db.obj("v1")
        before = result.scalars.get(v1, db.obj("car1"), ())
        db.add_object("car2", scalars={"color": "red"})
        report = maintainer.apply(log.since(0))
        assert report.applied
        from repro.oodb.oid import VirtualOid

        assert result.scalars.get(v1, db.obj("car1"), ()) == before
        assert result.scalars.get(v1, db.obj("car2"), ()) \
            == VirtualOid(v1, db.obj("car2"))

    def test_unrelated_changes_touch_nothing(self, db):
        log, result, maintainer = maintained_pair(
            db, "X[red -> 1] <- X[color -> red].")
        db.retract_scalar(db.obj("city"), db.obj("p1"), ())
        report = maintainer.apply(log.since(0))
        assert report.applied and report.rules_affected == 0
        assert report.overdeleted == 0 and report.reinserted == 0
        # The base change itself still lands in the result database.
        assert result.scalars.get(db.obj("city"), db.obj("p1"), ()) is None

    def test_report_renders(self):
        assert "full re-derivation: why" in \
            MaintenanceReport(applied=False, reason="why").render()
        rendered = MaintenanceReport(applied=True, deleted_base=1,
                                     overdeleted=2, rederived=1).render()
        assert "maintenance:" in rendered and "overdeleted 2" in rendered


# ---------------------------------------------------------------------------
# Query integration: sync, LRU, EXPLAIN
# ---------------------------------------------------------------------------

DESC = """
    X[d1 ->> {Y}] <- X[kids ->> {Y}].
    X[d1 ->> {Z}] <- X[d1 ->> {Y}], Y[kids ->> {Z}].
"""


class TestQueryIntegration:
    def test_memoised_result_is_maintained_not_rebuilt(self, db):
        db.begin_changes()
        query = Query(db, program=parse_program(DESC), magic=False)
        query.all("X[d1 ->> {Y}]")
        first = query._materialized
        db.assert_set_member(db.obj("kids"), db.obj("p2"), (), db.obj("p3"))
        rows = query.all("X[d1 ->> {Y}]")
        assert query._materialized is first  # patched in place
        assert query.last_maintenance.applied
        scratch = Query(db.clone(), program=parse_program(DESC), magic=False)
        assert [r.sort_key() for r in rows] \
            == [r.sort_key() for r in scratch.all("X[d1 ->> {Y}]")]

    def test_unchanged_base_reuses_the_memo(self, db):
        query = Query(db, program=parse_program(DESC), magic=False)
        query.all("X[d1 ->> {Y}]")
        first = query._materialized
        query.all("X[d1 ->> {Y}]")
        assert query._materialized is first

    def test_memo_entries_zero_disables_memoisation(self, db):
        query = Query(db, program=parse_program(DESC), memo_entries=0)
        query.all("p1[d1 ->> {Y}]")
        query.all("p1[d1 ->> {Y}]")
        assert query._demand_dbs == {}
        assert query.last_demand is not None  # still answers via a run

    def test_result_database_log_is_trimmed_per_maintenance_run(self, db):
        db.begin_changes()
        query = Query(db, program=parse_program(DESC), magic=False)
        query.all("X[d1 ->> {Y}]")
        kids = db.obj("kids")
        for index in range(3, 8):
            db.assert_set_member(kids, db.obj("p2"), (),
                                 db.obj(f"p{index}"))
            query.all("X[d1 ->> {Y}]")
            assert query.last_maintenance.applied
        assert query._materialized.change_log.entries == []

    def test_without_change_log_falls_back_to_rebuild(self, db):
        query = Query(db, program=parse_program(DESC), magic=False)
        query.all("X[d1 ->> {Y}]")
        first = query._materialized
        db.assert_set_member(db.obj("kids"), db.obj("p2"), (), db.obj("p3"))
        query.all("X[d1 ->> {Y}]")
        assert query._materialized is not first
        assert query.last_maintenance is None

    def test_demand_memo_is_lru_with_eviction_counter(self, db):
        db.begin_changes()
        query = Query(db, program=parse_program(DESC), memo_entries=2)
        query.all("p1[d1 ->> {Y}]")
        query.all("p2[d1 ->> {Y}]")
        query.all("p1[d1 ->> {Y}]")  # touch: p1 becomes most recent
        query.all("X[d1 ->> {b}]")   # evicts p2, the least recent
        assert query.memo_evictions == 1
        assert query.last_demand.stats.memo_evictions == 1
        keys = list(query._demand_dbs)
        assert len(keys) == 2
        query.all("p1[d1 ->> {Y}]")
        assert query.memo_evictions == 1  # still memoised: no rebuild

    def test_explain_renders_maintenance_section(self, db):
        db.begin_changes()
        query = Query(db, program=parse_program(DESC))
        text = "p1[d1 ->> {Y}]"
        query.all(text)
        db.assert_set_member(db.obj("kids"), db.obj("p2"), (), db.obj("p3"))
        rendered = query.explain(text).render()
        assert "maintenance:" in rendered
        assert "incremental:" in rendered

    def test_explain_renders_incremental_fallback_reason(self, db):
        db.begin_changes()
        program = parse_program(
            "X[lonely -> 1] <- X : employee, not X[kids ->> {K}].")
        query = Query(db, program=program)
        text = "X[lonely -> V]"
        query.all(text)
        db.retract_set_member(db.obj("kids"), db.obj("p1"), (), db.obj("p2"))
        rendered = query.explain(text).render()
        assert "maintenance:" in rendered
        assert "full re-derivation:" in rendered
        assert "negation or superset" in rendered

    def test_maintenance_counters_reach_engine_stats(self, db):
        db.begin_changes()
        query = Query(db, program=parse_program(DESC), magic=True)
        text = "p1[d1 ->> {Y}]"
        query.all(text)
        db.retract_set_member(db.obj("kids"), db.obj("p1"), (), db.obj("p2"))
        query.all(text)
        row = query.last_demand.stats.as_row()
        assert row["maintenance"] == 1
        assert row["overdeleted"] >= 1
        db.assert_set_member(db.obj("kids"), db.obj("p1"), (), db.obj("p2"))
        query.all(text)
        row = query.last_demand.stats.as_row()
        assert row["maintenance"] == 2
        assert row["reinserted"] >= 1


# ---------------------------------------------------------------------------
# Maintenance rounds on the engine's stratum loop
# ---------------------------------------------------------------------------

PATH_DESC = """
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
"""

SAME_DEPT = "X[sameDept ->> {Y}] <- X[worksFor -> D], Y[worksFor -> D]."


def extend_chain(db, start, stop):
    """kids edges n<start> -> n<start+1> -> ... -> n<stop>."""
    kids = db.obj("kids")
    for i in range(start, stop):
        db.assert_set_member(kids, db.obj(f"n{i}"), (), db.obj(f"n{i + 1}"))


def staff(db):
    works = db.obj("worksFor")
    for i, dept in enumerate(("d1", "d1", "d2", "d2", "d2")):
        db.assert_scalar(works, db.obj(f"e{i}"), (), db.obj(dept))
    return works


class TestMaintenanceRounds:
    def test_maintenance_honours_max_iterations(self):
        from repro.errors import ResourceLimitError
        from repro.oodb.serialize import to_dict

        limits = EngineLimits(max_iterations=6)
        program = parse_program(PATH_DESC)
        db = Database()
        log = db.begin_changes()
        extend_chain(db, 0, 3)  # a run needs four rounds
        engine = Engine(db, program, limits=limits)
        result = engine.run()
        query = Query(db, program=program, magic=False, limits=limits)
        assert len(query.all("n0[desc ->> {Y}]")) == 3
        maintainer = engine.maintainer(result, db)
        cursor = log.cursor()
        extend_chain(db, 3, 20)  # 17 more edges: ~20 rounds to close
        before = to_dict(result)
        with pytest.raises(ResourceLimitError, match="max_iterations"):
            maintainer.apply(log.since(cursor))
        assert to_dict(result) == before  # rolled back, all or nothing
        # A fresh evaluation of the changed base hits the same limit, and
        # the served memo answers the same way instead of serving the
        # maintained closure.
        with pytest.raises(ResourceLimitError):
            Engine(db, program, limits=limits).run()
        with pytest.raises(ResourceLimitError):
            query.all("n0[desc ->> {Y}]")
        assert not query.last_maintenance.applied
        assert "ResourceLimitError" in query.last_maintenance.reason

    def test_maintained_inserts_take_the_column_program(self):
        db = Database()
        log = db.begin_changes()
        works = staff(db)
        program = parse_program(SAME_DEPT)
        engine = Engine(db, program)
        result = engine.run()
        assert "head: int writer" in engine.explain()
        maintainer = engine.maintainer(result, db)
        cursor = log.cursor()
        db.assert_scalar(works, db.obj("e5"), (), db.obj("d1"))
        report = maintainer.apply(log.since(cursor))
        assert report.applied and report.reinserted == 5  # 3 x 3 - 2 x 2
        evaluation = maintainer.evaluation
        assert evaluation.stats.heads_fallback == 0
        assert evaluation.stats.heads_compiled == 2  # both positions
        assert {record.head for record in evaluation.delta_records.values()} \
            == {"column program"}
        fresh = Engine(db, program).run()
        assert dict(result.sets.items()) == dict(fresh.sets.items())

    def test_a_change_log_does_not_change_how_a_result_is_built(
            self, monkeypatch):
        engines = []
        run = Engine.run

        def recording_run(engine):
            engines.append(engine)
            return run(engine)

        monkeypatch.setattr(Engine, "run", recording_run)

        def build(logged):
            db = Database()
            if logged:
                db.begin_changes()
            staff(db)
            query = Query(db, program=parse_program(SAME_DEPT), magic=False)
            rows = query.all("X[sameDept ->> {Y}]")
            engine, = engines
            engines.clear()
            return (engine.stats.heads_fallback, engine.stats.heads_compiled,
                    [report.head for report in engine.plan_reports()],
                    [row.sort_key() for row in rows])

        logged, unlogged = build(True), build(False)
        assert logged[0] == unlogged[0] == 0
        assert logged[2] == ["int writer"]
        assert logged == unlogged

    def test_maintenance_counts_into_the_report_not_the_run(self):
        db = Database()
        log = db.begin_changes()
        extend_chain(db, 0, 3)
        engine = Engine(db, parse_program(PATH_DESC))
        result = engine.run()
        derived, iterations = engine.stats.derived_total, \
            list(engine.stats.iterations)
        maintainer = engine.maintainer(result, db)
        cursor = log.cursor()
        extend_chain(db, 3, 5)
        report = maintainer.apply(log.since(cursor))
        assert report.reinserted == 15 - 6  # the closure of 5 edges grew
        assert engine.stats.facts_reinserted == report.reinserted
        assert engine.stats.derived_total == derived
        assert engine.stats.iterations == iterations


# ---------------------------------------------------------------------------
# Realizer replay
# ---------------------------------------------------------------------------

def test_realizer_replay_logs_only_new_facts(db):
    from repro.engine.heads import HeadRealizer

    realizer = HeadRealizer(db)
    kids, p1, p2, p3 = names(db, "kids", "p1", "p2", "p3")
    entries = [("set", kids, p1, (), p2),   # already present
               ("set", kids, p2, (), p3),   # new
               ("isa", p3, db.obj("employee"))]
    assert realizer.replay(entries) == 2
    assert realizer.log == entries[1:]
    assert p3 in db.sets.get(kids, p2, ())
