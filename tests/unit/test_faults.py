"""Fault-injection harness tests: plans, rollback, transactional apply.

Covers the seeded/targeted :mod:`repro.testing.faults` machinery itself,
:meth:`Database.rollback_changes` (the transactional backbone), and the
end-to-end guarantee: a fault anywhere inside :meth:`Maintainer.apply`
leaves the result database bit-identical to its pre-call state, and a
retry (or a from-scratch re-derivation) produces the unfaulted answers.
"""

import pytest

from repro.engine.fixpoint import Engine
from repro.errors import PathLogError
from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.query import Query
from repro.testing import (
    FaultPlan,
    InjectedFault,
    fault_point,
    inject,
    inject_random,
    observe,
)

DESC_RULES = """
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
"""


def seed_family(db):
    kids = db.obj("kids")
    db.assert_set_member(kids, db.obj("peter"), (), db.obj("tim"))
    db.assert_set_member(kids, db.obj("peter"), (), db.obj("mary"))
    db.assert_set_member(kids, db.obj("mary"), (), db.obj("tom"))
    return kids


def set_state(db):
    """Set-table facts, ignoring empty groups (retracting the last
    member keeps the group key around -- semantically no fact)."""
    return {key: members for key, members in db.sets.items() if members}


# ---------------------------------------------------------------------------
# The harness itself
# ---------------------------------------------------------------------------

class TestFaultHarness:
    def test_disabled_by_default(self):
        fault_point("anywhere")  # no plan installed: a no-op

    def test_targeted_site_and_nth(self):
        with inject("alpha", nth=2):
            fault_point("alpha")  # hit 1: survives
            fault_point("beta")  # other sites never fire
            with pytest.raises(InjectedFault) as info:
                fault_point("alpha")  # hit 2: fires
            assert info.value.site == "alpha"
            assert info.value.hit == 2
        fault_point("alpha")  # plan uninstalled on exit

    def test_injected_fault_is_not_a_pathlog_error(self):
        # Library `except PathLogError` handlers must never swallow an
        # injected fault -- the property suites rely on it escaping.
        assert not issubclass(InjectedFault, PathLogError)
        assert issubclass(InjectedFault, RuntimeError)

    def test_seeded_random_schedule_is_deterministic(self):
        def drive():
            hits = []
            with inject_random(seed=7, rate=0.5) as plan:
                for i in range(50):
                    try:
                        fault_point(f"site{i % 3}")
                    except InjectedFault as fault:
                        hits.append((i, fault.site))
                return hits, dict(plan.counts)

        first = drive()
        second = drive()
        assert first == second
        assert first[0], "rate=0.5 over 50 hits must fire at least once"

    def test_random_schedule_restricted_to_sites(self):
        with inject_random(seed=0, rate=1.0, sites=["only.here"]):
            fault_point("somewhere.else")  # not in scope: no fire
            with pytest.raises(InjectedFault):
                fault_point("only.here")

    def test_observe_counts_without_firing(self):
        with observe() as plan:
            for _ in range(3):
                fault_point("counted")
            fault_point("other")
        assert plan.counts == {"counted": 3, "other": 1}

    def test_plans_nest_and_restore(self):
        with inject("outer", nth=1):
            with observe() as plan:
                fault_point("outer")  # inner plan disarmed: counts only
            assert plan.counts == {"outer": 1}
            with pytest.raises(InjectedFault):
                fault_point("outer")  # outer plan restored

    def test_engine_sites_are_planted(self):
        # One ordinary run passes every engine-side fault point; the
        # observer sees the sites the tentpole promises exist.
        db = Database()
        seed_family(db)
        with observe() as plan:
            Engine(db, parse_program(DESC_RULES)).run()
        assert plan.counts.get("engine.iteration", 0) > 0
        assert plan.counts.get("engine.emit", 0) > 0
        assert plan.counts.get("columnar.step", 0) > 0

    def test_maintenance_sites_are_planted(self):
        db = Database()
        log = db.begin_changes()
        kids = seed_family(db)
        engine = Engine(db, parse_program(DESC_RULES))
        result = engine.run()
        maintainer = engine.maintainer(result, db)
        cursor = log.cursor()
        db.assert_set_member(kids, db.obj("tom"), (), db.obj("ann"))
        db.retract_set_member(kids, db.obj("mary"), (), db.obj("tom"))
        with observe() as plan:
            report = maintainer.apply(log.since(cursor))
        assert report.applied
        assert plan.counts.get("maintain.apply", 0) == 1
        assert plan.counts.get("maintain.overdelete", 0) > 0
        assert plan.counts.get("maintain.insert", 0) > 0
        assert plan.counts.get("heads.replay", 0) > 0


# ---------------------------------------------------------------------------
# Database.rollback_changes
# ---------------------------------------------------------------------------

class TestRollbackChanges:
    def test_rolls_back_to_cursor_and_stays_in_sync(self):
        db = Database()
        log = db.begin_changes()
        kids = seed_family(db)
        db.assert_scalar(db.obj("age"), db.obj("tim"), (), db.obj(30))
        cursor = log.cursor()
        before_sets = set_state(db)
        before_scalars = dict(db.scalars.items())
        before_len = len(db)

        db.assert_set_member(kids, db.obj("tom"), (), db.obj("zoe"))
        db.retract_set_member(kids, db.obj("peter"), (), db.obj("tim"))
        db.retract_scalar(db.obj("age"), db.obj("tim"), ())
        db.assert_scalar(db.obj("age"), db.obj("tim"), (), db.obj(31))
        db.assert_isa(db.obj("zoe"), db.obj("person"))

        undone = db.rollback_changes(cursor)
        assert undone == 5
        assert set_state(db) == before_sets
        assert dict(db.scalars.items()) == before_scalars
        assert len(db) >= before_len  # objects interned stay interned
        # The undo went through the API: the log explains every version
        # bump, so consumers' in_sync arithmetic still holds.
        assert log.in_sync(db.data_version(), log.cursor())

    def test_rollback_of_nothing_is_a_noop(self):
        db = Database()
        log = db.begin_changes()
        seed_family(db)
        version = db.data_version()
        assert db.rollback_changes(log.cursor()) == 0
        assert db.data_version() == version

    def test_columnar_surrogates_survive_rollback(self):
        # The columnar executor rides the OID interner's surrogate
        # table; rollback goes through the ordinary retraction API, so
        # surrogates stay unique and the int-column kernels agree with
        # the interpreted walk afterwards.
        db = Database()
        log = db.begin_changes()
        kids = seed_family(db)
        cursor = log.cursor()
        db.assert_set_member(kids, db.obj("tom"), (), db.obj("zoe"))
        db.retract_set_member(kids, db.obj("peter"), (), db.obj("tim"))
        db.rollback_changes(cursor)
        for name in ("peter", "tim", "mary", "tom", "zoe"):
            oid = db.obj(name)
            assert db.interner.resolve(db.interner.intern(oid)) == oid
        col = Engine(db, parse_program(DESC_RULES)).run()
        interp = Engine(db, parse_program(DESC_RULES),
                        interpreted=True).run()
        assert set_state(col) == set_state(interp)


# ---------------------------------------------------------------------------
# Transactional Maintainer.apply
# ---------------------------------------------------------------------------

MAINTAIN_SITES = [
    "maintain.overdelete", "maintain.dred", "maintain.rederive",
    "maintain.insert", "heads.replay",
]


class TestTransactionalApply:
    def _materialised(self):
        db = Database()
        log = db.begin_changes()
        kids = seed_family(db)
        # A diamond: desc(peter, tom) holds through mary AND tim, so
        # deleting the mary edge exercises the rederive pass (the fact
        # is overdeleted, then found still derivable and replayed).
        db.assert_set_member(kids, db.obj("tim"), (), db.obj("tom"))
        engine = Engine(db, parse_program(DESC_RULES))
        result = engine.run()
        maintainer = engine.maintainer(result, db)
        return db, log, kids, result, maintainer

    def _mutate(self, db, log, kids):
        cursor = log.cursor()
        db.assert_set_member(kids, db.obj("tom"), (), db.obj("ann"))
        db.retract_set_member(kids, db.obj("mary"), (), db.obj("tom"))
        return cursor

    def snapshot(self, result):
        return (set_state(result), dict(result.scalars.items()))

    @pytest.mark.parametrize("site", MAINTAIN_SITES)
    def test_fault_mid_apply_rolls_back(self, site):
        db, log, kids, result, maintainer = self._materialised()
        cursor = self._mutate(db, log, kids)
        before = self.snapshot(result)
        with inject(site, nth=1):
            with pytest.raises(InjectedFault):
                maintainer.apply(log.since(cursor))
        assert self.snapshot(result) == before
        # Retry without the fault: identical to a never-faulted apply.
        report = maintainer.apply(log.since(cursor))
        assert report.applied
        fresh = Engine(db, parse_program(DESC_RULES)).run()
        assert set_state(result) == set_state(fresh)

    def test_query_falls_back_after_faulted_maintenance(self):
        db = Database()
        db.begin_changes()
        kids = seed_family(db)
        query = Query(db, program=parse_program(DESC_RULES), magic=False)
        baseline = query.all("peter[desc ->> {X}]")
        db.assert_set_member(kids, db.obj("tom"), (), db.obj("ann"))
        db.retract_set_member(kids, db.obj("mary"), (), db.obj("tom"))
        with inject("maintain.insert", nth=1):
            answers = query.all("peter[desc ->> {X}]")
        assert baseline != answers  # the change is visible
        expected = Query(db.clone(), program=parse_program(DESC_RULES),
                         magic=False).all("peter[desc ->> {X}]")
        assert [a.sort_key() for a in answers] \
            == [a.sort_key() for a in expected]
        # The failure and the fallback are surfaced, not hidden.
        assert query.last_maintenance is not None
        assert not query.last_maintenance.applied
        assert "InjectedFault" in query.last_maintenance.reason
        # The re-derived memo is maintained again on the next change.
        db.assert_set_member(kids, db.obj("ann"), (), db.obj("bob"))
        answers = query.all("peter[desc ->> {X}]")
        assert query.last_maintenance.applied
        expected = Query(db.clone(), program=parse_program(DESC_RULES),
                         magic=False).all("peter[desc ->> {X}]")
        assert [a.sort_key() for a in answers] \
            == [a.sort_key() for a in expected]
