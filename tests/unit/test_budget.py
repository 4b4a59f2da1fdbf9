"""Query budget tests: deadlines, caps, cancellation, threading.

The clock is injectable, so every timeout here is deterministic: a
stepping fake clock advances a fixed amount per call and the budget
notices exactly at the checkpoint the test predicts.
"""

import itertools

import pytest

from repro.core.ast import Var
from repro.engine import Engine, QueryBudget
from repro.engine.budget import QueryBudget as DirectQueryBudget
from repro.errors import (
    BudgetExceededError,
    EvaluationCancelled,
    EvaluationError,
    EvaluationTimeout,
    PathLogError,
)
from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.query.query import Query

#: The production path, then the interpreted oracle.
MODES = [pytest.param(False, id="columnar"),
         pytest.param(True, id="interpreted")]

DESC = """
    peter[kids ->> {tim, mary}].
    tim[kids ->> {sally}].
    mary[kids ->> {tom, paul}].
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
"""


def stepping_clock(step=1.0, start=0.0):
    """A fake clock advancing ``step`` seconds per call."""
    counter = itertools.count()
    return lambda: start + next(counter) * step


class ManualClock:
    """A fake clock that only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestQueryBudget:
    def test_exported_from_engine_package(self):
        assert QueryBudget is DirectQueryBudget

    def test_no_limits_never_raises(self):
        budget = QueryBudget()
        for _ in range(100):
            budget.check("anywhere")
        budget.charge(10_000, "anywhere")
        assert budget.checks == 100

    def test_deadline_anchors_once(self):
        clock = stepping_clock(step=0.0, start=5.0)
        budget = QueryBudget(timeout_ms=100, clock=clock)
        budget.start()
        first = budget.deadline
        budget.start()
        assert budget.deadline == first == pytest.approx(5.1)

    def test_timeout_raises_typed_error_with_site(self):
        budget = QueryBudget(timeout_ms=500, clock=stepping_clock(step=1.0))
        budget.start()  # anchors at t=0, deadline t=0.5
        with pytest.raises(EvaluationTimeout) as info:
            budget.check("engine.iteration", stratum=2, iteration=7)
        assert "500ms" in str(info.value)
        assert info.value.site == "engine.iteration"
        assert info.value.stratum == 2
        assert info.value.iteration == 7
        assert "stratum 2" in info.value.where
        assert "iteration 7" in info.value.where

    def test_check_self_anchors_without_start(self):
        budget = QueryBudget(timeout_ms=500, clock=stepping_clock(step=0.3))
        budget.check("first")  # anchors at t=0 (deadline 0.5), reads t=0.3
        with pytest.raises(EvaluationTimeout):
            budget.check("second")  # reads t=0.6

    def test_cancel_raises_at_next_checkpoint(self):
        budget = QueryBudget()
        budget.check("before")
        budget.cancel()
        assert budget.cancelled
        with pytest.raises(EvaluationCancelled):
            budget.check("after")

    def test_max_derived_cap(self):
        budget = QueryBudget(max_derived=10)
        budget.charge(6, "engine.iteration")
        with pytest.raises(BudgetExceededError) as info:
            budget.charge(5, "engine.iteration", stratum=0, iteration=2)
        assert "max_derived" in str(info.value)
        assert "11" in str(info.value)

    def test_begin_run_resets_derived_counter(self):
        budget = QueryBudget(max_derived=10)
        budget.charge(9, "a")
        budget.begin_run()
        budget.charge(9, "a")  # fresh run: no raise

    def test_remaining_ms(self):
        budget = QueryBudget(timeout_ms=1000,
                             clock=stepping_clock(step=0.25))
        budget.start()  # t=0, deadline 1.0
        assert budget.remaining_ms() == pytest.approx(750.0)
        assert QueryBudget().remaining_ms() is None

    def test_errors_are_catchable_as_library_errors(self):
        assert issubclass(EvaluationTimeout, BudgetExceededError)
        assert issubclass(EvaluationCancelled, BudgetExceededError)
        assert issubclass(BudgetExceededError, EvaluationError)
        assert issubclass(BudgetExceededError, PathLogError)


class TestEngineBudget:
    @pytest.mark.parametrize("interpreted", MODES)
    def test_max_derived_stops_fixpoint(self, interpreted):
        db = Database()
        before = db.data_version()
        budget = QueryBudget(max_derived=2)
        engine = Engine(db, parse_program(DESC), interpreted=interpreted,
                        budget=budget)
        with pytest.raises(BudgetExceededError) as info:
            engine.run()
        assert "max_derived" in str(info.value)
        assert info.value.stratum is not None
        assert info.value.iteration is not None
        # Where evaluation stopped is surfaced through the stats too.
        assert engine.stats.stopped_at == info.value.where
        assert engine.stats.budget_checks > 0
        # The input database is a pre-clone snapshot: untouched.
        assert len(db) == 0
        assert db.data_version() == before

    @pytest.mark.parametrize("interpreted", MODES)
    def test_timeout_stops_fixpoint(self, interpreted):
        budget = QueryBudget(timeout_ms=500,
                             clock=stepping_clock(step=1.0))
        engine = Engine(Database(), parse_program(DESC),
                        interpreted=interpreted, budget=budget)
        with pytest.raises(EvaluationTimeout):
            engine.run()

    def test_cancel_stops_fixpoint(self):
        budget = QueryBudget()
        budget.cancel()
        engine = Engine(Database(), parse_program(DESC), budget=budget)
        with pytest.raises(EvaluationCancelled):
            engine.run()

    def test_unbudgeted_run_reports_no_checks(self):
        engine = Engine(Database(), parse_program(DESC))
        engine.run()
        assert engine.stats.budget_checks == 0
        assert engine.stats.stopped_at is None
        assert engine.stats.as_row()["stopped-at"] == "-"


class TestQueryBudgetThreading:
    @pytest.mark.parametrize("magic", [True, False])
    def test_program_query_honours_max_derived(self, magic):
        db = Database()
        budget = QueryBudget(max_derived=2)
        query = Query(db, program=parse_program(DESC), magic=magic,
                      budget=budget)
        with pytest.raises(BudgetExceededError):
            query.all("peter[desc ->> {X}]")

    def test_program_query_honours_timeout(self):
        budget = QueryBudget(timeout_ms=500,
                             clock=stepping_clock(step=1.0))
        query = Query(Database(), program=parse_program(DESC),
                      budget=budget)
        with pytest.raises(EvaluationTimeout):
            query.all("peter[desc ->> {X}]")

    def test_explain_propagates_budget_errors(self):
        # Query.explain renders planning rejections as a fallback but
        # must NOT swallow a budget expiry into that rendering.
        budget = QueryBudget(max_derived=1)
        query = Query(Database(), program=parse_program(DESC),
                      budget=budget)
        with pytest.raises(BudgetExceededError):
            query.explain("peter[desc ->> {X}]")

    def test_adhoc_query_unaffected_without_budget(self):
        db = Database()
        db.assert_isa(db.obj("p1"), db.obj("employee"))
        query = Query(db, budget=QueryBudget(timeout_ms=None))
        assert query.ask("p1 : employee")

    @pytest.mark.parametrize("interpreted, site, expected", [
        pytest.param(False, "columnar.step", 0, id="columnar"),
        pytest.param(True, "solve.rows", 255, id="interpreted")])
    def test_adhoc_answers_stop_at_a_row_checkpoint(self, interpreted,
                                                    site, expected):
        # The columnar plan checks before each step and each 64-row
        # chunk, the interpreted walk on entry and then every 256
        # answers: a cancel after the first check is noticed at the
        # first chunk (columnar) or at row 256 (interpreted), not at
        # the end of the 600 answers.
        class CancelAfterEntry(QueryBudget):
            def check(self, where, **kw):
                super().check(where, **kw)
                if where == site:
                    self.cancel()

        db = Database()
        for i in range(600):
            db.assert_isa(db.obj(f"i{i}"), db.obj("item"))
        query = Query(db, interpreted=interpreted)
        rows = query.solutions("X : item", budget=CancelAfterEntry())
        taken = 0
        with pytest.raises(EvaluationCancelled) as info:
            for _ in rows:
                taken += 1
        assert info.value.site == site
        assert taken == expected


class TestMaintainerBudget:
    def _memoised(self, budget=None):
        db = Database()
        db.begin_changes()
        db.assert_set_member(db.obj("kids"), db.obj("peter"), (),
                             db.obj("tim"))
        query = Query(db, program=parse_program("""
            X[desc ->> {Y}] <- X[kids ->> {Y}].
            X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
        """), magic=False, budget=budget)
        query.all("peter[desc ->> {X}]")  # materialise + memoise
        return db, query

    def test_expired_budget_stops_maintenance(self):
        clock = ManualClock()
        budget = QueryBudget(timeout_ms=500, clock=clock)
        db, query = self._memoised(budget)  # builds at t=0, in budget
        db.assert_set_member(db.obj("kids"), db.obj("tim"), (),
                             db.obj("sally"))
        clock.now = 10.0  # deadline long gone
        with pytest.raises(EvaluationTimeout):
            query.all("peter[desc ->> {X}]")

    def test_expired_budget_leaves_result_unmaintained(self):
        # Direct maintainer path: the apply checkpoint notices before
        # the first write, so the result database stays bit-identical.
        clock = ManualClock()
        budget = QueryBudget(timeout_ms=500, clock=clock)
        db = Database()
        log = db.begin_changes()
        db.assert_set_member(db.obj("kids"), db.obj("peter"), (),
                             db.obj("tim"))
        engine = Engine(db, parse_program("""
            X[desc ->> {Y}] <- X[kids ->> {Y}].
            X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
        """), budget=budget)
        result = engine.run()
        cursor = log.cursor()
        db.assert_set_member(db.obj("kids"), db.obj("tim"), (),
                             db.obj("sally"))
        maintainer = engine.maintainer(result, db)
        before = dict(result.sets.items())
        clock.now = 10.0
        with pytest.raises(EvaluationTimeout):
            maintainer.apply(log.since(cursor), budget=budget)
        assert dict(result.sets.items()) == before

    def test_maintenance_runs_under_the_reading_calls_budget(self):
        # The memo was built, and first maintained, under short per-call
        # deadlines that have long expired; later reads maintain it under
        # their own budget (or none), never under one of those.  The
        # first maintenance compiles the delta plans the later ones
        # reuse, so a budget captured at compile time would show here.
        from repro.datasets.genealogy import chain_family, desc_rules

        clock = ManualClock()
        db, _ = chain_family(20)
        db.begin_changes()
        query = Query(db, program=desc_rules(), magic=False)
        text = "c0[desc ->> {X}]"
        kids = db.obj("kids")
        query.all(text, budget=QueryBudget(timeout_ms=50, clock=clock))
        db.assert_set_member(kids, db.obj("c19"), (), db.obj("tail0"))
        query.all(text, budget=QueryBudget(timeout_ms=50, clock=clock))
        assert query.last_maintenance.applied
        clock.now = 0.1
        for leaf, budget in (("tail1", QueryBudget(timeout_ms=10_000)),
                             ("tail2", None)):
            db.assert_set_member(kids, db.obj("c19"), (), db.obj(leaf))
            answers = {a.value("X") for a in query.all(text, budget=budget)}
            assert query.last_maintenance.applied
            assert leaf in answers

    def test_reused_delta_plans_check_the_reading_calls_budget(self):
        # Query.sync maintains unbudgeted and compiles the delta plans;
        # a later read's maintenance reuses them and still checks its
        # own budget at every kernel step, then a retry recovers.
        from repro.datasets.genealogy import chain_family, desc_rules

        clock = ManualClock()

        class ExpiresAtKernelStep(QueryBudget):
            def check(self, site, **kw):
                if site == "columnar.step":
                    clock.now = 10.0
                super().check(site, **kw)

        db, _ = chain_family(20)
        db.begin_changes()
        query = Query(db, program=desc_rules(), magic=False)
        text = "c0[desc ->> {X}]"
        kids = db.obj("kids")
        query.all(text)
        db.assert_set_member(kids, db.obj("c19"), (), db.obj("tail0"))
        assert query.sync() == {"maintained": 1, "evicted": 0}
        db.assert_set_member(kids, db.obj("c19"), (), db.obj("tail1"))
        with pytest.raises(EvaluationTimeout) as info:
            query.all(text, budget=ExpiresAtKernelStep(timeout_ms=500,
                                                       clock=clock))
        assert info.value.site == "columnar.step"
        # The read stopped inside its maintenance, which rolled back, so
        # the retry maintains again (a maintenance that ran unchecked
        # would leave the retry nothing to do).
        answers = {a.value("X") for a in query.all(text)}
        assert query.last_maintenance is not None
        assert query.last_maintenance.applied
        assert "tail1" in answers

    def test_maintenance_still_works_with_roomy_budget(self):
        budget = QueryBudget(timeout_ms=10_000_000)
        db, query = self._memoised(budget)
        db.assert_set_member(db.obj("kids"), db.obj("tim"), (),
                             db.obj("sally"))
        answers = {a.value("X") for a
                   in query.all("peter[desc ->> {X}]")}
        assert answers == {"tim", "sally"}
        assert query.last_maintenance is not None
        assert query.last_maintenance.applied


def _state(db):
    return (dict(db.scalars.items()),
            {key: frozenset(members) for key, members in db.sets.items()},
            set(db.hierarchy.declared_edges()))


class TestMaintainerCheckpointSites:
    """Where a maintenance pass notices an expiry, by the site it names."""

    #: Non-recursive: deleting a kid overdeletes the parent fact, and
    #: DRed's rederive pass finds its other kid with one goal-directed
    #: existence check.
    PARENT = "X[parent -> yes] <- X[kids ->> {Y}]."

    def _dred_apply(self):
        db = Database()
        log = db.begin_changes()
        for kid in ("tim", "mary"):
            db.assert_set_member(db.obj("kids"), db.obj("peter"), (),
                                 db.obj(kid))
        engine = Engine(db, parse_program(self.PARENT))
        result = engine.run()
        cursor = log.cursor()
        db.retract_set_member(db.obj("kids"), db.obj("peter"), (),
                              db.obj("tim"))
        return engine.maintainer(result, db), log.since(cursor), result

    def test_expiry_inside_an_existence_check_reports_columnar_step(self):
        class CancelAfterDred(QueryBudget):
            # The DRed checkpoint passes, then the budget is gone: the
            # next checkpoint is the existence check's first step.
            def check(self, site, **kw):
                super().check(site, **kw)
                if site == "maintain.dred":
                    self.cancel()

        maintainer, changes, result = self._dred_apply()
        before = _state(result)
        with pytest.raises(EvaluationCancelled) as info:
            maintainer.apply(changes, budget=CancelAfterDred())
        assert info.value.site == "columnar.step"
        assert _state(result) == before

    def test_existence_checks_are_columnar_step_fault_points(self):
        from repro.testing.faults import observe

        # The one-atom body leaves the delta plans no step to run, so
        # every columnar.step hit here is the rederive existence check.
        maintainer, changes, result = self._dred_apply()
        with observe() as plan:
            report = maintainer.apply(changes)
        assert (report.overdeleted, report.rederived) == (1, 1)
        assert plan.counts.get("columnar.step", 0) >= 1
        assert "batch.step" not in plan.counts

    def test_expiry_mid_full_firing_stops_at_columnar_step(self):
        # An isa insertion fires the isa-reading rule in full through
        # the ad-hoc solver's columnar plan; its 300 rows cross the
        # per-chunk checkpoint after the first 64.
        clock = ManualClock()

        class ExpiresMidFiring(QueryBudget):
            armed = False  # the initial run passes its checkpoints

            def check(self, site, **kw):
                super().check(site, **kw)
                if self.armed and site == "columnar.step":
                    clock.now = 10.0  # time runs out inside the firing

        db = Database()
        log = db.begin_changes()
        for i in range(300):
            db.add_object(f"i{i}", scalars={"flag": "on"})
        budget = ExpiresMidFiring(timeout_ms=500, clock=clock)
        engine = Engine(db, parse_program(
            "X[seen ->> {Y}] <- X : watcher, Y[flag -> on]."),
            budget=budget)
        result = engine.run()
        cursor = log.cursor()
        db.assert_isa(db.obj("w1"), db.obj("watcher"))
        maintainer = engine.maintainer(result, db)
        before = _state(result)
        budget.armed = True
        with pytest.raises(EvaluationTimeout) as info:
            maintainer.apply(log.since(cursor), budget=budget)
        assert info.value.site == "columnar.step"
        assert _state(result) == before


class TestRowwiseCheckpoints:
    """Row-at-a-time fallback steps (negation, superset, dynamic
    dispatch) consult the *activated* budget every
    ``ROWWISE_CHECK_INTERVAL`` rows, so an expiry or ``cancel()`` is
    noticed mid-batch instead of after the whole batch finished."""

    def _fallback_db(self, count=600):
        db = Database()
        for i in range(count):
            scalars = {"flag": "on"} if i % 2 else {}
            db.add_object(f"i{i}", classes=["item"], scalars=scalars)
        return db

    def _run_fallback(self, entry, budget):
        """Rows the negation fallback lets through, under ``budget``.

        ``columnar`` runs the conjunction's columnar plan directly;
        ``engine`` fires it as a rule body inside a fixpoint run.
        """
        db = self._fallback_db(600)
        if entry == "engine":
            engine = Engine(db, parse_program(
                "X[unflagged -> 1] <- X : item, not X[flag -> on]."),
                budget=budget)
            engine.run()
            return engine.stats.derived_total
        from repro.engine.columnar import compile_columnar_plan
        from repro.engine.planner import build_plan
        from repro.flogic.flatten import flatten_conjunction
        from repro.lang.parser import parse_query

        atoms = flatten_conjunction(parse_query(
            "X : item, not X[flag -> on]"))
        execute, _ = compile_columnar_plan(
            db, build_plan(db, atoms)).column_executor()
        return execute(budget=budget)[1]

    def test_detection_latency_is_one_row_interval(self):
        # Drive the fallback step directly: the kernel's clock advances
        # one ms per row against a 300ms budget.  Expiry lands at row
        # 300; the checkpoint at row 512 -- the first interval boundary
        # past it -- raises, so detection lags the expiry by at most
        # ROWWISE_CHECK_INTERVAL rows, never a whole batch.
        from repro.engine.batch import _rowwise, run_budgeted
        from repro.engine.budget import ROWWISE_CHECK_INTERVAL

        clock = ManualClock()
        rows = []
        x = Var("X")

        def extend(binding):
            clock.now += 0.001
            rows.append(binding[x])
            yield binding

        step = _rowwise(((x, 0),), (), extend)((0,))
        budget = QueryBudget(timeout_ms=300, clock=clock).start()
        with pytest.raises(EvaluationTimeout) as info:
            run_budgeted(lambda _, check: step([list(range(1000))], 1000),
                         None, budget)
        assert info.value.site == "batch.rowwise"
        assert len(rows) == 2 * ROWWISE_CHECK_INTERVAL  # 512 <= 300 + 256

    def test_without_budget_batch_runs_unchecked(self):
        from repro.engine.batch import _rowwise

        rows = []
        x = Var("X")

        def extend(binding):
            rows.append(binding[x])
            yield binding

        step = _rowwise(((x, 0),), (), extend)((0,))
        assert step([list(range(1000))], 1000) == 1000
        assert len(rows) == 1000

    @pytest.mark.parametrize("entry", ["columnar", "engine"])
    def test_negation_fallback_hits_rowwise_checkpoints(self, entry):
        recorded = []

        class Recording(QueryBudget):
            def check(self, site, **kw):
                recorded.append(site)
                super().check(site, **kw)

        assert self._run_fallback(entry, Recording()) == 300
        assert recorded.count("batch.rowwise") >= 2  # rows 256 and 512

    @pytest.mark.parametrize("entry", ["columnar", "engine"])
    def test_cancel_noticed_mid_batch(self, entry):
        # cancel() only flips a flag; the raise happens at the next
        # checkpoint.  With 600 rows in the negation fallback that is
        # row 256 of the batch, not the end of it.
        class CancelAtRowwise(QueryBudget):
            def check(self, site, **kw):
                if site == "batch.rowwise":
                    self.cancel()
                super().check(site, **kw)

        with pytest.raises(EvaluationCancelled) as info:
            self._run_fallback(entry, CancelAtRowwise())
        assert info.value.site == "batch.rowwise"
