"""Planner tests: estimates, static orders, plan caching, EXPLAIN."""

import pytest

from repro.core.ast import Name, Var
from repro.engine import Engine
from repro.engine.explain import explain_conjunction
from repro.engine.planner import (
    PlanCache,
    build_plan,
    estimate_atom,
    relevant_bound,
)
from repro.errors import EvaluationError
from repro.flogic.atoms import IsaAtom, ScalarAtom, SetMemberAtom
from repro.flogic.flatten import flatten_conjunction
from repro.lang.parser import parse_program, parse_query
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid
from repro.query import Query


def n(value):
    return NamedOid(value)


@pytest.fixture
def db():
    """Five automobiles with skewed attribute selectivities."""
    db = Database()
    db.subclass("automobile", "vehicle")
    colors = ["red", "blue", "blue", "blue", "blue"]
    cylinders = [4, 4, 4, 4, 6]
    for i in range(5):
        db.add_object(f"car{i}", classes=["automobile"],
                      scalars={"color": colors[i],
                               "cylinders": cylinders[i]})
    db.add_object("p1", classes=["employee"],
                  sets={"vehicles": ["car0", "car1"]})
    db.add_object("p2", classes=["employee"],
                  sets={"vehicles": ["car2"]})
    return db


def atoms_for(text):
    return flatten_conjunction(parse_query(text))


class TestEstimates:
    def test_exact_bucket_beats_average(self, db):
        red = ScalarAtom(Name("color"), Var("Y"), (), Name("red"))
        blue = ScalarAtom(Name("color"), Var("Y"), (), Name("blue"))
        catalog = db.catalog()
        est_red = estimate_atom(db, catalog, red, frozenset())
        est_blue = estimate_atom(db, catalog, blue, frozenset())
        assert est_red.rows == 1.0   # one red car: real bucket size
        assert est_blue.rows == 4.0
        assert est_red.cost < est_blue.cost
        assert est_red.access == "method+result index"

    def test_bound_subject_uses_lookup(self, db):
        atom = ScalarAtom(Name("color"), Var("Y"), (), Var("C"))
        catalog = db.catalog()
        unbound = estimate_atom(db, catalog, atom, frozenset())
        bound = estimate_atom(db, catalog, atom, frozenset({Var("Y")}))
        assert bound.cost < unbound.cost
        assert bound.access == "primary lookup"

    def test_class_extent_is_exact(self, db):
        atom = IsaAtom(Var("X"), Name("employee"))
        est = estimate_atom(db, db.catalog(), atom, frozenset())
        assert est.rows == 2.0  # p1 and p2
        assert est.access == "class extent"


class TestPlanOrder:
    def test_inverse_starts_with_most_selective_atom(self, db):
        # Written order puts the big bucket first; statistics flip it.
        atoms = atoms_for("Y[cylinders -> 4], Y[color -> red]")
        plan = build_plan(db, atoms)
        first = plan.steps[0].atom
        assert isinstance(first, ScalarAtom)
        assert first.method == Name("color")

    def test_bound_subject_navigates_from_subject(self, db):
        atoms = atoms_for("X[vehicles ->> {V}], V[color -> C]")
        free_plan = build_plan(db, atoms)
        bound_plan = build_plan(db, atoms, {Var("X")})
        assert isinstance(bound_plan.steps[0].atom, SetMemberAtom)
        assert bound_plan.steps[0].access == "primary lookup"
        assert bound_plan.order() != free_plan.order() or (
            free_plan.steps[0].access != "primary lookup"
        )

    def test_comparison_scheduled_once_ready(self, db):
        atoms = atoms_for("X : employee, X[vehicles ->> {V}], "
                          "V[cylinders -> K], K >= 6")
        plan = build_plan(db, atoms)
        order = plan.order()
        cylinders_at = next(
            i for i, a in enumerate(order)
            if isinstance(a, ScalarAtom) and a.method == Name("cylinders")
        )
        comparison_at = next(
            i for i, a in enumerate(order) if str(a) == "K >= 6"
        )
        assert comparison_at == cylinders_at + 1

    def test_superset_cost_never_reaches_sentinels(self, db):
        # Many free source variables once made the power-law superset
        # cost exceed UNREADY/MUST_WAIT, producing a bogus "unsafe
        # negation" error; the cost is capped below both sentinels.
        from repro.engine.matching import UNRESTRICTED
        from repro.engine.planner import MUST_WAIT, UNREADY
        from repro.engine.solve import _solve_dynamic, exists

        for extra in range(800):
            db.add_object(f"pad{extra}")
        atoms = atoms_for("X[friends ->> {A.f, B.g, C.h, D.i}]")
        plan = build_plan(db, atoms)  # must not raise
        assert all(s.cost < UNREADY < MUST_WAIT for s in plan.steps)
        # Full enumeration is |U|^4; parity on the first solution only.
        assert exists(db, atoms)
        assert next(_solve_dynamic(db, list(atoms), {}, UNRESTRICTED),
                    None) is not None

    def test_unsafe_negation_raises_at_plan_time(self, db):
        atoms = atoms_for("not X[color -> red], not X[color -> blue]")
        with pytest.raises(EvaluationError, match="unsafe negation"):
            build_plan(db, atoms)

    def test_static_safety_is_data_independent(self, db):
        # Deliberate divergence from the dynamic order: a structurally
        # unsafe conjunction is rejected at plan time even though its
        # positive part matches nothing (the dynamic order stops at the
        # empty data atom and returns no answers).
        from repro.engine.matching import UNRESTRICTED
        from repro.engine.solve import _solve_dynamic

        atoms = atoms_for("Y[nosuchmethod -> z], "
                          "not X[color -> red], not X[color -> blue]")
        assert list(_solve_dynamic(db, list(atoms), {}, UNRESTRICTED)) == []
        with pytest.raises(EvaluationError, match="unsafe negation"):
            build_plan(db, atoms)

    def test_relevant_bound_drops_foreign_variables(self, db):
        atoms = atoms_for("X : employee")
        bound = relevant_bound(atoms, {Var("X"), Var("Z")})
        assert bound == frozenset({Var("X")})


class TestPlanCache:
    def test_hit_returns_same_plan(self, db):
        cache = PlanCache()
        atoms = tuple(atoms_for("X : employee"))
        first = cache.get(db, atoms, frozenset())
        second = cache.get(db, atoms, frozenset())
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_keyed_on_bound_variables(self, db):
        cache = PlanCache()
        atoms = tuple(atoms_for("X[vehicles ->> {V}], V[color -> C]"))
        free = cache.get(db, atoms, frozenset())
        bound = cache.get(db, atoms, frozenset({Var("X")}))
        assert free is not bound
        assert cache.misses == 2

    def test_invalidated_when_facts_are_added(self, db):
        cache = PlanCache()
        atoms = tuple(atoms_for("X : employee"))
        first = cache.get(db, atoms, frozenset())
        db.add_object("p3", classes=["employee"])
        again = cache.get(db, atoms, frozenset())
        assert again is not first
        assert cache.invalidations == 1

    def test_untracked_cache_survives_mutation(self, db):
        cache = PlanCache(track_version=False)
        atoms = tuple(atoms_for("X : employee"))
        first = cache.get(db, atoms, frozenset())
        db.add_object("p3", classes=["employee"])
        assert cache.get(db, atoms, frozenset()) is first


class TestStructuralPlanReuse:
    def test_alpha_renamed_conjunctions_share_a_plan(self, db):
        cache = PlanCache()
        first = tuple(atoms_for("X[vehicles ->> {V}], V[color -> C]"))
        renamed = tuple(atoms_for("A[vehicles ->> {B}], B[color -> D]"))
        plan = cache.get(db, first, frozenset())
        replayed = cache.get(db, renamed, frozenset())
        assert cache.misses == 1
        assert cache.structural_hits == 1
        # The replayed plan schedules the *renamed* atoms in the stored
        # order, with the stored estimates.
        assert [str(a) for a in replayed.order()] == [
            str(a).translate(str.maketrans("XVC", "ABD"))
            for a in plan.order()
        ]
        assert [s.access for s in replayed.steps] == \
            [s.access for s in plan.steps]

    def test_bound_positions_are_part_of_the_structure(self, db):
        cache = PlanCache()
        atoms = tuple(atoms_for("X[vehicles ->> {V}], V[color -> C]"))
        renamed = tuple(atoms_for("A[vehicles ->> {B}], B[color -> D]"))
        cache.get(db, atoms, frozenset({Var("X")}))
        cache.get(db, renamed, frozenset({Var("B")}))  # different position
        assert cache.structural_hits == 0
        cache.get(db, renamed, frozenset({Var("A")}))  # same position
        assert cache.structural_hits == 1

    def test_magic_adornment_variants_share_a_plan(self, db):
        # Rule-body variants guarded for different adornments of one
        # demand predicate differ only in the magic method's adornment
        # suffix (and variable naming); the structural key abstracts
        # both, so the greedy search runs once (ROADMAP:
        # adornment-aware plan reuse).
        cache = PlanCache()
        anchor = Name("__demand__")
        bf = (SetMemberAtom(Name("magic$set$desc$bf"), anchor, (),
                            Var("X")),
              SetMemberAtom(Name("vehicles"), Var("X"), (), Var("Y")))
        fb = (SetMemberAtom(Name("magic$set$desc$fb"), anchor, (),
                            Var("A")),
              SetMemberAtom(Name("vehicles"), Var("A"), (), Var("B")))
        cache.get(db, bf, frozenset())
        cache.get(db, fb, frozenset())
        assert cache.misses == 1
        assert cache.structural_hits == 1

    def test_different_magic_predicates_do_not_share(self, db):
        cache = PlanCache()
        anchor = Name("__demand__")
        one = (SetMemberAtom(Name("magic$set$desc$bf"), anchor, (),
                             Var("X")),)
        other = (SetMemberAtom(Name("magic$set$anc$bf"), anchor, (),
                               Var("X")),)
        cache.get(db, one, frozenset())
        cache.get(db, other, frozenset())
        assert cache.misses == 2 and cache.structural_hits == 0

    def test_different_constants_do_not_share(self, db):
        # Estimates probe exact index buckets for constants; a renamed
        # variable may share, a different constant never.
        cache = PlanCache()
        cache.get(db, tuple(atoms_for("Y[color -> red]")), frozenset())
        cache.get(db, tuple(atoms_for("Y[color -> blue]")), frozenset())
        assert cache.misses == 2 and cache.structural_hits == 0

    def test_replayed_plans_execute_correctly(self, db):
        from repro.engine.solve import solve

        cache = PlanCache()
        first = tuple(atoms_for("X[vehicles ->> {V}], V[color -> red]"))
        renamed = tuple(atoms_for("A[vehicles ->> {B}], B[color -> red]"))
        got_first = {frozenset(b.items())
                     for b in solve(db, first, cache=cache)}
        got_renamed = {frozenset(b.items())
                       for b in solve(db, renamed, cache=cache)}
        assert cache.structural_hits == 1
        rename = {Var("X"): Var("A"), Var("V"): Var("B")}
        assert got_renamed == {
            frozenset((rename[v], o) for v, o in row) for row in got_first
        }

    def test_unsafe_structures_are_never_stored(self, db):
        cache = PlanCache()
        atoms = tuple(atoms_for("not X[color -> C], not X[age -> A]"))
        with pytest.raises(EvaluationError):
            cache.get(db, atoms, frozenset())
        renamed = tuple(atoms_for("not Y[color -> D], not Y[age -> B]"))
        with pytest.raises(EvaluationError):
            cache.get(db, renamed, frozenset())
        assert cache.structural_hits == 0

    def test_invalidation_drops_structural_orders(self, db):
        cache = PlanCache()
        atoms = tuple(atoms_for("X : employee"))
        cache.get(db, atoms, frozenset())
        db.add_object("p3", classes=["employee"])
        cache.get(db, tuple(atoms_for("Y : employee")), frozenset())
        # The stored order predates the data change; it must not be
        # replayed across the invalidation.
        assert cache.structural_hits == 0
        assert cache.misses == 2

    def test_query_reuses_plans_across_variable_renamings(self, db):
        query = Query(db)
        query.all("X : employee..vehicles[color -> red]")
        query.all("E : employee..vehicles[color -> red]")
        assert query.plan_cache.structural_hits >= 1


class TestQueryExplain:
    def test_analyzed_report_matches_answers(self, db):
        q = Query(db)
        text = "X : employee..vehicles[color -> red]"
        report = q.explain(text)
        assert report.analyzed
        assert report.bindings == len(q.all(text))
        assert all(step.actual_rows is not None for step in report.steps)
        assert any("index" in step.access for step in report.steps)

    def test_bindings_count_precedes_dedup(self, db):
        # Two red vehicles on one owner: 2 solver bindings, 1 answer
        # after projection.  The report deliberately counts bindings.
        db.add_object("car0b", classes=["automobile"],
                      scalars={"color": "red"})
        db.add_object("p1", sets={"vehicles": ["car0b"]})
        q = Query(db)
        text = "X : employee..vehicles[color -> red]"
        report = q.explain(text)
        assert report.bindings == 2
        assert len(q.all(text, variables=["X"])) == 1

    def test_plan_only_report(self, db):
        report = Query(db).explain("X : employee", analyze=False)
        assert not report.analyzed
        assert report.steps[0].actual_rows is None
        assert "est.rows" in report.render()
        assert "rows\n" not in report.render().split("est.rows")[1][:10]

    def test_query_replans_after_new_facts(self, db):
        q = Query(db)
        text = "Y[color -> red]"
        q.all(text)
        q.all(text)
        assert q.plan_cache.hits >= 1
        misses_before = q.plan_cache.misses
        db.add_object("car9", scalars={"color": "red"})
        q.all(text)
        assert q.plan_cache.misses > misses_before
        assert q.plan_cache.invalidations >= 1

    def test_explain_conjunction_without_cache(self, db):
        report = explain_conjunction(db, atoms_for("X : employee"),
                                     title="adhoc")
        assert report.title == "adhoc"
        assert report.bindings == 2


class TestEnginePlanCapture:
    def test_rule_plans_are_captured(self, db):
        program = parse_program("""
            X[flagged -> yes] <- X : employee..vehicles[color -> red].
        """)
        engine = Engine(db, program)
        engine.run()
        reports = engine.plan_reports()
        assert len(reports) == 1
        report = reports[0]
        assert "flagged" in report.title
        assert report.bindings >= 1
        assert all(step.actual_rows is not None for step in report.steps)
        assert "plan:" in engine.explain()

    def test_plan_cache_hits_across_iterations(self):
        db = Database()
        for i in range(6):
            db.add_object(f"n{i}", scalars={"next": f"n{i + 1}"})
        program = parse_program("""
            X[reach ->> {Y}] <- X[next -> Y].
            X[reach ->> {Z}] <- X[reach ->> {Y}], Y[next -> Z].
        """)
        engine = Engine(db, program)
        engine.run()
        assert engine.stats.plans_built > 0
        assert engine.stats.plan_cache_hits > 0
