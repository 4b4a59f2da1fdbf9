"""Plan-compilation tests: ad-hoc columnar plans, seeds, delta seeds.

Ad-hoc conjunctions (``solve``, ``execute_plan``, ``Query``) run their
static plan lowered to a columnar plan
(:func:`~repro.engine.columnar.compile_columnar_plan`); these tests pin
what that lowering promises its callers -- the kernel names EXPLAIN
shows, seed-binding checks, per-step counters equal to the interpreted
matcher's, memoisation, and live reads of facts added after
compilation.  The delta-seed tests run the engine's columnar delta
plans: their seed pass lowers the delta atom with the same term ops.
"""

import pytest

from repro.core.ast import Name, Var
from repro.engine.columnar import (
    compile_columnar_delta_plan,
    compile_columnar_plan,
)
from repro.engine.explain import explain_conjunction
from repro.engine.matching import UNRESTRICTED, MatchPolicy, match_atom_delta
from repro.engine.planner import build_plan, relevant_bound
from repro.engine.solve import _solve_dynamic, execute_plan, solve
from repro.errors import EvaluationError
from repro.flogic.atoms import ScalarAtom, SetMemberAtom
from repro.flogic.flatten import flatten_conjunction
from repro.lang.parser import parse_query
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid


def n(value):
    return NamedOid(value)


@pytest.fixture
def db():
    db = Database()
    db.subclass("automobile", "vehicle")
    for i, color in enumerate(["red", "blue", "red"]):
        db.add_object(f"car{i}", classes=["automobile"],
                      scalars={"color": color, "cylinders": 4 if i else 6})
    db.add_object("p1", classes=["employee"], scalars={"age": 30},
                  sets={"vehicles": ["car0", "car1"]})
    db.add_object("p2", classes=["employee"], scalars={"age": 40},
                  sets={"vehicles": ["car2"]})
    return db


def atoms_for(text):
    return flatten_conjunction(parse_query(text))


def kernels(db, text, binding=None):
    """The kernel column of an ad-hoc EXPLAIN (no execution)."""
    report = explain_conjunction(db, atoms_for(text), binding,
                                 analyze=False)
    return tuple(step.kernel for step in report.steps)


def answer_set(bindings):
    return {frozenset(b.items()) for b in bindings}


def delta_rows(compiled, delta, counters=None):
    """A columnar delta plan's solutions as dicts (OID-valued)."""
    execute, out = compiled.column_executor(counters)
    cols, nrows = execute(delta)
    return [{var: cols[slot][i] for var, slot in out} for i in range(nrows)]


class TestKernelSelection:
    """Ad-hoc EXPLAIN names the columnar kernels rule plans name."""

    def test_bound_probe_kernels(self, db):
        assert kernels(db, "Y[color -> blue]") == ("int scalar mr-probe",)
        assert kernels(db, "Y[color -> blue], X[vehicles ->> {Y}]") == (
            "int scalar mr-probe", "int set mm merge-join")

    def test_subject_navigation_kernels(self, db):
        assert kernels(db, "X[vehicles ->> {V}], V[color -> C]",
                       {Var("X"): n("p1")}) == ("int set iter",
                                                "int scalar get")

    def test_unbound_method_uses_subject_probe(self, db):
        # No column kernel enumerates methods: the matcher runs the
        # step row by row, probing the subject index the planner chose.
        report = explain_conjunction(db, atoms_for("p1[M ->> {V}]"),
                                     analyze=False)
        assert report.steps[0].access == "subject index"
        assert report.steps[0].kernel == "batch row set any-method"

    def test_superset_and_negation_bridge(self, db):
        names = kernels(db, "X[vehicles ->> p2..vehicles], "
                            "not X[age -> 30]")
        assert "batch row superset" in names
        assert "batch row negation" in names

    def test_builtin_self_kernels(self, db):
        assert kernels(db, "p1.self[Y]")[0] == "int self fwd"


class TestExecutionParity:
    QUERIES = [
        "X : employee..vehicles[color -> red]",
        "X : employee..vehicles[color -> C]",
        "X : employee, X.age >= 35",
        "X[color -> X]",                     # repeated var: scan, not probe
        "X : X",                             # repeated var in isa
        "X.self[Y]",                         # builtin over the universe
        "p3[M ->> {V}], V[color -> red]",    # empty subject bucket
        "X[vehicles ->> p2..vehicles]",      # superset bridge
        "X : employee, not X[age -> 30]",    # negation bridge
    ]

    @pytest.mark.parametrize("text", QUERIES)
    def test_matches_dynamic_solver(self, db, text):
        atoms = atoms_for(text)
        got = answer_set(solve(db, atoms))
        want = answer_set(_solve_dynamic(db, list(atoms), {}, UNRESTRICTED))
        assert got == want

    def test_seed_binding_is_respected(self, db):
        atoms = atoms_for("X : employee")
        bound = relevant_bound(atoms, {Var("X")})
        plan = build_plan(db, atoms, bound)
        out = list(execute_plan(db, plan, {Var("X"): n("p1")}))
        assert out == [{Var("X"): n("p1")}]

    def test_mismatched_seed_binding_raises(self, db):
        atoms = atoms_for("X : employee, X[age -> A]")
        plan = build_plan(db, atoms)  # compiled for nothing bound
        with pytest.raises(EvaluationError, match="bound-variable|binds"):
            list(execute_plan(db, plan, {Var("A"): n(30)}))

    def test_missing_seed_binding_raises(self, db):
        # A plan compiled with X bound must refuse a seed that does not
        # bind X (silently probing with an empty column would return
        # wrong answers).
        atoms = atoms_for("X[age -> A]")
        plan = build_plan(db, atoms, {Var("X")})
        with pytest.raises(EvaluationError, match="does not bind|no seed"):
            list(execute_plan(db, plan))
        with pytest.raises(EvaluationError, match="does not bind"):
            list(execute_plan(db, plan, {Var("A"): n(30), Var("Q"): n(1)}))

    def test_extra_foreign_seed_variables_flow_through(self, db):
        # Variables without slots ride along in every solution, exactly
        # like the interpreted executor's dict extension.
        atoms = atoms_for("X : employee")
        plan = build_plan(db, atoms)
        out = list(execute_plan(db, plan, {Var("Z"): n("foreign")}))
        assert all(b[Var("Z")] == n("foreign") for b in out)
        assert {b[Var("X")] for b in out} == {n("p1"), n("p2")}

    def test_unready_comparison_raises_at_run_time(self, db):
        from repro.engine.planner import Plan, PlanStep
        from repro.flogic.atoms import ComparisonAtom

        atom = ComparisonAtom("<", Var("A"), Var("B"))
        plan = Plan((PlanStep(atom, 0.0, 1.0, "unready comparison"),),
                    frozenset())
        compiled = compile_columnar_plan(db, plan)
        assert compiled.kernel_names == ("batch row compare unready",)
        with pytest.raises(EvaluationError, match="both sides bound"):
            list(execute_plan(db, plan))

    def test_counters_match_interpreted_executor(self, db):
        atoms = atoms_for("X : employee..vehicles[color -> C]")
        plan = build_plan(db, atoms)
        compiled_counts = [0] * len(plan.steps)
        interp_counts = [0] * len(plan.steps)
        got = answer_set(execute_plan(db, plan, counters=compiled_counts))
        want = answer_set(execute_plan(db, plan, counters=interp_counts,
                                       interpreted=True))
        assert got == want
        assert compiled_counts == interp_counts

    def test_projection_restricts_output(self, db):
        atoms = atoms_for("X : employee..vehicles[color -> C]")
        plan = build_plan(db, atoms)
        execute, out = compile_columnar_plan(db, plan).column_executor(
            project=(Var("X"),))
        cols, nrows = execute({})
        assert nrows and [var for var, _ in out] == [Var("X")]


class TestCompilationCache:
    def test_memoised_per_database_and_policy(self, db):
        atoms = atoms_for("X : employee")
        plan = build_plan(db, atoms)
        first = compile_columnar_plan(db, plan)
        assert compile_columnar_plan(db, plan) is first
        deep = compile_columnar_plan(db, plan, MatchPolicy(2))
        assert deep is not first
        other = Database()
        assert compile_columnar_plan(other, plan) is not first

    def test_alias_invalidates_compiled_plans(self, db):
        # Regression: compiled plans resolve Name constants at compile
        # time, so aliasing must bump data_version (invalidating the
        # version-tracked plan cache) or a cached compiled plan would
        # keep probing the stale OID.
        from repro.query import Query

        db.add_object("car9", scalars={"color": "crimson"})
        q = Query(db)
        assert q.all("X[color -> crimson]")  # warm the compiled plan
        assert len(q.all("X[color -> red]")) == 2  # car0 and car2
        db.alias("red", "crimson")
        # "red" now denotes the crimson object, so only car9 matches --
        # and the compiled plan must re-resolve, not reuse the old OID.
        after = {str(a.value("X")) for a in q.all("X[color -> red]")}
        assert after == {"car9"}
        assert q.plan_cache.invalidations >= 1

    def test_compiled_form_sees_new_facts(self, db):
        # Kernels capture the live index dicts and surrogate mirrors, so
        # facts added after compilation are visible (the engine relies
        # on this within a fixpoint run).
        atoms = atoms_for("Y[color -> red]")
        plan = build_plan(db, atoms)
        compiled = compile_columnar_plan(db, plan)
        before = len(list(compiled.rows()))
        db.add_object("car9", scalars={"color": "red"})
        assert len(list(compiled.rows())) == before + 1


class TestDeltaPlans:
    def test_delta_seed_matches_interpreted_seeding(self, db):
        atom = SetMemberAtom(Name("vehicles"), Var("X"), (), Var("V"))
        rest = atoms_for("V[color -> C]")
        bound = relevant_bound(rest, atom.variables())
        plan = build_plan(db, rest, bound)
        compiled = compile_columnar_delta_plan(db, atom, plan)
        delta = [
            ("set", n("vehicles"), n("p1"), (), n("car2")),
            ("set", n("other"), n("p1"), (), n("car0")),
            ("scalar", n("vehicles"), n("p1"), (), n("car0")),
            ("isa", n("p1"), n("employee")),
        ]
        got = answer_set(delta_rows(compiled, delta))
        want = set()
        for seed in match_atom_delta(db, atom, {}, delta, UNRESTRICTED):
            want |= answer_set(execute_plan(db, plan, seed,
                                            interpreted=True))
        assert got == want
        assert compiled.kernel_names[0] == "int delta-set seed"

    def test_delta_seed_respects_method_depth_policy(self, db):
        from repro.oodb.oid import VirtualOid

        deep = VirtualOid(n("tc"), VirtualOid(n("tc"), n("kids")))
        atom = ScalarAtom(Var("M"), Var("X"), (), Var("Y"))
        plan = build_plan(db, (), ())
        shallow = compile_columnar_delta_plan(db, atom, plan, MatchPolicy(1))
        delta = [("scalar", deep, n("p1"), (), n("p2")),
                 ("scalar", n("age"), n("p1"), (), n(50))]
        got = answer_set(delta_rows(shallow, delta))
        want = answer_set(
            match_atom_delta(db, atom, {}, delta, MatchPolicy(1)))
        assert got == want
        assert len(got) == 1  # the deep virtual method is filtered out

    def test_concurrent_delta_executions_are_independent(self, db):
        # Every execution builds its own column file, so two
        # executions of one compiled delta plan must not interfere.
        atom = SetMemberAtom(Name("vehicles"), Var("X"), (), Var("V"))
        rest = atoms_for("V[color -> C]")
        bound = relevant_bound(rest, atom.variables())
        plan = build_plan(db, rest, bound)
        execute, out = compile_columnar_delta_plan(
            db, atom, plan).column_executor()
        x = dict(out)[Var("X")]
        cols1, _ = execute([("set", n("vehicles"), n("p1"), (), n("car0"))])
        cols2, _ = execute([("set", n("vehicles"), n("p2"), (), n("car2"))])
        assert cols1[x] == [n("p1")]  # not overwritten by the second run
        assert cols2[x] == [n("p2")]

    def test_delta_counters_count_seeds_and_steps(self, db):
        atom = SetMemberAtom(Name("vehicles"), Var("X"), (), Var("V"))
        rest = atoms_for("V[color -> C]")
        bound = relevant_bound(rest, atom.variables())
        plan = build_plan(db, rest, bound)
        compiled = compile_columnar_delta_plan(db, atom, plan)
        counters = [0] * (len(plan.steps) + 1)
        delta = [("set", n("vehicles"), n("p1"), (), n("car0"))]
        delta_rows(compiled, delta, counters)
        assert counters[0] == 1  # one seed matched
        assert counters[1] == 1  # car0 has a color


class TestEngineIntegration:
    def test_engine_compiled_and_interpreted_agree(self):
        """The engine's compiled (columnar) plans against the oracle."""
        from repro.engine import Engine
        from repro.lang.parser import parse_program

        db = Database()
        for i in range(6):
            db.add_object(f"n{i}", scalars={"next": f"n{i + 1}"})
        program = parse_program("""
            X[reach ->> {Y}] <- X[next -> Y].
            X[reach ->> {Z}] <- X[reach ->> {Y}], Y[next -> Z].
        """)
        compiled = Engine(db, program)
        via_compiled = compiled.run()
        interpreted = Engine(db, program, interpreted=True)
        via_interpreted = interpreted.run()
        assert ({(k, frozenset(v)) for k, v in via_compiled.sets.items()}
                == {(k, frozenset(v)) for k, v in via_interpreted.sets.items()})
        assert compiled.stats.plans_compiled > 0
        assert compiled.stats.tuples > 0
        # Both count seed and per-step rows, so the tuple stat is
        # comparable across the two.
        assert compiled.stats.tuples == interpreted.stats.tuples
        assert compiled.stats.firings == interpreted.stats.firings
        assert compiled.stats.derived_total == interpreted.stats.derived_total

    def test_engine_explain_names_kernels(self, db):
        from repro.engine import Engine
        from repro.lang.parser import parse_program

        program = parse_program("""
            X[flagged -> yes] <- X : employee..vehicles[color -> red].
        """)
        engine = Engine(db, program)
        engine.run()
        report = engine.plan_reports()[0]
        assert report.compiled
        assert all(step.kernel for step in report.steps)
        assert "kernel" in engine.explain()
