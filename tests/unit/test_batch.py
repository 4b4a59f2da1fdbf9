"""Boxed column steps: the atoms of columnar plans with no int form.

Every plan here is lowered by ``compile_columnar_plan``.  The boxed
``batch ...`` steps of :mod:`repro.engine.batch` serve isa steps that
enumerate members or classes (or test a variable or built-in value
class), comparisons, and -- as ``batch row ...`` -- the shapes the
interpreted matcher runs row by row (negation, superset, variable
methods, ``self`` over the universe).  The queries are shaped so those
steps feed stored scalar and set steps, which run on int kernels over
the boxed column interned in place; parity with the interpreted matcher
covers answers and per-step row counters.  Heads the int writer
declines run the realizer's compiled column program, also pinned here.
"""

import pytest

from repro.core.ast import Var
from repro.engine import Engine
from repro.engine.columnar import (
    columnar_head_emitter,
    compile_columnar_delta_plan,
    compile_columnar_plan,
)
from repro.engine.heads import HeadRealizer
from repro.engine.matching import UNRESTRICTED, MatchPolicy, match_atom_delta
from repro.engine.normalize import normalize_program
from repro.engine.planner import build_plan, relevant_bound
from repro.engine.solve import execute_plan, solve
from repro.errors import EvaluationError, ScalarConflictError
from repro.flogic.atoms import SetMemberAtom
from repro.flogic.flatten import flatten_conjunction
from repro.lang.parser import parse_program, parse_query
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid, VirtualOid

from repro.core.ast import Name


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


def batched(db, text, bound=()):
    atoms = atoms_for(text)
    plan = build_plan(db, atoms, bound)
    return compile_columnar_plan(db, plan), plan, atoms


def rows(compiled, binding=None, counters=None, project=None):
    """A columnar plan's solutions as dicts (OID-valued)."""
    execute, out = compiled.column_executor(counters, project)
    cols, nrows = execute(binding)
    return [{var: cols[slot][i] for var, slot in out} for i in range(nrows)]


def answer_set(bindings):
    return {frozenset(b.items()) for b in bindings}


class TestKernelSelection:
    def test_probe_and_filter_kernels(self, db):
        # The isa check on the int column Y is a semi-join against the
        # class's member surrogates, so Y stays int for the member join.
        compiled, _, _ = batched(
            db, "Y : automobile, Y[color -> blue], X[vehicles ->> {Y}]")
        assert compiled.kernel_names == ("int scalar mr-probe",
                                         "int isa check",
                                         "int set mm merge-join")
        compiled, _, _ = batched(db, "C : automobile, Y[color -> C]")
        assert compiled.kernel_names == ("batch isa members",
                                         "int scalar mr merge-join")

    def test_subject_navigation_kernels(self, db):
        compiled, _, _ = batched(
            db, "X : employee, X[vehicles ->> {V}], V[color -> C]")
        assert compiled.kernel_names == ("batch isa members",
                                         "int set iter",
                                         "int scalar get")

    def test_isa_and_compare_kernels(self, db):
        compiled, _, _ = batched(db, "X : employee, X.age >= 35")
        assert "batch isa members" in compiled.kernel_names
        assert "batch compare" in compiled.kernel_names

    def test_unbatchable_steps_fall_back_rowwise(self, db):
        compiled, _, _ = batched(
            db, "X[vehicles ->> p2..vehicles], not X[age -> 30]")
        assert any(name.startswith("batch row superset")
                   for name in compiled.kernel_names)
        assert any(name.startswith("batch row negation")
                   for name in compiled.kernel_names)

    def test_builtin_self_kernel(self, db):
        compiled, _, _ = batched(db, "p1.self[Y]")
        assert compiled.kernel_names[0] == "int self fwd"

    def test_memoised_per_database_and_policy(self, db):
        _, plan, _ = batched(db, "X[vehicles ->> {V}]")
        assert (compile_columnar_plan(db, plan)
                is compile_columnar_plan(db, plan))
        # Another method-depth policy gets a lowering of its own.
        assert (compile_columnar_plan(db, plan, MatchPolicy(2))
                is not compile_columnar_plan(db, plan))


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
        "X[M ->> {V}]",                      # unbound method enumeration
        "Y[cylinders -> 6]",                 # single probe
        "C : automobile, Y[color -> C]",     # boxed inverse probe
    ]

    def test_same_answers_as_other_executors(self, db):
        for text in self.QUERIES:
            compiled, _, atoms = batched(db, text)
            batch = answer_set(rows(compiled))
            streamed = answer_set(solve(db, atoms))
            interp = answer_set(solve(db, atoms, interpreted=True))
            assert batch == streamed == interp, text

    def test_counters_match_tuple_executor(self, db):
        for text in self.QUERIES:
            compiled, plan, _ = batched(db, text)
            batch_counters = [0] * len(plan.steps)
            tuple_counters = [0] * len(plan.steps)
            rows(compiled, counters=batch_counters)
            list(execute_plan(db, plan, {}, counters=tuple_counters,
                              interpreted=True))
            assert batch_counters == tuple_counters, text

    def test_seed_binding_extends_rows(self, db):
        atoms = atoms_for("X[vehicles ->> {V}], V[color -> C]")
        bound = relevant_bound(atoms, {Var("X")})
        plan = build_plan(db, atoms, bound)
        out = rows(compile_columnar_plan(db, plan), {Var("X"): n("p1")})
        assert all(row[Var("X")] == n("p1") for row in out)
        assert {row[Var("V")] for row in out} == {n("car0"), n("car1")}

    def test_missing_seed_variable_raises(self, db):
        compiled, _, _ = batched(db, "X[age -> A]", bound={Var("X")})
        with pytest.raises(EvaluationError, match="seed binding"):
            rows(compiled, {})
        with pytest.raises(EvaluationError, match="no seed binding"):
            rows(compiled, None)

    def test_extra_seed_variable_raises(self, db):
        compiled, _, _ = batched(db, "X[age -> A]", bound={Var("X")})
        with pytest.raises(EvaluationError, match="also binds"):
            rows(compiled, {Var("X"): n("p1"), Var("A"): n(30)})

    def test_projection_restricts_output(self, db):
        compiled, _, _ = batched(db, "X[vehicles ->> {V}], V[color -> C]")
        out = rows(compiled, project=(Var("X"),))
        assert out and all(set(row) == {Var("X")} for row in out)


class TestDeltaPlans:
    def test_delta_columns_match_tuple_delta(self, db):
        """The columnar delta plan equals the interpreted seed walk."""
        atom = SetMemberAtom(Name("vehicles"), Var("X"), (), Var("V"))
        rest = atoms_for("V[color -> C]")
        bound = relevant_bound(rest, atom.variables())
        plan = build_plan(db, rest, bound)
        batch = compile_columnar_delta_plan(db, atom, plan)
        delta = [
            ("set", n("vehicles"), n("p1"), (), n("car0")),
            ("scalar", n("age"), n("p1"), (), n(30)),  # wrong kind
            ("set", n("vehicles"), n("p2"), (), n("car2")),
        ]
        batch_counters = [0] * (len(plan.steps) + 1)
        execute, out = batch.column_executor(batch_counters)
        cols, nrows = execute(delta)
        got = {frozenset((var, cols[slot][i]) for var, slot in out)
               for i in range(nrows)}
        seeds, rest_counters = 0, [0] * len(plan.steps)
        want = set()
        for seed in match_atom_delta(db, atom, {}, delta, UNRESTRICTED):
            seeds += 1
            want |= answer_set(execute_plan(db, plan, seed,
                                            counters=rest_counters,
                                            interpreted=True))
        assert got == want
        assert batch_counters == [seeds, *rest_counters] == [2, 2]

    def test_whole_log_becomes_one_batch(self, db):
        atom = SetMemberAtom(Name("vehicles"), Var("X"), (), Var("V"))
        rest = atoms_for("V[color -> C]")
        plan = build_plan(db, rest, relevant_bound(rest, atom.variables()))
        batch = compile_columnar_delta_plan(db, atom, plan)
        execute, out = batch.column_executor()
        delta = [("set", n("vehicles"), n("p1"), (), n("car0")),
                 ("set", n("vehicles"), n("p1"), (), n("car1"))]
        cols, nrows = execute(delta)
        assert nrows == 2
        slots = dict(out)
        assert cols[slots[Var("X")]] == [n("p1"), n("p1")]


class TestHeadEmitters:
    """Heads the int writer declines run the realizer's column program."""

    def rule_for(self, text):
        return normalize_program(parse_program(text))[0]

    def column_program(self, db, rule, slots):
        realizer = HeadRealizer(db)
        return realizer.compile_columns(rule.head, slots), realizer.log

    def head_rung(self, db, text):
        """The engine's head rung for a one-rule program, its facts
        checked against the interpreted oracle."""
        program = parse_program(text)
        engine = Engine(db, program)
        result = engine.run()
        oracle = Engine(db, program, interpreted=True).run()
        assert set(result.scalars.items()) == set(oracle.scalars.items())
        assert ({(k, frozenset(v)) for k, v in result.sets.items()}
                == {(k, frozenset(v)) for k, v in oracle.sets.items()})
        assert (set(result.hierarchy.declared_edges())
                == set(oracle.hierarchy.declared_edges()))
        report, = engine.plan_reports()
        return report.head

    def test_simple_set_head_emits_directly(self, db):
        rule = self.rule_for("X[reach ->> {V}] <- X[vehicles ->> {V}].")
        slots = {Var("X"): 0, Var("V"): 1}
        emit, log = self.column_program(db, rule, slots)
        assert emit is not None
        emit([[n("p1"), n("p2")], [n("car0"), n("car2")]], 2, log)
        assert log == [("set", n("reach"), n("p1"), (), n("car0")),
                       ("set", n("reach"), n("p2"), (), n("car2"))]
        assert db.sets.get(n("reach"), n("p1")) == frozenset({n("car0")})
        # Re-emitting asserts nothing new and logs nothing.
        log.clear()
        emit([[n("p1")], [n("car0")]], 1, log)
        assert log == []

    def test_multi_template_head_emits_all_templates(self, db):
        rule = self.rule_for(
            "X[marked ->> {V, car0}] <- X[vehicles ->> {V}].")
        slots = {Var("X"): 0, Var("V"): 1}
        emit, log = self.column_program(db, rule, slots)
        assert emit is not None
        emit([[n("p1")], [n("car1")]], 1, log)
        assert ("set", n("marked"), n("p1"), (), n("car1")) in log
        assert ("set", n("marked"), n("p1"), (), n("car0")) in log

    def test_isa_head_emits_memberships(self, db):
        rule = self.rule_for("X : flagged <- X[age -> A].")
        slots = {Var("X"): 0, Var("A"): 1}
        emit, log = self.column_program(db, rule, slots)
        assert emit is not None
        emit([[n("p1")], [n(30)]], 1, log)
        assert log == [("isa", n("p1"), n("flagged"))]
        assert db.isa(n("p1"), n("flagged"))
        assert self.head_rung(
            db, "X : flagged <- X[age -> A].") == "column program"

    def test_nested_molecule_head_has_no_emitter(self, db):
        # No int writer for an isa filter: the column program serves it.
        assert self.head_rung(
            db, "X : flagged[why ->> {V}] <- X[vehicles ->> {V}].") == (
                "column program")

    def test_virtual_creating_head_has_no_emitter(self, db):
        # The int writer defines virtual objects, but not while a change
        # log is open: the column program creates the same ones then.
        text = "X.boss[city -> C] <- X[age -> C]."
        assert self.head_rung(db, text) == "int writer"
        db.begin_changes()
        rule = self.rule_for(text)
        cplan = compile_columnar_plan(db, build_plan(db, rule.body, ()))
        assert columnar_head_emitter(db, rule, cplan,
                                     HeadRealizer(db)) is None
        emit, log = self.column_program(db, rule, {Var("X"): 0, Var("C"): 1})
        emit([[n("p1")], [n(30)]], 1, log)
        boss = VirtualOid(n("boss"), n("p1"), ())
        assert log == [("scalar", n("boss"), n("p1"), (), boss),
                       ("scalar", n("city"), boss, (), n(30))]

    def test_builtin_identity_head_has_no_emitter(self, db):
        assert self.head_rung(
            db, "X[self -> X] <- X[age -> A].") == "column program"

    def test_scalar_conflicts_still_raise(self, db):
        rule = self.rule_for("X[age -> V] <- X[cylinders -> V].")
        slots = {Var("X"): 0, Var("V"): 1}
        emit, log = self.column_program(db, rule, slots)
        with pytest.raises(ScalarConflictError):
            emit([[n("p1")], [n(99)]], 1, log)


class TestEngineIntegration:
    PROGRAM = """
        X[reach ->> {Y}] <- X[next -> Y].
        X[reach ->> {Z}] <- X[reach ->> {Y}], Y[next -> Z].
    """

    @pytest.fixture
    def chain_db(self):
        db = Database()
        for i in range(8):
            db.add_object(f"n{i}", scalars={"next": f"n{i + 1}"})
        return db

    def test_columnar_is_the_engine_default(self, chain_db):
        engine = Engine(chain_db, parse_program(self.PROGRAM))
        engine.run()
        assert engine.stats.plans_compiled > 0
        assert engine.stats.batches > 0
        assert engine.stats.batch_rows > 0
        oracle = Engine(chain_db, parse_program(self.PROGRAM),
                        interpreted=True)
        oracle.run()
        assert oracle.stats.plans_compiled == oracle.stats.batches == 0

    def test_explain_names_batch_kernels(self, chain_db):
        # ``Y : hub`` reads an int column: a semi-join against the
        # class's member surrogates.  ``Y : integer`` has no int form
        # (built-in value classes are checkable, not enumerable): its
        # step keeps the boxed kernel inside the rule's columnar plan.
        engine = Engine(chain_db, parse_program(self.PROGRAM + """
            n2 : hub.
            X[hub_reach ->> {Y}] <- X[reach ->> {Y}], Y : hub.
            X[num_reach ->> {Y}] <- X[reach ->> {Y}], Y : integer.
        """))
        engine.run()
        kernels = [step.kernel for report in engine.plan_reports()
                   for step in report.steps]
        assert all(kernels)
        assert "int isa check" in kernels
        assert "batch isa check" in kernels
        assert any(kernel.startswith("int ") for kernel in kernels)
