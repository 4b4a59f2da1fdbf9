"""Columnar-executor tests: int kernels, mirror-first writes, drains.

The columnar executor runs plan steps over *int columns* of dense OID
surrogates.  These tests pin the per-slot kernel selection (int kernel
vs. boxed batch fallback), execution parity with the interpreted
matcher, the mirror-first head emitter (facts land in the surrogate
mirror and back-fill the boxed table lazily; virtual-object path heads
included), the tables' batch writer behind it, the int isa check,
delta plans seeded from int batches, and the depth-first chunk loop
behind lazy ad-hoc answers and the ``exists`` short-circuit.
"""

import pytest

from repro.core.ast import Name, Var
from repro.datasets import CompanyConfig, build_company
from repro.engine import Engine
from repro.engine.columnar import (
    columnar_head_emitter,
    compile_columnar_delta_plan,
    compile_columnar_plan,
)
from repro.engine.delta import DeltaIndex
from repro.engine.heads import HeadRealizer
from repro.engine.matching import UNRESTRICTED, match_atom_delta
from repro.engine.normalize import normalize_program
from repro.engine.planner import Plan, PlanStep, build_plan, relevant_bound
from repro.engine.profiler import EngineStats
from repro.engine.solve import execute_plan, solve
from repro.errors import ResourceLimitError, ScalarConflictError
from repro.flogic.atoms import SetMemberAtom
from repro.flogic.flatten import flatten_conjunction
from repro.lang.parser import parse_program, parse_query
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid, VirtualOid
from repro.query import Query


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


def columnar(db, text, bound=()):
    atoms = atoms_for(text)
    plan = build_plan(db, atoms, bound)
    return compile_columnar_plan(db, plan), plan


def rows(compiled, binding=None, counters=None):
    """A columnar plan's solutions as dicts (OID-valued)."""
    execute, out = compiled.column_executor(counters)
    cols, nrows = execute(binding)
    return [{var: cols[slot][i] for var, slot in out} for i in range(nrows)]


def delta_rows(compiled, delta):
    """A columnar delta plan's solutions as dicts (OID-valued)."""
    execute, out = compiled.column_executor()
    cols, nrows = execute(delta)
    return [{var: cols[slot][i] for var, slot in out} for i in range(nrows)]


def answer_set(bindings):
    return {frozenset(b.items()) for b in bindings}


class TestKernelSelection:
    def test_probe_and_merge_join_kernels(self, db):
        compiled, _ = columnar(db, "Y[color -> blue], X[vehicles ->> {Y}]")
        assert compiled.kernel_names == ("int scalar mr-probe",
                                         "int set mm merge-join")

    def test_scalar_merge_join_on_bound_result(self, db):
        compiled, _ = columnar(db, "X[cylinders -> N], Y[cylinders -> N]")
        assert compiled.kernel_names == ("int scalar m-scan",
                                         "int scalar mr merge-join")

    def test_subject_navigation_kernels(self, db):
        atoms = atoms_for("X[vehicles ->> {V}], V[color -> C]")
        plan = build_plan(db, atoms, {Var("X")})
        compiled = compile_columnar_plan(db, plan)
        assert compiled.kernel_names == ("int set iter", "int scalar get")

    def test_magic_guard_compiles_to_semi_join(self, db):
        guard = SetMemberAtom(Name("magic$scalar$age$bf"),
                              Name("__demand__"), (), Var("X"))
        db.assert_set_member(db.obj("magic$scalar$age$bf"),
                             db.obj("__demand__"), (), db.obj("p1"))
        atoms = atoms_for("X[age -> A]") + (guard,)
        plan = build_plan(db, atoms, {Var("X")})
        compiled = compile_columnar_plan(db, plan)
        assert "int semi-join (magic)" in compiled.kernel_names

    def test_non_oid_shapes_fall_back_to_boxed_kernels(self, db):
        # Enumerating a class's members and comparisons have no int
        # form; their slots stay boxed and downstream reads deref
        # transparently.
        compiled, _ = columnar(db, "X : employee, X.age >= 35")
        assert compiled.kernel_names[0] == "batch isa members"
        assert "batch compare" in compiled.kernel_names

    def test_memoised_per_database(self, db):
        _, plan = columnar(db, "X[vehicles ->> {V}]")
        first = compile_columnar_plan(db, plan)
        assert compile_columnar_plan(db, plan) is first
        assert compile_columnar_plan(Database(), plan) is not first


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
        "Y[color -> blue], X[vehicles ->> {Y}]",   # merge join
        "X[cylinders -> N], Y[cylinders -> N]",    # scalar merge join
    ]

    def test_same_answers_as_other_executors(self, db):
        for text in self.QUERIES:
            compiled, _ = columnar(db, text)
            col = answer_set(rows(compiled))
            streamed = answer_set(solve(db, atoms_for(text)))
            interp = answer_set(solve(db, atoms_for(text), interpreted=True))
            assert col == streamed == interp, text

    def test_counters_match_tuple_executor(self, db):
        for text in self.QUERIES:
            compiled, plan = columnar(db, text)
            col_counters = [0] * len(plan.steps)
            streamed_counters = [0] * len(plan.steps)
            tuple_counters = [0] * len(plan.steps)
            rows(compiled, counters=col_counters)
            list(execute_plan(db, plan, {}, counters=streamed_counters))
            list(execute_plan(db, plan, {}, counters=tuple_counters,
                              interpreted=True))
            assert col_counters == streamed_counters == tuple_counters, text

    def test_seed_binding_is_interned_and_resolved(self, db):
        atoms = atoms_for("X[vehicles ->> {V}], V[color -> C]")
        bound = relevant_bound(atoms, {Var("X")})
        plan = build_plan(db, atoms, bound)
        compiled = compile_columnar_plan(db, plan)
        out = rows(compiled, {Var("X"): n("p1")})
        assert all(row[Var("X")] == n("p1") for row in out)
        assert {row[Var("V")] for row in out} == {n("car0"), n("car1")}
        assert all(isinstance(row[Var("C")], NamedOid) for row in out)


class TestExistsShortCircuit:
    @pytest.fixture
    def long_chain(self):
        db = Database()
        for i in range(600):
            db.add_object(f"n{i}", scalars={"next": f"n{i + 1}"})
        return db

    def test_exists_stops_at_first_surviving_row(self, long_chain):
        atoms = atoms_for("X[next -> Y], Y[next -> Z]")
        plan = build_plan(long_chain, atoms, ())
        compiled = compile_columnar_plan(long_chain, plan)
        stats = EngineStats()
        assert compiled.exists({}, stats)
        short = stats.batch_rows
        counters = [0] * len(plan.steps)
        rows(compiled, counters=counters)
        full = sum(counters)
        # A full execution pushes ~1200 rows through the two steps.
        # The chunked exists cannot avoid the opening scan, but after
        # it only chunk-sized slices flow: batch_rows stops growing
        # once the first surviving row reaches the end.
        assert full > 1000
        assert short < full
        assert short <= counters[0] + 2 * 64

    def test_unsatisfiable_exists_still_scans_everything(self, long_chain):
        atoms = atoms_for("X[next -> Y], Y[missing -> Z]")
        plan = build_plan(long_chain, atoms, ())
        assert not compile_columnar_plan(long_chain, plan).exists(
            {}, EngineStats())

    def test_rows_stream_one_chunk_at_a_time(self, long_chain):
        atoms = atoms_for("X[next -> Y], Y[next -> Z]")
        plan = build_plan(long_chain, atoms, ())
        counters = [0] * len(plan.steps)
        stream = compile_columnar_plan(long_chain, plan).rows({}, counters)
        next(stream)
        # The opening scan ran whole; the second step saw one chunk.
        assert counters == [600, 64]
        assert len(list(stream)) == 598
        assert counters == [600, 599]

    def test_exists_stops_inside_an_exploding_rowwise_step(self, db):
        # Four free source variables range over the universe: the one
        # input row of the superset step expands to |U|^4 candidate
        # rows.  The rowwise step hands its output on in blocks, so the
        # existence check -- and ask() through solve -- stops at the
        # first block instead of enumerating them all.
        from repro.engine.solve import exists
        from repro.query import Query

        for extra in range(800):
            db.add_object(f"pad{extra}")
        text = "X[friends ->> {A.f, B.g, C.h, D.i}]"
        compiled, _ = columnar(db, text)
        assert compiled.kernel_names == ("batch row superset",)
        assert compiled.exists()
        assert exists(db, atoms_for(text))
        assert Query(db).ask(text)
        assert next(solve(db, atoms_for(text))) is not None


class TestHeadEmitter:
    def rule_and_cplan(self, db, text):
        rule = normalize_program(parse_program(text))[0]
        plan = build_plan(db, rule.body, ())
        return rule, compile_columnar_plan(db, plan)

    def test_set_head_writes_mirror_first(self, db):
        rule, cplan = self.rule_and_cplan(
            db, "X[reach ->> {V}] <- X[vehicles ->> {V}].")
        emit = columnar_head_emitter(db, rule, cplan)
        assert emit is not None
        x_slot, v_slot = cplan.slots[Var("X")], cplan.slots[Var("V")]
        assert cplan.reps[x_slot] and cplan.reps[v_slot]
        cols = [None] * cplan.nslots
        p1, car0 = db.intern(n("p1")), db.intern(n("car0"))
        cols[x_slot], cols[v_slot] = [p1], [car0]
        log = DeltaIndex(interner=db.interner)
        emit(cols, 1, log)
        # The round keeps the new surrogate columns, and boxes them for
        # a reader that asks.
        assert len(log) == 1
        assert log.int_bucket("set", n("reach")) == ([p1], [car0])
        assert log.boxed() == [("set", n("reach"), n("p1"), (), n("car0"))]
        reach = db.intern(n("reach"))
        view = db.sets.surrogate_view(db.interner)
        assert view.apps[reach][p1] == {car0}
        # The boxed table back-fills on first read and agrees.
        assert db.sets.get(n("reach"), n("p1")) == frozenset({n("car0")})
        # Re-emitting is a pure int-space dedup: nothing new.
        log2 = DeltaIndex(interner=db.interner)
        emit(cols, 1, log2)
        assert len(log2) == 0 and log2.boxed() == []

    def test_scalar_conflicts_raise_from_the_mirror(self, db):
        rule, cplan = self.rule_and_cplan(
            db, "X[age -> V] <- X[cylinders -> V].")
        emit = columnar_head_emitter(db, rule, cplan)
        assert emit is not None
        x_slot, v_slot = cplan.slots[Var("X")], cplan.slots[Var("V")]
        cols = [None] * cplan.nslots
        cols[x_slot] = [db.intern(n("p1"))]
        cols[v_slot] = [db.intern(n(99))]
        with pytest.raises(ScalarConflictError):
            emit(cols, 1, DeltaIndex(interner=db.interner))

    def test_virtual_creating_head_has_no_emitter(self, db):
        # Without the run's realizer there is no virtual identity to
        # share (nor a depth limit or a counter to keep).
        rule, cplan = self.rule_and_cplan(
            db, "X.boss[city -> C] <- X[age -> C].")
        assert columnar_head_emitter(db, rule, cplan) is None

    def emit_rows(self, db, emit, cplan, columns):
        cols = [None] * cplan.nslots
        for var, values in columns.items():
            cols[cplan.slots[Var(var)]] = [db.intern(n(v)) for v in values]
        log = DeltaIndex(interner=db.interner)
        emit(cols, len(next(iter(columns.values()))), log)
        return log

    def test_path_head_defines_one_virtual_per_subject(self, db):
        rule, cplan = self.rule_and_cplan(
            db, "X.boss[city -> C; seen ->> {C}] <- X[age -> C].")
        realizer = HeadRealizer(db)
        emit = columnar_head_emitter(db, rule, cplan, realizer)
        assert emit is not None
        # p1 twice in one batch: one virtual object, defined once.
        log = self.emit_rows(db, emit, cplan, {"X": ["p1", "p2", "p1"],
                                               "C": [30, 40, 30]})
        boss = n("boss")
        v1, v2 = VirtualOid(boss, n("p1")), VirtualOid(boss, n("p2"))
        assert realizer.virtuals_created == 2
        assert v1 in db and v2 in db  # registered in the universe
        assert log.bucket("scalar", boss) == [
            ("scalar", boss, n("p1"), (), v1),
            ("scalar", boss, n("p2"), (), v2)]
        assert log.bucket("scalar", n("city")) == [
            ("scalar", n("city"), v1, (), n(30)),
            ("scalar", n("city"), v2, (), n(40))]
        assert db.scalars.get(n("city"), v2) == n(40)
        assert db.sets.get(n("seen"), v1) == frozenset({n(30)})
        # A defined path is referenced: nothing new, no new object.
        again = self.emit_rows(db, emit, cplan, {"X": ["p2"], "C": [40]})
        assert len(again) == 0 and realizer.virtuals_created == 2

    def test_path_head_references_stored_results(self, db):
        db.assert_scalar(n("boss"), n("p1"), (), n("p2"))
        rule, cplan = self.rule_and_cplan(
            db, "X.boss[city -> C] <- X[age -> C].")
        realizer = HeadRealizer(db)
        emit = columnar_head_emitter(db, rule, cplan, realizer)
        self.emit_rows(db, emit, cplan, {"X": ["p1"], "C": [30]})
        assert realizer.virtuals_created == 0
        assert db.scalars.get(n("city"), n("p2")) == n(30)

    def test_path_head_keeps_the_depth_limit(self, db):
        rule, cplan = self.rule_and_cplan(
            db, "X.boss.boss2[city -> C] <- X[age -> C].")
        emit = columnar_head_emitter(db, rule, cplan,
                                     HeadRealizer(db, max_virtual_depth=1))
        with pytest.raises(ResourceLimitError, match="max_virtual_depth"):
            self.emit_rows(db, emit, cplan, {"X": ["p1"], "C": [30]})

    def test_a_method_written_twice_is_not_int_written(self, db):
        for text in ("X.boss[boss -> C] <- X[age -> C].",
                     "X.boss.boss[city -> C] <- X[age -> C].",
                     "X[m ->> {C, X}] <- X[age -> C].",
                     "X.boss[city -> C; city -> X] <- X[age -> C]."):
            rule, cplan = self.rule_and_cplan(db, text)
            assert columnar_head_emitter(db, rule, cplan,
                                         HeadRealizer(db)) is None, text

    def test_open_change_log_disables_the_emitter(self, db):
        db.begin_changes()
        rule, cplan = self.rule_and_cplan(
            db, "X[reach ->> {V}] <- X[vehicles ->> {V}].")
        assert columnar_head_emitter(db, rule, cplan) is None


class TestDeferredDrain:
    def test_int_writer_defers_boxed_backfill(self, db):
        db.sets.surrogate_view(db.interner)
        marked = db.intern(db.obj("marked"))
        write = db.sets.int_writer(n("marked"), marked)
        p1, car0 = db.intern(n("p1")), db.intern(n("car0"))
        assert write([p1], [car0]) == ([p1], [car0])
        assert write([p1], [car0]) == ([], [])  # int-space duplicate
        # One flat chunk per batch: a one-row batch queues (m, s, r).
        assert db.sets._pending == [(marked, p1, car0)]
        # Any boxed entry point drains first; the fact is visible.
        assert db.sets.get(n("marked"), n("p1")) == frozenset({n("car0")})
        assert not db.sets._pending

    def test_scalar_writer_conflict_semantics(self, db):
        db.scalars.surrogate_view(db.interner)
        rank = db.intern(db.obj("rank"))
        write = db.scalars.int_writer(n("rank"), rank)
        p1 = db.intern(n("p1"))
        one, two = db.intern(n(1)), db.intern(n(2))
        assert write([p1], [one]) == ([p1], [one])
        assert write([p1], [one]) == ([], [])  # same result: no-op
        with pytest.raises(ScalarConflictError):
            write([p1], [two])
        assert db.scalars.get(n("rank"), n("p1"), ()) == n(1)

    def test_clone_drains_pending_writes(self, db):
        db.sets.surrogate_view(db.interner)
        marked = db.intern(db.obj("marked"))
        write = db.sets.int_writer(n("marked"), marked)
        write([db.intern(n("p2"))], [db.intern(n("car2"))])
        copy = db.clone()
        assert copy.sets.get(n("marked"), n("p2")) == frozenset({n("car2")})


class TestBatchWriter:
    """``int_writer`` writes whole columns: one batch, one back-fill
    chunk, one version bump -- and per row what ``put``/``add`` mean."""

    @staticmethod
    def writer(db, kind, name):
        table = db.scalars if kind == "scalar" else db.sets
        table.surrogate_view(db.interner)
        method = db.obj(name)
        return table, table.int_writer(method, db.intern(method))

    def test_duplicates_within_one_batch_are_written_once(self, db):
        s = [db.intern(n(name)) for name in ("p1", "p2", "p1", "p1")]
        r = [db.intern(n(name)) for name in ("car0", "car2", "car0", "car1")]
        sets, write = self.writer(db, "set", "owns")
        version = sets.version
        assert write(s, r) == ([s[0], s[1], s[3]], [r[0], r[1], r[3]])
        assert sets.version == version + 3
        assert len(sets._pending) == 1
        scalars, write = self.writer(db, "scalar", "rank")
        version = scalars.version
        one = db.intern(n(1))
        assert write(s[:3], [one] * 3) == ([s[0], s[1]], [one, one])
        assert scalars.version == version + 2
        assert db.sets.get(n("owns"), n("p1")) == {n("car0"), n("car1")}
        assert db.scalars.get(n("rank"), n("p1")) == n(1)
        assert len(db.sets) == len(list(db.sets.match()))

    def test_a_conflict_inside_a_batch_raises_what_put_raises(self, db):
        scalars, write = self.writer(db, "scalar", "age")
        car0, p1, car1 = (db.intern(n(name)) for name in ("car0", "p1",
                                                           "car1"))
        with pytest.raises(ScalarConflictError) as batch:
            write([car0, p1, car1],
                  [db.intern(n(7)), db.intern(n(99)), db.intern(n(8))])
        with pytest.raises(ScalarConflictError) as boxed:
            scalars.put(n("age"), n("p1"), (), n(99))
        fields = ("method", "subject", "arguments", "existing", "new")
        assert ([getattr(batch.value, f) for f in fields]
                == [getattr(boxed.value, f) for f in fields])
        assert str(batch.value) == str(boxed.value)
        # Rows before the conflict stay written, in mirror and boxed
        # table alike; rows after it were never looked at.
        assert scalars.get(n("age"), n("car0")) == n(7)
        assert scalars.get(n("age"), n("car1")) is None
        age = db.intern(n("age"))
        assert car1 not in scalars.surrogate_view(db.interner).apps[age]

    def test_a_writer_used_after_a_clone_still_raises(self, db):
        sets, write = self.writer(db, "set", "owns")
        p1, car0 = db.intern(n("p1")), db.intern(n("car0"))
        db.clone()
        with pytest.raises(RuntimeError, match="cloned"):
            write([p1], [car0])
        with pytest.raises(RuntimeError, match="cloned"):
            write([], [])  # checked once per batch, rows or not
        assert not sets._pending

    @pytest.mark.parametrize("kind", ["scalar", "set"])
    def test_drained_chunks_equal_per_row_inserts(self, kind):
        def build():
            fresh = Database()
            for i in range(6):
                fresh.add_object(f"o{i}", scalars={"w": i},
                                 sets={"e": [f"o{(i + 1) % 6}"]})
            return fresh

        # Fifteen rows over six subjects: repeats within and across
        # batches, onto a method with base facts (sets) or without
        # (scalars, one result per subject).
        name = "e" if kind == "set" else "tag"
        rows = [(f"o{i % 6}", i % 4 if kind == "set" else i % 6 % 3)
                for i in range(15)]
        batches = [rows[:4], rows[4:9], rows[9:]]
        chunked, per_row = build(), build()
        table, write = self.writer(chunked, kind, name)
        wrote = [write([chunked.intern(n(s)) for s, _ in batch],
                       [chunked.intern(n(v)) for _, v in batch])[0]
                 for batch in batches]
        # One back-fill chunk per batch that wrote anything.
        assert len(table._pending) == sum(map(bool, wrote)) >= 2
        other = per_row.scalars if kind == "scalar" else per_row.sets
        insert = other.put if kind == "scalar" else other.add
        for s, v in rows:
            insert(per_row.obj(name), n(s), (), n(v))
        table.sync()
        assert table.version == other.version
        indexes = ("_facts", "_by_method", "_by_subject",
                   "_by_method_result" if kind == "scalar"
                   else "_by_method_member")
        for index in indexes:
            assert getattr(table, index) == getattr(other, index), index


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

    def test_explain_names_int_kernels(self, chain_db):
        engine = Engine(chain_db, parse_program(self.PROGRAM))
        engine.run()
        kernels = [step.kernel for report in engine.plan_reports()
                   for step in report.steps]
        assert kernels
        assert any(kernel.startswith("int ") for kernel in kernels)

    def test_delta_plan_consumes_int_batches(self, chain_db):
        atom = SetMemberAtom(Name("reach"), Var("X"), (), Var("Y"))
        rest = atoms_for("Y[next -> Z]")
        bound = relevant_bound(rest, atom.variables())
        plan = build_plan(chain_db, rest, bound)
        delta_plan = compile_columnar_delta_plan(chain_db, atom, plan)
        x = chain_db.intern(n("n0"))
        y = chain_db.intern(n("n1"))
        delta = DeltaIndex(interner=chain_db.interner)
        delta.append_columns("set", n("reach"), [x], [y])
        got = answer_set(delta_rows(delta_plan, delta))
        assert got == {frozenset({(Var("X"), n("n0")), (Var("Y"), n("n1")),
                                   (Var("Z"), n("n2"))})}


class TestMagicGuardSeeds:
    """A magic guard's constant subject filters the round's int bucket,
    so a demand run's delta plans never leave the int kernels."""

    GUARD = SetMemberAtom(Name("magic$set$commandChain$bf"),
                          Name("__demand__"), (), Var("X"))

    #: The served program: a recursive chain of command and a
    #: non-recursive view over vehicles.
    SERVE_RULES = """
        X[commandChain ->> {Y}] <- X[mentor -> Y].
        X[commandChain ->> {Z}] <- X[commandChain ->> {Y}], Y[mentor -> Z].
        X[redOwner -> 1] <- X[vehicles ->> {V}], V[color -> red].
    """

    @pytest.fixture
    def company(self):
        db = build_company(CompanyConfig(employees=40, seed=3))
        for index in range(1, 40):
            db.add_object(f"p{index}", scalars={"mentor": f"p{index - 1}"})
        return db

    @pytest.mark.parametrize("rest", [
        "X[mentor -> Y]",
        "X[commandChain ->> {Y}], Y[mentor -> Z]",
    ])
    def test_guard_seeds_an_int_delta_plan(self, company, rest):
        db = company
        for index in (3, 5):
            db.assert_set_member(n("commandChain"), n(f"p{index}"), (),
                                 n(f"p{index - 2}"))
        atoms = atoms_for(rest)
        plan = build_plan(db, atoms, relevant_bound(atoms, {Var("X")}))
        delta_plan = compile_columnar_delta_plan(db, self.GUARD, plan)
        assert delta_plan.kernel_names[0] == "int delta-set seed"
        assert all(name.startswith("int ")
                   for name in delta_plan.kernel_names)
        guard = n("magic$set$commandChain$bf")
        delta = [("set", guard, n("__demand__"), (), n("p3")),
                 ("set", guard, n("elsewhere"), (), n("p4")),
                 ("set", guard, n("__demand__"), (), n("p5"))]
        counters = [0] * (len(plan.steps) + 1)
        execute, out = delta_plan.column_executor(counters)
        cols, nrows = execute(delta)
        got = {frozenset((var, cols[slot][i]) for var, slot in out)
               for i in range(nrows)}
        want, seeds = set(), 0
        rest_counters = [0] * len(plan.steps)
        for seed in match_atom_delta(db, self.GUARD, {}, delta,
                                     UNRESTRICTED):
            seeds += 1
            want |= answer_set(execute_plan(db, plan, seed,
                                            counters=rest_counters,
                                            interpreted=True))
        assert got == want and nrows
        assert counters == [seeds, *rest_counters]

    def test_served_answers_match_the_oracle_across_a_write(self, company):
        db = company
        db.begin_changes()
        program = parse_program(self.SERVE_RULES)
        served, oracle = [Query(db, program=program, magic=True,
                                interpreted=interpreted)
                          for interpreted in (False, True)]
        texts = [f"p{key}[commandChain ->> {{Y}}]" for key in (7, 21, 38)]
        texts.append("X[redOwner -> 1]")

        def answers(query):
            return [query.all(text) for text in texts]

        before = answers(served)
        assert before == answers(oracle) and all(before)
        # A maintained repaint and a dropped vehicle: both memos are
        # brought up to date incrementally.
        car = Query(db).all("V : automobile[color -> C]")[0]
        paint = n("red") if car["C"] != n("red") else n("blue")
        db.retract_scalar(n("color"), car["V"], ())
        db.assert_scalar(n("color"), car["V"], (), paint)
        owner = Query(db).all("X[vehicles ->> {V}]")[0]
        db.retract_set_member(n("vehicles"), owner["X"], (), owner["V"])
        after = answers(served)
        assert after == answers(oracle)
        assert served.last_maintenance.applied


class TestIntIsaCheck:
    """``X : c`` on an int column: a semi-join against the surrogates
    of the class's members, refreshed when the hierarchy moves."""

    def ordered(self, db, text):
        """The conjunction compiled in its written order (the planner
        would enumerate a small class's members first)."""
        steps = tuple(PlanStep(atom, 1.0, 1.0, "written order")
                      for atom in atoms_for(text))
        return compile_columnar_plan(db, Plan(steps, frozenset()))

    def test_constant_class_on_an_int_column(self, db):
        compiled = self.ordered(db, "X[age -> A], X : employee")
        assert compiled.kernel_names == ("int scalar m-scan",
                                         "int isa check")
        got = answer_set(rows(compiled))
        assert got == answer_set(solve(db, atoms_for(
            "X[age -> A], X : employee"), interpreted=True))
        assert len(got) == 2

    def test_reflexive_hierarchy_counts_the_class_itself(self):
        for reflexive in (False, True):
            db = Database(reflexive_isa=reflexive)
            db.subclass("car", "vehicle")
            db.add_object("c1", classes=["car"], scalars={"tag": 1})
            db.add_object("car", scalars={"tag": 2})
            text = "X[tag -> T], X : car"
            compiled = self.ordered(db, text)
            assert compiled.kernel_names[-1] == "int isa check"
            got = {b[Var("X")] for b in rows(compiled)}
            assert got == ({n("c1"), n("car")} if reflexive else {n("c1")})
            assert got == {b[Var("X")] for b in solve(
                db, atoms_for(text), interpreted=True)}

    def test_builtin_value_classes_stay_boxed(self, db):
        for cls, found in (("integer", 2), ("string", 0)):
            compiled = self.ordered(db, f"X[age -> A], A : {cls}")
            assert compiled.kernel_names == ("int scalar m-scan",
                                             "batch isa check"), cls
            assert len(rows(compiled)) == found

    def test_members_added_later_are_seen(self, db):
        compiled = self.ordered(db, "X[age -> A], X : manager")
        assert rows(compiled) == []
        db.assert_isa(n("p2"), n("manager"))  # the hierarchy moves
        assert [b[Var("X")] for b in rows(compiled)] == [n("p2")]

    def test_a_member_never_interned_is_not_interned(self, db):
        db.assert_isa(n("ghost"), n("employee"))
        compiled = self.ordered(db, "X[age -> A], X : employee")
        assert len(rows(compiled)) == 2
        assert db.interner.surrogate(n("ghost")) is None
        # Once it has a surrogate it can sit in a column: the next run
        # looks the remembered member up again.
        db.assert_scalar(n("age"), n("ghost"), (), n(50))
        assert {b[Var("X")] for b in rows(compiled)} == {
            n("p1"), n("p2"), n("ghost")}

    def test_concurrent_readers_never_see_a_torn_extent(self, db):
        # Server readers share a cached plan, and with it one extent()
        # memo.  After every hierarchy move eight threads race to
        # rebuild it; each must get the members of the hierarchy it
        # reads, never the new version paired with the old members.
        import sys
        import threading

        from repro.engine.columnar import _class_extent

        employee = n("employee")
        extent = _class_extent(db, employee, db.interner)
        readers, rounds = 8, 100
        barrier = threading.Barrier(readers + 1, timeout=10)
        torn = []

        def read():
            for _ in range(rounds):
                barrier.wait()  # the hierarchy has moved
                want, _ = db.interner.known(db.members(employee))
                got = extent()
                if got != want:
                    torn.append(len(want) - len(got))
                barrier.wait()  # done reading this version

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=read) for _ in range(readers)]
        try:
            for thread in threads:
                thread.start()
            for i in range(rounds):
                db.assert_isa(n(f"e{i}"), employee)
                db.intern(n(f"e{i}"))
                barrier.wait()
                barrier.wait()
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == []

    def test_an_isa_head_refreshes_the_extent_between_rounds(self):
        db = Database()
        for i in range(5):
            db.add_object(f"n{i}", scalars={"next": f"n{i + 1}"})
        db.assert_isa(n("n5"), n("big"))
        for i in range(20):  # a large extent: the planner scans next
            db.assert_isa(n(f"d{i}"), n("big"))
        program = parse_program("X : big <- X[next -> Y], Y : big.")
        engine = Engine(db, program)
        result = engine.run()
        report, = engine.plan_reports()
        assert [step.kernel for step in report.steps] == [
            "int scalar m-scan", "int isa check"]
        assert report.head == "column program"
        # One more member per round: every round re-reads the hierarchy.
        assert result.members(n("big")) >= {n(f"n{i}") for i in range(6)}
        assert result.members(n("big")) == Engine(
            db, program, interpreted=True).run().members(n("big"))
