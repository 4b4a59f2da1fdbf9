"""Int-surrogate columnar execution: dense OIDs in integer columns.

The batched executor (:mod:`repro.engine.batch`) made plan execution
set-at-a-time, but its columns still hold *boxed* OIDs: every join
probe recomputes a structural hash over a frozen dataclass (and for
virtual objects, recursively over its spine), and every head emission
pays that hash again just to discover the fact is a duplicate.  This
module lowers the same plans onto **integer columns**: each OID is
interned once into a dense surrogate (:class:`~repro.oodb.oid.OidInterner`)
and the hot kernels become machine-int dictionary probes, merge joins
over sorted ``array('q')`` surrogate buckets, and int-set membership
tests:

- **forward probes** (``int scalar get``, ``int set iter/contains``)
  key on the tables' surrogate mirror views -- dict-of-int probes with
  trivial hashing;
- **inverse joins** with a column of keys run as **merge joins**: the
  batch is sorted once and walked against the method's sorted inverse
  bucket (``int scalar mr merge-join``, ``int set mm merge-join``);
- **magic guards** (demand sets from the magic rewrite) filter whole
  columns against the demand bucket in one semi-join pass
  (``int semi-join (magic)``);
- **head emission** deduplicates in int space against the mirror
  before touching the boxed table, so re-derived facts never resolve a
  surrogate or hash an OID.

Representation is chosen **per slot at plan-compile time**: a slot is
an int column exactly when its writer is an int kernel (or the entry
seed, which interns its one row).  Atoms with no int form -- builtins,
``isa``, comparisons, negation, superset bridges, parameterised or
dynamic methods, unindexed tables -- reuse the boxed batch kernels
unchanged; a boxed step reading an int slot dereferences that column
in place first (a list index per row, no hashing), and the slot stays
boxed from then on.  Solutions leave the executor as OIDs: output
columns are dereferenced at the boundary, so callers (and per-step row
counters) cannot tell the representations apart.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.core import builtins as _builtins
from repro.core.ast import Name, Var
from repro.engine.batch import (
    BatchStep,
    StepBuilder,
    _bake_steps,
    _compile_batch_step,
    _delta_shape,
    _filter_const,
    _generic_delta_seed,
    _step_io,
    _take,
    activated,
    exists_over,
    head_emitter,
)
from repro.engine.compile import (
    _CONST,
    _STORE,
    _assign_slots,
    _atom_variables,
    _known,
    _term_op,
)
from repro.engine.delta import DeltaIndex
from repro.engine.matching import (
    MAGIC_METHOD_PREFIX,
    UNRESTRICTED,
    Binding,
    MatchPolicy,
)
from repro.engine.planner import Plan
from repro.errors import EvaluationError
from repro.flogic.atoms import Atom, ScalarAtom, SetMemberAtom
from repro.testing.faults import fault_point
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid, Oid, OidInterner


def _is_magic(method: Oid) -> bool:
    return (isinstance(method, NamedOid)
            and isinstance(method.value, str)
            and method.value.startswith(MAGIC_METHOD_PREFIX))


# ---------------------------------------------------------------------------
# Int kernels
# ---------------------------------------------------------------------------

def _int_merge_join(view, name: str, m_sur: int, si: int, ri: int):
    """Join a column of keys against a sorted surrogate bucket.

    The batch is sorted by key once (a C-level sort over machine ints),
    then walked in lockstep with the method's sorted inverse bucket;
    equal runs emit the same cross products a nested-loop probe would,
    so per-step row counts are unchanged.  Output row *order* differs
    from the boxed kernel -- semantics are set-based, so no caller may
    observe order.
    """
    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int,
                 _view=view, _m=m_sur, _si=si, _ri=ri) -> int:
            keys, vals = _view.sorted_inverse(_m)
            if not keys:
                return 0
            rcol = cols[_ri]
            order = sorted(range(nrows), key=rcol.__getitem__)
            total = len(keys)
            idx: list[int] = []
            out: list = []
            j = 0
            for i in order:
                key = rcol[i]
                while j < total and keys[j] < key:
                    j += 1
                probe = j
                while probe < total and keys[probe] == key:
                    idx.append(i)
                    out.append(vals[probe])
                    probe += 1
            _take(cols, carry, idx)
            cols[_si] = out
            return len(idx)
        return step
    return name, builder


def _int_inverse_probe(view, name: str, m_sur: int, si: int, r_sur: int):
    """Constant key, subject written: one inverse-bucket probe."""
    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int,
                 _view=view, _m=m_sur, _s=si, _r=r_sur) -> int:
            inverse = _view.inverse.get(_m)
            subjects = inverse.get(_r) if inverse else None
            if not subjects:
                return 0
            idx: list[int] = []
            out: list = []
            for i in range(nrows):
                for subject in subjects:
                    idx.append(i)
                    out.append(subject)
            _take(cols, carry, idx)
            cols[_s] = out
            return len(idx)
        return step
    return name, builder


def _int_scalar(db: Database, atom: ScalarAtom, bound: set[Var],
                slots: dict[Var, int], policy: MatchPolicy,
                rep: list[bool], interner: OidInterner):
    """An int-column kernel for a scalar atom, or None."""
    if atom.args or not db.scalars.indexed:
        return None
    seen: set[Var] = set()
    m_op = _term_op(atom.method, db, slots, bound, seen)
    s_op = _term_op(atom.subject, db, slots, bound, seen)
    r_op = _term_op(atom.result, db, slots, bound, seen)
    if m_op[0] != _CONST:
        return None
    method = m_op[1]
    if _builtins.is_builtin_scalar(method) or not policy.method_ok(method):
        return None
    s_known = _known(atom.subject, bound)
    r_known = _known(atom.result, bound)
    # Every column the kernel would read must already hold surrogates.
    for op, known in ((s_op, s_known), (r_op, r_known)):
        if known and op[0] != _CONST and not rep[op[1]]:
            return None

    view = db.scalars.surrogate_view(interner)
    apps = view.apps
    m_sur = interner.intern(method)

    if s_known:
        if s_op[0] == _CONST:
            s_sur = interner.intern(s_op[1])
            if r_op[0] == _STORE:
                ri = r_op[1]

                def builder(carry: tuple) -> BatchStep:
                    def step(cols: list, nrows: int,
                             _apps=apps, _m=m_sur, _s=s_sur, _ri=ri) -> int:
                        bucket = _apps.get(_m)
                        value = bucket.get(_s) if bucket else None
                        if value is None:
                            return 0
                        cols[_ri] = [value] * nrows
                        return nrows
                    return step
                return "int scalar get", builder, (ri,)
            if r_op[0] == _CONST:
                r_sur = interner.intern(r_op[1])
                return "int scalar get", _filter_const(
                    lambda cols, nrows, _apps=apps, _m=m_sur, _s=s_sur,
                    _r=r_sur: (b := _apps.get(_m)) is not None
                    and b.get(_s) == _r), ()
            ri = r_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int,
                         _apps=apps, _m=m_sur, _s=s_sur, _ri=ri) -> int:
                    bucket = _apps.get(_m)
                    value = bucket.get(_s) if bucket else None
                    if value is None:
                        return 0
                    col = cols[_ri]
                    idx = [i for i in range(nrows) if col[i] == value]
                    _take(cols, carry, idx)
                    return len(idx)
                return step
            return "int scalar get", builder, ()
        si = s_op[1]
        if r_op[0] == _STORE:
            ri = r_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int,
                         _apps=apps, _m=m_sur, _si=si, _ri=ri) -> int:
                    bucket = _apps.get(_m)
                    if not bucket:
                        return 0
                    get = bucket.get
                    scol = cols[_si]
                    idx: list[int] = []
                    out: list = []
                    for i in range(nrows):
                        value = get(scol[i])
                        if value is not None:
                            idx.append(i)
                            out.append(value)
                    _take(cols, carry, idx)
                    cols[_ri] = out
                    return len(idx)
                return step
            return "int scalar get", builder, (ri,)
        if r_op[0] == _CONST:
            r_sur = interner.intern(r_op[1])

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int,
                         _apps=apps, _m=m_sur, _si=si, _r=r_sur) -> int:
                    bucket = _apps.get(_m)
                    if not bucket:
                        return 0
                    get = bucket.get
                    scol = cols[_si]
                    idx = [i for i in range(nrows) if get(scol[i]) == _r]
                    _take(cols, carry, idx)
                    return len(idx)
                return step
            return "int scalar get", builder, ()
        ri = r_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _apps=apps, _m=m_sur, _si=si, _ri=ri) -> int:
                bucket = _apps.get(_m)
                if not bucket:
                    return 0
                get = bucket.get
                scol, rcol = cols[_si], cols[_ri]
                idx = [i for i in range(nrows) if get(scol[i]) == rcol[i]]
                _take(cols, carry, idx)
                return len(idx)
            return step
        return "int scalar get", builder, ()

    if r_known and s_op[0] == _STORE:
        si = s_op[1]
        if r_op[0] == _CONST:
            name, builder = _int_inverse_probe(
                view, "int scalar mr-probe", m_sur, si,
                interner.intern(r_op[1]))
            return name, builder, (si,)
        name, builder = _int_merge_join(
            view, "int scalar mr merge-join", m_sur, si, r_op[1])
        return name, builder, (si,)

    if s_op[0] == _STORE and r_op[0] == _STORE:
        si, ri = s_op[1], r_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _apps=apps, _m=m_sur, _si=si, _ri=ri) -> int:
                bucket = _apps.get(_m)
                if not bucket:
                    return 0
                pairs = list(bucket.items())
                idx: list[int] = []
                s_out: list = []
                r_out: list = []
                for i in range(nrows):
                    for subject, value in pairs:
                        idx.append(i)
                        s_out.append(subject)
                        r_out.append(value)
                _take(cols, carry, idx)
                cols[_si] = s_out
                cols[_ri] = r_out
                return len(idx)
            return step
        return "int scalar m-scan", builder, (si, ri)
    return None


def _int_set(db: Database, atom: SetMemberAtom, bound: set[Var],
             slots: dict[Var, int], policy: MatchPolicy,
             rep: list[bool], interner: OidInterner):
    """An int-column kernel for a set-membership atom, or None."""
    if atom.args or not db.sets.indexed:
        return None
    seen: set[Var] = set()
    m_op = _term_op(atom.method, db, slots, bound, seen)
    s_op = _term_op(atom.subject, db, slots, bound, seen)
    r_op = _term_op(atom.member, db, slots, bound, seen)
    if m_op[0] != _CONST:
        return None
    method = m_op[1]
    if not policy.method_ok(method):
        return None
    s_known = _known(atom.subject, bound)
    r_known = _known(atom.member, bound)
    for op, known in ((s_op, s_known), (r_op, r_known)):
        if known and op[0] != _CONST and not rep[op[1]]:
            return None

    view = db.sets.surrogate_view(interner)
    apps = view.apps
    m_sur = interner.intern(method)

    if s_known:
        if s_op[0] == _CONST:
            s_sur = interner.intern(s_op[1])
            if not r_known:
                ri = r_op[1]

                def builder(carry: tuple) -> BatchStep:
                    def step(cols: list, nrows: int,
                             _apps=apps, _m=m_sur, _s=s_sur, _ri=ri) -> int:
                        bucket = _apps.get(_m)
                        members = bucket.get(_s) if bucket else None
                        if not members:
                            return 0
                        values = list(members)
                        idx: list[int] = []
                        out: list = []
                        for i in range(nrows):
                            for value in values:
                                idx.append(i)
                                out.append(value)
                        _take(cols, carry, idx)
                        cols[_ri] = out
                        return len(idx)
                    return step
                return "int set iter", builder, (ri,)
            if r_op[0] == _CONST:
                r_sur = interner.intern(r_op[1])
                return "int set contains", _filter_const(
                    lambda cols, nrows, _apps=apps, _m=m_sur, _s=s_sur,
                    _r=r_sur: bool((b := _apps.get(_m))
                                   and (ms := b.get(_s)) and _r in ms)), ()
            # A whole column filtered against one stored bucket in a
            # single pass.  For magic guards this is the semi-join
            # pushdown: the demand set (anchored on the constant
            # ``__demand__`` subject) prunes the batch before any
            # downstream join sees it.
            ri = r_op[1]
            name = ("int semi-join (magic)" if _is_magic(method)
                    else "int set contains")

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int,
                         _apps=apps, _m=m_sur, _s=s_sur, _ri=ri) -> int:
                    bucket = _apps.get(_m)
                    members = bucket.get(_s) if bucket else None
                    if not members:
                        return 0
                    col = cols[_ri]
                    idx = [i for i in range(nrows) if col[i] in members]
                    _take(cols, carry, idx)
                    return len(idx)
                return step
            return name, builder, ()
        si = s_op[1]
        if not r_known:
            ri = r_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int,
                         _apps=apps, _m=m_sur, _si=si, _ri=ri) -> int:
                    bucket = _apps.get(_m)
                    if not bucket:
                        return 0
                    get = bucket.get
                    scol = cols[_si]
                    idx: list[int] = []
                    out: list = []
                    for i in range(nrows):
                        members = get(scol[i])
                        if members:
                            for value in members:
                                idx.append(i)
                                out.append(value)
                    _take(cols, carry, idx)
                    cols[_ri] = out
                    return len(idx)
                return step
            return "int set iter", builder, (ri,)
        if r_op[0] == _CONST:
            r_sur = interner.intern(r_op[1])

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int,
                         _apps=apps, _m=m_sur, _si=si, _r=r_sur) -> int:
                    bucket = _apps.get(_m)
                    if not bucket:
                        return 0
                    get = bucket.get
                    scol = cols[_si]
                    idx = [i for i in range(nrows)
                           if (ms := get(scol[i])) and _r in ms]
                    _take(cols, carry, idx)
                    return len(idx)
                return step
            return "int set contains", builder, ()
        ri = r_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _apps=apps, _m=m_sur, _si=si, _ri=ri) -> int:
                bucket = _apps.get(_m)
                if not bucket:
                    return 0
                get = bucket.get
                scol, rcol = cols[_si], cols[_ri]
                idx = [i for i in range(nrows)
                       if (ms := get(scol[i])) and rcol[i] in ms]
                _take(cols, carry, idx)
                return len(idx)
            return step
        return "int set contains", builder, ()

    if r_known and s_op[0] == _STORE:
        si = s_op[1]
        if r_op[0] == _CONST:
            name, builder = _int_inverse_probe(
                view, "int set mm-probe", m_sur, si,
                interner.intern(r_op[1]))
            return name, builder, (si,)
        name, builder = _int_merge_join(
            view, "int set mm merge-join", m_sur, si, r_op[1])
        return name, builder, (si,)

    if s_op[0] == _STORE and r_op[0] == _STORE:
        si, ri = s_op[1], r_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _apps=apps, _m=m_sur, _si=si, _ri=ri) -> int:
                bucket = _apps.get(_m)
                if not bucket:
                    return 0
                pairs = [(subject, value)
                         for subject, members in bucket.items()
                         for value in members]
                idx: list[int] = []
                s_out: list = []
                r_out: list = []
                for i in range(nrows):
                    for subject, value in pairs:
                        idx.append(i)
                        s_out.append(subject)
                        r_out.append(value)
                _take(cols, carry, idx)
                cols[_si] = s_out
                cols[_ri] = r_out
                return len(idx)
            return step
        return "int set m-scan", builder, (si, ri)
    return None


# ---------------------------------------------------------------------------
# Step dispatch with per-slot representation tracking
# ---------------------------------------------------------------------------

def _sync_tables(builder: StepBuilder, db: Database) -> StepBuilder:
    """Drain mirror-first pending inserts before a boxed step runs.

    Boxed kernels capture the tables' live dicts at compile time; the
    drain back-fills those same dicts in place, so one sync per step
    execution keeps every captured view coherent with the int mirrors
    the head emitters write first (see ``MethodTable.int_writer``).
    """
    scalars, sets = db.scalars, db.sets

    def wrapped(carry: tuple) -> BatchStep:
        step = builder(carry)

        def run(cols: list, nrows: int,
                _sc=scalars, _st=sets, _step=step) -> int:
            _sc.sync()
            _st.sync()
            return _step(cols, nrows)
        return run
    return wrapped


def _deref_reads(builder: StepBuilder, deref: tuple,
                 resolver: list) -> StepBuilder:
    """Resolve int read columns to OIDs before running a boxed step.

    The conversion happens in place -- the slot is boxed for every
    later step, which is exactly what the compile-time representation
    map records.  A deref is a list index per row: no hashing.
    """
    def wrapped(carry: tuple) -> BatchStep:
        step = builder(carry)

        def run(cols: list, nrows: int,
                _deref=deref, _res=resolver, _step=step) -> int:
            for slot in _deref:
                col = cols[slot]
                cols[slot] = [_res[v] for v in col]
            return _step(cols, nrows)
        return run
    return wrapped


def _compile_columnar_step(db: Database, atom: Atom, bound: set[Var],
                           slots: dict[Var, int], policy: MatchPolicy,
                           nslots: int, rep: list[bool],
                           interner: OidInterner):
    """One step with representation selection; mutates ``rep``.

    Tries the int kernel first; atoms it cannot serve fall back to the
    boxed batch kernels (with int read columns dereferenced in place).
    """
    specialized = None
    if isinstance(atom, ScalarAtom):
        specialized = _int_scalar(db, atom, bound, slots, policy, rep,
                                  interner)
    elif isinstance(atom, SetMemberAtom):
        specialized = _int_set(db, atom, bound, slots, policy, rep, interner)
    if specialized is not None:
        reads, writes = _step_io(atom, bound, slots)
        name, builder, int_writes = specialized
        for slot in int_writes:
            rep[slot] = True
        return name, builder, reads, writes
    name, builder, reads, writes = _compile_batch_step(
        db, atom, bound, slots, policy, nslots)
    deref = tuple(slot for slot in reads if rep[slot])
    if deref:
        builder = _deref_reads(builder, deref, interner.resolver())
        for slot in deref:
            rep[slot] = False
    for slot in writes:
        rep[slot] = False
    return name, _sync_tables(builder, db), reads, writes


# ---------------------------------------------------------------------------
# Columnar plans
# ---------------------------------------------------------------------------

class ColumnarPlan:
    """A plan lowered to int-surrogate columns, ready to execute.

    Interface-compatible with :class:`~repro.engine.batch.BatchPlan`:
    same counters (rows leaving each step), same solution sets, same
    seed validation.  ``reps`` records each slot's final representation
    (True = int surrogates); output columns are dereferenced to OIDs at
    the boundary unless the caller asks for ``raw`` columns (the
    engine's int-native head emitter does, to deduplicate in int
    space).
    """

    __slots__ = ("plan", "slots", "nslots", "kernel_names", "reps",
                 "interner", "_builders", "_reads", "_writes", "_entry",
                 "_out", "_plain", "_exists")

    def __init__(self, plan: Plan, slots: dict[Var, int],
                 builders: tuple[StepBuilder, ...],
                 kernel_names: tuple[str, ...],
                 reads: tuple[tuple, ...], writes: tuple[tuple, ...],
                 reps: tuple[bool, ...], interner: OidInterner) -> None:
        self.plan = plan
        self.slots = slots
        self.nslots = len(slots)
        self.kernel_names = kernel_names
        self.reps = reps
        self.interner = interner
        self._builders = builders
        self._reads = reads
        self._writes = writes
        self._entry = tuple((var, slots[var]) for var in plan.bound_in
                            if var in slots)
        self._out = tuple(slots.items())
        self._plain = None
        self._exists = None

    def _build_steps(self, out_slots: set[int]) -> tuple[BatchStep, ...]:
        return _bake_steps(self._builders, self._reads, self._writes,
                           (slot for _, slot in self._entry), out_slots)

    def _out_pairs(self, project: Sequence[Var] | None) -> tuple:
        out = self._out
        if project is not None:
            wanted = set(project)
            out = tuple(pair for pair in out if pair[0] in wanted)
        return out

    def _seed(self, binding: Binding | None) -> list:
        """One-row columns for an entry binding; entry slots intern."""
        cols: list = [None] * self.nslots
        entry = self._entry
        if binding:
            intern = self.interner.intern
            for var, slot in entry:
                value = binding.get(var)
                if value is None:
                    raise EvaluationError(
                        f"plan was compiled with {var} bound, but "
                        f"the seed binding does not bind it"
                    )
                cols[slot] = [intern(value)]
            if len(binding) > len(entry):
                slot_of = self.slots
                bound_in = self.plan.bound_in
                for var in binding:
                    if var in slot_of and var not in bound_in:
                        raise EvaluationError(
                            f"plan was compiled for bound variables "
                            f"{set(bound_in)!r}, but the seed binding "
                            f"also binds {var}"
                        )
        elif entry:
            raise EvaluationError(
                f"plan was compiled for bound variables "
                f"{set(self.plan.bound_in)!r}, but no seed binding was given"
            )
        return cols

    def column_executor(self, counters: list[int] | None = None,
                        project: Sequence[Var] | None = None,
                        raw: bool = False, budget=None):
        """``(execute, out_pairs)``: column access for batch callers.

        With ``raw=False`` (the default) output columns hold OIDs; with
        ``raw=True`` int slots keep their surrogates (consult ``reps``).
        ``budget`` is checked once per kernel step (the cooperative
        cancellation granularity of columnar execution).
        """
        out = self._out_pairs(project)
        steps = self._build_steps({slot for _, slot in out})
        reps = self.reps
        deref = (() if raw
                 else tuple(slot for _, slot in out if reps[slot]))
        resolver = self.interner.resolver()
        check = budget.check if budget is not None else None

        def execute(binding: Binding | None = None):
            cols = self._seed(binding)
            nrows = 1
            if counters is None:
                for step in steps:
                    fault_point("columnar.step")
                    if check is not None:
                        check("columnar.step")
                    nrows = step(cols, nrows)
                    if not nrows:
                        break
            else:
                for index, step in enumerate(steps):
                    fault_point("columnar.step")
                    if check is not None:
                        check("columnar.step")
                    nrows = step(cols, nrows)
                    counters[index] += nrows
                    if not nrows:
                        break
            if nrows:
                for slot in deref:
                    col = cols[slot]
                    cols[slot] = [resolver[v] for v in col]
            return cols, nrows
        return activated(execute, budget), out

    def executor(self, counters: list[int] | None = None,
                 project: Sequence[Var] | None = None,
                 budget=None
                 ) -> Callable[[Binding | None], Iterator[Binding]]:
        """A dict-yielding entry point (CompiledPlan.executor parity)."""
        run, out = self.column_executor(counters, project, budget=budget)

        def execute(binding: Binding | None = None) -> Iterator[Binding]:
            cols, nrows = run(binding)
            base = dict(binding) if binding else None
            for i in range(nrows):
                row = dict(base) if base else {}
                for var, slot in out:
                    row[var] = cols[slot][i]
                yield row
        return execute

    def execute(self, binding: Binding | None = None,
                counters: list[int] | None = None,
                budget=None) -> Iterator[Binding]:
        """Yield every solution extending ``binding`` (dict form)."""
        if counters is None and budget is None:
            if self._plain is None:
                self._plain = self.executor()
            return self._plain(binding)
        return self.executor(counters, budget=budget)(binding)

    def exists(self, binding: Binding | None = None, stats=None,
               budget=None) -> bool:
        """True when at least one solution extends ``binding``.

        Chunked and short-circuiting, like
        :meth:`~repro.engine.batch.BatchPlan.exists`.
        """
        steps = self._exists
        if steps is None:
            steps = self._exists = self._build_steps(set())
        if stats is not None:
            stats.batches += 1
        return exists_over(steps, self._seed(binding), 1, stats, budget)


def compile_columnar_plan(db: Database, plan: Plan,
                          policy: MatchPolicy = UNRESTRICTED) -> ColumnarPlan:
    """Lower ``plan`` to int-surrogate columnar steps (memoised)."""
    key = ("columnar", db, policy.max_method_depth)
    cached = plan.compiled_cache.get(key)
    if cached is not None:
        return cached
    interner = db.interner
    atoms = [step.atom for step in plan.steps]
    slots = _assign_slots(atoms, plan.bound_in)
    nslots = len(slots)
    rep = [False] * nslots
    for var in plan.bound_in:
        if var in slots:
            rep[slots[var]] = True
    bound: set[Var] = set(plan.bound_in)
    builders: list[StepBuilder] = []
    names: list[str] = []
    reads: list[tuple] = []
    writes: list[tuple] = []
    for atom in atoms:
        name, builder, step_reads, step_writes = _compile_columnar_step(
            db, atom, bound, slots, policy, nslots, rep, interner)
        builders.append(builder)
        names.append(name)
        reads.append(step_reads)
        writes.append(step_writes)
        bound.update(_atom_variables(atom))
    compiled = ColumnarPlan(plan, slots, tuple(builders), tuple(names),
                            tuple(reads), tuple(writes), tuple(rep),
                            interner)
    plan.compiled_cache[key] = compiled
    return compiled


# ---------------------------------------------------------------------------
# Delta specialization (semi-naive evaluation)
# ---------------------------------------------------------------------------

class IntDeltaIndex(DeltaIndex):
    """A realizer log partition that also interns its buckets once.

    Every seeded rule position of one round reads the same delta;
    interning each bucket once here (instead of once per position) keeps
    the only remaining OID hashing of the columnar fixpoint loop linear
    in the number of *new* facts.
    """

    __slots__ = ("interner", "_int_buckets")

    def __init__(self, entries: list, interner: OidInterner) -> None:
        super().__init__(entries)
        self.interner = interner
        self._int_buckets: dict = {}

    def int_bucket(self, kind: str, method: Oid) -> tuple[list, list]:
        """``(subjects, results)`` surrogate columns of one bucket."""
        key = (kind, method)
        found = self._int_buckets.get(key)
        if found is None:
            intern = self.interner.intern
            s_out: list[int] = []
            r_out: list[int] = []
            for entry in self.bucket(kind, method):
                if entry[3]:
                    continue
                if len(entry) == 7:
                    # The columnar head emitter stamps the surrogates
                    # onto its log entries; no re-interning needed.
                    s_out.append(entry[5])
                    r_out.append(entry[6])
                else:
                    s_out.append(intern(entry[2]))
                    r_out.append(intern(entry[4]))
            found = self._int_buckets[key] = (s_out, r_out)
        return found


class ColumnarDeltaPlan:
    """A delta-seeded rule body over int columns.

    Counters are ``[seeds, step rows...]``, matching
    :class:`~repro.engine.batch.BatchDeltaPlan` exactly.
    """

    __slots__ = ("slots", "nslots", "kernel_names", "reps", "interner",
                 "_seed", "_builders", "_reads", "_writes", "_out",
                 "_plain")

    def __init__(self, slots: dict[Var, int], seed, seed_writes: tuple,
                 builders: tuple[StepBuilder, ...],
                 kernel_names: tuple[str, ...],
                 reads: tuple[tuple, ...], writes: tuple[tuple, ...],
                 reps: tuple[bool, ...], interner: OidInterner) -> None:
        self.slots = slots
        self.nslots = len(slots)
        self.kernel_names = kernel_names
        self.reps = reps
        self.interner = interner
        self._seed = (seed, seed_writes)
        self._builders = builders
        self._reads = reads
        self._writes = writes
        self._out = tuple(slots.items())
        self._plain = None

    def _build_steps(self, out_slots: set[int]) -> tuple[BatchStep, ...]:
        return _bake_steps(self._builders, self._reads, self._writes,
                           self._seed[1], out_slots)

    def column_executor(self, counters: list[int] | None = None,
                        project: Sequence[Var] | None = None,
                        raw: bool = False, budget=None):
        """``(execute, out_pairs)`` with ``execute(delta) -> (cols, nrows)``."""
        out = self._out
        if project is not None:
            wanted = set(project)
            out = tuple(pair for pair in out if pair[0] in wanted)
        steps = self._build_steps({slot for _, slot in out})
        seed, _ = self._seed
        nslots = self.nslots
        reps = self.reps
        deref = (() if raw
                 else tuple(slot for _, slot in out if reps[slot]))
        resolver = self.interner.resolver()
        check = budget.check if budget is not None else None

        def execute(delta):
            cols: list = [None] * nslots
            nrows = seed(cols, delta)
            if counters is None:
                for step in steps:
                    if not nrows:
                        break
                    fault_point("columnar.step")
                    if check is not None:
                        check("columnar.step")
                    nrows = step(cols, nrows)
            else:
                counters[0] += nrows
                for index, step in enumerate(steps):
                    if not nrows:
                        break
                    fault_point("columnar.step")
                    if check is not None:
                        check("columnar.step")
                    nrows = step(cols, nrows)
                    counters[index + 1] += nrows
            if nrows:
                for slot in deref:
                    col = cols[slot]
                    cols[slot] = [resolver[v] for v in col]
            return cols, nrows
        return activated(execute, budget), out

    def executor(self, counters: list[int] | None = None,
                 project: Sequence[Var] | None = None,
                 budget=None):
        """A dict-yielding entry point taking the delta log."""
        run, out = self.column_executor(counters, project, budget=budget)

        def execute(delta) -> Iterator[Binding]:
            cols, nrows = run(delta)
            for i in range(nrows):
                yield {var: cols[slot][i] for var, slot in out}
        return execute

    def execute(self, delta, counters: list[int] | None = None
                ) -> Iterator[Binding]:
        if counters is None:
            if self._plain is None:
                self._plain = self.executor()
            return self._plain(delta)
        return self.executor(counters)(delta)


def compile_columnar_delta_plan(db: Database, atom: Atom, plan: Plan,
                                policy: MatchPolicy = UNRESTRICTED
                                ) -> ColumnarDeltaPlan:
    """Compile ``atom`` as an int-column delta seed chained into ``plan``."""
    interner = db.interner
    wanted, rest_atoms, slots, nslots, ops, nargs, seed_writes = \
        _delta_shape(db, atom, plan)
    m_op, s_op, r_op = ops[0], ops[1], ops[-1]
    rep = [False] * nslots

    if m_op[0] == _CONST and not policy.method_ok(m_op[1]):
        def seed(cols, delta):
            return 0
        seed_name = f"batch delta-{wanted} seed"
    elif (nargs == 0 and m_op[0] == _CONST
            and s_op[0] == _STORE and r_op[0] == _STORE):
        # The hot shape seeds int columns straight from the delta's
        # interned bucket (a plain Oid log is partitioned first).
        method = m_op[1]
        si, ri = s_op[1], r_op[1]
        rep[si] = rep[ri] = True

        def seed(cols, delta, _wanted=wanted, _m=method, _si=si, _ri=ri):
            if not isinstance(delta, IntDeltaIndex):
                delta = IntDeltaIndex(getattr(delta, "entries", delta),
                                      interner)
            s_out, r_out = delta.int_bucket(_wanted, _m)
            cols[_si] = s_out
            cols[_ri] = r_out
            return len(s_out)
        seed_name = f"int delta-{wanted} seed"
    else:
        seed = _generic_delta_seed(wanted, ops, nargs, seed_writes, nslots,
                                   policy, m_op)
        seed_name = f"batch delta-{wanted} seed"

    bound: set[Var] = set(atom.variables())
    builders: list[StepBuilder] = []
    names: list[str] = [seed_name]
    reads: list[tuple] = []
    writes: list[tuple] = []
    for rest_atom in rest_atoms:
        name, builder, step_reads, step_writes = _compile_columnar_step(
            db, rest_atom, bound, slots, policy, nslots, rep, interner)
        builders.append(builder)
        names.append(name)
        reads.append(step_reads)
        writes.append(step_writes)
        bound.update(_atom_variables(rest_atom))
    return ColumnarDeltaPlan(slots, seed, seed_writes, tuple(builders),
                             tuple(names), tuple(reads), tuple(writes),
                             tuple(rep), interner)


# ---------------------------------------------------------------------------
# Int-native head realisation
# ---------------------------------------------------------------------------

def columnar_head_emitter(db: Database, rule, cplan):
    """An int-deduplicating head realizer for ``rule``, or None.

    Serves the same hot shape as :func:`repro.engine.batch.head_emitter`
    (one scalar/set filter, no ``@``-parameters, no change log), but
    consumes *raw* solution columns and writes **mirror-first**:
    duplicate derivations are detected with int probes against the
    table's surrogate mirror, new facts land in the mirror and a
    pending queue (``MethodTable.int_writer``), and the boxed
    facts/index dicts are back-filled lazily on the next boxed read --
    so a fixpoint iteration never hashes an OID per emitted row, and a
    duplicate row never even resolves one.  Log entries carry the
    surrogate pair at positions 5-6 (consumed by
    :meth:`IntDeltaIndex.int_bucket`); every reader indexes
    positionally, so the longer tuples are transparent elsewhere.
    Asserted facts are identical to the boxed emitter's.
    """
    from repro.engine.incremental import simple_head

    if db.change_log is not None:
        return None
    spec = simple_head(rule)
    if spec is None or len(spec.templates) != 1:
        return None
    template = spec.templates[0]
    if template[0] == "isa":
        return None
    kind, method_t, subject_t, args_t, result_t = template
    if args_t:
        return None
    method = db.lookup_name(method_t.value)
    if _builtins.is_builtin_scalar(method):
        return None

    interner = cplan.interner
    resolver = interner.resolver()
    slot_of = cplan.slots
    reps = cplan.reps

    def component(term):
        """``(slot, is_int, const_sur, const_oid)`` for one head term."""
        if isinstance(term, Name):
            oid = db.lookup_name(term.value)
            return None, False, interner.intern(oid), oid
        slot = slot_of.get(term)
        if slot is None:
            return (), False, 0, None  # unmapped variable: cannot emit
        return slot, reps[slot], 0, None

    s_part = component(subject_t)
    r_part = component(result_t)
    if s_part[0] == () or r_part[0] == ():
        return None

    m_sur = interner.intern(method)
    if kind == "scalar":
        db.scalars.surrogate_view(interner)
        writer = db.scalars.int_writer(method, m_sur)
    else:
        db.sets.surrogate_view(interner)
        writer = db.sets.int_writer(method, m_sur)
    check_writer = writer.check
    s_slot, s_int, s_sur, s_oid = s_part
    r_slot, r_int, r_sur, r_oid = r_part
    intern = interner.intern

    def emit(cols: list, nrows: int, log: list) -> None:
        # As for the boxed emitter's hot shape: no universe
        # registration needed -- every column value originates from a
        # registered fact, and the head constants were registered when
        # this emitter resolved them.
        check_writer()
        scol = cols[s_slot] if s_slot is not None else None
        rcol = cols[r_slot] if r_slot is not None else None
        append = log.append
        for i in range(nrows):
            if scol is None:
                s = s_sur
            elif s_int:
                s = scol[i]
            else:
                s = intern(scol[i])
            if rcol is None:
                r = r_sur
            elif r_int:
                r = rcol[i]
            else:
                r = intern(rcol[i])
            if writer(s, r):
                append((kind, method, resolver[s], (), resolver[r], s, r))
    return emit


__all__ = [
    "ColumnarDeltaPlan",
    "ColumnarPlan",
    "IntDeltaIndex",
    "columnar_head_emitter",
    "compile_columnar_delta_plan",
    "compile_columnar_plan",
    "head_emitter",
]
