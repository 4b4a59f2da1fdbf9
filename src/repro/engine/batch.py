"""Set-at-a-time batched plan execution: columns of bindings.

The compiled executor (:mod:`repro.engine.compile`) removed per-tuple
``isinstance`` dispatch and dict copies, but it still *drives* the join
tuple-at-a-time: every candidate row resumes a chain of generator
frames, one per plan step.  At fixpoint scale that interpreter dispatch
-- not data access -- dominates.  This module executes the same static
plans **set-at-a-time**: a batch of bindings is a list of *columns*
(one parallel value list per variable slot), and each step maps a whole
batch to the next with bulk dict probes and single-pass loops:

- **probe** steps (``scalar get``, ``set iter``, index probes) loop
  once over the incoming batch, probing the live table views per row --
  no generator is created, no register file is re-entered;
- **scan** steps materialise their index bucket wholesale and join it
  against the batch (a batch of one row -- the usual first step --
  degenerates to a plain bulk scan);
- **filter** steps (comparisons, ``isa check``, ``set contains``) run
  as a single selection pass over the columns;
- steps with no batched form (negation, superset atoms, dynamic method
  dispatch, ``@``-parameters) fall back to a row-at-a-time loop over
  the corresponding compiled kernel, preserving its exact semantics.

Surviving rows are *compacted*: each step keeps only the columns later
steps (or the projection) still need, so dead variables cost nothing.
Row counts per step equal the tuple-at-a-time executor's per-step
extension counters exactly -- batching changes the execution schedule
(breadth-first instead of depth-first), never the set of solutions, so
EXPLAIN actuals and ``EngineStats.tuples`` stay comparable across
executors.

:class:`BatchDeltaPlan` gives semi-naive evaluation its batched form:
the whole delta log becomes the *initial batch* in one pass, and
:func:`head_emitter` closes the loop on the output side -- simple rule
heads are asserted straight from the solution columns, skipping the
per-binding dict build and head-spine walk entirely.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.core import builtins as _builtins
from repro.core.ast import Molecule, Name, ScalarFilter, Var
from repro.core.entailment import compare_oids
from repro.engine.compile import (
    _CONST,
    _STORE,
    _apply_row,
    _assign_slots,
    _atom_variables,
    _compile_step,
    _known,
    _term_op,
)
from repro.engine.budget import (
    ROWWISE_CHECK_INTERVAL,
    active_budget,
    pop_active,
    push_active,
)
from repro.engine.delta import DeltaIndex
from repro.engine.matching import UNRESTRICTED, Binding, MatchPolicy
from repro.engine.planner import Plan
from repro.errors import EvaluationError
from repro.testing.faults import fault_point
from repro.flogic.atoms import (
    Atom,
    ComparisonAtom,
    IsaAtom,
    NegationAtom,
    ScalarAtom,
    SetMemberAtom,
)
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid, Oid

#: A batched step, built with its compaction set baked in: mutates the
#: column file in place and returns the new row count.
BatchStep = Callable[[list, int], int]

#: A step builder: ``builder(carry)`` bakes the slots to compact on
#: row selection and returns the runnable :data:`BatchStep`.
StepBuilder = Callable[[tuple], BatchStep]


def _take(cols: list, carry: tuple, idx: list) -> None:
    """Compact the carried columns down to the selected row indices."""
    for slot in carry:
        col = cols[slot]
        cols[slot] = [col[i] for i in idx]


def _step_io(atom: Atom, bound: set[Var],
             slots: dict[Var, int]) -> tuple[tuple, tuple]:
    """(read slots, written slots) of one step -- drives compaction."""
    if isinstance(atom, NegationAtom):
        reads = tuple(slots[v] for v in atom.inner_variables() if v in bound)
        return reads, ()
    variables = _atom_variables(atom)
    reads = tuple(slots[v] for v in variables if v in bound)
    writes = tuple(slots[v] for v in variables if v not in bound)
    return reads, writes


# ---------------------------------------------------------------------------
# The generic row-at-a-time fallback (wraps a compiled tuple kernel)
# ---------------------------------------------------------------------------

def _rowwise(nslots: int, reads: tuple, writes: tuple, kern) -> StepBuilder:
    """Drive a compiled tuple kernel once per batch row.

    Keeps the kernel's exact semantics (negation re-entry, superset
    bridging, dynamic dispatch) while the surrounding join stays
    batched; only this step pays the per-row generator cost.

    The loop is also a budget checkpoint: the batched executors check
    their budget once per *step*, but a row-at-a-time fallback can do an
    entire batch worth of work inside one step, so a timeout or
    ``cancel()`` would otherwise go unnoticed until the whole batch
    finished.  The activated budget (:func:`~repro.engine.budget.active_budget`)
    is consulted every :data:`~repro.engine.budget.ROWWISE_CHECK_INTERVAL`
    rows, pinning detection latency to one row interval.
    """
    mask = ROWWISE_CHECK_INTERVAL - 1

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int) -> int:
            budget = active_budget() if nrows > mask else None
            check = budget.check if budget is not None else None
            regs = [None] * nslots
            idx: list[int] = []
            outs = [[] for _ in writes]
            read_cols = [(slot, cols[slot]) for slot in reads]
            for i in range(nrows):
                if check is not None and i and not (i & mask):
                    check("batch.rowwise")
                for slot, col in read_cols:
                    regs[slot] = col[i]
                for _ in kern(regs):
                    idx.append(i)
                    for out, slot in zip(outs, writes):
                        out.append(regs[slot])
            _take(cols, carry, idx)
            for out, slot in zip(outs, writes):
                cols[slot] = out
            return len(idx)
        return step
    return builder


def _empty_builder(carry: tuple) -> BatchStep:
    """A statically unsatisfiable step: every batch dies here."""
    def step(cols: list, nrows: int) -> int:
        return 0
    return step


def activated(execute, budget):
    """Wrap an executor so ``budget`` is active while it runs.

    Rowwise fallback steps pick the budget up mid-batch through
    :func:`~repro.engine.budget.active_budget`; with no budget the
    executor is returned unwrapped (zero overhead on the common path).
    """
    if budget is None:
        return execute

    def run(arg=None):
        token = push_active(budget)
        try:
            return execute(arg)
        finally:
            pop_active(token)
    return run


# ---------------------------------------------------------------------------
# Short-circuiting existence over baked steps
# ---------------------------------------------------------------------------

#: Rows pushed through the remaining steps at a time once an existence
#: check sees a batch bigger than this.  Small enough that a satisfiable
#: ``ask()`` touches a sliver of the batch; big enough that the
#: per-chunk slicing overhead stays negligible when every row dies.
_EXISTS_CHUNK = 64

def exists_over(steps: Sequence[BatchStep], cols: list, nrows: int,
                stats=None, budget=None) -> bool:
    """True as soon as any row survives every step, depth-first.

    A plain batched execution materialises the *whole* batch at every
    step even though ``ask()`` needs a single witness.  This driver
    instead recurses depth-first over chunks of at most
    :data:`_EXISTS_CHUNK` rows, so the first surviving terminal row
    abandons all remaining work.  Steps are pure against a database
    that is frozen during body evaluation, so skipping rows cannot
    change the verdict.  ``stats.batch_rows`` (when given) accrues only
    the rows actually pushed through a step; ``budget`` (a
    :class:`~repro.engine.budget.QueryBudget`) is checked once per step
    executed (and every 256 rows inside rowwise fallback steps, which
    pick the activated budget up mid-batch).
    """
    if budget is None:
        return _exists_from(steps, 0, cols, nrows, stats, None)
    token = push_active(budget)
    try:
        return _exists_from(steps, 0, cols, nrows, stats, budget)
    finally:
        pop_active(token)


def _exists_from(steps, k: int, cols: list, nrows: int, stats,
                 budget) -> bool:
    nsteps = len(steps)
    while True:
        if k == nsteps:
            return nrows > 0
        if nrows > _EXISTS_CHUNK:
            break
        if budget is not None:
            budget.check("batch.step")
        nrows = steps[k](cols, nrows)
        if stats is not None:
            stats.batch_rows += nrows
        if not nrows:
            return False
        k += 1
    for start in range(0, nrows, _EXISTS_CHUNK):
        stop = min(start + _EXISTS_CHUNK, nrows)
        chunk = [col[start:stop] if type(col) is list else col
                 for col in cols]
        if _exists_from(steps, k, chunk, stop - start, stats, budget):
            return True
    return False


# ---------------------------------------------------------------------------
# Column access helpers
# ---------------------------------------------------------------------------

def _filter_const(passes_of_cols) -> StepBuilder:
    """A filter whose verdict is uniform for the whole batch.

    ``passes_of_cols(cols, nrows)`` decides once per execution; the
    batch either survives untouched or dies.
    """
    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int) -> int:
            return nrows if passes_of_cols(cols, nrows) else 0
        return step
    return builder


# ---------------------------------------------------------------------------
# Scalar steps
# ---------------------------------------------------------------------------

def _batch_scalar(db: Database, atom: ScalarAtom, bound: set[Var],
                  slots: dict[Var, int], policy: MatchPolicy):
    seen: set[Var] = set()
    m_op = _term_op(atom.method, db, slots, bound, seen)
    s_op = _term_op(atom.subject, db, slots, bound, seen)
    tuple(_term_op(a, db, slots, bound, seen) for a in atom.args)
    r_op = _term_op(atom.result, db, slots, bound, seen)
    s_known = _known(atom.subject, bound)
    r_known = _known(atom.result, bound)

    if m_op[0] != _CONST or atom.args:
        return None
    method = m_op[1]
    if not policy.method_ok(method):
        return "none (method over depth)", _empty_builder
    if _builtins.is_builtin_scalar(method):
        return _batch_self(s_op, r_op, s_known, r_known)
    if s_known:
        return _batch_scalar_get(db, method, s_op, r_op, r_known)
    if db.scalars.indexed and r_known and s_op[0] == _STORE:
        return _batch_inverse_probe(db.scalars.by_method_result_view(),
                                    "batch scalar mr-probe", method,
                                    s_op, r_op)
    if db.scalars.indexed and s_op[0] == _STORE and r_op[0] == _STORE:
        return _batch_scalar_mscan(db, method, s_op, r_op)
    return None


def _batch_self(s_op, r_op, s_known: bool, r_known: bool):
    """The built-in identity ``o.self = o`` over a batch."""
    if s_known and r_op[0] == _STORE:
        ri = r_op[1]
        if s_op[0] == _CONST:
            s_const = s_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int) -> int:
                    cols[ri] = [s_const] * nrows
                    return nrows
                return step
        else:
            si = s_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int) -> int:
                    cols[ri] = cols[si][:]
                    return nrows
                return step
        return "batch self fwd", builder
    if r_known and s_op[0] == _STORE:
        si = s_op[1]
        if r_op[0] == _CONST:
            r_const = r_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int) -> int:
                    cols[si] = [r_const] * nrows
                    return nrows
                return step
        else:
            ri = r_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int) -> int:
                    cols[si] = cols[ri][:]
                    return nrows
                return step
        return "batch self rev", builder
    if s_known and r_known:
        builder = _batch_equality(s_op, r_op)
        return "batch self check", builder
    return None  # universe enumeration: rowwise


def _batch_equality(l_op, r_op) -> StepBuilder:
    """Filter rows where two known positions denote the same object."""
    if l_op[0] == _CONST and r_op[0] == _CONST:
        same = l_op[1] == r_op[1]
        return _filter_const(lambda cols, nrows, _s=same: _s)
    if l_op[0] == _CONST or r_op[0] == _CONST:
        const = l_op[1] if l_op[0] == _CONST else r_op[1]
        slot = r_op[1] if l_op[0] == _CONST else l_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int) -> int:
                col = cols[slot]
                idx = [i for i in range(nrows) if col[i] == const]
                _take(cols, carry, idx)
                return len(idx)
            return step
        return builder
    li, ri = l_op[1], r_op[1]

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int) -> int:
            left, right = cols[li], cols[ri]
            idx = [i for i in range(nrows) if left[i] == right[i]]
            _take(cols, carry, idx)
            return len(idx)
        return step
    return builder


def _batch_scalar_get(db: Database, method: Oid, s_op, r_op, r_known: bool):
    """Method and subject known: one primary-dict probe per row."""
    facts = db.scalars.primary_view()
    if s_op[0] == _CONST:
        key = (method, s_op[1], ())
        if r_op[0] == _STORE:
            ri = r_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int,
                         _get=facts.get, _key=key, _ri=ri) -> int:
                    value = _get(_key)
                    if value is None:
                        return 0
                    cols[_ri] = [value] * nrows
                    return nrows
                return step
            return "batch scalar get", builder
        if r_op[0] == _CONST:
            r_const = r_op[1]
            return "batch scalar get", _filter_const(
                lambda cols, nrows, _get=facts.get, _key=key, _r=r_const:
                _get(_key) == _r)
        ri = r_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _get=facts.get, _key=key, _ri=ri) -> int:
                value = _get(_key)
                if value is None:
                    return 0
                col = cols[_ri]
                idx = [i for i in range(nrows) if col[i] == value]
                _take(cols, carry, idx)
                return len(idx)
            return step
        return "batch scalar get", builder
    si = s_op[1]
    if r_op[0] == _STORE:
        ri = r_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _get=facts.get, _m=method, _si=si, _ri=ri) -> int:
                scol = cols[_si]
                idx: list[int] = []
                out: list = []
                for i in range(nrows):
                    value = _get((_m, scol[i], ()))
                    if value is not None:
                        idx.append(i)
                        out.append(value)
                _take(cols, carry, idx)
                cols[_ri] = out
                return len(idx)
            return step
        return "batch scalar get", builder
    if r_op[0] == _CONST:
        r_const = r_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _get=facts.get, _m=method, _si=si, _r=r_const) -> int:
                scol = cols[_si]
                idx = [i for i in range(nrows)
                       if _get((_m, scol[i], ())) == _r]
                _take(cols, carry, idx)
                return len(idx)
            return step
        return "batch scalar get", builder
    ri = r_op[1]

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int,
                 _get=facts.get, _m=method, _si=si, _ri=ri) -> int:
            scol, rcol = cols[_si], cols[_ri]
            idx = [i for i in range(nrows)
                   if _get((_m, scol[i], ())) == rcol[i]]
            _take(cols, carry, idx)
            return len(idx)
        return step
    return "batch scalar get", builder


def _batch_inverse_probe(buckets, name: str, method: Oid, s_op, r_op):
    """Result/member and method known, subject written: inverse probes.

    One builder serves both tables: ``buckets`` is the scalar
    (method, result) or set (method, member) index view, and the only
    other difference is the kernel name.
    """
    si = s_op[1]
    if r_op[0] == _CONST:
        def builder(carry: tuple) -> BatchStep:
            key = (method, r_op[1])

            def step(cols: list, nrows: int,
                     _b=buckets, _key=key, _si=si) -> int:
                found = _b.get(_key)
                subjects = ([k[1] for k in found if not k[2]]
                            if found else ())
                if not subjects:
                    return 0
                idx: list[int] = []
                out: list = []
                for i in range(nrows):
                    for subject in subjects:
                        idx.append(i)
                        out.append(subject)
                _take(cols, carry, idx)
                cols[_si] = out
                return len(idx)
            return step
        return name, builder
    ri = r_op[1]

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int,
                 _b=buckets, _m=method, _ri=ri, _si=si) -> int:
            rcol = cols[_ri]
            idx: list[int] = []
            out: list = []
            for i in range(nrows):
                found = _b.get((_m, rcol[i]))
                if found:
                    for key in found:
                        if key[2]:
                            continue
                        idx.append(i)
                        out.append(key[1])
            _take(cols, carry, idx)
            cols[_si] = out
            return len(idx)
        return step
    return name, builder


def _batch_scalar_mscan(db: Database, method: Oid, s_op, r_op):
    """Method known, both positions written: join the method bucket."""
    buckets = db.scalars.by_method_view()
    si, ri = s_op[1], r_op[1]

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int,
                 _b=buckets, _m=method, _si=si, _ri=ri) -> int:
            bucket = _b.get(_m)
            if not bucket:
                return 0
            pairs = [(key[1], value) for key, value in bucket.items()
                     if not key[2]]
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
    return "batch scalar m-scan", builder


# ---------------------------------------------------------------------------
# Set-membership steps
# ---------------------------------------------------------------------------

def _batch_set(db: Database, atom: SetMemberAtom, bound: set[Var],
               slots: dict[Var, int], policy: MatchPolicy):
    seen: set[Var] = set()
    m_op = _term_op(atom.method, db, slots, bound, seen)
    s_op = _term_op(atom.subject, db, slots, bound, seen)
    tuple(_term_op(a, db, slots, bound, seen) for a in atom.args)
    r_op = _term_op(atom.member, db, slots, bound, seen)
    s_known = _known(atom.subject, bound)
    r_known = _known(atom.member, bound)

    if m_op[0] != _CONST or atom.args:
        return None
    method = m_op[1]
    if not policy.method_ok(method):
        return "none (method over depth)", _empty_builder
    if s_known:
        return _batch_set_app(db, method, s_op, r_op, r_known)
    if db.sets.indexed and r_known and s_op[0] == _STORE:
        return _batch_inverse_probe(db.sets.by_method_member_view(),
                                    "batch set mm-probe", method,
                                    s_op, r_op)
    if db.sets.indexed and s_op[0] == _STORE and r_op[0] == _STORE:
        return _batch_set_mscan(db, method, s_op, r_op)
    return None


def _batch_set_app(db: Database, method: Oid, s_op, r_op, r_known: bool):
    """Method and subject known: probe one application's set per row."""
    facts = db.sets.primary_view()
    if s_op[0] == _CONST:
        key = (method, s_op[1], ())
        if not r_known:
            ri = r_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int,
                         _get=facts.get, _key=key, _ri=ri) -> int:
                    bucket = _get(_key)
                    if not bucket:
                        return 0
                    members = list(bucket)
                    idx: list[int] = []
                    out: list = []
                    for i in range(nrows):
                        for value in members:
                            idx.append(i)
                            out.append(value)
                    _take(cols, carry, idx)
                    cols[_ri] = out
                    return len(idx)
                return step
            return "batch set iter", builder
        if r_op[0] == _CONST:
            r_const = r_op[1]
            return "batch set contains", _filter_const(
                lambda cols, nrows, _get=facts.get, _key=key, _r=r_const:
                bool((b := _get(_key)) and _r in b))
        ri = r_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _get=facts.get, _key=key, _ri=ri) -> int:
                bucket = _get(_key)
                if not bucket:
                    return 0
                col = cols[_ri]
                idx = [i for i in range(nrows) if col[i] in bucket]
                _take(cols, carry, idx)
                return len(idx)
            return step
        return "batch set contains", builder
    si = s_op[1]
    if not r_known:
        ri = r_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _get=facts.get, _m=method, _si=si, _ri=ri) -> int:
                scol = cols[_si]
                idx: list[int] = []
                out: list = []
                for i in range(nrows):
                    bucket = _get((_m, scol[i], ()))
                    if bucket:
                        for value in bucket:
                            idx.append(i)
                            out.append(value)
                _take(cols, carry, idx)
                cols[_ri] = out
                return len(idx)
            return step
        return "batch set iter", builder
    if r_op[0] == _CONST:
        r_const = r_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _get=facts.get, _m=method, _si=si, _r=r_const) -> int:
                scol = cols[_si]
                idx: list[int] = []
                for i in range(nrows):
                    bucket = _get((_m, scol[i], ()))
                    if bucket and _r in bucket:
                        idx.append(i)
                _take(cols, carry, idx)
                return len(idx)
            return step
        return "batch set contains", builder
    ri = r_op[1]

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int,
                 _get=facts.get, _m=method, _si=si, _ri=ri) -> int:
            scol, rcol = cols[_si], cols[_ri]
            idx: list[int] = []
            for i in range(nrows):
                bucket = _get((_m, scol[i], ()))
                if bucket and rcol[i] in bucket:
                    idx.append(i)
            _take(cols, carry, idx)
            return len(idx)
        return step
    return "batch set contains", builder


def _batch_set_mscan(db: Database, method: Oid, s_op, r_op):
    """Method known, both positions written: join all memberships."""
    buckets = db.sets.by_method_view()
    si, ri = s_op[1], r_op[1]

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int,
                 _b=buckets, _m=method, _si=si, _ri=ri) -> int:
            apps = _b.get(_m)
            if not apps:
                return 0
            pairs = [(key[1], value) for key, members in apps.items()
                     if not key[2] for value in members]
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
    return "batch set m-scan", builder


# ---------------------------------------------------------------------------
# Isa and comparison steps
# ---------------------------------------------------------------------------

def _batch_isa(db: Database, atom: IsaAtom, bound: set[Var],
               slots: dict[Var, int]):
    seen: set[Var] = set()
    o_op = _term_op(atom.obj, db, slots, bound, seen)
    c_op = _term_op(atom.cls, db, slots, bound, seen)
    o_known = _known(atom.obj, bound)
    c_known = _known(atom.cls, bound)
    if o_known and c_known:
        isa = db.isa
        if o_op[0] == _CONST and c_op[0] == _CONST:
            obj, cls = o_op[1], c_op[1]
            return "batch isa check", _filter_const(
                lambda cols, nrows, _isa=isa, _o=obj, _c=cls: _isa(_o, _c))
        oi = o_op[1] if o_op[0] != _CONST else None
        ci = c_op[1] if c_op[0] != _CONST else None
        o_const = o_op[1] if o_op[0] == _CONST else None
        c_const = c_op[1] if c_op[0] == _CONST else None

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int, _isa=isa) -> int:
                ocol = cols[oi] if oi is not None else None
                ccol = cols[ci] if ci is not None else None
                idx = [
                    i for i in range(nrows)
                    if _isa(ocol[i] if ocol is not None else o_const,
                            ccol[i] if ccol is not None else c_const)
                ]
                _take(cols, carry, idx)
                return len(idx)
            return step
        return "batch isa check", builder
    if o_known and c_op[0] == _STORE:
        ci = c_op[1]
        classes_of = db.classes_of
        if o_op[0] == _CONST:
            obj = o_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int,
                         _of=classes_of, _o=obj, _ci=ci) -> int:
                    classes = list(_of(_o))
                    if not classes:
                        return 0
                    idx: list[int] = []
                    out: list = []
                    for i in range(nrows):
                        for cls in classes:
                            idx.append(i)
                            out.append(cls)
                    _take(cols, carry, idx)
                    cols[_ci] = out
                    return len(idx)
                return step
            return "batch isa classes-of", builder
        oi = o_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _of=classes_of, _oi=oi, _ci=ci) -> int:
                ocol = cols[_oi]
                idx: list[int] = []
                out: list = []
                for i in range(nrows):
                    for cls in _of(ocol[i]):
                        idx.append(i)
                        out.append(cls)
                _take(cols, carry, idx)
                cols[_ci] = out
                return len(idx)
            return step
        return "batch isa classes-of", builder
    if c_known and o_op[0] == _STORE:
        oi = o_op[1]
        members = db.members
        if c_op[0] == _CONST:
            cls = c_op[1]

            def builder(carry: tuple) -> BatchStep:
                def step(cols: list, nrows: int,
                         _members=members, _c=cls, _oi=oi) -> int:
                    extent = list(_members(_c))
                    if not extent:
                        return 0
                    idx: list[int] = []
                    out: list = []
                    for i in range(nrows):
                        for obj in extent:
                            idx.append(i)
                            out.append(obj)
                    _take(cols, carry, idx)
                    cols[_oi] = out
                    return len(idx)
                return step
            return "batch isa members", builder
        ci = c_op[1]

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int,
                     _members=members, _ci=ci, _oi=oi) -> int:
                ccol = cols[_ci]
                idx: list[int] = []
                out: list = []
                for i in range(nrows):
                    for obj in _members(ccol[i]):
                        idx.append(i)
                        out.append(obj)
                _take(cols, carry, idx)
                cols[_oi] = out
                return len(idx)
            return step
        return "batch isa members", builder
    return None  # full hierarchy scan: rowwise


def _batch_compare(db: Database, atom: ComparisonAtom, bound: set[Var],
                   slots: dict[Var, int]):
    if not (_known(atom.left, bound) and _known(atom.right, bound)):
        return None  # the compiled "compare unready" kernel raises
    seen: set[Var] = set()
    l_op = _term_op(atom.left, db, slots, bound, seen)
    r_op = _term_op(atom.right, db, slots, bound, seen)
    op = atom.op
    if l_op[0] == _CONST and r_op[0] == _CONST:
        verdict = compare_oids(op, l_op[1], r_op[1])
        return "batch compare", _filter_const(
            lambda cols, nrows, _v=verdict: _v)
    li = l_op[1] if l_op[0] != _CONST else None
    ri = r_op[1] if r_op[0] != _CONST else None
    l_const = l_op[1] if l_op[0] == _CONST else None
    r_const = r_op[1] if r_op[0] == _CONST else None

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int, _cmp=compare_oids, _op=op) -> int:
            lcol = cols[li] if li is not None else None
            rcol = cols[ri] if ri is not None else None
            idx = [
                i for i in range(nrows)
                if _cmp(_op, lcol[i] if lcol is not None else l_const,
                        rcol[i] if rcol is not None else r_const)
            ]
            _take(cols, carry, idx)
            return len(idx)
        return step
    return "batch compare", builder


# ---------------------------------------------------------------------------
# Step dispatch
# ---------------------------------------------------------------------------

def _compile_batch_step(db: Database, atom: Atom, bound: set[Var],
                        slots: dict[Var, int], policy: MatchPolicy,
                        nslots: int):
    """(kernel name, step builder, read slots, written slots) for one atom."""
    reads, writes = _step_io(atom, bound, slots)
    specialized = None
    if isinstance(atom, ScalarAtom):
        specialized = _batch_scalar(db, atom, bound, slots, policy)
    elif isinstance(atom, SetMemberAtom):
        specialized = _batch_set(db, atom, bound, slots, policy)
    elif isinstance(atom, IsaAtom):
        specialized = _batch_isa(db, atom, bound, slots)
    elif isinstance(atom, ComparisonAtom):
        specialized = _batch_compare(db, atom, bound, slots)
    if specialized is not None:
        name, builder = specialized
        return name, builder, reads, writes
    # No batched form: loop the compiled tuple kernel over the rows.
    name, kern = _compile_step(db, atom, bound, slots, policy)
    return f"batch row {name}", _rowwise(nslots, reads, writes, kern), \
        reads, writes


# ---------------------------------------------------------------------------
# Batched plans
# ---------------------------------------------------------------------------

def _bake_steps(builders, reads, writes, written,
                out_slots: set) -> tuple[BatchStep, ...]:
    """Bake each step's compaction set from the liveness suffixes.

    ``written`` seeds the live-column set (entry slots for a full
    plan, the seed atom's slots for a delta plan); a step compacts
    exactly the columns written before it that later steps or the
    output still need.
    """
    needed_after: list[set[int]] = []
    suffix = set(out_slots)
    for step_reads in reversed(reads):
        needed_after.append(set(suffix))
        suffix |= set(step_reads)
    needed_after.reverse()
    steps = []
    written = set(written)
    for builder, step_reads, step_writes, needed in zip(
            builders, reads, writes, needed_after):
        carry = tuple(sorted(written & needed))
        steps.append(builder(carry))
        written |= set(step_writes)
    return tuple(steps)


class BatchPlan:
    """A plan lowered to column-at-a-time steps, ready to execute.

    ``kernel_names`` names the batched kernel of each step (surfaced in
    EXPLAIN's ``kernel`` column).  :meth:`executor` yields solution
    dicts like :class:`~repro.engine.compile.CompiledPlan.executor`;
    :meth:`column_executor` exposes the raw solution columns for
    callers that consume batches wholesale (the engine's batched head
    realisation).  Per-step counters accumulate the rows *leaving* each
    step -- the same quantity the tuple-at-a-time executors count.
    """

    __slots__ = ("plan", "slots", "nslots", "kernel_names", "_builders",
                 "_reads", "_writes", "_entry", "_out", "_plain", "_exists")

    def __init__(self, plan: Plan, slots: dict[Var, int],
                 builders: tuple[StepBuilder, ...],
                 kernel_names: tuple[str, ...],
                 reads: tuple[tuple, ...], writes: tuple[tuple, ...]) -> None:
        self.plan = plan
        self.slots = slots
        self.nslots = len(slots)
        self.kernel_names = kernel_names
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
        """The one-row column file for an entry binding (or none)."""
        cols: list = [None] * self.nslots
        entry = self._entry
        if binding:
            for var, slot in entry:
                value = binding.get(var)
                if value is None:
                    raise EvaluationError(
                        f"plan was compiled with {var} bound, but "
                        f"the seed binding does not bind it"
                    )
                cols[slot] = [value]
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
                        budget=None):
        """``(execute, out_pairs)``: raw column access for batch callers.

        ``execute(binding)`` returns ``(cols, nrows)``; ``out_pairs``
        maps each (projected) variable to its column slot.  ``budget``
        (a :class:`~repro.engine.budget.QueryBudget`) is checked once
        per kernel step -- the cooperative cancellation granularity of
        batched execution.
        """
        out = self._out_pairs(project)
        steps = self._build_steps({slot for _, slot in out})
        check = budget.check if budget is not None else None
        if counters is None:
            def execute(binding: Binding | None = None):
                cols = self._seed(binding)
                nrows = 1
                for step in steps:
                    fault_point("batch.step")
                    if check is not None:
                        check("batch.step")
                    nrows = step(cols, nrows)
                    if not nrows:
                        break
                return cols, nrows
        else:
            def execute(binding: Binding | None = None):
                cols = self._seed(binding)
                nrows = 1
                for index, step in enumerate(steps):
                    fault_point("batch.step")
                    if check is not None:
                        check("batch.step")
                    nrows = step(cols, nrows)
                    counters[index] += nrows
                    if not nrows:
                        break
                return cols, nrows
        return activated(execute, budget), out

    def executor(self, counters: list[int] | None = None,
                 project: Sequence[Var] | None = None,
                 budget=None
                 ) -> Callable[[Binding | None], Iterator[Binding]]:
        """A dict-yielding entry point (CompiledPlan.executor parity)."""
        run, out = self.column_executor(counters, project, budget)

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

        Short-circuits: rows are pushed through the steps in chunks and
        the first surviving terminal row returns immediately, so a
        satisfiable ``ask()`` no longer materialises the full batch.
        """
        steps = self._exists
        if steps is None:
            steps = self._exists = self._build_steps(set())
        if stats is not None:
            stats.batches += 1
        return exists_over(steps, self._seed(binding), 1, stats, budget)


def compile_batch_plan(db: Database, plan: Plan,
                       policy: MatchPolicy = UNRESTRICTED) -> BatchPlan:
    """Lower ``plan`` to batched steps; memoised per (database, policy).

    Shares the plan's ``compiled_cache`` with the tuple-at-a-time
    compiler under a distinct key, so both lowerings of one plan can
    coexist.
    """
    key = ("batch", db, policy.max_method_depth)
    cached = plan.compiled_cache.get(key)
    if cached is not None:
        return cached
    atoms = [step.atom for step in plan.steps]
    slots = _assign_slots(atoms, plan.bound_in)
    nslots = len(slots)
    bound: set[Var] = set(plan.bound_in)
    builders: list[StepBuilder] = []
    names: list[str] = []
    reads: list[tuple] = []
    writes: list[tuple] = []
    for atom in atoms:
        name, builder, step_reads, step_writes = _compile_batch_step(
            db, atom, bound, slots, policy, nslots)
        builders.append(builder)
        names.append(name)
        reads.append(step_reads)
        writes.append(step_writes)
        bound.update(_atom_variables(atom))
    compiled = BatchPlan(plan, slots, tuple(builders), tuple(names),
                         tuple(reads), tuple(writes))
    plan.compiled_cache[key] = compiled
    return compiled


# ---------------------------------------------------------------------------
# Delta specialization (semi-naive evaluation)
# ---------------------------------------------------------------------------

class BatchDeltaPlan:
    """A delta-seeded rule body, batched: the log becomes the batch.

    The seed pass turns the whole realizer log into the initial columns
    in one loop (no per-seed re-entry into the join), then the
    rest-of-body steps run exactly like :class:`BatchPlan`.  Counters
    are ``[seeds, step rows...]``, matching the engine's delta records.
    """

    __slots__ = ("slots", "nslots", "kernel_names", "_seed", "_builders",
                 "_reads", "_writes", "_out", "_plain")

    def __init__(self, slots: dict[Var, int], seed, seed_writes: tuple,
                 builders: tuple[StepBuilder, ...],
                 kernel_names: tuple[str, ...],
                 reads: tuple[tuple, ...], writes: tuple[tuple, ...]) -> None:
        self.slots = slots
        self.nslots = len(slots)
        self.kernel_names = kernel_names
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
                        budget=None):
        """``(execute, out_pairs)`` with ``execute(delta) -> (cols, nrows)``."""
        out = self._out
        if project is not None:
            wanted = set(project)
            out = tuple(pair for pair in out if pair[0] in wanted)
        steps = self._build_steps({slot for _, slot in out})
        seed, _ = self._seed
        nslots = self.nslots
        check = budget.check if budget is not None else None
        if counters is None:
            def execute(delta):
                cols: list = [None] * nslots
                nrows = seed(cols, delta)
                for step in steps:
                    if not nrows:
                        break
                    fault_point("batch.step")
                    if check is not None:
                        check("batch.step")
                    nrows = step(cols, nrows)
                return cols, nrows
        else:
            def execute(delta):
                cols: list = [None] * nslots
                nrows = seed(cols, delta)
                counters[0] += nrows
                for index, step in enumerate(steps):
                    if not nrows:
                        break
                    fault_point("batch.step")
                    if check is not None:
                        check("batch.step")
                    nrows = step(cols, nrows)
                    counters[index + 1] += nrows
                return cols, nrows
        return activated(execute, budget), out

    def executor(self, counters: list[int] | None = None,
                 project: Sequence[Var] | None = None,
                 budget=None):
        """A dict-yielding entry point taking the delta log."""
        run, out = self.column_executor(counters, project, budget)

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


def _delta_shape(db: Database, atom: Atom, plan: Plan):
    """Shared seed-shape analysis for the batched delta compilers.

    Returns ``(wanted, rest_atoms, slots, nslots, ops, nargs,
    seed_writes)`` -- everything both the boxed and the int-surrogate
    delta compilers need to build a seed and chain the rest of the body.
    """
    if isinstance(atom, ScalarAtom):
        wanted = "scalar"
        pattern = (atom.method, atom.subject, atom.args, atom.result)
    elif isinstance(atom, SetMemberAtom):
        wanted = "set"
        pattern = (atom.method, atom.subject, atom.args, atom.member)
    else:  # pragma: no cover - the engine only delta-seeds data atoms
        raise TypeError(f"cannot delta-seed {atom!r}")
    method_t, subject_t, args_t, result_t = pattern

    rest_atoms = [step.atom for step in plan.steps]
    slots = _assign_slots([atom, *rest_atoms], ())
    nslots = len(slots)
    seen: set[Var] = set()
    empty: set[Var] = set()
    ops = (
        _term_op(method_t, db, slots, empty, seen),
        _term_op(subject_t, db, slots, empty, seen),
        *(_term_op(a, db, slots, empty, seen) for a in args_t),
        _term_op(result_t, db, slots, empty, seen),
    )
    nargs = len(args_t)
    seed_writes = tuple(slots[v] for v in atom.variables())
    return wanted, rest_atoms, slots, nslots, ops, nargs, seed_writes


def _generic_delta_seed(wanted: str, ops: tuple, nargs: int,
                        seed_writes: tuple, nslots: int,
                        policy: MatchPolicy, m_op):
    """The row-at-a-time seed handling every delta-atom shape."""
    from repro.engine.compile import _method_filter

    const = m_op[0] == _CONST
    runtime_ok = None if const else _method_filter(policy, m_op)

    def seed(cols, delta, _wanted=wanted, _n=nargs, _ok=runtime_ok,
             _ops=ops, _writes=seed_writes, _nslots=nslots,
             _m=m_op[1] if const else None):
        regs = [None] * _nslots
        outs = [[] for _ in _writes]
        count = 0
        if isinstance(delta, DeltaIndex):
            # A constant method reads its own bucket; a variable one can
            # match any entry of the round.
            delta = (delta.bucket(_wanted, _m) if _m is not None
                     else delta.entries)
        for entry in delta:
            if entry[0] != _wanted:
                continue
            fargs = entry[3]
            if len(fargs) != _n:
                continue
            if _ok is not None and not _ok(entry[1]):
                continue
            if _apply_row(_ops, (entry[1], entry[2], *fargs, entry[4]),
                          regs):
                count += 1
                for out, slot in zip(outs, _writes):
                    out.append(regs[slot])
        for out, slot in zip(outs, _writes):
            cols[slot] = out
        return count
    return seed


def compile_batch_delta_plan(db: Database, atom: Atom, plan: Plan,
                             policy: MatchPolicy = UNRESTRICTED
                             ) -> BatchDeltaPlan:
    """Compile ``atom`` as a batched delta seed chained into ``plan``.

    As for :func:`repro.engine.compile.compile_delta_plan`, ``plan``
    must have been built with the atom's variables initially bound.
    """
    wanted, rest_atoms, slots, nslots, ops, nargs, seed_writes = \
        _delta_shape(db, atom, plan)
    m_op, s_op, r_op = ops[0], ops[1], ops[-1]

    if m_op[0] == _CONST and not policy.method_ok(m_op[1]):
        def seed(cols, delta):
            return 0
    elif (nargs == 0 and m_op[0] == _CONST
            and s_op[0] == _STORE and r_op[0] == _STORE):
        # The common shape: one pass over this method's bucket (or the
        # whole log, for unindexed callers), two output columns.
        method = m_op[1]
        si, ri = s_op[1], r_op[1]

        def seed(cols, delta, _wanted=wanted, _m=method, _si=si, _ri=ri):
            if not isinstance(delta, DeltaIndex):
                delta = DeltaIndex(delta)
            s_out: list = []
            r_out: list = []
            for entry in delta.bucket(_wanted, _m):
                if entry[3]:
                    continue
                s_out.append(entry[2])
                r_out.append(entry[4])
            cols[_si] = s_out
            cols[_ri] = r_out
            return len(s_out)
    else:
        seed = _generic_delta_seed(wanted, ops, nargs, seed_writes, nslots,
                                   policy, m_op)

    bound: set[Var] = set(atom.variables())
    builders: list[StepBuilder] = []
    names: list[str] = [f"batch delta-{wanted} seed"]
    reads: list[tuple] = []
    writes: list[tuple] = []
    for rest_atom in rest_atoms:
        name, builder, step_reads, step_writes = _compile_batch_step(
            db, rest_atom, bound, slots, policy, nslots)
        builders.append(builder)
        names.append(name)
        reads.append(step_reads)
        writes.append(step_writes)
        bound.update(_atom_variables(rest_atom))
    return BatchDeltaPlan(slots, seed, seed_writes, tuple(builders),
                          tuple(names), tuple(reads), tuple(writes))


# ---------------------------------------------------------------------------
# Batched head realisation
# ---------------------------------------------------------------------------

def head_emitter(db: Database, rule, slot_of: dict[Var, int]):
    """A set-at-a-time head realizer for ``rule``, or None.

    For *simple* heads -- molecules over a name or variable whose
    filters carry only names and variables -- substituting a solution
    into the head yields its facts directly, so a whole batch of
    solutions can be asserted straight from the columns: no per-row
    binding dict, no head-spine walk, no per-row name lookups.  The
    asserted facts and log entries are bit-identical to what
    :class:`~repro.engine.heads.HeadRealizer` produces (assertions go
    through the same database API, so scalar-conflict and hierarchy
    errors behave identically).  Heads that create virtual objects,
    carry computed methods, or re-state a built-in identity return
    None; the engine falls back to per-row realisation.
    """
    from repro.engine.incremental import simple_head

    head = rule.head
    if isinstance(head, Molecule):
        for filt in head.filters:
            if (isinstance(filt, ScalarFilter)
                    and isinstance(filt.method, Name)
                    and _builtins.is_builtin_scalar(
                        NamedOid(filt.method.value))):
                # The realizer checks the built-in identity per row and
                # may raise; keep that behaviour.
                return None
    spec = simple_head(rule)
    if spec is None:
        return None

    def component(term):
        """``(slot, const)``: exactly one side is set."""
        if isinstance(term, Name):
            return None, db.lookup_name(term.value)
        slot = slot_of.get(term)
        if slot is None:
            return (), None  # unmapped variable: cannot emit
        return slot, None

    compiled = []
    for template in spec.templates:
        if template[0] == "isa":
            parts = (component(template[1]), component(template[2]))
            if any(slot == () for slot, _ in parts):
                return None
            compiled.append(("isa", db.assert_isa, parts, ()))
        else:
            kind, method_t, subject_t, args_t, result_t = template
            parts = (component(subject_t), component(result_t))
            arg_parts = tuple(component(a) for a in args_t)
            if any(slot == () for slot, _ in (*parts, *arg_parts)):
                return None
            add = (db.assert_scalar if kind == "scalar"
                   else db.assert_set_member)
            method = db.lookup_name(method_t.value)
            compiled.append((kind, add, parts, arg_parts, method))

    if (len(compiled) == 1 and compiled[0][0] != "isa"
            and not compiled[0][3] and db.change_log is None):
        # The hot shape: one scalar/set filter, no @-parameters, and no
        # change log to notify.  Universe registration happens wholesale
        # per column, and the facts go straight into the method table
        # (the same mutation ``Database.assert_*`` performs, minus the
        # per-row registration and log bookkeeping that are hoisted or
        # provably unneeded here).  Scalar conflicts still raise from
        # the table itself.
        kind, _, ((s_slot, s_const), (r_slot, r_const)), _, method = \
            compiled[0]
        table_add = (db.scalars.put if kind == "scalar" else db.sets.add)

        def emit(cols: list, nrows: int, log: list) -> None:
            # No universe registration: every solution-column value
            # originates from a stored fact, a delta entry, or the
            # hierarchy -- all registered when they were asserted --
            # and the head's constants were registered when this
            # emitter resolved them.  (``Database.assert_*`` would
            # re-register redundantly; the tables are mutated the same
            # way it mutates them.)
            scol = cols[s_slot] if s_slot is not None else None
            rcol = cols[r_slot] if r_slot is not None else None
            for i in range(nrows):
                subject = scol[i] if scol is not None else s_const
                result = rcol[i] if rcol is not None else r_const
                if table_add(method, subject, (), result):
                    log.append((kind, method, subject, (), result))
        return emit

    def emit(cols: list, nrows: int, log: list) -> None:
        for i in range(nrows):
            for entry in compiled:
                if entry[0] == "isa":
                    _, add, parts, _ = entry
                    (o_slot, o_const), (c_slot, c_const) = parts
                    obj = cols[o_slot][i] if o_slot is not None else o_const
                    cls = cols[c_slot][i] if c_slot is not None else c_const
                    if add(obj, cls):
                        log.append(("isa", obj, cls))
                else:
                    kind, add, parts, arg_parts, method = entry
                    (s_slot, s_const), (r_slot, r_const) = parts
                    subject = (cols[s_slot][i] if s_slot is not None
                               else s_const)
                    result = (cols[r_slot][i] if r_slot is not None
                              else r_const)
                    args = tuple(
                        cols[slot][i] if slot is not None else const
                        for slot, const in arg_parts
                    )
                    if add(method, subject, args, result):
                        log.append((kind, method, subject, args, result))
    return emit
