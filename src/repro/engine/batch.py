"""Boxed column kernels: the per-slot fallback steps of columnar plans.

The columnar executor (:mod:`repro.engine.columnar`) runs static plans
**set-at-a-time**: a batch of bindings is a list of *columns* (one
parallel value list per variable slot), and each step maps a whole
batch to the next with bulk dict probes and single-pass loops.  Its
hot kernels read int-surrogate columns; this module supplies the
**boxed** step kernels it falls back to, per slot, wherever a step has
no int form or reads a boxed column (``isa``, comparisons, builtins,
``@``-parameters, unindexed tables, anything downstream of those):

- **probe** steps (``scalar get``, ``set iter``, index probes) loop
  once over the incoming batch, probing the live table views per row --
  no generator is created, no register file is re-entered;
- **scan** steps materialise their index bucket wholesale and join it
  against the batch (a batch of one row -- the usual first step --
  degenerates to a plain bulk scan);
- **filter** steps (comparisons, ``isa check``, ``set contains``) run
  as a single selection pass over the columns;
- steps with no column form at all (negation, superset atoms,
  variable methods, ``@``-parameters, scans of unindexed tables,
  repeated variables) re-enter the interpreted matcher once per row
  (:func:`_rowwise`), so they keep its exact semantics.

EXPLAIN names these steps ``batch ...`` (``batch row ...`` for the
rowwise loop).  Surviving rows are *compacted*: each step keeps only
the columns later steps (or the projection) still need
(:func:`_bake_steps`), so dead variables cost nothing.  Row counts per
step equal the interpreted matcher's per-step extension counters
exactly -- batching changes the execution schedule (breadth-first
instead of depth-first), never the set of solutions.

:func:`chunks` drives baked steps depth-first in small chunks -- the
lazy answer stream of ad-hoc conjunctions and the goal-directed
existence checks both read it -- and :func:`head_emitter` closes the
loop on the output side: simple rule heads the int batch writer
declines are asserted straight from boxed solution columns, skipping
the per-binding dict build and head-spine walk entirely.  The term-op
lowering (``_term_op``) and slot assignment the int kernels share live
here too.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core import builtins as _builtins
from repro.core.ast import Molecule, Name, ScalarFilter, Var
from repro.core.entailment import compare_oids
from repro.engine.budget import (
    ROWWISE_CHECK_INTERVAL,
    active_budget,
    pop_active,
    push_active,
)
from repro.engine.matching import MatchPolicy, match_atom
from repro.testing.faults import fault_point
from repro.flogic.atoms import (
    Atom,
    ComparisonAtom,
    EnumSupersetAtom,
    IsaAtom,
    NegationAtom,
    ScalarAtom,
    SetMemberAtom,
    SupersetAtom,
    Term,
)
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid, Oid

#: A batched step, built with its compaction set baked in: mutates the
#: column file in place and returns the new row count.
BatchStep = Callable[[list, int], int]

#: A step builder: ``builder(carry)`` bakes the slots to compact on
#: row selection and returns the runnable :data:`BatchStep`.
StepBuilder = Callable[[tuple], BatchStep]


# ---------------------------------------------------------------------------
# Term operations and slots (shared with the int kernels)
# ---------------------------------------------------------------------------

# Term operations compiled per atom position: check a constant, check an
# already-written slot, or write a slot (its unique writer step).
_CONST, _LOAD, _STORE = 0, 1, 2


def _term_op(term: Term, db: Database, slots: dict[Var, int],
             bound: set[Var], seen: set[Var]) -> tuple[int, object]:
    """Lower one term position to a (kind, payload) op."""
    if isinstance(term, Name):
        return (_CONST, db.lookup_name(term.value))
    if term in bound or term in seen:
        return (_LOAD, slots[term])
    seen.add(term)
    return (_STORE, slots[term])


def _known(term: Term, bound: set[Var]) -> bool:
    """Whether the term denotes *before* the atom runs (matcher parity).

    Branch selection must use pre-atom boundness, never the within-atom
    ops: a repeated variable's second occurrence compiles to a slot
    check, but the matcher still treats it as unbound when choosing the
    access path (``X[color -> X]`` scans; it does not probe the result
    index with a stale column).
    """
    return isinstance(term, Name) or term in bound


def _atom_variables(atom: Atom) -> tuple[Var, ...]:
    """Every variable the atom can bind (source variables included)."""
    variables = list(atom.variables())
    if isinstance(atom, (SupersetAtom, EnumSupersetAtom)):
        for var in atom.source_variables():
            if var not in variables:
                variables.append(var)
    return tuple(variables)


def _assign_slots(atoms: Sequence[Atom],
                  bound_in: Sequence[Var]) -> dict[Var, int]:
    """One integer slot per variable, entry-bound variables first."""
    slots: dict[Var, int] = {}
    for var in bound_in:
        slots.setdefault(var, len(slots))
    for atom in atoms:
        for var in _atom_variables(atom):
            slots.setdefault(var, len(slots))
    return slots


def _take(cols: list, carry: tuple, idx: list) -> None:
    """Compact the carried columns down to the selected row indices."""
    for slot in carry:
        col = cols[slot]
        cols[slot] = [col[i] for i in idx]


def _step_io(atom: Atom, bound: set[Var],
             slots: dict[Var, int]) -> tuple[tuple, tuple]:
    """``(reads, writes)`` of one step as ``(var, slot)`` pairs.

    The slots drive compaction; the variables name a row-at-a-time
    step's binding.  A negation reads its bound inner variables and
    writes nothing.
    """
    if isinstance(atom, NegationAtom):
        reads = tuple((v, slots[v]) for v in atom.inner_variables()
                      if v in bound)
        return reads, ()
    variables = _atom_variables(atom)
    reads = tuple((v, slots[v]) for v in variables if v in bound)
    writes = tuple((v, slots[v]) for v in variables if v not in bound)
    return reads, writes


# ---------------------------------------------------------------------------
# The generic row-at-a-time fallback (re-enters the matcher)
# ---------------------------------------------------------------------------

#: Output rows per block: the chunk loop's slice size, and the most
#: rows a row-at-a-time step produces before handing a block on.  Small
#: enough that a satisfiable ``exists`` touches a sliver of a batch; big
#: enough that per-chunk slicing stays negligible when every row dies.
_EXISTS_CHUNK = 64


def _rowwise(reads: tuple, writes: tuple, extend) -> StepBuilder:
    """Run ``extend`` once per batch row, in output blocks.

    ``reads`` and ``writes`` are ``(var, slot)`` pairs; ``extend`` maps
    a dict binding of the read variables to its extensions (the
    interpreted matcher for one atom), so the step keeps the matcher's
    exact semantics -- negation, superset, dynamic dispatch -- while
    the surrounding join stays batched.  The loop is written once, as a
    generator over blocks of at most :data:`_EXISTS_CHUNK` output rows:
    the eager step drains it, and the chunk loop (:func:`chunks`)
    takes the blocks one at a time through ``step.blocks``, so a row
    that expands to ``|U|^k`` rows (a superset over free source
    variables) costs an existence check one block, not the whole
    expansion.

    The loop is also a budget checkpoint: a row-at-a-time step can do
    a whole batch worth of work inside one step, so the budget is
    consulted every :data:`~repro.engine.budget.ROWWISE_CHECK_INTERVAL`
    input rows -- the eager step's activated one
    (:func:`~repro.engine.budget.active_budget`), the chunk loop's
    own otherwise.
    """
    mask = ROWWISE_CHECK_INTERVAL - 1

    def matches(cols: list, nrows: int, check):
        """``(row indices, written columns)`` blocks."""
        read_cols = [(var, cols[slot]) for var, slot in reads]
        idx: list[int] = []
        outs: list[list] = [[] for _ in writes]
        for i in range(nrows):
            if check is not None and i and not (i & mask):
                check("batch.rowwise")
            for extended in extend({var: col[i] for var, col in read_cols}):
                idx.append(i)
                for out, (var, _) in zip(outs, writes):
                    out.append(extended[var])
                if len(idx) == _EXISTS_CHUNK:
                    yield idx, outs
                    idx = []
                    outs = [[] for _ in writes]
        if idx:
            yield idx, outs

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int) -> int:
            budget = active_budget() if nrows > mask else None
            check = budget.check if budget is not None else None
            idx: list[int] = []
            outs: list[list] = [[] for _ in writes]
            for block_idx, block_outs in matches(cols, nrows, check):
                idx += block_idx
                for out, block_out in zip(outs, block_outs):
                    out += block_out
            _take(cols, carry, idx)
            for out, (_, slot) in zip(outs, writes):
                cols[slot] = out
            return len(idx)

        def blocks(cols: list, nrows: int, budget):
            check = budget.check if budget is not None else None
            for idx, outs in matches(cols, nrows, check):
                block = cols[:]
                _take(block, carry, idx)
                for out, (_, slot) in zip(outs, writes):
                    block[slot] = out
                yield block, len(idx)

        step.blocks = blocks
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
# The depth-first chunk loop
# ---------------------------------------------------------------------------

def chunks(steps: Sequence[BatchStep], cols: list, nrows: int, *,
           budget=None, counters: list[int] | None = None, stats=None,
           k: int = 0):
    """Yield the surviving ``(cols, nrows)`` chunks of baked steps, lazily.

    A plain batched execution materialises the *whole* batch at every
    step; this loop instead recurses depth-first over chunks of at
    most :data:`_EXISTS_CHUNK` rows, so a consumer that stops early
    (an existence check wants one witness, ``ask()`` one answer)
    abandons all remaining work.  Steps are pure against a database
    that is frozen while the conjunction runs, so skipping rows cannot
    change what the rows taken are.  Row-at-a-time steps hand over
    their output in blocks of the same size (``step.blocks``).  ``k``
    is the step the batch enters at (the recursion's own argument).

    ``counters[k]`` accrues the rows step ``k`` produced -- once the
    stream is drained, exactly the full execution's per-step counts --
    and ``stats.batch_rows`` (when given) their sum.  Every step
    executed is a ``columnar.step`` fault point and, with a ``budget``
    (a :class:`~repro.engine.budget.QueryBudget`), a ``columnar.step``
    checkpoint; the budget is checked again before each chunk or block
    goes on, and row-at-a-time steps check it every 256 input rows.
    """
    nsteps = len(steps)
    while nrows <= _EXISTS_CHUNK:
        if k == nsteps:
            yield cols, nrows
            return
        step = steps[k]
        fault_point("columnar.step")
        if budget is not None:
            budget.check("columnar.step")
        blocks = getattr(step, "blocks", None)
        if blocks is not None:
            for block, block_rows in blocks(cols, nrows, budget):
                if counters is not None:
                    counters[k] += block_rows
                if stats is not None:
                    stats.batch_rows += block_rows
                yield from chunks(steps, block, block_rows, budget=budget,
                                  counters=counters, stats=stats, k=k + 1)
                if budget is not None:
                    budget.check("columnar.step")
            return
        nrows = step(cols, nrows)
        if counters is not None:
            counters[k] += nrows
        if stats is not None:
            stats.batch_rows += nrows
        if not nrows:
            return
        k += 1
    for start in range(0, nrows, _EXISTS_CHUNK):
        if budget is not None:
            budget.check("columnar.step")
        stop = min(start + _EXISTS_CHUNK, nrows)
        chunk = [col[start:stop] if type(col) is list else col
                 for col in cols]
        yield from chunks(steps, chunk, stop - start, budget=budget,
                          counters=counters, stats=stats, k=k)


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
        return None  # the matcher raises for the first row it sees
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

def _rowwise_label(atom: Atom, bound: set[Var]) -> str:
    """EXPLAIN's name for an atom the matcher runs row by row."""
    if isinstance(atom, NegationAtom):
        return "negation"
    if isinstance(atom, (SupersetAtom, EnumSupersetAtom)):
        return "superset"
    if isinstance(atom, ComparisonAtom):
        return "compare unready"
    if isinstance(atom, IsaAtom):
        return "isa scan"
    kind = "scalar" if isinstance(atom, ScalarAtom) else "set"
    if isinstance(atom.method, Name):
        if (kind == "scalar" and _builtins.is_builtin_scalar(
                NamedOid(atom.method.value))):
            return "self universe"
        return f"{kind} @-args" if atom.args else f"{kind} scan"
    return f"{kind} dynamic" if atom.method in bound else f"{kind} any-method"


def _compile_batch_step(db: Database, atom: Atom, bound: set[Var],
                        slots: dict[Var, int], policy: MatchPolicy):
    """(kernel name, step builder, read slots, written slots) for one atom."""
    reads, writes = _step_io(atom, bound, slots)
    read_slots = tuple(slot for _, slot in reads)
    write_slots = tuple(slot for _, slot in writes)
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
        return name, builder, read_slots, write_slots

    # No column form: the matcher extends each row's binding.
    def extend(binding, _db=db, _atom=atom, _policy=policy):
        return match_atom(_db, _atom, binding, _policy)
    return (f"batch row {_rowwise_label(atom, bound)}",
            _rowwise(reads, writes, extend), read_slots, write_slots)


# ---------------------------------------------------------------------------
# Step baking
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
    errors behave identically).

    The engine asks the int batch writer
    (:func:`repro.engine.columnar.columnar_head_emitter`) first, so
    this boxed emitter serves the simple heads that writer declines:
    isa filters, ``@``-arguments, a method written twice, an open
    change log.  Heads over a path (virtual objects the int writer
    declines), computed methods and a re-stated built-in identity
    return None; the engine then runs the realizer's compiled column
    program.
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
