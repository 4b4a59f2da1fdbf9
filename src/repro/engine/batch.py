"""Boxed column kernels: the steps of columnar plans with no int form.

The columnar executor (:mod:`repro.engine.columnar`) runs static plans
**set-at-a-time**: a batch of bindings is a list of *columns* (one
parallel value list per variable slot), and each step maps a whole
batch to the next.  Every stored scalar and set atom with a constant
method and no ``@``-arguments runs on an int kernel there; this module
supplies the **boxed** steps for the atoms that have no int form:

- **isa** steps that enumerate a class's members or an object's
  classes, or test a variable class or a built-in value class
  (``integer``, ``string``): ``batch isa members``, ``batch isa
  classes-of``, ``batch isa check``;
- **comparisons** over two known positions (``batch compare``), a
  single selection pass over the columns;
- every other shape -- negation, superset atoms, variable methods,
  ``@``-parameters, repeated variables, ``self`` over the universe --
  re-enters the interpreted matcher once per row (:func:`_rowwise`,
  ``batch row ...`` in EXPLAIN), so it keeps the matcher's exact
  semantics.

Surviving rows are *compacted*: each step keeps only the columns later
steps (or the projection) still need (:func:`_bake_steps`), so dead
variables cost nothing.  Row counts per step equal the interpreted
matcher's per-step extension counters exactly -- batching changes the
execution schedule (breadth-first instead of depth-first), never the
set of solutions.

:func:`chunks` drives baked steps depth-first in small chunks -- the
lazy answer stream of ad-hoc conjunctions and the goal-directed
existence checks both read it.  The term-op lowering (``_term_op``),
slot assignment and row selection the int kernels share live here too.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core import builtins as _builtins
from repro.core.ast import Name, Var
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
    SupersetAtom,
    Term,
)
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid

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


def run_budgeted(run, arg, budget):
    """``run(arg, check)`` with ``budget`` active while it runs.

    ``check`` is the budget's checkpoint (None without a budget).
    Rowwise fallback steps pick the budget up mid-batch through
    :func:`~repro.engine.budget.active_budget`; with no budget nothing
    is activated (zero overhead on the common path).  Executors take
    the budget per call, so one compiled executor serves callers with
    different budgets.
    """
    if budget is None:
        return run(arg, None)
    token = push_active(budget)
    try:
        return run(arg, budget.check)
    finally:
        pop_active(token)


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
    """``(kernel name, step builder)`` of the boxed step for one atom."""
    if isinstance(atom, IsaAtom):
        specialized = _batch_isa(db, atom, bound, slots)
    elif isinstance(atom, ComparisonAtom):
        specialized = _batch_compare(db, atom, bound, slots)
    else:
        specialized = None
    if specialized is not None:
        return specialized

    # No column form: the matcher extends each row's binding.
    def extend(binding, _db=db, _atom=atom, _policy=policy):
        return match_atom(_db, _atom, binding, _policy)
    reads, writes = _step_io(atom, bound, slots)
    return (f"batch row {_rowwise_label(atom, bound)}",
            _rowwise(reads, writes, extend))


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
