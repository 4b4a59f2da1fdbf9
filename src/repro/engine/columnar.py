"""Int-surrogate columnar execution: the one executor of every plan.

Every rule body a fixpoint run (:class:`~repro.engine.fixpoint.Engine`)
or an incremental maintenance pass
(:class:`~repro.engine.incremental.Maintainer`) evaluates runs here,
and so does every ad-hoc conjunction (``Query`` answers,
:func:`~repro.engine.solve.solve`), **set-at-a-time**: a batch of
bindings is a list of columns, and each plan step maps a whole batch
to the next.  Ad-hoc answers stream lazily through a depth-first chunk
loop (:meth:`ColumnarPlan.rows`), so an ``ask()`` stops at its first
surviving chunk.  Boxed OID columns would make
every join probe recompute a structural hash over a frozen dataclass
(and for virtual objects, recursively over its spine), and every head
emission pay that hash again just to discover the fact is a duplicate.
So plans are lowered onto **integer columns**: each OID is interned
once into a dense surrogate (:class:`~repro.oodb.oid.OidInterner`)
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
- the built-in ``self`` copies or compares columns (``int self fwd``,
  ``rev``, ``check``);
- **isa checks** of a bound column against a constant class are a
  semi-join against the surrogates of the class's members
  (``int isa check``), rebuilt when the hierarchy moves;
- **delta seeds** turn a semi-naive round's bucket straight into the
  initial columns (``int delta-set seed``) -- for facts the int-native
  emitter derived, the very columns it wrote; a constant subject or
  result (every magic guard) or a repeated variable filters them;
- **head emission** writes a whole batch through the tables' batch
  writers, deduplicating in int space against the mirror before
  touching the boxed table, so re-derived facts never resolve a
  surrogate or hash an OID, and new ones reach the next round as int
  columns; a head path's virtual objects are defined with int probes
  too.

Every stored scalar and set atom with a constant method and no
``@``-arguments runs on one of these int kernels, whatever an earlier
step left in its slots.  Atoms with no int form -- isa steps that
enumerate members or classes or test a variable or built-in value
class, comparisons, negation, superset bridges, parameterised or
dynamic methods, ``self`` over the universe -- run the boxed steps of
:mod:`repro.engine.batch` (``batch ...`` in EXPLAIN).  Representation
is chosen **per slot at plan-compile time**, and a slot switches in
place where a step needs the other one: a boxed step reading an int
slot dereferences the column (a list index per row, no hashing), an
int kernel reading a boxed slot interns it.  Solutions leave the
executor as OIDs: output columns are dereferenced at the boundary, so
callers (and per-step row counters) cannot tell the representations
apart.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Sequence

from repro.core import builtins as _builtins
from repro.core.ast import (
    Molecule,
    Name,
    Paren,
    Path,
    ScalarFilter,
    SetEnumFilter,
    Var,
)
from repro.engine.batch import (
    _CONST,
    _LOAD,
    _STORE,
    BatchStep,
    StepBuilder,
    _assign_slots,
    _atom_variables,
    _bake_steps,
    _compile_batch_step,
    _empty_builder,
    _filter_const,
    _known,
    _step_io,
    _take,
    _term_op,
    chunks,
    run_budgeted,
)
from repro.engine.delta import DeltaIndex
from repro.engine.matching import (
    MAGIC_METHOD_PREFIX,
    UNRESTRICTED,
    Binding,
    MatchPolicy,
    method_visible,
)
from repro.engine.planner import Plan
from repro.errors import EvaluationError
from repro.flogic.atoms import Atom, IsaAtom, ScalarAtom, SetMemberAtom
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
    from a nested-loop probe's -- semantics are set-based, so no caller
    may observe order.
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


def _int_self(s_op, r_op, s_known: bool, r_known: bool,
              interner: OidInterner):
    """The built-in identity ``o.self = o`` over int columns, or None
    over the universe (no position known)."""
    if s_known and r_known:
        return "int self check", _int_equality(s_op, r_op, interner)
    if s_known:
        name, src, dst = "int self fwd", s_op, r_op[1]
    elif r_known:
        name, src, dst = "int self rev", r_op, s_op[1]
    else:
        return None
    if src[0] == _CONST:
        sur = interner.intern(src[1])

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int) -> int:
                cols[dst] = [sur] * nrows
                return nrows
            return step
        return name, builder
    si = src[1]

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int) -> int:
            cols[dst] = cols[si][:]
            return nrows
        return step
    return name, builder


def _int_equality(l_op, r_op, interner: OidInterner) -> StepBuilder:
    """Filter rows where two known positions hold the same surrogate."""
    if l_op[0] == _CONST and r_op[0] == _CONST:
        same = l_op[1] == r_op[1]
        return _filter_const(lambda cols, nrows, _s=same: _s)
    if l_op[0] == _CONST or r_op[0] == _CONST:
        const, (_, slot) = ((l_op[1], r_op) if l_op[0] == _CONST
                            else (r_op[1], l_op))
        sur = interner.intern(const)

        def builder(carry: tuple) -> BatchStep:
            def step(cols: list, nrows: int) -> int:
                col = cols[slot]
                idx = [i for i in range(nrows) if col[i] == sur]
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


#: The step of an atom whose constant method is over the policy's depth.
_OVER_DEPTH = ("none (method over depth)", _empty_builder)


def _stored_ops(db: Database, atom, result, bound: set[Var],
                slots: dict[Var, int]):
    """``(method, s_op, r_op, s_known, r_known)`` of a stored atom with
    a constant method and no ``@``-arguments, or None for any other atom
    (the matcher runs it row by row)."""
    if atom.args or not isinstance(atom.method, Name):
        return None
    seen: set[Var] = set()
    method = db.lookup_name(atom.method.value)
    s_op = _term_op(atom.subject, db, slots, bound, seen)
    r_op = _term_op(result, db, slots, bound, seen)
    return (method, s_op, r_op, _known(atom.subject, bound),
            _known(result, bound))


def _int_scalar(db: Database, atom: ScalarAtom, bound: set[Var],
                slots: dict[Var, int], policy: MatchPolicy,
                interner: OidInterner):
    """The int-column kernel for a scalar atom, or None.

    Serves every constant method without ``@``-arguments, whatever
    representation its read columns had (the caller interns boxed ones),
    except ``self`` over the universe and a variable repeated within
    the atom.
    """
    ops = _stored_ops(db, atom, atom.result, bound, slots)
    if ops is None:
        return None
    method, s_op, r_op, s_known, r_known = ops
    if not policy.method_ok(method):
        return _OVER_DEPTH
    if _builtins.is_builtin_scalar(method):
        return _int_self(s_op, r_op, s_known, r_known, interner)

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
                return "int scalar get", builder
            if r_op[0] == _CONST:
                r_sur = interner.intern(r_op[1])
                return "int scalar get", _filter_const(
                    lambda cols, nrows, _apps=apps, _m=m_sur, _s=s_sur,
                    _r=r_sur: (b := _apps.get(_m)) is not None
                    and b.get(_s) == _r)
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
            return "int scalar get", builder
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
            return "int scalar get", builder
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
            return "int scalar get", builder
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
        return "int scalar get", builder

    if r_known and s_op[0] == _STORE:
        si = s_op[1]
        if r_op[0] == _CONST:
            return _int_inverse_probe(view, "int scalar mr-probe", m_sur,
                                      si, interner.intern(r_op[1]))
        return _int_merge_join(view, "int scalar mr merge-join", m_sur,
                               si, r_op[1])

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
        return "int scalar m-scan", builder
    return None


def _int_set(db: Database, atom: SetMemberAtom, bound: set[Var],
             slots: dict[Var, int], policy: MatchPolicy,
             interner: OidInterner):
    """The int-column kernel for a set-membership atom, or None (the
    same shapes as :func:`_int_scalar`, less ``self``)."""
    ops = _stored_ops(db, atom, atom.member, bound, slots)
    if ops is None:
        return None
    method, s_op, r_op, s_known, r_known = ops
    if not policy.method_ok(method):
        return _OVER_DEPTH

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
                return "int set iter", builder
            if r_op[0] == _CONST:
                r_sur = interner.intern(r_op[1])
                return "int set contains", _filter_const(
                    lambda cols, nrows, _apps=apps, _m=m_sur, _s=s_sur,
                    _r=r_sur: bool((b := _apps.get(_m))
                                   and (ms := b.get(_s)) and _r in ms))
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
            return name, builder
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
            return "int set iter", builder
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
            return "int set contains", builder
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
        return "int set contains", builder

    if r_known and s_op[0] == _STORE:
        si = s_op[1]
        if r_op[0] == _CONST:
            return _int_inverse_probe(view, "int set mm-probe", m_sur,
                                      si, interner.intern(r_op[1]))
        return _int_merge_join(view, "int set mm merge-join", m_sur,
                               si, r_op[1])

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
        return "int set m-scan", builder
    return None


def _class_extent(db: Database, cls: Oid, interner: OidInterner):
    """``extent()``: the surrogates of ``cls``'s members, kept current.

    Built from ``db.hierarchy.members(cls)`` through
    :meth:`~repro.oodb.oid.OidInterner.known`, so nothing is interned:
    a member without a surrogate cannot sit in an int column yet.  It is
    remembered, and looked up again once the interner has grown.  The
    set is rebuilt when the hierarchy's ``version`` moves (isa heads
    add edges between rounds).

    Server reader threads share cached plans, so several may call one
    ``extent()`` at once.  The memo is one tuple, replaced whole and
    never mutated: a reader sees either the old state or the new one,
    never a new version paired with the old members.
    """
    memo = None  # (hierarchy, version, capacity, members, missing)

    def extent() -> set[int]:
        nonlocal memo
        state = memo
        hierarchy = db.hierarchy
        if (state is None or state[0] is not hierarchy
                or state[1] != hierarchy.version):
            version = hierarchy.version
            capacity = interner.capacity
            members, missing = interner.known(hierarchy.members(cls))
            memo = (hierarchy, version, capacity, members, missing)
            return members
        members, missing = state[3], state[4]
        if missing and interner.capacity != state[2]:
            capacity = interner.capacity
            found, missing = interner.known(missing)
            members = members | found
            memo = (hierarchy, state[1], capacity, members, missing)
        return members
    return extent


def _int_isa(db: Database, atom: IsaAtom, bound: set[Var],
             slots: dict[Var, int], interner: OidInterner):
    """``X : c`` over an int column as a semi-join, or None.

    Serves a bound variable against a constant class other than the
    built-in value classes (``integer`` and ``string`` are checkable,
    not enumerable); enumerating members or classes and variable
    classes stay on the boxed kernels.
    """
    if (not isinstance(atom.obj, Var) or atom.obj not in bound
            or not isinstance(atom.cls, Name)):
        return None
    oi = slots[atom.obj]
    cls = db.lookup_name(atom.cls.value)
    if cls in (_builtins.INTEGER_CLASS, _builtins.STRING_CLASS):
        return None
    extent = _class_extent(db, cls, interner)

    def builder(carry: tuple) -> BatchStep:
        def step(cols: list, nrows: int, _extent=extent, _oi=oi) -> int:
            members = _extent()
            col = cols[_oi]
            idx = [i for i in range(nrows) if col[i] in members]
            _take(cols, carry, idx)
            return len(idx)
        return step
    return "int isa check", builder


# ---------------------------------------------------------------------------
# Step dispatch with per-slot representation tracking
# ---------------------------------------------------------------------------

def _converted(builder: StepBuilder, slots: tuple, convert) -> StepBuilder:
    """Switch ``slots``' representation in place before the step runs.

    ``convert`` maps one value: ``interner.intern`` before an int
    kernel reads a boxed column, the resolver's index before a boxed
    step reads an int one.  Each slot then keeps the new representation
    for every later step, which is what the compile-time representation
    map records.  A row-at-a-time step's ``blocks`` entry
    (:func:`repro.engine.batch.chunks`) gets the same preparation.
    """
    if not slots:
        return builder

    def prepare(cols: list) -> None:
        for slot in slots:
            cols[slot] = list(map(convert, cols[slot]))

    def wrapped(carry: tuple) -> BatchStep:
        step = builder(carry)

        def run(cols: list, nrows: int) -> int:
            prepare(cols)
            return step(cols, nrows)

        blocks = getattr(step, "blocks", None)
        if blocks is not None:
            def run_blocks(cols: list, nrows: int, budget):
                prepare(cols)
                return blocks(cols, nrows, budget)
            run.blocks = run_blocks
        return run
    return wrapped


def _compile_columnar_step(db: Database, atom: Atom, bound: set[Var],
                           slots: dict[Var, int], policy: MatchPolicy,
                           rep: list[bool], interner: OidInterner):
    """One step with representation selection; mutates ``rep``.

    Stored scalar and set atoms with a constant method and no
    ``@``-arguments, and isa checks against a constant class, run on
    int kernels: a boxed column they read is interned in place first
    (a new surrogate is assigned under the interner's lock, so
    concurrent readers of a cached plan stay safe).  Every other atom
    runs a boxed step of :mod:`repro.engine.batch`, with int read
    columns dereferenced in place (a list index per row, no hashing).
    """
    reads, writes = _step_io(atom, bound, slots)
    reads = tuple(slot for _, slot in reads)
    writes = tuple(slot for _, slot in writes)
    specialized = None
    if isinstance(atom, ScalarAtom):
        specialized = _int_scalar(db, atom, bound, slots, policy, interner)
    elif isinstance(atom, SetMemberAtom):
        specialized = _int_set(db, atom, bound, slots, policy, interner)
    elif isinstance(atom, IsaAtom):
        specialized = _int_isa(db, atom, bound, slots, interner)
    if specialized is not None:
        name, builder = specialized
        convert = tuple(slot for slot in reads if not rep[slot])
        builder = _converted(builder, convert, interner.intern)
        is_int = True
    else:
        name, builder = _compile_batch_step(db, atom, bound, slots, policy)
        convert = tuple(slot for slot in reads if rep[slot])
        builder = _converted(builder, convert,
                             interner.resolver().__getitem__)
        is_int = False
    for slot in convert + writes:
        rep[slot] = is_int
    return name, builder, reads, writes


# ---------------------------------------------------------------------------
# Columnar plans
# ---------------------------------------------------------------------------

class ColumnarPlan:
    """A plan lowered to int-surrogate columns, ready to execute.

    ``counters[i]`` accumulates the rows leaving step ``i`` -- the
    interpreted matcher's per-step extension counts -- and a seed
    binding must bind exactly the plan's ``bound_in`` variables among
    its slots.  ``reps`` records each slot's final representation (True
    = int surrogates); output columns are dereferenced to OIDs at the
    boundary unless the caller asks for ``raw`` columns (the engine's
    int-native head emitter does, to deduplicate in int space).
    :meth:`column_executor` serves the engine's full rule firings,
    :meth:`rows` the lazy answer stream of ad-hoc conjunctions
    (``Query`` answers, ``solve``, the maintainer's full firings), and
    :meth:`exists` goal-directed checks and ``ask()``; the last two
    share one depth-first chunk loop (:func:`repro.engine.batch.chunks`).

    It keeps the plan's ``bound_in``, not the plan: the plan caches this
    object (``compiled_cache``, keyed by the database), so a back
    reference would make a cycle that keeps every result database a run
    compiled against alive until a full collector pass.
    """

    __slots__ = ("bound_in", "slots", "nslots", "kernel_names", "reps",
                 "interner", "_builders", "_reads", "_writes", "_entry",
                 "_out", "_exists", "_rows")

    def __init__(self, plan: Plan, slots: dict[Var, int],
                 builders: tuple[StepBuilder, ...],
                 kernel_names: tuple[str, ...],
                 reads: tuple[tuple, ...], writes: tuple[tuple, ...],
                 reps: tuple[bool, ...], interner: OidInterner) -> None:
        self.bound_in = plan.bound_in
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
        self._exists = None
        self._rows = None

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
                bound_in = self.bound_in
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
                f"{set(self.bound_in)!r}, but no seed binding was given"
            )
        return cols

    def column_executor(self, counters: list[int] | None = None,
                        project: Sequence[Var] | None = None,
                        raw: bool = False):
        """``(execute, out_pairs)``: column access for batch callers.

        With ``raw=False`` (the default) output columns hold OIDs; with
        ``raw=True`` int slots keep their surrogates (consult ``reps``).
        ``execute(binding=None, budget=None)`` checks its call's
        ``budget`` once per kernel step (the cooperative cancellation
        granularity of columnar execution).
        """
        out = self._out_pairs(project)
        steps = self._build_steps({slot for _, slot in out})
        reps = self.reps
        deref = (() if raw
                 else tuple(slot for _, slot in out if reps[slot]))
        resolver = self.interner.resolver()

        def run(binding: Binding | None, check):
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

        def execute(binding: Binding | None = None, budget=None):
            return run_budgeted(run, binding, budget)
        return execute, out

    def rows(self, binding: Binding | None = None,
             counters: list[int] | None = None,
             budget=None) -> Iterator[Binding]:
        """Yield every solution extending ``binding`` as a dict, lazily.

        Chunks come off the depth-first chunk loop one at a time and are
        dereferenced and turned into dicts only when the consumer gets
        to them, so a caller that stops early (``ask()``, a first
        answer) leaves the rest of the plan unexecuted.  Seed variables
        that are not plan slots ride along in every solution.
        ``budget`` is checked per step and per chunk (the
        ``columnar.step`` site).
        """
        steps = self._rows
        if steps is None:
            steps = self._rows = self._build_steps(
                {slot for _, slot in self._out})
        cols = self._seed(binding)
        names = tuple(var for var, _ in self._out)
        out = tuple((slot, self.reps[slot]) for _, slot in self._out)
        resolver = self.interner.resolver()
        base = dict(binding) if binding else None
        for chunk, nrows in chunks(steps, cols, 1, budget=budget,
                                   counters=counters):
            if not out:
                for _ in range(nrows):
                    yield dict(base) if base else {}
                continue
            columns = [[resolver[v] for v in chunk[slot]] if is_int
                       else chunk[slot] for slot, is_int in out]
            if base is None:
                for values in zip(*columns):
                    yield dict(zip(names, values))
            else:
                for values in zip(*columns):
                    row = dict(base)
                    row.update(zip(names, values))
                    yield row

    def exists(self, binding: Binding | None = None, stats=None,
               budget=None) -> bool:
        """True when at least one solution extends ``binding``.

        The first chunk the loop yields is the answer: rows are pushed
        through the steps in small chunks and the first one to survive
        them all stops the run.
        """
        steps = self._exists
        if steps is None:
            steps = self._exists = self._build_steps(set())
        if stats is not None:
            stats.batches += 1
        for _ in chunks(steps, self._seed(binding), 1, budget=budget,
                        stats=stats):
            return True
        return False


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
            db, atom, bound, slots, policy, rep, interner)
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

class ColumnarDeltaPlan:
    """A delta-seeded rule body over int columns.

    The seed pass turns a whole round's delta into the initial columns
    in one loop (no per-seed re-entry into the join), then the
    rest-of-body steps run exactly like :class:`ColumnarPlan`'s.
    Counters are ``[seeds, step rows...]``, matching the engine's delta
    records.
    """

    __slots__ = ("slots", "nslots", "kernel_names", "reps", "interner",
                 "_seed", "_builders", "_reads", "_writes", "_out")

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

    def _build_steps(self, out_slots: set[int]) -> tuple[BatchStep, ...]:
        return _bake_steps(self._builders, self._reads, self._writes,
                           self._seed[1], out_slots)

    def column_executor(self, counters: list[int] | None = None,
                        project: Sequence[Var] | None = None,
                        raw: bool = False):
        """``(execute, out_pairs)`` with
        ``execute(delta, budget=None) -> (cols, nrows)``."""
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

        def run(delta, check):
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

        def execute(delta, budget=None):
            return run_budgeted(run, delta, budget)
        return execute, out


def _apply_row(ops, values, regs) -> bool:
    """Run a row of ops against aligned fact components; False on mismatch."""
    for op, value in zip(ops, values):
        kind = op[0]
        if kind == _STORE:
            regs[op[1]] = value
        elif kind == _LOAD:
            if regs[op[1]] != value:
                return False
        elif value != op[1]:
            return False
    return True


def _method_filter(policy: MatchPolicy, m_op):
    """The per-entry method predicate of a boxed delta seed.

    When the method position is *enumerated* (a ``_STORE`` op -- an
    unbound variable ranging over stored methods), internal magic
    predicates are hidden in addition to the policy's depth bound,
    mirroring :func:`repro.engine.matching.method_visible`.  Constant
    and already-bound method positions keep the plain policy check.
    """
    method_ok = policy.method_ok
    if m_op[0] != _STORE:
        return method_ok
    return lambda m: method_ok(m) and method_visible(m)


def _int_delta_seed(wanted: str, method: Oid, s_op, r_op,
                    interner: OidInterner):
    """The seed of a parameterless constant-method delta atom.

    The round's int bucket of the method is the seed batch.  A written
    position takes its column as it is; a constant subject or result
    keeps the rows holding its surrogate, and a result repeating the
    subject's variable the rows where the two agree (a magic guard
    ``"__demand__"[magic$... ->> {X}]`` is the constant-subject case).
    """
    si = s_op[1] if s_op[0] == _STORE else None
    ri = r_op[1] if r_op[0] == _STORE else None
    s_sur = interner.intern(s_op[1]) if s_op[0] == _CONST else None
    r_sur = interner.intern(r_op[1]) if r_op[0] == _CONST else None
    same = r_op[0] == _LOAD
    filtered = s_sur is not None or r_sur is not None or same

    def seed(cols, delta):
        if not isinstance(delta, DeltaIndex):
            delta = DeltaIndex(delta, interner)
        s_col, r_col = delta.int_bucket(wanted, method)
        if filtered:
            idx = [i for i, (s, r) in enumerate(zip(s_col, r_col))
                   if (s_sur is None or s == s_sur)
                   and (r_sur is None or r == r_sur)
                   and (not same or s == r)]
            s_col = [s_col[i] for i in idx]
            r_col = [r_col[i] for i in idx]
        if si is not None:
            cols[si] = s_col
        if ri is not None:
            cols[ri] = r_col
        return len(s_col)
    return seed


def _generic_delta_seed(wanted: str, ops: tuple, nargs: int,
                        seed_writes: tuple, nslots: int,
                        policy: MatchPolicy, m_op):
    """The boxed row-at-a-time seed of a delta atom with ``@``-arguments
    or a variable method."""
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
                     else delta.boxed())
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


def compile_columnar_delta_plan(db: Database, atom: Atom, plan: Plan,
                                policy: MatchPolicy = UNRESTRICTED
                                ) -> ColumnarDeltaPlan:
    """Compile ``atom`` as an int-column delta seed chained into ``plan``.

    ``plan`` must have been built with the atom's variables as its
    initially-bound set (the engine guarantees this: every seed binds
    all of the delta atom's variables).
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
    interner = db.interner
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
    m_op, s_op, r_op = ops[0], ops[1], ops[-1]
    rep = [False] * nslots

    if m_op[0] == _CONST and not policy.method_ok(m_op[1]):
        def seed(cols, delta):
            return 0
        seed_name = _OVER_DEPTH[0]
    elif nargs == 0 and m_op[0] == _CONST:
        # Seeds int columns straight from the delta's bucket (a plain
        # Oid log is partitioned first).
        seed = _int_delta_seed(wanted, m_op[1], s_op, r_op, interner)
        for slot in seed_writes:
            rep[slot] = True
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
            db, rest_atom, bound, slots, policy, rep, interner)
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

def _int_head(db: Database, head):
    """``(base, path methods, filters)`` of an int-writable head, or None.

    The head is a molecule whose base is a name or variable under zero
    or more parameterless scalar path steps with stored constant
    methods (``X.p[...]``), and whose filters are stored scalar and set
    filters without ``@``-arguments over names and variables.  Every
    step writes a method of its own -- path and filter methods pairwise
    distinct -- so running the head step by step over a batch writes
    each method's facts in the order row-by-row realisation would, and
    raises exactly when it would (with ``p(o1) = o2``, the rows
    ``(o1, o3)`` and ``(o2, o4)`` under ``X.p[p -> Y]`` conflict in one
    order and not in the other).  Methods are name values; ``filters``
    holds one ``(kind, method, term)`` per written column.
    """
    if not isinstance(head, Molecule):
        return None
    filters = []
    for filt in head.filters:
        if isinstance(filt, ScalarFilter):
            kind, terms = "scalar", (filt.result,)
        elif isinstance(filt, SetEnumFilter):
            kind, terms = "set", filt.elements
        else:
            return None  # isa filters
        if filt.args or not isinstance(filt.method, Name):
            return None
        if any(not isinstance(term, (Name, Var)) for term in terms):
            return None
        filters += [(kind, filt.method.value, term) for term in terms]
    paths = []
    base = head.base
    while not isinstance(base, (Name, Var)):
        if isinstance(base, Paren):
            base = base.inner
            continue
        if (not isinstance(base, Path) or base.args or base.set_valued
                or not isinstance(base.method, Name)):
            return None
        paths.append(base.method.value)
        base = base.base
    paths.reverse()
    methods = [db.denotes(value)
               for value in paths + [value for _, value, _ in filters]]
    if (len(set(methods)) != len(methods)
            or any(map(_builtins.is_builtin_scalar, methods))):
        return None
    return base, paths, filters


def columnar_head_emitter(db: Database, rule, cplan, realizer=None):
    """An int-deduplicating head realizer for ``rule``, or None.

    Consumes *raw* solution columns and writes **mirror-first**, a
    whole batch per call, for the heads :func:`_int_head` accepts:
    molecules of stored scalar and set filters (no ``@``-parameters, no
    isa filters), over a base that may carry scalar path steps (the
    paper's virtual-object views, ``X.address[street -> S; city ->
    C]``), when no change log is open.  The head runs step by step over
    the batch:

    - a **path step** is define-or-reference with int probes against
      the method's mirror slice: a stored result is referenced, a
      missing one becomes the virtual object
      (:meth:`~repro.engine.heads.HeadRealizer.new_virtual`: identity,
      the ``max_virtual_depth`` limit and the ``virtuals_created``
      count), registered in the universe and interned -- once per
      subject, however often the batch repeats it -- and the new
      defining facts are written like a filter's;
    - a **filter** writes its whole column through the table's batch
      writer (``MethodTable.int_writer``), which deduplicates with int
      probes against the surrogate mirror and raises the same
      :class:`~repro.errors.ScalarConflictError` ``put`` would; the
      boxed facts/index dicts are back-filled lazily, one queued chunk
      per batch, on the next boxed read.

    Each writer's new columns go to the round as they are
    (:meth:`~repro.engine.delta.DeltaIndex.append_columns`), so a
    derived fact costs no container of its own -- no log tuple, no
    back-fill triple -- and a duplicate row never resolves an OID.
    Facts, virtual objects and each ``(kind, method)`` bucket's order
    are those of row-by-row realisation; the round boxes them only for
    a reader that asks.  Path heads need the run's ``realizer``; without
    one they get None.
    """
    if db.change_log is not None:
        return None
    shape = _int_head(db, rule.head)
    if shape is None:
        return None
    base_t, path_methods, filter_specs = shape
    if path_methods and realizer is None:
        return None

    interner = cplan.interner
    slot_of = cplan.slots
    reps = cplan.reps
    intern = interner.intern

    def reader(term):
        """``read(cols, nrows)``: one head term as a surrogate column
        (a boxed column is interned on the fly, a constant repeated),
        or None for a variable the plan does not bind."""
        if isinstance(term, Name):
            sur = intern(db.lookup_name(term.value))
            return lambda cols, nrows: repeat(sur, nrows)
        slot = slot_of.get(term)
        if slot is None:
            return None
        if reps[slot]:
            return lambda cols, nrows: cols[slot]
        return lambda cols, nrows: map(intern, cols[slot])

    read_base = reader(base_t)
    readers = [reader(term) for _, _, term in filter_specs]
    if read_base is None or None in readers:
        return None

    def writer(table, value):
        # The head's constants are registered here, once: no column
        # value needs registering -- each originates from a registered
        # fact -- except the virtual objects a path step creates.
        method = db.lookup_name(value)
        m_sur = intern(method)
        table.surrogate_view(interner)
        return method, m_sur, table.int_writer(method, m_sur)

    paths = [writer(db.scalars, value) for value in path_methods]
    filters = []
    for (kind, value, _), read in zip(filter_specs, readers):
        method, _, write = writer(
            db.scalars if kind == "scalar" else db.sets, value)
        filters.append((kind, method, write, read))
    # A subject column read by more than one step is materialised.
    shared = bool(paths) or len(filters) > 1

    if paths:
        apps = db.scalars.surrogate_view(interner).apps
        resolver = interner.resolver()
        register = db.register
        new_virtual = realizer.new_virtual

        def define_or_reference(method, m_sur, write, subjects, log) -> list:
            get = apps[m_sur].get
            fresh = [s for s in dict.fromkeys(subjects) if get(s) is None]
            if fresh:
                virtuals = [new_virtual(method, resolver[s], ())
                            for s in fresh]
                for virtual in virtuals:
                    register(virtual)
                new_s, new_v = write(fresh, list(map(intern, virtuals)))
                log.append_columns("scalar", method, new_s, new_v)
            return list(map(get, subjects))

    def emit(cols: list, nrows: int, log) -> None:
        subjects = read_base(cols, nrows)
        if shared and not isinstance(subjects, list):
            subjects = list(subjects)
        for method, m_sur, write in paths:
            subjects = define_or_reference(method, m_sur, write, subjects,
                                           log)
        for kind, method, write, read in filters:
            new_s, new_r = write(subjects, read(cols, nrows))
            if new_s:
                log.append_columns(kind, method, new_s, new_r)
    return emit


__all__ = [
    "ColumnarDeltaPlan",
    "ColumnarPlan",
    "columnar_head_emitter",
    "compile_columnar_delta_plan",
    "compile_columnar_plan",
]
