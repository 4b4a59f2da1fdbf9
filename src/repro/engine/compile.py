"""Compiled plan execution: slot-based bindings and specialized kernels.

The planner fixes each atom's boundness pattern statically, so all the
per-tuple work of the interpreted executor -- ``isinstance`` dispatch on
the atom kind, re-resolving the same terms against a dict binding, and
copying a ``dict[Var, Oid]`` for every extension -- can be hoisted to
plan-build time.  :func:`compile_plan` lowers a static
:class:`~repro.engine.planner.Plan` into a :class:`CompiledPlan`:

- every variable of the plan is assigned an integer **slot** once; a
  binding becomes a fixed-size mutable list (the register file) instead
  of a dict;
- each step becomes a **kernel**: a generator closure chosen at compile
  time from the (atom kind, boundness pattern, available index) triple
  -- e.g. a scalar atom with method and subject bound compiles to a
  single primary-dict probe, a scalar atom with the result bound to a
  by-method-result bucket scan -- with name constants resolved to OIDs
  and slot indexes baked into the closure;
- because boundness is static, every slot has exactly **one writer
  step**: the classic trail-based undo on backtrack degenerates to
  nothing (a kernel simply overwrites its slots on its next iteration),
  and no per-tuple allocation survives in the hot loop.  One output dict
  is built per *solution*, not per extension.

Superset and negation atoms keep their interpreted semantics behind a
generic bridge kernel (they re-enter the matcher / inner solver), as
does the rare "method arrives bound through a variable" case, whose
builtin-vs-stored dispatch is inherently dynamic.

Name constants are resolved against the database **at compile time**
(exactly once), so a compiled plan is tied to the database it was
compiled for; plan caches already key on the data version, and the
compiled form is memoised per ``(database, match policy)`` on the plan
itself.

:class:`CompiledPlan` is how *ad-hoc* conjunctions run (``Query``
answers, the maintainer's full firings): solutions stream lazily, one
register file at a time.  This module is also the substrate of the
set-at-a-time executors (:mod:`repro.engine.batch`,
:mod:`repro.engine.columnar`): the term-op lowering (``_term_op`` /
``_apply_row``), slot assignment, and per-atom kernel dispatch
(``_compile_step``) are shared, and atoms without a column form run
their compiled tuple kernel row-at-a-time inside a batch -- so every
semantic detail (magic-predicate hiding, method-depth policy, bridge
semantics) lives here exactly once.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.core import builtins as _builtins
from repro.core.ast import Name, Var
from repro.core.entailment import compare_oids
from repro.engine.matching import (
    UNRESTRICTED,
    Binding,
    MatchPolicy,
    match_atom,
    method_visible,
)
from repro.engine.planner import Plan
from repro.errors import EvaluationError
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
from repro.oodb.oid import Oid

#: A kernel: a generator over the register file, yielding once per way
#: the step's atom extends the current registers.
Kernel = Callable[[list], Iterator[None]]

# Term operations compiled per atom position: check a constant, check an
# already-written slot, or write a slot (its unique writer step).
_CONST, _LOAD, _STORE = 0, 1, 2

_EMPTY = frozenset()


def _term_op(term: Term, db: Database, slots: dict[Var, int],
             bound: set[Var], seen: set[Var]) -> tuple[int, object]:
    """Lower one term position to a (kind, payload) op."""
    if isinstance(term, Name):
        return (_CONST, db.lookup_name(term.value))
    if term in bound or term in seen:
        return (_LOAD, slots[term])
    seen.add(term)
    return (_STORE, slots[term])


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


def _known(term: Term, bound: set[Var]) -> bool:
    """Whether the term denotes *before* the atom runs (matcher parity).

    Branch selection must use pre-atom boundness, never the within-atom
    ops: a repeated variable's second occurrence compiles to a slot
    check, but the matcher still treats it as unbound when choosing the
    access path (``X[color -> X]`` scans; it does not probe the result
    index with a stale register).
    """
    return isinstance(term, Name) or term in bound


def _getter(op):
    """A zero-arg-per-row accessor for a known (const or loaded) op."""
    if op[0] == _CONST:
        oid = op[1]
        return lambda regs: oid
    index = op[1]
    return lambda regs: regs[index]


def _method_filter(policy: MatchPolicy, m_op):
    """The per-fact method predicate for a scan/probe kernel.

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


# ---------------------------------------------------------------------------
# Scalar kernels
# ---------------------------------------------------------------------------

def _scalar_kernels(db: Database, atom: ScalarAtom, bound: set[Var],
                    slots: dict[Var, int],
                    policy: MatchPolicy) -> tuple[str, Kernel]:
    s_known = _known(atom.subject, bound)
    args_known = all(_known(a, bound) for a in atom.args)
    r_known = _known(atom.result, bound)
    seen: set[Var] = set()
    m_op = _term_op(atom.method, db, slots, bound, seen)
    s_op = _term_op(atom.subject, db, slots, bound, seen)
    arg_ops = tuple(_term_op(a, db, slots, bound, seen) for a in atom.args)
    r_op = _term_op(atom.result, db, slots, bound, seen)
    nargs = len(atom.args)

    if m_op[0] == _CONST:
        method = m_op[1]
        if not policy.method_ok(method):
            return "none (method over depth)", _empty_kernel
        if _builtins.is_builtin_scalar(method):
            return _self_kernel(db, s_op, arg_ops, r_op, s_known, r_known)
        if s_known and args_known:
            return _scalar_lookup(db, method, s_op, arg_ops, r_op)
        if db.scalars.indexed and r_known:
            return _scalar_mr_probe(db, method, s_op, arg_ops, r_op, nargs)
        if db.scalars.indexed:
            return _scalar_m_scan(db, method, s_op, arg_ops, r_op, nargs)
        return _scalar_scan(db, m_op, s_op, arg_ops, r_op, nargs, policy,
                            "scalar filtered-scan")
    if m_op[0] == _LOAD and atom.method in bound:
        # Builtin-vs-stored dispatch depends on the runtime method value.
        return "scalar dynamic (interp)", _bridge_kernel(
            db, atom, bound, slots, policy)
    if s_known and db.scalars.indexed and m_op[0] == _STORE:
        return _scalar_s_probe(db, m_op, s_op, arg_ops, r_op, nargs, policy)
    return _scalar_scan(db, m_op, s_op, arg_ops, r_op, nargs, policy,
                        "scalar scan")


def _self_kernel(db: Database, s_op, arg_ops, r_op, s_known: bool,
                 r_known: bool) -> tuple[str, Kernel]:
    """The built-in identity ``o.self = o`` (no parameters)."""
    if arg_ops:
        return "self none", _empty_kernel
    if s_known:
        s_get = _getter(s_op)
        if r_op[0] == _STORE:
            ri = r_op[1]

            def kern(regs, _s=s_get, _ri=ri):
                regs[_ri] = _s(regs)
                yield None
        else:
            r_get = _getter(r_op)

            def kern(regs, _s=s_get, _r=r_get):
                if _s(regs) == _r(regs):
                    yield None
        return "self fwd", kern
    if r_known:
        r_get = _getter(r_op)
        si = s_op[1]

        def kern(regs, _r=r_get, _si=si):
            regs[_si] = _r(regs)
            yield None
        return "self rev", kern
    ops = (s_op, r_op)

    def kern(regs, _db=db, _ops=ops):
        for obj in _db.universe():
            if _apply_row(_ops, (obj, obj), regs):
                yield None
    return "self universe", kern


def _scalar_lookup(db: Database, method: Oid, s_op, arg_ops,
                   r_op) -> tuple[str, Kernel]:
    """Method, subject, and args known: one primary-dict probe."""
    facts = db.scalars.primary_view()
    if not arg_ops and s_op[0] == _CONST:
        key = (method, s_op[1], ())
        if r_op[0] == _STORE:
            ri = r_op[1]

            def kern(regs, _get=facts.get, _key=key, _ri=ri):
                value = _get(_key)
                if value is not None:
                    regs[_ri] = value
                    yield None
        else:
            r_get = _getter(r_op)

            def kern(regs, _get=facts.get, _key=key, _r=r_get):
                if _get(_key) == _r(regs):
                    yield None
        return "scalar get", kern
    if not arg_ops:
        si = s_op[1]
        if r_op[0] == _STORE:
            ri = r_op[1]

            def kern(regs, _get=facts.get, _m=method, _si=si, _ri=ri):
                value = _get((_m, regs[_si], ()))
                if value is not None:
                    regs[_ri] = value
                    yield None
        else:
            r_get = _getter(r_op)

            def kern(regs, _get=facts.get, _m=method, _si=si, _r=r_get):
                if _get((_m, regs[_si], ())) == _r(regs):
                    yield None
        return "scalar get", kern
    s_get = _getter(s_op)
    arg_gets = tuple(_getter(op) for op in arg_ops)

    def kern(regs, _get=facts.get, _m=method, _s=s_get, _a=arg_gets,
             _r=r_op):
        value = _get((_m, _s(regs), tuple(g(regs) for g in _a)))
        if value is not None and _apply_row((_r,), (value,), regs):
            yield None
    return "scalar get", kern


def _scalar_mr_probe(db: Database, method: Oid, s_op, arg_ops, r_op,
                     nargs: int) -> tuple[str, Kernel]:
    """Method and result known: scan the (method, result) index bucket."""
    buckets = db.scalars.by_method_result_view()
    r_get = _getter(r_op)
    if not arg_ops and s_op[0] == _STORE:
        si = s_op[1]

        def kern(regs, _b=buckets, _m=method, _r=r_get, _si=si):
            keys = _b.get((_m, _r(regs)))
            if keys:
                for key in keys:
                    if key[2]:
                        continue
                    regs[_si] = key[1]
                    yield None
        return "scalar mr-probe", kern
    row_ops = (s_op, *arg_ops)

    def kern(regs, _b=buckets, _m=method, _r=r_get, _ops=row_ops, _n=nargs):
        keys = _b.get((_m, _r(regs)))
        if keys:
            for key in keys:
                fargs = key[2]
                if len(fargs) != _n:
                    continue
                if _apply_row(_ops, (key[1], *fargs), regs):
                    yield None
    return "scalar mr-probe", kern


def _scalar_m_scan(db: Database, method: Oid, s_op, arg_ops, r_op,
                   nargs: int) -> tuple[str, Kernel]:
    """Method known, result not: walk the method's index bucket."""
    buckets = db.scalars.by_method_view()
    if not arg_ops and s_op[0] == _STORE and r_op[0] == _STORE:
        si, ri = s_op[1], r_op[1]

        def kern(regs, _b=buckets, _m=method, _si=si, _ri=ri):
            bucket = _b.get(_m)
            if bucket:
                for key, value in bucket.items():
                    if key[2]:
                        continue
                    regs[_si] = key[1]
                    regs[_ri] = value
                    yield None
        return "scalar m-scan", kern
    row_ops = (s_op, *arg_ops, r_op)

    def kern(regs, _b=buckets, _m=method, _ops=row_ops, _n=nargs):
        bucket = _b.get(_m)
        if bucket:
            for key, value in bucket.items():
                fargs = key[2]
                if len(fargs) != _n:
                    continue
                if _apply_row(_ops, (key[1], *fargs, value), regs):
                    yield None
    return "scalar m-scan", kern


def _scalar_s_probe(db: Database, m_op, s_op, arg_ops, r_op, nargs: int,
                    policy: MatchPolicy) -> tuple[str, Kernel]:
    """Method unbound, subject known: walk the subject index bucket."""
    buckets = db.scalars.by_subject_view()
    s_get = _getter(s_op)
    method_ok = _method_filter(policy, m_op)
    row_ops = (m_op, *arg_ops, r_op)

    def kern(regs, _b=buckets, _s=s_get, _ok=method_ok, _ops=row_ops,
             _n=nargs):
        bucket = _b.get(_s(regs))
        if bucket:
            for key, value in bucket.items():
                fargs = key[2]
                if len(fargs) != _n or not _ok(key[0]):
                    continue
                if _apply_row(_ops, (key[0], *fargs, value), regs):
                    yield None
    return "scalar s-probe", kern


def _scalar_scan(db: Database, m_op, s_op, arg_ops, r_op, nargs: int,
                 policy: MatchPolicy, name: str) -> tuple[str, Kernel]:
    """No usable index: scan the primary dict, unifying every position."""
    facts = db.scalars.primary_view()
    method_ok = _method_filter(policy, m_op)
    row_ops = (m_op, s_op, *arg_ops, r_op)

    def kern(regs, _facts=facts, _ok=method_ok, _ops=row_ops, _n=nargs):
        for key, value in _facts.items():
            fargs = key[2]
            if len(fargs) != _n or not _ok(key[0]):
                continue
            if _apply_row(_ops, (key[0], key[1], *fargs, value), regs):
                yield None
    return name, kern


# ---------------------------------------------------------------------------
# Set-membership kernels
# ---------------------------------------------------------------------------

def _set_kernels(db: Database, atom: SetMemberAtom, bound: set[Var],
                 slots: dict[Var, int],
                 policy: MatchPolicy) -> tuple[str, Kernel]:
    s_known = _known(atom.subject, bound)
    args_known = all(_known(a, bound) for a in atom.args)
    r_known = _known(atom.member, bound)
    seen: set[Var] = set()
    m_op = _term_op(atom.method, db, slots, bound, seen)
    s_op = _term_op(atom.subject, db, slots, bound, seen)
    arg_ops = tuple(_term_op(a, db, slots, bound, seen) for a in atom.args)
    r_op = _term_op(atom.member, db, slots, bound, seen)
    nargs = len(atom.args)

    if m_op[0] == _CONST:
        method = m_op[1]
        if not policy.method_ok(method):
            return "none (method over depth)", _empty_kernel
        if s_known and args_known:
            return _set_app_kernel(db, method, s_op, arg_ops, r_op, r_known)
        if db.sets.indexed and r_known:
            return _set_mm_probe(db, method, s_op, arg_ops, r_op, nargs)
        if db.sets.indexed:
            return _set_m_scan(db, method, s_op, arg_ops, r_op, nargs)
        return _set_scan(db, m_op, s_op, arg_ops, r_op, nargs, policy,
                         "set filtered-scan")
    if m_op[0] == _LOAD:
        return "set dynamic (interp)", _bridge_kernel(
            db, atom, bound, slots, policy)
    if s_known and db.sets.indexed:
        return _set_s_probe(db, m_op, s_op, arg_ops, r_op, nargs, policy)
    return _set_scan(db, m_op, s_op, arg_ops, r_op, nargs, policy, "set scan")


def _set_app_kernel(db: Database, method: Oid, s_op, arg_ops, r_op,
                    r_known: bool) -> tuple[str, Kernel]:
    """Method, subject, and args known: probe one application's set."""
    facts = db.sets.primary_view()
    if not arg_ops and s_op[0] == _CONST:
        # Constant subject (e.g. a magic guard's demand anchor): the
        # whole probe key is baked at compile time, like _scalar_lookup.
        key = (method, s_op[1], ())
        if r_known:
            r_get = _getter(r_op)

            def kern(regs, _get=facts.get, _key=key, _r=r_get):
                bucket = _get(_key)
                if bucket and _r(regs) in bucket:
                    yield None
            return "set contains", kern
        ri = r_op[1]

        def kern(regs, _get=facts.get, _key=key, _ri=ri):
            bucket = _get(_key)
            if bucket:
                for value in bucket:
                    regs[_ri] = value
                    yield None
        return "set iter", kern
    s_get = _getter(s_op)
    if arg_ops:
        arg_gets = tuple(_getter(op) for op in arg_ops)

        def key_of(regs, _m=method, _s=s_get, _a=arg_gets):
            return (_m, _s(regs), tuple(g(regs) for g in _a))
    else:
        def key_of(regs, _m=method, _s=s_get):
            return (_m, _s(regs), ())
    if r_known:
        r_get = _getter(r_op)

        def kern(regs, _get=facts.get, _key=key_of, _r=r_get):
            bucket = _get(_key(regs))
            if bucket and _r(regs) in bucket:
                yield None
        return "set contains", kern
    ri = r_op[1]

    def kern(regs, _get=facts.get, _key=key_of, _ri=ri):
        bucket = _get(_key(regs))
        if bucket:
            for value in bucket:
                regs[_ri] = value
                yield None
    return "set iter", kern


def _set_mm_probe(db: Database, method: Oid, s_op, arg_ops, r_op,
                  nargs: int) -> tuple[str, Kernel]:
    """Method and member known: scan the (method, member) index bucket."""
    buckets = db.sets.by_method_member_view()
    r_get = _getter(r_op)
    if not arg_ops and s_op[0] == _STORE:
        si = s_op[1]

        def kern(regs, _b=buckets, _m=method, _r=r_get, _si=si):
            keys = _b.get((_m, _r(regs)))
            if keys:
                for key in keys:
                    if key[2]:
                        continue
                    regs[_si] = key[1]
                    yield None
        return "set mm-probe", kern
    row_ops = (s_op, *arg_ops)

    def kern(regs, _b=buckets, _m=method, _r=r_get, _ops=row_ops, _n=nargs):
        keys = _b.get((_m, _r(regs)))
        if keys:
            for key in keys:
                fargs = key[2]
                if len(fargs) != _n:
                    continue
                if _apply_row(_ops, (key[1], *fargs), regs):
                    yield None
    return "set mm-probe", kern


def _set_m_scan(db: Database, method: Oid, s_op, arg_ops, r_op,
                nargs: int) -> tuple[str, Kernel]:
    """Method known: walk its applications, then each stored set."""
    buckets = db.sets.by_method_view()
    # Two _STOREs are always distinct slots: a repeated variable's
    # second occurrence compiles to a _LOAD check.
    if not arg_ops and s_op[0] == _STORE and r_op[0] == _STORE:
        si, ri = s_op[1], r_op[1]

        def kern(regs, _b=buckets, _m=method, _si=si, _ri=ri):
            apps = _b.get(_m)
            if apps:
                for key, members in apps.items():
                    if key[2]:
                        continue
                    regs[_si] = key[1]
                    for value in members:
                        regs[_ri] = value
                        yield None
        return "set m-scan", kern
    row_ops = (s_op, *arg_ops)

    def kern(regs, _b=buckets, _m=method, _ops=row_ops, _n=nargs, _r=r_op):
        apps = _b.get(_m)
        if apps:
            for key, members in apps.items():
                fargs = key[2]
                if len(fargs) != _n:
                    continue
                if not _apply_row(_ops, (key[1], *fargs), regs):
                    continue
                for value in members:
                    if _apply_row((_r,), (value,), regs):
                        yield None
    return "set m-scan", kern


def _set_s_probe(db: Database, m_op, s_op, arg_ops, r_op, nargs: int,
                 policy: MatchPolicy) -> tuple[str, Kernel]:
    """Method unbound, subject known: walk the subject's applications."""
    buckets = db.sets.by_subject_view()
    s_get = _getter(s_op)
    method_ok = _method_filter(policy, m_op)
    row_ops = (m_op, *arg_ops)

    def kern(regs, _b=buckets, _s=s_get, _ok=method_ok, _ops=row_ops,
             _n=nargs, _r=r_op):
        apps = _b.get(_s(regs))
        if apps:
            for key, members in apps.items():
                fargs = key[2]
                if len(fargs) != _n or not _ok(key[0]):
                    continue
                if not _apply_row(_ops, (key[0], *fargs), regs):
                    continue
                for value in members:
                    if _apply_row((_r,), (value,), regs):
                        yield None
    return "set s-probe", kern


def _set_scan(db: Database, m_op, s_op, arg_ops, r_op, nargs: int,
              policy: MatchPolicy, name: str) -> tuple[str, Kernel]:
    facts = db.sets.primary_view()
    method_ok = _method_filter(policy, m_op)
    row_ops = (m_op, s_op, *arg_ops)

    def kern(regs, _facts=facts, _ok=method_ok, _ops=row_ops, _n=nargs,
             _r=r_op):
        for key, members in _facts.items():
            fargs = key[2]
            if len(fargs) != _n or not _ok(key[0]):
                continue
            if not _apply_row(_ops, (key[0], key[1], *fargs), regs):
                continue
            for value in members:
                if _apply_row((_r,), (value,), regs):
                    yield None
    return name, kern


# ---------------------------------------------------------------------------
# Isa, comparison, and bridge kernels
# ---------------------------------------------------------------------------

def _isa_kernels(db: Database, atom: IsaAtom, bound: set[Var],
                 slots: dict[Var, int]) -> tuple[str, Kernel]:
    o_known = _known(atom.obj, bound)
    c_known = _known(atom.cls, bound)
    seen: set[Var] = set()
    o_op = _term_op(atom.obj, db, slots, bound, seen)
    c_op = _term_op(atom.cls, db, slots, bound, seen)
    if o_known and c_known:
        o_get, c_get = _getter(o_op), _getter(c_op)

        def kern(regs, _isa=db.isa, _o=o_get, _c=c_get):
            if _isa(_o(regs), _c(regs)):
                yield None
        return "isa check", kern
    if o_known:
        o_get = _getter(o_op)
        ci = c_op[1]

        def kern(regs, _of=db.classes_of, _o=o_get, _ci=ci):
            for cls in _of(_o(regs)):
                regs[_ci] = cls
                yield None
        return "isa classes-of", kern
    if c_known:
        c_get = _getter(c_op)
        oi = o_op[1]

        def kern(regs, _members=db.members, _c=c_get, _oi=oi):
            for obj in _members(_c(regs)):
                regs[_oi] = obj
                yield None
        return "isa members", kern
    ops = (o_op, c_op)

    def kern(regs, _db=db, _ops=ops):
        for obj in _db.hierarchy.objects():
            for cls in _db.classes_of(obj):
                if _apply_row(_ops, (obj, cls), regs):
                    yield None
    return "isa scan", kern


def _comparison_kernel(db: Database, atom: ComparisonAtom, bound: set[Var],
                       slots: dict[Var, int]) -> tuple[str, Kernel]:
    seen: set[Var] = set()
    l_op = _term_op(atom.left, db, slots, bound, seen)
    r_op = _term_op(atom.right, db, slots, bound, seen)
    if not (_known(atom.left, bound) and _known(atom.right, bound)):
        message = (f"comparison {atom} requires both sides bound; reorder "
                   f"the body so its variables are bound first")

        def kern(regs, _msg=message):
            raise EvaluationError(_msg)
            yield None  # pragma: no cover - unreachable
        return "compare unready", kern
    l_get, r_get = _getter(l_op), _getter(r_op)
    op = atom.op

    def kern(regs, _op=op, _l=l_get, _r=r_get):
        if compare_oids(_op, _l(regs), _r(regs)):
            yield None
    return "compare", kern


def _negation_kernel(db: Database, atom: NegationAtom, bound: set[Var],
                     slots: dict[Var, int],
                     policy: MatchPolicy) -> tuple[str, Kernel]:
    """Negation as failure: scoped dict, inner existence on the
    constant-cost heuristic order (mirrors the interpreted matcher)."""
    from repro.engine.solve import _solve_dynamic

    pairs = tuple((var, slots[var]) for var in atom.inner_variables()
                  if var in bound)
    inner = list(atom.inner)

    def kern(regs, _db=db, _inner=inner, _pairs=pairs, _policy=policy):
        scoped = {var: regs[slot] for var, slot in _pairs}
        for _ in _solve_dynamic(_db, _inner, scoped, _policy):
            return
        yield None
    return "negation (interp)", kern


def _atom_variables(atom: Atom) -> tuple[Var, ...]:
    """Every variable the atom can bind (source variables included)."""
    variables = list(atom.variables())
    if isinstance(atom, (SupersetAtom, EnumSupersetAtom)):
        for var in atom.source_variables():
            if var not in variables:
                variables.append(var)
    return tuple(variables)


def _bridge_kernel(db: Database, atom: Atom, bound: set[Var],
                   slots: dict[Var, int], policy: MatchPolicy) -> Kernel:
    """Generic fallback: re-enter the interpreted matcher for one atom.

    Builds a dict binding from the statically-bound slots, and writes the
    newly bound variables back into their slots per extension.  Used for
    superset atoms and dynamically-dispatched method variables.
    """
    variables = _atom_variables(atom)
    bound_pairs = tuple((v, slots[v]) for v in variables if v in bound)
    store_pairs = tuple((v, slots[v]) for v in variables if v not in bound)

    def kern(regs, _db=db, _atom=atom, _bound=bound_pairs,
             _store=store_pairs, _policy=policy):
        binding = {var: regs[slot] for var, slot in _bound}
        for extended in match_atom(_db, _atom, binding, _policy):
            for var, slot in _store:
                regs[slot] = extended[var]
            yield None
    return kern


def _empty_kernel(regs) -> Iterator[None]:
    """A kernel that never yields (statically unsatisfiable step)."""
    return iter(())


# ---------------------------------------------------------------------------
# Step dispatch and plan compilation
# ---------------------------------------------------------------------------

def _compile_step(db: Database, atom: Atom, bound: set[Var],
                  slots: dict[Var, int],
                  policy: MatchPolicy) -> tuple[str, Kernel]:
    if isinstance(atom, ScalarAtom):
        return _scalar_kernels(db, atom, bound, slots, policy)
    if isinstance(atom, SetMemberAtom):
        return _set_kernels(db, atom, bound, slots, policy)
    if isinstance(atom, IsaAtom):
        return _isa_kernels(db, atom, bound, slots)
    if isinstance(atom, ComparisonAtom):
        return _comparison_kernel(db, atom, bound, slots)
    if isinstance(atom, NegationAtom):
        return _negation_kernel(db, atom, bound, slots, policy)
    if isinstance(atom, (SupersetAtom, EnumSupersetAtom)):
        return "superset (interp)", _bridge_kernel(db, atom, bound, slots,
                                                   policy)
    raise TypeError(f"unknown atom kind: {atom!r}")  # pragma: no cover


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


def _compose(kernels: Sequence[Kernel],
             counters: list[int] | None = None) -> Kernel:
    """Chain kernels into one runner; ``counters[i]`` counts step i's rows.

    The counting variant is a separate composition so the plain hot loop
    carries no ``counters is not None`` branch per tuple.
    """
    run: Kernel | None = None
    for index in range(len(kernels) - 1, -1, -1):
        kern = kernels[index]
        inner = run
        if counters is None:
            if inner is None:
                run = kern
            else:
                def run(regs, _k=kern, _inner=inner):
                    for _ in _k(regs):
                        yield from _inner(regs)
        else:
            if inner is None:
                def run(regs, _k=kern, _c=counters, _i=index):
                    for _ in _k(regs):
                        _c[_i] += 1
                        yield None
            else:
                def run(regs, _k=kern, _c=counters, _i=index, _inner=inner):
                    for _ in _k(regs):
                        _c[_i] += 1
                        yield from _inner(regs)
    if run is None:
        def run(regs):
            yield None
    return run


class CompiledPlan:
    """A plan lowered to slots and kernels, ready to execute.

    ``kernel_names`` names the kernel chosen for each step (surfaced in
    EXPLAIN output).  :meth:`executor` builds a reusable execution entry
    point; :meth:`execute` is the one-shot convenience.

    It keeps the plan's ``bound_in``, not the plan: the plan caches this
    object (``compiled_cache``, keyed by the database), so a back
    reference would make a cycle that keeps the database alive until a
    full collector pass.
    """

    __slots__ = ("bound_in", "nslots", "slots", "kernel_names", "_kernels",
                 "_entry", "_out", "_plain")

    def __init__(self, plan: Plan, slots: dict[Var, int],
                 kernels: tuple[Kernel, ...],
                 kernel_names: tuple[str, ...]) -> None:
        self.bound_in = plan.bound_in
        self.slots = slots
        self.nslots = len(slots)
        self._kernels = kernels
        self.kernel_names = kernel_names
        self._entry = tuple((var, slots[var]) for var in plan.bound_in
                            if var in slots)
        self._out = tuple(slots.items())
        self._plain: Callable[[Binding | None], Iterator[Binding]] | None = \
            None

    def executor(self, counters: list[int] | None = None,
                 project: Sequence[Var] | None = None,
                 budget=None
                 ) -> Callable[[Binding | None], Iterator[Binding]]:
        """Build an execution entry point.

        ``counters[i]`` accumulates step i's actual rows (a separate
        counting composition; the plain runner stays branch-free).
        ``project`` restricts the solution dicts to the given variables
        (plus whatever the seed binding carried).  ``budget`` (a
        :class:`~repro.engine.budget.QueryBudget`) inserts a periodic
        cooperative checkpoint -- once on entry, then every 256 rows --
        around the otherwise branch-free kernel chain; without one the
        plain runner is unchanged.
        """
        run = _compose(self._kernels, counters)
        if budget is not None:
            run = _budgeted_run(run, budget)
        nslots = self.nslots
        entry = self._entry
        out = self._out
        if project is not None:
            wanted = set(project)
            out = tuple(pair for pair in out if pair[0] in wanted)
        slot_of = self.slots
        bound_in = self.bound_in

        def execute(binding: Binding | None = None) -> Iterator[Binding]:
            regs = [None] * nslots
            if binding:
                base = dict(binding)
                for var, slot in entry:
                    value = base.get(var)
                    if value is None:
                        raise EvaluationError(
                            f"plan was compiled with {var} bound, but "
                            f"the seed binding does not bind it"
                        )
                    regs[slot] = value
                if len(base) > len(entry):
                    for var in base:
                        if var in slot_of and var not in bound_in:
                            raise EvaluationError(
                                f"plan was compiled for bound variables "
                                f"{set(bound_in)!r}, but the seed binding "
                                f"also binds {var}"
                            )
                for _ in run(regs):
                    result = dict(base)
                    for var, slot in out:
                        result[var] = regs[slot]
                    yield result
            else:
                if entry:
                    raise EvaluationError(
                        f"plan was compiled for bound variables "
                        f"{set(bound_in)!r}, but no seed binding was given"
                    )
                for _ in run(regs):
                    yield {var: regs[slot] for var, slot in out}
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


def _budgeted_run(run, budget):
    """Wrap a composed kernel chain with periodic budget checkpoints."""
    def checked(regs):
        budget.check("compiled.run")
        rows = 0
        for row in run(regs):
            rows += 1
            if not rows & 0xFF:
                budget.check("compiled.run")
            yield row
    return checked


def compile_plan(db: Database, plan: Plan,
                 policy: MatchPolicy = UNRESTRICTED) -> CompiledPlan:
    """Lower ``plan`` for ``db``; memoised per (database, policy) pair.

    The database itself is the memo key (identity-hashed), which both
    distinguishes databases and keeps one alive while a cached plan
    still carries kernels bound to its fact dicts -- an ``id()`` key
    could be recycled by a later database at the same address.
    """
    key = (db, policy.max_method_depth)
    cached = plan.compiled_cache.get(key)
    if cached is not None:
        return cached
    slots = _assign_slots([step.atom for step in plan.steps], plan.bound_in)
    bound: set[Var] = set(plan.bound_in)
    kernels: list[Kernel] = []
    names: list[str] = []
    for step in plan.steps:
        name, kernel = _compile_step(db, step.atom, bound, slots, policy)
        kernels.append(kernel)
        names.append(name)
        bound.update(_atom_variables(step.atom))
    compiled = CompiledPlan(plan, slots, tuple(kernels), tuple(names))
    plan.compiled_cache[key] = compiled
    return compiled
