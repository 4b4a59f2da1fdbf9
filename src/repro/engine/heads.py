"""Head realisation: making a rule head true, creating virtual objects.

Given a normalised head spine and a body solution (a total binding of
the head's variables), :class:`HeadRealizer` asserts whatever facts make
the head entailed:

- a scalar **path** along the spine is *define-or-reference*: when
  ``I_->(m)(subject, args)`` is already defined the existing object is
  referenced; otherwise a fresh :class:`~repro.oodb.oid.VirtualOid`
  ``m(subject, args)`` is created and the scalar fact asserted -- the
  paper's virtual objects (Section 6, rules (2.4) and (6.1)), and the
  mechanism behind generic methods (``(M.tc)`` creates the method object
  ``tc(M)``);
- a **scalar filter** asserts its fact, raising
  :class:`~repro.errors.ScalarConflictError` when a different result is
  already stored;
- an **enumerated set filter** adds each element to the method's set;
- an **isa filter** declares class membership (the class hierarchy
  rejects derived cycles).

Every *newly* asserted primitive is appended to the realizer's ``log``
(kind-tagged tuples), which drives the engine's semi-naive deltas and
its fixpoint detection.

Two entry points share one set of primitives: :meth:`HeadRealizer.realize`
walks the spine for one binding (tuple-at-a-time evaluation,
support-tracked rules, incremental maintenance -- and the reference the
other is tested against), and :meth:`HeadRealizer.compile_columns`
lowers the spine once into a flat program that the batched executors
run over whole solution columns.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from repro.core import builtins as _builtins
from repro.core.ast import (
    IsaFilter,
    Molecule,
    Name,
    Paren,
    Path,
    Reference,
    ScalarFilter,
    SetEnumFilter,
    Var,
)
from repro.core.variables import variables_of
from repro.engine.matching import Binding
from repro.errors import EvaluationError, ResourceLimitError
from repro.testing.faults import fault_point
from repro.oodb.database import Database
from repro.oodb.oid import Oid, VirtualOid

#: A derived primitive, as logged for semi-naive deltas:
#: ("scalar", m, s, args, r) | ("set", m, s, args, r) | ("isa", o, c).
Derived = tuple


class HeadRealizer:
    """Asserts head spines into a database, tracking what was new."""

    def __init__(self, db: Database, *, max_virtual_depth: int = 32) -> None:
        self._db = db
        self._max_virtual_depth = max_virtual_depth
        #: Newly asserted primitives; the engine swaps this list per
        #: iteration to collect deltas.
        self.log: list[Derived] = []
        #: Total number of virtual objects this realizer created.
        self.virtuals_created = 0

    def realize(self, head: Reference, binding: Binding) -> tuple[Oid, bool]:
        """Make ``head`` true under ``binding``.

        Returns the object the head denotes and whether any *new* fact
        was asserted.
        """
        before = len(self.log)
        obj = self._realize(head, binding)
        return obj, len(self.log) > before

    def replay(self, entries: Iterable[Derived]) -> int:
        """Re-assert logged primitives; returns how many were new.

        The incremental maintenance layer uses this to apply base-fact
        insertions (and rederived facts) with the same logging the
        engine's semi-naive deltas ride on: every entry that was
        actually absent is asserted and appended to :attr:`log`, and
        because entries carry concrete OIDs, re-asserting a fact whose
        result is a virtual object reuses the *identical*
        :class:`~repro.oodb.oid.VirtualOid` the original run created.
        """
        fault_point("heads.replay")
        new = 0
        for entry in entries:
            kind = entry[0]
            if kind == "scalar":
                added = self._db.assert_scalar(entry[1], entry[2],
                                               entry[3], entry[4])
            elif kind == "set":
                added = self._db.assert_set_member(entry[1], entry[2],
                                                   entry[3], entry[4])
            else:
                added = self._db.assert_isa(entry[1], entry[2])
            if added:
                self.log.append(entry)
                new += 1
        return new

    # -- spine walk ---------------------------------------------------------

    def _realize(self, ref: Reference, binding: Binding) -> Oid:
        if isinstance(ref, Name):
            return self._db.lookup_name(ref.value)
        if isinstance(ref, Var):
            try:
                return binding[ref]
            except KeyError:
                raise EvaluationError(
                    f"head variable {ref.name} is unbound; normalisation "
                    f"should have rejected this rule"
                ) from None
        if isinstance(ref, Paren):
            return self._realize(ref.inner, binding)
        if isinstance(ref, Path):
            subject = self._realize(ref.base, binding)
            method = self._realize(ref.method, binding)
            args = tuple(self._realize(a, binding) for a in ref.args)
            return self._path_value(method, subject, args)
        if isinstance(ref, Molecule):
            return self._realize_molecule(ref, binding)
        raise TypeError(f"not a reference: {ref!r}")

    def _realize_molecule(self, molecule: Molecule, binding: Binding) -> Oid:
        subject = self._realize(molecule.base, binding)
        for filt in molecule.filters:
            if isinstance(filt, IsaFilter):
                self._assert_isa(subject, self._realize(filt.cls, binding))
                continue
            if not isinstance(filt, (ScalarFilter, SetEnumFilter)):
                # Normalisation removes SetFilter.
                raise TypeError(  # pragma: no cover
                    f"unexpected head filter: {filt!r}")
            method = self._realize(filt.method, binding)
            args = tuple(self._realize(a, binding) for a in filt.args)
            if isinstance(filt, ScalarFilter):
                self._assert_scalar(method, subject, args,
                                    self._realize(filt.result, binding))
            else:
                for element in filt.elements:
                    self._assert_member(method, subject, args,
                                        self._realize(element, binding))
        return subject

    # -- primitives over resolved objects -----------------------------------
    #
    # Shared by the spine walk above and the compiled column programs
    # below, so the two cannot drift apart.  The ``_stored_*`` forms skip
    # the built-in check; a program binds them when the method is a
    # constant it has already classified.

    def _path_value(self, method: Oid, subject: Oid,
                    args: tuple[Oid, ...]) -> Oid:
        """The object a scalar head path denotes (define-or-reference)."""
        if _builtins.is_builtin_scalar(method):
            value = _builtins.apply_builtin_scalar(method, subject, args)
            if value is None:
                raise EvaluationError(
                    f"built-in method {method} is undefined on {subject} "
                    f"with args {args} in a rule head"
                )
            return value
        return self._stored_path_value(method, subject, args)

    def _stored_path_value(self, method: Oid, subject: Oid,
                           args: tuple[Oid, ...]) -> Oid:
        existing = self._db.scalars.get(method, subject, args)
        if existing is not None:
            return existing
        virtual = VirtualOid(method, subject, args)
        if virtual.depth() > self._max_virtual_depth:
            raise ResourceLimitError(
                f"virtual object nesting exceeded "
                f"EngineLimits.max_virtual_depth = "
                f"{self._max_virtual_depth} ({virtual}); the program "
                f"likely creates objects without bound -- see DESIGN.md "
                f"on termination"
            )
        self._db.assert_scalar(method, subject, args, virtual)
        self.log.append(("scalar", method, subject, args, virtual))
        self.virtuals_created += 1
        return virtual

    def _assert_scalar(self, method: Oid, subject: Oid,
                       args: tuple[Oid, ...], result: Oid) -> None:
        if _builtins.is_builtin_scalar(method):
            if _builtins.apply_builtin_scalar(method, subject, args) != result:
                raise EvaluationError(
                    f"cannot assert {subject}[self -> {result}]: the "
                    f"built-in identity is not redefinable"
                )
            return
        self._store_scalar(method, subject, args, result)

    def _store_scalar(self, method: Oid, subject: Oid,
                      args: tuple[Oid, ...], result: Oid) -> None:
        if self._db.assert_scalar(method, subject, args, result):
            self.log.append(("scalar", method, subject, args, result))

    def _assert_member(self, method: Oid, subject: Oid,
                       args: tuple[Oid, ...], member: Oid) -> None:
        if self._db.assert_set_member(method, subject, args, member):
            self.log.append(("set", method, subject, args, member))

    def _assert_isa(self, subject: Oid, cls: Oid) -> None:
        if self._db.assert_isa(subject, cls):
            self.log.append(("isa", subject, cls))

    # -- compiled column programs -------------------------------------------

    def compile_columns(self, head: Reference, slot_of: dict[Var, int]):
        """Lower ``head`` to a flat program over solution columns.

        Returns ``emit(cols, nrows, log)`` -- the head emitter protocol
        of :mod:`repro.engine.batch` -- which realises one batch exactly
        as ``nrows`` calls of :meth:`realize` would, in row order: the
        same facts asserted through the same database API, the same
        :attr:`log` entries (the protocol's ``log`` argument *is*
        :attr:`log`; the primitives append to it themselves), the same
        virtual objects, the same error at the same row.  Returns None
        when a head variable has no column, leaving :meth:`realize` to
        report the unbound variable.

        The spine is walked once, here, in :meth:`_realize`'s
        evaluation order.  What is left per row is a list of
        ``(primitive, dst, method, subject, args, value)`` steps whose
        operands index one value vector: the row's head variables
        (loaded from the columns by a C-level ``zip`` and one slice
        assignment), the head's name constants (resolved, registered
        and classified built-in or stored now), and the objects that
        earlier path steps produced.
        """
        head_vars = variables_of(head)
        if any(var not in slot_of for var in head_vars):
            return None
        slots = [slot_of[var] for var in head_vars]
        index_of: dict = {var: k for k, var in enumerate(head_vars)}
        values: list = [None] * len(head_vars)
        steps: list[tuple] = []

        def operand(ref: Reference) -> int:
            if isinstance(ref, Paren):
                return operand(ref.inner)
            if isinstance(ref, Var):
                return index_of[ref]
            if isinstance(ref, Name):
                index = index_of.get(ref)
                if index is None:
                    index = index_of[ref] = len(values)
                    values.append(self._db.lookup_name(ref.value))
                return index
            if isinstance(ref, Path):
                subject = operand(ref.base)
                method = operand(ref.method)
                args = tuple(operand(a) for a in ref.args)
                values.append(None)
                step(self._path_value, self._stored_path_value,
                     len(values) - 1, method, subject, args, -1)
                return len(values) - 1
            if isinstance(ref, Molecule):
                return molecule(ref)
            raise TypeError(f"not a reference: {ref!r}")

        def step(checked, stored, dst, method, subject, args, value):
            constant = values[method]  # None for variables and paths
            plain = (constant is not None
                     and not _builtins.is_builtin_scalar(constant))
            steps.append((stored if plain else checked, dst, method,
                          subject, args, value))

        def molecule(ref: Molecule) -> int:
            subject = operand(ref.base)
            for filt in ref.filters:
                if isinstance(filt, IsaFilter):
                    steps.append((self._assert_isa, -1, -1, subject, (),
                                  operand(filt.cls)))
                    continue
                if not isinstance(filt, (ScalarFilter, SetEnumFilter)):
                    raise TypeError(f"unexpected head filter: {filt!r}")
                method = operand(filt.method)
                args = tuple(operand(a) for a in filt.args)
                if isinstance(filt, ScalarFilter):
                    step(self._assert_scalar, self._store_scalar, -1,
                         method, subject, args, operand(filt.result))
                else:
                    for element in filt.elements:
                        steps.append((self._assert_member, -1, method,
                                      subject, args, operand(element)))
            return subject

        operand(head)
        nvars = len(head_vars)
        program = tuple(steps)

        def emit(cols: list, nrows: int, log: list) -> None:
            vals = list(values)
            rows = (zip(*[cols[slot] for slot in slots]) if slots
                    else repeat((), nrows))
            for row in rows:
                vals[:nvars] = row
                for fn, dst, m, s, a, v in program:
                    args = tuple([vals[k] for k in a]) if a else ()
                    if dst >= 0:
                        vals[dst] = fn(vals[m], vals[s], args)
                    elif m >= 0:
                        fn(vals[m], vals[s], args, vals[v])
                    else:
                        fn(vals[s], vals[v])
        return emit
