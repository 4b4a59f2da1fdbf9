"""Object identifiers.

The paper distinguishes the user-visible *names* from the storage-level
object identity.  We model identity with two OID kinds:

- :class:`NamedOid` -- the object a name denotes by default (``I_N`` is
  injective unless aliases are declared on the database).  Values
  (integers, strings) are names denoting themselves, so ``NamedOid(30)``
  is the object "thirty".

- :class:`VirtualOid` -- a virtual object created by a scalar path in a
  rule head (Section 6).  Its identity *is* the ground method
  application that defined it, ``method(subject, args)``; this is the
  paper's observation that methods can do the job function symbols do in
  F-logic.  Virtual OIDs nest: the boss of the boss of ``p1`` is
  ``boss(boss(p1))``.

Both kinds are immutable and hashable and compare structurally.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Union

#: Python values usable as names.
NameValue = Union[str, int]


class Oid:
    """Base class of object identifiers."""

    __slots__ = ()

    def display(self) -> str:
        """Human-readable, PathLog-like rendering of this identity."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.display()


@dataclass(frozen=True, slots=True)
class NamedOid(Oid):
    """The storage identity behind a name (or value).

    The hash is computed once, at construction (the same value the
    generated ``__hash__`` gives), as for :class:`VirtualOid`: boxed
    tables and the interner probe dicts keyed on named objects far more
    often than they make them.
    """

    value: NameValue
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: string hashes are salted per
        # process, so a pickled ``_hash`` would be wrong elsewhere.
        return (NamedOid, (self.value,))

    def display(self) -> str:
        from repro.core.pretty import name_to_text

        return name_to_text(self.value)


@dataclass(frozen=True, slots=True)
class VirtualOid(Oid):
    """A virtual object: the ground scalar application that created it.

    The structural hash and the nesting depth are computed once, at
    construction: every dict probe keyed on a virtual object (and every
    depth-limit check on a freshly created one) then costs O(1) instead
    of a recursive walk over the whole term.  Components are immutable,
    so the cached values can never go stale.
    """

    method: Oid
    subject: Oid
    args: tuple[Oid, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        method, subject, args = self.method, self.subject, self.args
        depth = 0
        for child in (method, subject, *args):
            if type(child) is VirtualOid and child._depth > depth:
                depth = child._depth
        _set = object.__setattr__
        _set(self, "_hash", hash((method, subject, args)))
        _set(self, "_depth", depth + 1)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: string hashes are salted per
        # process, so a pickled ``_hash`` would be wrong elsewhere.
        return (VirtualOid, (self.method, self.subject, self.args))

    def display(self) -> str:
        args = ""
        if self.args:
            args = "@(" + ", ".join(a.display() for a in self.args) + ")"
        return f"{self.subject.display()}.{self.method.display()}{args}"

    def depth(self) -> int:
        """Nesting depth of virtual construction (used by engine limits)."""
        return self._depth


class OidInterner:
    """Dense integer surrogates for OIDs.

    The columnar executor replaces boxed OID columns with ``int``
    columns; this table is the bridge.  ``intern`` assigns each distinct
    OID the next free small integer (dense: surrogates are drawn from
    ``0..capacity-1`` with holes only where objects were retired), and
    ``resolve`` is a plain list index, so the hot deref path costs no
    hashing at all.  Structural OID hashing -- recomputed on every probe
    for the frozen dataclasses above -- is paid once per object here
    instead of once per join probe in the kernels.

    Retiring an object pushes its surrogate onto a free list; the slot
    is tombstoned (``None``) until a *different* OID is interned later
    and reuses it, so two live objects can never share a surrogate.

    Assignment is thread-safe: concurrent server readers evaluating
    columnar plans over a shared (frozen) database may intern
    previously unseen OIDs at once, so the *slow path* (a new
    assignment or a retirement) runs under a lock.  The hot paths --
    an already-interned lookup and the list-index ``resolve`` -- stay
    lock-free (single dict/list operations the GIL keeps atomic).
    """

    __slots__ = ("_surrogate", "_object", "_free", "_lock")

    def __init__(self) -> None:
        self._surrogate: dict[Oid, int] = {}
        self._object: list[Oid | None] = []
        self._free: list[int] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of live (non-retired) interned objects."""
        return len(self._surrogate)

    @property
    def capacity(self) -> int:
        """Surrogates handed out so far, including tombstoned slots."""
        return len(self._object)

    def intern(self, oid: Oid) -> int:
        """Return the surrogate for ``oid``, assigning one if new."""
        surrogate = self._surrogate.get(oid)
        if surrogate is None:
            with self._lock:
                surrogate = self._surrogate.get(oid)
                if surrogate is None:
                    if self._free:
                        surrogate = self._free.pop()
                        self._object[surrogate] = oid
                    else:
                        surrogate = len(self._object)
                        self._object.append(oid)
                    self._surrogate[oid] = surrogate
        return surrogate

    def surrogate(self, oid: Oid) -> int | None:
        """The surrogate for ``oid`` if it is interned, else ``None``."""
        return self._surrogate.get(oid)

    def known(self, oids: Iterable[Oid]) -> tuple[set[int], list[Oid]]:
        """``(surrogates, rest)``: the surrogates of the interned
        ``oids`` and the OIDs that have none.  Interns nothing."""
        oids = tuple(oids)
        surrogates = list(map(self._surrogate.get, oids))
        found = set(surrogates)
        if None not in found:
            return found, []
        found.discard(None)
        return found, [oid for oid, surrogate in zip(oids, surrogates)
                       if surrogate is None]

    def resolve(self, surrogate: int) -> Oid:
        """The OID behind ``surrogate`` (``None`` for retired slots)."""
        return self._object[surrogate]

    def resolver(self) -> list[Oid | None]:
        """The live surrogate->OID list, for index-only kernel derefs.

        The list is shared, not copied: future ``intern`` calls extend
        it in place, so kernels may capture it once per plan.
        """
        return self._object

    def retire(self, oid: Oid) -> bool:
        """Drop ``oid``'s surrogate and recycle it via the free list."""
        with self._lock:
            surrogate = self._surrogate.pop(oid, None)
            if surrogate is None:
                return False
            self._object[surrogate] = None
            self._free.append(surrogate)
            return True

    def clone(self) -> "OidInterner":
        """An independent copy; existing surrogates stay identical."""
        copy = OidInterner()
        copy._surrogate = dict(self._surrogate)
        copy._object = list(self._object)
        copy._free = list(self._free)
        return copy


def oid_sort_key(oid: Oid) -> tuple:
    """A total order over OIDs for deterministic output.

    Named OIDs sort before virtual ones; names sort strings before
    integers by type name then value, which is arbitrary but stable.
    """
    if isinstance(oid, NamedOid):
        return (0, type(oid.value).__name__, str(oid.value))
    if isinstance(oid, VirtualOid):
        return (1, oid_sort_key(oid.method), oid_sort_key(oid.subject),
                tuple(oid_sort_key(a) for a in oid.args))
    raise TypeError(f"not an oid: {oid!r}")
