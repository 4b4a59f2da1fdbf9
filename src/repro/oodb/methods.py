"""Extensional method state: the tables behind ``I_->`` and ``I_->>``.

A scalar fact is ``method(subject, args) = result`` with ``I_->``
interpreting each method object as a *partial function*; a set fact is
``result in method(subject, args)``.  Both tables key applications by
``(method, subject, args)`` where every component is an
:class:`~repro.oodb.oid.Oid` and ``args`` is a (possibly empty) tuple.

The tables maintain secondary indexes for the access patterns the
evaluator needs:

- by method (enumerate all applications of ``vehicles``);
- by method and result (inverse lookup: whose color is ``red``?);
- by subject (enumerate all methods defined on ``p1`` -- needed for
  variables at method position, as in the generic ``M.tc`` rules).

Indexes can be disabled (``indexed=False``) to support the index
ablation benchmark; all lookups then scan the primary dict.

Both tables keep a monotone :attr:`version` counter, bumped on every
successful mutation.  The query planner's cardinality catalog and plan
caches key on it to notice (and only then recompute after) data changes.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.errors import ScalarConflictError
from repro.oodb.oid import Oid, OidInterner

#: An application key: (method, subject, args).
AppKey = tuple[Oid, Oid, tuple[Oid, ...]]


def _clone_inverse(inverse: dict[int, dict[int, list[int]]]
                   ) -> dict[int, dict[int, list[int]]]:
    """Copy a mirror's ``method -> {result -> [subjects]}`` index."""
    return {
        m: {r: subjects.copy() for r, subjects in bucket.items()}
        for m, bucket in inverse.items()
    }


class ScalarSurrogateView:
    """Int-surrogate mirror of a scalar table's parameterless facts.

    The columnar executor probes these dicts instead of the boxed
    indexes: keys are dense integer surrogates, so every probe hashes a
    machine int instead of recomputing a structural OID hash.  The view
    mirrors only ``args == ()`` facts -- parameterised methods stay on
    the boxed kernels.

    The mirror is maintained *incrementally* by the owning table's
    mutators (including the engine's direct ``put``/``add`` fast path),
    so kernels may capture :attr:`apps`/:attr:`inverse` once per plan
    and trust them across fixpoint iterations.
    """

    __slots__ = ("interner", "apps", "inverse", "_sorted")

    def __init__(self, interner: OidInterner,
                 facts: dict[AppKey, Oid]) -> None:
        self.interner = interner
        #: method -> {subject -> result}, all surrogates.
        self.apps: dict[int, dict[int, int]] = {}
        #: method -> {result -> [subjects]}, all surrogates.
        self.inverse: dict[int, dict[int, list[int]]] = {}
        #: method -> sorted ``(results, subjects)`` arrays; dropped on
        #: mutation, rebuilt lazily by :meth:`sorted_inverse`.
        self._sorted: dict[int, tuple[array, array]] = {}
        intern = interner.intern
        for (method, subject, args), result in facts.items():
            if args:
                continue
            self._record(intern(method), intern(subject), intern(result))

    def _record(self, m: int, s: int, r: int) -> None:
        self.apps.setdefault(m, {})[s] = r
        self.inverse.setdefault(m, {}).setdefault(r, []).append(s)

    def clone(self) -> "ScalarSurrogateView":
        """An independent copy bound to the same interner.

        Only int-keyed containers are copied -- no OID is hashed.
        """
        copy = ScalarSurrogateView.__new__(ScalarSurrogateView)
        copy.interner = self.interner
        copy.apps = {m: bucket.copy() for m, bucket in self.apps.items()}
        copy.inverse = _clone_inverse(self.inverse)
        # Sorted pairs are replaced, never edited in place: share them.
        copy._sorted = self._sorted.copy()
        return copy

    def on_put(self, method: Oid, subject: Oid, result: Oid) -> None:
        intern = self.interner.intern
        m = intern(method)
        self._record(m, intern(subject), intern(result))
        self._sorted.pop(m, None)

    def on_remove(self, method: Oid, subject: Oid, result: Oid) -> None:
        intern = self.interner.intern
        m, s, r = intern(method), intern(subject), intern(result)
        bucket = self.apps.get(m)
        if bucket is None or bucket.pop(s, None) is None:
            return
        subjects = self.inverse[m][r]
        subjects.remove(s)
        if not subjects:
            del self.inverse[m][r]
        self._sorted.pop(m, None)

    def sorted_inverse(self, m: int) -> tuple[array, array]:
        """Sorted ``(results, subjects)`` bucket pair for merge joins.

        ``results`` is ascending; ``subjects`` is aligned, so equal runs
        in ``results`` enumerate every subject mapping to that result.
        Cached per method until the method is next mutated.
        """
        pair = self._sorted.get(m)
        if pair is None:
            keys = array("q")
            vals = array("q")
            for r, subjects in sorted(self.inverse.get(m, {}).items()):
                for s in subjects:
                    keys.append(r)
                    vals.append(s)
            pair = (keys, vals)
            self._sorted[m] = pair
        return pair


class SetSurrogateView:
    """Int-surrogate mirror of a set table's parameterless facts.

    Same contract as :class:`ScalarSurrogateView`, with set-valued
    buckets: membership probes become ``int in set-of-ints``.
    """

    __slots__ = ("interner", "apps", "inverse", "_sorted")

    def __init__(self, interner: OidInterner,
                 facts: dict[AppKey, set[Oid]]) -> None:
        self.interner = interner
        #: method -> {subject -> {members}}, all surrogates.
        self.apps: dict[int, dict[int, set[int]]] = {}
        #: method -> {member -> [subjects]}, all surrogates.
        self.inverse: dict[int, dict[int, list[int]]] = {}
        self._sorted: dict[int, tuple[array, array]] = {}
        intern = interner.intern
        for (method, subject, args), bucket in facts.items():
            if args or not bucket:
                continue
            m, s = intern(method), intern(subject)
            for member in bucket:
                self._record(m, s, intern(member))

    def _record(self, m: int, s: int, r: int) -> None:
        self.apps.setdefault(m, {}).setdefault(s, set()).add(r)
        self.inverse.setdefault(m, {}).setdefault(r, []).append(s)

    def clone(self) -> "SetSurrogateView":
        """An independent copy bound to the same interner."""
        copy = SetSurrogateView.__new__(SetSurrogateView)
        copy.interner = self.interner
        copy.apps = {
            m: {s: members.copy() for s, members in bucket.items()}
            for m, bucket in self.apps.items()
        }
        copy.inverse = _clone_inverse(self.inverse)
        copy._sorted = self._sorted.copy()
        return copy

    def on_add(self, method: Oid, subject: Oid, member: Oid) -> None:
        intern = self.interner.intern
        m = intern(method)
        self._record(m, intern(subject), intern(member))
        self._sorted.pop(m, None)

    def on_discard(self, method: Oid, subject: Oid, member: Oid) -> None:
        intern = self.interner.intern
        m, s, r = intern(method), intern(subject), intern(member)
        bucket = self.apps.get(m)
        members = bucket.get(s) if bucket is not None else None
        if members is None or r not in members:
            return
        members.discard(r)
        subjects = self.inverse[m][r]
        subjects.remove(s)
        if not subjects:
            del self.inverse[m][r]
        self._sorted.pop(m, None)

    def sorted_inverse(self, m: int) -> tuple[array, array]:
        """Sorted ``(members, subjects)`` bucket pair for merge joins."""
        pair = self._sorted.get(m)
        if pair is None:
            keys = array("q")
            vals = array("q")
            for r, subjects in sorted(self.inverse.get(m, {}).items()):
                for s in subjects:
                    keys.append(r)
                    vals.append(s)
            pair = (keys, vals)
            self._sorted[m] = pair
        return pair


class ScalarMethodTable:
    """The stored graph of ``I_->``: partial functions per method object."""

    def __init__(self, *, indexed: bool = True) -> None:
        self._facts: dict[AppKey, Oid] = {}
        self._indexed = indexed
        self._by_method: dict[Oid, dict[AppKey, Oid]] = {}
        self._by_method_result: dict[tuple[Oid, Oid], set[AppKey]] = {}
        self._by_subject: dict[Oid, dict[AppKey, Oid]] = {}
        self._surrogates: ScalarSurrogateView | None = None
        #: Mirror-first inserts not yet back-filled into the boxed
        #: structures: ``(m_sur, s_sur, r_sur)`` surrogate triples (see
        #: :meth:`int_writer`).  Every boxed read or mutation drains
        #: this first, so the deferral is unobservable.
        self._pending: list[tuple[int, int, int]] = []
        #: Bumped on every successful mutation (planner cache key).
        self.version = 0

    @property
    def indexed(self) -> bool:
        """Whether secondary indexes are maintained."""
        return self._indexed

    # -- mirror-first writes (columnar head emission) ------------------------

    def sync(self) -> None:
        """Materialise queued mirror-first inserts into the boxed dicts.

        Cheap when nothing is pending; called by every boxed entry
        point, and by the columnar executor before a boxed fallback
        kernel runs (those capture the live dicts the drain fills in
        place, so one sync per step execution keeps them coherent).
        """
        if self._pending:
            self._drain()

    def _drain(self) -> None:
        pending = self._pending
        resolver = self._surrogates.interner.resolver()
        facts = self._facts
        indexed = self._indexed
        by_method = self._by_method
        by_method_result = self._by_method_result
        by_subject = self._by_subject
        # No duplicate or conflict checks: the writer proved each
        # triple absent against the mirror, which covers every
        # parameterless fact of this table.
        for m_sur, s_sur, r_sur in pending:
            method = resolver[m_sur]
            subject = resolver[s_sur]
            result = resolver[r_sur]
            key = (method, subject, ())
            facts[key] = result
            if indexed:
                bucket = by_method.get(method)
                if bucket is None:
                    bucket = by_method[method] = {}
                bucket[key] = result
                inv = by_method_result.get((method, result))
                if inv is None:
                    by_method_result[(method, result)] = {key}
                else:
                    inv.add(key)
                subj = by_subject.get(subject)
                if subj is None:
                    subj = by_subject[subject] = {}
                subj[key] = result
        pending.clear()

    def int_writer(self, method: Oid, m_sur: int):
        """A mirror-first insert closure for one method's head emission.

        The returned ``add(s_sur, r_sur) -> bool`` deduplicates against
        the surrogate mirror (machine-int probes), raises
        :class:`~repro.errors.ScalarConflictError` exactly as
        :meth:`put` does, and queues the boxed back-fill on
        :attr:`_pending` instead of paying AppKey hashing per row --
        the dominant cost of fixpoint head emission.  Requires the
        mirror (:meth:`surrogate_view`) to exist; only parameterless
        facts flow through it.
        """
        view = self._surrogates
        bucket = view.apps.setdefault(m_sur, {})
        inverse = view.inverse.setdefault(m_sur, {})
        sorted_pop = view._sorted.pop
        pending = self._pending
        resolver = view.interner.resolver()

        def add(s: int, r: int, _get=bucket.get) -> bool:
            stored = _get(s)
            if stored is not None:
                if stored == r:
                    return False
                raise ScalarConflictError(
                    resolver[m_sur], resolver[s], (),
                    resolver[stored], resolver[r])
            bucket[s] = r
            found = inverse.get(r)
            if found is None:
                inverse[r] = [s]
            else:
                found.append(s)
            sorted_pop(m_sur, None)
            pending.append((m_sur, s, r))
            self.version += 1
            return True
        return add

    # -- mutation -----------------------------------------------------------

    def put(self, method: Oid, subject: Oid, args: tuple[Oid, ...],
            result: Oid) -> bool:
        """Store ``method(subject, args) = result``.

        Returns False when the identical fact is already present.  Raises
        :class:`~repro.errors.ScalarConflictError` when a *different*
        result is already stored -- scalar methods are functions.
        """
        if self._pending:
            self._drain()
        key = (method, subject, args)
        existing = self._facts.get(key)
        if existing is not None:
            if existing == result:
                return False
            raise ScalarConflictError(method, subject, args, existing, result)
        self._facts[key] = result
        self.version += 1
        if self._indexed:
            self._by_method.setdefault(method, {})[key] = result
            self._by_method_result.setdefault((method, result), set()).add(key)
            self._by_subject.setdefault(subject, {})[key] = result
        if self._surrogates is not None and not args:
            self._surrogates.on_put(method, subject, result)
        return True

    def remove(self, method: Oid, subject: Oid, args: tuple[Oid, ...]) -> bool:
        """Delete one stored application; return False if absent."""
        if self._pending:
            self._drain()
        key = (method, subject, args)
        result = self._facts.pop(key, None)
        if result is None:
            return False
        self.version += 1
        if self._indexed:
            self._by_method[method].pop(key, None)
            self._by_method_result[(method, result)].discard(key)
            self._by_subject[subject].pop(key, None)
        if self._surrogates is not None and not args:
            self._surrogates.on_remove(method, subject, result)
        return True

    # -- queries ------------------------------------------------------------

    def get(self, method: Oid, subject: Oid,
            args: tuple[Oid, ...] = ()) -> Oid | None:
        """The stored result of one application, or None when undefined."""
        if self._pending:
            self._drain()
        return self._facts.get((method, subject, args))

    def __len__(self) -> int:
        if self._pending:
            self._drain()
        return len(self._facts)

    def __contains__(self, key: AppKey) -> bool:
        if self._pending:
            self._drain()
        return key in self._facts

    def items(self) -> Iterator[tuple[AppKey, Oid]]:
        """All stored facts as ``((method, subject, args), result)``."""
        if self._pending:
            self._drain()
        return iter(self._facts.items())

    def match(self, method: Oid | None = None, subject: Oid | None = None,
              result: Oid | None = None) -> Iterator[tuple[AppKey, Oid]]:
        """Enumerate facts matching the bound components.

        Any of ``method``/``subject``/``result`` may be None (wildcard).
        Chooses the most selective index available.
        """
        if self._pending:
            self._drain()
        if self._indexed:
            if method is not None and result is not None:
                keys = self._by_method_result.get((method, result), ())
                for key in keys:
                    if subject is None or key[1] == subject:
                        yield (key, result)
                return
            if method is not None:
                bucket = self._by_method.get(method, {})
                for key, value in bucket.items():
                    if subject is not None and key[1] != subject:
                        continue
                    yield (key, value)
                return
            if subject is not None:
                bucket = self._by_subject.get(subject, {})
                for key, value in bucket.items():
                    if result is not None and value != result:
                        continue
                    yield (key, value)
                return
        for key, value in self._facts.items():
            if method is not None and key[0] != method:
                continue
            if subject is not None and key[1] != subject:
                continue
            if result is not None and value != result:
                continue
            yield (key, value)

    def methods(self) -> frozenset[Oid]:
        """All method objects with at least one stored application."""
        if self._pending:
            self._drain()
        if self._indexed:
            return frozenset(m for m, bucket in self._by_method.items() if bucket)
        return frozenset(key[0] for key in self._facts)

    # -- exact index cardinalities (planner estimates) -----------------------

    def count_method(self, method: Oid) -> int | None:
        """Stored facts of ``method``; None when no index is available."""
        if self._pending:
            self._drain()
        if not self._indexed:
            return None
        return len(self._by_method.get(method, ()))

    def count_method_result(self, method: Oid, result: Oid) -> int | None:
        """Facts with this method *and* result; None when unindexed."""
        if self._pending:
            self._drain()
        if not self._indexed:
            return None
        return len(self._by_method_result.get((method, result), ()))

    def count_subject(self, subject: Oid) -> int | None:
        """Facts stored on ``subject``; None when unindexed."""
        if self._pending:
            self._drain()
        if not self._indexed:
            return None
        return len(self._by_subject.get(subject, ()))

    # -- raw views (compiled plan kernels) -----------------------------------
    #
    # The compiled executor probes the primary dict and the index dicts
    # directly, skipping the generator dispatch of :meth:`match`.  The
    # views are the *live* internal dicts -- callers must treat them as
    # read-only.  The outer dicts are stable for the table's lifetime
    # (mutations update them in place), so a compiled kernel may capture
    # a view once and look buckets up per execution.

    def primary_view(self) -> dict[AppKey, Oid]:
        """The live ``(method, subject, args) -> result`` dict."""
        if self._pending:
            self._drain()
        return self._facts

    def by_method_view(self) -> dict[Oid, dict[AppKey, Oid]]:
        """The live method index (empty when ``indexed=False``)."""
        if self._pending:
            self._drain()
        return self._by_method

    def by_method_result_view(self) -> dict[tuple[Oid, Oid], set[AppKey]]:
        """The live (method, result) index (empty when unindexed)."""
        if self._pending:
            self._drain()
        return self._by_method_result

    def by_subject_view(self) -> dict[Oid, dict[AppKey, Oid]]:
        """The live subject index (empty when unindexed)."""
        if self._pending:
            self._drain()
        return self._by_subject

    def surrogate_view(self, interner: OidInterner) -> ScalarSurrogateView:
        """The int-surrogate mirror of this table (built on first use).

        Once built, the table's mutators keep the mirror in sync, so
        repeated calls with the same interner are cheap.  A call with a
        *different* interner (a table adopted by another database)
        rebuilds the mirror from scratch.
        """
        view = self._surrogates
        if view is None or view.interner is not interner:
            # A rebuild reads the boxed facts: back-fill any pending
            # mirror-first inserts (via the old view's interner) first.
            if self._pending:
                self._drain()
            view = ScalarSurrogateView(interner, self._facts)
            self._surrogates = view
        return view

    def rebind_mirror(self, old: OidInterner, new: OidInterner) -> None:
        """Bind a mirror built on ``old`` to ``new``, a clone of ``old``.

        A cloned interner assigns the same surrogates, so the mirror
        stays valid; a mirror bound to any other interner is left
        alone (and rebuilt by the next :meth:`surrogate_view` call).
        """
        view = self._surrogates
        if view is not None and view.interner is old:
            view.interner = new

    def mentioned_oids(self) -> Iterator[Oid]:
        """Every OID occurring in any stored fact."""
        if self._pending:
            self._drain()
        for (method, subject, args), result in self._facts.items():
            yield method
            yield subject
            yield from args
            yield result

    def clone(self) -> "ScalarMethodTable":
        """An independent copy (same indexing mode and version).

        A structural copy: the primary dict and the index buckets are
        duplicated by C-level ``dict``/``set`` copies, which reuse the
        stored hashes -- no application key is re-hashed and no fact is
        re-inserted.  (Only the *outer* keys of the three secondary
        indexes -- one per method, per (method, result) pair, per
        subject -- are hashed, once each.)  The int-surrogate mirror,
        when the source has one, is carried along, still bound to the
        source's interner; :meth:`Database.clone` re-binds it to the
        cloned interner (:meth:`rebind_mirror`).

        The version counter is carried over: a clone holds the same
        facts as its source, so a ``data_version`` computed from it must
        not collide with a version the source had when its facts were
        different (plan caches and catalogs key on that value).
        """
        if self._pending:
            self._drain()
        copy = ScalarMethodTable(indexed=self._indexed)
        copy._facts = self._facts.copy()
        copy._by_method = {
            method: bucket.copy()
            for method, bucket in self._by_method.items()
        }
        copy._by_method_result = {
            pair: keys.copy()
            for pair, keys in self._by_method_result.items()
        }
        copy._by_subject = {
            subject: bucket.copy()
            for subject, bucket in self._by_subject.items()
        }
        if self._surrogates is not None:
            copy._surrogates = self._surrogates.clone()
        copy.version = self.version
        return copy


class SetMethodTable:
    """The stored graph of ``I_->>``: a set of results per application."""

    def __init__(self, *, indexed: bool = True) -> None:
        self._facts: dict[AppKey, set[Oid]] = {}
        self._indexed = indexed
        self._by_method: dict[Oid, dict[AppKey, set[Oid]]] = {}
        self._by_method_member: dict[tuple[Oid, Oid], set[AppKey]] = {}
        self._by_subject: dict[Oid, dict[AppKey, set[Oid]]] = {}
        self._surrogates: SetSurrogateView | None = None
        #: Mirror-first inserts awaiting boxed back-fill (see
        #: :meth:`ScalarMethodTable.sync` for the contract).
        self._pending: list[tuple[int, int, int]] = []
        #: Bumped on every successful mutation (planner cache key).
        self.version = 0

    @property
    def indexed(self) -> bool:
        """Whether secondary indexes are maintained."""
        return self._indexed

    # -- mirror-first writes (columnar head emission) ------------------------

    def sync(self) -> None:
        """Materialise queued mirror-first inserts into the boxed dicts."""
        if self._pending:
            self._drain()

    def _drain(self) -> None:
        pending = self._pending
        resolver = self._surrogates.interner.resolver()
        facts = self._facts
        indexed = self._indexed
        by_method = self._by_method
        by_method_member = self._by_method_member
        by_subject = self._by_subject
        for m_sur, s_sur, r_sur in pending:
            method = resolver[m_sur]
            subject = resolver[s_sur]
            member = resolver[r_sur]
            key = (method, subject, ())
            bucket = facts.get(key)
            if bucket is None:
                bucket = facts[key] = set()
                if indexed:
                    by_method.setdefault(method, {})[key] = bucket
                    by_subject.setdefault(subject, {})[key] = bucket
            bucket.add(member)
            if indexed:
                inv = by_method_member.get((method, member))
                if inv is None:
                    by_method_member[(method, member)] = {key}
                else:
                    inv.add(key)
        pending.clear()

    def int_writer(self, method: Oid, m_sur: int):
        """A mirror-first membership-insert closure for head emission.

        ``add(s_sur, r_sur) -> bool`` mirrors :meth:`add`'s semantics
        (False on a present membership) with int-only probes, queuing
        the boxed back-fill on :attr:`_pending`.
        """
        view = self._surrogates
        bucket = view.apps.setdefault(m_sur, {})
        inverse = view.inverse.setdefault(m_sur, {})
        sorted_pop = view._sorted.pop
        pending = self._pending

        def add(s: int, r: int, _get=bucket.get) -> bool:
            members = _get(s)
            if members is None:
                bucket[s] = {r}
            elif r in members:
                return False
            else:
                members.add(r)
            found = inverse.get(r)
            if found is None:
                inverse[r] = [s]
            else:
                found.append(s)
            sorted_pop(m_sur, None)
            pending.append((m_sur, s, r))
            self.version += 1
            return True
        return add

    # -- mutation -----------------------------------------------------------

    def add(self, method: Oid, subject: Oid, args: tuple[Oid, ...],
            member: Oid) -> bool:
        """Add ``member`` to ``method(subject, args)``; False if present."""
        if self._pending:
            self._drain()
        key = (method, subject, args)
        bucket = self._facts.get(key)
        if bucket is None:
            bucket = set()
            self._facts[key] = bucket
            if self._indexed:
                self._by_method.setdefault(method, {})[key] = bucket
                self._by_subject.setdefault(subject, {})[key] = bucket
        if member in bucket:
            return False
        bucket.add(member)
        self.version += 1
        if self._indexed:
            self._by_method_member.setdefault((method, member), set()).add(key)
        if self._surrogates is not None and not args:
            self._surrogates.on_add(method, subject, member)
        return True

    def discard(self, method: Oid, subject: Oid, args: tuple[Oid, ...],
                member: Oid) -> bool:
        """Remove one membership; return False if it was absent."""
        if self._pending:
            self._drain()
        key = (method, subject, args)
        bucket = self._facts.get(key)
        if bucket is None or member not in bucket:
            return False
        bucket.discard(member)
        self.version += 1
        if self._indexed:
            self._by_method_member[(method, member)].discard(key)
        if self._surrogates is not None and not args:
            self._surrogates.on_discard(method, subject, member)
        return True

    # -- queries ------------------------------------------------------------

    def get(self, method: Oid, subject: Oid,
            args: tuple[Oid, ...] = ()) -> frozenset[Oid]:
        """The stored result set of one application (empty when undefined)."""
        if self._pending:
            self._drain()
        bucket = self._facts.get((method, subject, args))
        if bucket is None:
            return frozenset()
        return frozenset(bucket)

    def defined(self, method: Oid, subject: Oid,
                args: tuple[Oid, ...] = ()) -> bool:
        """True when the application has a (possibly empty) stored set."""
        if self._pending:
            self._drain()
        return (method, subject, args) in self._facts

    def __len__(self) -> int:
        if self._pending:
            self._drain()
        return sum(len(bucket) for bucket in self._facts.values())

    def applications(self) -> int:
        """Number of distinct ``(method, subject, args)`` applications."""
        if self._pending:
            self._drain()
        return len(self._facts)

    def items(self) -> Iterator[tuple[AppKey, frozenset[Oid]]]:
        """All applications with their full result sets."""
        if self._pending:
            self._drain()
        for key, bucket in self._facts.items():
            yield key, frozenset(bucket)

    def match(self, method: Oid | None = None, subject: Oid | None = None,
              member: Oid | None = None) -> Iterator[tuple[AppKey, Oid]]:
        """Enumerate memberships matching the bound components.

        Yields one ``((method, subject, args), member)`` pair per
        membership, using the most selective index available.
        """
        if self._pending:
            self._drain()
        if self._indexed:
            if method is not None and member is not None:
                for key in self._by_method_member.get((method, member), ()):
                    if subject is None or key[1] == subject:
                        yield (key, member)
                return
            if method is not None:
                for key, bucket in self._by_method.get(method, {}).items():
                    if subject is not None and key[1] != subject:
                        continue
                    for value in bucket:
                        yield (key, value)
                return
            if subject is not None:
                for key, bucket in self._by_subject.get(subject, {}).items():
                    for value in bucket:
                        if member is not None and value != member:
                            continue
                        yield (key, value)
                return
        for key, bucket in self._facts.items():
            if method is not None and key[0] != method:
                continue
            if subject is not None and key[1] != subject:
                continue
            for value in bucket:
                if member is not None and value != member:
                    continue
                yield (key, value)

    def methods(self) -> frozenset[Oid]:
        """All method objects with at least one stored application."""
        if self._pending:
            self._drain()
        if self._indexed:
            return frozenset(m for m, bucket in self._by_method.items() if bucket)
        return frozenset(key[0] for key in self._facts)

    # -- exact index cardinalities (planner estimates) -----------------------

    def count_method_apps(self, method: Oid) -> int | None:
        """Applications of ``method``; None when unindexed."""
        if self._pending:
            self._drain()
        if not self._indexed:
            return None
        return len(self._by_method.get(method, ()))

    def count_method_member(self, method: Oid, member: Oid) -> int | None:
        """Memberships of ``member`` under ``method``; None when unindexed."""
        if self._pending:
            self._drain()
        if not self._indexed:
            return None
        return len(self._by_method_member.get((method, member), ()))

    def count_subject_apps(self, subject: Oid) -> int | None:
        """Applications stored on ``subject``; None when unindexed."""
        if self._pending:
            self._drain()
        if not self._indexed:
            return None
        return len(self._by_subject.get(subject, ()))

    # -- raw views (compiled plan kernels) -----------------------------------

    def primary_view(self) -> dict[AppKey, set[Oid]]:
        """The live ``(method, subject, args) -> members`` dict."""
        if self._pending:
            self._drain()
        return self._facts

    def by_method_view(self) -> dict[Oid, dict[AppKey, set[Oid]]]:
        """The live method index (empty when ``indexed=False``)."""
        if self._pending:
            self._drain()
        return self._by_method

    def by_method_member_view(self) -> dict[tuple[Oid, Oid], set[AppKey]]:
        """The live (method, member) index (empty when unindexed)."""
        if self._pending:
            self._drain()
        return self._by_method_member

    def by_subject_view(self) -> dict[Oid, dict[AppKey, set[Oid]]]:
        """The live subject index (empty when unindexed)."""
        if self._pending:
            self._drain()
        return self._by_subject

    def surrogate_view(self, interner: OidInterner) -> SetSurrogateView:
        """The int-surrogate mirror of this table (built on first use)."""
        view = self._surrogates
        if view is None or view.interner is not interner:
            if self._pending:
                self._drain()
            view = SetSurrogateView(interner, self._facts)
            self._surrogates = view
        return view

    def rebind_mirror(self, old: OidInterner, new: OidInterner) -> None:
        """See :meth:`ScalarMethodTable.rebind_mirror`."""
        view = self._surrogates
        if view is not None and view.interner is old:
            view.interner = new

    def mentioned_oids(self) -> Iterator[Oid]:
        """Every OID occurring in any stored membership."""
        if self._pending:
            self._drain()
        for (method, subject, args), bucket in self._facts.items():
            yield method
            yield subject
            yield from args
            yield from bucket

    def clone(self) -> "SetMethodTable":
        """An independent copy (same indexing mode and version).

        Structural, like :meth:`ScalarMethodTable.clone`, with one
        twist: a membership bucket is *shared* between the primary
        dict and the method/subject indexes, so each bucket is copied
        once and the three structures are re-pointed at the copy.  The
        (method, member) index holds key sets only and is copied
        bucket by bucket.  The mirror and the version counter are
        carried as for the scalar table.
        """
        if self._pending:
            self._drain()
        copy = SetMethodTable(indexed=self._indexed)
        fresh = {id(bucket): bucket.copy()
                 for bucket in self._facts.values()}
        copy._facts = {key: fresh[id(bucket)]
                       for key, bucket in self._facts.items()}
        copy._by_method = {
            method: {key: fresh[id(bucket)]
                     for key, bucket in apps.items()}
            for method, apps in self._by_method.items()
        }
        copy._by_subject = {
            subject: {key: fresh[id(bucket)]
                      for key, bucket in apps.items()}
            for subject, apps in self._by_subject.items()
        }
        copy._by_method_member = {
            pair: keys.copy()
            for pair, keys in self._by_method_member.items()
        }
        if self._surrogates is not None:
            copy._surrogates = self._surrogates.clone()
        copy.version = self.version
        return copy
