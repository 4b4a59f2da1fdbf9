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

Every table always keeps all three indexes, and the ``count_*``
methods report their exact bucket sizes to the planner.

Both tables keep a monotone :attr:`version` counter, bumped on every
successful mutation.  The query planner's cardinality catalog and plan
caches key on it to notice (and only then recompute after) data changes.
:attr:`versions` splits the same bumps by method, so a cached answer
can key on the methods it reads only.

Clones are copy-on-write: ``clone()`` copies the top-level dicts and
shares every inner bucket until one side writes to it
(:class:`_MethodTable` states the invariant; docs/performance.md, "What
a clone costs", has the who-copies-when table).

Fixpoint head emission writes *mirror-first*, a whole batch at a time
(:meth:`_MethodTable.int_writer`): new facts land in the int-surrogate
mirror, and the boxed dicts are back-filled from one queued chunk per
batch on the next boxed read (docs/performance.md, "What a derived
fact allocates").
"""

from __future__ import annotations

from array import array
from typing import Iterator

from repro.errors import ScalarConflictError
from repro.oodb.oid import Oid, OidInterner

#: An application key: (method, subject, args).
AppKey = tuple[Oid, Oid, tuple[Oid, ...]]


class _OwnedDict(dict):
    """An inner index bucket that knows who may write to it.

    ``owner`` is the write token of the one table (or mirror) allowed
    to change the bucket in place; everyone else copies it first (see
    :class:`_MethodTable`).  Readers never look at it.
    """

    __slots__ = ("owner",)

    #: Drop one key -- the verb a set bucket has for it.
    remove = dict.__delitem__


class _OwnedSet(set):
    """The set-valued counterpart of :class:`_OwnedDict`."""

    __slots__ = ("owner",)


class _SurrogateView:
    """Int-surrogate mirror of a table's parameterless facts.

    The columnar executor probes these dicts instead of the boxed
    indexes: keys are dense integer surrogates, so every probe hashes a
    machine int instead of recomputing a structural OID hash.  The view
    mirrors only ``args == ()`` facts -- parameterised methods stay on
    the interpreted matcher's row-at-a-time steps.

    The mirror is maintained *incrementally* by the owning table's
    mutators (and written first by the engine's batch writers,
    :meth:`_MethodTable.int_writer`), so kernels may capture
    :attr:`apps`/:attr:`inverse` once per plan and trust them across
    fixpoint iterations.

    Copy-on-write: a :meth:`clone` shares every method's *slice* --
    ``apps[m]``, ``inverse[m]`` and the sets and lists inside them --
    with its source.  A slice is written in place only by the view
    whose token its ``apps[m]`` bucket carries; :meth:`own` copies the
    slice (once per method and clone) before the first write.
    """

    __slots__ = ("interner", "apps", "inverse", "_sorted", "_token",
                 "copied")

    def __init__(self, interner: OidInterner) -> None:
        self.interner = interner
        #: method -> {subject -> result or {members}}, all surrogates.
        self.apps: dict[int, _OwnedDict] = {}
        #: method -> {result -> [subjects]}, all surrogates.
        self.inverse: dict[int, dict[int, list[int]]] = {}
        #: method -> sorted ``(results, subjects)`` arrays; dropped on
        #: mutation, rebuilt lazily by :meth:`sorted_inverse`.
        self._sorted: dict[int, tuple[array, array]] = {}
        #: Write token: slices whose ``owner`` is this object are ours.
        self._token = object()
        #: Method slices copied before a first write (see :meth:`own`).
        self.copied = 0

    def clone(self) -> "_SurrogateView":
        """A copy-on-write copy bound to the same interner.

        Three top-level ``dict.copy()`` calls; no slice is touched.
        Both sides get a fresh token, so neither owns a shared slice
        (and an ``int_writer`` acquired earlier notices it is stale).
        """
        copy = type(self).__new__(type(self))
        copy.interner = self.interner
        copy.apps = self.apps.copy()
        copy.inverse = self.inverse.copy()
        # Sorted pairs are replaced, never edited in place: share them.
        copy._sorted = self._sorted.copy()
        copy.copied = 0
        self._token = object()
        copy._token = object()
        return copy

    def own(self, m: int) -> tuple[_OwnedDict, dict[int, list[int]]]:
        """Method ``m``'s ``(apps, inverse)`` buckets, writable in place.

        Created when the method has no facts yet; copied -- the whole
        slice, down to the member sets and subject lists -- when it is
        still shared with a clone.
        """
        bucket = self.apps.get(m)
        if bucket is None:
            bucket = self.apps[m] = _OwnedDict()
            self.inverse[m] = {}
        elif bucket.owner is self._token:
            return bucket, self.inverse[m]
        else:
            bucket = self.apps[m] = _OwnedDict(bucket)
            self._own_values(bucket)
            self.inverse[m] = {r: subjects.copy()
                               for r, subjects in self.inverse[m].items()}
            self.copied += 1
        bucket.owner = self._token
        return bucket, self.inverse[m]

    def _own_values(self, bucket: _OwnedDict) -> None:
        """Un-share the values of a freshly copied ``apps`` bucket."""

    def _on_insert(self, method: Oid, subject: Oid, result: Oid) -> None:
        """Mirror one boxed insert (``on_put`` / ``on_add``)."""
        intern = self.interner.intern
        m = intern(method)
        self._record(m, intern(subject), intern(result))
        self._sorted.pop(m, None)

    def _unrecord(self, m: int, s: int, r: int,
                  inverse: dict[int, list[int]]) -> None:
        subjects = inverse[r]
        subjects.remove(s)
        if not subjects:
            del inverse[r]
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


class ScalarSurrogateView(_SurrogateView):
    """The scalar mirror: ``apps[m]`` maps subject to result."""

    __slots__ = ()

    def __init__(self, interner: OidInterner,
                 facts: dict[AppKey, Oid]) -> None:
        super().__init__(interner)
        intern = interner.intern
        for (method, subject, args), result in facts.items():
            if not args:
                self._record(intern(method), intern(subject), intern(result))

    def _record(self, m: int, s: int, r: int) -> None:
        bucket, inverse = self.own(m)
        bucket[s] = r
        inverse.setdefault(r, []).append(s)

    on_put = _SurrogateView._on_insert

    def on_remove(self, method: Oid, subject: Oid, result: Oid) -> None:
        intern = self.interner.intern
        m, s, r = intern(method), intern(subject), intern(result)
        if s not in self.apps.get(m, ()):
            return
        bucket, inverse = self.own(m)
        del bucket[s]
        self._unrecord(m, s, r, inverse)


class SetSurrogateView(_SurrogateView):
    """The set mirror: ``apps[m]`` maps subject to a set of members,
    so membership probes become ``int in set-of-ints``."""

    __slots__ = ()

    def __init__(self, interner: OidInterner,
                 facts: dict[AppKey, set[Oid]]) -> None:
        super().__init__(interner)
        intern = interner.intern
        for (method, subject, args), members in facts.items():
            if args:
                continue
            m, s = intern(method), intern(subject)
            for member in members:
                self._record(m, s, intern(member))

    def _own_values(self, bucket: _OwnedDict) -> None:
        for s, members in bucket.items():
            bucket[s] = members.copy()

    def _record(self, m: int, s: int, r: int) -> None:
        bucket, inverse = self.own(m)
        bucket.setdefault(s, set()).add(r)
        inverse.setdefault(r, []).append(s)

    on_add = _SurrogateView._on_insert

    def on_discard(self, method: Oid, subject: Oid, member: Oid) -> None:
        intern = self.interner.intern
        m, s, r = intern(method), intern(subject), intern(member)
        if r not in self.apps.get(m, {}).get(s, ()):
            return
        bucket, inverse = self.own(m)
        members = bucket[s]
        if len(members) == 1:
            del bucket[s]  # fully retracted: the application is gone
        else:
            members.remove(r)
        self._unrecord(m, s, r, inverse)


def _pending_rows(pending: list[tuple[int, ...]]):
    """Every queued back-fill row as an ``(m_sur, s_sur, r_sur)`` triple."""
    for chunk in pending:
        if len(chunk) == 3:
            yield chunk  # a one-row batch: the chunk is its row
        else:
            m_sur = chunk[0]
            half = len(chunk) // 2
            for s_sur, r_sur in zip(chunk[1:half + 1], chunk[half + 1:]):
                yield m_sur, s_sur, r_sur


def _stale_writer() -> RuntimeError:
    return RuntimeError("int_writer used after its table was cloned; "
                        "acquire a new writer")


class _MethodTable:
    """What the scalar and the set table share: copy-on-write clones.

    **The sharing invariant.**  :meth:`clone` copies the *top-level*
    dicts (C-level ``dict.copy()``: no key is re-hashed) and shares
    every inner bucket -- an :class:`_OwnedDict` or :class:`_OwnedSet`
    -- with its source.  A bucket is changed in place only by the table
    whose current write token it carries as ``owner``; any other table
    that reaches it copies it first and installs the copy in its own
    top-level dict (:meth:`_own`).  ``clone()`` gives *both* sides a
    fresh token, so after a clone neither side owns a bucket created
    before it, and a bucket created or copied afterwards is reachable
    from one side only.  The test is one identity comparison, survives
    buckets being deleted and re-created, and resetting it is O(1).
    """

    #: The attributes :meth:`clone` copies (top level only), and the
    #: mirror class :meth:`surrogate_view` builds.
    _SHARED: tuple[str, ...] = ()
    _VIEW: type = _SurrogateView

    def __init__(self) -> None:
        self._surrogates: _SurrogateView | None = None
        #: Mirror-first inserts not yet back-filled into the boxed
        #: structures: one chunk per written batch (see
        #: :meth:`int_writer`), the flat int tuple ``(m_sur, *subjects,
        #: *results)`` -- for a one-row batch the ``(m, s, r)`` triple
        #: itself, one object the collector untracks on sight however
        #: long it waits.  Every boxed read or mutation drains this
        #: first, so the deferral is unobservable.
        self._pending: list[tuple[int, ...]] = []
        #: Bumped on every successful mutation (planner cache key).
        self.version = 0
        #: The same bumps per method: ``version`` is their sum.
        self.versions: dict[Oid, int] = {}
        #: Write token: buckets whose ``owner`` is this object are ours.
        self._token = object()
        #: Shared buckets copied before a first write (mirror excluded).
        self.copied = 0

    @property
    def buckets_copied(self) -> int:
        """Copy-on-write copies made by this table and its mirror."""
        view = self._surrogates
        return self.copied + (view.copied if view is not None else 0)

    def sync(self) -> None:
        """Materialise queued mirror-first inserts into the boxed dicts.

        Cheap when nothing is pending; called by every boxed entry
        point.
        """
        if self._pending:
            self._drain()

    def _own(self, index: dict, key, kind: type):
        """``index[key]`` as a bucket this table may change in place:
        created (a ``kind``) when missing, copied when shared."""
        bucket = index.get(key)
        if bucket is None:
            bucket = index[key] = kind()
        elif bucket.owner is self._token:
            return bucket
        else:
            bucket = index[key] = kind(bucket)
            self.copied += 1
        bucket.owner = self._token
        return bucket

    def _unindex(self, index: dict, outer, key: AppKey) -> None:
        """Drop ``key`` from the bucket ``index[outer]``, pruning a
        bucket that would be left empty (no copy needed for that)."""
        bucket = index[outer]
        if len(bucket) == 1:
            del index[outer]
        else:
            self._own(index, outer, type(bucket)).remove(key)

    def int_writer(self, method: Oid, m_sur: int):
        """A mirror-first batch writer for one method's head emission.

        The returned ``write(s_col, r_col) -> (new_s, new_r)`` inserts
        the surrogate pairs ``zip(s_col, r_col)`` into the mirror and
        returns the new ones as two lists, in input order.  Per row it
        means what :meth:`ScalarMethodTable.put` and
        :meth:`SetMethodTable.add` mean -- a pair already present, in
        the table or earlier in the batch, is skipped; a scalar pair
        contradicting a stored result raises the same
        :class:`~repro.errors.ScalarConflictError` -- but it probes
        machine ints only.  Once per batch that wrote rows it drops the
        method's cached sorted order, bumps :attr:`version` and the
        method's :attr:`versions` entry by the number of new facts, and
        queues the boxed back-fill on :attr:`_pending` as one chunk --
        also when a conflict stops the batch part-way, so mirror and
        boxed dicts keep describing one set of facts.  Requires the
        mirror (:meth:`surrogate_view`); only parameterless facts flow
        through it.  The input columns are only read; the returned
        lists are the caller's to share, not to change.

        The method's mirror slice is owned once, here.  A clone of this
        table shares the slice again, so a writer that outlived one
        would write into both sides: it raises ``RuntimeError`` instead
        (checked once per batch).
        """
        view = self._surrogates
        bucket, inverse = view.own(m_sur)
        return self._batch_writer(view, view._token, method, m_sur, bucket,
                                  inverse)

    def _queue(self, view: _SurrogateView, method: Oid, m_sur: int,
               new_s: list[int], new_r: list[int]) -> None:
        """What a batch writer does once per batch that wrote rows."""
        view._sorted.pop(m_sur, None)
        self._pending.append((m_sur, *new_s, *new_r))
        self._bump(method, len(new_s))

    def _bump(self, method: Oid, count: int = 1) -> None:
        """Count ``count`` changed facts of ``method``."""
        self.version += count
        versions = self.versions
        versions[method] = versions.get(method, 0) + count

    def surrogate_view(self, interner: OidInterner):
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
            view = self._VIEW(interner, self._facts)
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

    def clone(self):
        """A copy-on-write copy (same version).

        Costs one C-level ``dict.copy()`` per top-level structure --
        nothing is done per fact or per bucket, and no key is
        re-hashed.  Every inner bucket stays shared until one side
        writes to it (the class docstring has the invariant).  The
        int-surrogate mirror, when the source has one, is carried the
        same way, still bound to the source's interner;
        :meth:`Database.clone` re-binds it to the cloned interner
        (:meth:`rebind_mirror`).  The only writes to ``self`` are the
        back-fill of pending mirror-first inserts (as for any boxed
        read) and the token reset, so concurrent readers may clone one
        quiescent table.

        The version counter is carried over: a clone holds the same
        facts as its source, so a ``data_version`` computed from it must
        not collide with a version the source had when its facts were
        different (plan caches and catalogs key on that value).
        """
        if self._pending:
            self._drain()
        copy = type(self)()
        for name in self._SHARED:
            setattr(copy, name, getattr(self, name).copy())
        if self._surrogates is not None:
            copy._surrogates = self._surrogates.clone()
        copy.version = self.version
        copy.versions = self.versions.copy()
        self._token = object()
        return copy


class ScalarMethodTable(_MethodTable):
    """The stored graph of ``I_->``: partial functions per method object."""

    _SHARED = ("_facts", "_by_method", "_by_method_result", "_by_subject")
    _VIEW = ScalarSurrogateView

    def __init__(self) -> None:
        super().__init__()
        self._facts: dict[AppKey, Oid] = {}
        self._by_method: dict[Oid, _OwnedDict] = {}
        self._by_method_result: dict[tuple[Oid, Oid], _OwnedSet] = {}
        self._by_subject: dict[Oid, _OwnedDict] = {}

    # -- mirror-first writes (columnar head emission) ------------------------

    def _drain(self) -> None:
        pending = self._pending
        resolver = self._surrogates.interner.resolver()
        facts = self._facts
        by_method = self._by_method
        by_method_result = self._by_method_result
        by_subject = self._by_subject
        own = self._own
        token = self._token
        # No duplicate or conflict checks: the writer proved each
        # triple absent against the mirror, which covers every
        # parameterless fact of this table.  The ownership test is
        # inlined: a bucket this table already owns costs no call.
        for m_sur, s_sur, r_sur in _pending_rows(pending):
            method = resolver[m_sur]
            subject = resolver[s_sur]
            result = resolver[r_sur]
            key = (method, subject, ())
            facts[key] = result
            bucket = by_method.get(method)
            if bucket is None or bucket.owner is not token:
                bucket = own(by_method, method, _OwnedDict)
            bucket[key] = result
            inv = by_method_result.get((method, result))
            if inv is None or inv.owner is not token:
                inv = own(by_method_result, (method, result), _OwnedSet)
            inv.add(key)
            subj = by_subject.get(subject)
            if subj is None or subj.owner is not token:
                subj = own(by_subject, subject, _OwnedDict)
            subj[key] = result
        pending.clear()

    def _batch_writer(self, view, token, method, m_sur, bucket, inverse):
        """:meth:`int_writer`'s closure: a pair is a :meth:`put`."""
        get = bucket.get
        queue = self._queue

        def write(s_col, r_col) -> tuple[list[int], list[int]]:
            if view._token is not token:
                raise _stale_writer()
            new_s: list[int] = []
            new_r: list[int] = []
            try:
                for s, r in zip(s_col, r_col):
                    stored = get(s)
                    if stored is not None:
                        if stored == r:
                            continue
                        resolver = view.interner.resolver()
                        raise ScalarConflictError(
                            resolver[m_sur], resolver[s], (),
                            resolver[stored], resolver[r])
                    bucket[s] = r
                    found = inverse.get(r)
                    if found is None:
                        inverse[r] = [s]
                    else:
                        found.append(s)
                    new_s.append(s)
                    new_r.append(r)
            finally:
                if new_s:
                    queue(view, method, m_sur, new_s, new_r)
            return new_s, new_r
        return write

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
        self._bump(method)
        own = self._own
        own(self._by_method, method, _OwnedDict)[key] = result
        own(self._by_method_result, (method, result), _OwnedSet).add(key)
        own(self._by_subject, subject, _OwnedDict)[key] = result
        if self._surrogates is not None and not args:
            self._surrogates.on_put(method, subject, result)
        return True

    def remove(self, method: Oid, subject: Oid, args: tuple[Oid, ...]) -> bool:
        """Delete one stored application; return False if absent.

        Index buckets the deletion empties are pruned, so a method or
        subject with no facts left has no entry anywhere.
        """
        if self._pending:
            self._drain()
        key = (method, subject, args)
        result = self._facts.pop(key, None)
        if result is None:
            return False
        self._bump(method)
        self._unindex(self._by_method, method, key)
        self._unindex(self._by_method_result, (method, result), key)
        self._unindex(self._by_subject, subject, key)
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
        Chooses the most selective index; only a pattern with neither
        method nor subject bound scans the primary dict.
        """
        if self._pending:
            self._drain()
        if method is not None and result is not None:
            for key in self._by_method_result.get((method, result), ()):
                if subject is None or key[1] == subject:
                    yield (key, result)
            return
        if method is not None:
            for key, value in self._by_method.get(method, {}).items():
                if subject is None or key[1] == subject:
                    yield (key, value)
            return
        buckets = (self._facts if subject is None
                   else self._by_subject.get(subject, {}))
        for key, value in buckets.items():
            if result is None or value == result:
                yield (key, value)

    def methods(self) -> frozenset[Oid]:
        """All method objects with at least one stored application."""
        if self._pending:
            self._drain()
        return frozenset(self._by_method)

    # -- exact index cardinalities (planner estimates) -----------------------

    def count_method(self, method: Oid) -> int:
        """Stored facts of ``method``."""
        if self._pending:
            self._drain()
        return len(self._by_method.get(method, ()))

    def count_method_result(self, method: Oid, result: Oid) -> int:
        """Facts with this method *and* result."""
        if self._pending:
            self._drain()
        return len(self._by_method_result.get((method, result), ()))

    def count_subject(self, subject: Oid) -> int:
        """Facts stored on ``subject``."""
        if self._pending:
            self._drain()
        return len(self._by_subject.get(subject, ()))

    # -- raw views (statistics, tests) ---------------------------------------
    #
    # The views are the *live* internal index dicts, read without the
    # generator dispatch of :meth:`match` -- callers must treat them as
    # read-only.  The outer dicts are stable for the table's lifetime;
    # the buckets inside are not (a first write after a clone installs
    # a copy, an emptied bucket is pruned), so a caller that keeps a
    # view must look them up again per use.

    def by_method_view(self) -> dict[Oid, dict[AppKey, Oid]]:
        """The live method index: method -> {key: result}."""
        if self._pending:
            self._drain()
        return self._by_method

    def by_subject_view(self) -> dict[Oid, dict[AppKey, Oid]]:
        """The live subject index: subject -> {key: result}."""
        if self._pending:
            self._drain()
        return self._by_subject

    def mentioned_oids(self) -> Iterator[Oid]:
        """Every OID occurring in any stored fact."""
        if self._pending:
            self._drain()
        for (method, subject, args), result in self._facts.items():
            yield method
            yield subject
            yield from args
            yield result


class SetMethodTable(_MethodTable):
    """The stored graph of ``I_->>``: a set of results per application.

    An application exists exactly while it has a member: retracting the
    last one removes the key from every structure (the change log, the
    WAL and a snapshot can only express memberships, so "defined and
    empty" would not survive recovery).

    One membership set is reachable three ways -- ``_facts[key]``,
    ``_by_method[m][key]``, ``_by_subject[s][key]`` -- so copying it on
    a first write re-points all three (:meth:`_own_members`).
    """

    _SHARED = ("_facts", "_by_method", "_by_method_member", "_by_subject")
    _VIEW = SetSurrogateView

    def __init__(self) -> None:
        super().__init__()
        self._facts: dict[AppKey, _OwnedSet] = {}
        self._by_method: dict[Oid, _OwnedDict] = {}
        self._by_method_member: dict[tuple[Oid, Oid], _OwnedSet] = {}
        self._by_subject: dict[Oid, _OwnedDict] = {}

    def _own_members(self, key: AppKey,
                     members: _OwnedSet | None) -> _OwnedSet:
        """``key``'s membership set (``members``, as stored) writable in
        place: created when None, copied when shared, and installed in
        the primary dict and both indexes either way."""
        if members is None:
            fresh = _OwnedSet()
        elif members.owner is self._token:
            return members
        else:
            fresh = _OwnedSet(members)
            self.copied += 1
        fresh.owner = self._token
        self._facts[key] = fresh
        self._own(self._by_method, key[0], _OwnedDict)[key] = fresh
        self._own(self._by_subject, key[1], _OwnedDict)[key] = fresh
        return fresh

    # -- mirror-first writes (columnar head emission) ------------------------

    def _drain(self) -> None:
        pending = self._pending
        resolver = self._surrogates.interner.resolver()
        facts = self._facts
        by_method_member = self._by_method_member
        own = self._own
        own_members = self._own_members
        token = self._token
        for m_sur, s_sur, r_sur in _pending_rows(pending):
            method = resolver[m_sur]
            member = resolver[r_sur]
            key = (method, resolver[s_sur], ())
            members = facts.get(key)
            if members is None or members.owner is not token:
                members = own_members(key, members)
            members.add(member)
            inv = by_method_member.get((method, member))
            if inv is None or inv.owner is not token:
                inv = own(by_method_member, (method, member), _OwnedSet)
            inv.add(key)
        pending.clear()

    def _batch_writer(self, view, token, method, m_sur, bucket, inverse):
        """:meth:`int_writer`'s closure: a pair is an :meth:`add`."""
        get = bucket.get
        queue = self._queue

        def write(s_col, r_col) -> tuple[list[int], list[int]]:
            if view._token is not token:
                raise _stale_writer()
            new_s: list[int] = []
            new_r: list[int] = []
            for s, r in zip(s_col, r_col):
                members = get(s)
                if members is None:
                    bucket[s] = {r}
                elif r in members:
                    continue
                else:
                    members.add(r)
                found = inverse.get(r)
                if found is None:
                    inverse[r] = [s]
                else:
                    found.append(s)
                new_s.append(s)
                new_r.append(r)
            if new_s:
                queue(view, method, m_sur, new_s, new_r)
            return new_s, new_r
        return write

    # -- mutation -----------------------------------------------------------

    def add(self, method: Oid, subject: Oid, args: tuple[Oid, ...],
            member: Oid) -> bool:
        """Add ``member`` to ``method(subject, args)``; False if present."""
        if self._pending:
            self._drain()
        key = (method, subject, args)
        members = self._facts.get(key)
        if members is not None and member in members:
            return False
        self._own_members(key, members).add(member)
        self._bump(method)
        self._own(self._by_method_member, (method, member), _OwnedSet).add(key)
        if self._surrogates is not None and not args:
            self._surrogates.on_add(method, subject, member)
        return True

    def discard(self, method: Oid, subject: Oid, args: tuple[Oid, ...],
                member: Oid) -> bool:
        """Remove one membership; return False if it was absent.

        Removing the last member removes the application: its key
        leaves the primary dict, both indexes and the mirror, and index
        buckets left empty are pruned.
        """
        if self._pending:
            self._drain()
        key = (method, subject, args)
        members = self._facts.get(key)
        if members is None or member not in members:
            return False
        if len(members) > 1:
            self._own_members(key, members).remove(member)
        else:
            del self._facts[key]
            self._unindex(self._by_method, method, key)
            self._unindex(self._by_subject, subject, key)
        self._bump(method)
        self._unindex(self._by_method_member, (method, member), key)
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
        """True when the application has at least one stored member."""
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
        membership, using the most selective index; only a pattern with
        neither method nor subject bound scans the primary dict.
        """
        if self._pending:
            self._drain()
        if method is not None and member is not None:
            for key in self._by_method_member.get((method, member), ()):
                if subject is None or key[1] == subject:
                    yield (key, member)
            return
        if method is not None:
            for key, bucket in self._by_method.get(method, {}).items():
                if subject is None or key[1] == subject:
                    for value in bucket:
                        yield (key, value)
            return
        buckets = (self._facts if subject is None
                   else self._by_subject.get(subject, {}))
        for key, bucket in buckets.items():
            if member is None:
                for value in bucket:
                    yield (key, value)
            elif member in bucket:
                yield (key, member)

    def methods(self) -> frozenset[Oid]:
        """All method objects with at least one stored application."""
        if self._pending:
            self._drain()
        return frozenset(self._by_method)

    # -- exact index cardinalities (planner estimates) -----------------------

    def count_method_apps(self, method: Oid) -> int:
        """Applications of ``method``."""
        if self._pending:
            self._drain()
        return len(self._by_method.get(method, ()))

    def count_method_member(self, method: Oid, member: Oid) -> int:
        """Memberships of ``member`` under ``method``."""
        if self._pending:
            self._drain()
        return len(self._by_method_member.get((method, member), ()))

    def count_subject_apps(self, subject: Oid) -> int:
        """Applications stored on ``subject``."""
        if self._pending:
            self._drain()
        return len(self._by_subject.get(subject, ()))

    # -- raw views (statistics, tests; see ScalarMethodTable) ----------------

    def by_method_view(self) -> dict[Oid, dict[AppKey, set[Oid]]]:
        """The live method index: method -> {key: members}."""
        if self._pending:
            self._drain()
        return self._by_method

    def by_method_member_view(self) -> dict[tuple[Oid, Oid], set[AppKey]]:
        """The live inverse index: (method, member) -> {key}."""
        if self._pending:
            self._drain()
        return self._by_method_member

    def by_subject_view(self) -> dict[Oid, dict[AppKey, set[Oid]]]:
        """The live subject index: subject -> {key: members}."""
        if self._pending:
            self._drain()
        return self._by_subject

    def mentioned_oids(self) -> Iterator[Oid]:
        """Every OID occurring in any stored membership."""
        if self._pending:
            self._drain()
        for (method, subject, args), bucket in self._facts.items():
            yield method
            yield subject
            yield from args
            yield from bucket
