"""The :class:`Database` facade: one object implementing the paper's ``I``.

A database bundles

- the universe ``U`` (every OID ever registered),
- the name interpretation ``I_N`` (identity by default, with optional
  aliases so two names may denote one object),
- the class partial order ``in_U`` (:class:`ClassHierarchy`),
- the method interpretations ``I_->`` and ``I_->>``
  (:class:`ScalarMethodTable` / :class:`SetMethodTable`),

and offers both the low-level assertion API used by the engine and a
high-level loading API used by examples and tests
(:meth:`Database.add_object`, :meth:`Database.subclass`).

The built-in ``self`` method is interpreted here, so
``db.scalar_apply(self, o, ())`` is ``o`` for every object.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, Mapping

from repro.core import builtins as _builtins
from repro.oodb.hierarchy import ClassHierarchy
from repro.oodb.methods import ScalarMethodTable, SetMethodTable
from repro.oodb.oid import NamedOid, NameValue, Oid, OidInterner, VirtualOid

#: A recorded base-fact change: ``("+", fact)`` or ``("-", fact)`` where
#: ``fact`` uses the realizer-log shape -- ``("scalar", m, s, args, r)``,
#: ``("set", m, s, args, r)``, or ``("isa", o, c)``.
ChangeEntry = tuple[str, tuple]


class TrimmedCursor(ValueError):
    """A change-log read below the trimmed prefix.

    Raised by :meth:`ChangeLog.since` when the requested cursor's
    entries were already reclaimed by :meth:`Database.trim_changes`.
    Still a :class:`ValueError` (the historical contract), but typed so
    a replication boundary can translate it into a *retryable*
    "resync required" protocol error instead of killing the connection.
    Carries the offending ``cursor`` and the log's current ``offset``.
    """

    def __init__(self, cursor: int, offset: int) -> None:
        super().__init__(
            f"change-log cursor {cursor} is below the trimmed "
            f"prefix ({offset}); register long-lived cursors "
            f"with Database.hold_changes so trim_changes keeps "
            f"their entries"
        )
        self.cursor = cursor
        self.offset = offset


class ChangeLog:
    """An append-only record of base-fact insertions and deletions.

    Started by :meth:`Database.begin_changes`, the log captures every
    successful mutation that goes through the database's assertion and
    retraction API.  Consumers (memoised query results, the cardinality
    catalog) remember a *cursor* -- ``len(entries)`` at snapshot time --
    and later replay ``entries[cursor:]`` as their delta.

    Every recorded entry corresponds to exactly one ``data_version``
    bump, so :meth:`in_sync` can prove that no mutation escaped the log
    (a direct table mutation would bump a version counter without an
    entry, and the consumer then falls back to a full rebuild).  An
    alias change rebinds what a name denotes everywhere -- that is not
    expressible as a fact delta, so it *disrupts* the log permanently.

    Cursors are **absolute**: they keep counting from the log's birth
    even after :meth:`trim_to` drops an already-replayed prefix
    (``offset`` remembers how many entries were discarded), so held
    cursors never need rebasing when the log is trimmed.
    """

    __slots__ = ("start_version", "entries", "disrupted", "offset")

    def __init__(self, start_version: int) -> None:
        #: ``data_version()`` of the database when recording started.
        self.start_version = start_version
        self.entries: list[ChangeEntry] = []
        #: Entries discarded from the front by :meth:`trim_to`; absolute
        #: cursor ``c`` lives at ``entries[c - offset]``.
        self.offset = 0
        #: Reason the log can no longer prove completeness, or None.
        self.disrupted: str | None = None

    def cursor(self) -> int:
        """The current replay position (snapshot with the data version)."""
        return self.offset + len(self.entries)

    def record(self, sign: str, fact: tuple) -> None:
        """Append one applied change (``sign`` is ``"+"`` or ``"-"``)."""
        self.entries.append((sign, fact))

    def disrupt(self, reason: str) -> None:
        """Mark the log as unable to describe the change as fact deltas."""
        if self.disrupted is None:
            self.disrupted = reason

    def in_sync(self, version: int, cursor: int) -> bool:
        """Whether the first ``cursor`` changes fully explain ``version``.

        True iff the log is undisrupted and exactly ``cursor`` mutations
        happened since ``start_version`` -- i.e. nothing changed the
        database behind the log's back up to that point.  (The check
        needs only arithmetic, so it stays provable for cursors below
        the trimmed prefix.)
        """
        return (self.disrupted is None
                and self.start_version + cursor == version)

    def since(self, cursor: int) -> list[ChangeEntry]:
        """The changes recorded after ``cursor``, oldest first.

        Raises :class:`TrimmedCursor` (a :class:`ValueError`) for
        cursors below the trimmed prefix: entries there are gone, and
        silently returning the surviving suffix would let an
        unregistered consumer apply an incomplete delta.  Long-lived
        cursors must be registered with :meth:`Database.hold_changes`
        so trimming preserves them; a replication subscriber that fell
        past the trim horizon instead gets a typed "resync required"
        answer built from this exception.
        """
        if cursor < self.offset:
            raise TrimmedCursor(cursor, self.offset)
        return self.entries[cursor - self.offset:]

    def trim_to(self, cursor: int) -> int:
        """Discard entries below the absolute ``cursor``; returns count.

        The caller (:meth:`Database.trim_changes`) guarantees ``cursor``
        is at or below every live consumer's replay position.
        """
        drop = min(cursor, self.cursor()) - self.offset
        if drop <= 0:
            return 0
        del self.entries[:drop]
        self.offset += drop
        return drop


class ChangeLease:
    """A held change-log cursor with deterministic release.

    Wraps :meth:`Database.hold_changes` / :meth:`Database.release_changes`
    in a context manager so a reader that dies on an exception path can
    never keep pinning the log: leaving the ``with`` block (normally or
    not) releases the registration, and ``trim_changes`` may reclaim the
    prefix.  Long-lived consumers keep one lease and :meth:`move` it as
    their replay low-water mark advances.

    The lease itself is the weakly-referenced holder, so dropping the
    last reference to an unreleased lease also stops pinning the log
    (the belt to the context manager's braces).
    """

    __slots__ = ("_db", "cursor", "released", "__weakref__")

    def __init__(self, db: "Database", cursor: int) -> None:
        self._db = db
        #: The absolute change-log cursor this lease pins (None when the
        #: database had no active log -- the lease is then a no-op).
        self.cursor: int | None = cursor
        self.released = False
        if cursor is not None:
            db.hold_changes(self, cursor)

    def move(self, cursor: int) -> None:
        """Advance (or rebase) the pinned cursor."""
        if self.released:
            raise ValueError("cannot move a released change lease")
        self.cursor = cursor
        if cursor is None:
            self._db.release_changes(self)
        else:
            self._db.hold_changes(self, cursor)

    def release(self) -> None:
        """Drop the registration (idempotent)."""
        if not self.released:
            self.released = True
            self._db.release_changes(self)

    def __enter__(self) -> "ChangeLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "released" if self.released else f"cursor={self.cursor}"
        return f"ChangeLease({state})"


class Database:
    """An in-memory OODB instance: the semantic structure ``I``."""

    def __init__(self, *, indexed: bool = True, reflexive_isa: bool = False) -> None:
        self._aliases: dict[NameValue, Oid] = {}
        self._universe: set[Oid] = set()
        self.hierarchy = ClassHierarchy(reflexive=reflexive_isa)
        self.scalars = ScalarMethodTable(indexed=indexed)
        self.sets = SetMethodTable(indexed=indexed)
        self._indexed = indexed
        self._catalog = None
        self._catalog_version = -1
        self._catalog_cursor: int | None = None
        #: Predicates the catalog must recount before its next use
        #: (see :meth:`catalog_moved`), or None when it is exact.
        self._catalog_touched: frozenset | None = None
        self._alias_version = 0
        self._change_log: ChangeLog | None = None
        # Change-log cursors held by live consumers (memoising queries),
        # weakly keyed so a dropped consumer stops pinning the log.
        self._change_holds: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        self._interner = OidInterner()

    # ------------------------------------------------------------------
    # Dense OID surrogates
    # ------------------------------------------------------------------

    @property
    def interner(self) -> OidInterner:
        """The database's dense surrogate table (shared with kernels)."""
        return self._interner

    def intern(self, oid: Oid) -> int:
        """Dense integer surrogate for ``oid`` (assigned on first use)."""
        return self._interner.intern(oid)

    def resolve(self, surrogate: int) -> Oid:
        """The OID a surrogate stands for."""
        return self._interner.resolve(surrogate)

    # ------------------------------------------------------------------
    # Names and universe
    # ------------------------------------------------------------------

    def lookup_name(self, value: NameValue) -> Oid:
        """``I_N``: the object a name denotes (registers it in ``U``)."""
        oid = self._aliases.get(value)
        if oid is None:
            oid = NamedOid(value)
        self._universe.add(oid)
        return oid

    def denotes(self, value: NameValue) -> Oid:
        """The object a name denotes, without registering it in ``U``."""
        return self._aliases.get(value) or NamedOid(value)

    def alias(self, value: NameValue, target: NameValue | Oid) -> None:
        """Make the name ``value`` denote the object behind ``target``.

        This realises the paper's remark that ``I_N`` need not be
        injective: several names may denote the same object.
        """
        oid = target if isinstance(target, Oid) else self.lookup_name(target)
        self._aliases[value] = oid
        self._universe.add(oid)
        # Aliasing changes what every Name constant denotes, so plans
        # (and their compiled forms, which resolve names at compile
        # time) must be invalidated exactly like a fact change.
        self._alias_version += 1
        if self._change_log is not None:
            # Rebinding a name is not a fact delta: every fact mentioning
            # the name semantically changes at once.
            self._change_log.disrupt(f"alias changed for {value!r}")

    def register(self, oid: Oid) -> Oid:
        """Add an OID to the universe (idempotent); returns it."""
        self._universe.add(oid)
        return oid

    def universe(self) -> frozenset[Oid]:
        """The current universe ``U``."""
        return frozenset(self._universe)

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._universe

    def __len__(self) -> int:
        return len(self._universe)

    # ------------------------------------------------------------------
    # Class hierarchy
    # ------------------------------------------------------------------

    def assert_isa(self, obj: Oid, cls: Oid) -> bool:
        """Declare ``obj in_U cls``; returns False if already implied."""
        self._universe.add(obj)
        self._universe.add(cls)
        added = self.hierarchy.declare(obj, cls)
        if added and self._change_log is not None:
            self._change_log.record("+", ("isa", obj, cls))
        return added

    def retract_isa(self, obj: Oid, cls: Oid) -> bool:
        """Remove a *declared* ``obj in_U cls`` edge; False when absent.

        Only declared edges can be retracted; memberships implied by
        transitivity through other edges survive.
        """
        removed = self.hierarchy.remove(obj, cls)
        if removed and self._change_log is not None:
            self._change_log.record("-", ("isa", obj, cls))
        return removed

    def isa(self, obj: Oid, cls: Oid) -> bool:
        """``obj in_U cls``: declared closure or built-in value classes.

        Integer names are members of ``integer``, string names of
        ``string``; these built-in extents are not enumerable (they do
        not appear in :meth:`members`), only checkable.
        """
        if self.hierarchy.isa(obj, cls):
            return True
        return _builtins.builtin_isa(obj, cls)

    def members(self, cls: Oid) -> frozenset[Oid]:
        """All objects of class ``cls``."""
        return self.hierarchy.members(cls)

    def classes_of(self, obj: Oid) -> frozenset[Oid]:
        """All classes of ``obj``."""
        return self.hierarchy.classes_of(obj)

    # ------------------------------------------------------------------
    # Methods
    # ------------------------------------------------------------------

    def assert_scalar(self, method: Oid, subject: Oid,
                      args: tuple[Oid, ...], result: Oid) -> bool:
        """Store a scalar fact; see :meth:`ScalarMethodTable.put`."""
        self._register_app(method, subject, args, result)
        added = self.scalars.put(method, subject, args, result)
        if added and self._change_log is not None:
            self._change_log.record(
                "+", ("scalar", method, subject, args, result))
        return added

    def retract_scalar(self, method: Oid, subject: Oid,
                       args: tuple[Oid, ...] = ()) -> bool:
        """Delete one stored scalar application; False when absent."""
        result = self.scalars.get(method, subject, args)
        if result is None:
            return False
        self.scalars.remove(method, subject, args)
        if self._change_log is not None:
            self._change_log.record(
                "-", ("scalar", method, subject, args, result))
        return True

    def assert_set_member(self, method: Oid, subject: Oid,
                          args: tuple[Oid, ...], member: Oid) -> bool:
        """Store a set membership fact."""
        self._register_app(method, subject, args, member)
        added = self.sets.add(method, subject, args, member)
        if added and self._change_log is not None:
            self._change_log.record(
                "+", ("set", method, subject, args, member))
        return added

    def retract_set_member(self, method: Oid, subject: Oid,
                           args: tuple[Oid, ...], member: Oid) -> bool:
        """Remove one stored set membership; False when absent."""
        removed = self.sets.discard(method, subject, args, member)
        if removed and self._change_log is not None:
            self._change_log.record(
                "-", ("set", method, subject, args, member))
        return removed

    def _register_app(self, method: Oid, subject: Oid,
                      args: tuple[Oid, ...], result: Oid) -> None:
        self._universe.add(method)
        self._universe.add(subject)
        self._universe.update(args)
        self._universe.add(result)

    def scalar_apply(self, method: Oid, subject: Oid,
                     args: tuple[Oid, ...] = ()) -> Oid | None:
        """``I_->(method)(subject, args)``, including builtins."""
        if _builtins.is_builtin_scalar(method):
            return _builtins.apply_builtin_scalar(method, subject, args)
        return self.scalars.get(method, subject, args)

    def set_apply(self, method: Oid, subject: Oid,
                  args: tuple[Oid, ...] = ()) -> frozenset[Oid]:
        """``I_->>(method)(subject, args)``; empty where undefined."""
        return self.sets.get(method, subject, args)

    # ------------------------------------------------------------------
    # Change log (incremental view maintenance)
    # ------------------------------------------------------------------

    @property
    def change_log(self) -> ChangeLog | None:
        """The active :class:`ChangeLog`, or None when not recording."""
        return self._change_log

    def begin_changes(self) -> ChangeLog:
        """Start (or continue) recording base-fact changes.

        Returns the active :class:`ChangeLog`.  Idempotent: calling it
        again while a healthy log is active returns the same log, so
        several consumers (queries, the catalog) can share one
        recording; a *disrupted* log is replaced by a fresh one
        (consumers holding cursors into the old log rebuild once).  The
        log rides the existing table version counters: every recorded
        entry corresponds to exactly one ``data_version`` bump, which is
        how consumers verify nothing mutated the tables directly.

        Entries are kept until every registered consumer has replayed
        them: memoising queries publish their replay cursors through
        :meth:`hold_changes`, and :meth:`trim_changes` drops the prefix
        below the lowest held cursor, so a long-lived embedder's log
        stays bounded by the *lag* of its slowest consumer rather than
        by total mutation count.
        """
        if self._change_log is None or self._change_log.disrupted:
            self._change_log = ChangeLog(self.data_version())
            self._catalog_cursor = None
            # Held cursors referred to the replaced log; consumers
            # re-register after their next (full) rebuild.
            self._change_holds.clear()
        return self._change_log

    def end_changes(self) -> None:
        """Stop recording; consumers fall back to full recomputation."""
        self._change_log = None
        self._catalog_cursor = None
        self._change_holds.clear()

    def hold_changes(self, holder: object, cursor: int) -> None:
        """Register ``holder``'s lowest un-replayed change-log cursor.

        Consumers that keep cursors into the log (memoising queries)
        call this whenever their low-water mark advances; the reference
        is weak, so a garbage-collected holder stops pinning the log
        automatically.  Entries below the lowest held cursor become
        eligible for :meth:`trim_changes`.
        """
        self._change_holds[holder] = cursor

    def release_changes(self, holder: object) -> None:
        """Drop ``holder``'s cursor registration (idempotent)."""
        self._change_holds.pop(holder, None)

    def held_changes(self, cursor: int | None = None) -> ChangeLease:
        """A :class:`ChangeLease` pinning ``cursor`` (default: now).

        The exception-safe form of the :meth:`hold_changes` /
        :meth:`release_changes` pairing: use it as a context manager so
        a reader interrupted mid-query releases its cursor on the way
        out and can never leak a hold that keeps the log untrimmable::

            with db.held_changes() as lease:
                ...  # the log keeps every entry from lease.cursor on

        With no active change log the lease is inert (``cursor`` is
        None) -- snapshot readers then fall back to plain version
        comparison.
        """
        if cursor is None:
            log = self._change_log
            cursor = log.cursor() if log is not None else None
        return ChangeLease(self, cursor)

    def snapshot_lag(self) -> int:
        """Entries between the oldest held cursor and the log head.

        How far the slowest registered consumer (a memoising query, a
        server request's snapshot lease) trails the present -- 0 with no
        log, no holds, or everyone caught up.  Servers surface this as
        their ``snapshot_lag`` health statistic.
        """
        log = self._change_log
        if log is None:
            return 0
        cursors = [c for c in self._change_holds.values() if c is not None]
        if self._catalog_cursor is not None:
            cursors.append(self._catalog_cursor)
        if not cursors:
            return 0
        return max(0, log.cursor() - min(cursors))

    def rollback_changes(self, cursor: int) -> int:
        """Undo every change recorded after ``cursor``, newest first.

        The transactional backbone of incremental maintenance
        (:meth:`~repro.engine.incremental.Maintainer.apply`): a failed
        application takes a cursor snapshot before its first write and
        rolls the database back to that state on any exception.  The
        undo goes through the ordinary assertion/retraction API -- it
        does **not** truncate the log -- so every undo step is itself
        recorded and version-counted, and :meth:`ChangeLog.in_sync`
        stays provable for all live consumers (a truncation would break
        the start_version + cursor == data_version arithmetic, since
        versions only ever advance).

        LIFO order makes each inverse exact: a ``+`` entry is undone by
        retracting the fact (guarded, for scalars, on the stored result
        still being the recorded one), a ``-`` entry by re-asserting
        it; by the time an earlier entry is undone every later entry
        touching the same fact has already been reversed, so re-asserts
        can never hit a scalar conflict.  Returns how many entries were
        undone.
        """
        log = self._change_log
        if log is None:
            return 0
        undone = 0
        for sign, fact in reversed(log.since(cursor)):
            kind = fact[0]
            if sign == "+":
                if kind == "scalar":
                    if self.scalars.get(fact[1], fact[2],
                                        fact[3]) == fact[4]:
                        self.retract_scalar(fact[1], fact[2], fact[3])
                elif kind == "set":
                    self.retract_set_member(fact[1], fact[2], fact[3],
                                            fact[4])
                else:
                    self.retract_isa(fact[1], fact[2])
            else:
                if kind == "scalar":
                    self.assert_scalar(fact[1], fact[2], fact[3], fact[4])
                elif kind == "set":
                    self.assert_set_member(fact[1], fact[2], fact[3],
                                           fact[4])
                else:
                    self.assert_isa(fact[1], fact[2])
            undone += 1
        return undone

    def trim_changes(self) -> int:
        """Drop the change-log prefix every live consumer has replayed.

        The low-water mark is the minimum of every cursor registered
        through :meth:`hold_changes`; entries below it can never be
        requested again and are discarded (cursors are absolute, so
        nothing needs rebasing).  The catalog is the one consumer that
        can always catch up on the spot, so a log-synced catalog is
        patched first (O(unreplayed entries)) and never pins the log
        -- otherwise a catalog built once for a fixpoint run would hold
        the whole suffix until the next run.  Returns how many entries
        were dropped.  A consumer that keeps a cursor *without* registering
        it gets a :class:`ValueError` from ``since()`` once trimming
        passes its cursor -- loud, rather than an incomplete delta.
        """
        log = self._change_log
        if log is None:
            return 0
        if self._catalog_cursor is not None:
            self.catalog()  # its cursor is now the log head, or dropped
        low = log.cursor()
        for cursor in self._change_holds.values():
            low = min(low, cursor)
        return log.trim_to(low)

    # ------------------------------------------------------------------
    # Planner support: data version and cardinality catalog
    # ------------------------------------------------------------------

    def data_version(self) -> int:
        """A counter that changes whenever stored facts change.

        Sums the mutation counters of the two method tables, the class
        hierarchy, and the alias map (an alias changes what a name
        denotes -- semantically a data change for every plan mentioning
        it).  Registering names in the universe does *not* bump it
        (queries do that constantly); plan caches and the cardinality
        catalog key on this value.
        """
        return (self.scalars.version + self.sets.version
                + self.hierarchy.version + self._alias_version)

    def catalog(self):
        """The :class:`~repro.oodb.statistics.CardinalityCatalog` of this
        database, rebuilt lazily when :meth:`data_version` changes.

        When a change log is active and proves it covers the gap since
        the catalog was built, the catalog is *patched* from the logged
        deltas (fact counts and totals adjust in place) instead of
        being rebuilt by a full O(|facts|) scan.  A catalog kept across
        a fixpoint run (:meth:`catalog_moved`) recounts the predicates
        the run derived, here, on its first use.
        """
        from repro.oodb.statistics import CardinalityCatalog

        version = self.data_version()
        if self._catalog is not None and self._catalog_version == version:
            if self._catalog_touched is not None:
                self._catalog.recount(self, self._catalog_touched)
                self._catalog_touched = None
            return self._catalog
        self._catalog_touched = None
        log = self._change_log
        if (self._catalog is not None and log is not None
                and self._catalog_cursor is not None
                and log.in_sync(version, log.cursor())
                and log.in_sync(self._catalog_version,
                                self._catalog_cursor)):
            self._catalog.apply(log.since(self._catalog_cursor), self)
            self._catalog_version = version
            self._catalog_cursor = log.cursor()
            return self._catalog
        self._catalog = CardinalityCatalog.build(self)
        self._catalog_version = version
        cursor = None
        if log is not None and log.in_sync(version, log.cursor()):
            cursor = log.cursor()
        self._catalog_cursor = cursor
        return self._catalog

    def catalog_moved(self, predicates) -> None:
        """Keep the catalog across a bulk derivation into this database.

        A fixpoint run that planned against :meth:`catalog` and then
        asserted facts of only the given ``(kind, name)`` predicates --
        ``kind`` one of ``"scalar"``, ``"set"``, ``"isa"``; ``name``
        the method's name -- calls this when it is done: the catalog is
        re-stamped with the current data version and those predicates
        are recounted on its next use
        (:meth:`CardinalityCatalog.recount`), instead of the whole
        database being rescanned.  The recount is deferred because it
        reads the boxed indexes, which a columnar run leaves to be
        back-filled by the first boxed reader.  Without a catalog or
        without secondary indexes this is a no-op (the next
        :meth:`catalog` call rebuilds as usual).
        """
        if self._catalog is None or not self._indexed:
            return
        touched = {(kind, self.denotes(name)) for kind, name in predicates}
        self._catalog_touched = frozenset(
            touched.union(self._catalog_touched or ()))
        self._catalog_version = self.data_version()
        self._catalog_cursor = None

    # ------------------------------------------------------------------
    # High-level loading API
    # ------------------------------------------------------------------

    def obj(self, name: NameValue) -> Oid:
        """Look up (and register) the object for a Python name value."""
        return self.lookup_name(name)

    def subclass(self, sub: NameValue, sup: NameValue) -> None:
        """Declare ``sub in_U sup`` between two named classes."""
        self.assert_isa(self.lookup_name(sub), self.lookup_name(sup))

    def add_object(self, name: NameValue, *,
                   classes: Iterable[NameValue] = (),
                   scalars: Mapping[NameValue, NameValue] | None = None,
                   sets: Mapping[NameValue, Iterable[NameValue]] | None = None,
                   ) -> Oid:
        """Create/extend a named object with memberships and attributes.

        ``scalars`` maps method names to one value each; ``sets`` maps
        method names to iterables of values.  All values are names
        (strings or integers).  Example::

            db.add_object("p1", classes=["employee"],
                          scalars={"age": 30, "city": "newYork"},
                          sets={"vehicles": ["car1", "car2"]})
        """
        subject = self.lookup_name(name)
        for cls in classes:
            self.assert_isa(subject, self.lookup_name(cls))
        for method_name, value in (scalars or {}).items():
            self.assert_scalar(self.lookup_name(method_name), subject, (),
                               self.lookup_name(value))
        for method_name, values in (sets or {}).items():
            method = self.lookup_name(method_name)
            for value in values:
                self.assert_set_member(method, subject, (), self.lookup_name(value))
        return subject

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def clone(self) -> "Database":
        """A copy-on-write snapshot (what the engine evaluates on).

        Observably an independent copy: no later write to either side
        shows through the other, by any access path.  Physically only
        the *top-level* containers are copied (C-level, no re-hashing);
        every index bucket, mirror slice and the class hierarchy stay
        shared until the first write reaches them, and that write
        copies just what it is about to change (see
        :class:`~repro.oodb.methods._MethodTable` for the invariant).
        A clone therefore costs the same whatever the database holds
        per method or subject, and an evaluation pays for the buckets
        it derives into (:attr:`buckets_copied`), not for the ones it
        reads.

        The clone *carries* what this database already knows about its
        facts -- the int-surrogate mirrors and the cardinality catalog
        -- so they are built at most once per source version, however
        many clones are evaluated.  The change log and its holds are
        not carried.  Cloning writes nothing to ``self`` that a
        concurrent reader or a second concurrent ``clone()`` could
        observe, so readers sharing a quiescent database may each take
        their own.
        """
        copy = Database(indexed=self._indexed,
                        reflexive_isa=self.hierarchy.reflexive)
        copy._aliases = dict(self._aliases)
        copy._alias_version = self._alias_version
        copy._universe = set(self._universe)
        copy.hierarchy = self.hierarchy.clone()
        copy.scalars = self.scalars.clone()
        copy.sets = self.sets.clone()
        # Surrogates must be *stable* across clones: the engine evaluates
        # on a clone, and columnar plans compiled against the original
        # must agree with plans compiled against the copy.  The same
        # stability keeps the carried mirrors valid.
        copy._interner = self._interner.clone()
        copy.scalars.rebind_mirror(self._interner, copy._interner)
        copy.sets.rebind_mirror(self._interner, copy._interner)
        if self._catalog is not None:
            copy._catalog = self._catalog.copy()
            copy._catalog_version = self._catalog_version
            copy._catalog_touched = self._catalog_touched
        return copy

    @property
    def buckets_copied(self) -> int:
        """Copy-on-write copies this database has made since it was
        created or cloned: index buckets, mirror slices, the hierarchy."""
        return (self.scalars.buckets_copied + self.sets.buckets_copied
                + self.hierarchy.copied)

    def virtual_count(self) -> int:
        """Number of virtual objects currently in the universe."""
        return sum(1 for oid in self._universe if isinstance(oid, VirtualOid))

    def __repr__(self) -> str:
        return (f"Database(|U|={len(self._universe)}, "
                f"isa={len(self.hierarchy)}, "
                f"scalar={len(self.scalars)}, set={len(self.sets)})")
