"""Semi-naive deltas: one round's new facts and the positions they seed.

:class:`DeltaIndex` holds what one round derived -- boxed realizer-log
entries and the int-native emitter's surrogate columns -- partitioned
by ``(kind, method)``; :class:`SeedIndex`, built once per stratum, maps
each bucket to the rule body positions that can read it.  The engine's
fixpoint and the maintainer's passes both fire only what a round's
delta can seed.
"""

from __future__ import annotations

from repro.core.ast import Var
from repro.engine.normalize import NormalizedRule
from repro.flogic.atoms import ScalarAtom, SetMemberAtom
from repro.oodb.database import Database
from repro.oodb.oid import OidInterner

_KINDS = {ScalarAtom: "scalar", SetMemberAtom: "set"}


class DeltaIndex:
    """One round's new facts, by ``(kind, method)`` bucket.

    The round is written while it runs and read as the next round's
    delta.  Two kinds of writer share it:

    - boxed realizer paths (:class:`~repro.engine.heads.HeadRealizer`
      and its compiled column programs) :meth:`append`
      realizer-log entries -- ``("scalar", m, s, args, r)``,
      ``("set", m, s, args, r)``, ``("isa", o, c)`` -- to a plain list;
    - the int-native emitter records each batch's new surrogate columns
      with :meth:`append_columns`, filed under its bucket at once: no
      container per fact.

    Readers take what they need: :meth:`keys` and :attr:`has_isa`
    (which positions fire), :meth:`int_bucket` (the hot seed; a bucket
    holding one batch and nothing else *is* that batch's columns), and
    :meth:`bucket` / :meth:`boxed` (generic and variable-method seeds,
    the interpreted oracle -- int batches are boxed on demand, in
    emission order).  Boxed entries are partitioned on the first read
    that needs them; a round of int batches alone is never partitioned.
    """

    __slots__ = ("interner", "append", "_boxed", "_batches", "_by_key",
                 "_rows", "_parted", "_has_isa", "_views")

    def __init__(self, entries=(), interner: OidInterner | None = None
                 ) -> None:
        #: Resolves and interns between the two representations.
        self.interner = interner
        self._boxed: list[tuple] = list(entries)
        #: Record one boxed realizer-log entry (a C-level list append).
        self.append = self._boxed.append
        #: ``(at, kind, method, subjects, results)`` per batch, in
        #: order; ``at`` counts the boxed entries appended before it.
        self._batches: list[tuple] = []
        self._by_key: dict = {}  # (kind, method) -> its batches
        self._rows = 0  # facts in batches
        self._parted: dict | None = None  # boxed entries by bucket
        self._has_isa = False
        self._views: dict | None = None  # built bucket views

    def append_columns(self, kind: str, method, subjects: list[int],
                       results: list[int]) -> None:
        """Record one int-native batch of new facts: the non-empty
        columns a :meth:`~repro.oodb.methods._MethodTable.int_writer`
        returned (kept, not copied)."""
        batch = (len(self._boxed), kind, method, subjects, results)
        self._batches.append(batch)
        key = (kind, method)
        found = self._by_key.get(key)
        if found is None:
            self._by_key[key] = [batch]
        else:
            found.append(batch)
        self._rows += len(subjects)

    def __len__(self) -> int:
        """New facts in the round."""
        return len(self._boxed) + self._rows

    def counts(self) -> dict[str, int]:
        """New facts per kind (``scalar``, ``set``, ``isa``), unboxed."""
        counts = {"scalar": 0, "set": 0, "isa": 0}
        for entry in self._boxed:
            counts[entry[0]] += 1
        for batch in self._batches:
            counts[batch[1]] += len(batch[3])
        return counts

    def _partition(self) -> dict:
        parted = self._parted
        if parted is None:
            parted = self._parted = {}
            for entry in self._boxed:
                key = (entry[0], entry[1])
                found = parted.get(key)
                if found is None:
                    parted[key] = [entry]
                else:
                    found.append(entry)
            self._has_isa = any(kind == "isa" for kind, _ in parted)
        return parted

    def keys(self):
        """The ``(kind, method)`` buckets holding new facts."""
        if not self._boxed:
            return self._by_key.keys()
        return self._partition().keys() | self._by_key.keys()

    @property
    def has_isa(self) -> bool:
        """Whether the round derived class memberships."""
        if not self._boxed:
            return False
        self._partition()
        return self._has_isa

    def boxed(self) -> list[tuple]:
        """Every new fact as a realizer-log entry, in emission order."""
        if not self._batches:
            return self._boxed
        return self._view("boxed", None)

    def bucket(self, kind: str, method) -> list:
        """Boxed entries of one ``(kind, method)`` bucket (all argument
        arities), in emission order."""
        key = (kind, method)
        if key in self._by_key:
            return self._view("boxed", key)
        return self._partition().get(key, ()) if self._boxed else ()

    def int_bucket(self, kind: str, method) -> tuple[list, list]:
        """``(subjects, results)`` surrogate columns of one bucket's
        parameterless facts, in emission order."""
        key = (kind, method)
        if not self._boxed or key not in self._partition():
            batches = self._by_key.get(key)
            if batches is None:
                return [], []
            if len(batches) == 1:
                batch = batches[0]
                return batch[3], batch[4]
        return self._view("int", key)

    def _view(self, form: str, key) -> list | tuple:
        views = self._views
        if views is None:
            views = self._views = {}
        found = views.get((form, key))
        if found is None:
            if form == "int":
                intern = self.interner.intern
                subjects: list[int] = []
                results: list[int] = []
                for batch, entry in self._in_order(key):
                    if batch is not None:
                        subjects += batch[3]
                        results += batch[4]
                    elif not entry[3]:
                        subjects.append(intern(entry[2]))
                        results.append(intern(entry[4]))
                found = (subjects, results)
            else:
                resolver = self.interner.resolver()
                found = []
                for batch, entry in self._in_order(key):
                    if batch is None:
                        found.append(entry)
                    else:
                        _, kind, method, subjects, results = batch
                        found += [(kind, method, resolver[s], (), resolver[r])
                                  for s, r in zip(subjects, results)]
            views[(form, key)] = found
        return found

    def _in_order(self, key):
        """``(batch, entry)`` pairs, one side None, of one bucket (of
        the whole round when ``key`` is None), in emission order."""
        batches = (self._batches if key is None
                   else self._by_key.get(key, ()))
        if key is not None and not batches:
            for entry in self._partition().get(key, ()):
                yield None, entry
            return
        if key is not None and (not self._boxed
                                or key not in self._partition()):
            for batch in batches:
                yield batch, None
            return
        rest = iter(batches)
        batch = next(rest, None)
        for index, entry in enumerate(self._boxed):
            while batch is not None and batch[0] <= index:
                yield batch, None
                batch = next(rest, None)
            if key is None or (entry[0], entry[1]) == key:
                yield None, entry
        while batch is not None:
            yield batch, None
            batch = next(rest, None)


class SeedIndex:
    """For a rule list: ``(kind, method)`` -> ``[(rule index, positions)]``.

    Constant methods are resolved once, through
    :meth:`~repro.oodb.database.Database.denotes` (no name is registered
    in the universe); a position with a variable method can read any
    bucket, so every round fires it.
    """

    __slots__ = ("_by_bucket", "_always")

    def __init__(self, db: Database, rules: list[NormalizedRule]) -> None:
        self._by_bucket: dict = {}
        self._always: list[tuple[int, list[int]]] = []
        for index, rule in enumerate(rules):
            for position, atom in enumerate(rule.body):
                kind = _KINDS.get(type(atom))
                if kind is None:
                    continue
                if isinstance(atom.method, Var):
                    groups = self._always
                else:
                    key = (kind, db.denotes(atom.method.value))
                    groups = self._by_bucket.setdefault(key, [])
                if groups and groups[-1][0] == index:
                    groups[-1][1].append(position)
                else:
                    groups.append((index, [position]))

    def plan(self, delta: DeltaIndex, full: frozenset = frozenset()
             ) -> list[tuple[int, list[int] | None]]:
        """``(rule index, seeded positions)`` for one round, in rule order.

        Rules in ``full`` come with ``None`` (evaluate them whole); any
        other rule only when ``delta`` seeds one of its positions.  The
        position lists are shared: callers only read them.
        """
        hits = [groups for groups in map(self._by_bucket.get, delta.keys())
                if groups is not None]
        if self._always:
            hits.append(self._always)
        if len(hits) == 1 and not full:
            return hits[0]  # one bucket: already in order
        seeded: dict[int, list[int]] = {}
        for groups in hits:
            for index, positions in groups:
                seeded.setdefault(index, []).extend(positions)
        return [(index, None if index in full else sorted(seeded[index]))
                for index in sorted(full.union(seeded))]

