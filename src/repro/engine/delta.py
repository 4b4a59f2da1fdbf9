"""Semi-naive deltas: one round's partition and the positions it seeds.

:class:`DeltaIndex` partitions a round's realizer log by ``(kind,
method)``; :class:`SeedIndex`, built once per stratum, maps each bucket
to the rule body positions that can read it.  The engine's fixpoint and
the maintainer's passes both fire only what a round's delta can seed.
"""

from __future__ import annotations

from repro.core.ast import Var
from repro.engine.normalize import NormalizedRule
from repro.flogic.atoms import ScalarAtom, SetMemberAtom
from repro.oodb.database import Database

_KINDS = {ScalarAtom: "scalar", SetMemberAtom: "set"}


class DeltaIndex:
    """A realizer log partitioned by ``(kind, method)``, once per round.

    Each seeded position reads only its own bucket, and the same
    partition says whether the round derived class memberships.
    """

    __slots__ = ("entries", "buckets", "has_isa")

    def __init__(self, entries: list) -> None:
        self.entries = entries
        buckets: dict = {}
        for entry in entries:
            key = (entry[0], entry[1])
            found = buckets.get(key)
            if found is None:
                buckets[key] = [entry]
            else:
                found.append(entry)
        self.buckets = buckets
        self.has_isa = any(kind == "isa" for kind, _ in buckets)

    def bucket(self, kind: str, method) -> list:
        """Entries of one ``(kind, method)`` pair (all argument arities)."""
        return self.buckets.get((kind, method), ())


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
        hits = [groups for groups in map(self._by_bucket.get, delta.buckets)
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

