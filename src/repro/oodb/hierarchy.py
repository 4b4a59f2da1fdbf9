"""The class relation ``in_U``: a partial order between objects.

The paper folds class membership and the subclass order into one
relation: "the class hierarchy ``in_U subseteq U x U`` is a partial
order telling us how objects are related to classes".  Objects denote
classes too, so ``p1 in_U employee`` (membership) and
``automobile in_U vehicle`` (specialisation) are edges of the same
relation, and transitivity gives ``car1 in_U vehicle`` from
``car1 in_U automobile``.

We store the *declared* edges and answer queries on their transitive
closure.  Two deliberate engineering choices, both documented because
they slightly refine the paper's one-line description:

- **Antisymmetry is enforced**: declaring an edge that would close a
  cycle raises :class:`~repro.errors.HierarchyError`, keeping the
  relation a (strict) partial order.
- **Reflexivity is configurable** (``reflexive=False`` by default).  The
  mathematical partial order is reflexive, but queries such as
  ``X : employee`` are meant to range over *proper* members; with
  reflexivity on, every class would be a member of itself.  Tests cover
  both modes.

Reachability is computed by DFS over the declared edges and memoised;
any mutation invalidates the memo.

A :meth:`ClassHierarchy.clone` shares the edge dicts *and* the memo
with its source until either side's first isa write, which copies the
whole structure once (most evaluations never write an isa fact).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import PathLogError
from repro.oodb.oid import Oid


class HierarchyError(PathLogError):
    """Declaring this edge would violate the partial order (a cycle)."""


class ClassHierarchy:
    """Declared ``in_U`` edges plus transitive-closure queries."""

    def __init__(self, *, reflexive: bool = False) -> None:
        self._up: dict[Oid, set[Oid]] = {}
        self._down: dict[Oid, set[Oid]] = {}
        self._reflexive = reflexive
        self._ancestors_memo: dict[Oid, frozenset[Oid]] = {}
        self._descendants_memo: dict[Oid, frozenset[Oid]] = {}
        #: Bumped on every successful mutation (planner cache key).
        self.version = 0
        #: True while the four dicts above may be shared with a clone
        #: (or a source): readers may fill the memo, nobody may edit.
        self._shared = False
        #: Whole-structure copies made by a first write after a clone.
        self.copied = 0

    # -- mutation -----------------------------------------------------------

    def declare(self, member: Oid, cls: Oid) -> bool:
        """Declare ``member in_U cls``; return False if already implied.

        Raises :class:`HierarchyError` when the new edge would create a
        cycle (including the degenerate ``member == cls``).
        """
        if member == cls:
            raise HierarchyError(f"{member} in_U {member} would be a cycle")
        if cls in self._up.get(member, ()):
            return False
        if self.isa(cls, member):
            raise HierarchyError(
                f"declaring {member} in_U {cls} closes a cycle: "
                f"{cls} already reaches {member}"
            )
        self._begin_write()
        self._up.setdefault(member, set()).add(cls)
        self._down.setdefault(cls, set()).add(member)
        return True

    def remove(self, member: Oid, cls: Oid) -> bool:
        """Remove a declared edge; return False if it was not declared."""
        if cls not in self._up.get(member, ()):
            return False
        self._begin_write()
        self._up[member].discard(cls)
        self._down[cls].discard(member)
        return True

    def _begin_write(self) -> None:
        """Make the edges private and drop the memo, before an edit."""
        self.version += 1
        if self._shared:
            self._up = {k: set(v) for k, v in self._up.items()}
            self._down = {k: set(v) for k, v in self._down.items()}
            self._ancestors_memo = {}
            self._descendants_memo = {}
            self._shared = False
            self.copied += 1
        else:
            self._ancestors_memo.clear()
            self._descendants_memo.clear()

    # -- queries ------------------------------------------------------------

    @property
    def reflexive(self) -> bool:
        """Whether ``o in_U o`` holds for every object."""
        return self._reflexive

    def isa(self, obj: Oid, cls: Oid) -> bool:
        """True iff ``obj in_U cls`` under the transitive closure."""
        if obj == cls:
            return self._reflexive
        return cls in self.ancestors(obj)

    def ancestors(self, obj: Oid) -> frozenset[Oid]:
        """All classes strictly above ``obj`` (transitive, irreflexive)."""
        memo = self._ancestors_memo.get(obj)
        if memo is None:
            memo = frozenset(self._reach(obj, self._up))
            self._ancestors_memo[obj] = memo
        return memo

    def descendants(self, cls: Oid) -> frozenset[Oid]:
        """All objects strictly below ``cls`` (its transitive instances)."""
        memo = self._descendants_memo.get(cls)
        if memo is None:
            memo = frozenset(self._reach(cls, self._down))
            self._descendants_memo[cls] = memo
        return memo

    def members(self, cls: Oid) -> frozenset[Oid]:
        """Objects ``o`` with ``o in_U cls`` (adds ``cls`` when reflexive)."""
        below = self.descendants(cls)
        if self._reflexive:
            return below | {cls}
        return below

    def classes_of(self, obj: Oid) -> frozenset[Oid]:
        """Classes ``c`` with ``obj in_U c`` (adds ``obj`` when reflexive)."""
        above = self.ancestors(obj)
        if self._reflexive:
            return above | {obj}
        return above

    def declared_edges(self) -> Iterator[tuple[Oid, Oid]]:
        """All declared ``(member, cls)`` edges, unordered."""
        for member, sups in self._up.items():
            for cls in sups:
                yield (member, cls)

    def declared_parents(self, obj: Oid) -> frozenset[Oid]:
        """The directly declared classes of ``obj``."""
        return frozenset(self._up.get(obj, ()))

    def declared_children(self, cls: Oid) -> frozenset[Oid]:
        """The directly declared members/subclasses of ``cls``."""
        return frozenset(self._down.get(cls, ()))

    def objects(self) -> frozenset[Oid]:
        """Every object mentioned by a declared edge."""
        return frozenset(self._up) | frozenset(self._down)

    def __len__(self) -> int:
        return sum(len(sups) for sups in self._up.values())

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _reach(start: Oid, adjacency: dict[Oid, set[Oid]]) -> set[Oid]:
        seen: set[Oid] = set()
        stack = list(adjacency.get(start, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency.get(node, ()))
        return seen

    def clone(self) -> "ClassHierarchy":
        """A copy-on-write copy: same declared edges, same version.

        O(1): the clone shares the edge dicts and the reachability memo
        (both sides have the same edges, so either may fill it) until
        the first ``declare``/``remove`` on either side copies the
        structure for the writer.  The only write to ``self`` is the
        idempotent ``_shared`` flag.

        Carrying the version over keeps a clone's contribution to
        ``Database.data_version()`` aligned with its source, so caches
        keyed on that value cannot collide with entries computed for a
        different set of edges.
        """
        copy = ClassHierarchy(reflexive=self._reflexive)
        copy._up = self._up
        copy._down = self._down
        copy._ancestors_memo = self._ancestors_memo
        copy._descendants_memo = self._descendants_memo
        copy.version = self.version
        self._shared = copy._shared = True
        return copy
