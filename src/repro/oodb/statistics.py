"""Shape and size statistics of a database.

Two layers live here:

- :class:`DatabaseStats` / :func:`collect` -- a one-line size snapshot
  (one row in the bench reports);
- :class:`CardinalityCatalog` -- the per-method cardinality statistics
  (fact counts, distinct subjects, distinct results, isa fan-out) that
  drive the cost-based query planner in :mod:`repro.engine.planner`.

The catalog is an O(|facts|) scan; :meth:`repro.oodb.database.Database.catalog`
caches it keyed on the database's data version, so repeated planning is
free until facts change.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.oodb.database import Database
from repro.oodb.oid import Oid, VirtualOid


@dataclass(frozen=True, slots=True)
class DatabaseStats:
    """A snapshot of database size: one row in the bench reports."""

    universe: int
    virtual_objects: int
    isa_edges: int
    scalar_facts: int
    set_memberships: int
    set_applications: int
    scalar_methods: int
    set_methods: int

    def as_row(self) -> dict[str, int]:
        """Dict form for tabular printing."""
        return {
            "|U|": self.universe,
            "virtual": self.virtual_objects,
            "isa": self.isa_edges,
            "scalar": self.scalar_facts,
            "set": self.set_memberships,
            "set-apps": self.set_applications,
        }


@dataclass(frozen=True, slots=True)
class MethodCard:
    """Cardinalities of one method's stored graph.

    ``facts`` counts scalar facts or set *memberships*; ``apps`` counts
    distinct ``(method, subject, args)`` applications (equal to ``facts``
    for scalar methods); ``subjects`` and ``results`` count distinct
    values at those positions.
    """

    facts: int
    apps: int
    subjects: int
    results: int

    @property
    def per_subject(self) -> float:
        """Average facts yielded once the subject is fixed."""
        return self.facts / max(1, self.subjects)

    @property
    def per_result(self) -> float:
        """Average facts yielded once the result is fixed."""
        return self.facts / max(1, self.results)


class CardinalityCatalog:
    """Per-method and isa cardinalities of one database snapshot.

    Built by one scan over the stored facts; the planner combines these
    statistics with exact index bucket sizes (when a method *and* a
    name-constant result are known) to estimate how many rows each atom
    of a conjunction will yield.
    """

    __slots__ = (
        "universe", "scalar", "sets", "scalar_total", "set_total",
        "set_apps_total", "scalar_subjects", "set_subjects",
        "isa_edges", "isa_members", "isa_classes",
    )

    def __init__(self) -> None:
        self.universe = 0
        self.scalar: dict[Oid, MethodCard] = {}
        self.sets: dict[Oid, MethodCard] = {}
        self.scalar_total = 0
        self.set_total = 0
        self.set_apps_total = 0
        self.scalar_subjects = 0
        self.set_subjects = 0
        self.isa_edges = 0
        self.isa_members = 0
        self.isa_classes = 0

    @classmethod
    def build(cls, db: Database) -> "CardinalityCatalog":
        """Scan ``db`` once and compute every statistic."""
        catalog = cls()
        catalog.universe = len(db)

        per_method: dict[Oid, list] = {}
        all_subjects: set[Oid] = set()
        for (method, subject, _args), result in db.scalars.items():
            entry = per_method.setdefault(method, [0, set(), set()])
            entry[0] += 1
            entry[1].add(subject)
            entry[2].add(result)
            all_subjects.add(subject)
        for method, (facts, subjects, results) in per_method.items():
            catalog.scalar[method] = MethodCard(
                facts=facts, apps=facts,
                subjects=len(subjects), results=len(results),
            )
            catalog.scalar_total += facts
        catalog.scalar_subjects = len(all_subjects)

        per_method.clear()
        all_subjects = set()
        for (method, subject, _args), members in db.sets.items():
            entry = per_method.setdefault(method, [0, 0, set(), set()])
            entry[0] += len(members)
            entry[1] += 1
            entry[2].add(subject)
            entry[3].update(members)
            all_subjects.add(subject)
        for method, (facts, apps, subjects, members) in per_method.items():
            catalog.sets[method] = MethodCard(
                facts=facts, apps=apps,
                subjects=len(subjects), results=len(members),
            )
            catalog.set_total += facts
            catalog.set_apps_total += apps
        catalog.set_subjects = len(all_subjects)

        catalog._count_isa(db)
        return catalog

    def copy(self) -> "CardinalityCatalog":
        """An independent copy (what :meth:`Database.clone` carries)."""
        copy = CardinalityCatalog()
        for name in self.__slots__:
            setattr(copy, name, getattr(self, name))
        copy.scalar = dict(self.scalar)
        copy.sets = dict(self.sets)
        return copy

    def recount(self, db: Database, touched) -> None:
        """Make the catalog exact again after facts of ``touched`` moved.

        ``touched`` holds ``("scalar" | "set" | "isa", method)`` pairs
        (the method of an ``"isa"`` pair is ignored): the only
        predicates whose stored facts differ from what this catalog
        describes (a fixpoint run knows them from its rule heads).
        Each touched method is recounted from its index bucket and the
        totals are re-derived, so the cost follows the touched
        predicates' size, not the database's, and the result equals
        :meth:`build` on the same database.
        """
        self.universe = len(db)
        scalar_apps = db.scalars.by_method_view()
        set_apps = db.sets.by_method_view()
        for kind, method in touched:
            if kind == "scalar":
                bucket = scalar_apps.get(method)
                if bucket:
                    self.scalar[method] = MethodCard(
                        facts=len(bucket), apps=len(bucket),
                        subjects=len({key[1] for key in bucket}),
                        results=len(set(bucket.values())))
                else:
                    self.scalar.pop(method, None)
            elif kind == "set":
                apps = set_apps.get(method)
                if apps:
                    self.sets[method] = MethodCard(
                        facts=sum(map(len, apps.values())), apps=len(apps),
                        subjects=len({key[1] for key in apps}),
                        results=len(set().union(*apps.values())))
                else:
                    self.sets.pop(method, None)
            else:
                self._count_isa(db)
        self.scalar_total = sum(c.facts for c in self.scalar.values())
        self.set_total = sum(c.facts for c in self.sets.values())
        self.set_apps_total = sum(c.apps for c in self.sets.values())
        self.scalar_subjects = len(db.scalars.by_subject_view())
        self.set_subjects = len(db.sets.by_subject_view())

    def _count_isa(self, db: Database) -> None:
        members_seen: set[Oid] = set()
        classes_seen: set[Oid] = set()
        edges = 0
        for member, cls_oid in db.hierarchy.declared_edges():
            edges += 1
            members_seen.add(member)
            classes_seen.add(cls_oid)
        self.isa_edges = edges
        self.isa_members = len(members_seen)
        self.isa_classes = len(classes_seen)

    # -- incremental patching (change-log replay) ---------------------------

    def apply(self, entries, db: Database) -> None:
        """Patch the catalog from change-log entries instead of rebuilding.

        ``entries`` is a sequence of ``("+"/"-", fact)`` pairs in
        :class:`~repro.oodb.database.ChangeLog` shape that lead up to
        the current state of ``db``.  Fact counts, per-kind totals, and
        isa edge counts adjust exactly, and a method whose last fact
        was retracted loses its card, as in a rebuild.  The application
        and subject counts are read off the live index sizes (a fully
        retracted application or subject has no bucket left), so they
        are exact too.  The per-method
        *distinct* subject/result counts stay as built (maintaining
        them exactly would need per-method value multisets), which only
        skews the planner's per-subject/per-result averages slightly --
        these are estimates, and the exact index bucket sizes the
        planner prefers are read live from the tables anyway.
        """
        for sign, fact in entries:
            step = 1 if sign == "+" else -1
            kind = fact[0]
            if kind == "scalar":
                self._bump(self.scalar, fact[1], step, scalar=True)
                self.scalar_total = max(0, self.scalar_total + step)
            elif kind == "set":
                self._bump(self.sets, fact[1], step, scalar=False,
                           live_apps=db.sets.count_method_apps(fact[1]))
                self.set_total = max(0, self.set_total + step)
            else:  # isa
                self.isa_edges = max(0, self.isa_edges + step)
        self.universe = len(db)
        self.set_apps_total = sum(c.apps for c in self.sets.values())
        self.scalar_subjects = len(db.scalars.by_subject_view())
        self.set_subjects = len(db.sets.by_subject_view())

    @staticmethod
    def _bump(table: dict, method: Oid, step: int, *, scalar: bool,
              live_apps: int = 0) -> None:
        from dataclasses import replace

        card = table.get(method)
        facts = (card.facts if card is not None else 0) + step
        if facts <= 0:
            table.pop(method, None)
            return
        if card is None:
            card = MethodCard(facts=0, apps=1, subjects=1, results=1)
        # One application per scalar fact; a set method's count is read
        # live from its index (a membership delta alone does not say
        # whether it opened or closed one).
        apps = facts if scalar else live_apps
        table[method] = replace(card, facts=facts, apps=apps)

    # -- derived averages ---------------------------------------------------

    @property
    def avg_classes_per_object(self) -> float:
        """Mean declared classes of an object that has any."""
        return self.isa_edges / max(1, self.isa_members)

    @property
    def avg_scalar_facts_per_subject(self) -> float:
        """Mean scalar facts stored on a subject, over all methods."""
        return self.scalar_total / max(1, self.scalar_subjects)

    @property
    def avg_set_facts_per_subject(self) -> float:
        """Mean set memberships stored on a subject, over all methods."""
        return self.set_total / max(1, self.set_subjects)


def collect(db: Database) -> DatabaseStats:
    """Compute the statistics of ``db``."""
    return DatabaseStats(
        universe=len(db),
        virtual_objects=sum(
            1 for oid in db.universe() if isinstance(oid, VirtualOid)
        ),
        isa_edges=len(db.hierarchy),
        scalar_facts=len(db.scalars),
        set_memberships=len(db.sets),
        set_applications=db.sets.applications(),
        scalar_methods=len(db.scalars.methods()),
        set_methods=len(db.sets.methods()),
    )
