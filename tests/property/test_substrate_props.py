"""Substrate properties: hierarchy laws, serialisation round-trips, and
clone isolation through every access path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PathLogError
from repro.oodb.hierarchy import ClassHierarchy
from repro.oodb.oid import NamedOid
from repro.oodb.serialize import dumps, loads
from repro.oodb.statistics import CardinalityCatalog
from tests.property.strategies import (
    apply_mutation,
    databases,
    mutation_sequences,
)

pytestmark = pytest.mark.property


def n(value):
    return NamedOid(value)


edge_lists = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    max_size=16,
)


@given(edges=edge_lists)
@settings(max_examples=150)
def test_hierarchy_stays_a_strict_partial_order(edges):
    h = ClassHierarchy()
    for low, high in edges:
        try:
            h.declare(n(low), n(high))
        except PathLogError:
            pass  # cycle rejected -- that's the invariant at work
    objects = h.objects()
    for a in objects:
        # irreflexive
        assert not h.isa(a, a)
        for b in h.ancestors(a):
            # antisymmetric
            assert not h.isa(b, a)
            # transitive: ancestors of ancestors are ancestors
            assert h.ancestors(b) <= h.ancestors(a)


@given(edges=edge_lists)
@settings(max_examples=100)
def test_members_and_ancestors_are_converses(edges):
    h = ClassHierarchy()
    for low, high in edges:
        try:
            h.declare(n(low), n(high))
        except PathLogError:
            pass
    for obj in h.objects():
        for cls in h.ancestors(obj):
            assert obj in h.descendants(cls)


@given(db=databases())
@settings(max_examples=80, deadline=None)
def test_serialise_round_trip(db):
    text = dumps(db)
    restored = loads(text)
    assert dumps(restored) == text
    assert restored.universe() == db.universe()
    assert dict(restored.scalars.items()) == dict(db.scalars.items())
    assert dict(restored.sets.items()) == dict(db.sets.items())


@given(db=databases())
@settings(max_examples=50, deadline=None)
def test_clone_equals_original(db):
    assert dumps(db.clone()) == dumps(db)


# -- clone isolation -----------------------------------------------------


def _mirror_state(view):
    """A surrogate mirror as plain data (resolved, order-free; buckets
    emptied by retractions are dropped, a rebuilt mirror has none)."""
    resolve = view.interner.resolve

    def bucket_state(bucket, value_state):
        return {resolve(key): value_state(value)
                for key, value in bucket.items() if value != set()}

    def by_method(index, value_state):
        state = {resolve(m): bucket_state(bucket, value_state)
                 for m, bucket in index.items()}
        return {m: bucket for m, bucket in state.items() if bucket}

    return {
        "apps": by_method(
            view.apps,
            lambda r: (resolve(r) if isinstance(r, int)
                       else frozenset(map(resolve, r)))),
        "inverse": by_method(view.inverse, sorted),
        "sorted": {resolve(m): pair for m in list(view.inverse)
                   for pair in [tuple(map(list, view.sorted_inverse(m)))]
                   if pair[0]},
    }


def _access_paths(db):
    """Everything a clone copies, read through each structure itself:
    primary dicts, the three secondary indexes of both tables, the int
    mirrors, the catalog, and the surrounding hierarchy/universe."""
    scalars, sets = db.scalars, db.sets
    state = {
        "universe": db.universe(),
        "isa": set(db.hierarchy.declared_edges()),
        "versions": (scalars.version, sets.version, db.data_version()),
        "scalar._facts": dict(scalars.primary_view()),
        "scalar.by_method": {
            m: dict(b) for m, b in scalars.by_method_view().items() if b},
        "scalar.by_method_result": {
            k: set(v)
            for k, v in scalars.by_method_result_view().items() if v},
        "scalar.by_subject": {
            s: dict(b) for s, b in scalars.by_subject_view().items() if b},
        "set._facts": {k: set(b) for k, b in sets.primary_view().items()},
        "set.by_method": {
            m: {k: set(b) for k, b in apps.items()}
            for m, apps in sets.by_method_view().items()},
        "set.by_method_member": {
            k: set(v)
            for k, v in sets.by_method_member_view().items() if v},
        "set.by_subject": {
            s: {k: set(b) for k, b in apps.items()}
            for s, apps in sets.by_subject_view().items()},
        "scalar.mirror": _mirror_state(scalars.surrogate_view(db.interner)),
        "set.mirror": _mirror_state(sets.surrogate_view(db.interner)),
    }
    catalog = db._catalog
    state["catalog"] = {
        name: (dict(value) if isinstance(value, dict) else value)
        for name in catalog.__slots__
        for value in [getattr(catalog, name)]}
    return state


def _queue_mirror_first_writes(db, tag):
    """Leave ``_pending`` back-fills on both tables (what a columnar
    head emitter does): new facts of fresh methods, so no conflicts."""
    subjects = sorted(db.universe(), key=str)[:3]
    for table, name in ((db.scalars, f"{tag}_scalar"),
                        (db.sets, f"{tag}_set")):
        method = db.obj(name)
        table.surrogate_view(db.interner)
        write = table.int_writer(method, db.intern(method))
        for subject in subjects:
            assert write(db.intern(subject), db.intern(subjects[0]))
    return bool(subjects)


@given(db=databases(), on_source=mutation_sequences(),
       on_clone=mutation_sequences(), pending=st.booleans(),
       logged=st.booleans())
@settings(max_examples=120, deadline=None)
def test_clone_is_isolated_through_every_access_path(
        db, on_source, on_clone, pending, logged):
    if logged:
        db.begin_changes()
    db.scalars.surrogate_view(db.interner)
    db.sets.surrogate_view(db.interner)
    db.catalog()
    if pending and _queue_mirror_first_writes(db, "src"):
        assert db.scalars._pending and db.sets._pending
        db.catalog_moved({("scalar", "src_scalar"), ("set", "src_set")})
    clone = db.clone()
    assert clone.scalars._surrogates is not db.scalars._surrogates
    assert clone._catalog is not db._catalog
    source_state = _access_paths(db)
    assert _access_paths(clone) == source_state

    # Writes to the source -- boxed and mirror-first -- never show in
    # the clone; a log-synced source catalog is patched in place.
    for op in on_source:
        apply_mutation(db, op)
    _queue_mirror_first_writes(db, "late")
    db.catalog()
    assert _access_paths(clone) == source_state

    # ... and the other way round, with the clone's own back-fills
    # still queued while the source is read.
    moved_source = _access_paths(db)
    for op in on_clone:
        apply_mutation(clone, op)
    _queue_mirror_first_writes(clone, "cloned")
    assert _access_paths(db) == moved_source

    # Each side's carried structures still describe its own facts.
    for side in (db, clone):
        side.scalars.sync()
        side.sets.sync()
        rebuilt = side.clone()
        rebuilt.scalars._surrogates = rebuilt.sets._surrogates = None
        assert (_mirror_state(side.scalars.surrogate_view(side.interner))
                == _mirror_state(
                    rebuilt.scalars.surrogate_view(rebuilt.interner)))
        assert (_mirror_state(side.sets.surrogate_view(side.interner))
                == _mirror_state(
                    rebuilt.sets.surrogate_view(rebuilt.interner)))
        if side.scalars.indexed:
            exact = CardinalityCatalog.build(side)
            catalog = side.catalog()
            assert all(getattr(catalog, name) == getattr(exact, name)
                       for name in ("scalar_total", "set_total",
                                    "isa_edges", "universe"))
