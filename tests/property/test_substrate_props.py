"""Substrate properties: hierarchy laws, serialisation round-trips,
clone isolation through every access path, and the change-entry apply
path (``apply_entry`` / ``apply_batch`` / ``rollback_changes``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PathLogError
from repro.oodb.database import Database
from repro.oodb.hierarchy import ClassHierarchy
from repro.oodb.oid import NamedOid
from repro.oodb.serialize import dumps, loads, to_dict
from repro.oodb.statistics import CardinalityCatalog
from tests.property.strategies import (
    NAME_POOL,
    apply_mutation,
    databases,
    mutation_ops,
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
#
# A clone shares every inner bucket with its source until one side
# writes to it, so "a write to X shows in nobody else" has to hold for
# every structure of every relative.  The states below are read from
# the structures themselves, *without* draining a pending back-fill:
# a queued mirror-first insert must stay queued, on its own side, while
# the relatives are written.


def _mirror_state(view):
    """A surrogate mirror as plain data (resolved, order-free)."""
    resolve = view.interner.resolve

    def by_method(index, value_state):
        state = {resolve(m): {resolve(key): value_state(value)
                              for key, value in bucket.items()}
                 for m, bucket in index.items()}
        return {m: bucket for m, bucket in state.items() if bucket}

    return {
        "apps": by_method(
            view.apps,
            lambda r: (resolve(r) if isinstance(r, int)
                       else frozenset(map(resolve, r)))),
        "inverse": by_method(view.inverse, sorted),
        # (Subjects within one result's run come in insertion order.)
        "sorted": {resolve(m): (list(keys), sorted(zip(keys, subjects)))
                   for m in list(view.inverse)
                   for keys, subjects in [view.sorted_inverse(m)] if keys},
    }


def _access_paths(db):
    """Everything a clone shares or copies, read through each structure
    itself: primary dicts, the three secondary indexes of both tables,
    pending back-fills, the int mirrors, the catalog, and the
    surrounding hierarchy/universe."""
    scalars, sets = db.scalars, db.sets
    state = {
        "universe": db.universe(),
        "isa": set(db.hierarchy.declared_edges()),
        "isa.closure": {o: (db.hierarchy.ancestors(o),
                            db.hierarchy.descendants(o))
                        for o in db.hierarchy.objects()},
        "versions": (scalars.version, sets.version, db.data_version()),
        "pending": (list(scalars._pending), list(sets._pending)),
        "scalar._facts": dict(scalars._facts),
        "scalar.by_method": {
            m: dict(b) for m, b in scalars._by_method.items()},
        "scalar.by_method_result": {
            k: set(v) for k, v in scalars._by_method_result.items()},
        "scalar.by_subject": {
            s: dict(b) for s, b in scalars._by_subject.items()},
        "set._facts": {k: set(b) for k, b in sets._facts.items()},
        "set.by_method": {
            m: {k: set(b) for k, b in apps.items()}
            for m, apps in sets._by_method.items()},
        "set.by_method_member": {
            k: set(v) for k, v in sets._by_method_member.items()},
        "set.by_subject": {
            s: {k: set(b) for k, b in apps.items()}
            for s, apps in sets._by_subject.items()},
        "scalar.mirror": _mirror_state(scalars._surrogates),
        "set.mirror": _mirror_state(sets._surrogates),
    }
    catalog = db._catalog
    state["catalog"] = {
        name: (dict(value) if isinstance(value, dict) else value)
        for name in catalog.__slots__
        for value in [getattr(catalog, name)]}
    return state


def _assert_coherent(db):
    """``db``'s structures describe one set of facts: the indexes are
    what a scan of the primary dicts gives (no emptied bucket left
    behind), a membership set is one object however it is reached, and
    the carried mirrors and catalog match a rebuild."""
    _sync(db)
    scalars, sets = db.scalars, db.sets
    assert all(sets._facts.values())
    by_method, by_pair, by_subject = {}, {}, {}
    for key, result in scalars._facts.items():
        by_method.setdefault(key[0], {})[key] = result
        by_pair.setdefault((key[0], result), set()).add(key)
        by_subject.setdefault(key[1], {})[key] = result
    assert scalars._by_method == by_method
    assert scalars._by_method_result == by_pair
    assert scalars._by_subject == by_subject
    by_method, by_pair, by_subject = {}, {}, {}
    for key, members in sets._facts.items():
        by_method.setdefault(key[0], {})[key] = members
        by_subject.setdefault(key[1], {})[key] = members
        assert sets._by_method[key[0]][key] is members
        assert sets._by_subject[key[1]][key] is members
        for member in members:
            by_pair.setdefault((key[0], member), set()).add(key)
    assert sets._by_method == by_method
    assert sets._by_method_member == by_pair
    assert sets._by_subject == by_subject
    replayed = ClassHierarchy(reflexive=db.hierarchy.reflexive)
    for member, cls in db.hierarchy.declared_edges():
        replayed.declare(member, cls)
    for obj in db.hierarchy.objects():  # the (once shared) memo is ours
        assert db.hierarchy.ancestors(obj) == replayed.ancestors(obj)
        assert db.hierarchy.descendants(obj) == replayed.descendants(obj)
    rebuilt = db.clone()
    rebuilt.scalars._surrogates = rebuilt.sets._surrogates = None
    for table, fresh in ((scalars, rebuilt.scalars), (sets, rebuilt.sets)):
        assert (_mirror_state(table._surrogates)
                == _mirror_state(fresh.surrogate_view(rebuilt.interner)))
    exact = CardinalityCatalog.build(db)
    catalog = db.catalog()
    # (Not ``universe``: a name lookup registers an object without
    # a data-version bump, so that count may trail until the next
    # fact change -- before this suite as after.)
    assert all(getattr(catalog, name) == getattr(exact, name)
               for name in ("scalar_total", "set_total",
                            "set_apps_total", "scalar_subjects",
                            "set_subjects", "isa_edges"))
    # Per method: a card exactly while the method has a fact, with
    # exact fact and application counts (the distinct counts of a
    # log-patched card are estimates).
    for name in ("scalar", "sets"):
        assert ({m: (card.facts, card.apps)
                 for m, card in getattr(catalog, name).items()}
                == {m: (card.facts, card.apps)
                    for m, card in getattr(exact, name).items()})


def _mirror_first(db, kind, method_name, subject_name, value_name):
    """One insert the way a columnar head emitter makes it: the method's
    mirror slice is owned at acquisition, the boxed back-fill is left on
    ``_pending``."""
    table = db.scalars if kind == "scalar" else db.sets
    method = db.obj(method_name)
    write = table.int_writer(method, db.intern(method))
    try:
        write([db.intern(db.obj(subject_name))],
              [db.intern(db.obj(value_name))])
    except PathLogError:
        pass  # a scalar conflict: the fact of the matter stays


def _retract_method(db, method_name):
    """Fully retract a method, scalar and set, fact by fact."""
    method = db.obj(method_name)
    for (m, subject, args), _ in list(db.scalars.match(method=method)):
        db.retract_scalar(m, subject, args)
    for (m, subject, args), member in list(db.sets.match(method=method)):
        db.retract_set_member(m, subject, args, member)


def _isa(db, assert_, low, high):
    try:
        if assert_:
            db.assert_isa(db.obj(low), db.obj(high))
        else:
            db.retract_isa(db.obj(low), db.obj(high))
    except PathLogError:
        pass  # would close a cycle


def _sync(db):
    db.scalars.sync()
    db.sets.sync()


names = st.sampled_from(NAME_POOL)
clone_steps = st.one_of(
    st.tuples(st.just(apply_mutation), mutation_ops),
    st.tuples(st.just(_mirror_first), st.sampled_from(("scalar", "set")),
              names, names, names),
    st.tuples(st.just(_retract_method), names),
    st.tuples(st.just(_isa), st.booleans(),
              st.sampled_from(("a", "b", "c1", "c2")),
              st.sampled_from(("c1", "c2", "c3"))),
    st.tuples(st.just(_sync)),
    st.tuples(st.just(Database.catalog)),
    # A clone nobody keeps still un-owns every bucket of its source.
    st.tuples(st.just(Database.clone)),
)


@given(db=databases(), before=mutation_sequences(min_size=0),
       script=st.lists(st.tuples(st.integers(0, 3), clone_steps),
                       max_size=24),
       logged=st.booleans(), moved=st.booleans())
@settings(max_examples=150, deadline=None)
def test_clone_is_isolated_through_every_access_path(
        db, before, script, logged, moved):
    if logged:
        db.begin_changes()
    db.scalars.surrogate_view(db.interner)
    db.sets.surrogate_view(db.interner)
    db.catalog()
    for op in before:  # emptied and re-created buckets, stale catalog
        apply_mutation(db, op)
    if moved:  # ... or a current one with a recount owed
        db.catalog()
    _mirror_first(db, "set", "kids", "a", "b")  # cloned while pending
    if moved:
        db.catalog_moved({("set", "kids")})

    # Three generations and a second sibling.
    child = db.clone()
    grandchild = child.clone()
    sibling = db.clone()
    family = [db, child, grandchild, sibling]
    assert child.scalars._surrogates is not db.scalars._surrogates
    assert child._catalog is not db._catalog
    states = [_access_paths(side) for side in family]
    assert all(state == states[0] for state in states[1:])

    for who, (step, *args) in script:
        step(family[who], *args)
        for index, side in enumerate(family):
            if index == who:
                states[index] = _access_paths(side)
            else:
                assert _access_paths(side) == states[index], (
                    f"{step} on side {who} shows in side {index}")

    for side in family:
        _assert_coherent(side)


# ---------------------------------------------------------------------------
# The change-entry apply path
# ---------------------------------------------------------------------------

#: Names the drawn entries mention; ``fresh`` is in no drawn database,
#: so a ``+`` entry naming it grows the universe.  Methods come from a
#: smaller pool, subjects from another, so scalar entries often
#: conflict.
ENTRY_NAMES = ("p1", "a", "kids", "c1", "fresh", 1)
ENTRY_METHODS = ("a", "kids")
ENTRY_SUBJECTS = ("p1", "a")


@st.composite
def change_entries(draw):
    """One random change entry ``(sign, fact)``; a scalar ``-`` may
    carry a None result ("whatever is stored")."""
    def name(pool=ENTRY_NAMES):
        return n(draw(st.sampled_from(pool)))

    sign = draw(st.sampled_from("+-"))
    kind = draw(st.sampled_from(("scalar", "set", "isa")))
    if kind == "isa":
        return sign, ("isa", name(), name())
    method, subject = name(ENTRY_METHODS), name(ENTRY_SUBJECTS)
    args = (name(),) if draw(st.integers(0, 3)) == 0 else ()
    result = name()
    if kind == "scalar" and sign == "-" and draw(st.booleans()):
        result = None
    return sign, (kind, method, subject, args, result)


entry_batches = st.lists(change_entries(), min_size=1, max_size=10)


class _Injected(Exception):
    pass


def _failing_at(entries, index):
    for position, entry in enumerate(entries):
        if position == index:
            raise _Injected
        yield entry


def _apply_each(db, entries):
    for sign, fact in entries:
        try:
            db.apply_entry(sign, fact)
        except PathLogError:
            pass  # a scalar conflict or an isa cycle: nothing changed


def _facts(db):
    state = to_dict(db)
    del state["universe"]
    return state


@given(db=databases(), before=st.lists(change_entries(), max_size=6),
       entries=entry_batches, data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_failed_apply_batch_leaves_facts_and_universe(
        db, before, entries, data):
    log = db.begin_changes()
    _apply_each(db, before)
    state = to_dict(db)
    universe = db.universe()
    # Fail before a random entry, or (index == len) in the commit hook.
    index = data.draw(st.integers(0, len(entries)), label="fail_at")

    def commit():
        raise _Injected

    with pytest.raises((PathLogError, _Injected)):
        db.apply_batch(_failing_at(entries, index), commit=commit)
    assert db.universe() == universe
    assert to_dict(db) == state
    assert log.in_sync(db.data_version(), log.cursor())


@given(db=databases(), before=st.lists(change_entries(), max_size=8),
       after=entry_batches)
@settings(max_examples=150, deadline=None)
def test_rollback_changes_restores_the_facts_at_a_cursor(db, before, after):
    log = db.begin_changes()
    _apply_each(db, before)
    cursor = log.cursor()
    state = _facts(db)
    _apply_each(db, after)
    db.rollback_changes(cursor)
    assert _facts(db) == state
    assert log.in_sync(db.data_version(), log.cursor())


@given(db=databases(), entries=st.lists(change_entries(), max_size=16))
@settings(max_examples=150, deadline=None)
def test_replaying_the_log_through_apply_entry_reproduces_the_state(
        db, entries):
    start = db.clone()
    log = db.begin_changes()
    cursor = log.cursor()
    _apply_each(db, entries)
    for sign, fact in log.since(cursor):
        start.apply_entry(sign, fact)
    assert to_dict(start) == to_dict(db)
