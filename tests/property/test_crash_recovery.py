"""Property: crash anywhere, recover to the committed prefix.

Random mutation/maintenance schedules run against a
:class:`~repro.oodb.checkpoint.DurableStore` while seeded crash
injection fires at every WAL/checkpoint/recover fault site.  Whatever
point the process "dies" at, recovery must produce **exactly** a state
the oracle allows:

* the last state whose ``commit()`` was acknowledged (the committed
  prefix), or
* that state plus the one in-flight batch -- only when the crash hit
  ``commit()`` *after* the commit marker may have reached the file
  (``wal.fsync``); a crash before the marker (``wal.append``,
  ``wal.commit``) must never surface partial entries.

Either way recovery lands on a batch boundary: facts, isa edges,
aliases, and the surrogate remap (``Query.objects`` parity) all match
the oracle, never a torn intermediate.  A double crash -- dying again
during the recovery's own checkpoint -- must still recover.

The suite uses ``tempfile.mkdtemp`` per example (NOT the ``tmp_path``
fixture: Hypothesis reuses the fixture across examples).
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oodb.checkpoint import DurableStore, recover
from repro.oodb.database import Database
from repro.query import Query
from repro.testing import (
    DURABILITY_SITES,
    InjectedFault,
    inject,
    inject_random,
    observe,
)

pytestmark = pytest.mark.property

SUBJECTS = ("peter", "tim", "mary", "tom")
METHODS = ("kids", "color", "boss")
VALUES = ("red", "blue", 1, 2)


@st.composite
def schedules(draw, max_size=8):
    """A schedule: batches of mutations punctuated by maintenance."""
    mutation = st.one_of(
        st.tuples(st.just("+isa"), st.sampled_from(SUBJECTS),
                  st.sampled_from(("employee", "leaf"))),
        st.tuples(st.just("-isa"), st.sampled_from(SUBJECTS),
                  st.sampled_from(("employee", "leaf"))),
        st.tuples(st.just("+scalar"), st.sampled_from(METHODS),
                  st.sampled_from(SUBJECTS), st.sampled_from(VALUES)),
        st.tuples(st.just("-scalar"), st.sampled_from(METHODS),
                  st.sampled_from(SUBJECTS)),
        st.tuples(st.just("+set"), st.sampled_from(METHODS),
                  st.sampled_from(SUBJECTS), st.sampled_from(SUBJECTS)),
        st.tuples(st.just("-set"), st.sampled_from(METHODS),
                  st.sampled_from(SUBJECTS), st.sampled_from(SUBJECTS)),
    )
    batch = st.lists(mutation, min_size=1, max_size=3)
    step = st.one_of(
        st.tuples(st.just("batch"), batch),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("reopen")),
    )
    return draw(st.lists(step, min_size=1, max_size=max_size))


def apply_mutation(db: Database, op: tuple) -> None:
    tag = op[0]
    if tag == "+isa":
        db.assert_isa(db.obj(op[1]), db.obj(op[2]))
    elif tag == "-isa":
        db.retract_isa(db.obj(op[1]), db.obj(op[2]))
    elif tag == "+scalar":
        db.retract_scalar(db.obj(op[1]), db.obj(op[2]), ())
        db.assert_scalar(db.obj(op[1]), db.obj(op[2]), (), db.obj(op[3]))
    elif tag == "-scalar":
        db.retract_scalar(db.obj(op[1]), db.obj(op[2]), ())
    elif tag == "+set":
        db.assert_set_member(db.obj(op[1]), db.obj(op[2]), (),
                             db.obj(op[3]))
    elif tag == "-set":
        db.retract_set_member(db.obj(op[1]), db.obj(op[2]), (),
                              db.obj(op[3]))


def state_of(db: Database) -> tuple:
    """Canonical, comparable fact state: isa + scalars + sets + aliases."""
    return (
        frozenset(db.hierarchy.declared_edges()),
        frozenset(db.scalars.items()),
        frozenset((key, frozenset(members))
                  for key, members in db.sets.items()),
        frozenset(db._aliases.items()),
    )


class Driver:
    """Runs one schedule against a durable store, tracking the oracle.

    ``acceptable`` always holds the states a post-crash recovery may
    land on: the last acknowledged commit, plus (transiently, while a
    ``commit()`` whose marker may already be on disk is in flight) the
    batch being committed.
    """

    def __init__(self, data_dir: Path) -> None:
        self.data_dir = data_dir
        self.committed = state_of(Database())
        self.acceptable = {self.committed}

    def run(self, schedule) -> None:
        store = DurableStore.open(self.data_dir)
        try:
            for step in schedule:
                if step[0] == "batch":
                    for op in step[1]:
                        apply_mutation(store.database, op)
                    pending = state_of(store.database)
                    # The commit marker may hit the disk before the
                    # crash does: both outcomes are recoverable.
                    self.acceptable = {self.committed, pending}
                    store.commit()
                    self.committed = pending
                    self.acceptable = {pending}
                elif step[0] == "checkpoint":
                    store.checkpoint()
                elif step[0] == "reopen":
                    store.close()
                    store = DurableStore.open(self.data_dir)
        finally:
            # Leave the directory exactly as the "crash" did; a real
            # kill -9 would not flush either.  Only release the lease
            # so a later recover/open in the same process can proceed.
            store.wal._lease.release()

    def check(self) -> None:
        result = recover(self.data_dir)
        recovered = state_of(result.database)
        assert recovered in self.acceptable, (
            f"recovered state matches no committed boundary "
            f"(committed={self.committed in ([recovered])})")


def fresh_dir() -> Path:
    return Path(tempfile.mkdtemp(prefix="crashprop-"))


def cleanup(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


@settings(max_examples=30, deadline=None)
@given(schedule=schedules(), data=st.data())
def test_random_crash_recovers_to_committed_prefix(schedule, data):
    """Seeded random faulting across all durability sites."""
    data_dir = fresh_dir()
    try:
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        driver = Driver(data_dir)
        try:
            with inject_random(seed, rate=0.15, sites=DURABILITY_SITES):
                driver.run(schedule)
        except InjectedFault:
            pass
        driver.check()
    finally:
        cleanup(data_dir)


@settings(max_examples=12, deadline=None)
@given(schedule=schedules(max_size=5))
def test_kill_at_every_site_recovers(schedule):
    """Exhaustive: crash at each (site, hit) the schedule crosses."""
    control = fresh_dir()
    try:
        with observe() as plan:
            Driver(control).run(schedule)
    finally:
        cleanup(control)
    for site in DURABILITY_SITES:
        for hit in range(1, plan.counts.get(site, 0) + 1):
            data_dir = fresh_dir()
            try:
                driver = Driver(data_dir)
                try:
                    with inject(site, nth=hit):
                        driver.run(schedule)
                except InjectedFault:
                    pass
                driver.check()
            finally:
                cleanup(data_dir)


def test_fully_retracted_application_recovers_to_the_live_state():
    """The schedule PR 11 recorded: assert one membership and retract
    it in the same batch, then checkpoint.  The live table used to keep
    an empty-set key that neither the WAL nor the snapshot can express,
    so recovery landed on a state no commit ever had."""
    schedule = [("batch", [("+set", "color", "peter", "tim"),
                           ("-set", "color", "peter", "tim")]),
                ("checkpoint",)]
    for steps in (schedule, schedule[:1]):  # via snapshot, via WAL replay
        data_dir = fresh_dir()
        try:
            driver = Driver(data_dir)
            driver.run(steps)
            assert driver.committed[2] == frozenset()  # no empty-set key
            driver.check()
        finally:
            cleanup(data_dir)


@settings(max_examples=10, deadline=None)
@given(schedule=schedules(max_size=4),
       site=st.sampled_from(("checkpoint.write", "checkpoint.rename",
                             "recover.replay")))
def test_double_crash_during_recovery_still_recovers(schedule, site):
    """Crash once mid-schedule, then AGAIN during the recovery's own
    checkpoint (or replay) -- the directory must still recover."""
    data_dir = fresh_dir()
    try:
        driver = Driver(data_dir)
        try:
            with inject_random(7, rate=0.3, sites=DURABILITY_SITES):
                driver.run(schedule)
        except InjectedFault:
            pass
        # Second crash: recovery itself dies at a checkpoint/replay
        # site (DurableStore.open re-checkpoints after recovering).
        try:
            with inject(site, nth=1):
                store = DurableStore.open(data_dir)
                store.wal._lease.release()
        except InjectedFault:
            pass
        driver.check()
    finally:
        cleanup(data_dir)


@settings(max_examples=10, deadline=None)
@given(schedule=schedules(max_size=5))
def test_surrogate_remap_parity_after_recovery(schedule):
    """``Query.objects`` answers identically over the recovered
    database -- the OID interner's surrogate remap rebuilds correctly
    from the snapshot + WAL replay."""
    data_dir = fresh_dir()
    try:
        driver = Driver(data_dir)
        driver.run(schedule)
        live_store = DurableStore.open(data_dir)
        live = live_store.database
        live_store.close()
        result = recover(data_dir)
        recovered = result.database
        assert state_of(live) == state_of(recovered)
        for subject in SUBJECTS:
            for method in METHODS:
                ref = f"{subject}[{method} ->> {{X}}]"
                assert Query(live).objects(f"{subject}.{method}") == \
                    Query(recovered).objects(f"{subject}.{method}"), ref
        assert Query(live).objects("X : employee") == \
            Query(recovered).objects("X : employee")
    finally:
        cleanup(data_dir)
