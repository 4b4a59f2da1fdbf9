"""What a derived fact allocates: the columnar fixpoint's tracked objects.

The cyclic collector's cost grows with the container objects a run
leaves alive: every generation-0 pass is triggered by net allocations,
and every older-generation pass walks whatever was promoted.  The
int-native head path therefore keeps a derived fact out of containers
-- no realizer-log tuple, no back-fill triple: a batch's new surrogate
columns go to the round and, as one flat chunk, to the back-fill queue
(docs/performance.md, "What a derived fact allocates").

The bound counts *objects*, not collector passes, with the collector
off, so it means the same on every supported Python.  With passes this
rare, garbage a run leaves in reference cycles lingers: a result
database must be freed when its last reference goes.
"""

import gc
import weakref

import pytest

from repro import Engine, Query
from repro.datasets.genealogy import chain_family, desc_rules


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_a_closure_run_allocates_per_round_not_per_fact(collector_off):
    db, graph = chain_family(300)
    rules = desc_rules()
    Engine(db, rules).run()  # the source's mirrors and catalog, once
    before = len(gc.get_objects())
    engine = Engine(db, rules)
    result = engine.run()
    grown = len(gc.get_objects()) - before
    stats = engine.stats
    rounds = sum(stats.iterations)
    subjects = graph.number_of_nodes()
    assert stats.derived_total == 300 * 299 // 2  # 44 850 facts
    # Mirror member sets and inverse lists per subject, one back-fill
    # chunk per round, a fixed amount per plan: about 2 x (rounds +
    # subjects) here.  Boxing each fact would leave ~45 000.
    assert grown < 4 * (rounds + subjects), grown
    # The deferred back-fill drains to the whole closure.
    desc, root = result.obj("desc"), result.obj("c0")
    assert len(result.set_apply(desc, root, ())) == subjects - 1


def test_a_dropped_result_is_freed_without_the_collector(collector_off):
    db, _ = chain_family(40)
    engine = Engine(db, desc_rules())
    result = weakref.ref(engine.run())
    del engine  # its plans cache kernels compiled against the result
    assert result() is None


def test_a_dropped_query_database_is_freed_without_the_collector(
        collector_off):
    # An ad-hoc query caches its plan, and the plan its compiled form
    # keyed by the database: a compiled form pointing back at the plan
    # would keep the database alive until a full collector pass.
    db, _ = chain_family(40)
    query = Query(db)
    assert len(query.all("X[kids ->> {Y}]")) == 39
    freed = weakref.ref(db)
    del db, query
    assert freed() is None
