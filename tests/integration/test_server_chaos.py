"""Chaos: the server survives random faults and rude disconnects.

Seeded :func:`~repro.testing.inject_random` plans fire at every server
stage (``server.accept`` / ``dispatch`` / ``maintain`` / ``respond``),
every maintenance phase, and the evaluation kernels -- while a swarm of
clients queries and writes concurrently and a few "rude" clients hang
up mid-request.  Whatever the schedule hits:

* the server keeps serving -- after the storm an unfaulted health
  check and query both succeed on a fresh connection;
* no torn snapshots -- every observed answer contains a batch's pair
  of facts together or not at all (batches are atomic even when the
  schedule kills the maintainer mid-batch and it rolls back);
* the change-log arithmetic stays provable (``ChangeLog.in_sync``);
* no leaked cursors -- once the per-request leases are gone and the
  memos dropped, the log trims to empty.  A reader that died to an
  injected fault or a disconnect must not leave a pin behind.

Runs under ``-m property`` with a fixed ``--hypothesis-seed`` in CI so
a red schedule is reproducible locally with the same flag.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.query import Query
from repro.server import Client, ClientError, RetryPolicy, Server, \
    ServerConfig
from repro.server.protocol import encode_frame
from repro.testing import inject_random
from repro.testing.faults import SITES

pytestmark = pytest.mark.property

RULES = """
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
"""

QUERY = "peter[desc ->> {X}]"

#: Every site the server's request path can cross, plus the server's
#: own stages -- the widest blast radius the suite knows how to aim.
CHAOS_SITES = tuple(sorted(SITES))

#: Writer batches: each atomically inserts (or later retracts) a
#: child/grandchild *pair*, so a torn snapshot is detectable as a
#: child without its grandchild (or vice versa).
def pair_batches():
    inserts = [
        [["+set", "kids", "peter", [], f"c{i}"],
         ["+set", "kids", f"c{i}", [], f"g{i}"]]
        for i in range(6)
    ]
    retracts = [
        [["-set", "kids", "peter", [], "c0"],
         ["-set", "kids", "c0", [], "g0"]]
    ]
    return inserts + retracts


def seeded_db():
    db = Database()
    kids = db.obj("kids")
    db.assert_set_member(kids, db.obj("peter"), (), db.obj("tim"))
    db.assert_set_member(kids, db.obj("tim"), (), db.obj("tom"))
    return db


def assert_untorn(answers):
    """Each pair travels together: c{i} visible iff g{i} visible."""
    for i in range(6):
        assert (f"c{i}" in answers) == (f"g{i}" in answers), (
            f"torn snapshot: {sorted(answers)}")


async def chaos_reader(host, port, rounds, observed):
    """Query in a loop; reconnect through whatever the storm does."""
    for _ in range(rounds):
        try:
            async with Client(host, port,
                              retry=RetryPolicy(attempts=2,
                                                base_ms=1.0)) as client:
                response = await client.query(QUERY, timeout_ms=2_000)
                observed.append(frozenset(
                    a["X"] for a in response["answers"]))
        except ClientError:
            pass  # faulted away; the post-storm checks are the point
        await asyncio.sleep(0)


async def chaos_writer(host, port, batches):
    for batch in batches:
        try:
            async with Client(host, port,
                              retry=RetryPolicy(attempts=2,
                                                base_ms=1.0)) as client:
                await client.write(batch)
        except ClientError:
            pass  # rolled back server-side; atomicity is asserted below
        await asyncio.sleep(0)


async def rude_client(host, port):
    """Send a query frame and hang up before reading the answer."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(encode_frame({"op": "query", "query": QUERY}))
        await writer.drain()
        writer.close()
    except (ConnectionError, OSError):
        pass


@given(seed=st.integers(0, 2 ** 16),
       rate=st.sampled_from((0.02, 0.1)))
@settings(max_examples=8, deadline=None)
def test_server_survives_fault_storms_and_disconnects(seed, rate):
    db = seeded_db()
    program = parse_program(RULES)
    observed = []
    post_storm = {}

    async def main():
        config = ServerConfig(max_inflight=4, max_queue=4,
                              drain_ms=2_000.0)
        async with Server(db, program=program, config=config) as server:
            host, port = server.address
            with inject_random(seed=seed, rate=rate, sites=CHAOS_SITES):
                await asyncio.gather(
                    chaos_writer(host, port, pair_batches()),
                    *(chaos_reader(host, port, 4, observed)
                      for _ in range(4)),
                    *(rude_client(host, port) for _ in range(3)))
            # Storm over: the plan is uninstalled, the server must
            # still answer on a brand-new connection.
            async with Client(host, port) as client:
                health = await client.health()
                assert health["ok"] and health["status"] == "ok"
                response = await client.query(QUERY)
                post_storm["answers"] = frozenset(
                    a["X"] for a in response["answers"])
                post_storm["stats"] = await client.stats()
            post_storm["server"] = server
        post_storm["shed"] = server.stats.shed

    asyncio.run(main())

    # No torn snapshots, during or after the storm.
    for answers in observed:
        assert_untorn(answers)
    assert_untorn(post_storm["answers"])
    # The post-storm answer matches an unfaulted scratch derivation
    # of whatever state the surviving batches produced.
    scratch = Query(db.clone(), program=program)
    assert post_storm["answers"] == frozenset(
        a.values_dict()["X"] for a in scratch.all(QUERY))
    # Every version bump is still explained by the log.
    log = db.change_log
    assert log.in_sync(db.data_version(), log.cursor())
    # No leaked cursors: the per-request leases all died with their
    # requests (even the faulted ones); dropping the memo hold -- the
    # one legitimate long-lived pin -- makes the log fully trimmable.
    server = post_storm["server"]
    server.query.forget()
    db.catalog()
    db.trim_changes()
    assert log.offset == log.cursor()
    assert log.entries == []
    # Shed requests (if any) were answered, not hung: the counters
    # reconcile -- every request either got a response or belonged to
    # a connection that dropped.
    stats = post_storm["stats"]
    assert stats["served"] <= stats["requests"]


@given(seed=st.integers(0, 2 ** 16))
@settings(max_examples=6, deadline=None)
def test_maintain_faults_roll_batches_back_whole(seed):
    """Aim the storm at the maintainer alone: every write either
    applies in full (both facts of the pair) or not at all, and the
    server reports the rollback instead of dying."""
    db = seeded_db()
    program = parse_program(RULES)
    results = []

    async def main():
        async with Server(db, program=program) as server:
            host, port = server.address
            with inject_random(seed=seed, rate=0.5,
                               sites=("server.maintain",
                                      "maintain.apply",
                                      "maintain.insert")):
                async with Client(host, port) as client:
                    for batch in pair_batches():
                        try:
                            response = await client.request(
                                {"op": "write", "changes": batch})
                            results.append(("ok", response["applied"]))
                        except ClientError as err:
                            results.append(("err", str(err)))
            # Storm over: the maintainer must still accept writes.
            async with Client(host, port) as client:
                recovery = await client.write(
                    [["+set", "kids", "peter", [], "after"],
                     ["+set", "kids", "after", [], "storm"]])
                assert recovery["applied"] == 2
                response = await client.query(QUERY)
                results.append(("final", frozenset(
                    a["X"] for a in response["answers"])))

    asyncio.run(main())

    final = dict(r for r in results if r[0] == "final")
    assert_untorn(final["final"])
    assert {"after", "storm"} <= final["final"]
    scratch = Query(db.clone(), program=program)
    assert final["final"] == frozenset(
        a.values_dict()["X"] for a in scratch.all(QUERY))
    # Every failed write died to the injected schedule (typed on the
    # wire as ``internal``), never to corrupted server state.
    for _, message in (r for r in results if r[0] == "err"):
        assert "injected fault" in message
    log = db.change_log
    assert log.in_sync(db.data_version(), log.cursor())
