"""Integration: concurrent readers observe only prefix-consistent states.

A swarm of reader clients hammers the server with a recursive query
while one writer client applies a known sequence of atomic change
batches.  Because the maintainer holds the write gate exclusively and
every batch is all-or-nothing, each answer must equal the query result
over *some prefix* of the batch sequence -- never a torn intermediate
state, never a state that mixes two batches.

The expected prefix states are derived independently here, by applying
the same batches to a scratch database and evaluating with a scratch
(non-incremental) Query, so the assertion is differential: the served,
memoised, concurrently-maintained answers against a sequential oracle.
"""

import asyncio

import pytest

from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.query import Query
from repro.server import Client, Server, ServerConfig

RULES = """
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
"""

QUERY = "peter[desc ->> {X}]"

#: Batches the writer applies in order.  Each inserts a *pair* of kids
#: atomically (a direct child of peter and a grandchild below it), so a
#: torn batch is detectable: the child without its grandchild.
BATCHES = [
    [["+set", "kids", "peter", [], f"c{i}"],
     ["+set", "kids", f"c{i}", [], f"g{i}"]]
    for i in range(10)
]

READERS = 4


def seeded_db():
    db = Database()
    kids = db.obj("kids")
    db.assert_set_member(kids, db.obj("peter"), (), db.obj("tim"))
    db.assert_set_member(kids, db.obj("tim"), (), db.obj("tom"))
    return db


def apply_batch_locally(db, batch):
    for tag, member_set, owner, args, member in batch:
        assert tag == "+set"
        db.assert_set_member(db.obj(member_set), db.obj(owner),
                             tuple(args), db.obj(member))


def expected_prefix_states():
    """Answer set of QUERY after 0, 1, ... len(BATCHES) batches."""
    db = seeded_db()
    program = parse_program(RULES)

    def answers():
        scratch = Query(db.clone(), program=program)
        return frozenset(a.values_dict()["X"] for a in scratch.all(QUERY))

    states = [answers()]
    for batch in BATCHES:
        apply_batch_locally(db, batch)
        states.append(answers())
    return states


class TestConcurrentReadersDuringMaintenance:
    def test_every_answer_is_a_prefix_state(self):
        db = seeded_db()
        start_version = db.data_version()
        prefix_states = expected_prefix_states()
        observed = []          # (frozenset answers, version, cursor)
        writer_done = asyncio.Event()

        async def reader(host, port):
            async with Client(host, port) as client:
                while not writer_done.is_set():
                    response = await client.query(QUERY)
                    observed.append((
                        frozenset(a["X"] for a in response["answers"]),
                        response["version"], response["cursor"]))
                    await asyncio.sleep(0)

        async def writer(host, port):
            async with Client(host, port) as client:
                for batch in BATCHES:
                    response = await client.write(batch)
                    assert response["applied"] == len(batch)
                    # Let readers interleave between batches.
                    await asyncio.sleep(0.002)
            writer_done.set()

        async def main():
            config = ServerConfig(max_inflight=READERS)
            async with Server(db, program=parse_program(RULES),
                              config=config) as server:
                host, port = server.address
                await asyncio.gather(
                    writer(host, port),
                    *(reader(host, port) for _ in range(READERS)))
                final = await Client(host, port).query(QUERY)
                observed.append((
                    frozenset(a["X"] for a in final["answers"]),
                    final["version"], final["cursor"]))

        asyncio.run(main())

        assert len(observed) > len(BATCHES)  # readers really interleaved
        for answers, version, cursor in observed:
            # Snapshot isolation: the answer matches a whole-batch
            # prefix of the write sequence, nothing in between.
            assert answers in prefix_states, (
                f"torn snapshot: {sorted(answers)} matches no prefix")
            # The reported (version, cursor) pair is the snapshot's
            # proof: cursor entries past the start version.
            assert version == start_version + cursor
        # The last read (after the writer finished) saw everything.
        assert observed[-1][0] == prefix_states[-1]

    def test_reader_snapshots_are_monotone_per_connection(self):
        """One connection issuing sequential queries never travels back
        in time: each answer reflects at least as many batches as the
        previous one."""
        db = seeded_db()
        prefix_states = expected_prefix_states()
        per_reader = [[] for _ in range(READERS)]
        writer_done = asyncio.Event()

        async def reader(host, port, sink):
            async with Client(host, port) as client:
                while not writer_done.is_set():
                    response = await client.query(QUERY)
                    sink.append(frozenset(
                        a["X"] for a in response["answers"]))
                    await asyncio.sleep(0)

        async def writer(host, port):
            async with Client(host, port) as client:
                for batch in BATCHES:
                    await client.write(batch)
                    await asyncio.sleep(0.002)
            writer_done.set()

        async def main():
            async with Server(db, program=parse_program(RULES)) as server:
                host, port = server.address
                await asyncio.gather(
                    writer(host, port),
                    *(reader(host, port, sink) for sink in per_reader))

        asyncio.run(main())

        for sink in per_reader:
            indexes = [prefix_states.index(answers) for answers in sink]
            assert indexes == sorted(indexes)

    def test_log_arithmetic_holds_after_the_run(self):
        db = seeded_db()
        writer_done = asyncio.Event()

        async def reader(host, port):
            async with Client(host, port) as client:
                while not writer_done.is_set():
                    await client.query(QUERY)
                    await asyncio.sleep(0)

        async def writer(host, port):
            async with Client(host, port) as client:
                for batch in BATCHES:
                    await client.write(batch)
            writer_done.set()

        async def main():
            async with Server(db, program=parse_program(RULES)) as server:
                host, port = server.address
                await asyncio.gather(writer(host, port),
                                     *(reader(host, port)
                                       for _ in range(2)))
                stats = await Client(host, port).stats()
                assert stats["writes"] == len(BATCHES)
                assert stats["rollbacks"] == 0

        asyncio.run(main())

        log = db.change_log
        assert log.in_sync(db.data_version(), log.cursor())
        # Shutdown trimmed down to the memo low-water mark; dropping the
        # memos (the only remaining legitimate hold) frees the rest.
        assert db.snapshot_lag() == 0
