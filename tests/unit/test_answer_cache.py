"""Unit tests of the server's repeat-read path (docs/server.md "Repeat
reads").

A read whose encoded answer is cached at the current state is answered
on the event loop from ``Query.peek``; everything else goes through
admission, the read gate and the executor (``Query.answer``).  These
tests pin that a cached answer is always the one ``Query.all`` would
give, that every state change invalidates it, that it never waits for
a slot or a lock, and that the request checks made before it still
apply.
"""

import asyncio
import json
import threading

import pytest

from repro.datasets.company import CompanyConfig, build_company
from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.server import (
    Client,
    Overloaded,
    ReplicaStale,
    RequestError,
    RequestTimeout,
    RetryPolicy,
    Server,
    ServerConfig,
    ServerDraining,
)
from repro.server import protocol

RULES = "X[colleague ->> {Y}] <- X[worksFor -> D], Y[worksFor -> D]."

#: Answers every object in ``U``: new names change it with no fact
#: change at all.
SELF = "X[self -> X]"


def seeded_db(count=3):
    db = Database()
    for i in range(count):
        db.add_object(f"p{i}", classes=["employee"],
                      scalars={"age": 30 + i})
    return db


def run_with_server(coro_fn, db=None, program=None, **config):
    """asyncio.run a coroutine taking a started Server."""
    async def main():
        cfg = ServerConfig(port=0, **config)
        async with Server(db if db is not None else seeded_db(),
                          program=program, config=cfg) as server:
            return await coro_fn(server)
    return asyncio.run(main())


def reference(server, text, variables=None, limit=None):
    answers = server.query.all(text, variables)
    if limit is not None:
        answers = answers[:limit]
    return [answer.values_dict() for answer in answers]


def counters(server):
    return server.stats.answer_cache_hits, server.stats.answer_cache_misses


class TestAnswerFrame:
    @pytest.mark.parametrize("answers", [[], [{"X": "p0"}],
                                         [{"X": "caf\u00e9", "N": 3}]])
    @pytest.mark.parametrize("request_", [None, {"op": "query"},
                                          {"op": "query", "id": 7}])
    def test_decodes_like_encode_frame(self, answers, request_):
        fields = {"version": 4, "cursor": None, "elapsed_ms": 0.5,
                  "staleness": {"entries": 0, "ms": None}}
        spliced = protocol.answer_frame(
            request_, protocol.encode_json(answers), **fields)
        plain = protocol.encode_frame(
            protocol.ok(request_, answers=answers, **fields))
        assert len(spliced) == len(plain)
        assert json.loads(spliced[4:]) == json.loads(plain[4:])
        assert int.from_bytes(spliced[:4], "big") == len(spliced) - 4


class TestSoundness:
    @pytest.mark.parametrize("mode", ["no program", "magic", "full"])
    def test_new_names_reach_a_cached_text(self, mode):
        program = None if mode == "no program" else parse_program(RULES)

        async def scenario(server):
            async with Client(*server.address) as client:
                async def check(text):
                    got = (await client.query(text))["answers"]
                    assert got == reference(server, text)

                await check(SELF)
                await check(SELF)
                await check(SELF)
                assert server.stats.answer_cache_hits >= 1
                # Both register names in U without a version bump.
                await check("zzz[age -> A]")
                await check("X : qqq")
                await check(SELF)
                await check(SELF)

        run_with_server(scenario, db=build_company(CompanyConfig(
            employees=5)), program=program, magic=mode != "full")

    def test_a_write_invalidates(self):
        async def scenario(server):
            async with Client(*server.address) as client:
                await client.query("X : employee", ["X"])
                await client.query("X : employee", ["X"])
                assert counters(server) == (1, 1)
                await client.write([["+isa", "p9", "employee"]])
                res = await client.query("X : employee", ["X"])
                assert [a["X"] for a in res["answers"]] == \
                    ["p0", "p1", "p2", "p9"]
                assert counters(server) == (1, 2)
                stats = await client.stats()
                assert (stats["answer_cache_hits"],
                        stats["answer_cache_misses"]) == (1, 2)

        run_with_server(scenario)

    def test_a_failed_write_invalidates(self):
        async def scenario(server):
            async with Client(*server.address) as client:
                before = await client.query("X : employee", ["X"])
                await client.query("X : employee", ["X"])
                assert counters(server) == (1, 1)
                # The first change applies, the second conflicts: the
                # batch rolls back, past the cached state's version.
                with pytest.raises(RequestError):
                    await client.write([["+isa", "p9", "employee"],
                                        ["+scalar", "age", "p0", [], 99]])
                assert server.stats.rollbacks == 1
                after = await client.query("X : employee", ["X"])
                assert after["answers"] == before["answers"]
                assert after["version"] > before["version"]
                assert counters(server) == (1, 2)

        run_with_server(scenario)

    def test_variables_and_limit_are_separate_keys(self):
        async def scenario(server):
            async with Client(*server.address) as client:
                text = "X : employee, X[age -> A]"
                shapes = [(None, None), (["X"], None), (["A"], None),
                          (None, 1), (["X"], 2)]
                for _ in range(2):
                    for variables, limit in shapes:
                        res = await client.query(text, variables,
                                                 limit=limit)
                        assert res["answers"] == reference(
                            server, text, variables, limit)
                assert counters(server) == (len(shapes), len(shapes))

        run_with_server(scenario)

    def test_a_replica_rebootstrap_invalidates(self):
        async def scenario(primary):
            host, port = primary.address
            replica = await Server(Database(), config=ServerConfig(
                port=0, replica_of=f"{host}:{port}",
                repl_poll_ms=25.0)).start()
            try:
                async with Client(*replica.address) as client:
                    await client.query("X : employee", ["X"])
                    await client.query("X : employee", ["X"])
                    assert counters(replica) == (1, 1)
                    # Disrupt the primary's log: the replica re-bootstraps
                    # into a fresh Query with an empty cache.
                    primary.database.alias("boss", "p0")
                    while replica.stats.repl_rebootstraps == 0:
                        await asyncio.sleep(0.01)
                    assert replica.query.peek("X : employee", ["X"]) is None
                    res = await client.query("X : employee", ["X"])
                    assert [a["X"] for a in res["answers"]] == \
                        ["p0", "p1", "p2"]
                    assert counters(replica) == (1, 2)
            finally:
                await replica.shutdown()

        run_with_server(scenario)


class TestPeekNeverWaits:
    def test_cached_reads_pass_a_read_holding_the_slot_and_lock(self):
        hot = "X[colleague ->> {Y}]"
        slow = "X : employee"

        async def scenario(server):
            loop = asyncio.get_running_loop()
            release = asyncio.Event()
            holding = threading.Event()
            real = server._run_query

            def gated(text, variables, limit, budget):
                if text == slow:
                    with server.query._lock:
                        holding.set()
                        asyncio.run_coroutine_threadsafe(
                            release.wait(), loop).result(timeout=5)
                return real(text, variables, limit, budget)

            server._run_query = gated
            async with Client(*server.address) as blocked, \
                    Client(*server.address,
                           retry=RetryPolicy(attempts=1)) as client:
                want = (await client.query(hot))["answers"]
                await client.query(hot)
                pending = asyncio.create_task(blocked.query(slow))
                while not holding.is_set():
                    await asyncio.sleep(0.005)
                assert server._admission.inflight == 1
                for _ in range(3):
                    res = await asyncio.wait_for(client.query(hot), 5.0)
                    assert res["answers"] == want
                # An uncached text needs the one slot: it is shed.
                with pytest.raises(Overloaded):
                    await client.query("X : employee, X[age -> A]")
                assert server.stats.shed == 1
                assert counters(server)[0] == 4
                release.set()
                await pending

        run_with_server(scenario, db=build_company(CompanyConfig(
            employees=5)), program=parse_program(RULES), max_inflight=1,
            max_queue=0)


class TestChecksBeforeThePeek:
    def test_a_spent_budget_times_out_a_cached_text(self):
        async def scenario(server):
            async with Client(*server.address,
                              retry=RetryPolicy(attempts=1)) as client:
                await client.query("X : employee")
                await client.query("X : employee")
                assert counters(server) == (1, 1)
                with pytest.raises(RequestTimeout):
                    await client.query("X : employee", timeout_ms=0)
                server.config.max_timeout_ms = 0.0
                with pytest.raises(RequestTimeout):
                    await client.query("X : employee", timeout_ms=60_000)
                assert (await client.stats())["budget_stops"] == 2
                assert counters(server) == (1, 1)

        run_with_server(scenario)

    def test_a_draining_server_refuses_cached_texts(self):
        async def scenario(server):
            async with Client(*server.address,
                              retry=RetryPolicy(attempts=1)) as client:
                await client.query("X : employee")
                await client.query("X : employee")
                server._draining = True
                try:
                    with pytest.raises(ServerDraining):
                        await client.query("X : employee")
                finally:
                    server._draining = False
                assert counters(server) == (1, 1)

        run_with_server(scenario)

    def test_a_lagging_replica_answers_stale_not_cached(self):
        async def scenario(primary):
            host, port = primary.address
            replica = await Server(Database(), config=ServerConfig(
                port=0, replica_of=f"{host}:{port}", max_lag=0,
                repl_poll_ms=25.0)).start()
            try:
                async with Client(*replica.address,
                                  retry=RetryPolicy(attempts=1)) as client:
                    res = await client.query("X : employee")
                    cached = await client.query("X : employee")
                    assert counters(replica) == (1, 1)
                    assert cached["primary_cursor"] == res["primary_cursor"]
                    replica.replicator.head += 5
                    with pytest.raises(ReplicaStale):
                        await client.query("X : employee")
                    assert replica.stats.stale_sheds == 1
                    assert counters(replica) == (1, 1)
            finally:
                await replica.shutdown()

        run_with_server(scenario)
