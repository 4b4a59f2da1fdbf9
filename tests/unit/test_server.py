"""Unit tests of the concurrent query server and its client.

Each test spins a real server on an ephemeral port inside one
``asyncio.run`` (the suite has no async test runner, so sync test
functions own the loop).  Integration-scale behaviour -- reader/writer
races, chaos -- lives in tests/integration.
"""

import asyncio
import json
import random

import pytest

from repro.oodb.checkpoint import recover, snapshot_files
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid
from repro.lang.parser import parse_program
from repro.server import (
    AdmissionController,
    AdmissionShed,
    Client,
    ConnectionLost,
    Overloaded,
    ReadWriteGate,
    RequestError,
    RequestTimeout,
    RetryPolicy,
    Server,
    ServerConfig,
    ServerError,
)
from repro.server import protocol
from repro.testing import InjectedFault, inject


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


class TestProtocol:
    def test_frame_roundtrip(self):
        async def main():
            payload = {"op": "query", "query": "X : c", "id": 7}
            reader = asyncio.StreamReader()
            reader.feed_data(protocol.encode_frame(payload))
            reader.feed_eof()
            assert await protocol.read_frame(reader) == payload
            assert await protocol.read_frame(reader) is None
        asyncio.run(main())

    def test_oversized_frame_rejected_before_buffering(self):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data((2 ** 31).to_bytes(4, "big"))
            with pytest.raises(protocol.FrameTooLarge):
                await protocol.read_frame(reader)
        asyncio.run(main())

    def test_error_codes_carry_retryability(self):
        shed = protocol.error(protocol.OVERLOADED, "full",
                              retry_after_ms=12.5)
        assert shed["error"]["retryable"]
        assert shed["error"]["retry_after_ms"] == 12.5
        bad = protocol.error(protocol.QUERY_ERROR, "nope")
        assert not bad["error"]["retryable"]

    def test_responses_echo_the_request_id(self):
        request = {"op": "health", "id": "abc"}
        assert protocol.ok(request)["id"] == "abc"
        assert protocol.error(protocol.INTERNAL, "x",
                              request=request)["id"] == "abc"


class TestAdmission:
    def test_sheds_beyond_the_queue_bound(self):
        async def main():
            controller = AdmissionController(1, 1)
            first = await controller.admit()     # runs
            waiting = asyncio.create_task(controller.admit())  # queues
            await asyncio.sleep(0)
            assert controller.waiting == 1
            with pytest.raises(AdmissionShed) as info:
                await controller.admit()         # queue full: shed
            assert info.value.retry_after_ms > 0
            assert controller.shed == 1
            async with first:
                pass
            async with await waiting:
                pass
            assert controller.inflight == 0
        asyncio.run(main())

    def test_retry_hint_grows_with_backlog(self):
        controller = AdmissionController(2, 10)
        idle = controller.retry_after_ms()
        controller.inflight = 2
        controller.waiting = 8
        assert controller.retry_after_ms() > idle


class TestReadWriteGate:
    def test_readers_share_writer_excludes(self):
        async def main():
            gate = ReadWriteGate()
            order = []

            async def reader(name, hold):
                async with gate.read():
                    order.append(f"{name}+")
                    await hold.wait()
                    order.append(f"{name}-")

            hold = asyncio.Event()
            r1 = asyncio.create_task(reader("r1", hold))
            r2 = asyncio.create_task(reader("r2", hold))
            await asyncio.sleep(0)
            assert gate.readers == 2     # both inside at once

            async def writer():
                async with gate.write():
                    order.append("w")

            w = asyncio.create_task(writer())
            await asyncio.sleep(0)

            async def late_reader():
                async with gate.read():
                    order.append("late+")

            late = asyncio.create_task(late_reader())
            await asyncio.sleep(0)
            hold.set()
            await asyncio.gather(r1, r2, w, late)
            # Writer preference: the late reader queued behind the
            # waiting writer even though readers were inside.
            assert order.index("w") < order.index("late+")
        asyncio.run(main())


class TestServerBasics:
    def test_query_write_roundtrip(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                first = await client.query("X : employee", ["X"])
                assert [a["X"] for a in first["answers"]] == \
                    ["p0", "p1", "p2"]
                applied = await client.write(
                    [["+isa", "p9", "employee"],
                     ["+scalar", "age", "p9", [], 99]])
                assert applied["applied"] == 2
                again = await client.query(
                    "X : employee, X.age >= 99", ["X"])
                assert [a["X"] for a in again["answers"]] == ["p9"]
        run_with_server(scenario)

    def test_answers_reflect_a_single_snapshot_cursor(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                before = await client.query("X : employee", ["X"])
                await client.write([["+isa", "p9", "employee"]])
                after = await client.query("X : employee", ["X"])
                assert after["cursor"] == before["cursor"] + 1
                assert after["version"] > before["version"]
        run_with_server(scenario)

    def test_program_queries_share_demand_memos(self):
        program = parse_program("""
            X[desc ->> {Y}] <- X[kids ->> {Y}].
            X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
        """)
        db = Database()
        kids = db.obj("kids")
        db.assert_set_member(kids, db.obj("peter"), (), db.obj("tim"))
        db.assert_set_member(kids, db.obj("tim"), (), db.obj("sally"))

        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                res = await client.query("peter[desc ->> {X}]", ["X"])
                assert {a["X"] for a in res["answers"]} == \
                    {"tim", "sally"}
                await client.write(
                    [["+set", "kids", "sally", [], "zoe"]])
                res = await client.query("peter[desc ->> {X}]", ["X"])
                assert {a["X"] for a in res["answers"]} == \
                    {"tim", "sally", "zoe"}
        run_with_server(scenario, db=db, program=program)

    def test_write_conflicts_roll_back_whole_batch(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                version = (await client.stats())["version"]
                with pytest.raises(RequestError):
                    # p0 already has age 30: scalar conflict after the
                    # first change applied -- both must vanish.
                    await client.write(
                        [["+isa", "px", "employee"],
                         ["+scalar", "age", "p0", [], 77]])
                answers = (await client.query("X : employee",
                                              ["X"]))["answers"]
                assert [a["X"] for a in answers] == ["p0", "p1", "p2"]
                assert (await client.stats())["rollbacks"] == 1
                # Rollback re-asserts through the logged API: the
                # version advances, the facts do not.
                assert (await client.stats())["version"] >= version
        run_with_server(scenario)

    def test_failed_writes_leave_the_universe_unchanged(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                # The first query registers its own constant (`self`).
                before = (await client.query("X[self -> X]",
                                             ["X"]))["answers"]
                size = len(server.database.universe())
                with pytest.raises(RequestError):
                    # Malformed after a change naming a fresh object.
                    await client.write([["+isa", "fresh", "employee"],
                                        ["+isa", ["nested"], "c"]])
                # A no-op retraction of names nobody stored.
                assert (await client.write(
                    [["-set", "nosuch", "nobody", [], "nothing"]]
                ))["applied"] == 0
                with pytest.raises(RequestError):
                    # p0 already has age 30: rolled back on the conflict.
                    await client.write([["+isa", "ghost", "employee"],
                                        ["+scalar", "age", "p0", [], 77]])
                after = (await client.query("X[self -> X]",
                                            ["X"]))["answers"]
                assert after == before
                assert len(server.database.universe()) == size
        run_with_server(scenario)

    def test_scalar_conflict_message_reaches_the_wire(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                with pytest.raises(RequestError) as info:
                    await client.write([["+scalar", "age", "p0", [], 77]])
                message = str(info.value)
                for part in ("age", "p0", "30", "77"):
                    assert part in message
        run_with_server(scenario)

    def test_malformed_changes_rejected_before_mutation(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                for bad in ([["~scalar", "a", "b", [], 1]],
                            [["+scalar", "a", "b", "notalist", 1]],
                            [["+isa", ["nested"], "c"]],
                            ["notalist"]):
                    with pytest.raises(RequestError):
                        await client.write(bad)
                assert (await client.stats())["rollbacks"] == 0
        run_with_server(scenario)

    def test_bad_requests_answered_not_fatal(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                with pytest.raises(RequestError):
                    await client.request({"op": "dance"})
                with pytest.raises(RequestError):
                    await client.request({"op": "query"})
                with pytest.raises(RequestError):
                    await client.query("X : ")  # syntax error
                assert (await client.health())["status"] == "ok"
        run_with_server(scenario)

    def test_query_limit_caps_answers(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                res = await client.query("X : employee", ["X"], limit=2)
                assert len(res["answers"]) == 2
        run_with_server(scenario)

    def test_health_and_stats_surface_counters(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                await client.query("X : employee", ["X"])
                health = await client.health()
                assert health["status"] == "ok"
                assert health["snapshot_lag"] == 0
                stats = await client.stats()
                assert stats["queries"] == 1
                assert stats["served"] >= 1
                assert stats["shed"] == 0
                assert stats["log_entries"] == 0
                assert stats["buckets_copied"] == server.query.buckets_copied
        run_with_server(scenario)


async def raw_request(server, body: str) -> dict | None:
    """Send ``body`` verbatim as one frame (so it may hold what
    ``json.dumps`` would not write); the decoded response, or None when
    the server closed the connection instead."""
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    try:
        data = body.encode("utf-8")
        writer.write(len(data).to_bytes(4, "big") + data)
        await writer.drain()
        return await asyncio.wait_for(protocol.read_frame(reader), 5.0)
    finally:
        writer.close()


class TestWireNumbers:
    """Numeric request fields are checked before any handler runs."""

    QUERY = '{"op": "query", "query": "X : employee", '

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_close_the_connection(self, constant):
        async def scenario(server):
            body = self.QUERY + f'"timeout_ms": {constant}}}'
            assert await raw_request(server, body) is None
            host, port = server.address
            async with Client(host, port) as client:
                assert (await client.health())["status"] == "ok"
            return server.stats.internal_errors
        assert run_with_server(scenario, max_timeout_ms=60_000.0) == 0

    @pytest.mark.parametrize("field, value", [
        ("timeout_ms", '"soon"'), ("timeout_ms", "1e999"),
        ("timeout_ms", "-5"), ("timeout_ms", "true"),
        ("limit", '"all"'), ("limit", "1.5"), ("limit", "-1"),
        ("max_derived", '"many"'), ("max_derived", "-1"),
    ])
    def test_bad_numbers_answer_bad_request(self, field, value):
        async def scenario(server):
            response = await raw_request(
                server, self.QUERY + f'"{field}": {value}}}')
            return response, server.stats.as_dict()
        response, stats = run_with_server(scenario)
        assert response["error"]["code"] == protocol.BAD_REQUEST
        assert repr(field) in response["error"]["message"]
        assert stats["internal_errors"] == 0
        assert stats["queries"] == 0  # refused before the handler

    def test_good_numbers_pass(self):
        async def scenario(server):
            return await raw_request(
                server, self.QUERY + '"timeout_ms": 2.5e3, "limit": 0, '
                '"max_derived": null}')
        response = run_with_server(scenario)
        assert response["ok"] and response["answers"] == []


class TestBudgetsAndDeadlines:
    def test_request_timeout_maps_to_budget(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port,
                              retry=RetryPolicy(attempts=1)) as client:
                with pytest.raises(RequestTimeout):
                    await client.query("X : employee, Y : employee, "
                                       "Z : employee", timeout_ms=0)
        run_with_server(scenario)

    def test_max_timeout_ms_caps_requests(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port,
                              retry=RetryPolicy(attempts=1)) as client:
                with pytest.raises(RequestTimeout):
                    await client.query("X : employee",
                                       timeout_ms=60_000)
                assert (await client.stats())["budget_stops"] == 1
        run_with_server(scenario, max_timeout_ms=0.0)

    def test_disconnect_cancels_inflight_budget(self):
        async def scenario(server):
            host, port = server.address
            release = asyncio.Event()
            seen = {}

            real = server._run_query

            def gated(text, variables, limit, budget):
                seen["budget"] = budget
                # Block the worker until the main task saw the drop.
                asyncio.run_coroutine_threadsafe(
                    release.wait(), loop).result(timeout=5)
                return real(text, variables, limit, budget)

            loop = asyncio.get_running_loop()
            server._run_query = gated
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(protocol.encode_frame(
                {"op": "query", "query": "X : employee"}))
            await writer.drain()
            while "budget" not in seen:
                await asyncio.sleep(0.005)
            writer.close()        # client vanishes mid-request
            while not seen["budget"].cancelled:
                await asyncio.sleep(0.005)
            release.set()
            while server.stats.disconnect_cancels == 0:
                await asyncio.sleep(0.005)
            assert seen["budget"].cancelled
        run_with_server(scenario)

    def test_writes_maintain_memos_built_under_a_request_deadline(self):
        # The memo's first read ran under the server's default deadline;
        # a write long after that deadline still maintains the memo
        # instead of dropping every memo.
        from repro.datasets.genealogy import chain_family, desc_rules

        db, _ = chain_family(20)

        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                await client.query("c2[desc ->> {Y}]", ["Y"])
                await asyncio.sleep(0.3)
                applied = await client.write(
                    [["+set", "kids", "c19", [], "tail"]])
                answers = (await client.query("c2[desc ->> {Y}]",
                                              ["Y"]))["answers"]
                return (applied["maintenance"], server.stats.memo_resets,
                        {a["Y"] for a in answers})

        maintenance, resets, answers = run_with_server(
            scenario, db=db, program=desc_rules(), default_timeout_ms=200)
        assert maintenance == {"maintained": 1, "evicted": 0}
        assert resets == 0
        assert "tail" in answers


class TestOverloadAndDrain:
    def test_sheds_with_retry_after_when_queue_full(self):
        async def scenario(server):
            host, port = server.address
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            real = server._run_query

            def slow(text, variables, limit, budget):
                asyncio.run_coroutine_threadsafe(
                    release.wait(), loop).result(timeout=5)
                return real(text, variables, limit, budget)

            server._run_query = slow

            async def one():
                async with Client(host, port,
                                  retry=RetryPolicy(attempts=1)) as c:
                    return await c.query("X : employee", ["X"])

            # 1 running + 1 queued fill the server; the rest shed.
            tasks = [asyncio.create_task(one()) for _ in range(6)]
            while server.stats.shed + server._admission.inflight \
                    + server._admission.waiting < 6:
                await asyncio.sleep(0.005)
            release.set()
            results = await asyncio.gather(*tasks,
                                           return_exceptions=True)
            shed = [r for r in results if isinstance(r, Overloaded)]
            served = [r for r in results if isinstance(r, dict)]
            assert len(shed) == 4 and len(served) == 2
            assert all(s.retry_after_ms > 0 for s in shed)
            assert (await (await Client(host, port).connect()).stats()
                    )["shed"] == 4
        run_with_server(scenario, max_inflight=1, max_queue=1)

    def test_client_retries_through_overload(self):
        async def scenario(server):
            host, port = server.address
            release = asyncio.Event()
            loop = asyncio.get_running_loop()
            real = server._run_query

            def slow(text, variables, limit, budget):
                asyncio.run_coroutine_threadsafe(
                    release.wait(), loop).result(timeout=5)
                return real(text, variables, limit, budget)

            server._run_query = slow
            blocker_task = asyncio.create_task((
                Client(host, port).connect()))
            blocker = await blocker_task
            first = asyncio.create_task(
                blocker.query("X : employee", ["X"]))
            while server._admission.inflight == 0:
                await asyncio.sleep(0.005)
            # Queue is 0-deep: the next request sheds, then succeeds
            # on retry once the blocker finishes.
            retrier = Client(host, port, retry=RetryPolicy(
                attempts=6, base_ms=5.0, rng=random.Random(7)))
            await retrier.connect()
            second = asyncio.create_task(
                retrier.query("X : employee", ["X"]))
            while server.stats.shed == 0:
                await asyncio.sleep(0.005)
            release.set()
            res = await second
            assert [a["X"] for a in res["answers"]] == \
                ["p0", "p1", "p2"]
            assert retrier.retries > 0
            await first
            await blocker.close()
            await retrier.close()
        run_with_server(scenario, max_inflight=1, max_queue=0)

    def test_graceful_drain_answers_inflight_rejects_new(self):
        async def scenario(server):
            host, port = server.address
            client = await Client(host, port).connect()
            res = await client.shutdown()
            assert res["draining"]
            await server.serve_forever()
            assert server.draining
            # New connections are refused once the listener closed.
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection(host, port)
            await client.close()
        run_with_server(scenario)

    def test_draining_server_rejects_queries_retryably(self):
        async def scenario(server):
            host, port = server.address
            client = await Client(host, port,
                                  retry=RetryPolicy(attempts=1)
                                  ).connect()
            server._draining = True   # drain without closing the socket
            try:
                with pytest.raises(Exception) as info:
                    await client.query("X : employee")
                assert "shutting_down" in str(info.value)
                assert (await client.health())["status"] == "draining"
            finally:
                server._draining = False
                await client.close()
        run_with_server(scenario)


class TestServerFaultPoints:
    def test_accept_fault_costs_one_connection(self):
        async def scenario(server):
            host, port = server.address
            with inject("server.accept", nth=1):
                doomed = await Client(host, port).connect()
                with pytest.raises(ConnectionLost):
                    await doomed.request({"op": "health"})
            async with Client(host, port) as client:
                assert (await client.health())["status"] == "ok"
        run_with_server(scenario)

    def test_dispatch_fault_answers_internal_and_survives(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                with inject("server.dispatch", nth=1):
                    with pytest.raises(RequestError) as info:
                        await client.query("X : employee")
                    assert "InjectedFault" in str(info.value)
                res = await client.query("X : employee", ["X"])
                assert len(res["answers"]) == 3
                assert server.stats.internal_errors == 1
        run_with_server(scenario)

    def test_maintain_fault_rolls_back_and_survives(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                with inject("server.maintain", nth=1):
                    with pytest.raises(RequestError) as info:
                        await client.write(
                            [["+isa", "p9", "employee"]])
                    assert "rolled back" in str(info.value)
                answers = (await client.query("X : employee",
                                              ["X"]))["answers"]
                assert [a["X"] for a in answers] == ["p0", "p1", "p2"]
                applied = await client.write(
                    [["+isa", "p9", "employee"]])
                assert applied["applied"] == 1
        run_with_server(scenario)

    def test_respond_fault_drops_connection_not_server(self):
        async def scenario(server):
            host, port = server.address
            doomed = await Client(host, port).connect()
            with inject("server.respond", nth=1):
                with pytest.raises(ConnectionLost):
                    await doomed.request({"op": "health"})
            async with Client(host, port) as client:
                assert (await client.health())["status"] == "ok"
        run_with_server(scenario)


class TestRetryPolicy:
    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(base_ms=10.0, cap_ms=100.0,
                             rng=random.Random(0))
        delays = [policy.delay_ms(a) for a in range(6)]
        assert all(5.0 <= d <= 100.0 for d in delays)
        assert max(delays) <= 100.0

    def test_retry_after_hint_overrides_exponential(self):
        policy = RetryPolicy(base_ms=10.0, rng=random.Random(0))
        hinted = policy.delay_ms(0, retry_after_ms=500.0)
        assert 250.0 <= hinted <= 500.0

    def test_seeded_rng_replays_the_schedule(self):
        a = RetryPolicy(rng=random.Random(42))
        b = RetryPolicy(rng=random.Random(42))
        assert [a.delay_ms(i) for i in range(4)] == \
            [b.delay_ms(i) for i in range(4)]


class TestSitesRegistry:
    def test_registry_matches_planted_sites(self):
        import pathlib
        import re

        from repro.testing.faults import SITES

        src = pathlib.Path("src/repro")
        planted = set()
        for path in src.rglob("*.py"):
            text = path.read_text()
            planted.update(re.findall(r'fault_point\("([^"]+)"\)', text))
            # The stratum loop's per-round site is named by its caller.
            planted.update(re.findall(r'\bsite="([^"]+)"', text))
        assert planted == SITES


class TestDurableServer:
    def test_writes_survive_restart(self, tmp_path):
        data_dir = str(tmp_path / "data")

        async def write_round(server):
            host, port = server.address
            async with Client(host, port) as client:
                await client.write([["+isa", "d1", "employee"],
                                    ["+scalar", "age", "d1", [], 41]])
                res = await client.query("X : employee", ["X"])
                return sorted(a["X"] for a in res["answers"])

        async def read_round(server):
            host, port = server.address
            async with Client(host, port) as client:
                res = await client.query("X : employee", ["X"])
                stats = await client.stats()
                return (sorted(a["X"] for a in res["answers"]),
                        stats["durability"])

        before = run_with_server(write_round, data_dir=data_dir)
        # Restart with an EMPTY seed: the recovered state must win.
        after, durability = run_with_server(read_round, db=Database(),
                                            data_dir=data_dir)
        assert before == after == ["d1", "p0", "p1", "p2"]
        assert durability["recovered_entries"] >= 2
        assert durability["truncated_tail"] == 0

    def test_one_cursor_numbers_a_state_across_restarts(self, tmp_path):
        data_dir = tmp_path / "data"

        async def first_life(server):
            host, port = server.address
            async with Client(host, port) as client:
                for name in ("a", "b", "c"):
                    await client.write([["+isa", name, "thing"]])

        async def positions(client):
            """Every cursor the server reports for its current state."""
            answer = await client.query("X : thing", ["X"])
            snapshot = await client.request({"op": "repl.snapshot"})
            stats = await client.stats()
            return {answer["cursor"], snapshot["cursor"],
                    snapshot["snapshot"]["snapshot"]["cursor"],
                    stats["durability"]["durable_cursor"],
                    snapshot_files(data_dir)[0][0]}

        async def second_life(server):
            host, port = server.address
            db = server.database
            async with Client(host, port) as client:
                assert db.change_log.cursor() == 3  # the recovered cursor
                await client.write([["+isa", "d", "thing"]])
                server.store.checkpoint()
                after_restart = await positions(client)
                # An alias rebinding cannot be journalled: the next
                # commit checkpoints, and a new log epoch continues
                # from the snapshot's cursor.
                epoch = db.change_log.epoch
                db.alias("first", db.obj("a"))
                await client.write([["+isa", "e", "thing"]])
                assert db.change_log.epoch != epoch
                after_disruption = await positions(client)
                await client.write([["+isa", "f", "thing"]])
                durable = (await client.stats())["durability"]
            return after_restart, after_disruption, durable

        run_with_server(first_life, data_dir=str(data_dir))
        after_restart, after_disruption, durable = run_with_server(
            second_life, db=Database(), data_dir=str(data_dir))
        assert after_restart == {4}
        assert after_disruption == {5}
        assert durable["durable_cursor"] == 6
        result = recover(data_dir)
        assert result.cursor == 6
        assert result.database._aliases["first"] == NamedOid("a")

    def test_stats_report_durability(self, tmp_path):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                await client.write([["+isa", "x", "c"]])
                stats = await client.stats()
            durability = stats["durability"]
            assert durability["fsync"] == "batch"
            assert durability["wal_batches"] == 1
            assert durability["wal_entries"] == 1
            assert durability["wal_syncs"] >= 1
            assert durability["wal_size"] > 0
            assert durability["checkpoints"] >= 1  # the open checkpoint
            assert durability["data_dir"] == str(tmp_path / "d")
        run_with_server(scenario, data_dir=str(tmp_path / "d"))

    def test_memory_server_reports_no_durability(self):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                stats = await client.stats()
            assert stats["durability"] is None
        run_with_server(scenario)

    def test_failed_batch_leaves_wal_clean(self, tmp_path):
        data_dir = str(tmp_path / "data")

        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                await client.write([["+isa", "good", "c"]])
                with pytest.raises(RequestError):
                    # Conflict on p0's age after one applied change:
                    # the whole batch rolls back, including its WAL
                    # trace.
                    await client.write([["+isa", "bad", "c"],
                                        ["+scalar", "age", "p0", [], 0]])
                res = await client.query("X : c", ["X"])
                assert [a["X"] for a in res["answers"]] == ["good"]
        run_with_server(scenario, data_dir=data_dir)

        from repro.oodb.checkpoint import recover
        result = recover(tmp_path / "data")
        assert result.database.hierarchy.isa(
            result.database.obj("good"), result.database.obj("c"))
        assert not result.database.hierarchy.isa(
            result.database.obj("bad"), result.database.obj("c"))

    def test_injected_maintain_fault_repairs_wal(self, tmp_path):
        data_dir = str(tmp_path / "data")

        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                await client.write([["+isa", "before", "c"]])
                with inject("wal.fsync", nth=1):
                    with pytest.raises(ServerError):
                        await client.write([["+isa", "lost", "c"]])
                # The server survives and accepts the retry.
                await client.write([["+isa", "after", "c"]])
                res = await client.query("X : c", ["X"])
                assert sorted(a["X"] for a in res["answers"]) == \
                    ["after", "before"]
        run_with_server(scenario, data_dir=data_dir)

        from repro.oodb.checkpoint import recover
        result = recover(tmp_path / "data")
        db = result.database
        assert db.hierarchy.isa(db.obj("before"), db.obj("c"))
        assert db.hierarchy.isa(db.obj("after"), db.obj("c"))
        assert not db.hierarchy.isa(db.obj("lost"), db.obj("c"))

    def test_background_checkpoint_by_wal_size(self, tmp_path):
        async def scenario(server):
            host, port = server.address
            async with Client(host, port) as client:
                for index in range(20):
                    await client.write(
                        [["+isa", f"w{index}", "c"]])
                for _ in range(200):
                    if server.stats.checkpoints >= 1:
                        break
                    await asyncio.sleep(0.01)
                stats = await client.stats()
            assert stats["checkpoints"] >= 1
        run_with_server(scenario, data_dir=str(tmp_path / "data"),
                        checkpoint_bytes=256,
                        checkpoint_interval_ms=10.0)
