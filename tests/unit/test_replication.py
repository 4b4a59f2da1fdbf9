"""Unit tests of change-log-shipping replication.

Hub arithmetic (subscribe/ship/ack, lease pinning, epoch rotation) is
tested directly; the replica pull loop end-to-end against a real
primary on an ephemeral port; and the duplicate-skip / cursor-gap
logic by hand-feeding the replicator scripted primary responses.
Chaos (fault storms, restarts, convergence oracles) lives in
tests/integration/test_replication_chaos.py.
"""

import asyncio

import pytest

from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.oodb.serialize import encode_fact
from repro.server import (
    Client,
    ConnectionLost,
    ReadOnly,
    ReplicaStale,
    ReplicationHub,
    RequestError,
    ResyncNeeded,
    ResyncRequired,
    Server,
    ServerConfig,
    parse_endpoint,
)

RULES = """
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
"""

QUERY = "peter[desc ->> {X}]"


def seeded_db():
    db = Database()
    kids = db.obj("kids")
    db.assert_set_member(kids, db.obj("peter"), (), db.obj("tim"))
    db.assert_set_member(kids, db.obj("tim"), (), db.obj("tom"))
    return db


def grow(db, count, start=0):
    """Append ``count`` child facts; returns the batch as wire changes."""
    kids = db.obj("kids")
    for i in range(start, start + count):
        db.assert_set_member(kids, db.obj("peter"), (), db.obj(f"x{i}"))


class TestParseEndpoint:
    def test_host_port(self):
        assert parse_endpoint("10.0.0.7:7407") == ("10.0.0.7", 7407)

    def test_bare_colon_defaults_the_host(self):
        assert parse_endpoint(":7407") == ("127.0.0.1", 7407)

    @pytest.mark.parametrize("bad", ["7407", "host:", "host:nan", ""])
    def test_malformed_raises(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


class TestReplicationHub:
    def make(self):
        db = seeded_db()
        db.begin_changes()
        return db, ReplicationHub(db)

    def test_subscribe_at_head_then_ship_new_entries(self):
        db, hub = self.make()
        sub = hub.subscribe(None)
        assert sub.cursor == 0
        grow(db, 2)
        entries, head = hub.ship(sub, sub.cursor)
        assert head == 2
        assert len(entries) == 2
        # Entries are the live realizer-log shapes; they encode.
        for sign, fact in entries:
            assert sign == "+"
            encode_fact(fact)

    def test_subscription_lease_pins_against_trimming(self):
        db, hub = self.make()
        sub = hub.subscribe(0)
        grow(db, 3)
        db.catalog()
        db.trim_changes()
        # Unshipped entries survive: the lease is the low-water mark.
        assert db.change_log.offset == 0
        entries, _ = hub.ship(sub, 0)
        assert len(entries) == 3

    def test_ack_advances_the_lease_so_trimming_reclaims(self):
        db, hub = self.make()
        sub = hub.subscribe(0)
        grow(db, 3)
        hub.ack(sub, 2)
        db.catalog()
        db.trim_changes()
        assert db.change_log.offset == 2
        # The acked position still ships the suffix.
        entries, head = hub.ship(sub, 2)
        assert len(entries) == 1 and head == 3
        # Acks never move backwards.
        hub.ack(sub, 1)
        assert sub.cursor == 2

    def test_trimmed_past_cursor_answers_resync(self):
        db, hub = self.make()
        sub = hub.subscribe(0)
        grow(db, 3)
        hub.ack(sub, 3)
        db.catalog()
        db.trim_changes()
        with pytest.raises(ResyncNeeded):
            hub.ship(sub, 0)

    def test_subscribe_outside_the_servable_window_resyncs(self):
        db, hub = self.make()
        grow(db, 3)
        with pytest.raises(ResyncNeeded):
            hub.subscribe(99)           # past the head
        held = hub.subscribe(3)
        hub.ack(held, 3)
        db.catalog()
        db.trim_changes()
        with pytest.raises(ResyncNeeded):
            hub.subscribe(1)            # below the trim horizon
        assert hub.subscribe(3).cursor == 3

    def test_wrong_log_epoch_resyncs(self):
        db, hub = self.make()
        with pytest.raises(ResyncNeeded):
            hub.subscribe(0, log_id="not-this-epoch")
        sub = hub.subscribe(0, log_id=db.change_log.epoch)
        assert hub.get(sub.id) is sub

    def test_log_replacement_rotates_the_epoch_and_drops_subs(self):
        db, hub = self.make()
        sub = hub.subscribe(0)
        old_epoch = db.change_log.epoch
        db.change_log.disrupt("test")
        db.begin_changes()              # fresh log object
        with pytest.raises(ResyncNeeded):
            hub.ship(sub, 0)
        assert db.change_log.epoch != old_epoch
        assert hub.get(sub.id) is None
        # Old leases died with the drop: the fresh log trims freely.
        grow(db, 1)
        db.catalog()
        db.trim_changes()
        assert db.change_log.offset == db.change_log.cursor()

    def test_drop_releases_the_lease(self):
        db, hub = self.make()
        sub = hub.subscribe(0)
        grow(db, 2)
        hub.drop(sub.id)
        db.catalog()
        db.trim_changes()
        assert db.change_log.offset == 2
        assert hub.get(sub.id) is None
        hub.drop(sub.id)                # idempotent

    def test_replicas_reports_cursor_and_lag(self):
        db, hub = self.make()
        sub = hub.subscribe(0)
        grow(db, 4)
        hub.ack(sub, 1)
        (report,) = hub.replicas()
        assert report["sub"] == sub.id
        assert report["cursor"] == 1
        assert report["lag"] == 3


async def start_pair(*, program=None, max_lag=None, poll_ms=25.0):
    db = seeded_db()
    primary = await Server(db, program=program,
                           config=ServerConfig(port=0)).start()
    host, port = primary.address
    replica = await Server(Database(), program=program,
                           config=ServerConfig(
                               port=0, replica_of=f"{host}:{port}",
                               max_lag=max_lag,
                               repl_poll_ms=poll_ms)).start()
    return primary, replica


async def wait_for_cursor(replica, cursor, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while replica.replicator.applied < cursor:
        if loop.time() >= deadline:
            raise AssertionError(
                f"replica stuck at {replica.replicator.applied}, "
                f"wanted {cursor}")
        await asyncio.sleep(0.01)


async def answers_of(client, query=QUERY):
    response = await client.query(query)
    return frozenset(a["X"] for a in response["answers"]), response


class TestReplicaServer:
    def test_bootstrap_then_streamed_batches_reach_reads(self):
        program = parse_program(RULES)

        async def main():
            primary, replica = await start_pair(program=program)
            try:
                phost, pport = primary.address
                rhost, rport = replica.address
                async with Client(phost, pport) as pc, \
                        Client(rhost, rport) as rc:
                    base, _ = await answers_of(rc)
                    assert base == {"tim", "tom"}
                    await pc.write([["+set", "kids", "tom", [], "jerry"]])
                    await wait_for_cursor(replica, 1)
                    got, response = await answers_of(rc)
                    assert got == {"tim", "tom", "jerry"}
                    # The staleness proof rides every replica answer.
                    assert response["primary_cursor"] == 1
                    assert response["staleness"]["entries"] == 0
                    # in_sync arithmetic holds on the replica's log.
                    log = replica.database.change_log
                    assert log.in_sync(response["version"],
                                       response["cursor"])
            finally:
                await replica.shutdown()
                await primary.shutdown()

        asyncio.run(main())

    def test_replica_refuses_writes_and_repl_ops(self):
        async def main():
            primary, replica = await start_pair()
            try:
                rhost, rport = replica.address
                async with Client(rhost, rport) as rc:
                    with pytest.raises(ReadOnly) as exc_info:
                        await rc.request(
                            {"op": "write",
                             "changes": [["+isa", "a", "b"]]})
                    assert not exc_info.value.retryable
                    with pytest.raises(RequestError):
                        await rc.request({"op": "repl.snapshot"})
            finally:
                await replica.shutdown()
                await primary.shutdown()

        asyncio.run(main())

    def test_max_lag_sheds_reads_with_typed_stale(self):
        async def main():
            primary, replica = await start_pair(max_lag=0)
            try:
                rhost, rport = replica.address
                async with Client(rhost, rport) as rc:
                    # Caught up: reads pass.
                    await rc.request({"op": "query", "query": QUERY})
                    # Pretend the primary ran ahead: the next read
                    # sheds with the retryable staleness contract.
                    replica.replicator.head += 5
                    with pytest.raises(ReplicaStale) as exc_info:
                        await rc.request({"op": "query", "query": QUERY})
                    err = exc_info.value
                    assert err.retryable
                    assert err.retry_after_ms is not None
                    assert replica.stats.stale_sheds == 1
            finally:
                await replica.shutdown()
                await primary.shutdown()

        asyncio.run(main())

    def test_health_and_stats_expose_roles_and_cursors(self):
        async def main():
            primary, replica = await start_pair()
            try:
                phost, pport = primary.address
                rhost, rport = replica.address
                async with Client(phost, pport) as pc, \
                        Client(rhost, rport) as rc:
                    await pc.write([["+set", "kids", "peter", [], "c"]])
                    await wait_for_cursor(replica, 1)
                    phealth = await pc.health()
                    assert phealth["role"] == "primary"
                    assert phealth["connected_replicas"] == 1
                    pstats = await pc.stats()
                    repl = pstats["replication"]
                    assert repl["role"] == "primary"
                    (sub,) = repl["replicas"]
                    assert sub["cursor"] == 1
                    rhealth = await rc.health()
                    assert rhealth["role"] == "replica"
                    assert rhealth["applied_cursor"] == 1
                    rstats = await rc.stats()
                    assert rstats["replication"]["role"] == "replica"
                    assert rstats["replication"]["connected"]
                    assert rstats["repl_batches_applied"] >= 1
                    assert rstats["repl_entries_applied"] == 1
            finally:
                await replica.shutdown()
                await primary.shutdown()

        asyncio.run(main())

    def test_long_poll_ships_a_fresh_batch_promptly(self):
        async def main():
            db = seeded_db()
            async with Server(db, config=ServerConfig(port=0)) as primary:
                host, port = primary.address
                async with Client(host, port) as repl_link, \
                        Client(host, port) as writer:
                    sub = await repl_link.request(
                        {"op": "repl.subscribe", "cursor": 0})
                    loop = asyncio.get_running_loop()
                    started = loop.time()
                    batch_future = asyncio.ensure_future(
                        repl_link.request(
                            {"op": "repl.batch", "sub": sub["sub"],
                             "cursor": 0, "wait_ms": 30_000}))
                    await asyncio.sleep(0.05)
                    assert not batch_future.done()
                    await writer.write(
                        [["+set", "kids", "peter", [], "new"]])
                    batch = await asyncio.wait_for(batch_future, 5.0)
                    # Woken by the maintainer, not by the 30s timeout.
                    assert loop.time() - started < 10.0
                    assert batch["begin"] == 0
                    assert batch["cursor"] == 1
                    assert len(batch["entries"]) == 1

        asyncio.run(main())

    def test_dead_connection_drops_its_subscription_and_lease(self):
        async def main():
            db = seeded_db()
            async with Server(db, config=ServerConfig(port=0)) as primary:
                host, port = primary.address
                client = Client(host, port)
                await client.request({"op": "repl.subscribe", "cursor": 0})
                assert len(primary._hub.replicas()) == 1
                await client.close()
                for _ in range(200):
                    if not primary._hub.replicas():
                        break
                    await asyncio.sleep(0.01)
                assert primary._hub.replicas() == []
                # The lease died with the socket: fully trimmable.
                kids = db.obj("kids")
                db.assert_set_member(kids, db.obj("peter"), (),
                                     db.obj("zz"))
                db.catalog()
                primary.query.forget()
                db.trim_changes()
                log = db.change_log
                assert log.offset == log.cursor()

        asyncio.run(main())


    def test_a_log_disrupted_for_good_backs_rebootstraps_off(self):
        # An alias disrupts the primary's change log and nothing
        # replaces it: every subscribe answers resync_required.  The
        # first re-bootstrap is immediate, the ones after it back off
        # instead of fetching a snapshot in a tight loop.
        async def main():
            primary, replica = await start_pair()
            try:
                primary.database.alias("alias1", "peter")
                loop = asyncio.get_running_loop()
                started = loop.time()
                while replica.stats.repl_rebootstraps == 0:
                    assert loop.time() - started < 2.0
                    await asyncio.sleep(0.005)
                await asyncio.sleep(1.0)
                assert replica.stats.repl_rebootstraps <= 10
            finally:
                await replica.shutdown()
                await primary.shutdown()

        asyncio.run(main())

    def test_replica_of_a_restarted_primary_counts_in_its_cursors(
            self, tmp_path):
        data_dir = str(tmp_path / "data")

        async def main():
            config = ServerConfig(port=0, data_dir=data_dir)
            async with Server(seeded_db(), config=config) as first:
                async with Client(*first.address) as client:
                    for name in ("a", "b", "c"):
                        await client.write(
                            [["+set", "kids", "peter", [], name]])
            async with Server(Database(), config=config) as primary:
                host, port = primary.address
                replica = await Server(Database(), config=ServerConfig(
                    port=0, replica_of=f"{host}:{port}",
                    repl_poll_ms=25.0)).start()
                try:
                    assert replica.replicator.applied == 3
                    async with Client(host, port) as pc:
                        await pc.write([["+set", "kids", "peter", [], "d"]])
                        stats = await pc.stats()
                    durable = stats["durability"]["durable_cursor"]
                    assert durable == 4
                    await wait_for_cursor(replica, durable)
                    async with Client(*replica.address) as rc:
                        health = await rc.health()
                        got, _ = await answers_of(rc, "peter[kids ->> {X}]")
                    assert health["applied_cursor"] == durable
                    assert got == {"tim", "a", "b", "c", "d"}
                finally:
                    await replica.shutdown()

        asyncio.run(main())


class TestReplicationWireNumbers:
    """``repl.*`` numbers are checked where every op's are."""

    async def subscribed(self, primary):
        link = await Client(*primary.address).connect()
        sub = await link.request({"op": "repl.subscribe", "cursor": 0})
        return link, sub["sub"]

    def test_nan_wait_cannot_outlast_the_cap(self):
        async def main():
            config = ServerConfig(port=0, repl_wait_cap_ms=300.0)
            async with Server(seeded_db(), config=config) as primary:
                link, sub = await self.subscribed(primary)
                try:
                    with pytest.raises(ConnectionLost):
                        await asyncio.wait_for(link.request(
                            {"op": "repl.batch", "sub": sub, "cursor": 0,
                             "wait_ms": float("nan")}), 3.0)
                finally:
                    await link.close()
                assert primary.stats.internal_errors == 0

        asyncio.run(main())

    @pytest.mark.parametrize("op, fields", [
        ("repl.batch", {"wait_ms": "soon"}),
        ("repl.batch", {"wait_ms": -5}),
        ("repl.batch", {"wait_ms": 10 ** 400}),
        ("repl.batch", {"cursor": None}),
        ("repl.batch", {"cursor": "0"}),
        ("repl.batch", {"cursor": True}),
        ("repl.subscribe", {"cursor": -1}),
        ("repl.subscribe", {"cursor": 1.0}),
    ])
    def test_bad_numbers_answer_bad_request(self, op, fields):
        async def main():
            config = ServerConfig(port=0, repl_wait_cap_ms=300.0)
            async with Server(seeded_db(), config=config) as primary:
                link, sub = await self.subscribed(primary)
                try:
                    with pytest.raises(RequestError) as exc_info:
                        await link.request({"op": op, "sub": sub,
                                            "cursor": 0, **fields})
                finally:
                    await link.close()
                assert exc_info.value.code == "bad_request"
                assert primary.stats.internal_errors == 0

        asyncio.run(main())


class _ScriptedLink:
    """A fake primary connection: pops canned responses (or raises)."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    async def request(self, payload):
        self.requests.append(payload)
        outcome = self.responses.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    async def close(self):
        pass


def wire_entries(db, mutate):
    """Run ``mutate`` on a scratch clone and return its encoded log."""
    log = db.begin_changes()
    before = log.cursor()
    mutate(db)
    return [[sign, encode_fact(fact)] for sign, fact in log.since(before)]


class TestReplicatorPullLogic:
    """Duplicate-skip and gap detection, with scripted responses."""

    def drive(self, begin, entries, applied):
        """One `_pull_once` against a scripted batch response."""
        async def main():
            primary, replica = await start_pair()
            try:
                # Park the real pull loop; drive the replicator by hand.
                replica._repl_task.cancel()
                try:
                    await replica._repl_task
                except asyncio.CancelledError:
                    pass
                replicator = replica.replicator
                await replicator._disconnect()
                replicator.applied = applied
                replicator._sub = "r1"
                replicator._client = _ScriptedLink([
                    {"ok": True, "begin": begin, "entries": entries,
                     "cursor": begin + len(entries), "version": 0}])
                await replicator._pull_once()
                return replicator.applied, replica.stats
            finally:
                await replica.shutdown()
                await primary.shutdown()

        return asyncio.run(main())

    def sample_entries(self, count):
        return wire_entries(seeded_db(), lambda db: grow(db, count))

    def test_duplicate_prefix_is_skipped_idempotently(self):
        entries = self.sample_entries(3)
        # Replica already applied 2 of the 3: only the last lands.
        applied, stats = self.drive(0, entries, applied=2)
        assert applied == 3
        assert stats.repl_entries_applied == 1

    def test_fully_duplicate_batch_applies_nothing(self):
        entries = self.sample_entries(2)
        applied, stats = self.drive(0, entries, applied=2)
        assert applied == 2
        assert stats.repl_batches_applied == 0

    def test_cursor_gap_demands_a_resync(self):
        async def main():
            primary, replica = await start_pair()
            try:
                replica._repl_task.cancel()
                try:
                    await replica._repl_task
                except asyncio.CancelledError:
                    pass
                replicator = replica.replicator
                await replicator._disconnect()
                replicator._sub = "r1"
                replicator._client = _ScriptedLink([
                    {"ok": True, "begin": 5, "entries": [],
                     "cursor": 5, "version": 0}])
                with pytest.raises(ResyncNeeded):
                    await replicator._pull_once()
            finally:
                await replica.shutdown()
                await primary.shutdown()

        asyncio.run(main())

    def test_resync_required_response_demands_a_resync(self):
        async def main():
            primary, replica = await start_pair()
            try:
                replica._repl_task.cancel()
                try:
                    await replica._repl_task
                except asyncio.CancelledError:
                    pass
                replicator = replica.replicator
                await replicator._disconnect()
                replicator._sub = "r1"
                replicator._client = _ScriptedLink(
                    [ResyncRequired("resync_required", "trimmed past")])
                with pytest.raises(ResyncNeeded):
                    await replicator._pull_once()
            finally:
                await replica.shutdown()
                await primary.shutdown()

        asyncio.run(main())
