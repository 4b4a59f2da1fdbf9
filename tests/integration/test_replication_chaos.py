"""Chaos: replicas are never wrong, only stale.

Seeded fault storms fire across the replication path -- the subscribe
handshake and batch shipping on the primary (``repl.subscribe`` /
``repl.ship``), snapshot bootstrap and batch application on the
replica (``repl.bootstrap`` / ``repl.apply``) -- plus the ordinary
server stages, while a writer streams atomic pair-batches into the
primary and readers hammer the replica.  Whatever the schedule kills:

* **never wrong**: every answer a replica returned is *exactly* the
  scratch derivation over the primary's change-log prefix at the
  ``primary_cursor`` the answer was proven at -- stale is allowed,
  divergent is not;
* **only whole batches**: no replica answer tears a pair (shipping
  stops at committed-batch boundaries; a faulted apply rolls the whole
  span back);
* **convergence**: once the storm lifts, the replica catches up to the
  primary's head and both serve identical answers, and a primary
  *restart* (new change-log epoch) forces a full re-bootstrap that
  converges to identical ``Query.objects`` denotations.

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
from repro.testing import inject, inject_random
from repro.testing.faults import SITES

pytestmark = pytest.mark.property

RULES = """
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
"""

QUERY = "peter[desc ->> {X}]"

#: The replication path plus the ordinary serving stages on both ends.
REPL_SITES = tuple(sorted(
    site for site in SITES
    if site.startswith(("repl.", "server."))))


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
    for i in range(6):
        assert (f"c{i}" in answers) == (f"g{i}" in answers), (
            f"torn replica snapshot: {sorted(answers)}")


def replica_config(primary):
    host, port = primary.address
    return ServerConfig(port=0, replica_of=f"{host}:{port}",
                        repl_poll_ms=20.0, repl_retry_base_ms=5.0,
                        repl_retry_cap_ms=50.0)


def answers_at(program, entries):
    """Unfaulted scratch derivation over a primary log prefix."""
    oracle = seeded_db()
    for sign, fact in entries:
        oracle.apply_entry(sign, fact)
    scratch = Query(oracle.clone(), program=program)
    return frozenset(a.values_dict()["X"] for a in scratch.all(QUERY))


async def wait_until(predicate, timeout=15.0, message="condition"):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        await asyncio.sleep(0.02)


async def replica_reader(host, port, rounds, observed):
    """Read the replica, recording (proof cursor, answer) pairs."""
    for _ in range(rounds):
        try:
            async with Client(host, port,
                              retry=RetryPolicy(attempts=2,
                                                base_ms=1.0)) as client:
                response = await client.query(QUERY, timeout_ms=2_000)
                observed.append((
                    response["primary_cursor"],
                    frozenset(a["X"] for a in response["answers"])))
        except ClientError:
            pass  # faulted/stale; the never-wrong check is below
        await asyncio.sleep(0)


async def primary_writer(host, port, batches):
    for batch in batches:
        try:
            async with Client(host, port,
                              retry=RetryPolicy(attempts=2,
                                                base_ms=1.0)) as client:
                await client.write(batch)
        except ClientError:
            pass  # rolled back on the primary; prefix oracles still hold
        await asyncio.sleep(0)


@given(seed=st.integers(0, 2 ** 16),
       rate=st.sampled_from((0.02, 0.1)))
@settings(max_examples=6, deadline=None)
def test_replica_is_never_wrong_only_stale(seed, rate):
    db = seeded_db()
    program = parse_program(RULES)
    observed = []
    post = {}

    async def main():
        async with Server(db, program=program,
                          config=ServerConfig(port=0)) as primary:
            # Pin the primary's log at 0 so ``entries[:cursor]`` keeps
            # addressing absolute cursors for the oracle replay below.
            anchor = db.held_changes(cursor=0)
            async with Server(Database(), program=program,
                              config=replica_config(primary)) as replica:
                rhost, rport = replica.address
                phost, pport = primary.address
                with inject_random(seed=seed, rate=rate,
                                   sites=REPL_SITES):
                    await asyncio.gather(
                        primary_writer(phost, pport, pair_batches()),
                        *(replica_reader(rhost, rport, 4, observed)
                          for _ in range(4)))
                # Storm over: the stream must converge to the head.
                head = db.change_log.cursor()
                await wait_until(
                    lambda: replica.replicator.applied == head,
                    message="replica catch-up")
                async with Client(rhost, rport) as client:
                    response = await client.query(QUERY)
                    observed.append((
                        response["primary_cursor"],
                        frozenset(a["X"] for a in response["answers"])))
                    health = await client.health()
                    assert health["role"] == "replica"
                    assert health["applied_cursor"] == head
                post["entries"] = list(db.change_log.entries)
                post["rollbacks"] = replica.stats.rollbacks
                post["reboots"] = replica.stats.repl_rebootstraps
            anchor.release()

    asyncio.run(main())

    # Never wrong: each observed answer is exactly the unfaulted
    # derivation at its proof cursor -- and never a torn pair.
    entries = post["entries"]
    oracles = {}
    for cursor, answers in observed:
        assert_untorn(answers)
        if cursor not in oracles:
            oracles[cursor] = answers_at(program, entries[:cursor])
        assert answers == oracles[cursor], (
            f"replica diverged at cursor {cursor}")
    # The final (converged) observation is the full-log derivation.
    final_cursor, final_answers = observed[-1]
    assert final_cursor == len(entries)
    assert final_answers == answers_at(program, entries)


@given(seed=st.integers(0, 2 ** 16))
@settings(max_examples=5, deadline=None)
def test_apply_faults_roll_replica_batches_back_whole(seed):
    """Aim the storm at ``repl.apply`` alone at a brutal rate: every
    faulted application rolls the whole span back (the replica's log
    never holds half a shipped batch) and the stream still converges
    once the plan lifts."""
    db = seeded_db()
    program = parse_program(RULES)
    post = {}

    async def main():
        async with Server(db, program=program,
                          config=ServerConfig(port=0)) as primary:
            phost, pport = primary.address
            async with Server(Database(), program=program,
                              config=replica_config(primary)) as replica:
                with inject_random(seed=seed, rate=0.5,
                                   sites=("repl.apply",)) as plan:
                    async with Client(phost, pport) as writer:
                        for batch in pair_batches():
                            await writer.write(batch)
                    # Let the storm chew on the stream for a while;
                    # every faulted apply must roll back cleanly.
                    await asyncio.sleep(0.3)
                    post["hits"] = plan.counts.get("repl.apply", 0)
                head = db.change_log.cursor()
                await wait_until(
                    lambda: replica.replicator.applied == head,
                    message="replica catch-up after apply faults")
                rhost, rport = replica.address
                async with Client(rhost, rport) as client:
                    response = await client.query(QUERY)
                    post["answers"] = frozenset(
                        a["X"] for a in response["answers"])
                post["rollbacks"] = replica.stats.rollbacks
                # The replica's own log ends exactly at the applied
                # cursor: a torn apply would leave a dangling suffix.
                rlog = replica.database.change_log
                assert rlog.in_sync(replica.database.data_version(),
                                    rlog.cursor())

    asyncio.run(main())

    assert post["hits"] > 0, "the storm never crossed repl.apply"
    assert_untorn(post["answers"])
    scratch = Query(db.clone(), program=program)
    assert post["answers"] == frozenset(
        a.values_dict()["X"] for a in scratch.all(QUERY))
    # (The seeded schedule may not have *fired* at any crossing --
    # post["rollbacks"] can be zero; the guaranteed-rollback case is
    # the targeted test below.)


def test_a_targeted_apply_fault_rolls_back_then_recovers():
    """Deterministically kill the replica's first apply: the whole
    span rolls back (one counted rollback, nothing half-applied) and
    the retry converges to the primary's exact answer."""
    db = seeded_db()
    program = parse_program(RULES)
    post = {}

    async def main():
        async with Server(db, program=program,
                          config=ServerConfig(port=0)) as primary:
            phost, pport = primary.address
            async with Server(Database(), program=program,
                              config=replica_config(primary)) as replica:
                # nth=2: the first entry of the pair lands, then the
                # fault -- the rollback must undo the landed entry too.
                with inject("repl.apply", nth=2):
                    async with Client(phost, pport) as writer:
                        await writer.write(
                            [["+set", "kids", "peter", [], "c0"],
                             ["+set", "kids", "c0", [], "g0"]])
                    await wait_until(
                        lambda: replica.stats.rollbacks >= 1,
                        message="the injected apply fault")
                head = db.change_log.cursor()
                await wait_until(
                    lambda: replica.replicator.applied == head,
                    message="retry after the rollback")
                rhost, rport = replica.address
                async with Client(rhost, rport) as client:
                    response = await client.query(QUERY)
                    post["answers"] = frozenset(
                        a["X"] for a in response["answers"])
                post["rollbacks"] = replica.stats.rollbacks
                post["applied"] = replica.stats.repl_entries_applied

    asyncio.run(main())

    assert post["rollbacks"] == 1
    assert {"c0", "g0"} <= post["answers"]
    assert_untorn(post["answers"])
    # The retried batch landed once, not twice.
    assert post["applied"] == 2


@given(seed=st.integers(0, 3))
@settings(max_examples=4, deadline=None)
def test_primary_restart_forces_rebootstrap_and_convergence(seed):
    """Kill the primary and bring up a *different* one on the same
    port: the fresh change-log epoch makes the replica's cursors
    unservable, so it must fully re-bootstrap -- and it converges to
    the new primary's exact denotations."""
    program = parse_program(RULES)
    post = {}

    async def main():
        first = seeded_db()
        primary = await Server(first, program=program,
                               config=ServerConfig(port=0)).start()
        host, port = primary.address
        replica = await Server(Database(), program=program,
                               config=replica_config(primary)).start()
        try:
            async with Client(host, port) as writer:
                await writer.write(
                    [["+set", "kids", "peter", [], "early"],
                     ["+set", "kids", "early", [], "bird"]])
            await wait_until(
                lambda: replica.replicator.applied == 2,
                message="pre-restart catch-up")
            await primary.shutdown()

            # A different world on the same address: seeded base plus
            # a divergent write the replica has never seen.
            second = seeded_db()
            kids = second.obj("kids")
            second.assert_set_member(kids, second.obj("peter"), (),
                                     second.obj(f"reborn{seed}"))
            primary = await Server(second, program=program,
                                   config=ServerConfig(
                                       host=host, port=port)).start()
            await wait_until(
                lambda: replica.stats.repl_rebootstraps >= 1,
                message="re-bootstrap after primary restart")
            async with Client(host, port) as writer:
                await writer.write(
                    [["+set", "kids", "peter", [], "late"],
                     ["+set", "kids", "late", [], "comer"]])
            head = second.change_log.cursor()
            await wait_until(
                lambda: replica.replicator.applied == head,
                message="post-restart catch-up")

            # Identical denotations, computed scratch on both sides.
            wanted = Query(second.clone(),
                           program=program).objects("peter..desc")
            got = Query(replica.database.clone(),
                        program=program).objects("peter..desc")
            assert got == wanted
            names = {oid.value for oid in got}
            assert f"reborn{seed}" in names and "comer" in names
            assert "early" not in names  # the old epoch's world is gone
            rhost, rport = replica.address
            async with Client(rhost, rport) as client:
                post["answers"] = frozenset(
                    a["X"] for a in (await client.query(QUERY))["answers"])
                post["stats"] = await client.stats()
        finally:
            await replica.shutdown()
            await primary.shutdown()

    asyncio.run(main())

    assert "late" in post["answers"] and "early" not in post["answers"]
    assert post["stats"]["replication"]["role"] == "replica"
    assert post["stats"]["repl_rebootstraps"] >= 1
