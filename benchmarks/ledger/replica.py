"""The ``replica-catchup`` workload: snapshot bootstrap + batch shipping.

A primary (``python -m repro serve``, no program) is preloaded with
change-log entries in batches.  One *op* spawns a replica
(``serve --replica-of``) and times it from spawn until its
``health.applied_cursor`` equals the primary's head.

``repl.snapshot`` is always cut at the primary's *head*, so a replica of
an idle primary would ship no batch at all.  To exercise shipping and
the all-or-nothing apply, the generator streams a second burst of
batches (inserts, then the matching deletes, so every op starts from
the same primary state) once the replica has bootstrapped, and then
only polls.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from pathlib import Path

from repro import Database
from repro.oodb import checkpoint, serialize
from repro.server import Client

from benchmarks.ledger import inputs
from benchmarks.ledger.library import MIN_REPEATS
from benchmarks.ledger.procs import ServerProcess, work_dir
from benchmarks.ledger.stats import latency_summary, median
from benchmarks.ledger.tracing import Tracer, span_of, summarise

#: How often the generator polls the replica's ``health``.
POLL_S = 0.02
#: The read both sides must agree on at the converged cursor.
CHECK_TEXT = "X[kids ->> {Y}]"


def stream_batches(scale) -> list[list]:
    """Insert ``stream_entries / 2`` facts, then delete them again."""
    inserts = inputs.preload_batches(scale, scale.preload_entries,
                                     scale.stream_entries // 2)
    deletes = [[["-set", *change[1:]] for change in batch]
               for batch in inserts]
    return inserts + deletes


class Primary:
    """The primary server plus the head cursor the generator tracks
    (the sum of every acknowledged batch's ``applied`` count)."""

    def __init__(self, directory: Path, stack: contextlib.ExitStack) -> None:
        directory.mkdir()
        self.directory = directory
        empty = directory / "empty.json"
        empty.write_text(serialize.dumps(Database()))
        self.server = stack.enter_context(ServerProcess(
            "--db", str(empty), log=directory / "primary.log"))
        self.head = 0

    async def write(self, client: Client, batches: list[list]) -> None:
        for batch in batches:
            response = await client.write(batch)
            self.head += response["applied"]

    def spawn_replica(self, stack: contextlib.ExitStack) -> ServerProcess:
        host, port = self.server.address
        return stack.enter_context(ServerProcess(
            "--replica-of", f"{host}:{port}",
            log=self.directory / "replica.log"))


async def _setup(scale, directory: Path, stack: contextlib.ExitStack):
    """Primary start + preload: ``setup_s``."""
    started = time.perf_counter()
    primary = Primary(directory, stack)
    client = await Client(*primary.server.address).connect()
    await primary.write(client, inputs.preload_batches(
        scale, 0, scale.preload_entries))
    return primary, client, time.perf_counter() - started


async def _applied(replica: Client) -> int:
    return (await replica.health())["applied_cursor"]


async def _catch_up(primary: Primary, client: Client, scale) -> dict:
    """One op; returns its timings, the replica's RSS, and whether the
    replica agreed with the primary at every checked point."""
    batches = stream_batches(scale)
    with contextlib.ExitStack() as stack:
        replica = primary.spawn_replica(stack)
        async with Client(*replica.address) as follower:
            # Bootstrap is over when the replica serves at the cursor
            # the snapshot was cut at -- the primary's head, idle now.
            bootstrapped = await _applied(follower) == primary.head
            bootstrap_s = time.perf_counter() - replica.spawned_at
            await primary.write(client, batches)
            while await _applied(follower) < primary.head:
                await asyncio.sleep(POLL_S)
            catchup_s = time.perf_counter() - replica.spawned_at
            same = (await follower.query(CHECK_TEXT))["answers"] \
                == (await client.query(CHECK_TEXT))["answers"]
            converged = await _applied(follower) == primary.head
            return {"catchup_s": catchup_s, "bootstrap_s": bootstrap_s,
                    "stream_s": catchup_s - bootstrap_s,
                    "ok": bootstrapped and same and converged,
                    "peak_rss_mb": replica.peak_rss_mb()}


async def _run(scale, seconds: float, work: Path,
               stack: contextlib.ExitStack) -> dict:
    setups = []
    for repeat in range(scale.setup_repeats):
        if repeat:
            await client.close()
            primary.server.kill()
        primary, client, setup_s = await _setup(
            scale, work / f"setup-{repeat}", stack)
        setups.append(setup_s)
    try:
        before = await client.stats()
        ops = []
        deadline = time.perf_counter() + seconds
        while len(ops) < MIN_REPEATS or time.perf_counter() < deadline:
            ops.append(await _catch_up(primary, client, scale))
        after = await client.stats()
    finally:
        await client.close()
    return {"setups": setups, "ops": ops, "stats": (before, after)}


def _serve(scale, seconds: float) -> dict:
    with work_dir() as work, contextlib.ExitStack() as stack:
        return asyncio.run(_run(scale, seconds, work, stack))


def measure(name: str, scale, seed: int, seconds: float) -> dict:
    # The workload has no random choice to make: batches, sizes and
    # names are fixed, so the seed has nothing to reach.
    outcome = _serve(scale, seconds)
    ops = outcome["ops"]
    catchups = [op["catchup_s"] for op in ops]
    summary = latency_summary([s * 1000.0 for s in catchups])
    return {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "metrics": {
            "setup_s": (median(outcome["setups"]), "s",
                        len(outcome["setups"])),
            "catchup_s": (median(catchups), "s", len(ops)),
            "op_p50_ms": (summary["p50"], "ms", len(ops)),
            "ops_per_s": (len(ops) / sum(catchups), "1/s", len(ops)),
            "peak_rss_mb": (median(op["peak_rss_mb"] for op in ops),
                            "MiB", len(ops)),
        },
        "reported": {"op_p95_ms": summary["p95"],
                     "op_max_ms": summary["max"],
                     "entries_per_op": scale.stream_entries},
    }


def _preloaded(scale) -> Database:
    db = Database()
    for batch in inputs.preload_batches(scale, 0, scale.preload_entries):
        for change in batch:
            inputs.apply_change(db, change)
    return db


def _in_process_op(scale, db: Database, directory: Path,
                   tracer: Tracer | None) -> float:
    """The two servers' work on one catch-up, through public calls:
    write and load the bootstrap snapshot, then apply the stream."""
    directory.mkdir()
    started = time.perf_counter()
    with span_of(tracer, "harness:op"):
        path = checkpoint.write_snapshot(db, directory, scale.preload_entries)
        follower, _ = checkpoint.load_snapshot(path)
        with span_of(tracer, "oodb.database:apply_entries"):
            for batch in stream_batches(scale):
                for change in batch:
                    inputs.apply_change(follower, change)
    return time.perf_counter() - started


def trace(name: str, scale, seed: int, seconds: float,
          trace_out=None) -> dict:
    outcome = _serve(scale, seconds / 3)
    ops = outcome["ops"]
    before, after = outcome["stats"]
    batches = after["repl_batches_shipped"] - before["repl_batches_shipped"]
    entries = after["repl_entries_shipped"] - before["repl_entries_shipped"]
    tracer = Tracer()
    with work_dir() as work:
        build_started = time.perf_counter()
        db = _preloaded(scale)
        build_s = time.perf_counter() - build_started
        plain_s = _in_process_op(scale, db, work / "plain", None)
        with tracer.installed():
            traced_s = _in_process_op(scale, db, work / "traced", tracer)
        snapshot_bytes = next(
            (work / "traced").glob("snapshot-*.json")).stat().st_size
    if trace_out is not None:
        tracer.dump(trace_out)
    table = tracer.table()
    return {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "metrics": {
            "server.replication.bootstrap_s": (
                median(op["bootstrap_s"] for op in ops), "s"),
            "server.replication.stream_s": (
                median(op["stream_s"] for op in ops), "s"),
            "server.replication.batches_shipped": (
                batches / len(ops), "count"),
            "server.replication.entries_per_batch": (
                entries / batches if batches else 0.0, "count"),
            "oodb.serialize.snapshot_bytes_per_fact": (
                snapshot_bytes / scale.preload_entries, "B"),
            "oodb.database.assert_us": (
                build_s * 1e6 / scale.preload_entries, "us"),
            "trace_overhead_share": (traced_s / plain_s - 1.0, "ratio"),
        },
        "table": table,
        "split": summarise(table),
        "untraced_op_ms": plain_s * 1000.0,
        "traced_op_ms": traced_s * 1000.0,
    }
