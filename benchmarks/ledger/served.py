"""The three served workloads: ``serve-read-hot``, ``serve-read-cold``
and ``serve-rw-durable``.

The program under test is ``python -m repro serve`` in a subprocess on
an ephemeral port, flags at their defaults except where stated.  The
load generator is this one process: a **closed loop of 2 connections**
(each ``await``s its reply before sending the next request -- callers
of a ``check(user, resource)``-style RPC wait for their answer), no
pipelining, no retries (a shed or failed request counts as failed).

One *op* is one request.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import Query, parse_program
from repro.oodb import serialize
from repro.oodb.checkpoint import DurableStore, recover
from repro.server import Client, ClientError, RetryPolicy, protocol

from benchmarks.ledger import inputs
from benchmarks.ledger.library import count_facts
from benchmarks.ledger.procs import ServerProcess, work_dir
from benchmarks.ledger.stats import latency_summary, median
from benchmarks.ledger.tracing import Tracer, span_of, summarise

#: Connections of the closed loop (= ``nproc`` of the reference box).
LANES = 2
#: One request in this many is a write on ``serve-rw-durable`` (20%).
WRITE_EVERY = 5
#: The whole-relation reads that prove every acknowledged write is
#: readable: all mentor edges and all vehicle colours.
RELATION_TEXTS = ["X[mentor -> M]", "V[color -> C]"]

MAINTAINER_APPLY = "engine.incremental:Maintainer.apply"


@dataclass(frozen=True)
class Served:
    #: ``(scale, seed) -> query texts`` of the read stream.
    texts: Callable
    #: 20% single-fact writes against a durable (``--data-dir``) server.
    writes: bool = False


WORKLOADS = {
    "serve-read-hot": Served(lambda scale, seed: inputs.hot_texts(scale)),
    "serve-read-cold": Served(inputs.cold_texts),
    "serve-rw-durable": Served(lambda scale, seed: inputs.hot_texts(scale),
                               writes=True),
}


@dataclass
class Phase:
    """What one closed-loop phase sent and saw."""

    wall_s: float = 0.0
    client_cpu_s: float = 0.0
    #: ``(rtt_ms, server elapsed_ms)`` per answered query.
    reads: list = field(default_factory=list)
    #: ``(rtt_ms, overlapped_a_checkpoint)`` per acknowledged write.
    writes: list = field(default_factory=list)
    #: Per lane, the requests in send order: ``("q", text index)`` or
    #: ``("w", change)`` -- what the traced run replays in-process.
    sequence: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    acked: list = field(default_factory=list)
    maintenance: list = field(default_factory=list)


class Deployment:
    """The files, request streams and server flags of one set-up."""

    def __init__(self, workload: Served, scale, seed: int,
                 directory: Path) -> None:
        directory.mkdir()
        self.workload = workload
        self.scale = scale
        started = time.perf_counter()
        self.db = inputs.serve_company(scale, seed)
        self.build_s = time.perf_counter() - started
        self.texts = workload.texts(scale, seed)
        self.log = directory / "server.log"
        self.data_dir = directory / "data"
        rules = directory / "rules.plog"
        rules.write_text(inputs.SERVE_RULES)
        snapshot = directory / "db.json"
        snapshot.write_text(serialize.dumps(self.db))
        self.args = [str(rules), "--db", str(snapshot)]
        if workload.writes:
            self.args += ["--data-dir", str(self.data_dir),
                          "--fsync", "batch", "--checkpoint-bytes",
                          str(scale.checkpoint_bytes)]
        # Streams outlive a phase: a four-write cycle begun in one
        # phase finishes in the next.
        self.read_streams = [
            inputs.balanced_stream(len(self.texts), seed, lane)
            for lane in range(LANES)]
        self.mix = [inputs.balanced_stream(WRITE_EVERY, seed, lane)
                    for lane in range(LANES)]
        self.write_streams = [
            inputs.write_stream(self.db, scale, seed, lane, LANES)
            for lane in range(LANES)] if workload.writes else None
        #: ``(newest WAL segment, its size)`` stat-ed at the last ack.
        self.last_wal: tuple[Path, int] | None = None

    def start(self) -> ServerProcess:
        return ServerProcess(*self.args, log=self.log)

    # -- the data directory, seen from outside -------------------------

    def look(self) -> tuple[frozenset, tuple[Path, int] | None]:
        names = os.listdir(self.data_dir)
        snapshots = frozenset(n for n in names if n.startswith("snapshot-")
                              and n.endswith(".json"))
        segments = sorted(n for n in names if n.startswith("wal-"))
        wal = None
        if segments:
            path = self.data_dir / segments[-1]
            with contextlib.suppress(FileNotFoundError):
                wal = (path, path.stat().st_size)
        return snapshots, wal


async def _wait_healthy(server: ServerProcess) -> None:
    async with Client(*server.address) as client:
        health = await client.health()
    if health["status"] != "ok":
        raise RuntimeError(f"server unhealthy: {health}")


async def _setup(workload: Served, scale, seed: int, directory: Path,
                 stack: contextlib.ExitStack):
    """Dataset build, server start, first fixpoint: ``setup_s``."""
    started = time.perf_counter()
    deployment = Deployment(workload, scale, seed, directory)
    server = stack.enter_context(deployment.start())
    await _wait_healthy(server)
    async with Client(*server.address) as client:
        await client.query(deployment.texts[0])
    return deployment, server, time.perf_counter() - started


async def _closed_loop(deployment: Deployment, server: ServerProcess,
                       seconds: float, *, expected: dict | None = None,
                       writes: bool = False) -> Phase:
    """Drive ``LANES`` connections for ``seconds``; returns the phase."""
    phase = Phase(sequence=[[] for _ in range(LANES)])
    texts = deployment.texts
    deadline = time.perf_counter() + seconds

    async def lane(index: int) -> None:
        reads = deployment.read_streams[index]
        sent = phase.sequence[index]
        snapshots = deployment.look()[0] if writes else None
        client = Client(*server.address, retry=RetryPolicy(attempts=1))
        try:
            while time.perf_counter() < deadline:
                phase.attempted += 1
                if writes and next(deployment.mix[index]) == 0:
                    change = next(deployment.write_streams[index])
                    sent.append(("w", change))
                    started = time.perf_counter()
                    try:
                        response = await client.write([change])
                    except ClientError:
                        phase.failed += 1
                        continue
                    rtt = (time.perf_counter() - started) * 1000.0
                    seen, wal = deployment.look()
                    if wal is not None:
                        deployment.last_wal = wal
                    phase.writes.append((rtt, seen != snapshots))
                    snapshots = seen
                    phase.acked.append(change)
                    phase.maintenance.append(response["maintenance"])
                    if response["applied"] != 1:
                        phase.failed += 1
                    continue
                pick = next(reads)
                sent.append(("q", pick))
                text = texts[pick]
                started = time.perf_counter()
                try:
                    response = await client.query(text)
                except ClientError:
                    phase.failed += 1
                    continue
                rtt = (time.perf_counter() - started) * 1000.0
                phase.reads.append((rtt, response["elapsed_ms"]))
                if expected is not None \
                        and response["answers"] != expected[text]:
                    phase.failed += 1
        finally:
            await client.close()

    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    await asyncio.gather(*(lane(index) for index in range(LANES)))
    phase.client_cpu_s = time.process_time() - cpu_started
    phase.wall_s = time.perf_counter() - wall_started
    return phase


async def _check_answers(server: ServerProcess, expected: dict) -> int:
    """Ask every text once; returns how many answers were wrong."""
    wrong = 0
    async with Client(*server.address,
                      retry=RetryPolicy(attempts=1)) as client:
        for text, answers in expected.items():
            try:
                response = await client.query(text)
            except ClientError:
                wrong += 1
                continue
            wrong += response["answers"] != answers
    return wrong


def _final_state(deployment: Deployment, phases: list[Phase]) -> dict:
    """Scratch derivation of the state after every acknowledged write.

    The connections write disjoint facts, so the order in which their
    acknowledgements interleaved does not matter to the model.
    """
    model = deployment.db.clone()
    for phase in phases:
        for change in phase.acked:
            inputs.apply_change(model, change)
    return inputs.expected_answers(model,
                                   deployment.texts + RELATION_TEXTS)


async def _crash_and_recover(deployment: Deployment,
                             server: ServerProcess,
                             stack: contextlib.ExitStack,
                             expected: dict) -> tuple[float, int, int]:
    """SIGKILL, drop what was not flushed, restart, verify.

    Killing a process leaves the operating system's cache intact, so
    the bytes a real power cut would lose are discarded here by hand:
    the newest WAL segment is cut back to the size it had when the last
    write was acknowledged.  Returns ``(recover_s, checked, wrong)``.
    """
    server.kill()
    if deployment.last_wal is not None:
        path, size = deployment.last_wal
        newest = deployment.look()[1]
        if newest is not None and newest[0] == path and newest[1] > size:
            os.truncate(path, size)
    started = time.perf_counter()
    restarted = stack.enter_context(deployment.start())
    await _wait_healthy(restarted)
    recover_s = time.perf_counter() - started
    wrong = await _check_answers(restarted, expected)
    return recover_s, len(expected), wrong


async def _serve(name: str, scale, seed: int, seconds: float,
                 work: Path, stack: contextlib.ExitStack) -> dict:
    """Set up ``setup_repeats`` times, warm up, measure, verify."""
    workload = WORKLOADS[name]
    setups = []
    for repeat in range(scale.setup_repeats):
        if repeat:
            server.kill()
        deployment, server, setup_s = await _setup(
            workload, scale, seed, work / f"setup-{repeat}", stack)
        setups.append(setup_s)
    expected = None if workload.writes else \
        inputs.expected_answers(deployment.db, deployment.texts)
    warm = await _closed_loop(deployment, server, scale.warmup_s,
                              expected=expected)
    before = await _stats(server)
    phase = await _closed_loop(deployment, server, seconds,
                               expected=expected, writes=workload.writes)
    after = await _stats(server)
    outcome = {
        "deployment": deployment, "server": server, "setups": setups,
        "warm": warm, "phase": phase, "stats": (before, after),
        "peak_rss_mb": server.peak_rss_mb(),
        "attempted": phase.attempted, "failed": phase.failed + warm.failed,
    }
    if workload.writes:
        final = _final_state(deployment, [warm, phase])
        wrong = await _check_answers(server, final)
        recover_s, checked, wrong_after = await _crash_and_recover(
            deployment, server, stack, final)
        outcome["recover_s"] = recover_s
        outcome["attempted"] += 2 * checked
        outcome["failed"] += wrong + wrong_after
    return outcome


async def _stats(server: ServerProcess) -> dict:
    async with Client(*server.address) as client:
        return await client.stats()


def measure(name: str, scale, seed: int, seconds: float) -> dict:
    with work_dir() as work, contextlib.ExitStack() as stack:
        outcome = asyncio.run(
            _serve(name, scale, seed, seconds, work, stack))
    phase: Phase = outcome["phase"]
    reads = latency_summary([rtt for rtt, _ in phase.reads])
    ops = [rtt for rtt, _ in phase.reads] + [rtt for rtt, _ in phase.writes]
    every = latency_summary(ops)
    metrics = {
        "setup_s": (median(outcome["setups"]), "s", len(outcome["setups"])),
        "query_p50_ms": (reads["p50"], "ms", reads["samples"]),
        "query_p95_ms": (reads["p95"], "ms", reads["samples"]),
        "op_p50_ms": (every["p50"], "ms", every["samples"]),
        "ops_per_s": (len(ops) / phase.wall_s, "1/s", len(ops)),
        "peak_rss_mb": (outcome["peak_rss_mb"], "MiB", 1),
    }
    reported = {
        "query_p99_ms": reads["p99"], "query_max_ms": reads["max"],
        "client_busy_share": phase.client_cpu_s / phase.wall_s,
    }
    if phase.writes:
        writes = latency_summary([rtt for rtt, _ in phase.writes])
        metrics["write_p50_ms"] = (writes["p50"], "ms", writes["samples"])
        metrics["write_p95_ms"] = (writes["p95"], "ms", writes["samples"])
        metrics["recover_s"] = (outcome["recover_s"], "s", 1)
        reported["write_p99_ms"] = writes["p99"]
        reported["write_max_ms"] = writes["max"]
        before, after = outcome["stats"]
        reported["checkpoints"] = after["checkpoints"] - before["checkpoints"]
    return {"attempted": outcome["attempted"], "failed": outcome["failed"],
            "metrics": metrics, "reported": reported}


# -- the traced run ----------------------------------------------------


class Replay:
    """The served request stream, replayed in-process on one ``Query``.

    Mirrors what the server does per request -- decode the frame, run
    ``Query.all``, box the answers, encode the response (and, for a
    write: apply, journal, ``Query.sync``, checkpoint by WAL size) --
    but sequentially and with no socket, so every step can carry a span.
    """

    def __init__(self, deployment: Deployment, seed: int,
                 directory: Path) -> None:
        #: Attached for the timed stream of the traced pass only.
        self.tracer: Tracer | None = None
        self.texts = deployment.texts
        self.scale = deployment.scale
        self.db = inputs.serve_company(deployment.scale, seed)
        self.store = None
        if deployment.workload.writes:
            self.store = DurableStore.open(directory, db=self.db,
                                           fsync="batch")
            self.db = self.store.database
        self.db.begin_changes()
        self.query = Query(self.db, program=parse_program(inputs.SERVE_RULES),
                           thread_safe=True)
        self.request_ms: list[float] = []
        self.answer_ms: list[float] = []
        #: Every demand engine seen (held, so ids are never reused) and
        #: the ones first seen -- i.e. run -- inside the timed stream.
        self.engines: dict[int, object] = {}
        self.fresh: list = []
        self.response_bytes: list[int] = []
        self.box_us_per_answer: list[float] = []
        self.wal_bytes = 0
        self.wal_entries = 0
        self.requests = 0

    def _span(self, name: str):
        return span_of(self.tracer, name)

    def run(self, sequence: list[list], *, timed: bool) -> None:
        """Replay the lanes' requests, interleaved in send order."""
        for step in itertools.zip_longest(*sequence):
            for request in step:
                if request is None:
                    continue
                if self.tracer is not None:
                    self.tracer.request = self.requests
                started = time.perf_counter()
                with self._span("harness:request"):
                    if request[0] == "q":
                        self._query(self.texts[request[1]], timed)
                    else:
                        self._write(request[1])
                if timed:
                    self.request_ms.append(
                        (time.perf_counter() - started) * 1000.0)
                    self.requests += 1

    def _query(self, text: str, timed: bool) -> None:
        with self._span("server.protocol:encode_frame"):
            frame = protocol.encode_frame({"op": "query", "query": text})
        with self._span("server.protocol:json.loads"):
            request = json.loads(frame[4:].decode("utf-8"))
        started = time.perf_counter()
        with self._span("query:Query.all"):
            answers = self.query.all(request["query"])
        solved_at = time.perf_counter()
        with self._span("query:Answer.values_dict"):
            boxed = [answer.values_dict() for answer in answers]
        boxed_at = time.perf_counter()
        response = protocol.ok(request, answers=boxed, version=0, cursor=0,
                               elapsed_ms=(boxed_at - started) * 1000.0)
        with self._span("server.protocol:encode_frame"):
            frame = protocol.encode_frame(response)
        with self._span("server.protocol:json.loads"):
            json.loads(frame[4:].decode("utf-8"))
        engine = self.query.last_demand
        if engine is not None and id(engine) not in self.engines:
            self.engines[id(engine)] = engine
            if timed:
                self.fresh.append(engine)
        if timed:
            self.answer_ms.append((boxed_at - started) * 1000.0)
            self.response_bytes.append(len(frame))
            if boxed:
                self.box_us_per_answer.append(
                    (boxed_at - solved_at) * 1e6 / len(boxed))

    def _write(self, change: list) -> None:
        inputs.apply_change(self.db, change)
        size = self.store.wal_size()
        self.store.commit()
        self.wal_bytes += self.store.wal_size() - size
        self.wal_entries += 1
        self.query.sync()
        if self.store.wal_size() >= self.scale.checkpoint_bytes:
            self.store.checkpoint()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def trace(name: str, scale, seed: int, seconds: float,
          trace_out=None) -> dict:
    """A short served phase (wire and server-side numbers), then the
    same request stream replayed in-process, untraced and traced."""
    with work_dir() as work, contextlib.ExitStack() as stack:
        outcome = asyncio.run(
            _serve(name, scale, seed, seconds / 3, work, stack))
        deployment: Deployment = outcome["deployment"]
        warm: Phase = outcome["warm"]
        phase: Phase = outcome["phase"]

        plain = Replay(deployment, seed, work / "plain")
        plain.run(warm.sequence, timed=False)
        plain.run(phase.sequence, timed=True)
        plain.close()

        # Only the measured stream is traced: the warm-up replays first.
        traced = Replay(deployment, seed, work / "traced")
        traced.run(warm.sequence, timed=False)
        traced.tracer = tracer = Tracer(keep_results=(MAINTAINER_APPLY,))
        with tracer.installed():
            traced.run(phase.sequence, timed=True)
            traced.close()
            recovered = None
            if traced.store is not None:
                with tracer.span("harness:recover"):
                    with tracer.span("oodb.checkpoint:recover"):
                        recovered = recover(work / "traced")
        if trace_out is not None:
            tracer.dump(trace_out)
        snapshot_bytes = _newest_snapshot_bytes(work / "traced")
    return _trace_result(outcome, plain, traced, tracer, recovered,
                         snapshot_bytes)


def _newest_snapshot_bytes(directory: Path) -> int:
    if not directory.is_dir():
        return 0
    sizes = [path.stat().st_size
             for path in sorted(directory.glob("snapshot-*.json"))]
    return sizes[-1] if sizes else 0


def _trace_result(outcome, plain: Replay, traced: Replay, tracer: Tracer,
                  recovered, snapshot_bytes: int) -> dict:
    deployment: Deployment = outcome["deployment"]
    phase: Phase = outcome["phase"]
    before, after = outcome["stats"]
    requests = max(1, traced.requests)
    queries = max(1, len(traced.answer_ms))
    writes = max(1, traced.wal_entries)
    facts = count_facts(deployment.db)

    def per_request(name: str) -> float:
        return tracer.total_ms(name) / requests

    def per_call(name: str) -> float:
        calls = tracer.count(name)
        return tracer.total_ms(name) / calls if calls else 0.0

    def per_write(name: str) -> float:
        return tracer.total_ms(name) / writes

    demand_runs = tracer.count("engine.magic:DemandEngine.run")
    plan_gets = tracer.count("engine.planner:PlanCache.get")
    plan_builds = tracer.count("engine.planner:build_plan")
    engines = traced.fresh
    derived = sum(e.stats.derived_total for e in engines)
    firings = sum(e.stats.firings for e in engines)
    reports = tracer.results[MAINTAINER_APPLY]
    rtt = median([r for r, _ in phase.reads])
    elapsed = median([e for _, e in phase.reads])
    stalls = [r for r, stalled in phase.writes if stalled]
    durability = after.get("durability") or {}
    wal_syncs = (durability.get("wal_syncs", 0)
                 - (before.get("durability") or {}).get("wal_syncs", 0))
    recover_ms = tracer.total_ms("oodb.checkpoint:recover")
    table = tracer.table()
    metrics = {
        "server.protocol.encode_us": (
            per_request("server.protocol:encode_frame") * 1000.0, "us"),
        "server.protocol.decode_us": (
            per_request("server.protocol:json.loads") * 1000.0, "us"),
        "server.protocol.response_bytes": (
            median(traced.response_bytes) if traced.response_bytes else 0,
            "B"),
        "query.answer_box_us": (
            median(traced.box_us_per_answer)
            if traced.box_us_per_answer else 0.0, "us"),
        "server.wire_ms": (rtt - elapsed, "ms"),
        "server.gate_hop_ms": (elapsed - median(plain.answer_ms), "ms"),
        "lang.parse_us": (per_request("lang:parse_query") * 1000.0, "us"),
        "engine.planner.plan_build_us": (
            per_request("engine.planner:build_plan") * 1000.0, "us"),
        "engine.planner.plan_cache_hit_ratio": (
            1.0 - plan_builds / plan_gets if plan_gets else 0.0, "ratio"),
        "query.memo_hit_ratio": (1.0 - demand_runs / queries, "ratio"),
        "query.memo_evictions": (traced.query.memo_evictions, "count"),
        "engine.magic.rewrite_ms": (
            per_request("engine.magic:rewrite_for_query"), "ms"),
        "engine.magic.demand_eval_ms": (
            per_request("engine.magic:DemandEngine.run"), "ms"),
        "engine.magic.rules_fallback": (
            sum(e.stats.rules_fallback for e in engines), "count"),
        "engine.fixpoint.run_s": (
            per_request("engine.fixpoint:Engine.run") / 1000.0, "s"),
        "engine.fixpoint.derived": (derived / requests, "count"),
        "engine.fixpoint.firings": (firings / requests, "count"),
        "engine.fixpoint.tuples": (
            sum(e.stats.tuples for e in engines) / requests, "count"),
        "engine.fixpoint.derived_per_firing": (
            derived / firings if firings else 0.0, "ratio"),
        "engine.fixpoint.plans_built": (
            sum(e.stats.plans_built for e in engines) / requests, "count"),
        "engine.heads.virtuals_created": (
            sum(e.stats.virtuals_created for e in engines), "count"),
        "engine.heads.us_per_virtual": (0.0, "us"),
        "engine.incremental.apply_ms": (per_write("query:Query.sync"), "ms"),
        "engine.incremental.maintained": (
            _mean(m["maintained"] for m in phase.maintenance), "count"),
        "engine.incremental.evicted": (
            _mean(m["evicted"] for m in phase.maintenance), "count"),
        "engine.incremental.overdeleted": (
            sum(r.overdeleted for r in reports) / writes, "count"),
        "engine.incremental.rederived": (
            sum(r.rederived for r in reports) / writes, "count"),
        "oodb.wal.commit_ms": (
            per_write("oodb.wal:DurableStore.commit"), "ms"),
        "oodb.wal.wal_syncs": (
            wal_syncs / len(phase.writes) if phase.writes else 0.0,
            "1/write"),
        "oodb.wal.wal_bytes_per_entry": (
            traced.wal_bytes / traced.wal_entries
            if traced.wal_entries else 0.0, "B"),
        "oodb.checkpoint.checkpoint_ms": (
            per_call("oodb.checkpoint:DurableStore.checkpoint"), "ms"),
        "oodb.checkpoint.checkpoints": (
            after["checkpoints"] - before["checkpoints"], "count"),
        "oodb.checkpoint.max_write_ms_during_checkpoint": (
            max(stalls) if stalls else 0.0, "ms"),
        "oodb.checkpoint.recover_entries_per_s": (
            recovered.recovered_entries / (recover_ms / 1000.0)
            if recovered is not None and recover_ms else 0.0, "1/s"),
        "oodb.serialize.snapshot_bytes_per_fact": (
            snapshot_bytes / facts, "B"),
        "oodb.database.assert_us": (
            deployment.build_s * 1e6 / facts, "us"),
        "oodb.database.mirror_drain_ms": (0.0, "ms"),
        "trace_overhead_share": (
            median(traced.request_ms) / median(plain.request_ms) - 1.0,
            "ratio"),
    }
    split = summarise(table)
    # The two served-only rows, from medians of the served phase: wire
    # (socket, framing, admission, dispatch) and the gate/executor hop.
    split["served"] = {
        "rtt_p50_ms": rtt, "elapsed_p50_ms": elapsed,
        "in_process_p50_ms": median(plain.answer_ms),
        "requests": len(phase.reads) + len(phase.writes),
    }
    return {
        "attempted": outcome["attempted"], "failed": outcome["failed"],
        "metrics": metrics, "table": table, "split": split,
        "untraced_op_ms": median(plain.request_ms),
        "traced_op_ms": median(traced.request_ms),
    }
