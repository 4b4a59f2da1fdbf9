"""The concurrent query server: one writer, many snapshot readers.

Architecture (docs/server.md has the full story):

- One shared :class:`~repro.query.Query` (``thread_safe=True``) serves
  every connection, so compiled plans and demand memos are reused
  across clients instead of rebuilt per request.
- Queries evaluate on a thread pool (``max_inflight`` workers) while
  holding the :class:`~repro.server.gate.ReadWriteGate` shared: the
  database is frozen for the whole evaluation, which *is* the
  request's snapshot.  Each request additionally pins the change log
  with a :class:`~repro.oodb.database.ChangeLease` (released in a
  ``finally``), so the log stays consistent for the memo machinery and
  ``stats`` can report how far the slowest reader lags.
- All writes funnel through one maintainer task.  It takes the gate
  exclusively, applies the batch through the ordinary assertion API
  (rolling back to a cursor checkpoint on any failure), then patches
  the memoised results via :meth:`Query.sync` -- still exclusive, so
  result databases are only ever mutated with no reader inside.  If
  maintenance itself dies half-way, the memos are dropped wholesale
  (:meth:`Query.forget`) and the next query re-derives: degraded, not
  wrong.
- Admission control bounds the request queue
  (:class:`~repro.server.admission.AdmissionController`): beyond
  ``max_queue`` waiters the request is *shed* with a typed
  ``overloaded`` response carrying ``retry_after_ms``.
- Each request gets its own
  :class:`~repro.engine.budget.QueryBudget` (deadline from the
  request's ``timeout_ms``, capped by the server's ``max_timeout_ms``);
  a client that disconnects mid-request has its budget ``cancel()``-ed,
  so abandoned work stops at the next checkpoint instead of running to
  completion.
- With ``data_dir`` configured the server is **durable**
  (docs/durability.md): startup recovers the directory, the maintainer
  journals every batch to the write-ahead log before releasing the
  exclusive gate, and a background task checkpoints by WAL size.
- ``SIGTERM``/``shutdown`` drains gracefully: stop accepting, answer
  the in-flight requests (up to ``drain_ms``), cancel stragglers,
  stop the maintainer, close the durable store, trim the log.

- With ``replica_of`` configured the server is a **read replica**
  (docs/server.md "Replication"): it bootstraps from the primary's
  snapshot, applies streamed change-log batches through the same
  exclusive-gate maintainer discipline, refuses writes with a typed
  ``read_only`` error, and sheds reads beyond ``max_lag`` as ``stale``.
  A primary serves the ``repl.*`` ops through a
  :class:`~repro.server.replication.ReplicationHub`.

Fault points (``server.accept``, ``server.dispatch``,
``server.maintain``, ``server.respond``, plus the replication sites
``repl.subscribe``/``repl.ship``/``repl.apply``/``repl.bootstrap``)
let the chaos suite crash each stage deterministically; every handler
is written so an injected crash costs at most that one connection or
that one (rolled-back) write batch, never the server.
"""

from __future__ import annotations

import asyncio
import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from pathlib import Path

from repro.engine import QueryBudget
from repro.errors import BudgetExceededError, PathLogError
from repro.oodb.checkpoint import DurableStore, snapshot_document
from repro.oodb.database import Database
from repro.oodb.serialize import encode_fact
from repro.query import Query
from repro.server import protocol
from repro.server.admission import AdmissionController, AdmissionShed
from repro.server.gate import ReadWriteGate
from repro.server.replication import (
    ReplicationHub,
    Replicator,
    ResyncNeeded,
    parse_endpoint,
)
from repro.testing.faults import fault_point


@dataclass
class ServerConfig:
    """Tunables of one :class:`Server` (all have serving defaults)."""

    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port; read it back from ``address``.
    port: int = 0
    #: Concurrent query evaluations (also the thread-pool size).
    max_inflight: int = 8
    #: Admitted-but-waiting requests beyond which the server sheds.
    max_queue: int = 32
    #: Budget applied when a request names no ``timeout_ms``.
    default_timeout_ms: float | None = None
    #: Hard cap on any request's ``timeout_ms`` (None: uncapped).
    max_timeout_ms: float | None = None
    #: Budget applied when a request names no ``max_derived``.
    default_max_derived: int | None = None
    #: How long ``shutdown()`` waits for in-flight work before
    #: cancelling it.
    drain_ms: float = 5_000.0
    #: Largest accepted/emitted frame, bytes.
    max_frame: int = protocol.MAX_FRAME
    #: Executor pinned onto the shared Query (None: per-layer defaults).
    executor: str | None = None
    #: Demand-driven program evaluation (magic sets) on the shared Query.
    magic: bool = True
    #: Whether a ``shutdown`` request over the wire is honoured.
    allow_remote_shutdown: bool = True
    #: Durable data directory (None: in-memory only).  A directory with
    #: existing state is recovered on startup and **replaces** the
    #: seed database passed to the constructor.
    data_dir: str | Path | None = None
    #: WAL fsync policy: ``always`` / ``batch`` / ``off``.
    fsync: str = "batch"
    #: WAL size (bytes, across segments) that triggers a checkpoint.
    checkpoint_bytes: int = 4 * 1024 * 1024
    #: How often the background task polls the WAL size.
    checkpoint_interval_ms: float = 250.0
    #: Serve as a read replica of ``"host:port"`` (None: primary).
    #: Mutually exclusive with ``data_dir`` -- a replica bootstraps
    #: from its primary; durability lives there.
    replica_of: str | None = None
    #: Replica only: shed reads (typed ``stale`` + ``retry_after_ms``)
    #: once the replica lags more than this many change-log entries
    #: behind the primary (None: answer however stale).
    max_lag: int | None = None
    #: Replica only: how long each ``repl.batch`` long-polls on the
    #: primary when the replica is caught up.
    repl_poll_ms: float = 200.0
    #: Primary only: hard cap on a subscriber's requested ``wait_ms``.
    repl_wait_cap_ms: float = 10_000.0
    #: Replica only: snapshot fetch attempts before startup fails.
    bootstrap_attempts: int = 5
    #: Replica only: reconnect backoff base / cap (exponential,
    #: jittered; see :class:`~repro.server.client.RetryPolicy`).
    repl_retry_base_ms: float = 50.0
    repl_retry_cap_ms: float = 2_000.0


@dataclass
class ServerStats:
    """Monotonic counters surfaced by the ``stats`` request."""

    connections: int = 0
    requests: int = 0
    queries: int = 0
    writes: int = 0
    served: int = 0
    #: Requests rejected with ``overloaded`` (mirrors admission.shed).
    shed: int = 0
    #: Requests stopped by their budget (deadline, cap, or cancel).
    budget_stops: int = 0
    #: Budgets cancelled because the client vanished mid-request.
    disconnect_cancels: int = 0
    query_errors: int = 0
    #: Unexpected failures answered with ``internal`` (includes
    #: injected faults).
    internal_errors: int = 0
    #: Write batches rolled back to their checkpoint.
    rollbacks: int = 0
    #: ``Query.sync`` failures that forced a full memo drop.
    memo_resets: int = 0
    #: Background checkpoints completed (durable servers only).
    checkpoints: int = 0
    #: Replication subscriptions accepted (primary).
    repl_subscribes: int = 0
    #: Non-empty replication batches / entries shipped (primary).
    repl_batches_shipped: int = 0
    repl_entries_shipped: int = 0
    #: Streamed batches / entries applied all-or-nothing (replica).
    repl_batches_applied: int = 0
    repl_entries_applied: int = 0
    #: Full snapshot re-bootstraps after a gap or epoch change (replica).
    repl_rebootstraps: int = 0
    #: Stream reconnects after a dropped primary connection (replica).
    repl_reconnects: int = 0
    #: Reads shed because staleness exceeded ``max_lag`` (replica).
    stale_sheds: int = 0

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


@dataclass(eq=False)
class _Connection:
    """Per-connection state: in-flight budgets to cancel on EOF."""

    writer: asyncio.StreamWriter
    budgets: set = field(default_factory=set)
    #: Replication subscriptions owned by this connection (their
    #: leases die with the socket).
    subs: set = field(default_factory=set)
    disconnected: bool = False


class Server:
    """Serve concurrent PathLog queries over one shared Query."""

    def __init__(self, db: Database, *, program=None,
                 config: ServerConfig | None = None) -> None:
        self._db = db
        self._program = program
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self._gate = ReadWriteGate()
        self._admission = AdmissionController(self.config.max_inflight,
                                              self.config.max_queue)
        self._query: Query | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._maintainer_task: asyncio.Task | None = None
        self._checkpoint_task: asyncio.Task | None = None
        self._store: DurableStore | None = None
        self._hub: ReplicationHub | None = None
        self._replicator: Replicator | None = None
        self._repl_task: asyncio.Task | None = None
        self._write_queue: asyncio.Queue | None = None
        self._connections: set[_Connection] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._closed = asyncio.Event()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "Server":
        """Bind the listening socket and start the maintainer.

        With ``config.data_dir`` set, the directory is recovered (or
        seeded from the constructor's database when empty) *before* the
        shared Query is built, so plans and memos derive from the
        durable state; the recovery report lands in ``stats``.

        With ``config.replica_of`` set, the server instead bootstraps
        its database from the primary's snapshot **before** listening,
        so the very first answer is already a consistent state, and
        starts the pull loop that streams committed batches.
        """
        if self.config.replica_of is not None:
            if self.config.data_dir is not None:
                raise ValueError(
                    "replica_of and data_dir are mutually exclusive: a "
                    "replica bootstraps from its primary; durability "
                    "lives there")
            host, port = parse_endpoint(self.config.replica_of)
            self._replicator = Replicator(self, host, port)
            db, cursor = await self._replicator.bootstrap()
            self._db = db
            self._replicator.applied = cursor
            self._replicator.head = cursor
        if self.config.data_dir is not None:
            self._store = DurableStore.open(self.config.data_dir,
                                            db=self._db,
                                            fsync=self.config.fsync)
            self._db = self._store.database
        self._db.begin_changes()
        if self._replicator is None:
            self._hub = ReplicationHub(self._db)
        self._query = Query(self._db, program=self._program,
                            magic=self.config.magic,
                            executor=self.config.executor,
                            thread_safe=True)
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-server")
        self._write_queue = asyncio.Queue()
        self._maintainer_task = asyncio.create_task(self._maintain_loop())
        if self._store is not None:
            self._checkpoint_task = asyncio.create_task(
                self._checkpoint_loop())
        if self._replicator is not None:
            self._repl_task = asyncio.create_task(self._replicator.run())
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0``)."""
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def query(self) -> Query:
        """The shared Query (plan caches and memos live here)."""
        return self._query

    @property
    def database(self) -> Database:
        """The served database (the recovered one when durable)."""
        return self._db

    @property
    def store(self) -> DurableStore | None:
        """The durable store, or None for an in-memory server."""
        return self._store

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def role(self) -> str:
        """``"replica"`` when following a primary, else ``"primary"``."""
        return "replica" if self._replicator is not None else "primary"

    @property
    def replicator(self) -> Replicator | None:
        """The pull loop's state (replica servers only)."""
        return self._replicator

    async def _adopt_replica_db(self, db: Database) -> None:
        """Swap in a re-bootstrapped database (replica resync).

        Exclusive, so no reader is inside while the world changes: a
        request sees either the old consistent state or the new one.
        The old Query's memos die with the old database; the fresh
        shared Query re-derives on demand.
        """
        async with self._gate.write():
            self._db = db
            self._db.begin_changes()
            self._query = Query(db, program=self._program,
                                magic=self.config.magic,
                                executor=self.config.executor,
                                thread_safe=True)

    async def serve_forever(self) -> None:
        """Block until :meth:`shutdown` completes."""
        await self._closed.wait()

    async def __aenter__(self) -> "Server":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.shutdown()

    async def shutdown(self, drain_ms: float | None = None) -> None:
        """Graceful drain: finish in-flight work, then stop (idempotent).

        Stops accepting, answers the requests already admitted (waiting
        up to ``drain_ms``, default from the config), cancels whatever
        is still running after the deadline, stops the maintainer, and
        trims the change log down to the memo low-water mark.
        """
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        if self._hub is not None:
            # Unblock long-polling subscribers so they drain promptly.
            self._hub.notify()
        if self._repl_task is not None:
            self._repl_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._repl_task
            await self._replicator.close()
        drain_ms = self.config.drain_ms if drain_ms is None else drain_ms
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + drain_ms / 1000.0
        while self._admission.inflight or self._admission.waiting:
            if loop.time() >= deadline:
                for connection in self._connections:
                    self._cancel_inflight(connection)
                break
            await asyncio.sleep(0.005)
        if self._checkpoint_task is not None:
            self._checkpoint_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._checkpoint_task
        if self._write_queue is not None:
            await self._write_queue.put(None)
            await self._maintainer_task
        # Give cancelled stragglers a bounded chance to unwind before
        # the pool shuts down (cooperative cancellation is not instant).
        while self._admission.inflight and loop.time() < deadline + 1.0:
            await asyncio.sleep(0.005)
        for connection in list(self._connections):
            connection.writer.close()
        if self._conn_tasks:
            done, pending = await asyncio.wait(self._conn_tasks,
                                               timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._store is not None:
            # Journal whatever the last batch left, then let go of the
            # trim lease so the final trim reclaims the whole prefix.
            with contextlib.suppress(PathLogError):
                self._store.close()
        if self._hub is not None:
            self._hub.drop_all()
        self._db.trim_changes()
        self._closed.set()

    # -- connections ---------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self.stats.connections += 1
        queue: asyncio.Queue = asyncio.Queue()
        pump = asyncio.create_task(
            self._pump_requests(reader, queue, connection))
        try:
            fault_point("server.accept")
            while True:
                request = await queue.get()
                if request is None:
                    break
                await self._serve_request(request, connection)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception:
            # An injected accept/respond fault (or any unexpected
            # failure) costs this connection only.
            self.stats.internal_errors += 1
        finally:
            pump.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await pump
            if self._hub is not None:
                for sub_id in list(connection.subs):
                    self._hub.drop(sub_id)
            self._connections.discard(connection)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _pump_requests(self, reader: asyncio.StreamReader,
                             queue: asyncio.Queue,
                             connection: _Connection) -> None:
        """Feed decoded frames to the dispatcher; cancel work on EOF.

        Runs alongside the dispatcher so a client closing its socket is
        noticed *while* its request evaluates -- the in-flight budgets
        are cancelled and the evaluation stops at its next checkpoint.
        """
        try:
            while True:
                frame = await protocol.read_frame(reader,
                                                  self.config.max_frame)
                if frame is None:
                    break
                await queue.put(frame)
        except (protocol.FrameTooLarge, asyncio.IncompleteReadError,
                ConnectionError, ValueError):
            pass
        finally:
            connection.disconnected = True
            self._cancel_inflight(connection)
            await queue.put(None)

    def _cancel_inflight(self, connection: _Connection) -> None:
        for budget in connection.budgets:
            budget.cancel()
            self.stats.disconnect_cancels += 1

    async def _respond(self, connection: _Connection,
                       response: dict) -> None:
        if connection.disconnected:
            return
        fault_point("server.respond")
        connection.writer.write(protocol.encode_frame(response))
        await connection.writer.drain()

    # -- dispatch ------------------------------------------------------

    async def _serve_request(self, request: dict,
                             connection: _Connection) -> None:
        self.stats.requests += 1
        try:
            fault_point("server.dispatch")
            response = await self._dispatch(request, connection)
        except BudgetExceededError as err:
            self.stats.budget_stops += 1
            response = protocol.error(protocol.TIMEOUT, str(err),
                                      request=request)
        except AdmissionShed as shed:
            self.stats.shed += 1
            response = protocol.error(
                protocol.OVERLOADED, "admission queue full",
                request=request, retry_after_ms=shed.retry_after_ms)
        except PathLogError as err:
            self.stats.query_errors += 1
            response = protocol.error(protocol.QUERY_ERROR, str(err),
                                      request=request)
        except Exception as err:
            self.stats.internal_errors += 1
            response = protocol.error(protocol.INTERNAL,
                                      f"{type(err).__name__}: {err}",
                                      request=request)
        try:
            await self._respond(connection, response)
            self.stats.served += 1
        except Exception:
            # Respond fault or a vanished peer: drop the connection.
            self.stats.internal_errors += 1
            connection.disconnected = True
            connection.writer.close()

    async def _dispatch(self, request: dict,
                        connection: _Connection) -> dict:
        if not isinstance(request, dict) or "op" not in request:
            return protocol.error(protocol.BAD_REQUEST,
                                  "request must be an object with an 'op'",
                                  request=request
                                  if isinstance(request, dict) else None)
        op = request["op"]
        if op == "health":
            return protocol.ok(request, **self._health())
        if op == "stats":
            return protocol.ok(request, stats=self._stats_payload())
        if self._draining:
            return protocol.error(protocol.SHUTTING_DOWN,
                                  "server is draining", request=request,
                                  retry_after_ms=self.config.drain_ms)
        if op == "query":
            return await self._handle_query(request, connection)
        if op == "write":
            return await self._handle_write(request)
        if op == "repl.snapshot":
            return await self._handle_repl_snapshot(request)
        if op == "repl.subscribe":
            return await self._handle_repl_subscribe(request, connection)
        if op == "repl.batch":
            return await self._handle_repl_batch(request)
        if op == "shutdown":
            if not self.config.allow_remote_shutdown:
                return protocol.error(protocol.BAD_REQUEST,
                                      "remote shutdown is disabled",
                                      request=request)
            asyncio.get_running_loop().create_task(self.shutdown())
            return protocol.ok(request, draining=True)
        return protocol.error(protocol.BAD_REQUEST,
                              f"unknown op {op!r}", request=request)

    def _health(self) -> dict:
        payload = {
            "status": "draining" if self._draining else "ok",
            "role": self.role,
            "inflight": self._admission.inflight,
            "queue_depth": self._admission.waiting,
            "snapshot_lag": self._db.snapshot_lag(),
        }
        if self._replicator is not None:
            payload["applied_cursor"] = self._replicator.applied
            payload["staleness"] = self._replicator.staleness()
        elif self._hub is not None:
            payload["connected_replicas"] = len(self._hub.replicas())
        return payload

    def _stats_payload(self) -> dict:
        payload = self._health()
        payload.update(self.stats.as_dict())
        payload["shed"] = self._admission.shed
        # What the shared Query's evaluations copied out of their
        # copy-on-write snapshots of the base (restarts with the Query).
        payload["buckets_copied"] = self._query.buckets_copied
        payload["version"] = self._db.data_version()
        log = self._db.change_log
        payload["log_entries"] = (len(log.entries)
                                  if log is not None else 0)
        payload["durability"] = self._durability_payload()
        payload["replication"] = self._replication_payload()
        return payload

    def _replication_payload(self) -> dict:
        if self._replicator is not None:
            replicator = self._replicator
            return {
                "role": "replica",
                "primary": f"{replicator.host}:{replicator.port}",
                "connected": replicator.connected,
                "applied_cursor": replicator.applied,
                "head_cursor": replicator.head,
                "staleness": replicator.staleness(),
            }
        payload = {"role": "primary"}
        if self._hub is not None:
            replicas = self._hub.replicas()
            payload["log_id"] = self._hub.log_id
            payload["connected_replicas"] = len(replicas)
            payload["replicas"] = replicas
        return payload

    def _durability_payload(self) -> dict | None:
        if self._store is None:
            return None
        recovery = self._store.recovery
        wal = self._store.wal
        return {
            "data_dir": str(self._store.data_dir),
            "fsync": wal.fsync_policy,
            "recovered_entries": (recovery.recovered_entries
                                  if recovery is not None else 0),
            "truncated_tail": (recovery.truncated_tail
                               if recovery is not None else 0),
            "durable_cursor": self._store.durable_cursor(),
            "wal_size": self._store.wal_size(),
            "wal_batches": wal.batches,
            "wal_entries": wal.entries_logged,
            "wal_syncs": wal.syncs,
            "checkpoints": self._store.checkpoints,
        }

    # -- queries (shared readers) --------------------------------------

    def _budget_for(self, request: dict) -> QueryBudget:
        timeout_ms = request.get("timeout_ms",
                                 self.config.default_timeout_ms)
        cap = self.config.max_timeout_ms
        if cap is not None:
            timeout_ms = cap if timeout_ms is None else min(timeout_ms,
                                                            cap)
        max_derived = request.get("max_derived",
                                  self.config.default_max_derived)
        return QueryBudget(timeout_ms=timeout_ms, max_derived=max_derived)

    async def _handle_query(self, request: dict,
                            connection: _Connection) -> dict:
        text = request.get("query")
        if not isinstance(text, str):
            return protocol.error(protocol.BAD_REQUEST,
                                  "query op needs a 'query' string",
                                  request=request)
        variables = request.get("variables")
        limit = request.get("limit")
        replicator = self._replicator
        if replicator is not None and self.config.max_lag is not None:
            lag = replicator.lag_entries()
            if lag > self.config.max_lag:
                self.stats.stale_sheds += 1
                return protocol.error(
                    protocol.STALE,
                    f"replica lags {lag} entries behind the primary "
                    f"(max_lag {self.config.max_lag})",
                    request=request,
                    retry_after_ms=self.config.repl_poll_ms)
        self.stats.queries += 1
        budget = self._budget_for(request)
        loop = asyncio.get_running_loop()
        slot = await self._admission.admit()
        started = loop.time()
        extra = {}
        async with slot:
            async with self._gate.read():
                # The database is frozen while we hold the read side:
                # this lease records which prefix of the change log the
                # answer reflects, and pins it for the memo machinery.
                lease = self._db.held_changes()
                connection.budgets.add(budget)
                if replicator is not None:
                    # Captured inside the gate: the applied cursor only
                    # moves under the write side, so this proof pairs
                    # exactly with the database state being read.
                    extra = {"primary_cursor": replicator.applied,
                             "staleness": replicator.staleness()}
                try:
                    if connection.disconnected:
                        budget.cancel()
                    version = self._db.data_version()
                    answers = await loop.run_in_executor(
                        self._pool, self._run_query, text, variables,
                        limit, budget)
                finally:
                    connection.budgets.discard(budget)
                    cursor = lease.cursor
                    lease.release()
        self._admission.observe_service((loop.time() - started) * 1000.0)
        return protocol.ok(request, answers=answers, version=version,
                           cursor=cursor,
                           elapsed_ms=(loop.time() - started) * 1000.0,
                           **extra)

    def _run_query(self, text: str, variables, limit,
                   budget: QueryBudget) -> list[dict]:
        answers = self._query.all(text, variables, budget=budget)
        if limit is not None:
            answers = answers[:limit]
        return [answer.values_dict() for answer in answers]

    # -- replication (primary side) ------------------------------------

    def _not_a_primary(self, request: dict) -> dict | None:
        if self._hub is None:
            return protocol.error(
                protocol.BAD_REQUEST,
                "replication ops need a primary (this server is a "
                "replica)", request=request)
        return None

    async def _handle_repl_snapshot(self, request: dict) -> dict:
        refusal = self._not_a_primary(request)
        if refusal is not None:
            return refusal
        loop = asyncio.get_running_loop()
        async with self._gate.read():
            # Read-held: the database is frozen, so the document is a
            # consistent whole-batch state at exactly this cursor.
            log = self._db.change_log
            cursor = log.cursor() if log is not None else 0
            version = self._db.data_version()
            document = await loop.run_in_executor(
                self._pool, snapshot_document, self._db, cursor)
        return protocol.ok(request, snapshot=document, cursor=cursor,
                           log_id=self._hub.log_id, version=version)

    async def _handle_repl_subscribe(self, request: dict,
                                     connection: _Connection) -> dict:
        refusal = self._not_a_primary(request)
        if refusal is not None:
            return refusal
        cursor = request.get("cursor")
        if cursor is not None and (not isinstance(cursor, int)
                                   or isinstance(cursor, bool)
                                   or cursor < 0):
            return protocol.error(
                protocol.BAD_REQUEST,
                "subscribe cursor must be a non-negative integer",
                request=request)
        fault_point("repl.subscribe")
        async with self._gate.read():
            try:
                sub = self._hub.subscribe(cursor, request.get("log_id"))
            except ResyncNeeded as err:
                return protocol.error(protocol.RESYNC_REQUIRED, str(err),
                                      request=request)
            connection.subs.add(sub.id)
            self.stats.repl_subscribes += 1
            head = self._db.change_log.cursor()
        return protocol.ok(request, sub=sub.id, cursor=head,
                           log_id=self._hub.log_id)

    async def _handle_repl_batch(self, request: dict) -> dict:
        refusal = self._not_a_primary(request)
        if refusal is not None:
            return refusal
        cursor = request.get("cursor")
        if (not isinstance(cursor, int) or isinstance(cursor, bool)
                or cursor < 0):
            return protocol.error(
                protocol.BAD_REQUEST,
                "repl.batch needs a non-negative integer 'cursor'",
                request=request)
        sub = self._hub.get(request.get("sub"))
        if sub is None:
            return protocol.error(
                protocol.BAD_REQUEST,
                f"unknown subscription {request.get('sub')!r}; "
                f"subscriptions die with their connection -- resubscribe",
                request=request)
        wait_ms = request.get("wait_ms", 0)
        if (not isinstance(wait_ms, (int, float))
                or isinstance(wait_ms, bool) or wait_ms < 0):
            wait_ms = 0
        wait_ms = min(float(wait_ms), self.config.repl_wait_cap_ms)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait_ms / 1000.0
        while True:
            async with self._gate.read():
                # Read-held ship: the maintainer applies exclusively,
                # so the shipped suffix ends on a whole-batch boundary.
                fault_point("repl.ship")
                try:
                    entries, head = self._hub.ship(sub, cursor)
                except ResyncNeeded as err:
                    return protocol.error(protocol.RESYNC_REQUIRED,
                                          str(err), request=request)
                # The request cursor acknowledges everything below it:
                # the lease advances, trimming may reclaim the prefix.
                self._hub.ack(sub, cursor)
                if entries or self._draining or loop.time() >= deadline:
                    encoded = [[sign, encode_fact(fact)]
                               for sign, fact in entries]
                    if entries:
                        self.stats.repl_batches_shipped += 1
                        self.stats.repl_entries_shipped += len(entries)
                        sub.batches += 1
                        sub.entries += len(entries)
                    version = self._db.data_version()
                    return protocol.ok(request, begin=cursor,
                                       entries=encoded, cursor=head,
                                       version=version)
            # Long poll: woken by the maintainer after each batch (or
            # by drain); capped so the drain flag is re-checked.
            await self._hub.wait(min(0.25, deadline - loop.time()))

    # -- writes (single maintainer) ------------------------------------

    async def _handle_write(self, request: dict) -> dict:
        if self._replicator is not None:
            return protocol.error(
                protocol.READ_ONLY,
                f"this server is a read replica of "
                f"{self.config.replica_of}; send writes to the primary",
                request=request)
        raw = request.get("changes")
        if not isinstance(raw, list):
            return protocol.error(protocol.BAD_REQUEST,
                                  "write op needs a 'changes' list",
                                  request=request)
        try:
            ops = [self._parse_change(change) for change in raw]
        except ValueError as err:
            return protocol.error(protocol.QUERY_ERROR, str(err),
                                  request=request)
        self.stats.writes += 1
        future = asyncio.get_running_loop().create_future()
        await self._write_queue.put((ops, future))
        outcome = await future
        if isinstance(outcome, Exception):
            if isinstance(outcome, PathLogError):
                return protocol.error(protocol.QUERY_ERROR,
                                      str(outcome), request=request)
            return protocol.error(
                protocol.INTERNAL,
                f"{type(outcome).__name__}: {outcome} (rolled back)",
                request=request)
        return protocol.ok(request, **outcome)

    _CHANGE_ARITY = {"+scalar": 5, "-scalar": 4, "+set": 5, "-set": 5,
                     "+isa": 3, "-isa": 3}

    def _parse_change(self, change) -> tuple:
        """Validate one wire change into ``(tag, *oids)`` before any
        mutation happens -- a malformed batch is rejected whole."""
        if (not isinstance(change, list) or not change
                or change[0] not in self._CHANGE_ARITY):
            raise ValueError(f"malformed change {change!r}")
        tag = change[0]
        if len(change) != self._CHANGE_ARITY[tag]:
            raise ValueError(
                f"change {tag!r} takes {self._CHANGE_ARITY[tag] - 1} "
                f"fields, got {len(change) - 1}")
        if tag in ("+isa", "-isa"):
            return (tag, self._name(change[1]), self._name(change[2]))
        args = change[3]
        if not isinstance(args, list):
            raise ValueError(f"change {tag!r} args must be a list")
        resolved = (tag, self._name(change[1]), self._name(change[2]),
                    tuple(self._name(a) for a in args))
        if tag == "-scalar":
            return resolved
        return resolved + (self._name(change[4]),)

    def _name(self, value):
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            raise ValueError(f"names must be strings or integers, "
                             f"got {value!r}")
        return self._db.obj(value)

    async def _maintain_loop(self) -> None:
        """The single writer: apply batches exclusively, then sync."""
        loop = asyncio.get_running_loop()
        while True:
            item = await self._write_queue.get()
            if item is None:
                return
            ops, future = item
            async with self._gate.write():
                try:
                    outcome = await loop.run_in_executor(
                        self._pool, self._apply_batch, ops)
                except Exception as err:  # noqa: BLE001 - typed on the wire
                    outcome = err
            if not future.cancelled():
                future.set_result(outcome)
            if self._hub is not None and not isinstance(outcome, Exception):
                # Wake long-polling replication subscribers: there is a
                # new committed batch to ship.
                self._hub.notify()

    async def _checkpoint_loop(self) -> None:
        """Checkpoint by WAL size (durable servers only).

        Polls every ``checkpoint_interval_ms``; when the WAL grows past
        ``checkpoint_bytes`` it takes the gate exclusively (no readers
        inside, no write racing) and snapshots on the thread pool.  A
        failed checkpoint is retried on the next tick -- the WAL keeps
        the state safe meanwhile.
        """
        loop = asyncio.get_running_loop()
        interval = self.config.checkpoint_interval_ms / 1000.0
        while True:
            await asyncio.sleep(interval)
            try:
                if self._store.wal_size() < self.config.checkpoint_bytes:
                    continue
                async with self._gate.write():
                    await loop.run_in_executor(self._pool,
                                               self._store.checkpoint)
                self.stats.checkpoints += 1
            except asyncio.CancelledError:
                raise
            except Exception:
                self.stats.internal_errors += 1

    def _apply_batch(self, ops: list[tuple]) -> dict:
        """Apply one parsed batch (worker thread, gate held exclusive).

        All-or-nothing: any failure -- a scalar conflict, an injected
        ``server.maintain`` fault, a crashed WAL append -- rolls the
        base facts back to the checkpoint (repairing the WAL tail when
        durable) and re-raises.  The batch is journalled durably
        *before* the exclusive gate is released, so an acknowledged
        write survives a crash.  A failure *after* the journal commit
        (inside memo maintenance) instead drops the memos wholesale:
        the base write stands, readers re-derive.
        """
        log = self._db.change_log
        checkpoint = log.cursor()
        fault_point("server.maintain")
        try:
            applied = 0
            for op in ops:
                applied += self._apply_change(op)
            if self._store is not None:
                self._store.commit()
        except Exception:
            self.stats.rollbacks += 1
            self._db.rollback_changes(checkpoint)
            if self._store is not None:
                self._store.discard_pending()
            raise
        try:
            report = self._query.sync()
        except Exception:
            # Maintenance died mid-way (each entry itself rolled back
            # atomically).  Dropping every memo keeps the "readers
            # never patch shared results" invariant without failing
            # the already-committed write.
            self.stats.memo_resets += 1
            dropped = self._query.forget()
            report = {"maintained": 0, "evicted": dropped}
        return {"applied": applied, "version": self._db.data_version(),
                "maintenance": report}

    def _apply_change(self, op: tuple) -> int:
        tag = op[0]
        if tag == "+scalar":
            return int(self._db.assert_scalar(op[1], op[2], op[3], op[4]))
        if tag == "-scalar":
            return int(self._db.retract_scalar(op[1], op[2], op[3]))
        if tag == "+set":
            return int(self._db.assert_set_member(op[1], op[2], op[3],
                                                  op[4]))
        if tag == "-set":
            return int(self._db.retract_set_member(op[1], op[2], op[3],
                                                   op[4]))
        if tag == "+isa":
            return int(self._db.assert_isa(op[1], op[2]))
        return int(self._db.retract_isa(op[1], op[2]))
