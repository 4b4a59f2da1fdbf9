"""Change-log-shipping replication: primary hub, replica pull loop.

One primary serves writes; any number of replicas serve reads.  The
stream is the :class:`~repro.oodb.database.ChangeLog` itself -- its
cursors are absolute, so a shipped position never needs rebasing --
and the unit of shipping is the *committed batch*: the primary only
answers ``repl.batch`` while holding the read side of its gate, which
the single maintainer holds exclusively while applying, so a shipped
prefix always ends on a whole-batch boundary (replicas can never
observe half a write).

Primary side (:class:`ReplicationHub`):

- ``subscribe`` registers a subscriber at a cursor and pins the log
  with a :class:`~repro.oodb.database.ChangeLease` -- trimming can
  never reclaim entries a replica has not acknowledged.
- ``ship`` returns the entries past a cursor; ``ack`` advances the
  lease as the replica confirms application.
- ``log_id`` is the change log's ``epoch`` (one fresh id per log
  object): a primary restart or a disrupted-and-rebuilt log changes
  the epoch, and every incremental cursor from the old epoch answers
  :class:`ResyncNeeded` -- the subscriber must re-bootstrap.  The
  cursor numbers carry on across both, so only the epoch tells.
- ``notify``/``wait`` implement the long poll: the maintainer wakes
  sleeping subscribers after each applied batch.

Replica side (:class:`Replicator`):

1. **Bootstrap**: fetch the primary's checksummed snapshot document
   (``repl.snapshot`` -- the exact artifact
   :func:`~repro.oodb.checkpoint.write_snapshot` persists, verified by
   the same :func:`~repro.oodb.checkpoint.verify_document`), install
   it as the replica's database at the snapshot's cursor.
2. **Stream**: subscribe at the applied cursor, pull batches, and
   apply each under the replica's exclusive gate through the server's
   one commit step -- the primary's maintainer runs the same one:
   :meth:`Database.apply_batch` (all-or-nothing, facts and ``U``
   rolled back on any failure), then ``Query.sync``.
3. **Recover**: a dropped connection reconnects with jittered
   exponential backoff and resubscribes at the applied cursor --
   duplicate entries below it are skipped idempotently.  A cursor
   *gap* (batch begins past the applied cursor) or a typed
   ``resync_required`` answer falls back to a full re-bootstrap: the
   fresh snapshot database is swapped in under the exclusive gate, so
   readers see either the old consistent state or the new one.

The applied cursor is published *inside* the exclusive section that
applies a batch, which is what makes a replica answer's
``(version, cursor)`` + ``staleness`` proof honest: a reader holding
the shared gate sees a database state and an applied cursor that
correspond exactly.

Fault points: ``repl.subscribe`` and ``repl.ship`` (primary, crash the
stream mid-handshake / mid-batch), ``repl.bootstrap`` (replica, kill a
snapshot fetch), ``repl.apply`` (replica, crash mid-application and
prove the rollback).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import time
from typing import TYPE_CHECKING

from repro.errors import PathLogError
from repro.oodb.checkpoint import verify_document
from repro.oodb.database import Database, TrimmedCursor
from repro.oodb.serialize import decode_fact
from repro.server.client import Client, ResyncRequired, RetryPolicy
from repro.testing.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.server import Server


class ReplicationError(PathLogError):
    """Replication could not be established (bootstrap exhausted)."""


class ResyncNeeded(Exception):
    """This subscriber state cannot be served incrementally.

    Raised by the hub for a cursor below the trim horizon, past the
    head, or from another log epoch; the server translates it into the
    typed, retryable ``resync_required`` protocol error and the
    replica falls back to a full snapshot re-bootstrap.
    """


def parse_endpoint(text: str) -> tuple[str, int]:
    """``"host:port"`` as a ``(host, port)`` pair."""
    host, sep, port = str(text).rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"endpoint {text!r} is not HOST:PORT")
    return host or "127.0.0.1", int(port)


def _faulted(entries: list):
    """Yield ``entries``, firing ``repl.apply`` before each one: a
    targeted nth hit crashes *mid-batch*, inside the all-or-nothing
    region, and must roll the whole span back."""
    for entry in entries:
        fault_point("repl.apply")
        yield entry


class Subscription:
    """One replica's position in the primary's change log."""

    __slots__ = ("id", "epoch", "lease", "cursor", "batches", "entries")

    def __init__(self, sub_id: str, epoch: str, lease, cursor: int) -> None:
        self.id = sub_id
        #: The log epoch the cursors below count in.
        self.epoch = epoch
        #: Pins the log at the replica's acknowledged cursor.
        self.lease = lease
        #: Last cursor the replica acknowledged as applied.
        self.cursor = cursor
        #: Non-empty batches / entries shipped to this subscriber.
        self.batches = 0
        self.entries = 0


class ReplicationHub:
    """Primary-side subscriber registry over the database's change log
    (which a server keeps active from start to shutdown).

    Each subscription remembers the log epoch it was made in; once the
    database replaces its log, shipping to it answers
    :class:`ResyncNeeded` and drops it -- its cursors may coincide with
    the new log's, but they describe another history.
    """

    def __init__(self, db: Database) -> None:
        self._db = db
        self._subs: dict[str, Subscription] = {}
        self._counter = itertools.count(1)
        self._wakeup = asyncio.Event()

    # -- the log epoch -------------------------------------------------

    def current_log(self):
        """The active, healthy change log (or :class:`ResyncNeeded`)."""
        log = self._db.change_log
        if log.disrupted is not None:
            raise ResyncNeeded(f"change log disrupted ({log.disrupted}); "
                               f"incremental shipping is impossible")
        return log

    # -- subscriber lifecycle ------------------------------------------

    def subscribe(self, cursor: int | None,
                  log_id: str | None = None) -> Subscription:
        """Register a subscriber at ``cursor`` (None: the head).

        The subscription's lease pins the log from ``cursor`` on, so a
        trim between this call and the first ``repl.batch`` cannot
        open a gap.  Raises :class:`ResyncNeeded` when the position is
        not incrementally servable.
        """
        log = self.current_log()
        if log_id is not None and log_id != log.epoch:
            raise ResyncNeeded(f"log epoch {log_id} is gone "
                               f"(current epoch {log.epoch})")
        head = log.cursor()
        if cursor is None:
            cursor = head
        if cursor < log.offset:
            raise ResyncNeeded(f"cursor {cursor} is below the trim "
                               f"horizon ({log.offset})")
        if cursor > head:
            raise ResyncNeeded(f"cursor {cursor} is past the head ({head})")
        sub = Subscription(f"r{next(self._counter)}", log.epoch,
                           self._db.held_changes(cursor=cursor), cursor)
        self._subs[sub.id] = sub
        return sub

    def get(self, sub_id) -> Subscription | None:
        return self._subs.get(sub_id)

    def drop(self, sub_id) -> None:
        """Forget a subscriber and release its lease (idempotent)."""
        sub = self._subs.pop(sub_id, None)
        if sub is not None:
            sub.lease.release()

    def drop_all(self) -> None:
        for sub_id in list(self._subs):
            self.drop(sub_id)

    # -- shipping ------------------------------------------------------

    def ship(self, sub: Subscription, cursor: int) -> tuple[list, int]:
        """``(entries past cursor, head)`` -- caller holds the read gate.

        Raises :class:`ResyncNeeded` when the cursor was trimmed past
        (possible only for cursors below the subscriber's own lease,
        i.e. a subscriber that rewound) or the epoch changed.
        """
        log = self.current_log()
        if sub.epoch != log.epoch or self._subs.get(sub.id) is not sub:
            # Its cursors count entries of a log that no longer exists.
            self.drop(sub.id)
            raise ResyncNeeded("subscription belongs to a previous "
                               "log epoch")
        try:
            entries = log.since(cursor)
        except TrimmedCursor as err:
            raise ResyncNeeded(str(err)) from err
        return entries, log.cursor()

    def ack(self, sub: Subscription, cursor: int) -> None:
        """The replica applied everything below ``cursor``: advance the
        lease so trimming may reclaim the shipped prefix."""
        if cursor > sub.cursor:
            sub.cursor = cursor
            sub.lease.move(cursor)

    # -- long poll -----------------------------------------------------

    def notify(self) -> None:
        """Wake every long-polling subscriber (new batch, or drain)."""
        event, self._wakeup = self._wakeup, asyncio.Event()
        event.set()

    async def wait(self, seconds: float) -> None:
        if seconds <= 0:
            return
        event = self._wakeup
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(event.wait(), seconds)

    # -- introspection -------------------------------------------------

    def replicas(self) -> list[dict]:
        """Per-subscriber shipped cursors for ``stats``."""
        head = self._db.change_log.cursor()
        return [{"sub": sub.id, "cursor": sub.cursor,
                 "lag": max(0, head - sub.cursor),
                 "shipped_batches": sub.batches,
                 "shipped_entries": sub.entries}
                for sub in self._subs.values()]


class Replicator:
    """The replica's connection to its primary: bootstrap + pull loop."""

    def __init__(self, server: "Server", host: str, port: int) -> None:
        self._server = server
        self.host = host
        self.port = port
        config = server.config
        self._poll_ms = config.repl_poll_ms
        self._retry = RetryPolicy(base_ms=config.repl_retry_base_ms,
                                  cap_ms=config.repl_retry_cap_ms)
        self._client: Client | None = None
        self._sub = None
        self._ever_connected = False
        self._failures = 0
        self._needs_bootstrap = False
        #: Epoch token of the primary log the cursors below refer to.
        self.log_id: str | None = None
        #: Primary-log cursor applied locally (published under the
        #: exclusive gate, so it always matches the visible database).
        self.applied = 0
        #: Highest primary head observed (staleness = head - applied).
        self.head = 0
        #: Whether the stream is currently established.
        self.connected = False
        #: ``time.monotonic()`` of the last successful batch response.
        self.last_contact: float | None = None

    # -- bootstrap -----------------------------------------------------

    async def bootstrap(self) -> None:
        """Fetch, verify and install a snapshot, with backoff between
        ``bootstrap_attempts`` attempts.

        Used once at startup, before the server listens; raises
        :class:`ReplicationError` when every attempt failed.
        """
        attempts = self._server.config.bootstrap_attempts
        last: Exception | None = None
        for attempt in range(attempts):
            try:
                snapshot = await self._bootstrap_once()
            except asyncio.CancelledError:
                raise
            except Exception as err:  # noqa: BLE001 - retried, then typed
                last = err
                await self._disconnect()
                if attempt + 1 < attempts:
                    delay = self._retry.delay_ms(attempt)
                    await asyncio.sleep(delay / 1000.0)
            else:
                await self._install(*snapshot)
                return
        raise ReplicationError(
            f"bootstrap from {self.host}:{self.port} failed after "
            f"{attempts} attempts: {last}") from last

    async def _bootstrap_once(self) -> tuple[Database, int]:
        fault_point("repl.bootstrap")
        client = await self._ensure_client()
        response = await client.request({"op": "repl.snapshot"})
        db, cursor = verify_document(
            response.get("snapshot"),
            source=f"primary {self.host}:{self.port} snapshot")
        self.log_id = response.get("log_id")
        return db, cursor

    # -- the pull loop -------------------------------------------------

    async def run(self) -> None:
        """Stream batches until cancelled; never raises (except cancel).

        Transient failures (dropped connection, a draining primary, an
        injected fault) back off exponentially and resubscribe at the
        applied cursor; a cursor gap or ``resync_required`` answer
        re-bootstraps from a fresh snapshot -- at once after a healthy
        stream, with the same backoff when the last pull failed too (a
        primary whose log stays disrupted answers every subscribe with
        ``resync_required``).
        """
        while True:
            try:
                if self._needs_bootstrap:
                    await self._install(*await self._bootstrap_once())
                    self._server.stats.repl_rebootstraps += 1
                await self._ensure_subscribed()
                await self._pull_once()
                self._failures = 0
            except asyncio.CancelledError:
                raise
            except Exception as err:  # noqa: BLE001 - backoff covers all
                resync = isinstance(err, ResyncNeeded)
                self._needs_bootstrap |= resync
                self.connected = False
                self._failures += 1
                await self._disconnect()
                if resync and self._failures == 1:
                    continue
                delay = self._retry.delay_ms(min(self._failures - 1, 10))
                await asyncio.sleep(delay / 1000.0)

    async def _ensure_client(self) -> Client:
        if self._client is None:
            client = Client(self.host, self.port)
            await client.connect()
            self._client = client
            if self._ever_connected:
                self._server.stats.repl_reconnects += 1
            self._ever_connected = True
        return self._client

    async def _ensure_subscribed(self) -> None:
        client = await self._ensure_client()
        if self._sub is not None:
            return
        try:
            response = await client.request(
                {"op": "repl.subscribe", "cursor": self.applied,
                 "log_id": self.log_id})
        except ResyncRequired as err:
            raise ResyncNeeded(str(err)) from err
        self._sub = response.get("sub")
        self.head = max(self.head, response.get("cursor", self.applied))
        self.connected = True

    async def _pull_once(self) -> None:
        try:
            response = await self._client.request(
                {"op": "repl.batch", "sub": self._sub,
                 "cursor": self.applied, "wait_ms": self._poll_ms})
        except ResyncRequired as err:
            raise ResyncNeeded(str(err)) from err
        begin = response.get("begin", self.applied)
        entries = response.get("entries", [])
        self.head = max(self.head, response.get("cursor", self.applied))
        self.connected = True
        self.last_contact = time.monotonic()
        if begin > self.applied:
            # The primary's incremental answer starts past what we
            # applied: entries are missing (WalDisrupted-style gap).
            raise ResyncNeeded(f"cursor gap: batch begins at {begin}, "
                               f"applied only {self.applied}")
        todo = entries[self.applied - begin:]
        if todo:
            await self._apply(todo)

    async def _apply(self, entries: list) -> None:
        """Apply one streamed batch through the server's commit step.

        The whole batch is decoded before the first mutation (a
        malformed entry rejects it whole); the applied cursor and the
        ``repl_*`` counters advance inside the same exclusive section
        as the apply, so a reader never sees one without the other.
        """
        server = self._server
        decoded = [(sign, decode_fact(encoded)) for sign, encoded in entries]
        loop = asyncio.get_running_loop()
        async with server._gate.write():
            await loop.run_in_executor(server._pool, server._apply_batch,
                                       _faulted(decoded))
            self.applied += len(entries)
            server.stats.repl_batches_applied += 1
            server.stats.repl_entries_applied += len(entries)

    async def _install(self, db: Database, cursor: int) -> None:
        """Serve a bootstrapped snapshot; the database and the cursors
        it is applied up to change in one exclusive section."""
        server = self._server
        async with server._gate.write():
            server._serve(db)
            self.applied = cursor
            self.head = cursor
        self._sub = None
        self._needs_bootstrap = False

    async def _disconnect(self) -> None:
        # Subscriptions are per-connection on the primary (dropped when
        # the socket dies), so losing the client loses the sub too.
        self._sub = None
        if self._client is not None:
            client, self._client = self._client, None
            await client.close()

    async def close(self) -> None:
        self.connected = False
        await self._disconnect()

    # -- staleness -----------------------------------------------------

    def lag_entries(self) -> int:
        """Entries between the last observed primary head and what is
        applied locally (the ``--max-lag`` bound checks this)."""
        return max(0, self.head - self.applied)

    def staleness(self) -> dict:
        """The replica's staleness evidence attached to every answer."""
        ms = None
        if self.last_contact is not None:
            ms = round((time.monotonic() - self.last_contact) * 1000.0, 1)
        return {"entries": self.lag_entries(), "ms": ms}
