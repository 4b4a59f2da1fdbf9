"""Write-ahead change logging: durable, CRC-framed batch records.

The in-memory :class:`~repro.oodb.database.ChangeLog` already gives
every consumer an absolute-cursor replication stream; this module makes
a prefix of that stream *durable*, in the log's own cursors (a
recovered database's log continues from the recovered cursor, so they
keep counting across restarts).  A :class:`WriteAheadLog` appends one
record per :data:`~repro.oodb.database.ChangeEntry` -- bracketed by
``begin``/``commit`` markers per maintenance batch -- to segment files
in a data directory, so a crashed process can replay exactly the
committed batches it acknowledged (recovery lives in
:mod:`repro.oodb.checkpoint`).

**Framing.**  Each record is length-prefixed and checksummed::

    [4-byte big-endian payload length]
    [4-byte big-endian CRC32 of the payload]
    [payload: compact UTF-8 JSON]

A torn OS write therefore fails loudly at the first bad frame (length
runs past EOF, or the CRC mismatches) instead of replaying garbage.

**Records.**  The first record of every segment is a header carrying
the serialisation :data:`~repro.oodb.serialize.FORMAT_VERSION` (a
mismatch raises a typed
:class:`~repro.oodb.serialize.SerializationError`) and the segment's
starting cursor.  Batches then encode as::

    {"begin": B}                  -- cursor of the first entry
    {"e": [sign, fact]}           -- one change entry (serialize.encode_fact)
    {"commit": C}                 -- cursor after the batch (B + n)

The cursors inside ``begin``/``commit`` are authoritative during
replay: a retried batch (after a failed append or fsync) re-begins at
the same cursor, so recovery re-synchronises its position instead of
double-counting, and consecutive duplicate batches replay idempotently.

**Durability policy.**  ``fsync="always"`` syncs after the entry frames
*and* after the commit marker; ``"batch"`` (the default) syncs once per
committed batch; ``"off"`` never syncs (the OS decides).  The commit
marker only counts as written once the policy's sync for it returned,
and only then does the log advance its *flushed* cursor.

**Trim safety.**  The log registers itself as a change-log consumer
through a :class:`~repro.oodb.database.ChangeLease` pinned at the
**flushed** cursor -- not the appended one -- so
:meth:`Database.trim_changes` can never reclaim entries that a slow or
failed fsync has not yet made durable: a failed :meth:`commit` leaves
the lease where it was and the entries replayable for the retry.

Fault points (``wal.append``, ``wal.commit``, ``wal.fsync``,
``wal.rotate``) let the crash harness (:mod:`repro.testing.crashes`)
kill the writer at every stage.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import PathLogError
from repro.oodb.database import Database
from repro.oodb.serialize import (
    FORMAT_VERSION,
    SerializationError,
    encode_fact,
)
from repro.testing.faults import fault_point

#: Accepted values for the fsync policy knob.
FSYNC_POLICIES = ("always", "batch", "off")

_PREFIX = 8  # 4 bytes length + 4 bytes CRC32


class WalStateError(PathLogError):
    """The write-ahead log cannot serve the request in its state."""


class WalDisrupted(WalStateError):
    """The change log can no longer express changes as fact deltas.

    An alias rebinding (or any other disruption) means the entry stream
    does not reproduce the database; the caller must write a full
    checkpoint instead (:meth:`~repro.oodb.checkpoint.DurableStore.commit`
    does this automatically).
    """


def frame(record: dict) -> bytes:
    """One framed record: length prefix, CRC32, compact JSON payload."""
    payload = json.dumps(record, separators=(",", ":"),
                         sort_keys=True).encode("utf-8")
    return (len(payload).to_bytes(4, "big")
            + zlib.crc32(payload).to_bytes(4, "big") + payload)


def read_frames(data: bytes) -> tuple[list[dict], list[int], int,
                                      str | None]:
    """Decode consecutive frames from ``data``.

    Returns ``(records, offsets, good_end, tear)``: the records decoded
    before the first bad frame, each record's starting byte offset, the
    offset just past the last good frame, and a description of the tear
    (None when the buffer ended exactly on a frame boundary).  Never
    raises on torn input -- a truncated length, a CRC mismatch, or
    undecodable JSON all simply end the scan, which is precisely the
    recovery contract.
    """
    records: list[dict] = []
    offsets: list[int] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _PREFIX > total:
            return records, offsets, offset, "truncated frame prefix"
        length = int.from_bytes(data[offset:offset + 4], "big")
        crc = int.from_bytes(data[offset + 4:offset + 8], "big")
        start = offset + _PREFIX
        end = start + length
        if end > total:
            return records, offsets, offset, "frame runs past end of segment"
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, offsets, offset, "CRC mismatch"
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return records, offsets, offset, "undecodable payload"
        if not isinstance(record, dict):
            return records, offsets, offset, "non-object record"
        records.append(record)
        offsets.append(offset)
        offset = end
    return records, offsets, offset, None


def segment_name(cursor: int) -> str:
    """The file name of the segment starting at ``cursor``."""
    return f"wal-{cursor:020d}.log"


def segment_files(data_dir: Path) -> list[tuple[int, Path]]:
    """All WAL segments in ``data_dir`` as ``(start_cursor, path)``,
    ordered by start cursor (taken from the file name, which is
    authoritative for ordering; the in-file header re-verifies it)."""
    found = []
    for path in Path(data_dir).glob("wal-*.log"):
        stem = path.stem[len("wal-"):]
        if stem.isdigit():
            found.append((int(stem), path))
    return sorted(found)


@dataclass
class SegmentScan:
    """The decoded content of one WAL segment file."""

    path: Path
    #: Start cursor from the segment header (None when the header frame
    #: itself is torn or missing).
    start_cursor: int | None
    #: Records after the header, in order, up to the first bad frame.
    records: list[dict] = field(default_factory=list)
    #: Starting byte offset of each record in :attr:`records`.
    offsets: list[int] = field(default_factory=list)
    #: Byte offset just past the last good frame.
    good_end: int = 0
    #: Why the scan stopped early, or None when the file ended cleanly.
    tear: str | None = None

    @property
    def torn(self) -> bool:
        return self.tear is not None


def scan_segment(path: Path) -> SegmentScan:
    """Read one segment, tolerating a torn tail.

    Raises :class:`~repro.oodb.serialize.SerializationError` when the
    header is *intact* but names a different format version or start
    cursor than the file name -- real corruption, not a tear.
    """
    data = Path(path).read_bytes()
    records, offsets, good_end, tear = read_frames(data)
    if not records:
        return SegmentScan(path, None, [], [], good_end,
                           tear or "empty segment")
    header = records[0]
    if header.get("wal") != FORMAT_VERSION:
        raise SerializationError(
            f"WAL segment {path} has format {header.get('wal')!r}, "
            f"this build reads {FORMAT_VERSION}")
    start = header.get("cursor")
    if not isinstance(start, int):
        raise SerializationError(f"WAL segment {path} header has no cursor")
    stem = path.stem[len("wal-"):]
    if stem.isdigit() and int(stem) != start:
        raise SerializationError(
            f"WAL segment {path} header cursor {start} does not match "
            f"its file name")
    return SegmentScan(path, start, records[1:], offsets[1:], good_end,
                       tear)


def fsync_dir(path: Path) -> None:
    """Best-effort directory fsync (a no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class WriteAheadLog:
    """Durable batch journal over a database's active change log.

    One instance owns the *current* segment file of a data directory
    and a :class:`~repro.oodb.database.ChangeLease` pinning the change
    log at the flushed cursor.  Its cursors are the change log's own
    (a recovered database's log starts at the recovered cursor), so a
    ``begin``/``commit`` marker, a segment or snapshot file name and
    ``ChangeLog.since`` all name a state by one number.
    """

    def __init__(self, data_dir: Path | str, db: Database, *,
                 fsync: str = "batch") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, "
                             f"got {fsync!r}")
        self._dir = Path(data_dir)
        self._db = db
        self._fsync = fsync
        log = db.change_log
        #: Pins the change log at the flushed cursor.
        self._lease = db.held_changes(
            cursor=log.cursor() if log is not None else 0)
        #: Byte offset of the current in-flight batch (for repair).
        self._pending_offset: int | None = None
        self._file = None
        self._segment_start = self.flushed
        self._segment_batches = 0
        #: Monotonic counters surfaced by server stats.
        self.batches = 0
        self.entries_logged = 0
        self.syncs = 0
        self._open_segment(self._segment_start)

    # -- bookkeeping ---------------------------------------------------

    @property
    def fsync_policy(self) -> str:
        return self._fsync

    @property
    def flushed(self) -> int:
        """Change-log cursor up to which entries are durable."""
        return self._lease.cursor

    @property
    def segment_path(self) -> Path:
        return self._dir / segment_name(self._segment_start)

    def size_bytes(self) -> int:
        """Total bytes across all segment files (checkpoint trigger)."""
        return sum(path.stat().st_size
                   for _, path in segment_files(self._dir)
                   if path.exists())

    # -- the write path ------------------------------------------------

    def commit(self) -> int:
        """Durably log everything past the flushed cursor as one batch.

        Reads ``change_log.since(flushed)``, appends a
        ``begin``/entries/``commit`` group, syncs per policy, and only
        then advances the flushed cursor and the trim lease.  Returns
        the number of entries logged (0 when already caught up).

        On any failure the flushed cursor and lease are untouched: the
        entries stay pinned in the change log and a retry (or
        :meth:`discard_pending` after an in-memory rollback) decides
        their fate.  A partially appended batch has no ``commit``
        marker, so recovery discards it.
        """
        log = self._db.change_log
        if log is None:
            raise WalStateError("no active change log to journal")
        if log.disrupted is not None:
            raise WalDisrupted(
                f"change log disrupted ({log.disrupted}); a full "
                f"checkpoint must capture this state")
        flushed = self.flushed
        entries = log.since(flushed)
        if not entries:
            return 0
        head = flushed + len(entries)
        body = bytearray(frame({"begin": flushed}))
        for sign, fact in entries:
            body += frame({"e": [sign, encode_fact(fact)]})
        self._pending_offset = self._file.tell()
        fault_point("wal.append")
        self._file.write(body)
        self._flush(self._fsync == "always")
        fault_point("wal.commit")
        self._file.write(frame({"commit": head}))
        fault_point("wal.fsync")
        self._flush(self._fsync in ("always", "batch"))
        self._pending_offset = None
        self._segment_batches += 1
        self.batches += 1
        self.entries_logged += len(entries)
        self._lease.move(head)
        return len(entries)

    def discard_pending(self) -> None:
        """Repair after a failed :meth:`commit` whose batch was rolled
        back in memory.

        Truncates the segment back to the pre-batch offset (so a later
        recovery cannot see even a torn trace of the abandoned batch)
        and advances the flushed cursor past the rolled-back suffix --
        the caller guarantees the entries since the flushed cursor are
        a completed :meth:`Database.rollback_changes` (original changes
        plus their exact inverses, a net no-op).
        """
        if self._pending_offset is not None:
            self._file.flush()
            os.ftruncate(self._file.fileno(), self._pending_offset)
            self._file.seek(self._pending_offset)
            if self._fsync != "off":
                os.fsync(self._file.fileno())
            self._pending_offset = None
        log = self._db.change_log
        if log is not None and log.disrupted is None:
            self.skip_to(log.cursor())

    def skip_to(self, cursor: int) -> None:
        """Advance the flushed cursor without logging (a rolled-back
        suffix, or one a snapshot just captured)."""
        if cursor < self.flushed:
            raise WalStateError(
                f"cannot skip the flushed cursor backwards "
                f"({self.flushed} -> {cursor})")
        self._lease.move(cursor)

    def rotate(self, cursor: int) -> None:
        """Start a fresh segment at ``cursor`` (checkpointed).

        Called right after a snapshot covering everything below
        ``cursor`` was durably written: entries below it no longer need
        the WAL, so the flushed cursor and lease jump there and later
        batches land in the new segment.  Rotating onto an empty
        current segment at the same start is a no-op (no file churn).
        """
        if cursor == self._segment_start and self._segment_batches == 0:
            self.skip_to(cursor)
            return
        fault_point("wal.rotate")
        path = self._dir / segment_name(cursor)
        try:
            self._open_segment(cursor, old=self._file)
        except BaseException:
            # Never leave a header-only orphan that could shadow the
            # still-active segment in the recovery ordering.
            if self._file is not None and self.segment_path != path:
                path.unlink(missing_ok=True)
            raise
        self._segment_start = cursor
        self._segment_batches = 0
        self.skip_to(cursor)

    def close(self) -> None:
        """Flush and close the current segment; release the lease."""
        if self._file is not None:
            self._flush(self._fsync != "off")
            self._file.close()
            self._file = None
        self._lease.release()

    # -- internals -----------------------------------------------------

    def _open_segment(self, start: int, old=None) -> None:
        path = self._dir / segment_name(start)
        handle = open(path, "ab")
        try:
            if handle.tell() == 0:
                handle.write(frame({"wal": FORMAT_VERSION,
                                    "cursor": start}))
                handle.flush()
                if self._fsync != "off":
                    os.fsync(handle.fileno())
                fsync_dir(self._dir)
        except BaseException:
            handle.close()
            raise
        if old is not None:
            old.flush()
            if self._fsync != "off":
                os.fsync(old.fileno())
            old.close()
        self._file = handle

    def _flush(self, sync: bool) -> None:
        self._file.flush()
        if sync:
            os.fsync(self._file.fileno())
            self.syncs += 1
