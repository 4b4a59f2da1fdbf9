"""Checkpointed snapshots, crash recovery, and the durable store.

This module closes the durability loop opened by
:mod:`repro.oodb.wal`:

- :func:`write_snapshot` writes an **atomic** point-in-time snapshot --
  the canonical :func:`~repro.oodb.serialize.to_dict` encoding wrapped
  with a format version, the change-log cursor it covers, and a
  whole-file CRC32 -- via temp file + fsync + rename, so a crash during
  checkpointing can never damage the previous snapshot.
- :func:`recover` rebuilds a database from a data directory: it loads
  the newest snapshot whose checksum verifies (falling back to the
  previous one on mismatch), replays the committed WAL batches past the
  snapshot's cursor, truncates a torn tail at the first bad frame, and
  discards any uncommitted batch suffix -- recovery therefore always
  lands on a committed-batch boundary, preserving the server's
  "whole-batch states only" invariant across restarts.
- :class:`DurableStore` ties a live :class:`~repro.oodb.database.Database`
  to both: ``open`` recovers (or initialises) a data directory and
  immediately re-checkpoints, ``commit`` journals each applied batch,
  ``checkpoint`` snapshots and rotates/reclaims the WAL.

Fault points (``checkpoint.write``, ``checkpoint.rename``,
``recover.replay``) complete the kill-at-every-point surface used by
:mod:`repro.testing.crashes`.

**Replica bootstrap.**  A snapshot plus the WAL suffix past its cursor
is exactly the ``ChangeLog.since`` contract in durable form: ship the
snapshot, then stream the framed batches -- see docs/durability.md.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import PathLogError
from repro.oodb import wal as _wal
from repro.oodb.database import Database
from repro.oodb.serialize import (
    FORMAT_VERSION,
    SerializationError,
    decode_fact,
    from_dict,
    to_dict,
)
from repro.testing.faults import fault_point

#: Snapshots kept per data directory: the newest plus one fallback.
RETAIN_SNAPSHOTS = 2


class RecoveryError(PathLogError):
    """The data directory cannot be recovered to a consistent state.

    Raised for *unrecoverable* corruption only -- no snapshot verifies
    and the WAL does not reach back to cursor 0, a mid-stream (not
    tail) segment is torn, or a gap separates the snapshot from the
    surviving segments.  Torn tails and corrupt newest snapshots are
    handled, not raised.
    """


def snapshot_name(cursor: int) -> str:
    return f"snapshot-{cursor:020d}.json"


def snapshot_files(data_dir: Path) -> list[tuple[int, Path]]:
    """Snapshots in ``data_dir`` as ``(cursor, path)``, newest first."""
    found = []
    for path in Path(data_dir).glob("snapshot-*.json"):
        stem = path.stem[len("snapshot-"):]
        if stem.isdigit():
            found.append((int(stem), path))
    return sorted(found, reverse=True)


def _canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def snapshot_document(db: Database, cursor: int) -> dict:
    """The checksummed snapshot document for ``db`` at ``cursor``.

    ``{"checksum": crc32, "snapshot": {format, cursor, database}}`` --
    the exact object :func:`write_snapshot` persists, factored out so a
    replication primary can serve the same verifiable document over the
    wire (``repl.snapshot``) and a replica bootstrap through
    :func:`verify_document` shares the file-recovery code path.
    """
    inner = {"format": FORMAT_VERSION, "cursor": cursor,
             "database": to_dict(db)}
    body = _canonical(inner)
    return {"checksum": zlib.crc32(body.encode("utf-8")),
            "snapshot": json.loads(body)}


def verify_document(document: dict, *,
                    source: str = "snapshot") -> tuple[Database, int]:
    """Verify and decode one snapshot document: ``(database, cursor)``.

    Raises :class:`~repro.oodb.serialize.SerializationError` on a
    checksum mismatch, a malformed body, or a format-version mismatch
    -- the same failures :func:`load_snapshot` reports for files, with
    ``source`` naming where the document came from.
    """
    if not isinstance(document, dict) or "snapshot" not in document:
        raise SerializationError(f"{source} has no body")
    inner = document["snapshot"]
    body = _canonical(inner)
    if document.get("checksum") != zlib.crc32(body.encode("utf-8")):
        raise SerializationError(f"{source} checksum mismatch")
    if not isinstance(inner, dict) or inner.get("format") != FORMAT_VERSION:
        raise SerializationError(
            f"{source} has format {inner.get('format')!r}, "
            f"this build reads {FORMAT_VERSION}")
    cursor = inner.get("cursor")
    if not isinstance(cursor, int) or cursor < 0:
        raise SerializationError(f"{source} has no cursor")
    return from_dict(inner["database"]), cursor


def write_snapshot(db: Database, data_dir: Path | str, cursor: int) -> Path:
    """Atomically write a snapshot of ``db`` covering ``cursor``.

    The file is a JSON object ``{"checksum": crc32, "snapshot": {...}}``
    where the inner document carries the format version, the change-log
    cursor, and the canonical database encoding; the checksum is the
    CRC32 of the inner document's canonical serialisation, so equal
    databases produce byte-identical snapshots (pinned by a test on
    :func:`~repro.oodb.serialize.to_dict`).  Temp file + fsync + rename
    keeps the write atomic: a crash leaves either the old directory
    state or the complete new snapshot, never a half-written one.
    """
    data_dir = Path(data_dir)
    document = _canonical(snapshot_document(db, cursor))
    final = data_dir / snapshot_name(cursor)
    temp = final.with_suffix(".tmp")
    fault_point("checkpoint.write")
    with open(temp, "w", encoding="utf-8") as handle:
        handle.write(document)
        handle.flush()
        os.fsync(handle.fileno())
    fault_point("checkpoint.rename")
    os.replace(temp, final)
    _wal.fsync_dir(data_dir)
    return final


def load_snapshot(path: Path) -> tuple[Database, int]:
    """Load and verify one snapshot; returns ``(database, cursor)``.

    Raises :class:`~repro.oodb.serialize.SerializationError` on a
    checksum mismatch, an unreadable document, or a format-version
    mismatch -- :func:`recover` treats any of these as "try the
    previous snapshot".
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(f"unreadable snapshot {path}: {exc}")
    return verify_document(document, source=f"snapshot {path}")


@dataclass
class RecoveryResult:
    """What :func:`recover` rebuilt and how it got there."""

    database: Database
    #: Durable change-log cursor the recovered state corresponds to.
    cursor: int = 0
    #: WAL entries replayed on top of the snapshot.
    recovered_entries: int = 0
    #: Bytes cut from the final segment's torn tail (0 when clean).
    truncated_tail: int = 0
    #: Records of an uncommitted batch suffix discarded (never applied).
    discarded_records: int = 0
    #: The snapshot recovery started from (None: none existed).
    snapshot_path: Path | None = None
    #: Corrupt snapshots skipped on the way, with reasons.
    snapshots_skipped: list[tuple[Path, str]] = field(default_factory=list)
    #: True when the directory held no durable state at all.
    fresh: bool = True


def recover(data_dir: Path | str, *, trim: bool = True) -> RecoveryResult:
    """Rebuild the durable state of ``data_dir``.

    1. Load the newest snapshot whose checksum and format verify,
       falling back to older ones (an empty directory recovers to an
       empty database at cursor 0).
    2. Replay the WAL suffix: every *committed* batch whose entries lie
       at or past the snapshot's cursor, in order.  The ``begin``
       cursor re-synchronises the replay position, so retried
       (duplicated) batches apply idempotently.
    3. A torn tail in the **final** segment is truncated at the first
       bad frame (physically, unless ``trim=False`` -- the dry-run mode
       of ``recover --verify``); an uncommitted trailing batch is
       discarded.  Recovery therefore always lands on a committed-batch
       boundary.

    Raises :class:`RecoveryError` on unrecoverable corruption: a torn
    *non-final* segment, a cursor gap between the snapshot and the
    surviving segments, or no verifying snapshot with a WAL that does
    not reach back to cursor 0.
    """
    data_dir = Path(data_dir)
    result = RecoveryResult(Database())
    if not data_dir.is_dir():
        return result
    snapshots = snapshot_files(data_dir)
    for cursor, path in snapshots:
        try:
            db, snap_cursor = load_snapshot(path)
        except SerializationError as exc:
            result.snapshots_skipped.append((path, str(exc)))
            continue
        result.database = db
        result.cursor = snap_cursor
        result.snapshot_path = path
        break
    segments = _wal.segment_files(data_dir)
    result.fresh = not snapshots and not segments
    if result.snapshot_path is None and snapshots:
        # Every snapshot failed verification: WAL-only recovery is
        # possible only if the segments reach back to the beginning.
        if not segments or segments[0][0] > 0:
            raise RecoveryError(
                f"no snapshot in {data_dir} verifies "
                f"({len(result.snapshots_skipped)} corrupt) and the WAL "
                f"does not reach back to cursor 0")
    _replay(result, segments, trim=trim)
    return result


def _replay(result: RecoveryResult, segments: list[tuple[int, Path]],
            *, trim: bool) -> None:
    db = result.database
    snap_cursor = result.cursor
    # Segments fully covered by the snapshot (everything before a
    # successor that starts at or below the snapshot cursor) need no
    # replay at all.
    relevant = [
        (start, path) for index, (start, path) in enumerate(segments)
        if not (index + 1 < len(segments)
                and segments[index + 1][0] <= snap_cursor)
    ]
    expected = snap_cursor
    for index, (start, path) in enumerate(relevant):
        final = index == len(relevant) - 1
        if start > expected:
            raise RecoveryError(
                f"WAL gap: segment {path} starts at cursor {start} but "
                f"recovery reached only {expected}")
        scan = _wal.scan_segment(path)
        if scan.start_cursor is None and not final:
            raise RecoveryError(
                f"WAL segment {path} has a corrupt header mid-stream")
        batch: list | None = None
        position = scan.start_cursor if scan.start_cursor is not None \
            else start
        stray: str | None = None
        good_end = scan.good_end
        for number, record in enumerate(scan.records):
            if "begin" in record and isinstance(record["begin"], int):
                if batch is not None:
                    result.discarded_records += len(batch) + 1
                batch = []
                position = record["begin"]
            elif "e" in record:
                if batch is None:
                    stray = "entry outside a begin/commit group"
                elif not (isinstance(record["e"], list)
                          and len(record["e"]) == 2
                          and record["e"][0] in ("+", "-")):
                    stray = "malformed entry record"
                else:
                    batch.append(record["e"])
            elif "commit" in record:
                if batch is None or record["commit"] != position + len(batch):
                    stray = "commit marker out of sequence"
                else:
                    fault_point("recover.replay")
                    for offset, (sign, encoded) in enumerate(batch):
                        if position + offset >= expected:
                            db.apply_entry(sign, decode_fact(encoded))
                            result.recovered_entries += 1
                    expected = max(expected, position + len(batch))
                    batch = None
            else:
                stray = f"unknown record {sorted(record)!r}"
            if stray is not None:
                # A frame that passed its CRC but is semantically out of
                # sequence: cut the tail here, exactly like a torn frame.
                good_end = scan.offsets[number]
                break
        torn = scan.torn or stray is not None
        if torn and not final:
            raise RecoveryError(
                f"WAL segment {path} is corrupt mid-stream "
                f"({stray or scan.tear}); later segments would leave "
                f"a gap")
        if torn:
            tail = os.path.getsize(path) - good_end
            result.truncated_tail += tail
            if trim and tail > 0:
                with open(path, "ab") as handle:
                    os.ftruncate(handle.fileno(), good_end)
                    os.fsync(handle.fileno())
        if batch is not None and stray is None:
            result.discarded_records += len(batch) + 1
    result.cursor = expected


class DurableStore:
    """A database wedded to a data directory: WAL + checkpoints.

    The single entry point for durable operation::

        store = DurableStore.open("data/", db=seed)   # recovers or seeds
        ... mutate store.database through the normal assertion API ...
        store.commit()        # journal the batch durably
        store.checkpoint()    # snapshot + rotate + reclaim
        store.close()

    ``open`` always finishes with a fresh checkpoint of whatever it
    recovered (or was seeded with), so the double-crash case -- dying
    again *during recovery's own checkpoint* -- finds the previous
    snapshot and segments untouched and simply recovers again.
    """

    def __init__(self, data_dir: Path, db: Database, *,
                 fsync: str = "batch",
                 retain_snapshots: int = RETAIN_SNAPSHOTS,
                 recovery: RecoveryResult | None = None) -> None:
        self._dir = Path(data_dir)
        self._db = db
        self._retain = max(1, retain_snapshots)
        self.recovery = recovery
        self.checkpoints = 0
        # The log continues the numbering the directory already uses.
        db.begin_changes(recovery.cursor if recovery is not None else 0)
        self._wal = _wal.WriteAheadLog(self._dir, db, fsync=fsync)

    @classmethod
    def open(cls, data_dir: Path | str, *, db: Database | None = None,
             fsync: str = "batch",
             retain_snapshots: int = RETAIN_SNAPSHOTS) -> "DurableStore":
        """Recover (or initialise) ``data_dir`` and start journalling.

        An empty directory is seeded from ``db`` (default: an empty
        database); a directory with durable state recovers from it and
        **ignores** ``db`` -- the disk is the source of truth.  Either
        way an initial checkpoint is written before returning, so the
        directory is immediately self-contained.
        """
        data_dir = Path(data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        result = recover(data_dir)
        database = db if (result.fresh and db is not None) \
            else result.database
        store = cls(data_dir, database, fsync=fsync,
                    retain_snapshots=retain_snapshots, recovery=result)
        store.checkpoint()
        return store

    @property
    def database(self) -> Database:
        return self._db

    @property
    def data_dir(self) -> Path:
        return self._dir

    @property
    def wal(self) -> _wal.WriteAheadLog:
        return self._wal

    def durable_cursor(self) -> int:
        """The change-log head: the cursor the next snapshot carries."""
        log = self._db.change_log
        return log.cursor() if log is not None else 0

    def wal_size(self) -> int:
        return self._wal.size_bytes()

    def commit(self) -> int:
        """Journal everything since the last commit as one batch.

        Falls back to a full :meth:`checkpoint` when the change log was
        disrupted (an alias rebinding is not expressible as entries) --
        degraded to a snapshot write, never silently undurable.
        """
        try:
            return self._wal.commit()
        except _wal.WalDisrupted:
            self.checkpoint()
            return 0

    def discard_pending(self) -> None:
        """Repair the WAL after a failed, rolled-back batch."""
        self._wal.discard_pending()

    def checkpoint(self) -> Path:
        """Snapshot the current state, rotate the WAL, reclaim files."""
        log = self._db.change_log
        if log is None:
            raise _wal.WalStateError("store has no active change log")
        cursor = log.cursor()
        path = write_snapshot(self._db, self._dir, cursor)
        if log.disrupted is not None:
            # The snapshot captured the un-journalable state: a new log
            # epoch continues from this cursor, and the WAL re-pins it.
            self._db.begin_changes()
            self._wal.skip_to(cursor)
        self._wal.rotate(cursor)
        self.checkpoints += 1
        self._reclaim()
        return path

    def close(self, *, commit: bool = True) -> None:
        """Flush (optionally journalling a final batch) and close."""
        log = self._db.change_log
        if commit and log is not None and log.disrupted is None:
            self._wal.commit()
        self._wal.close()

    def _reclaim(self) -> None:
        """Drop snapshots beyond the retention count and the WAL
        segments fully below the oldest retained snapshot."""
        snapshots = snapshot_files(self._dir)
        for _, path in snapshots[self._retain:]:
            path.unlink(missing_ok=True)
        kept = snapshots[:self._retain]
        if not kept:
            return
        oldest = kept[-1][0]
        segments = _wal.segment_files(self._dir)
        active = self._wal.segment_path
        for index in range(len(segments) - 1):
            start, path = segments[index]
            if segments[index + 1][0] <= oldest and path != active:
                path.unlink(missing_ok=True)
            else:
                break
