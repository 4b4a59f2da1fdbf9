"""Write-ahead log tests: framing, segments, commit, trim safety."""

import os
import zlib

import pytest

from repro.oodb.database import Database
from repro.oodb.oid import NamedOid
from repro.oodb.serialize import FORMAT_VERSION, SerializationError
from repro.oodb.wal import (
    WalDisrupted,
    WalStateError,
    WriteAheadLog,
    frame,
    read_frames,
    scan_segment,
    segment_files,
    segment_name,
)
from repro.testing import InjectedFault, inject


def n(value):
    return NamedOid(value)


class TestFraming:
    def test_round_trip(self):
        data = frame({"a": 1}) + frame({"b": [2, 3]})
        records, offsets, good_end, tear = read_frames(data)
        assert records == [{"a": 1}, {"b": [2, 3]}]
        assert offsets[0] == 0 and offsets[1] == len(frame({"a": 1}))
        assert good_end == len(data)
        assert tear is None

    def test_truncated_prefix_tears(self):
        data = frame({"a": 1}) + b"\x00\x00"
        records, _, good_end, tear = read_frames(data)
        assert records == [{"a": 1}]
        assert good_end == len(frame({"a": 1}))
        assert tear == "truncated frame prefix"

    def test_overrunning_length_tears(self):
        good = frame({"a": 1})
        data = good + (999).to_bytes(4, "big") + b"\x00\x00\x00\x00xy"
        records, _, good_end, tear = read_frames(data)
        assert records == [{"a": 1}]
        assert good_end == len(good)
        assert tear == "frame runs past end of segment"

    def test_crc_mismatch_tears(self):
        good = frame({"a": 1})
        bad = bytearray(frame({"b": 2}))
        bad[-1] ^= 0xFF
        records, _, good_end, tear = read_frames(good + bytes(bad))
        assert records == [{"a": 1}]
        assert good_end == len(good)
        assert tear == "CRC mismatch"

    def test_non_object_payload_tears(self):
        payload = b"[1,2]"
        data = (len(payload).to_bytes(4, "big")
                + zlib.crc32(payload).to_bytes(4, "big") + payload)
        records, _, _, tear = read_frames(frame({"a": 1}) + data)
        assert records == [{"a": 1}]
        assert tear == "non-object record"

    def test_empty_buffer_is_clean(self):
        assert read_frames(b"") == ([], [], 0, None)


class TestSegments:
    def test_names_sort_by_cursor(self, tmp_path):
        for cursor in (30, 2, 100):
            (tmp_path / segment_name(cursor)).write_bytes(b"")
        assert [c for c, _ in segment_files(tmp_path)] == [2, 30, 100]

    def test_scan_reads_header_and_records(self, tmp_path):
        path = tmp_path / segment_name(7)
        path.write_bytes(frame({"wal": FORMAT_VERSION, "cursor": 7})
                         + frame({"begin": 7}))
        scan = scan_segment(path)
        assert scan.start_cursor == 7
        assert scan.records == [{"begin": 7}]
        assert not scan.torn

    def test_scan_rejects_wrong_format_version(self, tmp_path):
        path = tmp_path / segment_name(0)
        path.write_bytes(frame({"wal": FORMAT_VERSION + 1, "cursor": 0}))
        with pytest.raises(SerializationError):
            scan_segment(path)

    def test_scan_rejects_cursor_name_mismatch(self, tmp_path):
        path = tmp_path / segment_name(5)
        path.write_bytes(frame({"wal": FORMAT_VERSION, "cursor": 9}))
        with pytest.raises(SerializationError):
            scan_segment(path)

    def test_torn_header_is_a_tear_not_an_error(self, tmp_path):
        path = tmp_path / segment_name(0)
        path.write_bytes(b"\x00\x01")
        scan = scan_segment(path)
        assert scan.start_cursor is None
        assert scan.torn


def make_wal(tmp_path, **kwargs):
    db = Database()
    db.begin_changes()
    return db, WriteAheadLog(tmp_path, db, **kwargs)


class TestWriteAheadLog:
    def test_rejects_unknown_fsync_policy(self, tmp_path):
        db = Database()
        db.begin_changes()
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path, db, fsync="sometimes")

    def test_commit_brackets_batch_with_markers(self, tmp_path):
        db, wal = make_wal(tmp_path)
        db.assert_isa(n("tom"), n("cat"))
        db.assert_scalar(n("age"), n("tom"), (), n(3))
        assert wal.commit() == 2
        wal.close()
        scan = scan_segment(wal.segment_path)
        assert scan.records[0] == {"begin": 0}
        assert [r["e"][0] for r in scan.records[1:3]] == ["+", "+"]
        assert scan.records[3] == {"commit": 2}

    def test_commit_without_changes_is_zero(self, tmp_path):
        db, wal = make_wal(tmp_path)
        assert wal.commit() == 0
        assert wal.batches == 0
        wal.close()

    def test_commit_requires_change_log(self, tmp_path):
        db = Database()
        db.begin_changes()
        wal = WriteAheadLog(tmp_path, db)
        db.trim_changes()  # keeps the log; end it explicitly instead
        db._change_log = None
        with pytest.raises(WalStateError):
            wal.commit()

    def test_disrupted_log_raises_typed_error(self, tmp_path):
        db, wal = make_wal(tmp_path)
        db.alias("t", n("tom"))
        db.alias("t", n("thomas"))  # rebinding disrupts the log
        with pytest.raises(WalDisrupted):
            wal.commit()
        wal.close()

    def test_lease_pins_flushed_not_appended(self, tmp_path):
        """Satellite: trimming during a slow fsync cannot drop
        unflushed entries -- the WAL's lease sits at the *flushed*
        cursor, so ``trim_changes`` keeps everything a failed or
        in-flight commit still needs."""
        db, wal = make_wal(tmp_path)
        db.assert_isa(n("a"), n("b"))
        wal.commit()
        db.assert_isa(n("c"), n("d"))
        db.assert_isa(n("e"), n("f"))
        # A slow fsync: the entries are appended in memory but the
        # commit fails before the sync completes.
        with pytest.raises(InjectedFault):
            with inject("wal.fsync"):
                wal.commit()
        assert wal.flushed == 1
        # Another consumer trims as far as it can -- the WAL's lease
        # must hold the line at the flushed cursor.
        db.trim_changes()
        log = db.change_log
        assert log.since(wal.flushed), "unflushed entries were trimmed"
        # The retry can still journal them durably.
        assert wal.commit() == 2
        db.trim_changes()
        assert log.since(wal.flushed) == []
        wal.close()

    def test_failed_commit_leaves_cursor_for_retry(self, tmp_path):
        db, wal = make_wal(tmp_path)
        db.assert_isa(n("a"), n("b"))
        with pytest.raises(InjectedFault):
            with inject("wal.append"):
                wal.commit()
        assert wal.flushed == 0
        assert wal.commit() == 1
        assert wal.flushed == 1
        wal.close()
        scan = scan_segment(wal.segment_path)
        commits = [r for r in scan.records if "commit" in r]
        assert commits == [{"commit": 1}]

    def test_discard_pending_truncates_partial_batch(self, tmp_path):
        db, wal = make_wal(tmp_path)
        db.assert_isa(n("a"), n("b"))
        wal.commit()
        clean_size = os.path.getsize(wal.segment_path)
        checkpoint = db.change_log.cursor()
        db.assert_isa(n("x"), n("y"))
        with pytest.raises(InjectedFault):
            with inject("wal.fsync"):
                wal.commit()
        assert os.path.getsize(wal.segment_path) > clean_size
        db.rollback_changes(checkpoint)
        wal.discard_pending()
        assert os.path.getsize(wal.segment_path) == clean_size
        # Flushed advanced past the rolled-back suffix (a net no-op).
        assert wal.flushed == db.change_log.cursor()
        wal.close()

    def test_skip_to_refuses_backwards(self, tmp_path):
        db, wal = make_wal(tmp_path)
        db.assert_isa(n("a"), n("b"))
        wal.commit()
        with pytest.raises(WalStateError):
            wal.skip_to(0)
        wal.close()

    def test_rotate_starts_new_segment(self, tmp_path):
        db, wal = make_wal(tmp_path)
        db.assert_isa(n("a"), n("b"))
        wal.commit()
        first = wal.segment_path
        wal.rotate(db.change_log.cursor())
        assert wal.segment_path != first
        db.assert_isa(n("c"), n("d"))
        wal.commit()
        wal.close()
        assert len(segment_files(tmp_path)) == 2
        scan = scan_segment(wal.segment_path)
        assert scan.start_cursor == 1
        assert scan.records[0] == {"begin": 1}

    def test_rotate_onto_empty_same_segment_is_noop(self, tmp_path):
        db, wal = make_wal(tmp_path)
        first = wal.segment_path
        wal.rotate(0)
        assert wal.segment_path == first
        assert len(segment_files(tmp_path)) == 1
        wal.close()

    def test_faulted_rotate_leaves_no_orphan(self, tmp_path):
        db, wal = make_wal(tmp_path)
        db.assert_isa(n("a"), n("b"))
        wal.commit()
        with pytest.raises(InjectedFault):
            with inject("wal.rotate"):
                wal.rotate(db.change_log.cursor())
        # The old segment is still the active one and no header-only
        # successor shadows it.
        assert len(segment_files(tmp_path)) == 1
        db.assert_isa(n("c"), n("d"))
        assert wal.commit() == 1
        wal.close()

    def test_log_started_at_a_cursor_journals_from_it(self, tmp_path):
        db = Database()
        db.begin_changes(10)
        wal = WriteAheadLog(tmp_path, db)
        db.assert_isa(n("a"), n("b"))
        wal.commit()
        assert wal.flushed == db.change_log.cursor() == 11
        assert wal.segment_path.name == segment_name(10)
        scan = scan_segment(wal.segment_path)
        assert scan.start_cursor == 10
        assert scan.records[0] == {"begin": 10}
        assert scan.records[-1] == {"commit": 11}
        wal.close()

    def test_size_counts_all_segments(self, tmp_path):
        db, wal = make_wal(tmp_path)
        db.assert_isa(n("a"), n("b"))
        wal.commit()
        wal.rotate(db.change_log.cursor())
        total = sum(path.stat().st_size
                    for _, path in segment_files(tmp_path))
        assert wal.size_bytes() == total > 0
        wal.close()
