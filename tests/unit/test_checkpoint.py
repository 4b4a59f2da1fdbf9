"""Checkpoint and recovery tests: atomic snapshots, replay, repair."""

import json
import os

import pytest

from repro.oodb.checkpoint import (
    DurableStore,
    RecoveryError,
    load_snapshot,
    recover,
    snapshot_files,
    snapshot_name,
    write_snapshot,
)
from repro.oodb.database import Database
from repro.oodb.oid import NamedOid
from repro.oodb.serialize import FORMAT_VERSION, SerializationError
from repro.oodb.wal import frame, scan_segment, segment_files, segment_name
from repro.testing import InjectedFault, inject


def n(value):
    return NamedOid(value)


def seeded():
    db = Database()
    db.assert_isa(n("tom"), n("cat"))
    db.assert_scalar(n("age"), n("tom"), (), n(3))
    db.assert_set_member(n("likes"), n("tom"), (), n("fish"))
    db.alias("t", n("tom"))
    return db


def assert_same_state(left: Database, right: Database):
    assert set(left.hierarchy.declared_edges()) == \
        set(right.hierarchy.declared_edges())
    assert dict(left.scalars.items()) == dict(right.scalars.items())
    assert dict(left.sets.items()) == dict(right.sets.items())
    assert left._aliases == right._aliases


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        db = seeded()
        path = write_snapshot(db, tmp_path, 5)
        assert path.name == snapshot_name(5)
        restored, cursor = load_snapshot(path)
        assert cursor == 5
        assert_same_state(db, restored)

    def test_byte_stable_across_writes(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = write_snapshot(seeded(), tmp_path / "a", 3)
        second = write_snapshot(seeded(), tmp_path / "b", 3)
        assert first.read_bytes() == second.read_bytes()

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = write_snapshot(seeded(), tmp_path, 0)
        document = json.loads(path.read_text())
        document["checksum"] ^= 1
        path.write_text(json.dumps(document))
        with pytest.raises(SerializationError):
            load_snapshot(path)

    def test_format_version_mismatch_rejected(self, tmp_path):
        path = write_snapshot(seeded(), tmp_path, 0)
        document = json.loads(path.read_text())
        document["snapshot"]["format"] = FORMAT_VERSION + 1
        # Re-checksum so only the version (not integrity) is at fault.
        import zlib
        body = json.dumps(document["snapshot"], sort_keys=True,
                          separators=(",", ":"))
        document["checksum"] = zlib.crc32(body.encode())
        path.write_text(json.dumps(document))
        with pytest.raises(SerializationError):
            load_snapshot(path)

    def test_faulted_write_leaves_no_snapshot(self, tmp_path):
        with pytest.raises(InjectedFault):
            with inject("checkpoint.write"):
                write_snapshot(seeded(), tmp_path, 0)
        assert snapshot_files(tmp_path) == []

    def test_faulted_rename_leaves_only_temp(self, tmp_path):
        with pytest.raises(InjectedFault):
            with inject("checkpoint.rename"):
                write_snapshot(seeded(), tmp_path, 0)
        assert snapshot_files(tmp_path) == []
        assert list(tmp_path.glob("*.tmp"))


class TestRecover:
    def test_empty_directory_is_fresh(self, tmp_path):
        result = recover(tmp_path)
        assert result.fresh
        assert result.cursor == 0
        assert result.recovered_entries == 0

    def test_missing_directory_is_fresh(self, tmp_path):
        result = recover(tmp_path / "nowhere")
        assert result.fresh

    def test_snapshot_plus_wal_suffix(self, tmp_path):
        store = DurableStore.open(tmp_path)
        db = store.database
        db.assert_isa(n("a"), n("b"))
        store.commit()
        store.checkpoint()
        db.assert_isa(n("c"), n("d"))
        store.commit()
        store.close()
        result = recover(tmp_path)
        assert not result.fresh
        assert result.recovered_entries == 1  # only the post-snapshot entry
        assert result.cursor == store.durable_cursor()
        assert result.database.hierarchy.isa(n("a"), n("b"))
        assert result.database.hierarchy.isa(n("c"), n("d"))

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        store = DurableStore.open(tmp_path, db=seeded())
        db = store.database
        db.assert_isa(n("jerry"), n("mouse"))
        store.commit()
        store.checkpoint()
        store.close()
        newest = snapshot_files(tmp_path)[0][1]
        newest.write_text(newest.read_text()[:-10])
        result = recover(tmp_path)
        assert result.snapshots_skipped
        assert result.snapshot_path != newest
        # The WAL suffix past the older snapshot re-derives the state.
        assert result.database.hierarchy.isa(n("jerry"), n("mouse"))
        assert result.database.hierarchy.isa(n("tom"), n("cat"))

    def test_all_snapshots_corrupt_without_full_wal_raises(self, tmp_path):
        store = DurableStore.open(tmp_path, db=seeded())
        store.database.assert_isa(n("x"), n("y"))
        store.commit()
        store.checkpoint()
        store.close()
        for _, path in snapshot_files(tmp_path):
            path.write_text("{broken")
        # Remove any segment starting at 0 so the WAL cannot rebuild
        # from scratch.
        for start, path in segment_files(tmp_path):
            if start == 0:
                path.unlink()
        with pytest.raises(RecoveryError):
            recover(tmp_path)

    def test_wal_gap_raises(self, tmp_path):
        store = DurableStore.open(tmp_path)
        db = store.database
        db.assert_isa(n("a"), n("b"))
        store.commit()
        store.close()
        # Fabricate a later segment leaving a cursor gap.
        path = tmp_path / segment_name(10)
        path.write_bytes(frame({"wal": FORMAT_VERSION, "cursor": 10}))
        with pytest.raises(RecoveryError):
            recover(tmp_path)

    def test_torn_tail_truncated_and_counted(self, tmp_path):
        store = DurableStore.open(tmp_path)
        store.database.assert_isa(n("a"), n("b"))
        store.commit()
        store.close()
        _, path = segment_files(tmp_path)[-1]
        clean = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef")
        result = recover(tmp_path)
        assert result.truncated_tail == 4
        assert path.stat().st_size == clean
        assert result.database.hierarchy.isa(n("a"), n("b"))
        # A second recovery sees a clean tail.
        assert recover(tmp_path).truncated_tail == 0

    def test_verify_mode_reports_without_trimming(self, tmp_path):
        store = DurableStore.open(tmp_path)
        store.database.assert_isa(n("a"), n("b"))
        store.commit()
        store.close()
        _, path = segment_files(tmp_path)[-1]
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad")
        size = path.stat().st_size
        result = recover(tmp_path, trim=False)
        assert result.truncated_tail == 2
        assert path.stat().st_size == size

    def test_uncommitted_suffix_discarded(self, tmp_path):
        store = DurableStore.open(tmp_path)
        store.database.assert_isa(n("a"), n("b"))
        store.commit()
        store.close()
        _, path = segment_files(tmp_path)[-1]
        # Append a begin + entry with no commit marker: well-framed but
        # uncommitted, so recovery must not apply it.
        scan = scan_segment(path)
        head = scan.records[-1]["commit"]
        with open(path, "ab") as handle:
            handle.write(frame({"begin": head}))
            handle.write(frame({"e": ["+", ["isa", {"n": "ghost"},
                                             {"n": "spirit"}]]}))
        result = recover(tmp_path)
        assert result.discarded_records == 2
        assert not result.database.hierarchy.isa(n("ghost"), n("spirit"))
        assert result.cursor == head

    def test_semantically_stray_record_truncates_there(self, tmp_path):
        store = DurableStore.open(tmp_path)
        store.database.assert_isa(n("a"), n("b"))
        store.commit()
        store.close()
        _, path = segment_files(tmp_path)[-1]
        clean = path.stat().st_size
        # An entry outside any begin/commit group: frames fine, but is
        # semantically stray -- recovery must cut the tail at it so the
        # next recovery (when this segment is no longer final) does not
        # die mid-stream.
        with open(path, "ab") as handle:
            handle.write(frame({"e": ["+", ["isa", {"n": "g"},
                                             {"n": "s"}]]}))
            handle.write(frame({"weird": True}))
        appended = path.stat().st_size - clean
        result = recover(tmp_path)
        assert result.truncated_tail == appended
        assert path.stat().st_size == clean
        assert recover(tmp_path).truncated_tail == 0

    def test_duplicated_batch_replays_idempotently(self, tmp_path):
        store = DurableStore.open(tmp_path)
        store.database.assert_isa(n("a"), n("b"))
        store.commit()
        store.close()
        _, path = segment_files(tmp_path)[-1]
        scan = scan_segment(path)
        batch = [r for r in scan.records
                 if "begin" in r or "e" in r or "commit" in r]
        # A retried batch: the same begin/entries/commit appended again.
        with open(path, "ab") as handle:
            for record in batch:
                handle.write(frame(record))
        result = recover(tmp_path)
        assert result.database.hierarchy.isa(n("a"), n("b"))
        assert result.cursor == scan.records[-1]["commit"]


class TestDurableStore:
    def test_the_log_head_is_the_durable_cursor_across_restarts(
            self, tmp_path):
        def positions(store):
            """The store's cursor, as the log, the newest snapshot and
            the WAL's flushed prefix count it."""
            return {store.durable_cursor(),
                    store.database.change_log.cursor(),
                    snapshot_files(tmp_path)[0][0], store.wal.flushed}

        store = DurableStore.open(tmp_path)
        for index in range(3):
            store.database.assert_isa(n(f"o{index}"), n("thing"))
            store.commit()
        store.close()
        store = DurableStore.open(tmp_path)
        db = store.database
        assert positions(store) == {3}  # recovered, then checkpointed
        db.assert_isa(n("o3"), n("thing"))
        store.commit()
        assert store.durable_cursor() == db.change_log.cursor() == 4
        store.checkpoint()
        assert positions(store) == {4}
        epoch = db.change_log.epoch
        db.alias("first", n("o0"))  # disrupts the change log
        db.assert_isa(n("o4"), n("thing"))
        assert store.commit() == 0  # checkpointed instead
        assert db.change_log.epoch != epoch
        assert positions(store) == {5}
        db.assert_isa(n("o5"), n("thing"))
        assert store.commit() == 1
        assert store.durable_cursor() == db.change_log.cursor() == 6
        scan = scan_segment(store.wal.segment_path)
        assert scan.start_cursor == 5
        assert scan.records == [{"begin": 5}, scan.records[1],
                                {"commit": 6}]
        store.close()
        result = recover(tmp_path)
        assert result.cursor == 6
        assert result.database._aliases["first"] == n("o0")

    def test_open_seeds_empty_directory(self, tmp_path):
        store = DurableStore.open(tmp_path, db=seeded())
        store.close()
        result = recover(tmp_path)
        assert result.database.hierarchy.isa(n("tom"), n("cat"))

    def test_open_ignores_seed_when_state_exists(self, tmp_path):
        store = DurableStore.open(tmp_path, db=seeded())
        store.close()
        other = Database()
        other.assert_isa(n("impostor"), n("seed"))
        store = DurableStore.open(tmp_path, db=other)
        assert store.database.hierarchy.isa(n("tom"), n("cat"))
        assert not store.database.hierarchy.isa(n("impostor"), n("seed"))
        store.close()

    def test_checkpoint_rotates_and_reclaims(self, tmp_path):
        store = DurableStore.open(tmp_path, retain_snapshots=2)
        for index in range(4):
            store.database.assert_isa(n(f"o{index}"), n("thing"))
            store.commit()
            store.checkpoint()
        store.close()
        assert len(snapshot_files(tmp_path)) == 2
        # Reclaim keeps only the segments the retained snapshots need.
        oldest_kept = snapshot_files(tmp_path)[-1][0]
        for start, _ in segment_files(tmp_path)[1:]:
            assert start >= oldest_kept
        result = recover(tmp_path)
        for index in range(4):
            assert result.database.hierarchy.isa(n(f"o{index}"), n("thing"))

    def test_disruption_falls_back_to_checkpoint(self, tmp_path):
        store = DurableStore.open(tmp_path)
        db = store.database
        db.alias("t", n("tom"))
        db.assert_isa(n("tom"), n("cat"))
        store.commit()
        db.alias("t", n("thomas"))  # disrupts the change log
        assert store.commit() == 0  # degraded to a checkpoint, not lost
        db.assert_isa(n("jerry"), n("mouse"))
        assert store.commit() == 1  # journalling resumed after reattach
        store.close()
        result = recover(tmp_path)
        assert result.database._aliases["t"] == n("thomas")
        assert result.database.hierarchy.isa(n("jerry"), n("mouse"))

    def test_double_crash_during_recovery_checkpoint(self, tmp_path):
        """Crashing inside the checkpoint ``open`` itself writes must
        leave the directory recoverable (the previous snapshot and
        segments are untouched until the rename)."""
        store = DurableStore.open(tmp_path)
        store.database.assert_isa(n("a"), n("b"))
        store.commit()
        store.close()
        for site in ("checkpoint.write", "checkpoint.rename"):
            with pytest.raises(InjectedFault):
                with inject(site):
                    DurableStore.open(tmp_path)
            store = DurableStore.open(tmp_path)
            assert store.database.hierarchy.isa(n("a"), n("b"))
            store.close()

    def test_close_journals_final_batch(self, tmp_path):
        store = DurableStore.open(tmp_path)
        store.database.assert_isa(n("last"), n("word"))
        store.close()  # commit=True by default
        result = recover(tmp_path)
        assert result.database.hierarchy.isa(n("last"), n("word"))
