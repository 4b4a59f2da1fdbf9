"""Base change-log trimming: absolute cursors and the low-water mark."""

import pytest

from repro.oodb.database import ChangeLog, Database, TrimmedCursor
from repro.oodb.oid import NamedOid
from repro.lang.parser import parse_program
from repro.query import Query


def n(value):
    return NamedOid(value)


@pytest.fixture
def db():
    db = Database()
    db.add_object("p1", sets={"kids": ["c1", "c2"]})
    db.add_object("p2", sets={"kids": ["c3"]})
    return db


class TestAbsoluteCursors:
    def test_cursor_and_since_survive_trimming(self, db):
        log = db.begin_changes()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        db.assert_set_member(n("kids"), n("p1"), (), n("x2"))
        db.assert_set_member(n("kids"), n("p1"), (), n("x3"))
        assert log.cursor() == 3
        assert log.trim_to(2) == 2
        assert log.offset == 2
        assert log.cursor() == 3
        # The absolute cursor 2 still addresses the surviving entry.
        assert log.since(2) == [
            ("+", ("set", n("kids"), n("p1"), (), n("x3")))]
        assert log.since(3) == []

    def test_in_sync_is_arithmetic_over_absolute_cursors(self, db):
        version = db.data_version()
        log = db.begin_changes()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        db.assert_set_member(n("kids"), n("p1"), (), n("x2"))
        log.trim_to(1)
        # Trimming drops entries, never the proof: cursor 2 still
        # explains exactly two bumps past the start version.
        assert log.in_sync(version + 2, 2)
        assert not log.in_sync(version + 2, 1)

    def test_trim_to_never_drops_past_the_end(self):
        log = ChangeLog(0)
        log.record("+", ("isa", n("a"), n("b")))
        assert log.trim_to(99) == 1
        assert log.offset == 1
        assert log.cursor() == 1

    def test_since_below_the_trimmed_prefix_raises(self, db):
        # An unregistered consumer must fail loudly, not apply an
        # incomplete delta: entries below the offset are gone.
        log = db.begin_changes()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        db.assert_set_member(n("kids"), n("p1"), (), n("x2"))
        log.trim_to(1)
        with pytest.raises(ValueError, match="hold_changes"):
            log.since(0)
        assert len(log.since(1)) == 1


class TestTrimmedCursorIsTyped:
    """The replication boundary needs a *typed* trimmed-past read
    (satellite: a subscriber below the horizon gets a retryable
    "resync required" answer, not a bare ValueError)."""

    def test_since_raises_trimmed_cursor_with_the_arithmetic(self, db):
        log = db.begin_changes()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        db.assert_set_member(n("kids"), n("p1"), (), n("x2"))
        db.assert_set_member(n("kids"), n("p1"), (), n("x3"))
        log.trim_to(2)
        with pytest.raises(TrimmedCursor) as exc_info:
            log.since(1)
        err = exc_info.value
        # The exception carries the resync arithmetic: how far below
        # the horizon the subscriber fell.
        assert err.cursor == 1
        assert err.offset == 2
        assert isinstance(err, ValueError)  # the historical contract

    def test_reattach_at_the_horizon_needs_no_resync(self, db):
        """Trim/reattach arithmetic: the offset itself is the lowest
        incrementally-servable cursor -- a subscriber exactly at the
        horizon resumes; one below it resyncs."""
        log = db.begin_changes()
        for i in range(5):
            db.assert_set_member(n("kids"), n("p1"), (), n(f"x{i}"))
        log.trim_to(3)
        assert log.offset == 3
        # At the horizon: the surviving suffix is the complete delta.
        assert [f for _, f in log.since(3)] == [
            ("set", n("kids"), n("p1"), (), n("x3")),
            ("set", n("kids"), n("p1"), (), n("x4"))]
        # One below: gone, typed.
        with pytest.raises(TrimmedCursor):
            log.since(2)
        # ``in_sync`` stays provable even for trimmed cursors (it is
        # pure arithmetic), so a resynced subscriber can still verify
        # the version/cursor pair it bootstrapped at.
        assert log.in_sync(db.data_version(), log.cursor())

    def test_a_held_subscriber_cursor_never_trims_past(self, db):
        """The hub's lease discipline in miniature: a registered
        cursor is the low-water mark, so ``since`` at it always
        succeeds no matter how often trimming runs."""
        log = db.begin_changes()
        with db.held_changes(cursor=0) as lease:
            for i in range(4):
                db.assert_set_member(n("kids"), n("p1"), (), n(f"x{i}"))
                db.catalog()
                db.trim_changes()
                assert len(log.since(lease.cursor)) == i + 1
            lease.move(3)
            db.catalog()
            db.trim_changes()
            assert log.offset == 3
            assert len(log.since(3)) == 1
            with pytest.raises(TrimmedCursor):
                log.since(2)


class TestLowWaterMark:
    def test_trim_respects_held_cursors(self, db):
        class Holder:
            pass

        log = db.begin_changes()
        holder = Holder()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        db.assert_set_member(n("kids"), n("p1"), (), n("x2"))
        db.hold_changes(holder, 1)
        db.catalog()  # catalog replays to cursor 2
        assert db.trim_changes() == 1  # only below the held cursor
        assert log.offset == 1
        db.hold_changes(holder, 2)
        assert db.trim_changes() == 1
        assert log.offset == 2

    def test_release_unpins_the_log(self, db):
        class Holder:
            pass

        log = db.begin_changes()
        holder = Holder()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        db.hold_changes(holder, 0)
        db.catalog()
        assert db.trim_changes() == 0
        db.release_changes(holder)
        assert db.trim_changes() == 1
        assert log.entries == []

    def test_dead_holders_stop_pinning(self, db):
        class Holder:
            pass

        db.begin_changes()
        holder = Holder()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        db.hold_changes(holder, 0)
        db.catalog()
        del holder  # weak registry: collection releases the hold
        assert db.trim_changes() == 1

    def test_new_log_clears_stale_holds(self, db):
        class Holder:
            pass

        holder = Holder()
        log = db.begin_changes()
        db.hold_changes(holder, 0)
        log.disrupt("test")
        replacement = db.begin_changes()
        assert replacement is not log
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        db.catalog()
        # The stale cursor referred to the dead log; it must not pin
        # the replacement.
        assert db.trim_changes() == 1


    def test_a_replacement_log_continues_the_numbering(self, db):
        log = db.begin_changes(7)
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        version = db.data_version()
        assert log.cursor() == 8 and log.in_sync(version, 8)
        assert not log.in_sync(version - 1, 6)  # before the log began
        db.alias("first", n("p1"))  # disrupts the log
        replacement = db.begin_changes()
        assert replacement.origin == replacement.cursor() == 8
        assert replacement.epoch != log.epoch
        # Old (version, cursor) pairs never prove anything about the
        # replacement, even where the numbers coincide.
        for cursor in range(9):
            assert not replacement.in_sync(version, cursor)
        assert replacement.in_sync(db.data_version(), 8)
        db.assert_set_member(n("kids"), n("p1"), (), n("x2"))
        assert replacement.in_sync(db.data_version(), 9)
        assert [fact for _, fact in replacement.since(8)] == [
            ("set", n("kids"), n("p1"), (), n("x2"))]


class TestQueryKeepsTheBaseLogBounded:
    PROGRAM = parse_program("X[d1 ->> {Y}] <- X[kids ->> {Y}].")

    def test_log_stops_growing_under_repeated_maintain_cycles(self, db):
        log = db.begin_changes()
        query = Query(db, program=self.PROGRAM)
        assert query.count("p1[d1 ->> {Y}]") == 2
        peak = 0
        for cycle in range(25):
            member = n(f"m{cycle}")
            db.assert_set_member(n("kids"), n("p1"), (), member)
            assert query.count("p1[d1 ->> {Y}]") == 3
            assert query.last_maintenance is not None
            assert query.last_maintenance.applied
            db.retract_set_member(n("kids"), n("p1"), (), member)
            assert query.count("p1[d1 ->> {Y}]") == 2
            peak = max(peak, len(log.entries))
        # Every maintain cycle consumed its slice and advanced the
        # low-water mark: the retained log stays a small constant, not
        # O(total mutations).
        assert len(log.entries) <= 2
        assert peak <= 4
        assert log.offset == log.cursor() - len(log.entries) > 0

    def test_a_lagging_query_pins_then_releases_the_log(self, db):
        log = db.begin_changes()
        fast = Query(db, program=self.PROGRAM)
        slow = Query(db, program=self.PROGRAM)
        assert fast.count("p1[d1 ->> {Y}]") == 2
        assert slow.count("p2[d1 ->> {Y}]") == 1
        slow_cursor = log.cursor()
        for cycle in range(6):
            db.assert_set_member(n("kids"), n("p1"), (), n(f"f{cycle}"))
            assert fast.count("p1[d1 ->> {Y}]") == 3 + cycle
        # ``slow`` has not looked since its registration: its cursor
        # pins the log even though ``fast`` is fully caught up.
        assert log.offset <= slow_cursor
        assert len(log.entries) >= 6
        # Once the lagging consumer catches up, its next maintained
        # query releases everything it was holding.
        assert slow.count("p2[d1 ->> {Y}]") == 1
        assert len(log.entries) == 0
        assert log.offset == log.cursor()


class TestChangeLease:
    """The exception-safe snapshot-lease API (Database.held_changes)."""

    def test_lease_pins_then_releases_on_exit(self, db):
        log = db.begin_changes()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        with db.held_changes() as lease:
            assert lease.cursor == 1
            db.assert_set_member(n("kids"), n("p1"), (), n("x2"))
            assert db.trim_changes() == 1   # only below the lease
            assert log.offset == 1
        assert db.trim_changes() == 1       # lease gone: all reclaimed
        assert log.offset == log.cursor() == 2

    def test_reader_dying_mid_query_never_leaks_its_hold(self, db):
        log = db.begin_changes()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))

        def doomed_reader():
            with db.held_changes():
                raise RuntimeError("reader crashed mid-query")

        with pytest.raises(RuntimeError):
            doomed_reader()
        db.assert_set_member(n("kids"), n("p1"), (), n("x2"))
        assert db.trim_changes() == 2
        assert log.offset == log.cursor()   # fully trimmable again

    def test_dropping_an_unreleased_lease_unpins(self, db):
        log = db.begin_changes()
        lease = db.held_changes()           # pins at cursor 0
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        assert db.trim_changes() == 0
        del lease                           # weakly-held: GC releases
        assert db.trim_changes() == 1
        assert log.offset == log.cursor()

    def test_lease_without_a_log_is_inert(self, db):
        with db.held_changes() as lease:
            assert lease.cursor is None
        lease.release()                     # idempotent, no log: no-op

    def test_move_advances_the_low_water_mark(self, db):
        log = db.begin_changes()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        lease = db.held_changes()
        db.assert_set_member(n("kids"), n("p1"), (), n("x2"))
        assert db.trim_changes() == 1
        lease.move(log.cursor())
        assert db.trim_changes() == 1
        lease.release()
        with pytest.raises(ValueError):
            lease.move(0)                   # released leases stay dead

    def test_snapshot_lag_tracks_slowest_lease(self, db):
        log = db.begin_changes()
        assert db.snapshot_lag() == 0
        lease = db.held_changes()
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        db.assert_set_member(n("kids"), n("p1"), (), n("x2"))
        assert db.snapshot_lag() == 2
        lease.move(log.cursor())
        assert db.snapshot_lag() == 0
        lease.release()
        assert db.snapshot_lag() == 0

    def test_query_memo_hold_is_a_lease_and_releases_on_eviction(self, db):
        log = db.begin_changes()
        program = parse_program("X[d1 ->> {Y}] <- X[kids ->> {Y}].")
        query = Query(db, program=program)
        assert query.count("p1[d1 ->> {Y}]") == 2
        assert query._hold is not None and not query._hold.released
        db.assert_set_member(n("kids"), n("p1"), (), n("x1"))
        # Dropping every memo releases the hold: log fully trimmable.
        assert query.forget() >= 1
        assert query._hold is None or query._hold.released \
            or query._hold.cursor == log.cursor()
        db.trim_changes()
        assert log.offset == log.cursor()
