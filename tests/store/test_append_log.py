"""SeriesDB write-ahead group log: pre-flush durability + recovery.

Contract (see :class:`repro.store.SeriesDB`): every ``ingest`` /
``ingest_many`` lands its values in the database's group log (one fsync'd
``RPGW0001`` write) *before* mutating the in-memory shards, and the
manifest references the log before any data lands in it.  A crash before
:meth:`flush` therefore loses nothing: the next open replays the log on
top of the shard snapshots and re-marks those shards dirty.  ``flush``
consolidates — the snapshots absorb the logged values and the old log file
is dropped post-commit.  A record torn by a mid-append crash is skipped;
every completed batch survives.  Databases that still hold a legacy
per-series ``RPAL0001`` log are covered by ``test_legacy_wal.py``.
"""

import json

import numpy as np
import pytest

from repro.store import SeriesDB


@pytest.fixture
def root(tmp_path):
    return tmp_path / "db"


def make_db(root, **kw):
    kw.setdefault("seal_threshold", 256)
    kw.setdefault("hot_codec", "gorilla")
    kw.setdefault("cold_codec", "leats")
    return SeriesDB(root, **kw)


def log_files(root):
    return sorted((root / "shards").glob("*.gwl"))


def group_wal(root):
    return json.loads((root / "MANIFEST.json").read_text())["group_wal"]


class TestDurability:
    def test_unflushed_ingest_survives_reopen(self, root, rng):
        db = make_db(root)
        a = rng.integers(-500, 500, 1000).astype(np.int64)
        b = (np.arange(700) * 3).astype(np.int64)
        db.ingest("a", a, digits=2)
        db.ingest("b", b)
        db.ingest("a", a + 7)
        # no flush: simulate a crash by opening a fresh handle
        crashed = SeriesDB.open(root)
        assert crashed.count("a") == 2000
        assert np.array_equal(crashed.decompress("a"), np.concatenate([a, a + 7]))
        assert np.array_equal(crashed.decompress("b"), b)
        assert crashed.digits("a") == 2
        # recovered shards are dirty again: the next flush consolidates them
        assert crashed.cache_info()["dirty"] == 2

    def test_unflushed_ingest_many_survives_reopen(self, root, rng):
        db = make_db(root)
        fleet = {
            f"s{i}": rng.integers(0, 1000, 700 + 100 * i).astype(np.int64)
            for i in range(3)
        }
        db.ingest_many(fleet, workers=1)
        crashed = SeriesDB.open(root)
        for sid, values in fleet.items():
            assert np.array_equal(crashed.decompress(sid), values)

    def test_double_crash_replays_identically(self, root):
        db = make_db(root)
        values = np.arange(900, dtype=np.int64)
        db.ingest("s", values)
        first = SeriesDB.open(root)  # recovers, does not flush
        assert np.array_equal(first.decompress("s"), values)
        second = SeriesDB.open(root)  # the log is still there: replay again
        assert np.array_equal(second.decompress("s"), values)

    def test_recovered_values_queryable_without_explicit_load(self, root):
        db = make_db(root)
        db.ingest("s", np.arange(500, dtype=np.int64))
        crashed = SeriesDB.open(root)
        assert crashed.count("s") == 500  # live count, not the stale manifest 0
        assert crashed.access("s", 499) == 499
        assert np.array_equal(crashed.range("s", 100, 110), np.arange(100, 110))

    def test_append_to_flushed_series_survives(self, root, rng):
        db = make_db(root)
        base = rng.integers(0, 100, 1000).astype(np.int64)
        db.ingest("s", base)
        db.flush()
        more = rng.integers(0, 100, 300).astype(np.int64)
        db.ingest("s", more)  # crash before flush
        crashed = SeriesDB.open(root)
        assert np.array_equal(
            crashed.decompress("s"), np.concatenate([base, more])
        )


class TestManifestDiscipline:
    def test_manifest_references_log_before_data(self, root):
        """Crash recovery finds logs through the manifest, so the manifest
        must be committed before the first record lands."""
        db = make_db(root)
        db.ingest("s", np.arange(100, dtype=np.int64))
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert manifest["series"]["s"]["count"] == 0  # counts update at flush
        assert (root / manifest["group_wal"]).exists()

    def test_flush_consolidates_and_drops_logs(self, root):
        db = make_db(root)
        db.ingest("s", np.arange(600, dtype=np.int64))
        assert len(log_files(root)) == 1
        db.flush()
        assert log_files(root) == []
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert manifest["series"]["s"]["count"] == 600
        # the manifest rotated to a fresh (not yet existing) log generation
        assert not (root / manifest["group_wal"]).exists()
        clean = SeriesDB.open(root)
        assert clean.cache_info()["dirty"] == 0
        assert np.array_equal(clean.decompress("s"), np.arange(600))

    def test_flush_after_recovery_consolidates(self, root):
        db = make_db(root)
        values = np.arange(900, dtype=np.int64)
        db.ingest("s", values)
        crashed = SeriesDB.open(root)
        crashed.flush()
        assert log_files(root) == []
        assert json.loads((root / "MANIFEST.json").read_text())["series"]["s"][
            "count"
        ] == 900
        assert np.array_equal(SeriesDB.open(root).decompress("s"), values)

    def test_log_rotation_across_flush_cycles(self, root):
        db = make_db(root)
        db.ingest("s", np.arange(100, dtype=np.int64))
        first_wal = group_wal(root)
        db.flush()
        db.ingest("s", np.arange(100, 200, dtype=np.int64))
        second_wal = group_wal(root)
        assert second_wal != first_wal
        assert not (root / first_wal).exists()
        assert (root / second_wal).exists()
        crashed = SeriesDB.open(root)
        assert np.array_equal(crashed.decompress("s"), np.arange(200))


class TestFlushFailure:
    def test_ingest_after_failed_flush_stays_recoverable(self, root, monkeypatch):
        """A flush that dies mid-way leaves some entries updated only in
        memory; the next ingest must still land where recovery finds it, or
        the durable-on-return guarantee silently breaks."""
        import repro.store.seriesdb as seriesdb_mod

        db = make_db(root)
        db.ingest("a", np.arange(200, dtype=np.int64))
        db.ingest("b", np.arange(300, dtype=np.int64))
        db.flush()
        db.ingest("a", np.arange(200, 400, dtype=np.int64))
        db.ingest("b", np.arange(300, 500, dtype=np.int64))

        real = seriesdb_mod._write_atomic
        tier_writes = []

        def failing(path, blob):
            if str(path).endswith(".tier"):
                tier_writes.append(path)
                if len(tier_writes) == 2:  # second shard of the flush dies
                    raise OSError("simulated disk full")
            return real(path, blob)

        monkeypatch.setattr(seriesdb_mod, "_write_atomic", failing)
        with pytest.raises(OSError, match="disk full"):
            db.flush()
        monkeypatch.undo()

        more = np.arange(400, 450, dtype=np.int64)
        db.ingest("a", more)  # reported durable: must survive a crash
        crashed = SeriesDB.open(root)
        assert np.array_equal(crashed.decompress("a"), np.arange(450))
        assert np.array_equal(crashed.decompress("b"), np.arange(500))


class TestTornLog:
    def test_torn_final_record_loses_only_that_batch(self, root):
        db = make_db(root)
        db.ingest("s", np.arange(500, dtype=np.int64))
        db.ingest("s", np.arange(500, 800, dtype=np.int64))
        wal = root / group_wal(root)
        blob = wal.read_bytes()
        wal.write_bytes(blob[:-11])  # crash mid-append of the second batch
        crashed = SeriesDB.open(root)
        assert crashed.count("s") == 500
        assert np.array_equal(crashed.decompress("s"), np.arange(500))
        # recovery is dirty: flushing seals the surviving 500 for good
        crashed.flush()
        assert np.array_equal(SeriesDB.open(root).decompress("s"), np.arange(500))

    def test_fully_torn_log_falls_back_to_snapshot(self, root):
        db = make_db(root)
        base = np.arange(400, dtype=np.int64)
        db.ingest("s", base)
        db.flush()
        db.ingest("s", np.arange(400, 500, dtype=np.int64))
        wal = root / group_wal(root)
        wal.write_bytes(wal.read_bytes()[:30])  # tear inside the header/record 0
        crashed = SeriesDB.open(root)
        assert np.array_equal(crashed.decompress("s"), base)


class TestIngestValidation:
    """The serial-path satellites: digits gating and input coercion."""

    def test_preflush_digit_conflict_rejected(self, root):
        """Two pre-flush ingests with conflicting digits must raise: the
        manifest count is still 0, so the gate uses the live store length."""
        db = make_db(root)
        db.ingest("s", np.arange(10), digits=2)
        with pytest.raises(ValueError, match="mix scales"):
            db.ingest("s", np.arange(10), digits=3)
        with pytest.raises(ValueError, match="mix scales"):
            db.ingest_many({"s": np.arange(10)}, digits=1)
        assert db.digits("s") == 2  # the original scaling survived
        assert db.ingest("s", np.arange(10), digits=2) == 20

    def test_serial_ingest_rejects_non_1d(self, root):
        db = make_db(root)
        with pytest.raises(ValueError, match="expected a 1-D array"):
            db.ingest("s", np.zeros((3, 3)))
        with pytest.raises(ValueError, match="expected a 1-D array"):
            db.ingest("s", 5)
        assert "s" not in db  # nothing was created

    def test_serial_ingest_coerces_like_ingest_many(self, root):
        serial = make_db(root)
        serial.ingest("s", [1, 2, 3])  # plain list, like ingest_many accepts
        serial.flush()
        assert np.array_equal(serial.decompress("s"), np.array([1, 2, 3]))
        pooled = make_db(root.with_name("db2"))
        pooled.ingest_many({"s": [1, 2, 3]}, workers=1)
        pooled.flush()
        a = (serial.root / serial.info()["series"]["s"]["shard"]).read_bytes()
        b = (pooled.root / pooled.info()["series"]["s"]["shard"]).read_bytes()
        assert a == b
