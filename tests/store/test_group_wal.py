"""Tests for group-commit durability: the GroupLog file and SeriesDB on it."""

import json
import os

import numpy as np
import pytest

from repro.codecs.container import GroupLog, read_group_log
from repro.store import SeriesDB


def _batches(rng, k=4, n=80):
    return [
        np.cumsum(rng.integers(-9, 10, n)).astype(np.int64) for _ in range(k)
    ]


class TestGroupLog:
    def test_roundtrip_interleaved_series(self, tmp_path, rng):
        path = tmp_path / "group.gwl"
        log = GroupLog.create(path, codec="gorilla")
        a1, a2, b1 = _batches(rng, k=3)
        log.append_group([("a", 0, a1), ("b", 2, b1)])
        log.append_group([("a", 0, a2)])
        got = read_group_log(path)
        assert [(sid, digits) for sid, digits, _ in got] == [
            ("a", 0), ("b", 2), ("a", 0),
        ]
        assert np.array_equal(got[0][2], a1)
        assert np.array_equal(got[1][2], b1)
        assert np.array_equal(got[2][2], a2)

    def test_one_fsync_per_group(self, tmp_path, rng, monkeypatch):
        log = GroupLog.create(tmp_path / "group.gwl", codec="gorilla")
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        batches = [(f"s{i}", 0, values) for i, values in
                   enumerate(_batches(rng, k=5))]
        assert log.append_group(batches) == 5
        assert len(calls) == 1

    def test_open_truncates_torn_tail(self, tmp_path, rng):
        path = tmp_path / "group.gwl"
        log = GroupLog.create(path, codec="gorilla")
        values = _batches(rng, k=1)[0]
        log.append_group([("a", 0, values)])
        sealed = path.stat().st_size
        log.append_group([("b", 0, values)])
        raw = path.read_bytes()
        path.write_bytes(raw[: sealed + 7])  # crash mid-second-record
        reopened = GroupLog.open(path)
        assert reopened.num_records == 1
        assert path.stat().st_size == sealed
        got = read_group_log(path)
        assert len(got) == 1 and got[0][0] == "a"

    def test_sealed_record_corruption_raises(self, tmp_path, rng):
        path = tmp_path / "group.gwl"
        log = GroupLog.create(path, codec="gorilla")
        log.append_group([("a", 0, _batches(rng, k=1)[0])])
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="crc"):
            read_group_log(path)

    def test_lossy_codec_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="lossless"):
            GroupLog.create(tmp_path / "group.gwl", codec="pla", eps=1.0)


class TestSeriesDBGroupCommit:
    def test_crash_reopen_recovers_group_log(self, tmp_path, rng):
        db = SeriesDB(tmp_path / "db")
        a = np.cumsum(rng.integers(-5, 6, 400)).astype(np.int64)
        b = np.cumsum(rng.integers(-5, 6, 300)).astype(np.int64)
        db.ingest_many({"a": a, "b": b}, workers=1)
        db.ingest("a", a[:50])
        del db  # crash: no flush, no close — only the group log is durable
        again = SeriesDB.open(tmp_path / "db")
        assert np.array_equal(
            again.decompress("a"), np.concatenate([a, a[:50]])
        )
        assert np.array_equal(again.decompress("b"), b)
        again.close()

    def test_steady_state_batch_costs_one_fsync(self, tmp_path, rng,
                                                monkeypatch):
        db = SeriesDB(tmp_path / "db")
        first = {
            f"s{i}": np.cumsum(rng.integers(-5, 6, 200)).astype(np.int64)
            for i in range(6)
        }
        db.ingest_many(first, workers=1)  # registers series + group log name
        db.flush()
        # first post-flush batch pays the one-time log-creation fsyncs
        db.ingest_many(
            {sid: values[:100] for sid, values in first.items()}, workers=1
        )
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real(fd)))
        db.ingest_many(
            {sid: values[100:150] for sid, values in first.items()}, workers=1
        )
        assert len(calls) == 1  # the whole 6-series batch, one fsync
        db.close()

    def test_flush_rotates_group_log(self, tmp_path, rng):
        root = tmp_path / "db"
        db = SeriesDB(root)
        db.ingest("a", np.cumsum(rng.integers(-5, 6, 100)).astype(np.int64))
        before = json.loads((root / "MANIFEST.json").read_text())["group_wal"]
        assert (root / before).exists()
        db.flush()
        after = json.loads((root / "MANIFEST.json").read_text())["group_wal"]
        assert after != before
        assert not (root / before).exists()  # dropped post-commit
        db.close()

    def test_manifest_has_no_group_commit_key(self, tmp_path, rng):
        """Every database logs through the group log: the manifest records
        no mode (an old manifest's flag: see test_legacy_wal)."""
        root = tmp_path / "db"
        db = SeriesDB(root)
        db.ingest("a", np.cumsum(rng.integers(-5, 6, 100)).astype(np.int64))
        db.flush()
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert "group_commit" not in manifest
        assert "group_commit" not in db.info()
        db.close()

    def test_deprecated_group_commit_keyword_is_ignored(self, tmp_path):
        for flag in (False, True):
            root = tmp_path / f"db-{flag}"
            db = SeriesDB(root, group_commit=flag)
            db.ingest("a", np.arange(50))
            assert list((root / "shards").glob("*.wal")) == []
            assert len(list((root / "shards").glob("*.gwl"))) == 1
            db.close()
