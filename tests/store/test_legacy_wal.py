"""Databases written with per-series ``RPAL0001`` logs still open and upgrade.

Every SeriesDB now logs through its one ``RPGW0001`` group log; a manifest
entry's legacy ``"wal"`` key is replayed read-only (before any group-log
record of that series), and the next flush drops the key and deletes the
file.  ``fixtures/legacy_wal_db`` was written by the per-series-WAL
version of :class:`~repro.store.SeriesDB` with this snippet, then left
unflushed (a crash)::

    db = SeriesDB(root, seal_threshold=64, cold_codec="leats")
    db.ingest("temp", np.arange(100) * 3 - 50)
    db.ingest("price", np.arange(100) * 7 % 101, digits=2)
    db.ingest("idle", np.arange(80))
    db.flush()
    db.ingest("temp", np.arange(100, 160) * 3 - 50)
    db.ingest_many({"temp": np.arange(160, 200) * 3 - 50,
                    "price": np.arange(100, 170) * 7 % 101}, workers=1)
    del db  # crash: no flush, no close

So ``temp`` and ``price`` hold unflushed ``.wal`` records, ``idle``'s
``"wal"`` key names a rotated-away file that was never created, and the
manifest still carries ``"group_commit": false``.  Tests run on a copy.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.store import PartitionedSeriesDB, SeriesDB

FIXTURE = Path(__file__).parent / "fixtures" / "legacy_wal_db"

EXPECTED = {
    "temp": np.arange(200) * 3 - 50,
    "price": np.arange(170) * 7 % 101,
    "idle": np.arange(80),
}


@pytest.fixture
def root(tmp_path):
    return Path(shutil.copytree(FIXTURE, tmp_path / "legacy"))


def manifest(root):
    return json.loads((root / "MANIFEST.json").read_text())


def wal_files(root):
    return sorted((root / "shards").glob("*.wal"))


def assert_expected(db, extra=None):
    for sid, values in EXPECTED.items():
        if extra and sid in extra:
            values = np.concatenate([values, extra[sid]])
        assert np.array_equal(db.decompress(sid), values), sid


def test_fixture_is_a_legacy_database():
    data = manifest(FIXTURE)
    assert data["group_commit"] is False and "group_wal" not in data
    assert [p.name for p in wal_files(FIXTURE)] == [
        "price-0007.wal", "temp-0008.wal",
    ]


def test_reopens_with_every_value_in_order(root):
    before = {p.name: p.read_bytes() for p in wal_files(root)}
    db = SeriesDB.open(root)
    assert_expected(db)
    assert db.digits("price") == 2 and db.digits("temp") == 0
    assert db.cache_info()["dirty"] == 2  # the two replayed series
    # replay is read-only: the legacy logs are untouched until a flush
    assert {p.name: p.read_bytes() for p in wal_files(root)} == before
    assert manifest(root) == manifest(FIXTURE)


def test_flush_retires_the_legacy_logs(root):
    db = SeriesDB.open(root)
    db.flush()
    assert wal_files(root) == []
    data = manifest(root)
    assert all("wal" not in entry for entry in data["series"].values())
    assert "group_commit" not in data
    db.close()
    again = SeriesDB.open(root)
    assert again.cache_info()["dirty"] == 0
    assert_expected(again)
    assert again.digits("price") == 2


def test_crash_after_new_ingest_replays_legacy_then_group_log(root):
    db = SeriesDB.open(root)
    more = {"temp": np.arange(5), "price": np.arange(7) + 40}
    db.ingest("temp", more["temp"])
    db.ingest_many({"price": more["price"]}, workers=1, digits=2)
    assert len(wal_files(root)) == 2  # nothing new goes to a .wal
    assert (root / manifest(root)["group_wal"]).exists()
    del db  # crash: the legacy logs and the group log are both live
    crashed = SeriesDB.open(root)
    assert_expected(crashed, extra=more)
    crashed.flush()
    assert wal_files(root) == []
    assert_expected(SeriesDB.open(root), extra=more)


def test_fsck_deep_is_clean_through_the_upgrade(root, capsys):
    assert main(["fsck", str(root), "--deep"]) == 0
    db = SeriesDB.open(root)
    db.ingest("idle", np.arange(80, 90))  # legacy logs + group log + old flag
    assert main(["fsck", str(root), "--deep"]) == 0
    db.flush()
    assert main(["fsck", str(root), "--deep"]) == 0
    db.close()
    assert main(["fsck", str(root), "--deep"]) == 0
    capsys.readouterr()


def test_migrate_converts_the_legacy_database(root):
    db = PartitionedSeriesDB.migrate(root, partitions=2)
    assert sorted(db.series_ids()) == sorted(EXPECTED)
    assert_expected(db)
    assert db.digits("price") == 2
    assert "group_commit" not in manifest(root)
    assert not (root / "shards").exists()
    db.close()
    assert main(["fsck", str(root), "--deep"]) == 0
