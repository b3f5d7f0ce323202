"""Defects of the program that the benchmark's workloads steer around.

A benchmark workload must run without failing operations, so two
configurations that lose or corrupt data are not measured (see
perfbench/README.md, "Known defects").  Each is reproduced here as an
expected failure, so it stays visible in every test run; when the program
is fixed the test passes, and the workload can go back to the paper's
configuration.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import repro  # noqa: E402
from repro.core.models import get_model  # noqa: E402
from repro.data import DATASETS  # noqa: E402
from perfbench import workloads  # noqa: E402


@pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, KeyError),
    reason="SeriesDB.ingest_many resolves every store of the batch before "
    "marking any dirty, so the shard LRU evicts some of them and their "
    "acknowledged values are lost at the next flush",
)
def test_ingest_many_keeps_batches_wider_than_the_shard_cache(tmp_path):
    sids = [f"s{i}" for i in range(6)]
    data = {sid: np.arange(300, dtype=np.int64) * (i + 1) for i, sid in enumerate(sids)}
    db = repro.SeriesDB(tmp_path / "db", group_commit=True, cache_capacity=2)
    for lo in (0, 100, 200):
        db.ingest_many({sid: data[sid][lo : lo + 100] for sid in sids}, workers=1)
        db.flush()
    db.close()
    with repro.SeriesDB.open(tmp_path / "db") as reopened:
        for sid in sids:
            assert np.array_equal(reopened.decompress(sid), data[sid])


@pytest.mark.xfail(
    strict=False,  # numpy builds whose exp is correctly rounded do not show it
    raises=AssertionError,
    reason="NeaTSStorage builds its corrections with numpy's exp but access() "
    "evaluates with math.exp; a last-bit difference moves the floor by one",
)
def test_neats_access_agrees_with_the_source_on_exponential_fragments():
    y = DATASETS["LON"].generate(
        2560, seed=workloads.sub_seed(105, "compact", "q08")
    )[:1024]
    comp = repro.compress(y, codec="neats")
    assert [k for k in range(len(y)) if comp.access(k) != y[k]] == []


@pytest.mark.parametrize("name", workloads.NEATS_MODELS)
def test_benchmark_models_evaluate_alike_in_access_and_decompress(name):
    """The workaround holds: each model the workloads fit evaluates
    bit-identically in the scalar (access) and the vector (decompress) path."""
    model = get_model(name)
    rng = np.random.default_rng(7)
    xs = np.arange(1, 4097, dtype=np.float64)
    for _ in range(50):
        params = tuple(rng.normal(0, 10, model.n_params) * 10.0 ** rng.integers(-6, 3))
        vector = model.evaluate(params, xs)
        scalar = [model.evaluate_at(params, int(x)) for x in xs]
        assert np.array_equal(vector, np.asarray(scalar))


def test_benchmark_neats_models_access_the_defect_example_exactly():
    y = DATASETS["LON"].generate(
        2560, seed=workloads.sub_seed(105, "compact", "q08")
    )[:1024]
    comp = repro.compress(y, codec="neats", models=workloads.NEATS_MODELS)
    assert [k for k in range(len(y)) if comp.access(k) != y[k]] == []
