"""Tests of the benchmark's own code, on tiny sizes."""

from __future__ import annotations

import json
import shutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import repro  # noqa: E402
from perfbench import layers, workloads  # noqa: E402
from perfbench.stats import percentile, segmented_tail, summarize, tail_percentile  # noqa: E402
from perfbench.tracing import SpanTable, Tracer, resolve, self_time  # noqa: E402


# -- span arithmetic ---------------------------------------------------------


def test_self_time_subtracts_covered_interval_once():
    # Children [10,20) and [15,30) overlap: they cover [10,30) = 20 ns.
    # [90,120) sticks out of the parent [0,100): only 10 ns of it count.
    assert self_time(0, 100, [(10, 20), (15, 30), (90, 120)]) == 70
    assert self_time(0, 100, []) == 100
    assert self_time(50, 60, [(0, 40)]) == 10


@pytest.fixture
def fake_layers(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layers")

    class Store:
        def read(self, k):
            return mod.decode(k) + 1

        @classmethod
        def load(cls, data):
            return cls()

    def decode(k):
        return k * 2

    mod.Store, mod.decode = Store, decode
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_tracer_records_nested_spans_and_restores(fake_layers):
    original_read = fake_layers.Store.__dict__["read"]
    original_decode = fake_layers.decode
    tracer = Tracer()
    tracer.span("perfbench_fake_layers:Store.read", "store.read")
    tracer.span("perfbench_fake_layers:decode", "codec.decode")
    tracer.span("perfbench_fake_layers:Store.load", "store.load")
    store = fake_layers.Store.load(b"")
    with tracer.request("access"):
        assert store.read(3) == 7
    with tracer.request("access"):
        assert store.read(4) == 9
    tracer.restore()
    assert fake_layers.Store.__dict__["read"] is original_read
    assert fake_layers.decode is original_decode
    assert isinstance(fake_layers.Store.__dict__["load"], classmethod)

    names = [span[0] for span in tracer.spans]
    assert names == [
        "store.load", "op.access", "store.read", "codec.decode",
        "op.access", "store.read", "codec.decode",
    ]
    load, root1, read1, dec1, root2, read2, dec2 = tracer.spans
    assert load[3] == -1 and load[4] == 0  # outside any request
    assert read1[3] == 1 and dec1[3] == 2  # parent indices
    assert {root1[4], read1[4], dec1[4]} == {1}
    assert {root2[4], read2[4], dec2[4]} == {2}

    table = SpanTable(tracer)
    assert table.calls("store.read", {"access"}) == 2
    assert table.requests("access") == 2
    assert table.requests_touching("access", {"codec.decode"}) == 2
    for read, dec, own in zip((read1, read2), (dec1, dec2), table.self_times("store.read")):
        assert own == (read[2] - read[1]) - (dec[2] - dec[1])


def test_tracer_counts_and_per_op_counters(fake_layers):
    tracer = Tracer()
    tracer.count("perfbench_fake_layers:decode", "codec.decode")
    tracer.span(
        "perfbench_fake_layers:Store.read", "store.read",
        lambda args, kwargs, result, state: {"bytes": result + state},
        lambda args, kwargs: 100,
    )
    with tracer.request("access"):
        fake_layers.Store().read(1)
    fake_layers.Store().read(2)
    tracer.restore()
    assert tracer.counts["codec.decode.calls"] == 2
    assert tracer.counts["bytes"] == (3 + 100) + (5 + 100)
    assert tracer.counts[("access", "bytes")] == 103


def test_every_layer_target_resolves_and_restores():
    targets = [t for t, *_ in layers.SPANS] + [t for t, _ in layers.COUNTS]
    before = {}
    for target in targets:
        owner, attr = resolve(target)
        before[target] = owner.__dict__.get(attr, getattr(owner, attr))
    tracer = Tracer()
    layers.install(tracer)
    tracer.restore()
    for target in targets:
        owner, attr = resolve(target)
        assert owner.__dict__.get(attr, getattr(owner, attr)) is before[target]


# -- the percentile rule -----------------------------------------------------


@pytest.mark.parametrize("n", [11, 20, 40, 136, 999, 1000, 5000])
def test_tail_percentile_keeps_ten_samples_beyond(n):
    p = tail_percentile(n)
    samples = list(range(n))
    value = percentile(samples, p)
    assert sum(s > value for s in samples) >= 10
    assert p <= 99.0
    # 0.1 higher would leave fewer than ten beyond (or exceed p99)
    if p < 99.0:
        higher = percentile(samples, p + 0.1)
        assert sum(s > higher for s in samples) < 10


def test_tail_percentile_limits():
    assert tail_percentile(10) is None
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(136) == 92.6
    assert summarize([]) == {"n": 0, "p50": None, "tail_p": None, "tail": None}
    s = summarize(list(range(1, 41)))
    assert s["n"] == 40 and s["p50"] == 20 and s["tail_p"] == 75.0 and s["tail"] == 30


def test_segmented_tail_ignores_a_burst_in_one_slice():
    samples = [1.0] * 5000
    samples[1000:1100] = [50.0] * 100  # a burst: 100 slow reads in a row
    assert summarize(samples)["tail"] == 50.0
    assert segmented_tail(samples) == (99.0, 1.0)
    # each slice's own p99, then their median
    ramp = [float(i % 1000) for i in range(5000)]
    assert segmented_tail(ramp) == (99.0, percentile(ramp[:1000], 99.0))


def test_segmented_tail_falls_back_to_the_whole_run():
    samples = [float(i) for i in range(40)]  # too few for 5 slices
    assert segmented_tail(samples) == (75.0, 29.0)
    assert segmented_tail([]) == (None, None)
    # slices of 136 support p92.6, as a single run of 136 does
    assert segmented_tail(list(range(680)))[0] == 92.6


# -- failure counting and crash-copy verification ------------------------------


def test_run_counts_raised_and_wrong_answers(tmp_path):
    run = workloads.Run(1, 1, tmp_path)

    def boom():
        raise IndexError("gone")

    assert run.call("access", boom) is workloads.RAISED
    run.verify("access", False)
    got = run.call("access", lambda: 41)
    run.verify("access", got == 42)
    got = run.call("access", lambda: 42)
    run.verify("access", got == 42)
    assert (run.attempted, run.failed) == (3, 2)
    assert run.failures["access"] == 2
    assert run.errors["access"] == "IndexError: gone"
    assert len(run.samples["access"]) == 2  # raised calls have no latency


def _crash_copy(tmp_path, cache_capacity):
    """Two partitions, 6 series, three batches; copy while the handle is live."""
    live = tmp_path / "live"
    rng = np.random.default_rng(7)
    sids = [f"s{i}" for i in range(6)]
    data = {sid: rng.integers(-1000, 1000, 300) for sid in sids}
    acked = {sid: [] for sid in sids}
    db = repro.PartitionedSeriesDB(
        live, partitions=2, seal_threshold=64, cache_capacity=cache_capacity
    )
    for b in range(3):
        db.ingest_many({sid: data[sid][b * 100 : (b + 1) * 100] for sid in sids}, workers=1)
        for sid in sids:
            acked[sid].append((b * 100, (b + 1) * 100))
        if b == 0:
            db.flush()
    crash = tmp_path / "crash"
    shutil.copytree(live, crash)  # the live handle is never closed
    return repro.PartitionedSeriesDB.open(crash), data, acked


def test_verify_recovered_accepts_intact_copy(tmp_path):
    rdb, data, acked = _crash_copy(tmp_path, cache_capacity=None)
    run = workloads.Run(1, 1, tmp_path)
    assert workloads.verify_recovered(run, rdb, data, acked) == 0
    assert (run.attempted, run.failed) == (18, 0)


def test_verify_recovered_counts_wrong_and_missing_batches(tmp_path):
    rdb, data, acked = _crash_copy(tmp_path, cache_capacity=None)
    run = workloads.Run(1, 1, tmp_path)
    wrong = {sid: values.copy() for sid, values in data.items()}
    wrong["s0"][150] += 1  # second batch of s0 no longer matches
    acked["s1"].append((300, 400))  # a batch the store never received
    assert workloads.verify_recovered(run, rdb, wrong, acked) == 2
    assert (run.attempted, run.failed) == (19, 2)
    assert run.failures["batch"] == 2


def test_verify_recovered_counts_every_batch_when_recovery_raised(tmp_path):
    run = workloads.Run(1, 1, tmp_path)
    acked = {"a": [(0, 10), (10, 20)], "b": [(0, 5)]}
    data = {"a": np.arange(20), "b": np.arange(5)}
    assert workloads.verify_recovered(run, workloads.RAISED, data, acked) == 3
    assert (run.attempted, run.failed) == (3, 3)


# -- BENCHMARK.json agrees with the code ----------------------------------------


def test_benchmark_json_matches_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in workloads.E2E_METRICS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER_METRICS
    ]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
