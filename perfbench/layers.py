"""The layer map: which public functions are traced, and the per-layer metrics.

Every target is patched where its caller looks the name up, so the
wrapper sees exactly the calls the program makes.  Each per-layer metric
is computed on every workload; a workload that bypasses a layer reports 0
for it (that is the prediction for the bypassing workload).
"""

from __future__ import annotations

import os

from .stats import percentile
from .tracing import SpanTable, Tracer

__all__ = ["PER_LAYER_METRICS", "install", "per_layer"]


def _partition_result(args, kwargs, result, state):
    return {
        "core.partition.fragments": len(result.fragments),
        "core.partition.values": len(args[0]),
    }


def _write_atomic_bytes(args, kwargs, result, state):
    return {"codecs.container.write_atomic.bytes": len(args[1])}


def _log_size(args, kwargs):
    return os.path.getsize(args[0].path)


def _append_group_bytes(args, kwargs, result, state):
    # The log only grows by appends: its growth is what this call wrote.
    return {"codecs.container.append_group.bytes": _log_size(args, kwargs) - state}


# (target "module:attribute", span name, counter hook[, pre-call hook])
SPANS = [
    ("repro.core.compressor:partition", "core.partition", _partition_result),
    ("repro.core.storage:NeaTSStorage.__init__", "core.storage.build", None),
    ("repro.core.storage:NeaTSStorage.decompress", "core.storage.decompress", None),
    ("repro.core.storage:NeaTSStorage.access", "core.storage.access", None),
    ("repro.core.storage:NeaTSStorage.decompress_range", "core.storage.decompress_range", None),
    ("repro.kernels:evaluate_fragments", "kernels.evaluate_fragments", None),
    ("repro.kernels:decode_xor_block", "kernels.decode_xor_block", None),
    ("repro.baselines.gorilla:_XorBlockCompressed.access", "codecs.gorilla.access", None),
    (
        "repro.baselines.gorilla:_XorBlockCompressed.decompress_range",
        "codecs.gorilla.decompress_range",
        None,
    ),
    *[
        (f"repro.store.partitioned:PartitionedSeriesDB.{m}", f"store.partitioned.{m}", None)
        for m in ("ingest_many", "ingest", "access", "range", "decompress", "flush", "compact")
    ],
    *[
        (f"repro.store.seriesdb:SeriesDB.{m}", f"store.seriesdb.{m}", None)
        for m in ("ingest_many", "ingest", "access", "range", "decompress", "flush", "compact")
    ],
    ("repro.store.seriesdb:compress_many_frames", "store.parallel.compress_many_frames", None),
    (
        "repro.store.seriesdb:GroupLog.append_group",
        "codecs.container.append_group",
        _append_group_bytes,
        _log_size,
    ),
    ("repro.store.seriesdb:read_group_log", "codecs.container.read_group_log", None),
    ("repro.store.seriesdb:_write_atomic", "codecs.container.write_atomic", _write_atomic_bytes),
    ("repro.store.partitioned:_write_atomic", "codecs.container.write_atomic", _write_atomic_bytes),
    ("repro.codecs.container:write_atomic", "codecs.container.write_atomic", _write_atomic_bytes),
    ("os:fsync", "os.fsync", None),
    *[
        (f"repro.core.tiered:TieredStore.{m}", f"core.tiered.{m}", None)
        for m in (
            "extend", "adopt_sealed", "consolidate", "access", "range",
            "to_bytes", "from_bytes",
        )
    ],
]

# Inner-loop calls: counted, not timed (a span per call would swamp them).
COUNTS = [
    ("repro.core.transforms:PairTransform.longest_fragment", "core.transforms.longest_fragment"),
    ("repro.core.convex:RangeLineFitter.add", "core.convex.add"),
]


def install(tracer: Tracer) -> None:
    """Patch every layer boundary; undo with ``tracer.restore()``."""
    for target, name, *hooks in SPANS:
        tracer.span(target, name, *hooks)
    for target, name in COUNTS:
        tracer.count(target, name)


#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER_METRICS = [
    # core.partition: neats_codec compress and compact_query compaction
    ("core.partition.busy_s", "s", "lower"),
    ("core.partition.fragments_per_kvalue", "1/kvalue", "lower"),
    ("core.transforms.longest_fragment.calls", "count", "lower"),
    ("core.convex.add.calls", "count", "lower"),
    ("core.storage.build.busy_s", "s", "lower"),
    # core.storage / kernels
    ("core.storage.decompress.busy_s", "s", "lower"),
    ("kernels.evaluate_fragments.busy_s", "s", "lower"),
    ("core.storage.access.busy_us_p50", "us", "lower"),
    ("core.storage.decompress_range.busy_us_p50", "us", "lower"),
    # baselines, for Table III context (neats_codec data, tracing off)
    *[
        (f"baselines.{codec}.{metric}", unit, better)
        for codec in ("leco", "alp", "gorilla")
        for metric, unit, better in (
            ("space_pct", "%", "lower"),
            ("compress_mb_s", "MB/s", "higher"),
            ("decompress_mb_s", "MB/s", "higher"),
            ("access_p50_us", "us", "lower"),
        )
    ],
    *[
        (f"table3.neats_smaller_than_{codec}", "datasets", "higher")
        for codec in ("leco", "alp", "gorilla")
    ],
    # store write path: stream_ingest
    ("store.partitioned.ingest_many.self_ms_p50", "ms", "lower"),
    ("store.seriesdb.ingest_many.self_ms_p50", "ms", "lower"),
    ("store.parallel.compress_many_frames.busy_ms_p50", "ms", "lower"),
    ("codecs.container.append_group.busy_ms_p50", "ms", "lower"),
    ("codecs.container.append_group.bytes_per_user_byte", "ratio", "lower"),
    ("codecs.container.write_atomic.calls_per_flush", "count", "lower"),
    ("codecs.container.write_atomic.bytes_per_flush", "bytes", "lower"),
    ("codecs.container.read_group_log.busy_ms", "ms", "lower"),
    ("os.fsync.calls_per_batch", "count", "lower"),
    ("os.fsync.busy_ms_p50", "ms", "lower"),
    ("io.write_amp", "ratio", "lower"),
    ("core.tiered.extend.busy_ms_p50", "ms", "lower"),
    ("core.tiered.adopt_sealed.calls", "count", "lower"),
    ("core.tiered.to_bytes.busy_ms", "ms", "lower"),
    ("core.tiered.from_bytes.calls_per_batch", "count", "lower"),
    ("core.tiered.extend.recover_ms", "ms", "lower"),
    # store read path and compaction: compact_query (and reads after recovery)
    ("core.tiered.consolidate.busy_s", "s", "lower"),
    ("store.partitioned.access.self_us_p50", "us", "lower"),
    ("store.seriesdb.access.self_us_p50", "us", "lower"),
    ("core.tiered.access.self_us_p50", "us", "lower"),
    ("store.shard_cache.hit_ratio", "ratio", "higher"),
    ("core.tiered.from_bytes.busy_us_p50", "us", "lower"),
    ("kernels.decode_xor_block.calls_per_kquery", "count", "lower"),
    ("kernels.decode_xor_block.busy_us_p50", "us", "lower"),
    ("query.tier_share.cold", "ratio", "higher"),
    ("query.tier_share.hot", "ratio", "higher"),
    ("query.tier_share.buffer", "ratio", "higher"),
    # the instrument itself
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
]

QUERY_OPS = {"access", "range"}
STORE_QUERY_SPANS = {"store.seriesdb.access", "store.seriesdb.range"}


def _p50(samples_ns, scale: float) -> float:
    return percentile(samples_ns, 50) / scale if samples_ns else 0.0


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


TIME_UNITS = {"s", "ms", "us"}


def per_layer(tracer: Tracer, facts: dict, speed: float = 1.0) -> dict:
    """Every metric of :data:`PER_LAYER_METRICS` from one traced run.

    ``facts`` carries what only the workload knows: ``user_bytes`` written
    by its ingest calls, ``baselines`` and ``table3`` for ``neats_codec``,
    and ``overhead_pct`` (traced vs untraced client time).  Span times are
    scaled by ``speed``, the traced run's median speed-normalisation
    factor, so they read in the same units as the end-to-end timings.
    """
    t = SpanTable(tracer)
    c = tracer.counts
    ingest = {"ingest"}
    batches = t.requests("ingest")
    flushes = t.requests("flush")
    recoveries = t.requests("recover")
    store_queries = sum(
        t.requests_touching(op, STORE_QUERY_SPANS) for op in QUERY_OPS
    )
    accesses = t.requests("access")
    cold = t.requests_touching("access", {"core.storage.access"})
    hot = t.requests_touching("access", {"codecs.gorilla.access"})
    user_bytes = facts.get("user_bytes", 0)
    out = {
        "core.partition.busy_s": t.busy("core.partition") / 1e9,
        "core.partition.fragments_per_kvalue": 1000
        * _per(c["core.partition.fragments"], c["core.partition.values"]),
        "core.transforms.longest_fragment.calls": c["core.transforms.longest_fragment.calls"],
        "core.convex.add.calls": c["core.convex.add.calls"],
        "core.storage.build.busy_s": t.busy("core.storage.build") / 1e9,
        "core.storage.decompress.busy_s": t.busy("core.storage.decompress") / 1e9,
        "kernels.evaluate_fragments.busy_s": t.busy("kernels.evaluate_fragments") / 1e9,
        "core.storage.access.busy_us_p50": _p50(t.durations("core.storage.access"), 1e3),
        "core.storage.decompress_range.busy_us_p50": _p50(
            t.durations("core.storage.decompress_range"), 1e3
        ),
    }
    baselines = facts.get("baselines", {})
    for codec in ("leco", "alp", "gorilla"):
        for metric in ("space_pct", "compress_mb_s", "decompress_mb_s", "access_p50_us"):
            out[f"baselines.{codec}.{metric}"] = baselines.get(codec, {}).get(metric, 0.0)
    table3 = facts.get("table3", {})
    for codec in ("leco", "alp", "gorilla"):
        out[f"table3.neats_smaller_than_{codec}"] = table3.get(codec, 0)
    # WAL, shard and manifest bytes written by the write path
    write_bytes = sum(
        c[(op, f"codecs.container.{layer}.bytes")]
        for op in ("ingest", "flush")
        for layer in ("append_group", "write_atomic")
    )
    out.update(
        {
            "store.partitioned.ingest_many.self_ms_p50": _p50(
                t.self_times("store.partitioned.ingest_many", ingest), 1e6
            ),
            "store.seriesdb.ingest_many.self_ms_p50": _p50(
                t.self_times("store.seriesdb.ingest_many", ingest), 1e6
            ),
            "store.parallel.compress_many_frames.busy_ms_p50": _p50(
                t.durations("store.parallel.compress_many_frames", ingest), 1e6
            ),
            "codecs.container.append_group.busy_ms_p50": _p50(
                t.durations("codecs.container.append_group", ingest), 1e6
            ),
            "codecs.container.append_group.bytes_per_user_byte": _per(
                c[("ingest", "codecs.container.append_group.bytes")], user_bytes
            ),
            "codecs.container.write_atomic.calls_per_flush": _per(
                t.calls("codecs.container.write_atomic", {"flush"}), flushes
            ),
            "codecs.container.write_atomic.bytes_per_flush": _per(
                c[("flush", "codecs.container.write_atomic.bytes")], flushes
            ),
            "codecs.container.read_group_log.busy_ms": _per(
                t.busy("codecs.container.read_group_log", {"recover"}) / 1e6, recoveries
            ),
            "os.fsync.calls_per_batch": _per(t.calls("os.fsync", ingest), batches),
            "os.fsync.busy_ms_p50": _p50(t.durations("os.fsync", ingest), 1e6),
            "io.write_amp": _per(write_bytes, user_bytes),
            "core.tiered.extend.busy_ms_p50": _p50(
                t.durations("core.tiered.extend", ingest), 1e6
            ),
            "core.tiered.adopt_sealed.calls": t.calls("core.tiered.adopt_sealed", ingest),
            "core.tiered.to_bytes.busy_ms": _per(
                t.busy("core.tiered.to_bytes", {"flush"}) / 1e6, flushes
            ),
            "core.tiered.from_bytes.calls_per_batch": _per(
                t.calls("core.tiered.from_bytes", ingest), batches
            ),
            "core.tiered.extend.recover_ms": _per(
                t.busy("core.tiered.extend", {"recover"}) / 1e6, recoveries
            ),
            "core.tiered.consolidate.busy_s": t.busy("core.tiered.consolidate") / 1e9,
            "store.partitioned.access.self_us_p50": _p50(
                t.self_times("store.partitioned.access", {"access"}), 1e3
            ),
            "store.seriesdb.access.self_us_p50": _p50(
                t.self_times("store.seriesdb.access", {"access"}), 1e3
            ),
            "core.tiered.access.self_us_p50": _p50(
                t.self_times("core.tiered.access", {"access"}), 1e3
            ),
            "store.shard_cache.hit_ratio": (
                1 - _per(t.calls("core.tiered.from_bytes", QUERY_OPS), store_queries)
                if store_queries
                else 0.0
            ),
            "core.tiered.from_bytes.busy_us_p50": _p50(
                t.durations("core.tiered.from_bytes", QUERY_OPS), 1e3
            ),
            "kernels.decode_xor_block.calls_per_kquery": 1000
            * _per(
                t.calls("kernels.decode_xor_block", QUERY_OPS),
                sum(t.requests(op) for op in QUERY_OPS),
            ),
            "kernels.decode_xor_block.busy_us_p50": _p50(
                t.durations("kernels.decode_xor_block", QUERY_OPS), 1e3
            ),
            "query.tier_share.cold": _per(cold, accesses),
            "query.tier_share.hot": _per(hot, accesses),
            "query.tier_share.buffer": _per(accesses - cold - hot, accesses),
            "trace.overhead_pct": facts.get("overhead_pct", 0.0),
            "trace.spans": len(tracer.spans),
        }
    )
    normalised = {  # measured by the benchmark itself, already scaled
        f"baselines.{codec}.access_p50_us" for codec in ("leco", "alp", "gorilla")
    }
    return {
        name: float(out[name]) * (
            speed if unit in TIME_UNITS and name not in normalised else 1.0
        )
        for name, unit, _ in PER_LAYER_METRICS
    }
