"""The three workloads: ``neats_codec``, ``stream_ingest``, ``compact_query``.

Each one is a closed loop with a single client: the next operation is sent
only after the previous one returned, and every store runs with
``workers=1`` (no process fan-out, no ``access_many``/``range_many``
threads).  Inputs come from the seeded ``repro.data`` generators as
``(generator, params) -> data``, with every generator seed derived from
the workload seed, so one seed always gives the same inputs.  The amount
of work is fixed by ``--seconds`` (not by a clock), so two runs with the
same arguments do identical work and their answers can be compared.

Every answer is checked against the generated source.  An operation that
raises, or returns a wrong value, counts as failed and the run goes on.
"""

from __future__ import annotations

import contextlib
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.baselines import Compressed
from repro.data import DATASETS, dataset_names
from repro.store.seriesdb import DEFAULT_CACHE_CAPACITY

from .stats import TAIL_SEGMENTS, percentile, segmented_tail, summarize
from .tracing import patch

__all__ = [
    "E2E_METRICS",
    "REPORT_ONLY_METRICS",
    "WORKLOADS",
    "Run",
    "Result",
    "table3_baselines",
]

_now = time.perf_counter_ns
MB = 1e6  # the paper's unit: 10^6 bytes of raw int64

#: (name, unit, better) of the end-to-end metrics every workload reports
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("space_pct", "%", "lower"),
    ("write_mb_s", "MB/s", "higher"),
    ("write_p50_ms", "ms", "lower"),
    ("recover_s", "s", "lower"),
    ("read_mb_s", "MB/s", "higher"),
    ("access_p50_us", "us", "lower"),
    ("range_p50_us", "us", "lower"),
    ("range_p99_us", "us", "lower"),
]

#: (name, unit, why) of metrics every workload prints but BENCHMARK.json
#: does not gate
REPORT_ONLY_METRICS = [
    (
        "access_p99_us",
        "us",
        "not gated: on neats_codec and stream_ingest point reads have a narrow "
        "latency distribution, and its p99 follows millisecond bursts of host "
        "noise (0.2-0.33 of the median between seeds), not the program",
    ),
]

#: the smallest sample count for which "p99" keeps ten samples beyond it
P99_SAMPLES = 1000
#: reads of one kind a run needs for the sliced p99 (see Run.read_metrics)
P99_READS = TAIL_SEGMENTS * P99_SAMPLES

RAISED = object()  # what Run.call returns when the operation raised


def sub_seed(seed: int, *keys) -> int:
    """A generator seed derived from the workload seed and ``keys``."""
    entropy = [int(seed)] + [
        int.from_bytes(str(k).encode(), "little") % (1 << 32) for k in keys
    ]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def disk_bytes(root: Path) -> int:
    """Bytes of every regular file under ``root``."""
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


@dataclass
class Result:
    """What a workload hands back to the runner."""

    metrics: dict  # end-to-end name -> value
    samples: dict  # end-to-end name -> sample count behind it
    extras: list  # (name, value, unit, note) for the human report
    facts: dict = field(default_factory=dict)  # inputs of the per-layer metrics
    sizes: dict = field(default_factory=dict)  # provenance: workload sizes


#: what one reference kernel takes on the nominal machine
REF_NS = 800_000
#: re-time the reference kernel after this much time has passed
RECALIBRATE_NS = 50_000_000
#: the speed factor uses the median of this many latest readings
RECENT = 5
_REF_ARRAY = np.arange(64)


class _RefObject:
    def __init__(self) -> None:
        self.v = 1

    def get(self, k: int) -> int:
        return self.v + k


def reference_kernel() -> int:
    """Fixed work owned by the benchmark, never by the program under test.

    A mix of what the program spends its time on: method calls, attribute
    and dict access, numpy scalar indexing and small array operations.
    """
    obj, arr, table, acc = _RefObject(), _REF_ARRAY, {}, 0
    for i in range(1500):
        acc += obj.get(i) + int(arr[i & 63])
        table[i & 255] = acc
    np.cumsum(arr)
    np.sort(arr[::-1])
    return acc


class SpeedGauge:
    """Tracks how fast the machine runs right now.

    A shared virtual machine's speed drifts by up to half over a few
    seconds (cpu time drifts with wall time, so it is not descheduling).  Every measured
    interval is therefore scaled by ``REF_NS / t_ref``, where ``t_ref`` is
    the median of the ``RECENT`` latest timings of :func:`reference_kernel`
    (each the best of three), re-timed whenever ``RECALIBRATE_NS`` have
    passed: a timing reads as it would on a machine where the reference
    kernel takes exactly ``REF_NS``.
    """

    def __init__(self) -> None:
        self.readings: list[int] = []
        self._last = None

    def factor(self) -> float:
        now = _now()
        if self._last is None or now - self._last > RECALIBRATE_NS:
            best = None
            for _ in range(3):
                start = _now()
                reference_kernel()
                took = _now() - start
                best = took if best is None else min(best, took)
            self.readings.append(best)
            self._last = _now()
        return REF_NS / float(np.median(self.readings[-RECENT:]))

    def summary(self) -> dict:
        """Reference-kernel times (ms) seen during the run."""
        ms = [r / 1e6 for r in self.readings]
        return {
            "readings": len(ms),
            "ref_ms_p50": percentile(ms, 50) if ms else None,
            "ref_ms_min": min(ms, default=None),
            "ref_ms_max": max(ms, default=None),
        }


class Run:
    """Client-side bookkeeping: timings, outcomes, and trace requests.

    Every duration it records is speed-normalised (see :class:`SpeedGauge`).
    """

    def __init__(
        self, seed: int, seconds: int, workdir: Path, tracer=None, on_start=None
    ) -> None:
        self.seed = int(seed)
        self.seconds = max(1, int(seconds))
        self.workdir = Path(workdir)
        self.tracer = tracer
        self._on_start = on_start
        self.gauge = SpeedGauge()
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()  # op -> failed count
        self.errors: dict[str, str] = {}  # op -> first exception seen
        self.samples: dict[str, list[float]] = defaultdict(list)  # op -> ns
        self.client_ns = 0.0  # time spent inside measured client operations
        self._segment: list | None = None  # the open operation's timing

    def call(self, op: str, fn, *args, **kwargs):
        """One timed client operation; returns its result or ``RAISED``."""
        # [segment start, its speed factor, normalised ns of closed segments]
        self._segment = segment = [0, self.gauge.factor(), 0.0]
        traced = self.tracer is not None
        with self.tracer.request(op) if traced else contextlib.nullcontext():
            segment[0] = _now()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # a failed operation; the run goes on
                self.errors.setdefault(op, f"{type(exc).__name__}: {exc}")
                result = RAISED
            elapsed = segment[2] + (_now() - segment[0]) * segment[1]
        self._segment = None
        self.client_ns += elapsed
        if result is not RAISED:
            self.samples[op].append(elapsed)
        return result

    def call_each(self, op: str, fn, items: list):
        """``fn`` on every item in one timed operation; returns the results
        or ``RAISED``.  The sample kept is the time per item: for operations
        of a few microseconds, where one timer tick or interrupt would
        otherwise decide the tail."""
        results = self.call(op, lambda: [fn(item) for item in items])
        if results is not RAISED:
            self.samples[op][-1] /= len(items)
        return results

    def _probe(self) -> None:
        """Inside a long operation: close the segment, re-time the machine."""
        segment = self._segment
        if segment is None:
            return
        now = _now()
        segment[2] += (now - segment[0]) * segment[1]
        segment[1] = self.gauge.factor()
        segment[0] = _now()

    @contextlib.contextmanager
    def probed(self, target: str, part: str):
        """Re-time the machine before every call of ``target``.

        For operations far longer than ``RECALIBRATE_NS`` (a whole-store
        ``compact``): the reference kernel runs between the calls, outside
        the measured segments, so the speed factor follows the machine
        through the operation.  Each call's own (normalised) time is kept
        as a sample of ``part``.
        """

        def make(fn):
            def probed_call(*args, **kwargs):
                self._probe()
                start = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    if self._segment is not None:
                        self.samples[part].append((_now() - start) * self._segment[1])

            return probed_call

        undo = patch(target, make)
        try:
            yield
        finally:
            undo()

    def verify(self, op: str, ok: bool) -> None:
        """Count one attempted operation, failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[op] += 1

    def setup(self, build, reps: int):
        """Run ``build()`` ``reps`` times; return (last result, median s)."""
        times, result = [], None
        for _ in range(reps):
            factor = self.gauge.factor()
            start = _now()
            result = build()
            times.append((_now() - start) * factor)
        return result, float(np.median(times)) / 1e9

    def repeat(self, op: str, reps: int, fn, *args, check) -> float:
        """``reps`` calls of one operation, each verified by ``check``.

        Returns the median time (ns) of the calls that did not raise, or 0.
        """
        before = len(self.samples[op])
        for _ in range(reps):
            result = self.call(op, fn, *args)
            self.verify(op, result is not RAISED and check(result))
        done = self.samples[op][before:]
        return float(np.median(done)) if done else 0.0

    def start(self) -> None:
        """Set-up is over: the measured phase begins (tracing starts here)."""
        if self._on_start is not None:
            self._on_start()

    def latency(self, op: str, scale: float) -> dict:
        """Percentile summary of ``op``'s samples, in units of ``scale`` ns."""
        return summarize([t / scale for t in self.samples[op]])

    def read_metrics(self) -> tuple[dict, dict]:
        """access/range p50 and p99 (in us) with their sample counts.

        p99 is the median of the p99s of ``TAIL_SEGMENTS`` consecutive
        slices of the reads (:func:`~perfbench.stats.segmented_tail`).
        Workloads issue enough reads for each slice's p99 to have ten
        samples beyond it; should failures leave fewer successful samples,
        the highest percentile the slices support is reported instead, and
        the note says which.
        """
        metrics, counts = {}, {}
        for op in ("access", "range"):
            s = self.latency(op, 1e3)
            tail_p, tail = segmented_tail([t / 1e3 for t in self.samples[op]])
            metrics[f"{op}_p50_us"] = s["p50"]
            metrics[f"{op}_p99_us"] = tail
            counts[f"{op}_p50_us"] = s["n"]
            counts[f"{op}_p99_us"] = (
                f"{s['n']} in {TAIL_SEGMENTS} slices"
                if tail_p == 99.0
                else f"{s['n']}, reported at p{tail_p}"
            )
        return metrics, counts


def _rate(nbytes: int, ns: int) -> float:
    return nbytes / MB / (ns / 1e9) if ns else 0.0


def _busy(run: Run, op: str) -> int:
    return sum(run.samples[op])


# ---------------------------------------------------------------------------
# neats_codec: the paper's library use, in memory
# ---------------------------------------------------------------------------

NEATS_DATASETS = ("IT", "US", "ECG", "BT")
# The paper's function set (linear, exponential, quadratic, radical) less
# the exponential.  NeaTSStorage builds its corrections with numpy's exp but
# access() evaluates with math.exp; the two differ in the last bit on some
# inputs, so access() returns a value one off at some positions of an
# exponential fragment (perfbench/tests/test_known_defects.py).  A workload
# must run without failing operations, so every NeaTS in the benchmark, the
# store's cold tier included, fits the three families that evaluate
# bit-identically in both paths.
NEATS_MODELS = ("linear", "quadratic", "radical")
NEATS_CHUNK = 1024  # values per compress call
NEATS_DECOMPRESS_REPS = 15
NEATS_RANGE_LEN = 128
NEATS_OPEN_REPS = 5
NEATS_SETUP_REPS = 9
NEATS_READS = 40000  # point accesses per run: P99_READS groups of 8
NEATS_RANGES = 20000  # range queries per run
# Point accesses are timed in groups of this many (each one checked):
# one access takes about 13 us, so a single interrupt would set its p99.
NEATS_ACCESS_BATCH = 8
# One cycle compresses one chunk of each dataset, about 1.2 s of NeaTS
# fitting on a 2-vCPU virtual machine, so a run lasts about --seconds.
NEATS_CYCLES_PER_SECOND = 0.8


def _neats_data(seed: int, cycles: int) -> dict[str, list[np.ndarray]]:
    return {
        name: [
            DATASETS[name].generate(NEATS_CHUNK, seed=sub_seed(seed, "neats", name, c))
            for c in range(cycles)
        ]
        for name in NEATS_DATASETS
    }


def neats_codec(run: Run) -> Result:
    """compress -> round trip -> decompress -> access -> range -> reopen.

    Four regimes: IT (smooth nonlinear), US (momentum), ECG (periodic) and
    BT (9-digit noisy low bits).  Almost all the time is NeaTS fitting in
    ``core.partition``/``core.convex``/``core.transforms``; the working set
    fits in memory and no store, WAL or hot codec is touched.
    """
    cycles = max(1, round(run.seconds * NEATS_CYCLES_PER_SECOND))
    warm = DATASETS["IT"].generate(256, seed=sub_seed(run.seed, "warm"))

    def build():
        data = _neats_data(run.seed, cycles)
        # First-call costs a library user pays once: codec registry,
        # model tables, kernel dispatch.
        repro.compress(warm, codec="neats", models=NEATS_MODELS).decompress()
        return data

    data, setup_s = run.setup(build, reps=NEATS_SETUP_REPS)
    run.start()
    rng = np.random.default_rng(sub_seed(run.seed, "neats-queries"))
    n_access = -(-NEATS_READS // (cycles * len(NEATS_DATASETS)))  # per chunk
    n_access = -(-n_access // NEATS_ACCESS_BATCH) * NEATS_ACCESS_BATCH
    n_range = -(-NEATS_RANGES // (cycles * len(NEATS_DATASETS)))
    raw_bytes = stored_bytes = 0
    decompress_ns = open_ns = 0.0  # sums of per-chunk medians
    sizes: dict[str, Counter] = {}
    for c in range(cycles):
        for name in NEATS_DATASETS:
            y = data[name][c]
            n = len(y)
            comp = run.call(
                "compress", repro.compress, y, codec="neats", models=NEATS_MODELS
            )
            run.verify("compress", comp is not RAISED)
            if comp is RAISED:
                continue
            payload = comp.to_bytes()
            raw_bytes += 8 * n
            stored_bytes += len(payload)
            sizes.setdefault(name, Counter()).update(raw=8 * n, neats=len(payload))
            decompress_ns += run.repeat(
                "decompress", NEATS_DECOMPRESS_REPS, comp.decompress,
                check=lambda out: np.array_equal(out, y),
            )
            positions = rng.integers(0, n, n_access)
            for group in positions.reshape(-1, NEATS_ACCESS_BATCH):
                got = run.call_each("access", comp.access, group.tolist())
                for i, want in enumerate(y[group].tolist()):
                    run.verify("access", got is not RAISED and got[i] == want)
            for lo in rng.integers(0, n - NEATS_RANGE_LEN + 1, n_range).tolist():
                hi = lo + NEATS_RANGE_LEN
                out = run.call("range", comp.decompress_range, lo, hi)
                run.verify("range", out is not RAISED and np.array_equal(out, y[lo:hi]))
            open_ns += run.repeat(
                "recover", NEATS_OPEN_REPS, Compressed.from_bytes, payload,
                check=lambda obj: np.array_equal(obj.decompress(), y),
            )
    compress = run.latency("compress", 1e6)
    metrics = {
        "setup_s": setup_s,
        "space_pct": 100 * stored_bytes / raw_bytes if raw_bytes else 0.0,
        "write_mb_s": _rate(raw_bytes, _busy(run, "compress")),
        "write_p50_ms": compress["p50"],
        "recover_s": open_ns / 1e9,
        "read_mb_s": _rate(raw_bytes, decompress_ns),
    }
    reads, counts = run.read_metrics()
    metrics.update(reads)
    counts.update(
        setup_s=NEATS_SETUP_REPS,
        space_pct=len(run.samples["compress"]),
        write_mb_s=compress["n"],
        write_p50_ms=compress["n"],
        recover_s=len(run.samples["recover"]),
        read_mb_s=len(run.samples["decompress"]),
    )
    table3 = _table3(data, sizes)
    extras = [
        ("compress_mb_s", metrics["write_mb_s"], "MB/s", "= write_mb_s"),
        ("decompress_mb_s", metrics["read_mb_s"], "MB/s", "= read_mb_s"),
    ]
    extras.extend(table3["rows"])
    return Result(
        metrics,
        counts,
        extras,
        facts={"table3": table3["wins"], "data": data},
        sizes={
            "datasets": list(NEATS_DATASETS),
            "neats_models": list(NEATS_MODELS),
            "chunk_values": NEATS_CHUNK,
            "chunks_per_dataset": cycles,
            "access_per_chunk": n_access,
            "access_timed_in_groups_of": NEATS_ACCESS_BATCH,
            "range_per_chunk": n_range,
            "range_len": NEATS_RANGE_LEN,
        },
    )


def _baseline_params(codec: str, name: str) -> dict:
    return {"digits": DATASETS[name].digits} if codec == "alp" else {}


TABLE3_BASELINES = ("leco", "alp", "gorilla")


def _table3(data, sizes) -> dict:
    """Table III claim: is NeaTS smaller than each baseline, per dataset?

    A result, not a gate: the rows are printed and the win counts go to
    the per-layer metrics; nothing fails when NeaTS loses.
    """
    rows, wins = [], Counter()
    for name in NEATS_DATASETS:
        if name not in sizes:
            continue
        raw = sizes[name]["raw"]
        neats_pct = 100 * sizes[name]["neats"] / raw
        for codec in TABLE3_BASELINES:
            nbytes = sum(
                len(repro.compress(y, codec=codec, **_baseline_params(codec, name)).to_bytes())
                for y in data[name]
            )
            pct = 100 * nbytes / raw
            smaller = neats_pct < pct
            wins[codec] += smaller
            rows.append(
                (
                    f"table3.{name}.neats_vs_{codec}",
                    neats_pct,
                    "%",
                    f"{codec} {pct:.2f}% -> NeaTS {'smaller' if smaller else 'NOT smaller'}",
                )
            )
    return {"rows": rows, "wins": dict(wins)}


def table3_baselines(data, seed: int) -> dict:
    """Space, speed and access latency of the Table III baselines.

    Measured on the ``neats_codec`` chunks with tracing off, for context
    next to NeaTS; returns ``{codec: {metric: value}}``.
    """
    rng = np.random.default_rng(sub_seed(seed, "baselines"))
    gauge = SpeedGauge()
    out = {}
    for codec in TABLE3_BASELINES:
        raw = stored = enc_ns = dec_ns = 0.0
        access_ns: list[float] = []
        for name in NEATS_DATASETS:
            for y in data[name]:
                factor = gauge.factor()
                start = _now()
                comp = repro.compress(y, codec=codec, **_baseline_params(codec, name))
                enc_ns += (_now() - start) * factor
                start = _now()
                out_values = comp.decompress()
                dec_ns += (_now() - start) * factor
                if not np.array_equal(out_values, y):
                    raise AssertionError(f"{codec} does not round-trip {name}")
                raw += 8 * len(y)
                stored += len(comp.to_bytes())
                for k in rng.integers(0, len(y), 200).tolist():
                    start = _now()
                    comp.access(k)
                    access_ns.append((_now() - start) * factor)
        out[codec] = {
            "space_pct": 100 * stored / raw,
            "compress_mb_s": _rate(raw, enc_ns),
            "decompress_mb_s": _rate(raw, dec_ns),
            "access_p50_us": float(np.median(access_ns)) / 1e3,
        }
    return out


# ---------------------------------------------------------------------------
# stream_ingest: the durable write path, ended by a simulated crash
# ---------------------------------------------------------------------------

STREAM_SERIES = 64
STREAM_PARTITIONS = 2
STREAM_FLUSH_EVERY = 16  # batches between fixed flush() calls
STREAM_UNFLUSHED = 16  # batches logged after the last flush, before the crash
STREAM_BATCH = (192, 321)  # per-series values per batch, seeded, [lo, hi)
# Unbounded for the live store: at the default 16 shards ingest_many loses
# acknowledged batches (see stream_ingest).  Recovered copies open at the
# default; a traced run shows their reads reload no shard.
STREAM_CACHE = None
STREAM_RECOVER_REPS = 5
STREAM_SETUP_REPS = 5
STREAM_READS = 8000  # point accesses after the crash, and as many ranges
# Short ranges mostly stay inside one 1000-value gorilla block; a range as
# long as a batch crosses two or three blocks at rates that depend on the
# seeded batch sizes, which would put p99 on the edge between modes.
STREAM_RANGE_LEN = 64
# One flush cycle (16 batches) is about 1.2 s of ingest on a 2-vCPU virtual machine.
STREAM_CYCLES_PER_SECOND = 0.8


def _generator_for(i: int) -> str:
    """Round-robin over the 16 generators."""
    names = dataset_names()
    return names[i % len(names)]


def stream_ingest(run: Run) -> Result:
    """ingest_many batches + fixed flushes, crash copy, recovery, verify.

    ``PartitionedSeriesDB(partitions=2)`` at its defaults (group commit,
    ``seal_threshold=4096``) holding 64 series, 32 per partition, with an
    unbounded shard cache.  At the default 16-shard cache an ``ingest_many``
    touching more series of a partition than the cache holds loses
    acknowledged batches (perfbench/tests/test_known_defects.py), and a
    workload must run without failing operations.  The recovered copies
    open at the default cache.  NeaTS never runs.
    """
    cycles = max(1, round(run.seconds * STREAM_CYCLES_PER_SECOND))
    batches = cycles * STREAM_FLUSH_EVERY + STREAM_UNFLUSHED
    rng = np.random.default_rng(sub_seed(run.seed, "stream"))
    sids = [f"s{i:02d}" for i in range(STREAM_SERIES)]
    size = dict(zip(sids, rng.integers(*STREAM_BATCH, STREAM_SERIES).tolist()))
    gens = {sid: _generator_for(i) for i, sid in enumerate(sids)}
    live = run.workdir / "live"

    def build():
        shutil.rmtree(live, ignore_errors=True)
        data = {
            sid: DATASETS[gens[sid]].generate(
                batches * size[sid], seed=sub_seed(run.seed, "stream", sid)
            )
            for sid in sids
        }
        db = repro.PartitionedSeriesDB(
            live, partitions=STREAM_PARTITIONS, cache_capacity=STREAM_CACHE
        )
        return data, db

    (data, db), setup_s = run.setup(build, reps=STREAM_SETUP_REPS)
    run.start()

    pos = dict.fromkeys(sids, 0)
    acked: dict[str, list[tuple[int, int]]] = {sid: [] for sid in sids}
    write_ns = 0
    for b in range(batches):
        batch = {sid: data[sid][pos[sid] : pos[sid] + size[sid]] for sid in sids}
        before = run.client_ns
        counts = run.call("ingest", db.ingest_many, batch, workers=1)
        # Acknowledged: the call returned.  Its answer is the new counts.
        run.verify(
            "ingest",
            counts is not RAISED
            and all(counts.get(sid) == pos[sid] + size[sid] for sid in sids),
        )
        if counts is not RAISED:
            for sid in sids:
                acked[sid].append((pos[sid], pos[sid] + size[sid]))
                pos[sid] += size[sid]
        if (b + 1) % STREAM_FLUSH_EVERY == 0 and b < cycles * STREAM_FLUSH_EVERY:
            run.verify("flush", run.call("flush", db.flush) is not RAISED)
        write_ns += run.client_ns - before
    user_bytes = 8 * sum(pos.values())
    stored = disk_bytes(live)

    # Simulated crash: copy the directory under the live handle, which is
    # then dropped without close() (close would flush).
    crash = run.workdir / "crash"
    shutil.copytree(live, crash)
    del db
    shutil.rmtree(live, ignore_errors=True)
    # Every recovery replays the same crash image and reads one value of
    # every series, as in compact_query.  Each recovered copy verifies its
    # own share of the series and serves a share of the reads, so the read
    # metrics span the whole post-crash phase.
    failed_batches = 0
    first = [int(data[sid][0]) for sid in sids]
    for r in range(STREAM_RECOVER_REPS):
        target = run.workdir / f"recovered{r}"
        shutil.copytree(crash, target)
        opened = run.call("recover", _open_serving, target, sids)
        run.verify("recover", opened is not RAISED and opened[1] == first)
        rdb = RAISED if opened is RAISED else opened[0]
        if rdb is not RAISED:  # every shard is loaded; no block decoded yet
            _reads_after_recovery(
                run, rdb, data, acked, rng, STREAM_READS // STREAM_RECOVER_REPS
            )
        share = {sid: acked[sid] for sid in sids[r::STREAM_RECOVER_REPS]}
        failed_batches += verify_recovered(run, rdb, data, share)
        del rdb  # dropped, not closed: close() would flush the recovery
        shutil.rmtree(target, ignore_errors=True)
    ingest = run.latency("ingest", 1e6)
    flush = run.latency("flush", 1e6)
    metrics = {
        "setup_s": setup_s,
        "space_pct": 100 * stored / user_bytes if user_bytes else 0.0,
        "write_mb_s": _rate(user_bytes, write_ns),
        "write_p50_ms": ingest["p50"],
        "recover_s": float(np.median(run.samples["recover"])) / 1e9
        if run.samples["recover"]
        else 0.0,
        "read_mb_s": _rate(user_bytes, _busy(run, "decompress")),
    }
    reads, counts = run.read_metrics()
    metrics.update(reads)
    counts.update(
        setup_s=STREAM_SETUP_REPS,
        space_pct=1,
        write_mb_s=ingest["n"],
        write_p50_ms=ingest["n"],
        recover_s=len(run.samples["recover"]),
        read_mb_s=len(run.samples["decompress"]),
    )
    extras = [
        ("ingest_mb_s", metrics["write_mb_s"], "MB/s", "= write_mb_s"),
        ("ingest_p50_ms", ingest["p50"], "ms", f"= write_p50_ms, n={ingest['n']}"),
        (
            "ingest_p99_ms",
            ingest["tail"],
            "ms",
            f"reported at p{ingest['tail_p']} (>=10 samples beyond), n={ingest['n']}",
        ),
        ("flush_p50_ms", flush["p50"], "ms", f"n={flush['n']}"),
        (
            "lost_series_batches",
            failed_batches,
            "count",
            f"of {sum(len(v) for v in acked.values())} acknowledged",
        ),
    ]
    return Result(
        metrics,
        counts,
        extras,
        facts={"user_bytes": user_bytes},
        sizes={
            "series": STREAM_SERIES,
            "partitions": STREAM_PARTITIONS,
            "batches": batches,
            "batch_values": list(STREAM_BATCH),
            "flush_policy": f"flush() every {STREAM_FLUSH_EVERY} batches, no compaction; "
            f"crash {STREAM_UNFLUSHED} batches after the last flush",
            "cache_capacity": STREAM_CACHE,
            "recovered_cache_capacity": DEFAULT_CACHE_CAPACITY,
            "seal_threshold": 4096,
            "group_commit": True,
        },
    )


def verify_recovered(run: Run, rdb, data, acked) -> int:
    """Check every acknowledged series-batch bit-exact on a recovered store.

    Each series is read once with ``decompress`` (timed as a read); every
    acknowledged ``(lo, hi)`` batch of it then counts as one operation,
    failed when the recovered values at ``[lo, hi)`` differ from what was
    ingested there or are missing.  Returns the number of failed batches.
    """
    failed = 0
    for sid, spans in acked.items():
        values = rdb if rdb is RAISED else run.call("decompress", rdb.decompress, sid)
        for lo, hi in spans:
            ok = (
                values is not RAISED
                and len(values) >= hi
                and np.array_equal(values[lo:hi], data[sid][lo:hi])
            )
            run.verify("batch", ok)
            failed += not ok
    return failed


def _reads_after_recovery(run: Run, rdb, data, acked, rng, n_reads: int) -> None:
    """Point reads and range reads, alternating, each verified.

    Positions are uniform over each series' acknowledged values; a range
    is ``STREAM_RANGE_LEN`` values.
    """
    sids = [sid for sid in acked if acked[sid]]
    for j, i in enumerate(rng.integers(0, len(sids), 2 * n_reads).tolist()):
        sid = sids[i]
        n = acked[sid][-1][1]
        if j % 2 == 0:
            k = int(rng.integers(0, n))
            got = run.call("access", rdb.access, sid, k)
            run.verify("access", got is not RAISED and got == int(data[sid][k]))
        else:
            lo = int(rng.integers(0, n - STREAM_RANGE_LEN + 1))
            hi = lo + STREAM_RANGE_LEN
            out = run.call("range", rdb.range, sid, lo, hi)
            run.verify("range", out is not RAISED and np.array_equal(out, data[sid][lo:hi]))


# ---------------------------------------------------------------------------
# compact_query: history maintenance, then a skewed read mix
# ---------------------------------------------------------------------------

CQ_SERIES = 48
CQ_PARTITIONS = 2
CQ_SEAL = 1024
# Every series has the same shape, so the tier a read lands in does not
# depend on which series the seed makes popular: set-up writes one sealed
# block plus 256 buffered values, compaction moves the block to the cold
# tier, and the tail (8 ingest() calls of 160) seals one hot block on its
# fifth call and leaves 512 values in the write buffer.  Most tail calls
# are plain appends (no seal, shard already cached), so their median is
# not on the edge between plain, sealing and shard-loading calls.
CQ_HEAD = CQ_SEAL + 256
CQ_TAIL_CALLS = 8
CQ_TAIL = 160
CQ_RANGE_SHARE = 0.10
CQ_RECENT_SHARE = 0.80
# Mean distance from the end of a "recent" position: about a third of the
# point reads land in the write buffer, a third in the hot block and the
# rest in the cold run, so the median sits inside the hot-tier mode rather
# than on the edge between two modes.
CQ_RECENT_SCALE = 1024
CQ_RANGE_LEN = 64
CQ_ZIPF = 1.1
CQ_ROUNDS = 8  # the read phase's rounds
CQ_SETUP_REPS = 5
CQ_REOPEN_REPS = 2  # recoveries per round
CQ_READ_PASSES = 8  # full reads of every series, over the rounds


def compact_query(run: Run) -> Result:
    """reopen -> compact -> hot tail -> skewed query mix -> full reads.

    Setup ingests 48 series over 2 partitions (``seal_threshold=1024``,
    ``cache_capacity=None`` so the batch-eviction defect cannot touch the
    setup).  The timed phase reopens at the default 16-shard cache:
    24 series per partition exceed it, so reads cross store dispatch,
    the shard LRU, ``RunIndex``, cold NeaTS access and hot gorilla decode.
    """
    rng = np.random.default_rng(sub_seed(run.seed, "compact"))
    sids = [f"q{i:02d}" for i in range(CQ_SERIES)]
    total = CQ_HEAD + CQ_TAIL_CALLS * CQ_TAIL
    root = run.workdir / "cq"

    def build():
        shutil.rmtree(root, ignore_errors=True)
        data = {
            sid: DATASETS[_generator_for(i)].generate(
                total, seed=sub_seed(run.seed, "compact", sid)
            )
            for i, sid in enumerate(sids)
        }
        db = repro.PartitionedSeriesDB(
            root,
            partitions=CQ_PARTITIONS,
            seal_threshold=CQ_SEAL,
            cold_params={"models": list(NEATS_MODELS)},
            cache_capacity=None,
        )
        db.ingest_many({sid: data[sid][:CQ_HEAD] for sid in sids}, workers=1)
        db.flush()
        db.close()
        return data

    data, setup_s = run.setup(build, reps=CQ_SETUP_REPS)
    run.start()

    db = run.call("open", repro.PartitionedSeriesDB.open, root)
    run.verify("open", db is not RAISED)
    length = dict.fromkeys(sids, CQ_HEAD)
    stored = user_bytes = 0
    read_ns: dict[str, list[float]] = defaultdict(list)  # per series
    read_bytes: dict[str, int] = {}  # one full read of the series
    if db is not RAISED:
        with run.probed("repro.core.tiered:TieredStore.consolidate", "compact_one"):
            compacted = run.call("compact", db.compact, hot_threshold=0, workers=1)
        run.verify(
            "compact", compacted is not RAISED and sorted(compacted) == sorted(sids)
        )
        stored = disk_bytes(root)
        user_bytes = 8 * sum(length.values())
        for _ in range(CQ_TAIL_CALLS):
            for sid in sids:
                lo = length[sid]
                hi = lo + CQ_TAIL
                count = run.call("ingest", db.ingest, sid, data[sid][lo:hi])
                run.verify("ingest", count is not RAISED and count == hi)
                length[sid] = hi
        # Crash image: the tail is only in the group WAL until the flush.
        crash = run.workdir / "cq-crash"
        shutil.copytree(root, crash)
        run.verify("flush", run.call("flush", db.flush) is not RAISED)
        # The reads run in rounds, so every kind of read is spread over the
        # phase: recoveries of a copy of the crash image (WAL replay), a
        # share of the full reads on the recovered copy, then a share of the
        # query mix on the live store.
        ranks = rng.permutation(len(sids))  # series popularity, fixed per run
        weights = 1.0 / (ranks + 1.0) ** CQ_ZIPF
        for r in range(CQ_ROUNDS):
            copy = run.workdir / "cq-copy"
            recovered = _recover(run, crash, copy, data)
            if recovered is not RAISED:
                for sid in sids[r::CQ_ROUNDS] * CQ_READ_PASSES:
                    out = run.call("decompress", recovered.decompress, sid)
                    run.verify(
                        "decompress",
                        out is not RAISED
                        and np.array_equal(out, data[sid][: length[sid]]),
                    )
                    if out is not RAISED:
                        read_ns[sid].append(run.samples["decompress"][-1])
                        read_bytes[sid] = 8 * len(out)
                recovered.close()
            shutil.rmtree(copy)
            _query_mix(run, db, data, length, rng, _n_queries(run) // CQ_ROUNDS, weights)
        db.close()
    ingest = run.latency("ingest", 1e6)
    compact_one = run.latency("compact_one", 1e6)
    metrics = {
        "setup_s": setup_s,
        "space_pct": 100 * stored / user_bytes if user_bytes else 0.0,
        "write_mb_s": _rate(8 * CQ_SEAL * len(sids), _busy(run, "compact")),
        "write_p50_ms": compact_one["p50"],
        "recover_s": float(np.median(run.samples["recover"])) / 1e9
        if run.samples["recover"]
        else 0.0,
        # One full read of every series over the sum of each series' median
        # read time: a slow moment moves one sample of a series, not its
        # median, and the sum over 48 series smooths out which series the
        # seed made slow to decode.
        "read_mb_s": _rate(
            sum(read_bytes.values()),
            sum(float(np.median(read_ns[sid])) for sid in read_bytes),
        ),
    }
    reads, counts = run.read_metrics()
    metrics.update(reads)
    counts.update(
        setup_s=CQ_SETUP_REPS,
        space_pct=1,
        write_mb_s=len(run.samples["compact"]),
        write_p50_ms=compact_one["n"],
        recover_s=len(run.samples["recover"]),
        read_mb_s=len(run.samples["decompress"]),
    )
    extras = [
        ("compact_mb_s", metrics["write_mb_s"], "MB/s", "= write_mb_s"),
        ("compact_series_p50_ms", compact_one["p50"], "ms", f"= write_p50_ms, n={compact_one['n']}"),
        ("tail_ingest_p50_ms", ingest["p50"], "ms", f"n={ingest['n']}"),
    ]
    return Result(
        metrics,
        counts,
        extras,
        facts={"user_bytes": 8 * CQ_TAIL_CALLS * CQ_TAIL * len(sids)},
        sizes={
            "series": CQ_SERIES,
            "partitions": CQ_PARTITIONS,
            "seal_threshold": CQ_SEAL,
            "cold_models": list(NEATS_MODELS),
            "setup_cache_capacity": None,
            "cache_capacity": DEFAULT_CACHE_CAPACITY,
            "compacted_values": CQ_SEAL * CQ_SERIES,
            "tail": f"{CQ_TAIL_CALLS} ingest() calls of {CQ_TAIL} values per series, "
            "then flush()",
            "queries": _n_queries(run),
            "query_mix": f"Zipf({CQ_ZIPF}) series, {CQ_RECENT_SHARE:.0%} recent positions, "
            f"{CQ_RANGE_SHARE:.0%} range of {CQ_RANGE_LEN}",
        },
    )


def _open_serving(root: Path, sids):
    """Reopen the store and read the first value of every series.

    Opening replays the WAL; shards the WAL does not touch load lazily on
    first use, so "recovered" means every series can answer again.
    """
    db = repro.PartitionedSeriesDB.open(root)
    return db, [db.access(sid, 0) for sid in sids]


def _recover(run: Run, crash: Path, root: Path, data):
    """Recover a fresh copy of ``crash`` at ``root`` ``CQ_REOPEN_REPS`` times.

    Each recovery replays the same log (closing a recovered handle flushes
    it, so a reopened copy would have nothing to replay) and is verified;
    every handle but the last is closed again.  Returns the last handle.
    """
    want = [int(values[0]) for values in data.values()]
    db = RAISED
    for _ in range(CQ_REOPEN_REPS):
        if db is not RAISED:
            db.close()
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(crash, root)
        opened = run.call("recover", _open_serving, root, list(data))
        run.verify("recover", opened is not RAISED and opened[1] == want)
        db = RAISED if opened is RAISED else opened[0]
    return db


def _n_queries(run: Run) -> int:
    # Ranges are drawn at random, CQ_RANGE_SHARE of the queries: 20% over
    # the expected count keeps them above P99_READS.
    return max(int(1.2 * P99_READS / CQ_RANGE_SHARE), 2000 * run.seconds)


def _query_mix(run: Run, db, data, length, rng, n_queries: int, weights) -> None:
    """Zipf-skewed series, recent-biased positions, 10% range queries."""
    sids = list(length)
    picks = rng.choice(len(sids), size=n_queries, p=weights / weights.sum())
    for i in picks.tolist():
        sid = sids[i]
        n = length[sid]
        if rng.random() < CQ_RECENT_SHARE:
            k = n - 1 - min(n - 1, int(rng.exponential(CQ_RECENT_SCALE)))
        else:
            k = int(rng.integers(0, n))
        if rng.random() < CQ_RANGE_SHARE:
            lo = min(k, n - CQ_RANGE_LEN)
            hi = lo + CQ_RANGE_LEN
            out = run.call("range", db.range, sid, lo, hi)
            run.verify("range", out is not RAISED and np.array_equal(out, data[sid][lo:hi]))
        else:
            got = run.call("access", db.access, sid, k)
            run.verify("access", got is not RAISED and got == int(data[sid][k]))


WORKLOADS = {
    "neats_codec": neats_codec,
    "stream_ingest": stream_ingest,
    "compact_query": compact_query,
}
