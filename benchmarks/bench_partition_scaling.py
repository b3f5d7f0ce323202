"""Partitioned-store ingest scaling: partitions, throughput and fsyncs.

Measures the partitioned façade's two throughput claims:

* **fan-out** — ``ingest_many`` through a ``PartitionedSeriesDB`` at
  1/2/4/8 partitions, fan-out width matching the partition count.  With
  >= 4 schedulable cores, 4 partitions must beat 1 by >= 1.5x (the pytest
  speedup check skips itself on smaller boxes — a process pool cannot
  beat serial on a single core — and the payload records the claim as
  ``"unproven"`` when the box has fewer than 4 cpus);
* **group commit** — each partition's group log makes one steady-state
  batch cost one fsync per *touched partition*, measured by counting real
  ``os.fsync`` calls.

The tracked artefact (``BENCH_partition_ingest.json`` at the repo root)
is emitted by ``repro bench`` / :func:`repro.bench.runner.run_bench`,
which shares this workload; this script is the standalone view:

    PYTHONPATH=src python benchmarks/bench_partition_scaling.py
    PYTHONPATH=src python benchmarks/bench_partition_scaling.py --smoke

or through pytest (explicit path; bench_* files are not swept by tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/bench_partition_scaling.py -v
"""

import argparse
import json

import pytest

from repro.bench.runner import bench_partition_ingest
from repro.store import default_workers

FULL_N = 800_000
SMOKE_N = 24_000


def run(n: int, repeats: int = 1, log=None) -> dict:
    return bench_partition_ingest(n, repeats, log=log)


# -- pytest entry points -------------------------------------------------------


@pytest.fixture(scope="module")
def payload():
    return run(SMOKE_N)


def test_every_config_is_measured(payload):
    assert set(payload["configs"]) == {"p1", "p2", "p4", "p8"}
    for stats in payload["configs"].values():
        assert stats["ingest_seconds"] > 0
        assert stats["values_per_second"] > 0


def test_group_log_coalesces_fsyncs(payload):
    """The durability claim, deterministic on any box: at most one fsync
    per touched partition, however many series the batch holds."""
    for partitions in (1, 2, 4, 8):
        assert payload["configs"][f"p{partitions}"]["fsyncs_per_batch"] <= partitions
    assert payload["configs"]["p1"]["fsyncs_per_batch"] == 1


def test_speedup_verdict_matches_the_box(payload):
    """Fewer than 4 cpus cannot show the fan-out claim: it is unproven."""
    if payload["meta"]["cpus"] < 4:
        assert payload["fanout_speedup"] == "unproven"
    else:
        assert payload["fanout_speedup"] in ("passed", "failed")


@pytest.mark.skipif(default_workers() < 4,
                    reason="fan-out speedup needs >= 4 schedulable cores")
def test_four_partitions_beat_one_full_scale():
    """The acceptance bar: 4-way fan-out >= 1.5x one partition."""
    payload = run(FULL_N)
    speedup = payload["configs"]["p4"]["speedup_vs_1_partition"]
    assert speedup >= 1.5, f"4 partitions only {speedup}x vs 1"


# -- script entry point --------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=None,
                        help="total values across the fleet")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="small series for CI smoke")
    args = parser.parse_args()
    n = args.n or (SMOKE_N if args.smoke else FULL_N)
    print(f"fleet: 8 series, {n:,} values total, "
          f"cores available={default_workers()}")
    payload = run(n, repeats=args.repeats, log=print)
    print(json.dumps(payload["configs"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
