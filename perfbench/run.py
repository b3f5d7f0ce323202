#!/usr/bin/env python3
"""Outside-in benchmark of NeaTS and its store.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload neats_codec --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1           # every workload
    python3 perfbench/run.py --workload compact_query --trace 1

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` first repeats that untraced run, then runs the workload again
with timing wrappers around each layer's public functions, and reports the
per-layer metrics plus the tracing overhead (traced vs untraced client
time).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the human report, which names every metric with its unit and sample
count.  Results (with provenance) and traced spans are written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

FAN_OUT_NOTE = (
    "process fan-out (workers>1) is not measured by design: every store call "
    "runs with workers=1, so any parallel-scaling claim stays unproven until "
    "a machine with enough cores measures it"
)

TIMING_NOTE = (
    "every duration is speed-normalised: scaled by 0.8 ms / t_ref, where "
    "t_ref is the median of the 5 latest timings of the benchmark's fixed "
    "reference kernel, re-timed every 50 ms; machine_speed lists the t_ref seen"
)


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no repro package under {src}; run this from a "
            "checkout of the repository\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))


def pin_to_one_cpu() -> None:
    """Keep the client on the cpu it started on.

    The speed reference (see ``workloads.SpeedGauge``) and the measured
    work then always run on the same cpu; the cpus of a shared virtual
    machine drift in speed independently of each other.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        pass  # not Linux: run unpinned


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def provenance(workload: str, seed: int, seconds: int, trace: int, sizes: dict) -> dict:
    import numpy

    import repro
    from repro import kernels

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "kernel_backend": kernels.get_backend(),
        "numba_available": kernels.numba_available(),
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "client": "closed loop, one client, workers=1",
        "fan_out": FAN_OUT_NOTE,
        "sizes": sizes,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run_workload(name: str, seed: int, seconds: int, trace: int, cpus: int) -> dict:
    """Run one workload; print the report and return the result line."""
    from perfbench import layers
    from perfbench.tracing import Tracer
    from perfbench.workloads import (
        E2E_METRICS, REF_NS, REPORT_ONLY_METRICS, WORKLOADS, Run, table3_baselines,
    )

    workdir = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if not trace:
            run = Run(seed, seconds, workdir)
            result = WORKLOADS[name](run)
            units = {m: u for m, u, _ in E2E_METRICS}
            metrics = {m: result.metrics[m] for m, _, _ in E2E_METRICS}
            counts = result.samples
        else:
            untraced = Run(seed, seconds, workdir / "untraced")
            WORKLOADS[name](untraced)
            tracer = Tracer()
            run = Run(
                seed, seconds, workdir / "traced", tracer=tracer,
                on_start=lambda: layers.install(tracer),
            )
            try:
                result = WORKLOADS[name](run)
            finally:
                tracer.restore()
            facts = dict(result.facts)
            facts["overhead_pct"] = 100 * (run.client_ns / untraced.client_ns - 1)
            if name == "neats_codec":
                facts["baselines"] = table3_baselines(facts["data"], seed)
            speed = REF_NS / statistics.median(run.gauge.readings)
            metrics = layers.per_layer(tracer, facts, speed)
            units = {m: u for m, u, _ in layers.PER_LAYER_METRICS}
            counts = {}
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(name, seed, seconds, trace, result.sizes)
    prov["schedulable_cpus"] = cpus
    prov["pinned_to_cpus"] = sorted(os.sched_getaffinity(0))
    prov["timing"] = TIMING_NOTE
    prov["machine_speed"] = run.gauge.summary()
    mode = "traced" if trace else "untraced"
    print(f"== {name} (seed {seed}, {seconds} s, {mode}) ==")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for metric, value in metrics.items():
        n = counts.get(metric)
        note = f"n={n}" if n is not None else ""
        print(f"  {metric:<48} {_fmt(value):>14} {units[metric]:<9} {note}")
    if not trace:
        for metric, unit, note in REPORT_ONLY_METRICS:
            n = counts.get(metric)
            value = result.metrics[metric]
            print(f"  {metric:<48} {_fmt(value):>14} {unit:<9} n={n}; {note}")
        for metric, value, unit, note in result.extras:
            print(f"  {metric:<48} {_fmt(value):>14} {unit:<9} {note}")
    pct = 100 * run.failed / run.attempted if run.attempted else 0.0
    by_op = ", ".join(f"{op}={k}" for op, k in sorted(run.failures.items())) or "none"
    print(
        f"  ops attempted={run.attempted} failed={run.failed} "
        f"ops_failed_pct={pct:.4g}% (failed by op: {by_op})"
    )
    for op, err in sorted(run.errors.items()):
        print(f"  first error in {op}: {err}")

    line = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m: {"value": float(v) if v is not None else 0.0, "unit": units[m]}
            for m, v in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    record = dict(
        line,
        provenance=prov,
        samples=counts,
        ops_failed_pct=pct,
        failed_by_op=dict(run.failures),
        errors=run.errors,
        extras=[list(e) for e in result.extras],
        report_only={m: result.metrics[m] for m, _, _ in REPORT_ONLY_METRICS}
        if not trace
        else {},
    )
    with open(OUT / f"result-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=2, default=str)
    return line


def main(argv=None) -> int:
    _load_program()
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    cpus = len(os.sched_getaffinity(0))
    pin_to_one_cpu()
    for name in names:
        line = run_workload(name, args.seed, args.seconds, args.trace, cpus)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
