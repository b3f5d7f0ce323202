"""Percentiles by the benchmark's reporting rule.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count.  With
``n`` samples and nearest-rank percentiles, percentile ``p`` sits at rank
``ceil(p * n / 100)``; requiring ``n - rank >= 10`` caps ``p`` at
``100 * (n - 10) / n``.

Read tails are taken per segment (:func:`segmented_tail`): a burst of
machine noise a few milliseconds long slows a run of consecutive
operations, which would otherwise decide a narrow distribution's p99.
"""

from __future__ import annotations

import math

__all__ = [
    "MIN_BEYOND",
    "TAIL_SEGMENTS",
    "percentile",
    "tail_percentile",
    "summarize",
    "segmented_tail",
]

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10
#: consecutive slices a read tail is taken over (see segmented_tail)
TAIL_SEGMENTS = 5


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    # The epsilon keeps float noise from bumping an exact rank up by one.
    rank = max(1, math.ceil(p * len(ordered) / 100 - 1e-9))
    return float(ordered[rank - 1])


def tail_percentile(n: int, wanted: float = 99.0) -> float | None:
    """The highest percentile <= ``wanted`` with >= 10 samples beyond it.

    Returned to one decimal (rounded down); ``None`` when ``n`` is too
    small for any percentile to have ten samples beyond it.
    """
    if n <= MIN_BEYOND:
        return None
    cap = math.floor(1000 * (n - MIN_BEYOND) / n) / 10
    return min(float(wanted), cap)


def summarize(samples) -> dict:
    """``{"n", "p50", "tail_p", "tail"}`` for a list of timings.

    ``tail`` is the value at ``tail_p`` (see :func:`tail_percentile`), or
    ``None`` with too few samples.  An empty list gives ``n = 0`` and
    ``None`` values.
    """
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    tail_p = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(samples, 50),
        "tail_p": tail_p,
        "tail": percentile(samples, tail_p) if tail_p is not None else None,
    }


def segmented_tail(samples, segments: int = TAIL_SEGMENTS) -> tuple:
    """``(tail_p, tail)``: the median over ``segments`` consecutive slices.

    ``samples`` are in the order the operations ran.  They are cut into
    ``segments`` slices of (nearly) equal size; ``tail_p`` is the tail
    percentile the smallest slice supports (:func:`tail_percentile`), and
    ``tail`` the median of the slices' values at it.  A burst of slow
    operations then sets the tail of at most the slices it falls in.
    With too few samples for that, it is the plain tail of all samples.
    """
    n = len(samples)
    tail_p = tail_percentile(n // segments) if segments > 1 else None
    if tail_p is None:
        whole = summarize(samples)
        return whole["tail_p"], whole["tail"]
    bounds = [n * i // segments for i in range(segments + 1)]
    tails = sorted(
        percentile(samples[lo:hi], tail_p) for lo, hi in zip(bounds, bounds[1:])
    )
    mid = segments // 2
    tail = tails[mid] if segments % 2 else (tails[mid - 1] + tails[mid]) / 2
    return tail_p, float(tail)
