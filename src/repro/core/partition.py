"""Algorithm 1: space-optimal partitioning of a time series.

Given a set ``F`` of function kinds and a set ``E`` of error bounds, the
partitioner builds (implicitly) the fragment DAG of the paper — one node per
data point plus a sink, one edge ``(i, j)`` per ε-approximable fragment
``T[i, j-1]`` together with all its prefix and suffix edges — and finds the
shortest path from node 1 to node ``n+1`` under the bit-cost weight

    ``w(i, j) = (j - i) * ceil(log2(2ε + 1)) + κ_f``

(the corrections plus the function storage), which is exactly the size of the
NeaTS encoding of that fragment.  Edges are enumerated *on the fly*: for every
``(f, ε)`` pair we keep only the single fragment overlapping the node being
relaxed, as in the paper, which brings the memory down to O(n + |F||E|) and
the time to O(|F| |E| n).

Relaxing an edge needs only its endpoints, so opening a fragment computes
just its end (one :meth:`~repro.core.convex.RangeLineFitter.extend` run for
the two-parameter models).  Most opened fragments are never on the shortest
path: each node remembers the start of the fragment its best edge lies in,
and after the backward walk the parameters are fitted once per fragment on
the path, from that start.  The fitter is deterministic, so these are the
same floats as fitting every fragment when it is opened.

The same routine with ``E = {ε}`` and a weight of ``κ_f`` alone yields the
lossy partitioner of NeaTS-L (§III-B, "Partitioning for lossy compression").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Model, get_model, make_approximation
from .transforms import PairTransform, precompute_transform

__all__ = [
    "Fragment",
    "PartitionResult",
    "correction_bits",
    "partition",
    "partition_lossy",
]

#: bits charged per stored function parameter (float64)
PARAM_BITS = 64
#: estimated per-fragment metadata bits: S/B/O/K entries plus their share of
#: the rank/select directories (measured on the actual layout, see DESIGN.md)
FRAGMENT_OVERHEAD_BITS = 96


@dataclass(frozen=True)
class Fragment:
    """One fragment of the final partition: ``[start, end)`` 0-based."""

    start: int
    end: int
    model_name: str
    eps: float
    params: tuple[float, ...]

    @property
    def length(self) -> int:
        """Number of data points covered."""
        return self.end - self.start


@dataclass(frozen=True)
class PartitionResult:
    """The output of Algorithm 1 plus the optimal objective value."""

    fragments: list[Fragment]
    cost_bits: float


def correction_bits(eps: float) -> int:
    """``ceil(log2(2ε + 1))`` — bits per correction for error bound ε."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    return math.ceil(math.log2(2 * eps + 1)) if eps > 0 else 0


def _model_cost_bits(model: Model) -> int:
    """κ_f: storage of the parameters plus per-fragment metadata."""
    return model.n_params * PARAM_BITS + FRAGMENT_OVERHEAD_BITS


def partition(
    z: np.ndarray,
    models: list[Model | str],
    eps_set: list[float],
    lossy: bool = False,
) -> PartitionResult:
    """Run Algorithm 1 on the shifted values ``z``.

    Parameters
    ----------
    z:
        Shifted positive values (see :mod:`repro.core.models` conventions).
    models:
        The set ``F`` of function kinds.
    eps_set:
        The set ``E`` of error bounds.
    lossy:
        When true, corrections are dropped from the weight (NeaTS-L mode):
        the objective counts only the function parameters.

    Returns
    -------
    :class:`PartitionResult`
        The fragments of the optimal partition, in order, and the achieved
        total bit cost.
    """
    n = len(z)
    if n == 0:
        return PartitionResult([], 0.0)
    resolved = [get_model(m) if isinstance(m, str) else m for m in models]
    if not resolved:
        raise ValueError("need at least one model kind")
    if not eps_set:
        raise ValueError("need at least one error bound")

    pairs: list[tuple[Model, float]] = []
    weights: list[tuple[int, int]] = []  # (correction bits, κ_f) per pair
    cached: list[PairTransform | None] = []
    for model in resolved:
        kappa = _model_cost_bits(model)
        for eps in eps_set:
            pairs.append((model, eps))
            weights.append((0 if lossy else correction_bits(eps), kappa))
            cached.append(precompute_transform(model, eps, z))

    INF = float("inf")
    distance = [INF] * (n + 1)
    distance[0] = 0.0
    # previous[v] = (u, pair_index, tile_start): edge [u, v) lies inside the
    # fragment that pair opened at tile_start.
    previous: list[tuple[int, int, int] | None] = [None] * (n + 1)
    # The fragment each pair has open is [tile_start, tile_end); an end <= k
    # means none covers k.  Only ends are computed here: parameters are
    # fitted after the walk, for the fragments on the shortest path.
    tile_start = [0] * len(pairs)
    tile_end = [0] * len(pairs)

    for k in range(n):
        dk = distance[k]
        for idx, (cbits, kappa) in enumerate(weights):
            if tile_end[idx] <= k:
                # A new edge must be opened at k (line 10 of Algorithm 1).
                tile_start[idx] = k
                pre = cached[idx]
                if pre is not None:
                    tile_end[idx] = pre.fragment_end(k)
                else:
                    model, eps = pairs[idx]
                    tile_end[idx] = make_approximation(z, k, model, eps).end
            else:
                # Relax the prefix edge (tile_start, k) — lines 12-15.
                i = tile_start[idx]
                w = (k - i) * cbits + kappa
                cand = distance[i] + w
                if cand < dk:
                    dk = cand
                    previous[k] = (i, idx, i)
        distance[k] = dk
        # Relax suffix edges (k, tile_end) — lines 16-20.
        for idx, (cbits, kappa) in enumerate(weights):
            j = tile_end[idx]
            w = (j - k) * cbits + kappa
            cand = dk + w
            if cand < distance[j]:
                distance[j] = cand
                previous[j] = (k, idx, tile_start[idx])

    # Read the shortest path backwards (lines 21-26), fitting each fragment's
    # parameters from the start its pair opened it at.  A prefix or suffix
    # edge reuses the parameters of its enclosing fragment.
    fragments: list[Fragment] = []
    v = n
    while v > 0:
        entry = previous[v]
        if entry is None:  # pragma: no cover - the DAG is always connected
            raise RuntimeError(f"no path reaches node {v}")
        u, idx, start = entry
        model, eps = pairs[idx]
        pre = cached[idx]
        if pre is not None:
            fit = pre.longest_fragment(start)
        else:
            fit = make_approximation(z, start, model, eps)
        fragments.append(Fragment(u, v, model.name, eps, fit.params))
        v = u
    fragments.reverse()
    return PartitionResult(fragments, distance[n])


def partition_lossy(
    z: np.ndarray, models: list[Model | str], eps: float
) -> PartitionResult:
    """The lossy variant: a single ε, weight = parameter storage only.

    Runs in O(|F| n) and minimises the space of the functions alone, since
    the corrections are discarded (§III-B).
    """
    return partition(z, models, [eps], lossy=True)
