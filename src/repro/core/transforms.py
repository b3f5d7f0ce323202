"""Precomputed Theorem-1 transforms for the two-parameter models.

For the two-parameter models every transform is a pure function of ``x``
(known upfront) and ``z ± ε``, so the ``(t, lo, hi)`` triples of one
``(f, ε)`` pair are computed once, with numpy, for the whole series.
Algorithm 1 then opens a fragment at ``k`` with a single
:meth:`~repro.core.convex.RangeLineFitter.extend` run over the cached lists
(:meth:`PairTransform.fragment_end`): one interpreter loop per fragment, no
per-point ``model.transform`` call, and no line or parameters, since the
shortest path keeps only a few of the fragments it opens.  The parameters
of the kept ones come from :meth:`PairTransform.longest_fragment`, which
replays the same run; the fitter is deterministic, so they are the floats
the run would have produced.

Anchored (three-parameter) models depend on the fragment's first point and
cannot be precomputed; they keep the scalar path of ``make_approximation``.
"""

from __future__ import annotations

import numpy as np

from .convex import RangeLineFitter
from .models import FragmentFit, Model

__all__ = ["PairTransform", "precompute_transform"]


class PairTransform:
    """Precomputed ``(t, lo, hi)`` arrays for one ``(model, ε)`` pair."""

    __slots__ = ("model", "eps", "t", "lo", "hi", "n")

    def __init__(self, model: Model, eps: float, t, lo, hi) -> None:
        self.model = model
        self.eps = eps
        self.t = t  # python lists: fastest scalar indexing
        self.lo = lo
        self.hi = hi
        self.n = len(t)

    def fragment_end(self, start: int) -> int:
        """End (exclusive) of the longest fragment starting at ``start``."""
        return RangeLineFitter().extend(self.t, self.lo, self.hi, start, self.n)

    def longest_fragment(self, start: int) -> FragmentFit:
        """Equivalent of ``make_approximation`` using the cached transforms."""
        fitter = RangeLineFitter()
        end = fitter.extend(self.t, self.lo, self.hi, start, self.n)
        if end == start:  # first point rejected: cannot happen post-shift
            raise RuntimeError(
                f"model {self.model.name!r} cannot start at index {start}"
            )
        m, b = fitter.line()
        return FragmentFit(start, end, self.model.params_from_line(m, b))


def precompute_transform(
    model: Model, eps: float, z: np.ndarray
) -> PairTransform | None:
    """Build a :class:`PairTransform`, or None for models without one."""
    if model.n_params != 2:
        return None
    n = len(z)
    xs = np.arange(1, n + 1, dtype=np.float64)
    zf = np.asarray(z, dtype=np.float64)
    name = model.name
    if name == "linear":
        t, lo, hi = xs, zf - eps, zf + eps
    elif name == "exponential":
        t = xs
        lo = np.log(np.maximum(zf - eps, 1e-12))
        hi = np.log(np.maximum(zf + eps, 1e-12))
    elif name == "power":
        t = np.log(xs)
        lo = np.log(np.maximum(zf - eps, 1e-12))
        hi = np.log(np.maximum(zf + eps, 1e-12))
    elif name == "logarithmic":
        t, lo, hi = np.log(xs), zf - eps, zf + eps
    elif name == "radical":
        t, lo, hi = np.sqrt(xs), zf - eps, zf + eps
    elif name == "quadratic":
        t, lo, hi = xs * xs, zf - eps, zf + eps
    elif name == "quadratic_linear":
        t, lo, hi = xs, (zf - eps) / xs, (zf + eps) / xs
    elif name == "cubic_linear":
        t, lo, hi = xs * xs, (zf - eps) / xs, (zf + eps) / xs
    elif name == "cubic_quadratic":
        sq = xs * xs
        t, lo, hi = xs, (zf - eps) / sq, (zf + eps) / sq
    else:
        # Unknown two-parameter model: fall back to the scalar path.
        return None
    return PairTransform(model, eps, t.tolist(), lo.tolist(), hi.tolist())
