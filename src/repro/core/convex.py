"""O'Rourke's online algorithm for fitting a line through vertical ranges.

This module is the computational engine behind Theorem 1 of the paper.  After
the per-model change of variables (Table I), *every* supported function kind
reduces to the same geometric problem: given points arriving online with
strictly increasing abscissae ``t_k`` and vertical feasibility ranges
``[lo_k, hi_k]``, maintain whether a single line ``b(t) = m*t + q`` exists
with ``lo_k <= m*t_k + q <= hi_k`` for all points seen so far, and report one
such ``(m, q)`` when asked.

The feasible set of ``(m, q)`` pairs is a convex polygon; O'Rourke [36] showed
it can be maintained in amortised O(1) per point because each new point only
clips the polygon with two half-planes whose slopes are more extreme than all
previous ones.  We implement the equivalent *primal* formulation popularised
by the PGM-index: two convex hulls (of the lower and upper range endpoints)
plus the current extreme-slope supporting pairs, stored as the four corners of
the feasible "rectangle".

Algorithm 1 fits one fragment per ``(f, ε)`` pair and position it opens, so
the per-point cost is what matters.  :meth:`RangeLineFitter.extend` runs a
whole fragment in one interpreter loop: the corners live in eight local
floats and the hulls in parallel x/y lists, the slope and cross-product
tests are written out inline, and the state is stored back once at the end.
:meth:`RangeLineFitter.add` is ``extend`` over a single range, so there is
one hull-update implementation.

All arithmetic is float64.  The caller (``repro.core.models``) is responsible
for providing transformed coordinates; the encoder re-validates residuals, so
a borderline accept/reject here affects only optimality by a hair, never
correctness of the compressed output.
"""

from __future__ import annotations

__all__ = ["RangeLineFitter"]

_NO_RECT = (0.0,) * 8
_NEG_INF = float("-inf")


class RangeLineFitter:
    """Incrementally decide whether a line stabs all vertical ranges so far.

    Usage::

        fitter = RangeLineFitter()
        end = fitter.extend(t, lo, hi, start, len(t))   # one run
        m, q = fitter.line()      # a feasible line for ranges start..end-1

    ``extend`` accepts ranges until the first one no line can stab together
    with all previously accepted ones and returns that range's index; the
    caller then closes the current fragment and starts a new fitter.
    ``add`` is the single-range form of the same loop.
    """

    __slots__ = (
        "_ux",
        "_uy",
        "_lx",
        "_ly",
        "_upper_start",
        "_lower_start",
        "_rect",
        "_count",
        "_last_t",
    )

    def __init__(self) -> None:
        # Upper and lower hulls (of the hi and lo endpoints) as parallel
        # x/y lists; the search for a new support starts at *_start.
        self._ux: list[float] = []
        self._uy: list[float] = []
        self._lx: list[float] = []
        self._ly: list[float] = []
        self._upper_start = 0
        self._lower_start = 0
        # Corners r0..r3 of the feasible region in primal space, flattened
        # to (r0x, r0y, ..., r3x, r3y): r0-r2 realise the minimum slope,
        # r1-r3 the maximum.
        self._rect: tuple[float, ...] = _NO_RECT
        self._count = 0
        self._last_t = _NEG_INF

    @property
    def count(self) -> int:
        """Number of ranges accepted so far."""
        return self._count

    def add(self, t: float, lo: float, hi: float) -> bool:
        """Try to extend the feasible set with the range ``[lo, hi]`` at ``t``.

        Returns ``True`` if a stabbing line still exists (range accepted);
        on ``False`` the state is untouched.  ``t`` must be strictly larger
        than every previously accepted abscissa.
        """
        return self.extend((t,), (lo,), (hi,), 0, 1) == 1

    def extend(self, t, lo, hi, start: int, stop: int) -> int:
        """Accept the ranges ``[lo[k], hi[k]]`` at ``t[k]`` for ``k`` from
        ``start`` until the first rejected one, or ``stop``.

        Returns the index of the first rejected range (``stop`` if all were
        accepted); the state then holds every accepted range and nothing
        else.  Raises ``ValueError`` on an empty range or a non-increasing
        abscissa, after keeping the ranges accepted before it.
        """
        ux, uy, lx, ly = self._ux, self._uy, self._lx, self._ly
        ustart = self._upper_start
        lstart = self._lower_start
        r0x, r0y, r1x, r1y, r2x, r2y, r3x, r3y = self._rect
        count = self._count
        last_t = self._last_t
        k = start
        try:
            while k < stop:
                tk = t[k]
                lk = lo[k]
                hk = hi[k]
                if lk > hk:
                    raise ValueError(f"empty range [{lk}, {hk}] at t={tk}")
                if tk <= last_t and count:
                    raise ValueError("abscissae must be strictly increasing")

                if count < 2:
                    if count == 0:
                        r0x, r0y, r1x, r1y = tk, hk, tk, lk
                    else:
                        r2x, r2y, r3x, r3y = tk, lk, tk, hk
                    ux.append(tk)
                    uy.append(hk)
                    lx.append(tk)
                    ly.append(lk)
                    count += 1
                    last_t = tk
                    k += 1
                    continue

                s1x = r2x - r0x  # min slope
                s1y = r2y - r0y
                s2x = r3x - r1x  # max slope
                s2y = r3y - r1y

                # The new upper endpoint must lie above the min-slope line
                # and the new lower endpoint below the max-slope line, or the
                # feasible polygon would become empty.  Slopes of vectors
                # with positive dx compare as a.dy * b.dx < b.dy * a.dx.
                if (hk - r2y) * s1x < s1y * (tk - r2x):
                    break
                if s2y * (tk - r3x) < (lk - r3y) * s2x:
                    break

                # Does the upper endpoint sharpen the max slope?
                if (hk - r1y) * s2x < s2y * (tk - r1x):
                    # The lower-hull point that, paired with (tk, hk),
                    # minimises the slope becomes the new max-slope support.
                    best = lstart
                    bx = lx[best] - tk
                    by = ly[best] - hk
                    for j in range(best + 1, len(lx)):
                        cx = lx[j] - tk
                        cy = ly[j] - hk
                        if by * cx < cy * bx:
                            break
                        bx, by = cx, cy
                        best = j
                    r1x, r1y, r3x, r3y = lx[best], ly[best], tk, hk
                    lstart = best
                    # Maintain the upper hull with (tk, hk): pop while the
                    # last two points and it do not turn left.
                    end = len(ux)
                    while end >= ustart + 2 and (
                        (ux[end - 1] - ux[end - 2]) * (hk - uy[end - 2])
                        - (uy[end - 1] - uy[end - 2]) * (tk - ux[end - 2])
                        <= 0
                    ):
                        end -= 1
                    del ux[end:], uy[end:]
                    ux.append(tk)
                    uy.append(hk)

                # Does the lower endpoint sharpen the min slope?
                if s1y * (tk - r0x) < (lk - r0y) * s1x:
                    # And symmetrically for the min-slope support.
                    best = ustart
                    bx = ux[best] - tk
                    by = uy[best] - lk
                    for j in range(best + 1, len(ux)):
                        cx = ux[j] - tk
                        cy = uy[j] - lk
                        if cy * bx < by * cx:
                            break
                        bx, by = cx, cy
                        best = j
                    r0x, r0y, r2x, r2y = ux[best], uy[best], tk, lk
                    ustart = best
                    # Maintain the lower hull: pop while it does not turn right.
                    end = len(lx)
                    while end >= lstart + 2 and (
                        (lx[end - 1] - lx[end - 2]) * (lk - ly[end - 2])
                        - (ly[end - 1] - ly[end - 2]) * (tk - lx[end - 2])
                        >= 0
                    ):
                        end -= 1
                    del lx[end:], ly[end:]
                    lx.append(tk)
                    ly.append(lk)

                count += 1
                last_t = tk
                k += 1
        finally:
            self._upper_start = ustart
            self._lower_start = lstart
            self._rect = (r0x, r0y, r1x, r1y, r2x, r2y, r3x, r3y)
            self._count = count
            self._last_t = last_t
        return k

    def line(self) -> tuple[float, float]:
        """Return a feasible ``(slope, intercept)`` for all accepted ranges.

        With two or more points, we return the line through the intersection
        of the two extreme-slope supports with the average extreme slope: a
        point strictly inside the feasible polygon, which maximises the float
        safety margin on both sides.
        """
        if self._count == 0:
            raise ValueError("no ranges accepted")
        r0x, r0y, r1x, r1y, r2x, r2y, r3x, r3y = self._rect
        if self._count == 1:
            return 0.0, (r0y + r1y) / 2.0

        min_dx = r2x - r0x
        min_dy = r2y - r0y
        max_dx = r3x - r1x
        max_dy = r3y - r1y
        # Degenerate supports: at extreme value scales float rounding can
        # collapse a diagonal onto a single abscissa (dx == 0).  Fall back to
        # the other support's slope anchored at the pinch midpoint — the
        # encoder re-measures residuals, so a slightly suboptimal line only
        # costs bits, never correctness.
        if min_dx == 0.0 and max_dx == 0.0:
            return 0.0, (r0y + r2y) / 2.0
        if min_dx == 0.0:
            slope = max_dy / max_dx
            return slope, (r0y + r2y) / 2.0 - slope * r0x
        if max_dx == 0.0:
            slope = min_dy / min_dx
            return slope, (r1y + r3y) / 2.0 - slope * r1x
        min_slope = min_dy / min_dx
        max_slope = max_dy / max_dx
        slope = (min_slope + max_slope) / 2.0

        # Intersection of the two diagonal support lines.
        denom = min_dx * max_dy - min_dy * max_dx
        if abs(denom) < 1e-300:
            # Parallel supports: the polygon is (numerically) a segment; any
            # support point works.
            px, py = r0x, r0y
        else:
            s = ((r1x - r0x) * max_dy - (r1y - r0y) * max_dx) / denom
            px = r0x + s * min_dx
            py = r0y + s * min_dy
        return slope, py - slope * px

    def slope_range(self) -> tuple[float, float]:
        """The current feasible slope interval ``[min_slope, max_slope]``."""
        if self._count == 0:
            raise ValueError("no ranges accepted")
        if self._count == 1:
            return float("-inf"), float("inf")
        r0x, r0y, r1x, r1y, r2x, r2y, r3x, r3y = self._rect
        return (r2y - r0y) / (r2x - r0x), (r3y - r1y) / (r3x - r1x)
