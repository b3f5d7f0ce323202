"""Unit tests for the O'Rourke feasible-region fitter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.convex import RangeLineFitter


def brute_force_feasible(points):
    """Exhaustively check if a line stabs all (t, lo, hi) ranges.

    LP-free check: a stabbing line exists iff for no pair of points does the
    max slope forced by one pair undercut the min slope forced by another.
    We simply try a dense family of candidate lines through range endpoints.
    """
    for ti, loi, hii in points:
        for yi in (loi, hii):
            for tj, loj, hij in points:
                if tj == ti:
                    continue
                for yj in (loj, hij):
                    m = (yj - yi) / (tj - ti)
                    q = yi - m * ti
                    if all(lo - 1e-9 <= m * t + q <= hi + 1e-9
                           for t, lo, hi in points):
                        return True
    # Horizontal candidates through each endpoint.
    for _, lo, hi in points:
        for y in (lo, hi):
            if all(l - 1e-9 <= y <= h + 1e-9 for _, l, h in points):
                return True
    return False


class TestBasics:
    def test_empty_fitter_raises(self):
        with pytest.raises(ValueError):
            RangeLineFitter().line()

    def test_single_range(self):
        f = RangeLineFitter()
        assert f.add(1.0, 2.0, 4.0)
        m, q = f.line()
        assert 2.0 <= m * 1.0 + q <= 4.0

    def test_two_ranges(self):
        f = RangeLineFitter()
        assert f.add(1.0, 0.0, 1.0)
        assert f.add(2.0, 10.0, 11.0)
        m, q = f.line()
        assert 0.0 <= m + q <= 1.0
        assert 10.0 <= 2 * m + q <= 11.0

    def test_non_increasing_t_raises(self):
        f = RangeLineFitter()
        f.add(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            f.add(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            f.add(0.5, 0.0, 1.0)

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            RangeLineFitter().add(1.0, 2.0, 1.0)

    def test_rejection_leaves_state_usable(self):
        f = RangeLineFitter()
        f.add(1.0, 0.0, 1.0)
        f.add(2.0, 0.0, 1.0)
        # An impossible range: far above any feasible line.
        assert not f.add(3.0, 100.0, 101.0)
        m, q = f.line()  # still works for the accepted prefix
        assert 0.0 <= m * 1 + q <= 1.0
        assert 0.0 <= m * 2 + q <= 1.0


class TestFeasibility:
    def test_exact_line_always_accepted(self):
        f = RangeLineFitter()
        for x in range(1, 200):
            assert f.add(float(x), 3 * x + 7, 3 * x + 7)
        m, q = f.line()
        assert m == pytest.approx(3.0)
        assert q == pytest.approx(7.0)

    def test_noisy_line_within_eps(self):
        rng = np.random.default_rng(0)
        eps = 5.0
        f = RangeLineFitter()
        xs = np.arange(1, 300, dtype=np.float64)
        ys = -2.0 * xs + 50 + rng.uniform(-4.9, 4.9, len(xs))
        for x, y in zip(xs, ys):
            assert f.add(x, y - eps, y + eps)
        m, q = f.line()
        assert np.all(np.abs(m * xs + q - ys) <= eps + 1e-9)

    def test_line_through_returned_region_is_feasible(self):
        # After many adds, the returned line must satisfy every constraint.
        rng = np.random.default_rng(1)
        f = RangeLineFitter()
        accepted = []
        t = 0.0
        for _ in range(500):
            t += float(rng.uniform(0.1, 2.0))
            mid = float(rng.normal(0, 50))
            half = float(rng.uniform(0.5, 20))
            if f.add(t, mid - half, mid + half):
                accepted.append((t, mid - half, mid + half))
            else:
                break
        m, q = f.line()
        for t_, lo, hi in accepted:
            val = m * t_ + q
            assert lo - 1e-6 <= val <= hi + 1e-6

    def test_matches_brute_force_on_small_inputs(self):
        rng = np.random.default_rng(2)
        for trial in range(60):
            pts = []
            t = 0.0
            for _ in range(int(rng.integers(2, 7))):
                t += float(rng.uniform(0.5, 2.0))
                mid = float(rng.normal(0, 10))
                half = float(rng.uniform(0.1, 5))
                pts.append((t, mid - half, mid + half))
            f = RangeLineFitter()
            ok = all(f.add(*p) for p in pts)
            assert ok == brute_force_feasible(pts), pts


class TestSlopeRange:
    def test_slope_range_narrows(self):
        f = RangeLineFitter()
        f.add(1.0, 0.0, 10.0)
        f.add(2.0, 0.0, 10.0)
        lo1, hi1 = f.slope_range()
        f.add(3.0, 0.0, 10.0)
        lo2, hi2 = f.slope_range()
        assert lo2 >= lo1 - 1e-12
        assert hi2 <= hi1 + 1e-12

    def test_slope_range_contains_true_slope(self):
        f = RangeLineFitter()
        for x in range(1, 50):
            f.add(float(x), 5 * x - 1, 5 * x + 1)
        lo, hi = f.slope_range()
        assert lo <= 5.0 <= hi

    def test_single_point_slope_unbounded(self):
        f = RangeLineFitter()
        f.add(1.0, 0.0, 1.0)
        lo, hi = f.slope_range()
        assert lo == float("-inf") and hi == float("inf")


class TestMaximality:
    def test_fitter_extends_as_long_as_feasible(self):
        # The greedy fragment must not stop early: compare against brute force.
        rng = np.random.default_rng(3)
        for trial in range(25):
            n = 30
            ys = np.cumsum(rng.normal(0, 3, n)) + 100
            eps = 2.5
            f = RangeLineFitter()
            stopped = n
            for i in range(n):
                if not f.add(float(i + 1), ys[i] - eps, ys[i] + eps):
                    stopped = i
                    break
            # Brute force: the prefix of length `stopped` is feasible...
            pts = [(float(i + 1), ys[i] - eps, ys[i] + eps) for i in range(stopped)]
            if len(pts) >= 2:
                assert brute_force_feasible(pts)
            # ...and adding one more point makes it infeasible.
            if stopped < n:
                pts1 = pts + [(float(stopped + 1), ys[stopped] - eps, ys[stopped] + eps)]
                assert not brute_force_feasible(pts1)


def _run_with_add(t, lo, hi):
    """Feed ranges one at a time: (fitter, first index not accepted, error)."""
    f = RangeLineFitter()
    for k in range(len(t)):
        try:
            if not f.add(t[k], lo[k], hi[k]):
                return f, k, None
        except ValueError as exc:
            return f, k, exc
    return f, len(t), None


def _same_floats(a, b):
    return len(a) == len(b) and all(
        x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b)
    )


def _outcome(method):
    try:
        return method()
    except ArithmeticError as exc:  # a support collapsed onto one abscissa
        return type(exc)


def _same_state(f, g):
    assert f.count == g.count
    if f.count:
        for a, b in ((f.line, g.line), (f.slope_range, g.slope_range)):
            x, y = _outcome(a), _outcome(b)
            assert x == y if isinstance(x, type) else _same_floats(x, y)


_ranges = st.lists(
    st.tuples(
        # abscissa step: mostly positive, sometimes tiny, zero or negative
        st.one_of(
            st.floats(1e-3, 10.0),
            st.sampled_from([0.0, -1.0, 1e-300, 5e-324, 1e-9, 0.125]),
        ),
        # range centre: ordinary and near-1e15 magnitudes
        st.one_of(st.floats(-1e3, 1e3), st.floats(-1e15, 1e15), st.just(1e15)),
        # half-width: 0 gives lo == hi
        st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(0.0, 1e15)),
        # swap lo and hi (an empty range) at this point
        st.sampled_from([False] * 15 + [True]),
    ),
    min_size=1,
    max_size=40,
)


class TestExtendMatchesAdd:
    @given(
        ranges=_ranges,
        t0=st.sampled_from([0.0, 1.0, 1e15, -1e15]),
        split=st.integers(0, 40),
    )
    @settings(max_examples=300, deadline=None)
    def test_extend_equals_one_add_per_range(self, ranges, t0, split):
        t, lo, hi = [], [], []
        x = t0
        for dt, mid, half, swap in ranges:
            x += dt
            a, b = mid - half, mid + half
            t.append(x)
            lo.append(b if swap else a)
            hi.append(a if swap else b)
        ref, ref_end, ref_err = _run_with_add(t, lo, hi)

        # One run, then the same ranges as two runs over one fitter.
        for cuts in ((0, len(t)), (0, min(split, len(t)), len(t))):
            f = RangeLineFitter()
            err = None
            for a, b in zip(cuts, cuts[1:]):
                try:
                    if f.extend(t, lo, hi, a, b) < b:
                        break
                except ValueError as exc:
                    err = exc
                    break
            # Every run starts at 0, so the accepted count is the end index.
            assert f.count == ref_end
            assert (err is None) == (ref_err is None)
            if err is not None:
                assert str(err) == str(ref_err)
            _same_state(f, ref)

    def test_extend_from_an_offset_returns_absolute_index(self):
        t = [float(k) for k in range(10)]
        lo = [0.0] * 6 + [100.0] * 4
        hi = [1.0] * 6 + [101.0] * 4
        assert RangeLineFitter().extend(t, lo, hi, 2, 10) == 6
        assert RangeLineFitter().extend(t, lo, hi, 6, 10) == 10
        assert RangeLineFitter().extend(t, lo, hi, 3, 3) == 3

    def test_extend_keeps_ranges_accepted_before_an_error(self):
        f = RangeLineFitter()
        with pytest.raises(ValueError, match="strictly increasing"):
            f.extend([1.0, 2.0, 2.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0, 3)
        assert f.count == 2
        with pytest.raises(ValueError, match="empty range"):
            f.extend([3.0, 4.0], [0.0, 2.0], [1.0, 1.0], 0, 2)
        assert f.count == 3
        assert f.add(5.0, 0.0, 1.0)
