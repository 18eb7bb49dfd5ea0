import math
from functools import lru_cache

import numpy as np
import pytest

from curveq import (
    Curve,
    Segment,
    circle_intersections,
    dfd_dp,
    dfd_segment_curve,
    min_enclosing_ball,
    min_enclosing_square_radius,
    partition_profile,
    point_dist,
)
from conftest import rand_curve, rand_segment


def dfd_recursive(P, Q, metric):
    """Independent oracle: memoized recursion over the alignment lattice."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)

    @lru_cache(maxsize=None)
    def go(i, j):
        d = point_dist(P[i], Q[j], metric)
        if i == 0 and j == 0:
            return d
        opts = []
        if i > 0:
            opts.append(go(i - 1, j))
        if j > 0:
            opts.append(go(i, j - 1))
        if i > 0 and j > 0:
            opts.append(go(i - 1, j - 1))
        return max(d, min(opts))

    return go(len(P) - 1, len(Q) - 1)


class TestDfdDp:
    def test_single_pair(self):
        assert dfd_dp(Curve("a", [[0, 0]]), Curve("b", [[3, 4]]), "l2") == 5.0

    def test_identical_curves(self, rng):
        c = rand_curve(rng, "a", 7)
        assert dfd_dp(c, c, "linf") == 0.0
        assert dfd_dp(c, c, "l2") == 0.0

    def test_zigzag_linf(self):
        c1 = Curve("a", [[0, 0], [10, 0]])
        c2 = Curve("b", [[0, 2], [4, 0], [10, 2]])
        assert dfd_dp(c1, c2, "linf") == 4.0

    def test_against_recursive_oracle(self, rng):
        for _ in range(60):
            m1, m2 = rng.integers(1, 8, size=2)
            c1 = rand_curve(rng, "a", int(m1), 0, 20)
            c2 = rand_curve(rng, "b", int(m2), 0, 20)
            for metric in ("linf", "l2"):
                assert dfd_dp(c1, c2, metric) == pytest.approx(
                    dfd_recursive(c1.pts, c2.pts, metric), abs=1e-12
                )

    def test_symmetry(self, rng):
        for _ in range(50):
            c1 = rand_curve(rng, "a", int(rng.integers(1, 10)))
            c2 = rand_curve(rng, "b", int(rng.integers(1, 10)))
            for metric in ("linf", "l2"):
                assert dfd_dp(c1, c2, metric) == dfd_dp(c2, c1, metric)

    def test_metric_sandwich(self, rng):
        for _ in range(200):
            c1 = rand_curve(rng, "a", int(rng.integers(1, 8)))
            c2 = rand_curve(rng, "b", int(rng.integers(1, 8)))
            di = dfd_dp(c1, c2, "linf")
            d2 = dfd_dp(c1, c2, "l2")
            assert di <= d2 <= math.sqrt(2) * di * (1 + 1e-12)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            Curve("a", np.empty((0, 2)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Curve("a", [[0, float("nan")]])
        with pytest.raises(ValueError):
            Segment("s", [0, 0], [float("inf"), 0])

    @pytest.mark.parametrize("make, match", [
        (lambda: Curve("x", [[1, 2], [3]]), r"curve 'x': expected .* numeric points"),
        (lambda: Curve("x", [["a", "b"]]), r"curve 'x': expected .* numeric points"),
        (lambda: Curve("x", [[10**400, 0]]), r"curve 'x': expected .* numeric points"),
        (lambda: Segment("s", [1], [2, 3]), r"point \[1\]: expected two numeric coordinates"),
        (lambda: Segment("s", [0, 0], ["a", "b"]), r"point \['a', 'b'\]: expected two"),
    ], ids=["ragged", "strings", "too-large", "one-coordinate", "segment-strings"])
    def test_malformed_points_name_the_curve_or_point(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


class TestDfdSegmentCurve:
    def test_uniform_offset(self):
        s = Segment("s", [0, 0], [10, 0])
        assert dfd_segment_curve(s, Curve("c", [[0, 1], [10, 1]]), "linf") == (1.0, 1)

    def test_zigzag(self):
        s = Segment("s", [0, 0], [10, 0])
        d, i = dfd_segment_curve(s, Curve("c", [[0, 2], [4, 0], [10, 2]]), "linf")
        assert (d, i) == (4.0, 2)

    def test_l2_offset(self):
        s = Segment("s", [0, 0], [4, 0])
        assert dfd_segment_curve(s, Curve("c", [[0, 3], [4, 3]]), "l2") == (3.0, 1)

    def test_single_vertex_falls_back_to_dp(self):
        s = Segment("s", [0, 0], [4, 0])
        d, i = dfd_segment_curve(s, Curve("c", [[2, 2]]), "linf")
        assert i == 0
        assert d == dfd_dp(s.as_curve(), Curve("c", [[2, 2]]), "linf")

    def test_matches_dp(self, rng):
        for _ in range(200):
            c = rand_curve(rng, "c", int(rng.integers(2, 15)))
            s = rand_segment(rng, "s")
            assert dfd_segment_curve(s, c, "linf")[0] == dfd_dp(s.as_curve(), c, "linf")
            d2 = dfd_segment_curve(s, c, "l2")[0]
            assert d2 == pytest.approx(dfd_dp(s.as_curve(), c, "l2"), abs=1e-12)

    def test_split_is_a_witness(self, rng):
        for _ in range(50):
            c = rand_curve(rng, "c", int(rng.integers(2, 10)))
            s = rand_segment(rng, "s")
            d, i = dfd_segment_curve(s, c, "linf")
            pre = max(point_dist(s.a, p, "linf") for p in c.pts[:i])
            suf = max(point_dist(s.b, p, "linf") for p in c.pts[i:])
            assert max(pre, suf) == d


class TestPartitionProfile:
    def test_direct_extrema(self):
        p = partition_profile(Curve("c", [[0, 0], [2, 5], [1, 1]]))
        # split i=2 covers the first two vertices
        assert p.pre_max_x[1] == 2 and p.pre_min_x[1] == 0
        assert p.pre_max_y[1] == 5 and p.pre_min_y[1] == 0
        assert p.suf_max_x[1] == 1 and p.suf_min_x[1] == 1

    def test_monotone_x(self):
        pts = [[i, 0] for i in range(6)]
        p = partition_profile(Curve("c", pts))
        assert np.array_equal(p.pre_max_x, np.arange(5, dtype=float))

    def test_random_matches_brute(self, rng):
        for _ in range(50):
            c = rand_curve(rng, "c", int(rng.integers(2, 12)))
            p = partition_profile(c)
            for i in range(1, len(c)):
                pre, suf = c.pts[:i], c.pts[i:]
                assert p.pre_max_x[i - 1] == pre[:, 0].max()
                assert p.pre_min_x[i - 1] == pre[:, 0].min()
                assert p.pre_max_y[i - 1] == pre[:, 1].max()
                assert p.pre_min_y[i - 1] == pre[:, 1].min()
                assert p.suf_max_x[i - 1] == suf[:, 0].max()
                assert p.suf_min_x[i - 1] == suf[:, 0].min()
                assert p.suf_max_y[i - 1] == suf[:, 1].max()
                assert p.suf_min_y[i - 1] == suf[:, 1].min()

    def test_monotonicity_invariants(self, rng):
        c = rand_curve(rng, "c", 20)
        p = partition_profile(c)
        assert np.all(np.diff(p.pre_max_x) >= 0)
        assert np.all(np.diff(p.pre_min_x) <= 0)
        assert np.all(np.diff(p.suf_max_x) <= 0)

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            partition_profile(Curve("c", [[0, 0]]))


class TestEnclosingShapes:
    def test_square_radius(self):
        assert min_enclosing_square_radius([[3, 3]]) == 0.0
        assert min_enclosing_square_radius([[0, 0], [4, 2]]) == 2.0

    def test_square_radius_vs_center_search(self, rng):
        # optimal square center is the per-axis extent midpoint; scanning all
        # midpoints of coordinate pairs can only reproduce the formula value
        for _ in range(30):
            pts = rng.integers(0, 50, size=(int(rng.integers(1, 10)), 2)).astype(float)
            r = min_enclosing_square_radius(pts)
            xs, ys = pts[:, 0], pts[:, 1]
            best = math.inf
            for cx in set((a + b) / 2 for a in xs for b in xs):
                for cy in set((a + b) / 2 for a in ys for b in ys):
                    need = max(np.max(np.abs(xs - cx)), np.max(np.abs(ys - cy)))
                    best = min(best, need)
            assert r == best

    def meb_brute(self, pts):
        """O(k^3) oracle: best circle through all pairs/triples."""
        pts = np.asarray(pts, dtype=float)
        n = len(pts)
        best = None

        def covers(c, r):
            return all(math.hypot(*(p - c)) <= r + 1e-9 for p in pts)

        if n == 1:
            return pts[0], 0.0
        for i in range(n):
            for j in range(i + 1, n):
                c = (pts[i] + pts[j]) / 2
                r = math.hypot(*(pts[i] - c))
                if covers(c, r) and (best is None or r < best[1]):
                    best = (c, r)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    from curveq import circumcircle
                    cc = circumcircle(pts[i], pts[j], pts[k])
                    if cc and covers(*cc) and (best is None or cc[1] < best[1]):
                        best = cc
        return best

    def test_meb_trivial(self):
        c, r = min_enclosing_ball([[5, 5]])
        assert r == 0.0 and np.array_equal(c, [5, 5])
        c, r = min_enclosing_ball([[0, 0], [4, 0]])
        assert r == 2.0 and np.array_equal(c, [2, 0])

    def test_meb_vs_brute(self, rng):
        for _ in range(40):
            pts = rng.integers(0, 40, size=(10, 2)).astype(float)
            c, r = min_enclosing_ball(pts)
            _, rb = self.meb_brute(pts)
            assert r == pytest.approx(rb, rel=1e-9, abs=1e-9)
            assert all(math.hypot(*(p - c)) <= r + 1e-9 for p in pts)

    def test_meb_collinear(self):
        c, r = min_enclosing_ball([[0, 0], [2, 0], [5, 0], [9, 0]])
        assert r == pytest.approx(4.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_enclosing_ball(np.empty((0, 2)))
        with pytest.raises(ValueError):
            min_enclosing_square_radius(np.empty((0, 2)))


class TestCircleIntersections:
    def test_tangent(self):
        out = circle_intersections([0, 0], [2, 0], 1.0)
        assert out.shape == (1, 2) and np.allclose(out[0], [1, 0])

    def test_coincident_empty(self):
        assert circle_intersections([0, 0], [0, 0], 1.0).shape == (0, 2)

    def test_two_points(self):
        out = circle_intersections([0, 0], [2, 0], math.sqrt(2))
        assert sorted(map(tuple, np.round(out, 9))) == [(1.0, -1.0), (1.0, 1.0)]

    def test_too_far_empty(self):
        assert circle_intersections([0, 0], [5, 0], 1.0).shape == (0, 2)

    def test_points_lie_on_both_circles(self, rng):
        for _ in range(50):
            p = rng.integers(0, 20, 2).astype(float)
            q = rng.integers(0, 20, 2).astype(float)
            r = float(rng.integers(1, 15))
            for z in circle_intersections(p, q, r):
                assert math.hypot(*(z - p)) == pytest.approx(r, abs=1e-9)
                assert math.hypot(*(z - q)) == pytest.approx(r, abs=1e-9)
