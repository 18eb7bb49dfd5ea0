import pytest

from curveq import (
    Curve,
    Segment,
    SegmentInputIndex,
    SegmentQueryIndex,
    dfd_segment_curve,
    rect_key_table,
)
from conftest import rand_curve, rand_curves, rand_segment, rand_segments


def brute_nearest_curve(curves, s):
    """Linear scan, smallest id on ties."""
    best = None
    for c in sorted(curves, key=lambda c: c.id):
        d = dfd_segment_curve(s, c, "linf")[0]
        if best is None or d < best[1]:
            best = (c.id, d)
    return best


def brute_nearest_segment(segments, q):
    best = None
    for sg in sorted(segments, key=lambda sg: sg.id):
        d = dfd_segment_curve(sg, q, "linf")[0]
        if best is None or d < best[1]:
            best = (sg.id, d)
    return best


class TestRectKeyTable:
    def test_counts(self, rng):
        assert rect_key_table([Curve("a", [[0, 0], [1, 1]])]).values.shape[0] == 1
        curves = rand_curves(rng, 7, 9)
        t = rect_key_table(curves)
        assert t.values.shape[0] == sum(len(c) - 1 for c in curves)

    def test_build_error_names_curve(self):
        with pytest.raises(ValueError, match="tiny"):
            rect_key_table([Curve("ok", [[0, 0], [1, 1]]), Curve("tiny", [[0, 0]])])

    def test_duplicate_ids_rejected(self):
        cs = [Curve("x", [[0, 0], [1, 1]]), Curve("x", [[2, 2], [3, 3]])]
        with pytest.raises(ValueError, match="unique"):
            rect_key_table(cs)


class TestSegmentQueryIndex:
    def test_decide_examples(self):
        idx = SegmentQueryIndex([Curve("c", [[0, 1], [10, 1]])])
        s = Segment("s", [0, 0], [10, 0])
        assert idx.decide(s, 1.0) == "c"
        assert idx.decide(s, 0.5) is None

    def test_decide_negative_d_rejected(self):
        idx = SegmentQueryIndex([Curve("c", [[0, 1], [10, 1]])])
        with pytest.raises(ValueError):
            idx.decide(Segment("s", [0, 0], [10, 0]), -0.1)

    def test_decide_matches_brute(self, rng):
        for _ in range(25):
            curves = rand_curves(rng, int(rng.integers(1, 12)), 8)
            idx = SegmentQueryIndex(curves)
            for _ in range(8):
                s = rand_segment(rng, "q")
                d = float(rng.integers(0, 120))
                brute = min(dfd_segment_curve(s, c, "linf")[0] for c in curves)
                hit = idx.decide(s, d)
                assert (hit is not None) == (brute <= d)
                if hit is not None:
                    assert dfd_segment_curve(s, next(c for c in curves if c.id == hit), "linf")[0] <= d

    def test_decision_monotonicity(self, rng):
        curves = rand_curves(rng, 6, 6)
        idx = SegmentQueryIndex(curves)
        s = rand_segment(rng, "q")
        hits = [idx.decide(s, float(d)) is not None for d in range(0, 200, 10)]
        assert hits == sorted(hits)  # False..False True..True

    def test_nearest_examples(self):
        idx = SegmentQueryIndex([
            Curve("C1", [[0, 1], [10, 1]]),
            Curve("C2", [[0, 5], [10, 5]]),
        ])
        assert idx.nearest(Segment("s", [0, 0], [10, 0])) == ("C1", 1.0)
        # coinciding with an input curve
        assert idx.nearest(Segment("s", [0, 1], [10, 1])) == ("C1", 0.0)

    def test_nearest_empty_structure(self):
        idx = SegmentQueryIndex([])
        with pytest.raises(ValueError):
            idx.nearest(Segment("s", [0, 0], [1, 0]))
        assert idx.decide(Segment("s", [0, 0], [1, 0]), 5.0) is None

    def test_nearest_matches_brute(self, rng):
        for _ in range(30):
            curves = rand_curves(rng, int(rng.integers(1, 15)), 10)
            idx = SegmentQueryIndex(curves)
            for _ in range(6):
                s = rand_segment(rng, "q")
                assert idx.nearest(s) == brute_nearest_curve(curves, s)

    def test_tie_break_smallest_id(self):
        # two identical curves under different ids
        idx = SegmentQueryIndex([
            Curve("zz", [[0, 1], [10, 1]]),
            Curve("aa", [[0, 1], [10, 1]]),
        ])
        assert idx.nearest(Segment("s", [0, 0], [10, 0]))[0] == "aa"


class TestSegmentInputIndex:
    def test_rect_pair_queries(self, rng):
        seg = Segment("only", [1, 2], [3, 4])
        idx = SegmentInputIndex([seg])
        assert idx.segments_in(((1, 2), (1, 2)), ((3, 4), (3, 4))) == ["only"]
        assert idx.segments_in(((5, 5), (6, 6)), ((3, 4), (3, 4))) == []

    def test_rect_pair_matches_linear_scan(self, rng):
        segs = rand_segments(rng, 40)
        idx = SegmentInputIndex(segs)
        for _ in range(200):
            lo_a = rng.integers(0, 80, 2)
            hi_a = lo_a + rng.integers(0, 40, 2)
            lo_b = rng.integers(0, 80, 2)
            hi_b = lo_b + rng.integers(0, 40, 2)
            got = idx.segments_in((lo_a, hi_a), (lo_b, hi_b))
            want = sorted(
                s.id for s in segs
                if (lo_a <= s.a).all() and (s.a <= hi_a).all()
                and (lo_b <= s.b).all() and (s.b <= hi_b).all()
            )
            assert got == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SegmentInputIndex([])

    def test_decide_examples(self):
        idx = SegmentInputIndex([Segment("s1", [0, 1], [10, 1])])
        q = Curve("q", [[0, 0], [10, 0]])
        assert idx.decide(q, 1.0) == "s1"
        assert idx.decide(q, 0.9) is None

    def test_decide_requires_two_vertices(self):
        idx = SegmentInputIndex([Segment("s1", [0, 1], [10, 1])])
        with pytest.raises(ValueError):
            idx.decide(Curve("q", [[0, 0]]), 1.0)

    def test_decide_matches_brute(self, rng):
        for _ in range(25):
            segs = rand_segments(rng, int(rng.integers(1, 20)))
            idx = SegmentInputIndex(segs)
            for _ in range(8):
                q = rand_curve(rng, "q", int(rng.integers(2, 10)))
                d = float(rng.integers(0, 120))
                brute = min(dfd_segment_curve(sg, q, "linf")[0] for sg in segs)
                assert (idx.decide(q, d) is not None) == (brute <= d)

    def test_nearest_examples(self):
        idx = SegmentInputIndex([
            Segment("s1", [0, 1], [10, 1]),
            Segment("s2", [0, 7], [10, 7]),
        ])
        assert idx.nearest_to_curve(Curve("q", [[0, 0], [10, 0]])) == ("s1", 1.0)
        assert idx.nearest_to_curve(Curve("q", [[0, 1], [10, 1]])) == ("s1", 0.0)

    def test_nearest_matches_brute(self, rng):
        for _ in range(30):
            segs = rand_segments(rng, int(rng.integers(1, 20)))
            idx = SegmentInputIndex(segs)
            for _ in range(6):
                q = rand_curve(rng, "q", int(rng.integers(2, 12)))
                assert idx.nearest_to_curve(q) == brute_nearest_segment(segs, q)

    def test_witness_validity(self, rng):
        segs = rand_segments(rng, 10)
        idx = SegmentInputIndex(segs)
        q = rand_curve(rng, "q", 6)
        sid, d = idx.nearest_to_curve(q)
        seg = next(s for s in segs if s.id == sid)
        assert dfd_segment_curve(seg, q, "linf")[0] == d
