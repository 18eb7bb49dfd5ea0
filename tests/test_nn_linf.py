import numpy as np
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
        assert rect_key_table([Curve("a", [[0, 0], [1, 1]])]).shape == (1, 8)
        curves = rand_curves(rng, 7, 9)
        assert rect_key_table(curves).shape == (sum(len(c) - 1 for c in curves), 8)


class TestSegmentQueryIndex:
    def test_build_error_names_curve(self):
        with pytest.raises(ValueError, match="tiny"):
            SegmentQueryIndex([Curve("ok", [[0, 0], [1, 1]]), Curve("tiny", [[0, 0]])])

    def test_duplicate_ids_rejected(self):
        cs = [Curve("x", [[0, 0], [1, 1]]), Curve("x", [[2, 2], [3, 3]])]
        with pytest.raises(ValueError, match="unique"):
            SegmentQueryIndex(cs)

    def test_rows_are_tagged_by_id_rank(self, rng):
        # ids that sort unlike insertion order: each curve's splits carry its rank
        curves = [Curve(f"c{9 - k}", c.pts) for k, c in enumerate(rand_curves(rng, 6, 9))]
        idx = SegmentQueryIndex(curves)
        assert idx.ids_by_rank == sorted(c.id for c in curves)
        splits = {c.id: len(c) - 1 for c in curves}
        assert np.bincount(idx._index.tags).tolist() == [splits[i] for i in idx.ids_by_rank]

    def test_decide_examples(self):
        # the decision "some curve within d" is nearest's distance <= d
        idx = SegmentQueryIndex([Curve("c", [[0, 1], [10, 1]])])
        cid, dist = idx.nearest(Segment("s", [0, 0], [10, 0]))
        assert cid == "c"
        assert dist <= 1.0
        assert not dist <= 0.5

    def test_nearest_examples(self):
        idx = SegmentQueryIndex([
            Curve("C1", [[0, 1], [10, 1]]),
            Curve("C2", [[0, 5], [10, 5]]),
        ])
        assert idx.nearest(Segment("s", [0, 0], [10, 0])) == ("C1", 1.0)
        # coinciding with an input curve
        assert idx.nearest(Segment("s", [0, 1], [10, 1])) == ("C1", 0.0)

    def test_nearest_empty_structure(self):
        with pytest.raises(ValueError, match="non-empty curve list"):
            SegmentQueryIndex([])

    def test_nearest_matches_brute(self, rng):
        for _ in range(30):
            curves = rand_curves(rng, int(rng.integers(1, 15)), 10)
            idx = SegmentQueryIndex(curves)
            for _ in range(6):
                s = rand_segment(rng, "q")
                assert idx.nearest(s) == brute_nearest_curve(curves, s)

    def test_nearest_l2_keeps_the_curve_at_the_bound(self):
        # axis-aligned: the L-inf winner's L2 distance U is also its L-inf
        # key distance, so it sits exactly at the candidate filter's bound
        idx = SegmentQueryIndex([Curve("far", [[0, 3], [10, 3]]), Curve("C1", [[0, 1], [10, 1]])])
        assert idx.nearest_l2(Segment("s", [0, 0], [10, 0])) == ("C1", 1.0)

    def test_tie_break_smallest_id(self):
        # two identical curves under different ids
        idx = SegmentQueryIndex([
            Curve("zz", [[0, 1], [10, 1]]),
            Curve("aa", [[0, 1], [10, 1]]),
        ])
        assert idx.nearest(Segment("s", [0, 0], [10, 0]))[0] == "aa"


def segments_in(idx, rect_a, rect_b):
    """Ids of segments with a in rect_a and b in rect_b, closed boxes
    ((x0, y0), (x1, y1)): the index rows within 0 of one shift row."""
    (ax0, ay0), (ax1, ay1) = rect_a
    (bx0, by0), (bx1, by1) = rect_b
    t = [ax1, -ax0, ay1, -ay0, bx1, -bx0, by1, -by0]
    return [idx.ids_by_rank[k] for k in idx._index.within(t, 0.0)]


class TestSegmentInputIndex:
    def test_rect_pair_queries(self, rng):
        seg = Segment("only", [1, 2], [3, 4])
        idx = SegmentInputIndex([seg])
        assert segments_in(idx, ((1, 2), (1, 2)), ((3, 4), (3, 4))) == ["only"]
        assert segments_in(idx, ((5, 5), (6, 6)), ((3, 4), (3, 4))) == []

    def test_rect_pair_matches_linear_scan(self, rng):
        segs = rand_segments(rng, 40)
        idx = SegmentInputIndex(segs)
        for _ in range(200):
            lo_a = rng.integers(0, 80, 2)
            hi_a = lo_a + rng.integers(0, 40, 2)
            lo_b = rng.integers(0, 80, 2)
            hi_b = lo_b + rng.integers(0, 40, 2)
            got = segments_in(idx, (lo_a, hi_a), (lo_b, hi_b))
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
        # the decision "some segment within d" is nearest's distance <= d
        idx = SegmentInputIndex([Segment("s1", [0, 1], [10, 1])])
        sid, dist = idx.nearest_to_curve(Curve("q", [[0, 0], [10, 0]]))
        assert sid == "s1"
        assert dist <= 1.0
        assert not dist <= 0.9

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
