import math

import numpy as np
import pytest

from curveq import (
    Curve,
    Segment,
    SegmentQueryIndex,
    TranslationCurveIndex,
    TranslationSegmentIndex,
    dfd_segment_curve,
    translation_key_table,
)
from curveq.geometry import partition_profiles, translation_keys
from conftest import rand_curve, rand_curves, rand_segment, rand_segments


def interval_feasible(s, pts, i, d):
    """Raw predicate: can s translate so a covers the prefix and b the suffix?"""
    pre, suf = pts[:i], pts[i:]
    for axis in (0, 1):
        phi, plo = pre[:, axis].max(), pre[:, axis].min()
        shi, slo = suf[:, axis].max(), suf[:, axis].min()
        qa, qb = s.a[axis], s.b[axis]
        lo = max(phi - d - qa, shi - d - qb)
        hi = min(plo + d - qa, slo + d - qb)
        if lo > hi:
            return False
    return True


def trans_dist_oracle(s, c):
    """Independent oracle: necessary lower-bound candidates checked against
    the raw interval predicate, minimized over splits."""
    pts = c.pts
    best = math.inf
    for i in range(1, len(pts)):
        pre, suf = pts[:i], pts[i:]
        cx, cy = s.b[0] - s.a[0], s.b[1] - s.a[1]
        cands = sorted({
            (pre[:, 0].max() - pre[:, 0].min()) / 2,
            (pre[:, 1].max() - pre[:, 1].min()) / 2,
            (suf[:, 0].max() - suf[:, 0].min()) / 2,
            (suf[:, 1].max() - suf[:, 1].min()) / 2,
            ((suf[:, 0].max() - pre[:, 0].min()) - cx) / 2,
            (cx - (suf[:, 0].min() - pre[:, 0].max())) / 2,
            ((suf[:, 1].max() - pre[:, 1].min()) - cy) / 2,
            (cy - (suf[:, 1].min() - pre[:, 1].max())) / 2,
        })
        for d in cands:
            if d >= 0 and interval_feasible(s, pts, i, d):
                best = min(best, d)
                break
    return best


def brute_nearest(curves, s):
    best = None
    for c in sorted(curves, key=lambda c: c.id):
        d = trans_dist_oracle(s, c)
        if best is None or d < best[1]:
            best = (c.id, d)
    return best


class TestTranslationKeyTable:
    def test_counting(self, rng):
        assert translation_key_table([Curve("a", [[0, 0], [3, 4]])]).shape == (1, 5)
        curves = rand_curves(rng, 5, 7)
        nsplits = sum(len(c) - 1 for c in curves)
        assert translation_key_table(curves).shape[0] == nsplits
        assert TranslationCurveIndex(curves)._index.tags.shape[0] == nsplits
        assert all(k.shape == (nsplits,) for k in translation_keys(partition_profiles(curves)))
        assert translation_key_table([]).shape == (0, 5)

    def test_values_match_direct_recompute(self, rng):
        for _ in range(20):
            curves = rand_curves(rng, int(rng.integers(1, 5)), 9)
            r, u1, u2, u3, u4 = translation_keys(partition_profiles(curves))
            values = translation_key_table(curves)
            k = 0
            for c in curves:
                for i in range(1, len(c)):
                    pre, suf = c.pts[:i], c.pts[i:]
                    pre_r = max(pre[:, 0].max() - pre[:, 0].min(),
                                pre[:, 1].max() - pre[:, 1].min()) / 2
                    suf_r = max(suf[:, 0].max() - suf[:, 0].min(),
                                suf[:, 1].max() - suf[:, 1].min()) / 2
                    assert r[k] == max(pre_r, suf_r)
                    assert u1[k] == suf[:, 0].min() - pre[:, 0].max()
                    assert u2[k] == suf[:, 0].max() - pre[:, 0].min()
                    assert u3[k] == suf[:, 1].min() - pre[:, 1].max()
                    assert u4[k] == suf[:, 1].max() - pre[:, 1].min()
                    assert u1[k] <= u2[k] and u3[k] <= u4[k]
                    assert r[k] >= 0
                    assert values[k].tolist() == [r[k], u2[k], -u1[k], u4[k], -u3[k]]
                    k += 1
            assert k == values.shape[0]


class TestTranslationCurveIndex:
    def test_small_curve_rejected(self):
        with pytest.raises(ValueError, match="stub"):
            TranslationCurveIndex([Curve("stub", [[1, 1]])])

    def test_exact_congruence(self):
        idx = TranslationCurveIndex([Curve("c", [[5, 7], [11, 7]])])
        assert idx.nearest(Segment("s", [0, 0], [6, 0])) == ("c", 0.0)

    def test_span_mismatch(self):
        # spans 6 vs 8: the suffix square interval forces 2d >= 2
        idx = TranslationCurveIndex([Curve("c", [[0, 0], [8, 0]])])
        s = Segment("s", [0, 0], [6, 0])
        assert idx.nearest(s) == ("c", 1.0)
        assert trans_dist_oracle(s, Curve("c", [[0, 0], [8, 0]])) == 1.0

    def test_nearest_prefers_matching_shape(self):
        idx = TranslationCurveIndex([
            Curve("h", [[0, 0], [8, 0]]),
            Curve("v", [[0, 0], [0, 9]]),
        ])
        s = Segment("s", [0, 0], [6, 0])
        assert idx.nearest(s) == ("h", 1.0)

    def test_nearest_matches_oracle(self, rng):
        for _ in range(25):
            curves = rand_curves(rng, int(rng.integers(1, 12)), 8, hi=60)
            idx = TranslationCurveIndex(curves)
            for _ in range(5):
                s = rand_segment(rng, "q", hi=60)
                assert idx.nearest(s) == brute_nearest(curves, s)

    def test_translation_invariance(self, rng):
        curves = rand_curves(rng, 8, 6)
        s = rand_segment(rng, "q")
        base = TranslationCurveIndex(curves).nearest(s)
        moved = [c.translated(rng.integers(-500, 500, 2)) for c in curves]
        assert TranslationCurveIndex(moved).nearest(s) == base
        s2 = s.translated(rng.integers(-500, 500, 2))
        assert TranslationCurveIndex(moved).nearest(s2) == base

    def test_at_most_fixed_position_distance(self, rng):
        curves = rand_curves(rng, 6, 6)
        fixed = SegmentQueryIndex(curves)
        trans = TranslationCurveIndex(curves)
        for _ in range(20):
            s = rand_segment(rng, "q")
            assert trans.nearest(s)[1] <= fixed.nearest(s)[1]


class TestTranslationSegmentIndex:
    def test_structure_queries_match_linear_scan(self, rng):
        segs = rand_segments(rng, 30, hi=50)
        idx = TranslationSegmentIndex(segs)
        pts = np.array([s.b - s.a for s in segs])
        for _ in range(100):
            lo = rng.integers(-60, 40, 2)
            hi = lo + rng.integers(0, 50, 2)
            # rows are (-0, -c.x, c.x, -c.y, c.y): the difference point c in
            # [lo, hi] is distance 0 under one shift row
            tags = idx._index.within([0.0, -lo[0], hi[0], -lo[1], hi[1]], 0.0)
            got = [idx.ids_by_rank[k] for k in tags]
            want = sorted(
                segs[k].id for k in range(len(segs))
                if (lo <= pts[k]).all() and (pts[k] <= hi).all()
            )
            assert got == want

    def test_examples(self):
        idx = TranslationSegmentIndex([
            Segment("s1", [0, 0], [5, 0]),
            Segment("s2", [0, 0], [0, 5]),
        ])
        assert idx.nearest_to_curve(Curve("q", [[0, 0], [6, 0]])) == ("s1", 0.5)
        assert idx.nearest_to_curve(Curve("q", [[0, 0], [5, 0]])) == ("s1", 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TranslationSegmentIndex([])

    def test_nearest_matches_oracle(self, rng):
        for _ in range(25):
            segs = rand_segments(rng, int(rng.integers(1, 15)), hi=60)
            idx = TranslationSegmentIndex(segs)
            for _ in range(5):
                q = rand_curve(rng, "q", int(rng.integers(2, 9)), hi=60)
                best = None
                for sg in sorted(segs, key=lambda s: s.id):
                    d = trans_dist_oracle(sg, q)
                    if best is None or d < best[1]:
                        best = (sg.id, d)
                assert idx.nearest_to_curve(q) == best

    def test_translation_invariance(self, rng):
        segs = rand_segments(rng, 12)
        q = rand_curve(rng, "q", 6)
        idx = TranslationSegmentIndex(segs)
        base = idx.nearest_to_curve(q)
        moved = [s.translated(rng.integers(-300, 300, 2)) for s in segs]
        assert TranslationSegmentIndex(moved).nearest_to_curve(q) == base
        assert idx.nearest_to_curve(q.translated(rng.integers(-300, 300, 2))) == base

    def test_symmetry_with_curve_direction(self, rng):
        # min_t d(s_t, C) is the same value both structures optimize
        for _ in range(10):
            seg = rand_segment(rng, "s", hi=40)
            c = rand_curve(rng, "c", int(rng.integers(2, 7)), hi=40)
            d1 = TranslationCurveIndex([c]).nearest(seg)[1]
            d2 = TranslationSegmentIndex([seg]).nearest_to_curve(c)[1]
            assert d1 == d2
