import numpy as np
import pytest

from curveq import Curve, Segment, dfd_segment_curve
from curveq.oracles import (
    BruteForceNN,
    center_brute,
    nn_brute,
    translation_distance_brute,
)
from conftest import rand_curves, rand_segment, rand_segments


class TestNnBrute:
    def test_singleton(self):
        cs = [Curve("only", [[0, 0], [5, 5]])]
        assert nn_brute(cs, Segment("q", [1, 1], [2, 2]))[0] == "only"

    def test_exact_match_distance_zero(self):
        cs = [Curve("a", [[0, 0], [5, 5]]), Curve("b", [[9, 9], [1, 0]])]
        assert nn_brute(cs, Segment("q", [0, 0], [5, 5])) == ("a", 0.0)

    def test_order_independence(self, rng):
        cs = rand_curves(rng, 8, 6)
        q = rand_segment(rng, "q")
        base = nn_brute(cs, q)
        perm = [cs[k] for k in rng.permutation(len(cs))]
        assert nn_brute(perm, q) == base

    def test_segment_dataset(self, rng):
        segs = rand_segments(rng, 6)
        q = Curve("q", [[0, 0], [3, 4], [9, 2]])
        sid, d = nn_brute(segs, q, metric="l2")
        assert d == min(dfd_segment_curve(s, q, "l2")[0] for s in segs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            nn_brute([], Segment("q", [0, 0], [1, 1]))

    def test_vectorized_scan_agrees(self, rng):
        cs = rand_curves(rng, 15, 8)
        fast = BruteForceNN(cs, "linf")
        for _ in range(20):
            q = rand_segment(rng, "q")
            assert fast.query(q) == nn_brute(cs, q, "linf")


class TestTranslationBrute:
    def test_congruent_translate_is_zero(self):
        s = Segment("s", [0, 0], [4, 3])
        assert translation_distance_brute(s, Curve("c", [[100, 50], [104, 53]])) == 0.0

    def test_span_mismatch(self):
        s = Segment("s", [0, 0], [6, 0])
        assert translation_distance_brute(s, Curve("c", [[0, 0], [8, 0]])) == 1.0

    def test_never_exceeds_fixed_position(self, rng):
        for _ in range(50):
            cs = rand_curves(rng, 1, 8)
            s = rand_segment(rng, "q")
            fixed = dfd_segment_curve(s, cs[0], "linf")[0]
            assert translation_distance_brute(s, cs[0]) <= fixed


class TestCenterBrute:
    def test_single_two_vertex_curve(self):
        assert center_brute([Curve("a", [[1, 2], [5, 9]])], "linf")[0] == 0.0

    def test_parallel_lines_both_metrics(self):
        cs = [Curve("a", [[0, 0], [10, 0]]), Curve("b", [[0, 2], [10, 2]])]
        assert center_brute(cs, "linf")[0] == 1.0
        assert center_brute(cs, "l2")[0] == pytest.approx(1.0, abs=1e-12)

    def test_translation_optimum_survives_float_rounding(self):
        # in floats, dy - 2r - 0.2 and 0 + 0.1 differ by one ulp at the
        # exact optimum r = 0, so the interval test rejected it
        cs = [Curve("a", [[0, -0.1], [0, 0.2]])]
        assert center_brute(cs, "linf", translation=True) == (0.0, {"a": 1})

    def test_duplicate_curve_does_not_change_radius(self, rng):
        cs = rand_curves(rng, 3, 4)
        r0 = center_brute(cs, "linf")[0]
        dup = cs + [Curve("dup", cs[0].pts)]
        assert center_brute(dup, "linf")[0] == r0

    def test_size_guard(self):
        cs = [Curve(f"c{k}", np.arange(42).reshape(21, 2)) for k in range(5)]
        with pytest.raises(ValueError, match="refuses"):
            center_brute(cs, "linf")
