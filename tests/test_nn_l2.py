import io
import math

import numpy as np
import pytest

from curveq import (
    AnnStructure,
    Curve,
    ExponentialGrid,
    KgonStructure,
    Segment,
    SegmentQueryIndex,
    dfd_segment_curve,
    kgon_sides,
    save_curves,
)
from curveq.cli import cli_dispatch
from curveq.nn_l2 import MAX_ANN_COMPARISONS
from conftest import rand_curve, rand_curves, rand_segment, rand_segments

ROOT2 = math.sqrt(2.0)


def brute_l2_nearest(items, q, to_curve=False):
    best = math.inf
    arg = None
    for it in items:
        d = (dfd_segment_curve(it, q, "l2")[0] if to_curve
             else dfd_segment_curve(q, it, "l2")[0])
        if d < best:
            best, arg = d, it.id
    return arg, best


class TestExponentialGrid:
    def test_level_count_covers_the_ball(self):
        # side of the outermost square must reach 2*beta to cover the L2
        # ball of radius beta, hence ceil(log2(2 beta/alpha)) levels
        g = ExponentialGrid([0, 0], 1.0, 1 / (2 * ROOT2), 1.0)
        assert g.nlevels == math.ceil(math.log2(2 * 2 * ROOT2))  # = 3
        assert g.locate([1.0, 0.0]) is not None
        assert g.locate([0.0, -1.0]) is not None

    def test_innermost_square_absorbs_small_radii(self, rng):
        alpha = 0.25
        g = ExponentialGrid([0, 0], 0.5, alpha, 1.0)
        for _ in range(200):
            q = rng.uniform(-alpha, alpha, 2)
            if max(abs(q[0]), abs(q[1])) <= alpha:
                ci = g.locate(q)
                assert ci == 0
                assert math.hypot(*q) <= ROOT2 * alpha + 1e-12

    def test_covering_bound(self, rng):
        for eps in (1.0, 0.5, 0.25):
            alpha, beta = eps * 2.0 / (2 * ROOT2), 2.0
            g = ExponentialGrid([3, -1], eps, alpha, beta)
            bound = max(ROOT2 * alpha, eps * beta / 2) + 1e-12
            for _ in range(400):
                th = rng.uniform(0, 2 * math.pi)
                rr = rng.uniform(alpha, beta)
                q = np.array([3 + rr * math.cos(th), -1 + rr * math.sin(th)])
                ci = g.locate(q)
                assert ci is not None
                assert math.hypot(*(q - g.cell_centers[ci])) <= bound

    def test_cell_count_bound(self):
        # count <= c * (1/eps^2) * ceil(log2(beta/alpha)) for a fixed c
        c_bound = 16.0
        for eps in (1.0, 0.5, 0.25):
            alpha, beta = eps / (2 * ROOT2), 1.0
            g = ExponentialGrid([0, 0], eps, alpha, beta)
            denom = (1 / eps**2) * math.ceil(math.log2(beta / alpha))
            assert g.ncells <= c_bound * denom

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExponentialGrid([0, 0], 0.0, 1, 2)
        with pytest.raises(ValueError):
            ExponentialGrid([0, 0], 0.5, 2, 1)
        with pytest.raises(ValueError):
            ExponentialGrid([0, 0], 1.5, 1, 2)


class TestAnnStructure:
    def test_single_curve_annotations(self, rng):
        c = Curve("only", [[0, 0], [7, 3]])
        ann = AnnStructure([c], 0.5, 2.0)
        assert all((pc == 0).all() for pc in ann.pair_curve)

    def test_annotation_equals_brute_minimum(self, rng):
        curves = rand_curves(rng, 3, 4, hi=20)
        ann = AnnStructure(curves, 1.0, 5.0)
        for j in range(len(curves)):
            gf, gl = ann.grids_first[j], ann.grids_last[j]
            # spot-check a handful of pairs
            for _ in range(20):
                g = int(rng.integers(0, gf.ncells))
                h = int(rng.integers(0, gl.ncells))
                s = Segment("p", gf.cell_centers[g], gl.cell_centers[h])
                dists = [dfd_segment_curve(s, c, "l2")[0] for c in curves]
                assert ann.pair_dist[j][g, h] == pytest.approx(min(dists), abs=1e-12)
                assert dists[ann.pair_curve[j][g, h]] == pytest.approx(min(dists), abs=1e-12)

    def test_exact_segment_hit(self):
        c = Curve("c", [[0, 0], [9, 2]])
        ann = AnnStructure([c], 0.5, 3.0)
        hit = ann.query(Segment("q", [0, 0], [9, 2]))
        assert hit is not None and hit[0] == "c"
        assert hit[1] == pytest.approx(1.5 * 3.0)

    def test_guarantee_on_random_instances(self, rng):
        violations = 0
        for _ in range(40):
            curves = rand_curves(rng, int(rng.integers(2, 5)), 4, hi=30)
            s = rand_segment(rng, "q", hi=30)
            _, dstar = brute_l2_nearest(curves, s)
            eps = float(rng.choice([1.0, 0.5]))
            r = max(dstar, 1e-6) * float(rng.uniform(1.0, 2.5))
            hit = AnnStructure(curves, eps, r).query(s)
            if hit is None:
                violations += 1  # d* <= r, so a miss violates the contract
                continue
            true_d = dfd_segment_curve(s, next(c for c in curves if c.id == hit[0]), "l2")[0]
            if true_d > (1 + eps) * r + 1e-9:
                violations += 1
        assert violations == 0

    def test_far_query_makes_no_claim(self):
        curves = [Curve("c", [[0, 0], [5, 0]])]
        ann = AnnStructure(curves, 0.5, 1.0)
        hit = ann.query(Segment("q", [500, 500], [505, 500]))
        assert hit is None  # nothing within r; none is permitted

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnStructure([Curve("c", [[0, 0], [1, 0]])], 0.5, 0.0)
        with pytest.raises(ValueError):
            AnnStructure([Curve("c", [[0, 0]])], 0.5, 1.0)

    def test_oversized_build_refused(self, tmp_path):
        # two 8-vertex curves at eps=0.1 need about 3e8 comparisons
        curves = [Curve(f"c{k}", np.arange(16.0).reshape(8, 2) + k) for k in range(2)]
        with pytest.raises(ValueError, match="refused"):
            AnnStructure(curves, 0.1, 1.0)
        save_curves(tmp_path / "data.jsonl", curves)
        save_curves(tmp_path / "q.jsonl", [Curve("q", [[0, 0], [1, 1]])])
        err = io.StringIO()
        rc = cli_dispatch(["nn", "--data", str(tmp_path / "data.jsonl"),
                           "--queries", str(tmp_path / "q.jsonl"), "--metric", "l2",
                           "--epsilon", "0.1", "--radius", "1"], out=io.StringIO(), err=err)
        assert rc == 1 and f"{MAX_ANN_COMPARISONS:.0e}" in err.getvalue()


class TestLadder:
    """Radius monotonicity of AnnStructure: once some curve is within r,
    every larger radius also returns a hit."""

    def test_once_hit_always_hit(self, rng):
        curves = rand_curves(rng, 3, 3, hi=20)
        s = rand_segment(rng, "q", hi=20)
        _, dstar = brute_l2_nearest(curves, s)
        eps = 1.0
        r = max(dstar * 1.1, 0.5)
        for scale in (1.0, 2.0, 4.0):
            assert AnnStructure(curves, eps, r * scale).query(s) is not None


class TestKgon:
    def test_side_counts(self):
        assert kgon_sides(0.1) == 8
        assert kgon_sides(1.0) == 3

    def test_sandwich(self, rng):
        # B2(p, d) inside the k-gon inside B2(p, (1+eps) d)
        for eps in (1.0, 0.5, 0.1):
            k = kgon_sides(eps)
            ang = 2 * math.pi * np.arange(k) / k
            normals = np.column_stack([np.cos(ang), np.sin(ang)])
            d = 3.0
            for th in np.linspace(0, 2 * math.pi, 360, endpoint=False):
                u = np.array([math.cos(th), math.sin(th)])
                # ball point is inside the k-gon
                assert (normals @ (d * u) <= d + 1e-12).all()
            # k-gon vertices are the farthest points
            assert d / math.cos(math.pi / k) <= (1 + eps) * d + 1e-12

    def test_exact_match(self):
        segs = [Segment("s1", [2, 3], [9, 5]), Segment("s2", [0, 0], [4, 0])]
        kg = KgonStructure(segs, 0.5)
        assert kg.nearest(Curve("q", [[2, 3], [9, 5]])) == ("s1", 0.0)

    def test_horizontal_offset_example(self):
        kg = KgonStructure([Segment("s1", [0, 1], [10, 1])], 0.1)
        sid, dt = kg.nearest(Curve("q", [[0, 0], [10, 0]]))
        assert sid == "s1"
        assert 1.0 <= dt <= 1.1

    def test_guarantee_random(self, rng):
        for _ in range(40):
            segs = rand_segments(rng, int(rng.integers(1, 10)), hi=40)
            q = rand_curve(rng, "q", int(rng.integers(2, 7)), hi=40)
            _, dstar = brute_l2_nearest(segs, q, to_curve=True)
            for eps in (1.0, 0.1):
                sid, dt = KgonStructure(segs, eps).nearest(q)
                assert dstar <= dt <= (1 + eps) * dstar or (dstar == 0 and dt == 0)

    def test_decide_monotone(self, rng):
        segs = rand_segments(rng, 8)
        kg = KgonStructure(segs, 0.5)
        q = rand_curve(rng, "q", 5)
        hits = [kg.decide(q, float(d)) is not None for d in range(0, 150, 5)]
        assert hits == sorted(hits)

    def test_validation(self):
        with pytest.raises(ValueError):
            KgonStructure([], 0.5)
        kg = KgonStructure([Segment("s", [0, 0], [1, 0])], 0.5)
        with pytest.raises(ValueError):
            kg.decide(Curve("q", [[0, 0], [1, 0]]), -1.0)


class TestLinfBaseline:
    def test_linf_structure_is_root2_approx_for_l2(self, rng):
        # the exact L-inf answer is within sqrt(2) of the true L2 optimum
        for _ in range(20):
            curves = rand_curves(rng, 6, 5)
            s = rand_segment(rng, "q")
            _, d_inf = SegmentQueryIndex(curves).nearest(s)
            _, d2 = brute_l2_nearest(curves, s)
            assert d_inf <= d2 <= ROOT2 * d_inf * (1 + 1e-12)
