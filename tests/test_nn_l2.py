import io
import math
import re
import time

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
from curveq.nn_l2 import MAX_ANN_COMPARISONS, MAX_KGON_VALUES
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


def scan_grid(center, eps, alpha, beta):
    """An exponential grid by a scan of every (row, col) of every level:
    level 1 is the center itself; a further level drops the cells inside
    the previous square or outside its own.  Returns the levels (half
    side, cell width, cells per side), a dict from (level, row, col) to
    cell id, and the cell centers in id order."""
    cx, cy = center
    levels, cells, out, half_prev = [], {}, [], 0.0
    for i in range(1, max(1, math.ceil(math.log2(2.0 * beta / alpha))) + 1):
        lam = min(2.0 ** i * alpha, 2.0 * beta)
        half = lam / 2.0
        w = eps * lam / (2.0 * ROOT2)
        n = math.ceil(lam / w) if i > 1 else 1
        levels.append((half, w, n))
        for row in range(n if i > 1 else 0):
            yl, yh = cy - half + row * w, cy - half + (row + 1) * w
            for col in range(n):
                xl, xh = cx - half + col * w, cx - half + (col + 1) * w
                inside = max(abs(xl - cx), abs(xh - cx), abs(yl - cy), abs(yh - cy)) < half_prev
                if not inside and max(xl - cx, cx - xh, yl - cy, cy - yh) <= half:
                    cells[i - 1, row, col] = len(out)
                    out.append(((xl + xh) / 2.0, (yl + yh) / 2.0))
        if i == 1:
            cells[0, 0, 0] = len(out)
            out.append((cx, cy))
        half_prev = half
    return levels, cells, np.array(out)


def ref_locate(center, levels, cells, q):
    """Cell id holding q in one center's grid, -1 outside every square:
    the per-center loop over levels, on ``scan_grid``'s dict of cells."""
    dinf = float(np.max(np.abs(q - np.asarray(center))))
    for li, (half, w, n) in enumerate(levels):
        if dinf <= half:
            if li == 0:
                return 0
            col = min(int((q[0] - (center[0] - half)) // w), n - 1)
            row = min(int((q[1] - (center[1] - half)) // w), n - 1)
            return cells[li, row, col]
    return -1


def ref_query(ann, s, eps, r):
    """``AnnStructure.query`` as a loop over curves: each curve's two grids
    located by ``ref_locate``, the strictly smaller pair distance kept."""
    alpha = eps * r / (2.0 * ROOT2)
    best = None
    for j, c in enumerate(ann.curves):
        levels, cells_f, _ = scan_grid(c.pts[0], eps, alpha, r)
        g = ref_locate(c.pts[0], levels, cells_f, s.a)
        if g < 0:
            continue
        levels, cells_l, _ = scan_grid(c.pts[-1], eps, alpha, r)
        h = ref_locate(c.pts[-1], levels, cells_l, s.b)
        if h < 0:
            continue
        k = ann.pair_start[j] + g * ann.ncells_last[j] + h
        if best is None or ann.pair_dist[k] < best[0]:
            best = (ann.pair_dist[k], ann.pair_curve[k])
    return None if best is None else (ann.curves[best[1]].id, (1.0 + eps) * r)


def pair_cells(ann, j):
    """Cell centers of curve j's first-vertex and last-vertex grids."""
    cells = np.split(ann.grid.cell_centers, np.cumsum(ann.grid.ncells)[:-1])
    return cells[j], cells[len(ann.curves) + j]


class TestExponentialGrid:
    def test_level_count_covers_the_ball(self):
        # side of the outermost square must reach 2*beta to cover the L2
        # ball of radius beta, hence ceil(log2(2 beta/alpha)) levels
        g = ExponentialGrid([0, 0], 1.0, 1 / (2 * ROOT2), 1.0)
        assert g.nlevels == math.ceil(math.log2(2 * 2 * ROOT2))  # = 3
        assert g.locate([1.0, 0.0])[0] >= 0
        assert g.locate([0.0, -1.0])[0] >= 0

    def test_innermost_square_absorbs_small_radii(self, rng):
        alpha = 0.25
        g = ExponentialGrid([[0, 0], [9, 9]], 0.5, alpha, 1.0)
        for _ in range(200):
            q = rng.uniform(-alpha, alpha, 2)
            if max(abs(q[0]), abs(q[1])) <= alpha:
                assert g.locate(q).tolist() == [0, -1]
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
                ci = g.locate(q)[0]
                assert ci >= 0
                assert math.hypot(*(q - g.cell_centers[ci])) <= bound

    def test_cell_count_bound(self):
        # count <= c * (1/eps^2) * ceil(log2(beta/alpha)) for a fixed c
        c_bound = 16.0
        for eps in (1.0, 0.5, 0.25):
            alpha, beta = eps / (2 * ROOT2), 1.0
            g = ExponentialGrid([0, 0], eps, alpha, beta)
            denom = (1 / eps**2) * math.ceil(math.log2(beta / alpha))
            assert g.ncells[0] <= c_bound * denom

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExponentialGrid([0, 0], 0.0, 1, 2)
        with pytest.raises(ValueError):
            ExponentialGrid([0, 0], 0.5, 2, 1)
        with pytest.raises(ValueError):
            ExponentialGrid([0, 0], 1.5, 1, 2)
        with pytest.raises(ValueError, match="cell width underflows"):
            ExponentialGrid([0, 0], 0.1, 5e-324, 1e-300)
        with pytest.raises(ValueError, match="at least one center"):
            ExponentialGrid(np.empty((0, 2)), 0.5, 1, 2)

    @pytest.mark.parametrize("beta", [math.inf, math.nan, 1e308])
    def test_beta_must_stay_finite(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            ExponentialGrid([0, 0], 0.5, 1.0, beta)

    def test_cells_match_a_scan_of_every_cell(self, rng):
        # counted and built cells equal a scan of every (row, col) of every
        # level; edge-aligned widths (eps = sqrt(2)/2^k) and far centers,
        # where cell edges round together, included
        centers = [[0.0, 0.0], [0.5, -0.25], [3.1, -7.7], [1e9 + 0.1, -3e8], [1e17, 5.0]]
        centers += list(rng.normal(size=(3, 2)) * [[1e-2], [1e3], [1e6]])
        for eps in (1.0, ROOT2 / 2, 0.5, 0.37, ROOT2 / 8, 0.1):
            for beta in (1.0, 0.75, 3.0, 123.456):
                alpha = eps * beta / (2 * ROOT2)
                want = [scan_grid(c, eps, alpha, beta)[2] for c in centers]
                g = ExponentialGrid(centers, eps, alpha, beta)
                assert g.ncells.tolist() == [len(w) for w in want]
                assert np.array_equal(g.cell_centers, np.vstack(want))

    def test_locate_matches_the_dict_grid(self, rng):
        # the stacked locate against the per-center loop over a dict of
        # cells, on points at random, on every cell edge, on the square
        # boundaries and outside every square
        centers = [[0.0, 0.0], [3.1, -7.7], [1e9 + 0.1, -3e8], [1e17, 5.0], [5e-324, -1e-320]]
        checked = 0
        for eps in (1.0, ROOT2 / 2, 0.5, 0.37, ROOT2 / 8, 0.1, 0.05):
            for r in (1.0, 0.75, 3.0, 123.456, 1e-3, 4096.0):
                alpha = eps * r / (2 * ROOT2)
                g = ExponentialGrid(centers, eps, alpha, r)
                for j, c in enumerate(centers):
                    levels, cells, _ = scan_grid(c, eps, alpha, r)
                    c = np.array(c)
                    pts = list(c + rng.uniform(-1.2 * r, 1.2 * r, size=(20, 2)))
                    for half, w, n in levels:
                        for k in sorted({0, 1, n // 2, n - 1, n}):
                            pts += [[c[0] - half + k * w, c[1]], [c[0], c[1] - half + k * w]]
                        out = math.nextafter(half, math.inf)
                        pts += [c + [half, half], c - [half, half], c + [half, -half],
                                c + [out, 0.0], c - [0.0, out]]
                    pts += [c + [3 * r, 0.0], c - [r, 5 * r]]
                    for q in np.array(pts):
                        assert g.locate(q)[j] == ref_locate(c, levels, cells, q)
                        checked += 1
        assert checked > 10000


class TestAnnStructure:
    def test_single_curve_annotations(self, rng):
        c = Curve("only", [[0, 0], [7, 3]])
        ann = AnnStructure([c], 0.5, 2.0)
        assert (ann.pair_curve == 0).all()

    def test_annotation_equals_brute_minimum(self, rng):
        curves = rand_curves(rng, 3, 4, hi=20)
        ann = AnnStructure(curves, 1.0, 5.0)
        for j in range(len(curves)):
            cf, cl = pair_cells(ann, j)
            # spot-check a handful of pairs
            for _ in range(20):
                g = int(rng.integers(0, len(cf)))
                h = int(rng.integers(0, len(cl)))
                s = Segment("p", cf[g], cl[h])
                dists = [dfd_segment_curve(s, c, "l2")[0] for c in curves]
                k = ann.pair_start[j] + g * ann.ncells_last[j] + h
                assert ann.pair_dist[k] == pytest.approx(min(dists), abs=1e-12)
                assert dists[ann.pair_curve[k]] == pytest.approx(min(dists), abs=1e-12)

    def test_query_matches_the_per_curve_loop(self, rng):
        # the one-pass query against a loop over curves with dict-grid
        # locates, at units where cell edges round differently; near and
        # far segments, and repeated curves for tied annotations
        checked = 0
        for unit in (1.0, 0.37, -1e9, -5e-324):
            for _ in range(3):
                curves = rand_curves(rng, int(rng.integers(2, 6)), 5, hi=30)
                curves.append(Curve("dup", curves[0].pts))
                curves = [Curve(c.id, c.pts * unit) for c in curves]
                for eps, rs in ((1.0, 4.0), (0.5, 9.0)):
                    r = rs * abs(unit)
                    ann = AnnStructure(curves, eps, r)
                    for _ in range(15):
                        c = curves[int(rng.integers(len(curves)))]
                        off = rng.integers(-int(rs), int(rs) + 1, size=(2, 2)) * unit
                        s = Segment("q", c.pts[0] + off[0], c.pts[-1] + off[1])
                        assert ann.query(s) == ref_query(ann, s, eps, r)
                        checked += 1
        assert checked == 360

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

    @pytest.mark.parametrize("r", [math.inf, math.nan, 1e308])
    def test_radius_must_stay_finite(self, r):
        with pytest.raises(ValueError, match="r must be finite"):
            AnnStructure([Curve("c", [[0, 0], [1, 0]])], 0.5, r)

    def test_radius_overflow_is_a_data_error(self, tmp_path):
        save_curves(tmp_path / "data.jsonl", [Curve("c", [[0, 0], [1, 0], [2, 1]])])
        save_curves(tmp_path / "q.jsonl", [Curve("q", [[0, 0], [1, 1]])])
        for r in ("1e308", "inf", "nan"):
            err = io.StringIO()
            rc = cli_dispatch(["nn", "--data", str(tmp_path / "data.jsonl"),
                               "--queries", str(tmp_path / "q.jsonl"), "--metric", "l2",
                               "--epsilon", "0.5", "--radius", r], out=io.StringIO(), err=err)
            assert rc == 1 and err.getvalue().startswith("error: r must be finite")
            assert "Traceback" not in err.getvalue()

    def test_tiny_radius_names_r_and_eps(self, tmp_path):
        # eps*r/(2*sqrt(2)) underflows to 0 (1e-323 at eps 0.5), or a
        # level's cell width eps*lambda/(2*sqrt(2)) does (45 ulps at 0.1)
        save_curves(tmp_path / "data.jsonl", [Curve("c", [[0, 0], [1e-320, 0]])])
        save_curves(tmp_path / "q.jsonl", [Curve("q", [[0, 0], [1e-320, 0]])])
        for eps, r in (("0.5", "1e-323"), ("0.1", repr(45 * 5e-324))):
            err = io.StringIO()
            rc = cli_dispatch(["nn", "--data", str(tmp_path / "data.jsonl"),
                               "--queries", str(tmp_path / "q.jsonl"), "--metric", "l2",
                               "--direction", "segment-query", "--epsilon", eps,
                               "--radius", r], out=io.StringIO(), err=err)
            assert rc == 1
            assert err.getvalue().startswith(f"error: r={float(r)!r} is too small for eps={float(eps)!r}")

    def test_tiny_eps_refused_before_building(self):
        # at eps=0.001 every grid has millions of cells; counting them
        # takes a binary search per level, not a scan
        curves = [Curve(f"c{k}", [[0, 0], [1, 2], [3, 1]]) for k in range(6)]
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="refused"):
            AnnStructure(curves, 0.001, 10.0)
        assert time.perf_counter() - t0 < 1.0

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


def loop_kgon_sides(eps):
    """Smallest k >= 3 with 1/cos(pi/k) <= 1 + eps, by stepping k."""
    k = 3
    while 1.0 / math.cos(math.pi / k) > 1.0 + eps:
        k += 1
    return k


class TestKgon:
    def test_side_counts(self):
        assert kgon_sides(0.1) == 8
        assert kgon_sides(1.0) == 3

    def test_side_counts_match_the_loop(self):
        # a sweep from 1 down to 1e-7 (k = 7025), plus eps at and one step
        # either side of the thresholds 1/cos(pi/k) - 1
        sweep = np.logspace(0, -7, 400).tolist()
        edges = [1.0 / math.cos(math.pi / k) - 1.0 for k in range(4, 3000, 37)]
        sweep += edges + [math.nextafter(e, 0) for e in edges] + [math.nextafter(e, 1) for e in edges]
        for eps in sweep:
            assert kgon_sides(eps) == loop_kgon_sides(eps), eps

    def test_tiny_eps_is_refused_before_building(self, tmp_path):
        with pytest.raises(ValueError, match="1 \\+ eps rounds to 1"):
            kgon_sides(1e-17)
        segs = [Segment(f"s{k}", [k, 0], [k, 1]) for k in range(800)]
        k = kgon_sides(1e-7)
        with pytest.raises(ValueError, match=re.escape(
                f"eps=1e-07 refused: k={k} sides make {2 * k * 800:.3g} support values")):
            KgonStructure(segs, 1e-7)
        assert 2 * k * 700 <= MAX_KGON_VALUES < 2 * k * 800
        save_curves(tmp_path / "data.jsonl", [Curve(s.id, [s.a, s.b]) for s in segs[:3]])
        save_curves(tmp_path / "q.jsonl", [Curve("q", [[0, 0], [1, 1], [2, 0]])])
        t0 = time.perf_counter()
        err = io.StringIO()
        rc = cli_dispatch(["nn", "--data", str(tmp_path / "data.jsonl"),
                           "--queries", str(tmp_path / "q.jsonl"), "--metric", "l2",
                           "--direction", "curve-query", "--epsilon", "1e-17"],
                          out=io.StringIO(), err=err)
        assert rc == 1 and "eps=1e-17" in err.getvalue()
        assert time.perf_counter() - t0 < 1.0

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

    def test_validation(self):
        with pytest.raises(ValueError):
            KgonStructure([], 0.5)

    @pytest.mark.parametrize("eps", [0.0, -1.0, 1.5, math.nan])
    def test_eps_validation(self, eps):
        seg = [Segment("s", [0, 0], [1, 1])]
        with pytest.raises(ValueError, match=r"eps must be in \(0, 1\]"):
            KgonStructure(seg, eps)
        # the k-gon's normals come first, so an empty list reports eps too
        with pytest.raises(ValueError, match=r"eps must be in \(0, 1\]"):
            KgonStructure([], eps)


class TestLinfBaseline:
    def test_linf_structure_is_root2_approx_for_l2(self, rng):
        # the exact L-inf answer is within sqrt(2) of the true L2 optimum
        for _ in range(20):
            curves = rand_curves(rng, 6, 5)
            s = rand_segment(rng, "q")
            _, d_inf = SegmentQueryIndex(curves).nearest(s)
            _, d2 = brute_l2_nearest(curves, s)
            assert d_inf <= d2 <= ROOT2 * d_inf * (1 + 1e-12)
