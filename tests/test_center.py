import itertools
import math

import numpy as np
import pytest
from hypothesis import given

from curveq import (
    Curve,
    Segment,
    candidate_radii,
    center_l2,
    center_l2_decision,
    center_linf,
    center_linf_translation,
    dfd_segment_curve,
    min_enclosing_ball,
)
from curveq.center import _L2_TOL, MAX_RADII_VERTICES, _rowdot
from curveq.geometry import circle_intersections, circumcircle
from curveq.oracles import center_brute
from conftest import rand_curves
from test_kernel import SETTINGS, center_cases


def linf_center_oracle(curves):
    """Exhaustive split enumeration; cost = larger half-extent of the unions."""
    best = math.inf
    for splits in itertools.product(*[range(1, len(c)) for c in curves]):
        pre = np.vstack([c.pts[:i] for c, i in zip(curves, splits)])
        suf = np.vstack([c.pts[i:] for c, i in zip(curves, splits)])
        cost = max(
            pre[:, 0].max() - pre[:, 0].min(), pre[:, 1].max() - pre[:, 1].min(),
            suf[:, 0].max() - suf[:, 0].min(), suf[:, 1].max() - suf[:, 1].min(),
        ) / 2.0
        best = min(best, cost)
    return best


def l2_center_oracle(curves):
    best = math.inf
    for splits in itertools.product(*[range(1, len(c)) for c in curves]):
        pre = np.vstack([c.pts[:i] for c, i in zip(curves, splits)])
        suf = np.vstack([c.pts[i:] for c, i in zip(curves, splits)])
        best = min(best, max(min_enclosing_ball(pre)[1], min_enclosing_ball(suf)[1]))
    return best


# The scalar loops that candidate_radii and center_l2_decision replaced by
# array passes, kept as references: the arrays must round as these do.

def ref_circle_intersections(c1, c2, r):
    """Intersection points of two circles of common radius r, one pair."""
    p = np.asarray(c1, dtype=float)
    q = np.asarray(c2, dtype=float)
    d = math.hypot(*(q - p))
    if d == 0.0 or d > 2.0 * r:
        return np.empty((0, 2))
    mid = (p + q) / 2.0
    h2 = r * r - (d / 2.0) ** 2
    h = math.sqrt(h2) if h2 > 0.0 else 0.0
    if h == 0.0:
        return mid.reshape(1, 2)
    u = (q - p) / d
    perp = np.array([-u[1], u[0]])
    return np.array([mid + h * perp, mid - h * perp])


def ref_candidate_radii(curves):
    """Zero, every pair's half distance, every acute triple's circumradius."""
    pts = np.vstack([c.pts for c in curves])
    n = pts.shape[0]
    vals = [0.0]
    for i in range(n):
        for j in range(i + 1, n):
            vals.append(math.hypot(*(pts[i] - pts[j])) / 2.0)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ab = pts[j] - pts[i]
                ac = pts[k] - pts[i]
                bc = pts[k] - pts[j]
                if (np.dot(ab, ac) > 0 and np.dot(-ab, bc) > 0 and np.dot(-ac, -bc) > 0):
                    cc = circumcircle(pts[i], pts[j], pts[k])
                    if cc is not None:
                        vals.append(cc[1])
    return np.unique(np.asarray(vals))


def ref_center_l2_decision(curves, r):
    """Candidate centers pair by pair, leads curve by curve."""
    verts = np.vstack([c.pts for c in curves])
    sizes = np.array([len(c) for c in curves])
    offsets = np.cumsum(sizes) - sizes
    tol = max(_L2_TOL, 16 * float(np.spacing(np.abs(verts).max())))
    cands = [verts]
    nv = verts.shape[0]
    for i in range(nv):
        for j in range(i + 1, nv):
            inter = ref_circle_intersections(verts[i], verts[j], r)
            if inter.size:
                cands.append(inter)
    cand = np.vstack(cands)
    diff = cand[:, None, :] - verts[None, :, :]
    within = np.hypot(diff[:, :, 0], diff[:, :, 1]) <= r + tol
    leads = np.empty((cand.shape[0], len(curves)), dtype=int)
    for j, (off, m) in enumerate(zip(offsets, sizes)):
        block = within[:, off:off + m]
        leads[:, j] = np.where(block.all(axis=1), m, np.argmin(block, axis=1))
    for row in np.nonzero((leads > 0).all(axis=1))[0]:
        splits = tuple(np.minimum(leads[row], sizes - 1).tolist())
        center, radius = min_enclosing_ball(np.vstack([c.pts[s:] for c, s in zip(curves, splits)]))
        if radius <= r + tol:
            return cand[row], center, {c.id: s for c, s in zip(curves, splits)}
    return None


def assert_same_l2_answers(curves):
    """candidate_radii and center_l2_decision equal the references bit
    for bit, -0.0 included, at every candidate radius."""
    radii = candidate_radii(curves)
    assert radii.tobytes() == ref_candidate_radii(curves).tobytes()
    for r in radii:
        got, want = center_l2_decision(curves, float(r)), ref_center_l2_decision(curves, float(r))
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
            assert got[2] == want[2]


def verify_solution(sol, curves, tol=1e-9):
    """Re-check the witness with the base distance routine."""
    s = Segment("ctr", sol.a, sol.b)
    worst = 0.0
    for c in curves:
        moved = c.translated(sol.translation_of(c.id))
        worst = max(worst, dfd_segment_curve(s, moved, sol.metric)[0])
    assert worst <= sol.radius + tol
    return worst


class TestCenterLinf:
    def test_two_parallel_lines(self):
        cs = [Curve("a", [[0, 0], [10, 0]]), Curve("b", [[0, 2], [10, 2]])]
        sol = center_linf(cs)
        assert sol.radius == 1.0
        verify_solution(sol, cs, tol=0.0)

    def test_single_two_vertex_curve(self):
        sol = center_linf([Curve("a", [[3, 4], [9, 1]])])
        assert sol.radius == 0.0

    def test_matches_oracle(self, rng):
        for _ in range(120):
            n = int(rng.integers(1, 5))
            curves = rand_curves(rng, n, 4, hi=30)
            sol = center_linf(curves)
            assert sol.radius == linf_center_oracle(curves)
            verify_solution(sol, curves, tol=0.0)

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            center_linf([Curve("a", [[0, 0]])])


class TestCenterLinfTranslation:
    def test_single_curve_costs_nothing(self):
        assert center_linf_translation([Curve("a", [[0, 0], [8, 0]])]).radius == 0.0

    def test_span_mismatch_pair(self):
        cs = [Curve("a", [[0, 0], [8, 0]]), Curve("b", [[0, 0], [6, 0]])]
        sol = center_linf_translation(cs)
        assert sol.radius == 0.5
        verify_solution(sol, cs, tol=0.0)

    def test_matches_oracle(self, rng):
        # exact radius 0, not 0.15; the witness translation is rounded
        cases = [([Curve("a", [[0, -0.1], [0, 0.2]])], 1e-15)]
        cases += [(rand_curves(rng, int(rng.integers(1, 5)), 4, hi=30), 0.0)
                  for _ in range(100)]
        for curves, tol in cases:
            sol = center_linf_translation(curves)
            assert sol.radius == center_brute(curves, "linf", translation=True)[0]
            verify_solution(sol, curves, tol=tol)

    def test_never_worse_than_fixed(self, rng):
        for _ in range(40):
            curves = rand_curves(rng, int(rng.integers(1, 5)), 4, hi=30)
            assert center_linf_translation(curves).radius <= center_linf(curves).radius


class TestCandidateRadii:
    def test_two_vertices(self):
        out = candidate_radii([Curve("a", [[0, 0], [2, 0]])])
        assert out.tolist() == [0.0, 1.0]

    def test_equilateral_triangle(self):
        h = math.sqrt(3) / 2
        out = candidate_radii([Curve("a", [[0, 0], [1, 0], [0.5, h]])])
        assert len(out) == 3
        assert out[0] == 0.0
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1 / math.sqrt(3))

    def test_contains_optimum(self, rng):
        for _ in range(40):
            curves = rand_curves(rng, int(rng.integers(1, 4)), 3, hi=20)
            opt = l2_center_oracle(curves)
            radii = candidate_radii(curves)
            assert np.min(np.abs(radii - opt)) <= 1e-9

    def test_empty_list_is_refused(self):
        with pytest.raises(ValueError, match="expected a non-empty curve list"):
            candidate_radii([])

    def test_row_dot_rounds_as_np_dot(self):
        # the acute test's dot products must round as np.dot's do (one
        # fused multiply-add on this BLAS), or the candidate set changes
        rng = np.random.default_rng(7)
        for scale in (1.0, 0.37, 1e9, 1e-300, 5e-324):
            x, y = (rng.standard_normal((4000, 2)) * scale for _ in range(2))
            want = np.array([np.dot(a, b) for a, b in zip(x, y)])
            assert _rowdot(x, y).tobytes() == want.tobytes()

    def test_too_many_vertices_refused(self):
        n = MAX_RADII_VERTICES // 2 + 1
        curves = [Curve(c, np.arange(2.0 * n).reshape(n, 2)) for c in "ab"]
        for solve in (candidate_radii, center_l2):
            with pytest.raises(ValueError, match=f"{2 * n} vertices refused"):
                solve(curves)


class TestCenterL2:
    def test_decision_trivial(self):
        res = center_l2_decision([Curve("a", [[0, 0], [10, 0]])], 0.0)
        assert res is not None
        a, b, splits = res
        assert np.allclose(a, [0, 0]) and np.allclose(b, [10, 0])

    def test_decision_parallel_lines(self):
        cs = [Curve("a", [[0, 0], [10, 0]]), Curve("b", [[0, 2], [10, 2]])]
        assert center_l2_decision(cs, 1.0) is not None
        assert center_l2_decision(cs, 0.99) is None

    def test_decision_monotone(self, rng):
        for _ in range(20):
            curves = rand_curves(rng, 2, 3, hi=15)
            opt = l2_center_oracle(curves)
            for delta in (-0.05, 0.05, 1.0):
                r = opt + delta
                if r < 0:
                    continue
                feasible = center_l2_decision(curves, r) is not None
                assert feasible == (r >= opt - 1e-9)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            center_l2_decision([Curve("a", [[0, 0], [1, 0]])], -1.0)

    def test_single_curve(self):
        assert center_l2([Curve("a", [[0, 0], [10, 0]])]).radius == 0.0

    def test_parallel_lines(self):
        cs = [Curve("a", [[0, 0], [10, 0]]), Curve("b", [[0, 2], [10, 2]])]
        sol = center_l2(cs)
        assert sol.radius == pytest.approx(1.0, abs=1e-9)
        verify_solution(sol, cs)

    def test_matches_oracle(self, rng):
        for _ in range(60):
            curves = rand_curves(rng, int(rng.integers(1, 4)), 3, hi=20)
            sol = center_l2(curves)
            assert sol.radius == pytest.approx(l2_center_oracle(curves), abs=1e-9)
            verify_solution(sol, curves)

    def test_large_coordinates(self):
        # the optimal a is the midpoint of two vertices 3.2e9 apart; its
        # distance to them rounds well above an absolute 1e-9 slack
        cs = [Curve("a", [[3e9, -2e9], [0.0, -3e9], [1e9, 3e9]])]
        assert center_l2(cs).radius == center_brute(cs, "l2")[0] == math.hypot(3e9, 1e9) / 2

    def test_large_offset_small_spread(self):
        # optimum 1 (split {p0} | {p1, p2}); the pair p0, p2 gives a
        # candidate radius 6.5e-4 below it, which a slack of 1e-3 would accept
        x = y = 1e9
        cs = [Curve("a", [[x - 0.25, y + 1.983], [x + 2.0, y], [x, y]])]
        radii = candidate_radii(cs)
        assert 1.0 - 1e-3 < radii[1] < radii[2] == 1.0
        assert center_l2(cs).radius == center_brute(cs, "l2")[0] == 1.0


class TestL2ArrayPasses:
    """The array passes of candidate_radii, center_l2_decision and
    circle_intersections against the scalar loops above, bit for bit."""

    @SETTINGS
    @given(case=center_cases())
    def test_degenerate_sets_match_the_loops(self, case):
        assert_same_l2_answers(case[0])

    def test_seeded_sets_match_the_loops(self, rng):
        for unit in (1.0, 0.1, 0.37, -0.37, 1e9, 5e-324, 1e-310):
            for _ in range(4):
                curves = rand_curves(rng, int(rng.integers(1, 4)), 4, lo=-10, hi=10)
                curves = [Curve(c.id, c.pts * unit) for c in curves]
                curves.append(Curve("dup", curves[0].pts))
                assert_same_l2_answers(curves)

    def test_stacked_circle_intersections_equal_per_pair_calls(self, rng):
        # tangent (d = 2r), coincident, distant and crossing pairs in one
        # stack; at 5e-324, r * r underflows and every meeting pair is tangent
        seen = set()
        for unit in (1.0, 0.37, -1e9, 5e-324):
            p = rng.integers(-3, 4, size=(60, 2)) * unit
            q = np.vstack([p[:20], p[20:40] + [[2 * unit, 0.0]], rng.integers(-3, 4, size=(20, 2)) * unit])
            for r in (0.0, 0.5 * abs(unit), abs(unit), math.sqrt(2) * abs(unit), 2.5 * abs(unit)):
                per_pair = [ref_circle_intersections(a, b, r) for a, b in zip(p, q)]
                assert all(circle_intersections(a, b, r).tobytes() == w.tobytes()
                           for a, b, w in zip(p, q, per_pair))
                assert circle_intersections(p, q, r).tobytes() == np.vstack(per_pair).tobytes()
                seen.update(len(w) for w in per_pair)
        assert seen == {0, 1, 2}
        # random reals, where np.hypot's rounding differs from math.hypot's
        p, q = rng.standard_normal((2, 3000, 2))
        per_pair = [ref_circle_intersections(a, b, 1.2) for a, b in zip(p, q)]
        assert circle_intersections(p, q, 1.2).tobytes() == np.vstack(per_pair).tobytes()


class TestOrderRelations:
    def test_linf_vs_l2_radii(self, rng):
        for _ in range(30):
            curves = rand_curves(rng, int(rng.integers(1, 4)), 3, hi=20)
            r_inf = center_linf(curves).radius
            r_2 = center_l2(curves).radius
            assert r_inf <= r_2 + 1e-9
            assert r_2 <= math.sqrt(2) * r_inf * (1 + 1e-12) + 1e-9
