import itertools
import math

import numpy as np
import pytest

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
from curveq.center import MAX_RADII_VERTICES
from curveq.oracles import center_brute
from conftest import rand_curves


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
        with pytest.raises(ValueError, match="candidate_radii requires at least one curve"):
            candidate_radii([])

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


class TestOrderRelations:
    def test_linf_vs_l2_radii(self, rng):
        for _ in range(30):
            curves = rand_curves(rng, int(rng.integers(1, 4)), 3, hi=20)
            r_inf = center_linf(curves).radius
            r_2 = center_l2(curves).radius
            assert r_inf <= r_2 + 1e-9
            assert r_2 <= math.sqrt(2) * r_inf * (1 + 1e-12) + 1e-9
