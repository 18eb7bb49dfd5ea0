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
    partition_profile,
    r_lower_bound,
)
from curveq.center import MAX_RADII_VERTICES
from conftest import rand_curve, rand_curves


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


def translation_feasible(curves, splits, pairing, r, dx, dy):
    """Raw check: per curve a translation putting prefix in S, suffix in T."""
    sx, sy = pairing
    s_x = (0.0, 2 * r) if sx > 0 else (dx - 2 * r, dx)
    t_x = (dx - 2 * r, dx) if sx > 0 else (0.0, 2 * r)
    s_y = (0.0, 2 * r) if sy > 0 else (dy - 2 * r, dy)
    t_y = (dy - 2 * r, dy) if sy > 0 else (0.0, 2 * r)
    for c, i in zip(curves, splits):
        pre, suf = c.pts[:i], c.pts[i:]
        for axis, s_iv, t_iv in ((0, s_x, t_x), (1, s_y, t_y)):
            lo = max(s_iv[0] - pre[:, axis].min(), t_iv[0] - suf[:, axis].min())
            hi = min(s_iv[1] - pre[:, axis].max(), t_iv[1] - suf[:, axis].max())
            if lo > hi:
                return False
    return True


def translation_center_oracle(curves):
    dx = max(float(c.pts[:, 0].max() - c.pts[:, 0].min()) for c in curves)
    dy = max(float(c.pts[:, 1].max() - c.pts[:, 1].min()) for c in curves)
    best = math.inf
    for splits in itertools.product(*[range(1, len(c)) for c in curves]):
        for pairing in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            # candidate radii: the necessary per-curve lower-bound terms
            cands = set()
            for c, i in zip(curves, splits):
                pre, suf = c.pts[:i], c.pts[i:]
                sx, sy = pairing
                gx = (suf[:, 0].min() - pre[:, 0].max()) if sx > 0 else (pre[:, 0].min() - suf[:, 0].max())
                gy = (suf[:, 1].min() - pre[:, 1].max()) if sy > 0 else (pre[:, 1].min() - suf[:, 1].max())
                cands |= {
                    (pre[:, 0].max() - pre[:, 0].min()) / 2, (suf[:, 0].max() - suf[:, 0].min()) / 2,
                    (pre[:, 1].max() - pre[:, 1].min()) / 2, (suf[:, 1].max() - suf[:, 1].min()) / 2,
                    (dx - gx) / 4, (dy - gy) / 4,
                }
            for r in sorted(cands):
                if r >= 0 and translation_feasible(curves, splits, pairing, r, dx, dy):
                    best = min(best, r)
                    break
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
        for _ in range(100):
            n = int(rng.integers(1, 5))
            curves = rand_curves(rng, n, 4, hi=30)
            sol = center_linf_translation(curves)
            assert sol.radius == translation_center_oracle(curves)
            verify_solution(sol, curves, tol=0.0)

    def test_never_worse_than_fixed(self, rng):
        for _ in range(40):
            curves = rand_curves(rng, int(rng.integers(1, 5)), 4, hi=30)
            assert center_linf_translation(curves).radius <= center_linf(curves).radius


class TestRLowerBound:
    def test_two_vertex_gap_equals_delta(self):
        c = Curve("a", [[0, 0], [8, 0]])
        p = partition_profile(c)
        assert r_lower_bound(p, 1, (1, 1), 8.0, 0.0) == 0.0

    def test_span_case(self):
        c = Curve("b", [[0, 0], [6, 0]])
        p = partition_profile(c)
        assert r_lower_bound(p, 1, (1, 1), 8.0, 0.0) == 0.5

    def test_boundary_feasibility(self, rng):
        # feasible exactly at the bound, infeasible just below
        for _ in range(60):
            c = rand_curve(rng, "c", int(rng.integers(2, 6)), hi=20)
            dx = float(c.pts[:, 0].max() - c.pts[:, 0].min())
            dy = float(c.pts[:, 1].max() - c.pts[:, 1].min())
            p = partition_profile(c)
            i = int(rng.integers(1, len(c)))
            pairing = ((1, 1), (1, -1), (-1, 1), (-1, -1))[int(rng.integers(0, 4))]
            r = r_lower_bound(p, i, pairing, dx, dy)
            assert translation_feasible([c], [i], pairing, r, dx, dy)
            if r > 1e-6:
                assert not translation_feasible([c], [i], pairing, r - 1e-6, dx, dy)


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


class TestOrderRelations:
    def test_linf_vs_l2_radii(self, rng):
        for _ in range(30):
            curves = rand_curves(rng, int(rng.integers(1, 4)), 3, hi=20)
            r_inf = center_linf(curves).radius
            r_2 = center_l2(curves).radius
            assert r_inf <= r_2 + 1e-9
            assert r_2 <= math.sqrt(2) * r_inf * (1 + 1e-12) + 1e-9
