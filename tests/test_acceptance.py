"""Acceptance suite: one test per criterion, each printing a PASS line.

All random instances use integer coordinates so exact-equality claims are
meaningful, and every test pins its seed.  Run with ``pytest -s`` (or
``-rA``) to see the per-criterion lines.
"""

import contextlib
import io
import math
import time
from pathlib import Path

import numpy as np
import pytest

from curveq import (
    AnnStructure,
    Curve,
    KgonStructure,
    Segment,
    SegmentInputIndex,
    SegmentQueryIndex,
    TranslationCurveIndex,
    TranslationSegmentIndex,
    center_l2,
    center_linf,
    center_linf_translation,
    dfd_dp,
    dfd_segment_curve,
    kgon_sides,
)
from curveq.cli import cli_dispatch
from curveq.nn_l2 import ExponentialGrid
from curveq.oracles import BruteForceNN, center_brute, nn_brute
from conftest import rand_curve, rand_curves, rand_segment, rand_segments

DATA = Path(__file__).parent / "data"
ROOT2 = math.sqrt(2.0)


def report(line: str) -> None:
    print(f"\n[PASS] {line}")


def test_criterion_1_distance_correctness():
    """dfd_segment_curve == dfd_dp on 1000 random pairs, < 5 s."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_l2 = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 31))
        c = rand_curve(rng, "c", m)
        s = rand_segment(rng, "s")
        assert dfd_segment_curve(s, c, "linf")[0] == dfd_dp(s.as_curve(), c, "linf")
        gap = abs(dfd_segment_curve(s, c, "l2")[0] - dfd_dp(s.as_curve(), c, "l2"))
        worst_l2 = max(worst_l2, gap)
        assert gap <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(f"criterion 1: 1000 pairs exact (L-inf) / <=1e-12 (L2, worst {worst_l2:.1e}), "
           f"{elapsed:.2f}s < 5s [seed 1001]")


def test_criterion_2_nnc_exactness_linf():
    """Structure answers equal nn_brute exactly, both directions, < 60 s."""
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):  # curves indexed, segment queries
        n = int(rng.integers(1, 51))
        curves = rand_curves(rng, n, 20)
        idx = SegmentQueryIndex(curves)
        for _ in range(10):
            s = rand_segment(rng, "q")
            assert idx.nearest(s) == nn_brute(curves, s, "linf")
            checked += 1
    for _ in range(100):  # segments indexed, curve queries
        n = int(rng.integers(1, 51))
        segs = rand_segments(rng, n)
        idx = SegmentInputIndex(segs)
        for _ in range(10):
            q = rand_curve(rng, "q", int(rng.integers(2, 21)))
            assert idx.nearest_to_curve(q) == nn_brute(segs, q, "linf")
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(f"criterion 2: {checked} L-inf queries over 200 datasets match brute "
           f"exactly, {elapsed:.1f}s < 60s [seed 1002]")


def test_criterion_3_translation_exactness_and_invariance():
    """Translation answers equal the oracles exactly; translation-invariant."""
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 51))
        curves = rand_curves(rng, n, 20)
        idx = TranslationCurveIndex(curves)
        moved = [c.translated(rng.integers(-500, 501, 2)) for c in curves]
        midx = TranslationCurveIndex(moved)
        for _ in range(10):
            s = rand_segment(rng, "q")
            ans = idx.nearest(s)
            assert ans == nn_brute(curves, s, "linf", translation=True)
            assert midx.nearest(s) == ans
            checked += 1
    for _ in range(100):
        n = int(rng.integers(1, 51))
        segs = rand_segments(rng, n)
        idx = TranslationSegmentIndex(segs)
        moved = [sg.translated(rng.integers(-500, 501, 2)) for sg in segs]
        midx = TranslationSegmentIndex(moved)
        for _ in range(10):
            q = rand_curve(rng, "q", int(rng.integers(2, 21)))
            ans = idx.nearest_to_curve(q)
            assert ans == nn_brute(segs, q, "linf", translation=True)
            assert midx.nearest_to_curve(q) == ans
            checked += 1
    elapsed = time.perf_counter() - t0
    report(f"criterion 3: {checked} translation queries over 200 datasets match "
           f"the interval oracle exactly and ignore input translations, "
           f"{elapsed:.1f}s [seed 1003]")


def test_criterion_4_ann_guarantee():
    """(1+eps, r) contract holds with zero violations; cell counts bounded."""
    rng = np.random.default_rng(1004)
    c_bound = 16.0
    measured_c = 0.0
    for eps in (1.0, 0.5, 0.25):
        for _ in range(100):
            curves = rand_curves(rng, int(rng.integers(2, 5)), 4, hi=40)
            s = rand_segment(rng, "q", hi=40)
            dstar = min(dfd_segment_curve(s, c, "l2")[0] for c in curves)
            r = max(dstar, 1e-3) * float(rng.uniform(1.0, 2.5))
            ann = AnnStructure(curves, eps, r)
            hit = ann.query(s)
            assert hit is not None, "d* <= r, so the query must return a curve"
            cid, bound = hit
            true_d = dfd_segment_curve(s, next(c for c in curves if c.id == cid), "l2")[0]
            assert true_d <= (1.0 + eps) * r, "returned curve must be within (1+eps)r"
            assert bound == (1.0 + eps) * r
            grid = ann.grid  # every curve's first and last grid
            denom = (1.0 / eps**2) * math.ceil(math.log2(grid.beta / grid.alpha))
            measured_c = max(measured_c, grid.ncells.max() / denom)
    assert measured_c <= c_bound
    report(f"criterion 4: zero violations over 300 instances (eps in 1/.5/.25); "
           f"grid cell constant c = {measured_c:.2f} <= {c_bound} [seed 1004]")


def test_criterion_5_kgon_guarantee():
    """d* <= d~ <= (1+eps) d* with zero violations; k follows the cosine rule."""
    assert kgon_sides(0.1) == 8
    assert kgon_sides(1.0) == 3
    rng = np.random.default_rng(1005)
    for eps in (1.0, 0.1):
        for _ in range(200):
            segs = rand_segments(rng, int(rng.integers(1, 12)), hi=60)
            q = rand_curve(rng, "q", int(rng.integers(2, 8)), hi=60)
            dstar = min(dfd_segment_curve(sg, q, "l2")[0] for sg in segs)
            sid, dt = KgonStructure(segs, eps).nearest(q)
            assert dstar <= dt <= (1.0 + eps) * dstar or (dstar == 0.0 and dt == 0.0)
    report("criterion 5: zero violations over 2x200 instances (eps in {1, 0.1}); "
           "k(0.1)=8, k(1)=3 [seed 1005]")


def test_criterion_6_center_optimality():
    """All three solvers match the exhaustive oracle; witnesses re-verify."""
    rng = np.random.default_rng(1006)

    def verify(sol, curves):
        s = Segment("ctr", sol.a, sol.b)
        for c in curves:
            moved = c.translated(sol.translation_of(c.id))
            assert dfd_segment_curve(s, moved, sol.metric)[0] <= sol.radius + 1e-9

    t0 = time.perf_counter()
    for _ in range(500):
        curves = rand_curves(rng, int(rng.integers(1, 5)), 4, hi=40)
        sol = center_linf(curves)
        assert sol.radius == center_brute(curves, "linf")[0]
        verify(sol, curves)
    for _ in range(500):
        curves = rand_curves(rng, int(rng.integers(1, 5)), 4, hi=40)
        sol = center_linf_translation(curves)
        assert sol.radius == center_brute(curves, "linf", translation=True)[0]
        verify(sol, curves)
    worst = 0.0
    for _ in range(500):
        curves = rand_curves(rng, int(rng.integers(1, 5)), 4, hi=40)
        sol = center_l2(curves)
        gap = abs(sol.radius - center_brute(curves, "l2")[0])
        worst = max(worst, gap)
        assert gap <= 1e-9
        verify(sol, curves)
    elapsed = time.perf_counter() - t0
    report(f"criterion 6: 3x500 instances optimal (L-inf exact, L2 worst gap "
           f"{worst:.1e} <= 1e-9), all witnesses re-verified, {elapsed:.1f}s [seed 1006]")


def test_criterion_7_order_relations():
    """r*(translation) <= r*(fixed); d_inf <= d_2 <= sqrt(2) d_inf."""
    rng = np.random.default_rng(1007)
    for _ in range(200):
        curves = rand_curves(rng, int(rng.integers(1, 5)), 4, hi=40)
        r_fix = center_linf(curves).radius
        r_tr = center_linf_translation(curves).radius
        r_l2 = center_l2(curves).radius
        assert r_tr <= r_fix
        assert r_fix <= r_l2 + 1e-9
        assert r_l2 <= ROOT2 * r_fix * (1 + 1e-12) + 1e-9
    for _ in range(500):
        c1 = rand_curve(rng, "a", int(rng.integers(1, 10)))
        c2 = rand_curve(rng, "b", int(rng.integers(1, 10)))
        di = dfd_dp(c1, c2, "linf")
        d2 = dfd_dp(c1, c2, "l2")
        assert di <= d2 <= ROOT2 * di * (1 + 1e-12)
    report("criterion 7: order relations hold on 200 center instances and "
           "500 distance pairs [seed 1007]")


def test_criterion_8_scaling_smoke():
    """Doubling n grows structure query time by < 2.0x; brute by ~2x."""
    rng = np.random.default_rng(1008)
    m = 10
    curves = [
        Curve(f"c{j:06d}", rng.integers(0, 1001, size=(m, 2)).astype(float))
        for j in range(20000)
    ]
    queries = [
        Segment(f"q{k}", rng.integers(0, 1001, 2).astype(float),
                rng.integers(0, 1001, 2).astype(float))
        for k in range(1000)
    ]
    sizes = (10000, 20000)
    idx = {n: SegmentQueryIndex(curves[:n]) for n in sizes}
    brute = {n: BruteForceNN(curves[:n], "linf") for n in sizes}
    # each query runs on both sizes back to back, in alternating order, so
    # machine drift over the run enters both sums alike
    struct_t, brute_t = dict.fromkeys(sizes, 0.0), dict.fromkeys(sizes, 0.0)
    for k, q in enumerate(queries):
        for n in (sizes if k % 2 == 0 else sizes[::-1]):
            t0 = time.perf_counter()
            idx[n].nearest(q)
            t1 = time.perf_counter()
            brute[n].query(q)
            struct_t[n] += t1 - t0
            brute_t[n] += time.perf_counter() - t1
    for n in sizes:
        struct_t[n] /= len(queries)
        brute_t[n] /= len(queries)
        for q in queries[:25]:
            assert idx[n].nearest(q) == brute[n].query(q)
    s_ratio = struct_t[20000] / struct_t[10000]
    b_ratio = brute_t[20000] / brute_t[10000]
    assert s_ratio < 2.0
    assert b_ratio > 1.5
    assert s_ratio < b_ratio

    curves_big = [
        Curve(f"c{j:04d}", rng.integers(0, 1001, size=(100, 2)).astype(float))
        for j in range(1000)
    ]
    t0 = time.perf_counter()
    center_linf(curves_big)
    center_elapsed = time.perf_counter() - t0
    assert center_elapsed < 10.0
    report(f"criterion 8: structure query ratio {s_ratio:.2f} < 2.0 "
           f"({struct_t[10000]*1e3:.2f} -> {struct_t[20000]*1e3:.2f} ms) vs brute "
           f"{b_ratio:.2f} ({brute_t[10000]*1e3:.2f} -> {brute_t[20000]*1e3:.2f} ms); "
           f"center n=1e3 m=1e2 in {center_elapsed:.2f}s < 10s [seed 1008]")


def test_criterion_9_cli_conformance():
    """Golden-file equality, brute A/B equality, documented exit codes."""
    goldens = [
        ("nn_linf_segq.jsonl",
         ["nn", "--data", str(DATA / "curves_small.jsonl"),
          "--queries", str(DATA / "queries_seg.jsonl"), "--metric", "linf"]),
        ("nn_trans_curveq.jsonl",
         ["nn", "--data", str(DATA / "segments_small.jsonl"),
          "--queries", str(DATA / "queries_curves.jsonl"),
          "--metric", "linf", "--translation"]),
        ("center_l2.jsonl",
         ["center", "--data", str(DATA / "bundle.jsonl"), "--metric", "l2"]),
    ]
    for golden, argv in goldens:
        out = io.StringIO()
        assert cli_dispatch(argv, out=out, err=io.StringIO()) == 0
        assert out.getvalue() == (DATA / "golden" / golden).read_text()

    base = ["nn", "--data", str(DATA / "curves_small.jsonl"),
            "--queries", str(DATA / "queries_seg.jsonl"), "--metric", "linf"]
    o1, o2 = io.StringIO(), io.StringIO()
    assert cli_dispatch(base, out=o1, err=io.StringIO()) == 0
    assert cli_dispatch(base + ["--brute"], out=o2, err=io.StringIO()) == 0
    assert o1.getvalue() == o2.getvalue()

    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):  # argparse prints usage directly
        assert cli_dispatch(["nn", "--bogus"], out=sink, err=sink) == 2
    assert cli_dispatch(["nn", "--data", "/missing.jsonl", "--queries",
                         "/missing.jsonl", "--metric", "linf"],
                        out=sink, err=sink) == 1
    report("criterion 9: three golden files byte-identical, brute A/B equal, "
           "exit codes 0/1/2 as documented")
