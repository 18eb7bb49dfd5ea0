"""Property tests of the best-first kernel, every exact structure and the
L-infinity center solvers.

``DominanceIndex.nearest`` and ``decide`` are compared with a NumPy scan
over every (shift row, row) pair; each structure's ``nearest`` with
``curveq.oracles.nn_brute`` and each center solver with
``curveq.oracles.center_brute`` on degenerate curves.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curveq import (
    Curve,
    KgonStructure,
    Segment,
    SegmentInputIndex,
    SegmentQueryIndex,
    TranslationCurveIndex,
    TranslationSegmentIndex,
    center_linf,
    center_linf_translation,
    dfd_segment_curve,
)
from curveq.nn_linf import _morton_keys
from curveq.oracles import center_brute, nn_brute
from curveq.rangetree import DominanceIndex
from conftest import brute_min_max

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Coordinates are small integers times a unit: 0.1 gives non-integer
# values, 1e9 large magnitudes, and the small range gives exact ties.
UNITS = st.sampled_from([1.0, 0.1, 0.37, 1e9])


@st.composite
def kernel_cases(draw):
    unit = draw(UNITS)
    n = draw(st.integers(1, 60))
    dims = draw(st.integers(1, 5))
    nshift = draw(st.integers(1, 4))
    ints = st.integers(-4, 4)
    if draw(st.booleans()):
        values = np.array(draw(st.lists(ints, min_size=n * dims, max_size=n * dims)),
                          dtype=float).reshape(n, dims)
    else:  # all rows equal
        values = np.tile(np.array(draw(st.lists(ints, min_size=dims, max_size=dims)),
                                  dtype=float), (n, 1))
    shifts = np.array(draw(st.lists(ints, min_size=nshift * dims, max_size=nshift * dims)),
                      dtype=float).reshape(nshift, dims)
    # tags permuted against insertion order; repeated tags model the
    # several rows (splits) of one curve
    if draw(st.booleans()):
        tags = np.array(draw(st.permutations(range(n))))
    else:
        tags = np.array(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)))
    scales = draw(st.one_of(st.none(), st.lists(st.sampled_from([1.0, 2.0]),
                                                min_size=dims, max_size=dims).map(np.array)))
    consts = draw(st.one_of(st.none(), st.lists(ints, min_size=nshift, max_size=nshift)
                            .map(lambda c: np.array(c, dtype=float) * unit)))
    block = draw(st.sampled_from([None, 1, 2, 3, 8]))
    if draw(st.booleans()):
        keys = _morton_keys(values)
    else:
        keys = np.array(draw(st.permutations(range(n))))
    return values * unit, tags, shifts * unit, scales, consts, block, keys


@SETTINGS
@given(kernel_cases(), st.integers(-6, 6))
def test_nearest_and_decide_match_brute(case, stop_steps):
    values, tags, shifts, scales, consts, block, keys = case
    idx = DominanceIndex(values, keys, tags=tags, block_size=block)
    per_row, want = brute_min_max(values, tags, shifts, scales, consts)
    got = idx.nearest(shifts, scales=scales, row_consts=consts)
    assert got == want

    # decide at the optimum, just above and below it, and at far values
    unit = max(1.0, float(np.abs(values).max()))
    for d in (want[0], want[0] + stop_steps * 0.25 * unit):
        hit = idx.nearest(shifts, scales=scales, row_consts=consts, stop=d)
        if want[0] > d:
            assert hit is None
        else:
            assert hit is not None and hit[0] <= d
            assert hit[0] in per_row[tags == hit[1]]
        if consts is None:
            tag = idx.decide(shifts, d, scales=scales)
            assert (tag is None) == (want[0] > d)
            if tag is not None:
                assert (per_row[tags == tag] <= d).any()


def test_exact_tie_straddling_block_boundary():
    # equal rows in every block; the smallest tag sits in the last block
    values = np.zeros((40, 2))
    tags = np.arange(40)[::-1]
    for block in (1, 7, 8, 13):
        idx = DominanceIndex(values, np.arange(40), tags=tags, block_size=block)
        assert idx.nearest([0.0, 0.0]) == (0.0, 0)
    # a tie split between the end of one block and the start of the next
    values = np.array([[5.0]] * 7 + [[1.0]] + [[1.0]] + [[5.0]] * 7)
    tags = np.array([9] * 7 + [4] + [2] + [9] * 7)
    idx = DominanceIndex(values, np.arange(16), tags=tags, block_size=8)
    assert idx.nearest([0.0]) == (1.0, 2)


def test_duplicate_rows_under_different_tags():
    values = np.array([[3.0, 1.0]] * 5 + [[2.0, 2.0]] * 5)
    tags = np.array([8, 3, 6, 1, 7, 5, 0, 9, 2, 4])
    idx = DominanceIndex(values, np.arange(10), tags=tags, block_size=2)
    assert idx.nearest([[0.0, 0.0]]) == (2.0, 0)
    assert idx.nearest([[0.0, 0.0]], scales=[1.0, 2.0]) == (2.0, 0)
    assert idx.nearest([[0.0, 0.0]], row_consts=[4.0]) == (4.0, 0)


def test_morton_keys_reject_more_than_64_bits():
    values = np.arange(48.0).reshape(3, 16)
    with pytest.raises(ValueError, match="64"):
        _morton_keys(values)
    with pytest.raises(ValueError, match="64"):
        _morton_keys(values[:, :5], bits=13)
    assert _morton_keys(values[:, :8]).dtype == np.uint64
    assert _morton_keys(values[:, :4], bits=16).dtype == np.uint64


def test_morton_keys_interleave_every_bit():
    # dimension 0 holds the top level, dimension 1 the bottom one: each
    # dimension's bits land at positions bit * ndim + dim
    values = np.array([[0.0, 0.0], [255.0, 0.0], [0.0, 255.0], [255.0, 255.0]])
    keys = _morton_keys(values).tolist()
    assert keys == [0, 0x5555, 0xAAAA, 0xFFFF]


# ---------------------------------------------------------------------------
# structures against the oracle on degenerate curves
# ---------------------------------------------------------------------------

@st.composite
def curve_pts(draw, unit):
    m = draw(st.integers(2, 6))
    coord = st.integers(-3, 3)
    kind = draw(st.sampled_from(["equal", "collinear", "two", "random"]))
    if kind == "equal":
        p = draw(st.tuples(coord, coord))
        pts = [p] * m
    elif kind == "collinear":
        p, v = draw(st.tuples(coord, coord)), draw(st.tuples(coord, coord))
        ts = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
        pts = [(p[0] + t * v[0], p[1] + t * v[1]) for t in ts]
    elif kind == "two":
        pts = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=2))
    else:
        pts = draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m))
    return np.array(pts, dtype=float) * unit


@st.composite
def dataset(draw, kind):
    """Degenerate curves or segments, duplicated under other ids, with ids
    that sort unlike insertion order."""
    unit = draw(UNITS)
    n = draw(st.integers(1, 8))
    shapes = draw(st.lists(curve_pts(unit), min_size=n, max_size=n))
    shapes += draw(st.lists(st.sampled_from(shapes), max_size=3))  # duplicates
    names = draw(st.permutations(range(len(shapes))))
    ids = [f"id{k:02d}" for k in names]
    if kind == "curve":
        items = [Curve(i, p) for i, p in zip(ids, shapes)]
    else:
        items = [Segment(i, p[0], p[-1]) for i, p in zip(ids, shapes)]
    queries = draw(st.lists(curve_pts(unit), min_size=1, max_size=4))
    if kind == "curve":  # segment queries, zero-length ones included
        queries = [Segment("q", p[0], p[-1]) for p in queries]
    else:
        queries = [Curve("q", p) for p in queries]
    return items, queries, unit


@pytest.mark.parametrize("structure, translation, metric", [
    pytest.param(SegmentQueryIndex, False, "linf", id="SegmentQueryIndex-False"),
    pytest.param(TranslationCurveIndex, True, "linf", id="TranslationCurveIndex-True"),
    pytest.param(SegmentQueryIndex, False, "l2", id="SegmentQueryIndex-nearest_l2"),
])
@SETTINGS
@given(data=dataset("curve"))
def test_curve_structures_match_oracle(structure, translation, metric, data):
    curves, queries, _ = data
    idx = structure(curves)
    nearest = idx.nearest_l2 if metric == "l2" else idx.nearest
    for s in queries:
        assert nearest(s) == nn_brute(curves, s, metric, translation=translation)


@pytest.mark.parametrize("structure, translation", [
    (SegmentInputIndex, False),
    (TranslationSegmentIndex, True),
])
@SETTINGS
@given(data=dataset("segment"))
def test_segment_structures_match_oracle(structure, translation, data):
    segments, queries, _ = data
    idx = structure(segments)
    for q in queries:
        assert idx.nearest_to_curve(q) == nn_brute(segments, q, "linf", translation=translation)


@SETTINGS
@given(data=dataset("segment"), eps=st.sampled_from([1.0, 0.5, 0.1]))
def test_kgon_guarantee_on_degenerate_curves(data, eps):
    segments, queries, unit = data
    by_id = {s.id: s for s in segments}
    idx = KgonStructure(segments, eps)
    tol = 1e-9 * max(1.0, 4.0 * unit)  # support values are rounded at the coordinates' scale
    for q in queries:
        _, dstar = nn_brute(segments, q, "l2")
        sid, dt = idx.nearest(q)
        assert dstar <= dt + tol
        assert dt <= (1.0 + eps) * dstar + tol
        assert dfd_segment_curve(by_id[sid], q, "l2")[0] <= dt + tol


@st.composite
def center_cases(draw):
    """1-3 degenerate curves plus at most one duplicate, with ids that sort
    unlike insertion order."""
    unit = draw(UNITS)
    shapes = draw(st.lists(curve_pts(unit), min_size=1, max_size=3))
    shapes += draw(st.lists(st.sampled_from(shapes), max_size=1))
    names = draw(st.permutations(range(len(shapes))))
    return [Curve(f"id{k:02d}", p) for k, p in zip(names, shapes)], unit


@pytest.mark.parametrize("solver, translation", [
    (center_linf, False), (center_linf_translation, True),
], ids=["center_linf", "center_linf_translation"])
@SETTINGS
@given(case=center_cases())
def test_linf_center_solvers_match_oracle(solver, translation, case):
    curves, unit = case
    sol = solver(curves)
    want = center_brute(curves, "linf", translation=translation)[0]
    # non-integer units round differences at the coordinates' scale
    tol = 0.0 if unit in (1.0, 1e9) else 1e-9 * max(1.0, 4.0 * unit)
    assert abs(sol.radius - want) <= tol
    s = Segment("ctr", sol.a, sol.b)
    for c in curves:
        moved = c.translated(sol.translation_of(c.id))
        assert dfd_segment_curve(s, moved, "linf")[0] <= sol.radius + tol


CURVE = [Curve("c", [[0, 0], [1, 1], [2, 0]])]
SEGMENT = [Segment("s", [0, 0], [1, 1])]


@pytest.mark.parametrize("build, items, rows", [
    (SegmentQueryIndex, CURVE, 2),
    (TranslationCurveIndex, CURVE, 2),
    (SegmentInputIndex, SEGMENT, 1),
    (TranslationSegmentIndex, SEGMENT, 1),
    (lambda segs: KgonStructure(segs, 0.5), SEGMENT, 1),
], ids=["SegmentQueryIndex", "TranslationCurveIndex", "SegmentInputIndex",
        "TranslationSegmentIndex", "KgonStructure"])
def test_structures_describe_their_index(build, items, rows):
    info = build(items).describe()
    assert (info["rows"], info["blocks"]) == (rows, 1)
    assert info["nbytes"] > 0 and info["block_size"] >= 1


def test_empty_curve_structures_describe_zero():
    assert SegmentQueryIndex([]).describe()["nbytes"] == 0
    assert TranslationCurveIndex([]).describe()["rows"] == 0
