"""Property tests of the best-first kernel, every exact structure, the
center solvers and the flat partition profile.

``DominanceIndex.nearest`` and ``within`` are compared with a NumPy scan
over every (shift row, row) pair; each structure's ``nearest`` with
``curveq.oracles.nn_brute``, each center solver with
``curveq.oracles.center_brute`` and ``partition_profiles`` with the
per-curve ``partition_profile`` on degenerate curves.  Every structure
and center solver refuses the same curve and segment lists.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curveq import (
    AnnStructure,
    Curve,
    KgonStructure,
    Segment,
    SegmentInputIndex,
    SegmentQueryIndex,
    TranslationCurveIndex,
    TranslationSegmentIndex,
    candidate_radii,
    center_l2,
    center_l2_decision,
    center_linf,
    center_linf_translation,
    dfd_segment_curve,
    partition_profile,
)
from curveq.geometry import partition_profiles
from curveq.nn_linf import _morton_keys
from curveq.oracles import center_brute, nn_brute
from curveq.rangetree import DominanceIndex, _undominated
from conftest import brute_min_max

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Coordinates are small integers times a unit: 0.1 gives non-integer
# values, 1e9 large magnitudes, 5e-324 and 1e-310 subnormals (where
# halving rounds), and the small range gives exact ties.
UNITS = st.sampled_from([1.0, 0.1, 0.37, 1e9, 5e-324, 1e-310])


@st.composite
def kernel_cases(draw):
    unit = draw(UNITS)
    n = draw(st.integers(1, 60))
    dims = draw(st.integers(1, 5))
    nshift = draw(st.integers(1, 16))
    ints = st.integers(-4, 4)
    if draw(st.booleans()):
        values = np.array(draw(st.lists(ints, min_size=n * dims, max_size=n * dims)),
                          dtype=float).reshape(n, dims)
    else:  # all rows equal
        values = np.tile(np.array(draw(st.lists(ints, min_size=dims, max_size=dims)),
                                  dtype=float), (n, 1))
    shifts = np.array(draw(st.lists(ints, min_size=nshift * dims, max_size=nshift * dims)),
                      dtype=float).reshape(nshift, dims)
    # planted copies of drawn rows, lowered by 0-2 per column: equal rows
    # and rows that another row dominates, placed anywhere in the order
    plants = draw(st.lists(st.tuples(st.integers(0, nshift - 1),
                                     st.lists(st.integers(0, 2), min_size=dims, max_size=dims)),
                           max_size=6))
    shifts = np.vstack([shifts] + [shifts[i] - np.array(drop) for i, drop in plants])
    shifts = shifts[np.array(draw(st.permutations(range(len(shifts)))))]
    nshift = len(shifts)
    # tags permuted against insertion order; repeated tags model the
    # several rows (splits) of one curve
    if draw(st.booleans()):
        tags = np.array(draw(st.permutations(range(n))))
    else:
        tags = np.array(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)))
    # per-column scales, fixed at build
    scales = draw(st.one_of(st.none(), st.lists(st.sampled_from([1.0, 2.0]),
                                                min_size=dims, max_size=dims).map(np.array)))
    # a per-shift-row constant c is a column of zeros at scale 1 shifted
    # by -c, as TranslationSegmentIndex holds its split radius
    if draw(st.booleans()):
        consts = np.array(draw(st.lists(ints, min_size=nshift, max_size=nshift)), dtype=float)
        values = np.hstack([values, np.zeros((n, 1))])
        shifts = np.hstack([shifts, -consts[:, None]])
        scales = None if scales is None else np.append(scales, 1.0)
    block = draw(st.sampled_from([None, 1, 2, 3, 8]))
    if draw(st.booleans()):
        keys = _morton_keys(values)
    else:
        keys = np.array(draw(st.permutations(range(n))))
    values, shifts = values * unit, shifts * unit
    if draw(st.booleans()):  # equal up to the sign of zero
        for a in (values, shifts):
            a[(a == 0) & np.array(draw(st.lists(st.booleans(), min_size=a.size,
                                                max_size=a.size))).reshape(a.shape)] = -0.0
    return values, tags, shifts, scales, block, keys


@SETTINGS
@given(kernel_cases(), st.integers(-6, 6))
def test_nearest_and_within_match_brute(case, offset_steps):
    values, tags, shifts, scales, block, keys = case
    idx = DominanceIndex(values, keys, tags=tags, block_size=block, scales=scales)
    per_row, want = brute_min_max(values, tags, shifts, scales)
    got = idx.nearest(shifts)
    assert got == want
    assert got[0] != 0 or not np.signbit(got[0])  # a zero is +0.0

    # within at the optimum, one ulp below it, and at offsets above and
    # below it
    unit = max(1.0, float(np.abs(values).max()))
    for d in (want[0], np.nextafter(want[0], -np.inf), want[0] + offset_steps * 0.25 * unit):
        got = idx.within(shifts, d)
        assert np.array_equal(got, np.unique(tags[per_row <= d]))


def undominated_by_definition(shifts):
    """O(R^2) reading of the filter: row i goes when some other row j is
    at least as large in every column, unless j is equal to i and comes
    after it."""
    keep = []
    for i, si in enumerate(shifts):
        def beats(j):
            ge = all(si <= shifts[j])
            equal = all(si == shifts[j])
            return ge and not (equal and j > i)
        keep.append(not any(beats(j) for j in range(len(shifts)) if j != i))
    return np.array(keep)


@SETTINGS
@given(kernel_cases())
def test_undominated_matches_definition(case):
    shifts = case[2]
    got = _undominated(np.ascontiguousarray(shifts.T))
    assert np.array_equal(got, undominated_by_definition(shifts))


def test_undominated_keeps_the_first_of_equal_rows():
    shifts = np.array([[1.0, 2.0], [0.0, 2.0], [1.0, 2.0], [1.0, -0.0], [1.0, 0.0]])
    st_ = np.ascontiguousarray(shifts.T)
    assert _undominated(st_).tolist() == [True, False, False, False, False]
    # a larger entry in one more column keeps an otherwise dominated row;
    # equal entries tie, up to the sign of zero
    extra = np.vstack([st_, [-1.0, -0.0, -1.0, -0.0, -0.0]])
    assert _undominated(extra).tolist() == [True, True, False, True, False]
    assert _undominated(np.vstack([st_[:, 3:], [-0.0, 0.0]])).tolist() == [True, False]


@pytest.mark.parametrize("block, filtered", [(4, True), (13, True), (17, False), (50, False)])
def test_filter_runs_up_to_four_shift_rows_per_block(monkeypatch, block, filtered):
    # 50 rows in 13, 4, 3 or 1 blocks against 13 shift rows
    rng = np.random.default_rng(7)
    # the last column is all zeros: shifted by -c it is a per-row constant c
    values = np.hstack([rng.integers(-4, 5, size=(50, 3)), np.zeros((50, 1))])
    shifts = rng.integers(-4, 5, size=(13, 4)).astype(float)
    calls = []
    monkeypatch.setattr("curveq.rangetree._undominated",
                        lambda *a: calls.append(1) or _undominated(*a))
    idx = DominanceIndex(values, _morton_keys(values), block_size=block)
    got = idx.nearest(shifts)
    assert got == brute_min_max(values, np.arange(50), shifts)[1]
    assert bool(calls) == filtered


def test_zero_distance_is_positive_zero():
    # -0.0 - 0.0 is -0.0: the raw minimum is a negative zero, also with
    # a third column -0.0 - 0.0 in place of a row constant -0.0
    values = np.array([[-0.0, -1.0, -0.0], [3.0, 3.0, -0.0]])
    for shifts in ([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [0.0, -0.0, 0.0], [-1.0, 0.0, 0.0]]):
        for cols in (2, 3):
            idx = DominanceIndex(values[:, :cols], [0, 1], block_size=1)
            got = idx.nearest(np.array(shifts)[:, :cols])
            assert got == (0.0, 0) and not np.signbit(got[0])


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
    idx = DominanceIndex(values, np.arange(10), tags=tags, block_size=2, scales=[1.0, 2.0])
    assert idx.nearest([[0.0, 0.0]]) == (2.0, 0)
    # a zero column shifted by -4 ties every row at the constant 4
    idx = DominanceIndex(np.hstack([values, np.zeros((10, 1))]), np.arange(10), tags=tags,
                         block_size=2)
    assert idx.nearest([[0.0, 0.0, -4.0]]) == (4.0, 0)


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


@pytest.mark.parametrize("solver, metric, translation", [
    (center_linf, "linf", False),
    (center_linf_translation, "linf", True),
    (center_l2, "l2", False),
], ids=["center_linf", "center_linf_translation", "center_l2"])
@SETTINGS
@given(case=center_cases())
def test_center_solvers_match_oracle(solver, metric, translation, case):
    curves, unit = case
    sol = solver(curves)
    want = center_brute(curves, metric, translation=translation)[0]
    # non-integer units round differences at the coordinates' scale; L2
    # radii come from different float formulas (candidate radii against
    # the oracle's enclosing balls) at every unit
    exact = metric == "linf" and unit in (1.0, 1e9)
    tol = 0.0 if exact else 1e-9 * max(1.0, 4.0 * unit)
    assert abs(sol.radius - want) <= tol
    s = Segment("ctr", sol.a, sol.b)
    for c in curves:
        moved = c.translated(sol.translation_of(c.id))
        assert dfd_segment_curve(s, moved, metric)[0] <= sol.radius + tol


@SETTINGS
@given(shapes=UNITS.flatmap(lambda unit: st.lists(curve_pts(unit), max_size=6)),
       dup=st.booleans())
def test_partition_profiles_equal_concatenated_profiles(shapes, dup):
    curves = [Curve(f"c{k}", p) for k, p in enumerate(shapes + shapes[:1] * dup)]
    flat = partition_profiles(curves)
    for field, got in vars(flat).items():
        want = [getattr(partition_profile(c), field) for c in curves]
        assert np.array_equal(got, np.concatenate(want) if want else np.empty(0))


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


@pytest.mark.parametrize("nearest", [
    SegmentInputIndex(SEGMENT).nearest_to_curve,
    TranslationSegmentIndex(SEGMENT).nearest_to_curve,
    KgonStructure(SEGMENT, 0.5).nearest,
], ids=["SegmentInputIndex", "TranslationSegmentIndex", "KgonStructure"])
def test_curve_queries_need_two_vertices(nearest):
    with pytest.raises(ValueError, match="query curve must have at least 2 vertices"):
        nearest(Curve("q", [[0, 0]]))


def _segment(sid, pts):
    return Segment(sid, *pts)


@pytest.mark.parametrize("build, make", [
    (SegmentQueryIndex, Curve),
    (TranslationCurveIndex, Curve),
    (SegmentInputIndex, _segment),
    (TranslationSegmentIndex, _segment),
    (lambda segs: KgonStructure(segs, 0.5), _segment),
    (lambda curves: AnnStructure(curves, 0.5, 1.0), Curve),
    (center_linf, Curve),
    (center_linf_translation, Curve),
    (center_l2, Curve),
    (candidate_radii, Curve),
    (lambda curves: center_l2_decision(curves, 1.0), Curve),
], ids=["SegmentQueryIndex", "TranslationCurveIndex", "SegmentInputIndex",
        "TranslationSegmentIndex", "KgonStructure", "AnnStructure", "center_linf",
        "center_linf_translation", "center_l2", "candidate_radii", "center_l2_decision"])
def test_list_intake(build, make):
    noun = "curve" if make is Curve else "segment"
    with pytest.raises(ValueError, match=f"non-empty {noun} list"):
        build([])
    with pytest.raises(ValueError, match=f"{noun} ids must be unique"):
        build([make("x", [[0, 0], [1, 1]]), make("x", [[2, 2], [3, 3]])])
    if make is Curve:
        with pytest.raises(ValueError, match="curve 'tiny' has 1 vertex"):
            build([Curve("ok", [[0, 0], [1, 1]]), Curve("tiny", [[0, 0]])])
