import math

import numpy as np
import pytest

from curveq.rangetree import (
    DominanceIndex,
    MultiLevelSegmentTree,
    MultiLevelTree,
)
from curveq.nn_linf import _morton_keys
from conftest import brute_min_max


def brute_mask(values, thresholds):
    return (values <= np.asarray(thresholds)).all(axis=1)


class TestDominanceIndex:
    def test_threshold_queries_match_brute(self, rng):
        values = rng.integers(0, 30, size=(120, 5)).astype(float)
        idx = DominanceIndex(values, _morton_keys(values))
        for _ in range(300):
            t = rng.integers(-2, 32, size=5).astype(float)
            mask = brute_mask(values, t)
            # v <= t is the shifted form with shift t at distance 0
            hit = idx.decide(t, 0.0)
            assert (hit is not None) == mask.any()
            if hit is not None:
                assert mask[hit]
            assert set(idx.collect_thresholds(t).tolist()) == set(np.nonzero(mask)[0])

    def test_shifted_queries_match_brute(self, rng):
        values = rng.integers(0, 30, size=(90, 4)).astype(float)
        idx = DominanceIndex(values, _morton_keys(values))
        scales = np.array([1.0, 2.0, 2.0, 1.0])
        tags = np.arange(90)
        for _ in range(200):
            shifts = rng.integers(0, 30, size=4).astype(float)
            d = float(rng.integers(0, 15))
            mask = ((values - shifts) <= scales * d).all(axis=1)
            assert (idx.decide(shifts, d, scales=scales) is not None) == mask.any()
            want = brute_min_max(values, tags, shifts, scales)[1]
            assert idx.nearest(shifts, scales=scales) == want

    def test_decide_over_many_shift_rows(self, rng):
        values = rng.integers(0, 20, size=(50, 3)).astype(float)
        idx = DominanceIndex(values, _morton_keys(values))
        for _ in range(100):
            rows = rng.integers(0, 20, size=(6, 3)).astype(float)
            d = float(rng.integers(0, 8))
            sat = ((values[None, :, :] - rows[:, None, :]) <= d).all(axis=2).any(axis=0)
            hit = idx.decide(rows, d)
            assert (hit is not None) == sat.any()
            if hit is not None:
                assert sat[hit]
            assert idx.nearest(rows) == brute_min_max(values, np.arange(50), rows)[1]

    def test_custom_tags(self, rng):
        values = rng.integers(0, 9, size=(20, 2)).astype(float)
        tags = rng.permutation(20)
        idx = DominanceIndex(values, _morton_keys(values), tags=tags)
        t = np.array([4.0, 4.0])
        assert set(idx.collect_thresholds(t).tolist()) == set(tags[brute_mask(values, t)])
        assert idx.nearest(t) == brute_min_max(values, tags, t)[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DominanceIndex(np.empty((0, 3)), np.empty(0))

    def test_describe_counts_every_array(self, rng):
        values = rng.normal(size=(100, 3))
        idx = DominanceIndex(values, _morton_keys(values), block_size=16)
        info = idx.describe()
        assert (info["rows"], info["dims"], info["blocks"], info["block_size"]) == (100, 3, 7, 16)
        arrays = [v for v in vars(idx).values() if isinstance(v, np.ndarray)]
        assert info["nbytes"] == sum(a.nbytes for a in arrays)
        assert info["nbytes"] >= values.nbytes


class TestMultiLevelTree:
    def test_matches_brute_and_index(self, rng):
        values = rng.integers(0, 25, size=(60, 8)).astype(float)
        tree = MultiLevelTree(values)
        index = DominanceIndex(values, _morton_keys(values))
        for _ in range(150):
            t = rng.integers(0, 25, size=8).astype(float)
            bounds = [(-math.inf, float(x)) for x in t]
            ref = set(tree.query_tags(bounds).tolist())
            brute = set(np.nonzero(brute_mask(values, t))[0])
            assert ref == brute
            assert (index.decide(t, 0.0) is not None) == bool(brute)

    def test_two_sided_intervals(self, rng):
        values = rng.integers(0, 20, size=(40, 3)).astype(float)
        tree = MultiLevelTree(values)
        for _ in range(150):
            lo = rng.integers(0, 15, size=3).astype(float)
            hi = lo + rng.integers(0, 10, size=3)
            bounds = list(zip(lo, hi))
            ref = set(tree.query_tags(bounds).tolist())
            brute = ((values >= lo) & (values <= hi)).all(axis=1)
            assert ref == set(np.nonzero(brute)[0])

    def test_canonical_decomposition_properties(self, rng):
        values = rng.integers(0, 100, size=(64, 2)).astype(float)
        tree = MultiLevelTree(values)
        logn = math.log2(64)
        for t in (0.0, 17.0, 50.0, 99.0, 120.0):
            sets = tree.level1_canonical_sets(-math.inf, t)
            # union equals the brute filter and the sets are disjoint
            union = [x for s in sets for x in s.tolist()]
            assert len(union) == len(set(union))
            assert set(union) == set(np.nonzero(values[:, 0] <= t)[0])
            # one-sided decompositions touch O(log N) canonical nodes
            assert len(sets) <= 2 * logn + 2

    def test_membership_multiplicity(self, rng):
        # every row appears in O(log N) level-1 canonical subsets overall:
        # count how many ancestors it has (canonical nodes it belongs to)
        values = rng.integers(0, 50, size=(33, 1)).astype(float)
        tree = MultiLevelTree(values)
        lt = tree._tree
        counts = np.zeros(33, dtype=int)

        def walk(node):
            if node is None:
                return
            counts[lt.idx[node.lo:node.hi]] += 1
            walk(node.left)
            walk(node.right)

        walk(lt.root)
        assert counts.max() <= math.ceil(math.log2(33)) + 1

    def test_entry_guard(self, rng):
        values = rng.normal(size=(200, 8))
        with pytest.raises(MemoryError):
            MultiLevelTree(values, entry_guard=1000)


class TestMultiLevelSegmentTree:
    def test_matches_brute(self, rng):
        n = 50
        iv1 = np.sort(rng.uniform(0, 10, size=(n, 2)), axis=1)
        iv2 = np.sort(rng.uniform(0, 10, size=(n, 2)), axis=1)
        scores = rng.uniform(0, 1, n)
        tree = MultiLevelSegmentTree([iv1, iv2], scores)
        for _ in range(300):
            x, y = rng.uniform(-1, 11, size=2)
            mask = ((iv1[:, 0] <= x) & (x <= iv1[:, 1])
                    & (iv2[:, 0] <= y) & (y <= iv2[:, 1]))
            res = tree.query_min([x, y])
            if not mask.any():
                assert res is None
            else:
                assert res[0] == scores[mask].min()

    def test_closed_endpoints_stab(self):
        iv = np.array([[1.0, 3.0]])
        tree = MultiLevelSegmentTree([iv], [7.0])
        assert tree.query_min([1.0]) == (7.0, 0)
        assert tree.query_min([3.0]) == (7.0, 0)
        assert tree.query_min([0.999]) is None

    def test_node_annotations_are_subset_minima(self, rng):
        n = 30
        iv1 = np.sort(rng.uniform(0, 5, size=(n, 2)), axis=1)
        iv2 = np.sort(rng.uniform(0, 5, size=(n, 2)), axis=1)
        scores = rng.uniform(0, 1, n)
        tree = MultiLevelSegmentTree([iv1, iv2], scores)
        seen = 0
        for items, (val, tag) in tree.bottom_nodes():
            assert val == scores[items].min()
            assert tag in items
            seen += 1
        assert seen > 0
