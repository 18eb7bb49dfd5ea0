import numpy as np
import pytest

from curveq.rangetree import DominanceIndex
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
