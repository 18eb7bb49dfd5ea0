import numpy as np
import pytest

from curveq import Curve, Segment


def rand_curve(rng, cid, m, lo=0, hi=100):
    """Random curve with integer coordinates (keeps comparisons exact)."""
    return Curve(cid, rng.integers(lo, hi + 1, size=(m, 2)).astype(float))


def rand_segment(rng, sid, lo=0, hi=100):
    return Segment(
        sid,
        rng.integers(lo, hi + 1, size=2).astype(float),
        rng.integers(lo, hi + 1, size=2).astype(float),
    )


def rand_curves(rng, n, m_max, lo=0, hi=100, m_min=2):
    return [
        rand_curve(rng, f"c{j:04d}", int(rng.integers(m_min, m_max + 1)), lo, hi)
        for j in range(n)
    ]


def rand_segments(rng, n, lo=0, hi=100):
    return [rand_segment(rng, f"s{j:04d}", lo, hi) for j in range(n)]


def brute_min_max(values, tags, shift_rows, scales=None):
    """Reference for ``DominanceIndex.nearest`` on an index built with
    ``scales``: scans every (shift row, row) pair.  Returns each row's
    distance and the (distance, smallest tag at it) answer."""
    diff = values[None, :, :] - np.atleast_2d(shift_rows)[:, None, :]
    if scales is not None:
        diff = diff / scales
    per_row = diff.max(axis=2).min(axis=0)
    m = per_row.min()
    return per_row, (m, tags[per_row == m].min())


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
