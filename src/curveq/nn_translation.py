"""Nearest-neighbor under translation, L-infinity discrete Fréchet distance.

The distance between a query and an item is minimized over all
translations of one of them.  Per split it has a closed form in the
translation-invariant keys of :func:`curveq.geometry.translation_keys`:
with c = b - a the segment's difference vector, r the larger of the
prefix/suffix smallest-enclosing-square radii, u1 = suf_min_x - pre_max_x,
u2 = suf_max_x - pre_min_x and u3, u4 the y analogues, the split's
distance is

    max(r, (u2 - c.x)/2, (c.x - u1)/2, (u4 - c.y)/2, (c.y - u3)/2),

the formula of :func:`curveq.oracles.translation_distance_brute`.

Both indexes hold five columns at scales (1, 2, 2, 2, 2), each the
mirror of the other.  :class:`TranslationCurveIndex` (curves indexed,
segment queries) stores one row (r, u2, -u1, u4, -u3) per (curve, split)
and queries with the shift row (0, c.x, -c.x, c.y, -c.y).
:class:`TranslationSegmentIndex` (segments indexed, curve queries)
stores each segment's shift row negated and queries with each split's
row negated, so its column 0 is -0 - (-r) = r exactly.  Both build on
``nn_linf._Structure``, which ranks the ids and tags the rows, and run
:meth:`DominanceIndex.nearest`; :func:`translation_key_table` returns
the (splits, 5) rows alone.  All optima are exact coordinate differences
halved, so results match the oracle bit-for-bit; ties break to the
smallest id.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import (Curve, Segment, _curve_list, _item_list, _query_curve, partition_profile,
                       partition_profiles, translation_keys)
from .nn_linf import _Structure, _endpoints

__all__ = ["translation_key_table", "TranslationCurveIndex", "TranslationSegmentIndex"]

_SCALES5 = np.array([1.0, 2.0, 2.0, 2.0, 2.0])


def _split_rows(profile) -> np.ndarray:
    """Rows (r, u2, -u1, u4, -u3) of a partition profile's splits."""
    r, u1, u2, u3, u4 = translation_keys(profile)
    return np.column_stack([r, u2, -u1, u4, -u3])


def translation_key_table(curves: Sequence[Curve]) -> np.ndarray:
    """Rows (r, u2, -u1, u4, -u3) for every (curve, split), curve by curve."""
    return _split_rows(partition_profiles(curves))


def _shift5(c: np.ndarray) -> np.ndarray:
    """Shift row (0, c.x, -c.x, c.y, -c.y) of a difference vector c, or
    the (n, 5) rows of the n columns of a (2, n) array."""
    rows = np.array([c[0], c[0], -c[0], c[1], -c[1]])
    rows[0] = 0.0
    return rows.T


class TranslationCurveIndex(_Structure):
    """Curve set indexed for nearest-curve segment queries under translation."""

    def __init__(self, curves: Sequence[Curve]):
        curves, sizes = _curve_list(curves)
        keys = translation_key_table(curves)
        super().__init__(curves, keys, keys, sizes - 1, scales=_SCALES5)

    def nearest(self, s: Segment) -> tuple[str, float]:
        """Closest curve under translation, with its exact distance."""
        return self._nearest(_shift5(s.b - s.a))


class TranslationSegmentIndex(_Structure):
    """Segment set (as difference points) for curve queries under translation."""

    def __init__(self, segments: Sequence[Segment]):
        segments = _item_list(segments, "segment")
        a, b = _endpoints(segments)
        c = b - a
        super().__init__(segments, -_shift5(c.T), c, scales=_SCALES5)

    def nearest_to_curve(self, q: Curve) -> tuple[str, float]:
        """Closest segment to q under translation, with exact distance:
        one shift row, the negated split row, per split of q."""
        return self._nearest(-_split_rows(partition_profile(_query_curve(q))))
