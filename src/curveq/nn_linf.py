"""Exact nearest-neighbor structures under the L-infinity discrete Fréchet distance.

Two directions:

* :class:`SegmentQueryIndex` -- indexes polygonal curves, answers segment
  queries.  Each (curve, split) pair contributes one key of eight
  coordinate extrema; a segment lies within distance d of a curve iff
  some key satisfies eight one-sided conditions (prefix box inside the
  square around ``a``, suffix box inside the square around ``b``).

* :class:`SegmentInputIndex` -- indexes segments by their endpoints'
  support values on the four axis normals, exact signed coordinates (the
  L-inf square is the axis-aligned 4-gon), answers curve queries;
  :class:`~curveq.nn_l2.KgonStructure` is the same index on k normals.

In both directions the distance is a minimum over shift rows of a
maximum over columns of ``value - shift``: one shift row for a segment
query, one per split of a curve query.  :meth:`DominanceIndex.nearest`
answers it with a best-first search over Morton-ordered blocks.  Every
distance is a single difference of an input coordinate and a query
coordinate, so results agree bit-for-bit with a brute-force scan
computing the same differences; ties break to the lexicographically
smallest id.

Every structure here and in :mod:`curveq.nn_translation`, and
:class:`~curveq.nn_l2.KgonStructure`, checks its list with the shared
list rules of :mod:`curveq.geometry` (non-empty, unique ids, m >= 2 per
curve) and hands the items, their rows and Morton points to
``_Structure``, the one place that ranks ids and tags each row with its
item's rank.

:meth:`SegmentQueryIndex.nearest_l2` answers exact L2 segment queries
with the same keys: at every split d_inf <= d_2, so the L-inf winner's L2
distance U bounds the answer and every curve with an L2 distance at most
U has a key within U under L-inf.  Those curves are refined with
:func:`~curveq.geometry.dfd_segment_curve`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import (Curve, Segment, _curve_list, _item_list, _query_curve,
                       dfd_segment_curve, partition_profile)
from .rangetree import DominanceIndex

__all__ = ["rect_key_table", "SegmentQueryIndex", "SegmentInputIndex"]

# Key column order; signs map every condition to "value - shift <= d".
_KEY_FIELDS = (
    "pre_max_x", "pre_min_x", "pre_max_y", "pre_min_y",
    "suf_max_x", "suf_min_x", "suf_max_y", "suf_min_y",
)
_SIGNS8 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
# SegmentInputIndex's normals: the L-inf square is the axis-aligned 4-gon
_AXES = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


def rect_key_table(curves: Sequence[Curve]) -> np.ndarray:
    """The (splits, 8) key rows of :class:`SegmentQueryIndex`: every
    (curve, split)'s eight extrema, curve by curve, sign-adjusted."""
    rows = [np.column_stack([getattr(p, f) for f in _KEY_FIELDS])
            for p in map(partition_profile, curves)]
    return (np.vstack(rows) if rows else np.empty((0, 8))) * _SIGNS8


def _shift8(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array([a[0], -a[0], a[1], -a[1], b[0], -b[0], b[1], -b[1]])


def _morton_keys(values: np.ndarray, bits: int = 8) -> np.ndarray:
    """64-bit Morton codes interleaving the quantized dimensions.

    Rows that are close in every coordinate get nearby codes, so the
    per-block componentwise minima of a code-sorted layout are tight in
    all dimensions at once.  Raises ValueError when ``bits`` per
    dimension do not fit in 64 bits.
    """
    v = np.asarray(values, dtype=float)
    ndim = v.shape[1]
    if bits * ndim > 64:
        raise ValueError(
            f"Morton key of {ndim} dimensions at {bits} bits needs "
            f"{bits * ndim} > 64 bits"
        )
    lo = v.min(axis=0)
    span = v.max(axis=0) - lo
    span[span == 0.0] = 1.0
    levels = (1 << bits) - 1
    q = np.minimum((levels * (v - lo) / span).astype(np.uint64), levels)
    # spread[x] moves bit i of x to bit i * ndim
    x = np.arange(levels + 1, dtype=np.uint64)
    spread = np.zeros(levels + 1, dtype=np.uint64)
    for bit in range(bits):
        spread |= ((x >> np.uint64(bit)) & np.uint64(1)) << np.uint64(bit * ndim)
    key = np.zeros(v.shape[0], dtype=np.uint64)
    for dim in range(ndim):
        key |= spread[q[:, dim]] << np.uint64(dim)
    return key


class _Structure:
    """The five structures' skeleton.  It takes a checked item list, the
    rows of ``values`` item by item (``splits`` rows per item: one per
    split of a curve, one per segment), their Morton ``points`` and column
    ``scales``.  It ranks the ids (``ids_by_rank``; ``_items[_order[r]]``
    is the item of rank r) and indexes the rows in ``_index``, each tagged
    with its item's rank, in Morton order of ``points``."""

    def __init__(self, items, values, points, splits=1, block_size=None, scales=None):
        ids = [x.id for x in items]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ranks = np.empty(len(ids), dtype=int)
        ranks[order] = np.arange(len(ids))
        self.ids_by_rank = [ids[k] for k in order]
        self._items, self._order = items, order
        self._index = DominanceIndex(values, _morton_keys(points), np.repeat(ranks, splits),
                                     block_size, scales)

    def describe(self) -> dict:
        """Size of the underlying index (see :meth:`DominanceIndex.describe`)."""
        return self._index.describe()

    def _nearest(self, shift_rows) -> tuple[str, float]:
        """``(id, distance)`` of :meth:`DominanceIndex.nearest`."""
        best, tag = self._index.nearest(shift_rows)
        return self.ids_by_rank[tag], best


class SegmentQueryIndex(_Structure):
    """Curve set indexed for exact nearest-curve segment queries under
    L-inf (:meth:`nearest`) and L2 (:meth:`nearest_l2`)."""

    def __init__(self, curves: Sequence[Curve]):
        curves, sizes = _curve_list(curves)
        keys = rect_key_table(curves)
        super().__init__(curves, keys, keys, sizes - 1, block_size=64)

    def nearest(self, s: Segment) -> tuple[str, float]:
        """Closest curve and its exact distance (one shift row)."""
        return self._nearest(_shift8(s.a, s.b))

    def nearest_l2(self, s: Segment) -> tuple[str, float]:
        """Closest curve under the L2 metric and its exact distance.

        The L-inf winner's L2 distance U bounds the answer, and every
        curve at L2 distance at most U has a key within U under L-inf:
        at every split each of the kernel's differences ``v - s`` is,
        up to an exact negation, the same float difference of a vertex
        and an endpoint that the L2 distance takes the hypotenuse of,
        and the hypotenuse is no shorter than either leg.  U is padded
        by a relative 1e-9 all the same; the padding can only add
        candidates.  Each candidate curve is refined once; ties go to
        the smallest id.
        """
        shift = _shift8(s.a, s.b)
        curves, order = self._items, self._order
        _, tag = self._index.nearest(shift)
        bound = dfd_segment_curve(s, curves[order[tag]], "l2")[0]
        ranks = self._index.within(shift, bound * (1.0 + 1e-9))
        best, rank = min((dfd_segment_curve(s, curves[order[k]], "l2")[0], k)
                         for k in ranks.tolist())
        return self.ids_by_rank[rank], best


def _endpoints(segments: list[Segment]) -> tuple[np.ndarray, np.ndarray]:
    """The segments' ``a`` and ``b`` endpoints as (n, 2) arrays."""
    return (np.concatenate([s.a for s in segments]).reshape(-1, 2),
            np.concatenate([s.b for s in segments]).reshape(-1, 2))


class _SupportIndex(_Structure):
    """Segments indexed by their endpoints' support values on the unit
    normals n_t (rows of ``normals``), for curve queries.  The radius-d
    polygon around p is {x : (x - p) . n_t <= d}, and segment ab lies
    within d of curve q at split i iff, for every t, a . n_t <= (prefix
    min of p . n_t) + d and b . n_t <= (suffix min of p . n_t) + d: a row
    holds (a . n_t, b . n_t) and a split's shift row those running minima.
    """

    def __init__(self, segments: Sequence[Segment], normals: np.ndarray):
        segments = _item_list(segments, "segment")
        a, b = _endpoints(segments)
        self.normals = normals
        super().__init__(segments, np.hstack([a @ normals.T, b @ normals.T]), np.hstack([a, b]))

    def _shift_rows(self, q: Curve) -> np.ndarray:
        dots = _query_curve(q).pts @ self.normals.T  # (m, k)
        pre = np.minimum.accumulate(dots, axis=0)[:-1]
        suf = np.minimum.accumulate(dots[::-1], axis=0)[::-1][1:]
        return np.hstack([pre, suf])


class SegmentInputIndex(_SupportIndex):
    """Segment set indexed for exact L-inf curve queries: the L-inf square is
    the polygon on the four axis normals, so rows are (x, -x, y, -y) of
    ``a``, then of ``b``."""

    def __init__(self, segments: Sequence[Segment]):
        super().__init__(segments, _AXES)

    def nearest_to_curve(self, q: Curve) -> tuple[str, float]:
        """Closest segment to q and its exact distance; each split of q is
        one shift row, the running extrema of its prefix and suffix."""
        return self._nearest(self._shift_rows(q))
