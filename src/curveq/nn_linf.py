"""Exact nearest-neighbor structures under the L-infinity discrete Fréchet distance.

Two directions:

* :class:`SegmentQueryIndex` -- indexes polygonal curves, answers segment
  queries.  Each (curve, split) pair contributes one key of eight
  coordinate extrema; a segment lies within distance d of a curve iff
  some key satisfies eight one-sided conditions (prefix box inside the
  square around ``a``, suffix box inside the square around ``b``).

* :class:`SegmentInputIndex` -- indexes segments by their endpoint
  4-tuples, answers curve queries via per-split rectangle pairs.

In both directions the distance is a minimum over shift rows of a
maximum over columns of ``value - shift``: one shift row for a segment
query, one per split of a curve query.  :meth:`DominanceIndex.nearest`
answers it with a best-first search over Morton-ordered blocks.  Every
distance is a single difference of an input coordinate and a query
coordinate, so results agree bit-for-bit with a brute-force scan
computing the same differences; ties break to the lexicographically
smallest id.

:meth:`SegmentQueryIndex.nearest_l2` answers exact L2 segment queries
with the same keys: at every split d_inf <= d_2, so the L-inf winner's L2
distance U bounds the answer and every curve with an L2 distance at most
U has a key within U under L-inf.  Those curves are refined with
:func:`~curveq.geometry.dfd_segment_curve`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Curve, Segment, dfd_segment_curve, partition_profile
from .rangetree import DominanceIndex

__all__ = ["RectKeyTable", "rect_key_table", "SegmentQueryIndex", "SegmentInputIndex"]

# Key column order; signs map every condition to "value - shift <= d".
_KEY_FIELDS = (
    "pre_max_x", "pre_min_x", "pre_max_y", "pre_min_y",
    "suf_max_x", "suf_min_x", "suf_max_y", "suf_min_y",
)
_SIGNS8 = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def _ranked_ids(ids: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """Ids in sorted order, and each input position's rank in it."""
    if len(set(ids)) != len(ids):
        raise ValueError("dataset ids must be unique")
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ranks = np.empty(len(ids), dtype=int)
    ranks[order] = np.arange(len(ids))
    return [ids[k] for k in order], ranks


def _segment_table(segments: Sequence[Segment], what: str):
    """``(ids_by_rank, ranks, a, b)`` of a non-empty segment list, with
    the endpoints as (n, 2) arrays in input order."""
    if not segments:
        raise ValueError(f"{what} requires a non-empty segment list")
    ids_by_rank, ranks = _ranked_ids([s.id for s in segments])
    a = np.array([s.a for s in segments])
    b = np.array([s.b for s in segments])
    return ids_by_rank, ranks, a, b


@dataclass(frozen=True, eq=False)
class RectKeyTable:
    """Per-(curve, split) extrema rows for a curve set.

    ``values`` holds the eight extrema in key column order, sign-adjusted
    for dominance queries, one row per split, curve by curve in input
    order; ``tags[k]`` is row ``k``'s curve rank in id order.
    """

    values: np.ndarray
    tags: np.ndarray
    ids_by_rank: list[str]


def rect_key_table(curves: Sequence[Curve]) -> RectKeyTable:
    for c in curves:
        if len(c) < 2:
            raise ValueError(
                f"curve {c.id!r} has {len(c)} vertex; indexed structures require m >= 2"
            )
    ids_by_rank, ranks = _ranked_ids([c.id for c in curves])
    rows = []
    for c in curves:
        prof = partition_profile(c)
        rows.append(np.column_stack([getattr(prof, f) for f in _KEY_FIELDS]))
    raw = np.vstack(rows) if rows else np.empty((0, 8))
    return RectKeyTable(
        values=raw * _SIGNS8,
        tags=np.repeat(ranks, [len(c) - 1 for c in curves]),
        ids_by_rank=ids_by_rank,
    )


def _describe(index: Optional[DominanceIndex]) -> dict:
    """``index.describe()``, or all zeros for a structure without rows."""
    if index is None:
        return dict.fromkeys(("rows", "dims", "blocks", "block_size", "nbytes"), 0)
    return index.describe()


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


class SegmentQueryIndex:
    """Curve set indexed for exact nearest-curve segment queries under
    L-inf (:meth:`nearest`) and L2 (:meth:`nearest_l2`)."""

    def __init__(self, curves: Sequence[Curve]):
        curves = list(curves)
        self.table = rect_key_table(curves)
        self._curves = sorted(curves, key=lambda c: c.id)  # rank order
        self._index = (
            DominanceIndex(
                self.table.values,
                tags=self.table.tags,
                block_size=64,
                sort_keys=_morton_keys(self.table.values),
            )
            if self.table.values.shape[0]
            else None
        )

    def __len__(self) -> int:
        return 0 if self._index is None else len(self._index)

    def describe(self) -> dict:
        """Size of the underlying index (see :meth:`DominanceIndex.describe`)."""
        return _describe(self._index)

    def decide(self, s: Segment, d: float) -> Optional[str]:
        """Some curve id within distance d of s, or None.

        Conditions per key: a.x >= pre_max_x - d, a.x <= pre_min_x + d,
        the same in y, and the four suffix conditions against b.
        """
        if d < 0:
            raise ValueError("decision distance must be non-negative")
        if self._index is None:
            return None
        tag = self._index.decide(_shift8(s.a, s.b), d)
        return None if tag is None else self.table.ids_by_rank[tag]

    def nearest(self, s: Segment) -> tuple[str, float]:
        """Closest curve and its exact distance (one shift row)."""
        if self._index is None:
            raise ValueError("nearest query on an empty structure")
        best, tag = self._index.nearest(_shift8(s.a, s.b))
        return self.table.ids_by_rank[tag], best

    def nearest_l2(self, s: Segment) -> tuple[str, float]:
        """Closest curve under the L2 metric and its exact distance.

        The L-inf winner's L2 distance U bounds the answer.  Every curve
        at L2 distance at most U has a key within U under L-inf, since
        d_inf <= d_2 at every split, so the keys below ``shift + U``
        hold all candidates.  U is padded by a relative 1e-9 so that
        rounding in U drops none; the padding can only add candidates.
        Each candidate curve is refined once; ties go to the smallest id.
        """
        if self._index is None:
            raise ValueError("nearest query on an empty structure")
        shift = _shift8(s.a, s.b)
        _, tag = self._index.nearest(shift)
        bound = dfd_segment_curve(s, self._curves[tag], "l2")[0]
        ranks = np.unique(self._index.collect_thresholds(shift + bound * (1.0 + 1e-9)))
        best, rank = min((dfd_segment_curve(s, self._curves[k], "l2")[0], k)
                         for k in ranks.tolist())
        return self.table.ids_by_rank[rank], best


class SegmentInputIndex:
    """Segment set indexed by endpoint 4-tuples for exact L-inf curve queries."""

    def __init__(self, segments: Sequence[Segment]):
        self.ids_by_rank, ranks, a, b = _segment_table(list(segments), "segment structure")
        values = np.column_stack(
            [a[:, 0], -a[:, 0], a[:, 1], -a[:, 1], b[:, 0], -b[:, 0], b[:, 1], -b[:, 1]]
        )
        self._index = DominanceIndex(
            values, tags=ranks, sort_keys=_morton_keys(np.hstack([a, b]))
        )

    def __len__(self) -> int:
        return len(self._index)

    def describe(self) -> dict:
        """Size of the underlying index (see :meth:`DominanceIndex.describe`)."""
        return self._index.describe()

    def segments_in(self, rect_a, rect_b) -> list[str]:
        """Ids of segments with a in rect_a and b in rect_b (closed boxes).

        Rectangles are ((x0, y0), (x1, y1)).
        """
        (ax0, ay0), (ax1, ay1) = rect_a
        (bx0, by0), (bx1, by1) = rect_b
        t = np.array([ax1, -ax0, ay1, -ay0, bx1, -bx0, by1, -by0])
        tags = self._index.collect_thresholds(t)
        return [self.ids_by_rank[k] for k in tags]

    def _shift_rows(self, q: Curve) -> np.ndarray:
        if len(q) < 2:
            raise ValueError("query curve must have at least 2 vertices")
        p = partition_profile(q)
        return np.column_stack([
            p.pre_min_x, -p.pre_max_x, p.pre_min_y, -p.pre_max_y,
            p.suf_min_x, -p.suf_max_x, p.suf_min_y, -p.suf_max_y,
        ])

    def decide(self, q: Curve, d: float) -> Optional[str]:
        """Some segment id within distance d of curve q, or None.

        Computes q's partition profile once; each split is one shift row
        (a rectangle pair).
        """
        if d < 0:
            raise ValueError("decision distance must be non-negative")
        tag = self._index.decide(self._shift_rows(q), d)
        return None if tag is None else self.ids_by_rank[tag]

    def nearest_to_curve(self, q: Curve) -> tuple[str, float]:
        """Closest segment to q and its exact distance."""
        best, tag = self._index.nearest(self._shift_rows(q))
        return self.ids_by_rank[tag], best
