"""Nearest-neighbor under translation, L-infinity discrete Fréchet distance.

The distance between a query and an item is minimized over all
translations of one of them.  Per split it has a closed form in
translation-invariant quantities: with c = b - a the segment's difference
vector, r the larger of the prefix/suffix smallest-enclosing-square
radii, u1 = suf_min_x - pre_max_x, u2 = suf_max_x - pre_min_x and u3, u4
the y analogues, the split's distance is

    max(r, (u2 - c.x)/2, (c.x - u1)/2, (u4 - c.y)/2, (c.y - u3)/2),

the formula of :func:`curveq.oracles.translation_distance_brute`.

* :class:`TranslationCurveIndex` (curves indexed, segment queries): one
  row (r, u2, -u1, u4, -u3) per (curve, split), one shift row
  (0, c.x, -c.x, c.y, -c.y) per query, scales (1, 2, 2, 2, 2).

* :class:`TranslationSegmentIndex` (segments indexed, curve queries): one
  row (-c.x, c.x, -c.y, c.y) per segment, one shift row
  (-u2, u1, -u4, u3) per query split with scale 2 and row constant r.

Both run :meth:`DominanceIndex.nearest`.  All optima are exact coordinate
differences halved, so results match the oracle bit-for-bit; ties break
to the smallest id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Curve, Segment, partition_profile
from .nn_linf import _describe, _morton_keys, _ranked_ids, _segment_table
from .rangetree import DominanceIndex

__all__ = [
    "TranslationKeyTable",
    "translation_key_table",
    "TranslationCurveIndex",
    "TranslationSegmentIndex",
]

_SCALES5 = np.array([1.0, 2.0, 2.0, 2.0, 2.0])


@dataclass(frozen=True, eq=False)
class TranslationKeyTable:
    """Per-(curve, split) translation-invariant key rows.

    r is the larger of the prefix/suffix smallest-enclosing-square radii;
    u1 <= u2 and u3 <= u4 are the span differences defined above.
    """

    r: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    u4: np.ndarray
    values: np.ndarray  # columns (r, u2, -u1, u4, -u3) for dominance queries
    tags: np.ndarray
    ids_by_rank: list[str]


def translation_key_table(curves: Sequence[Curve]) -> TranslationKeyTable:
    for c in curves:
        if len(c) < 2:
            raise ValueError(
                f"curve {c.id!r} has {len(c)} vertex; indexed structures require m >= 2"
            )
    ids_by_rank, ranks = _ranked_ids([c.id for c in curves])
    cols: dict[str, list[np.ndarray]] = {k: [] for k in ("r", "u1", "u2", "u3", "u4")}
    for c in curves:
        p = partition_profile(c)
        pre_r = np.maximum(p.pre_max_x - p.pre_min_x, p.pre_max_y - p.pre_min_y) / 2.0
        suf_r = np.maximum(p.suf_max_x - p.suf_min_x, p.suf_max_y - p.suf_min_y) / 2.0
        cols["r"].append(np.maximum(pre_r, suf_r))
        cols["u1"].append(p.suf_min_x - p.pre_max_x)
        cols["u2"].append(p.suf_max_x - p.pre_min_x)
        cols["u3"].append(p.suf_min_y - p.pre_max_y)
        cols["u4"].append(p.suf_max_y - p.pre_min_y)
    arr = {k: np.concatenate(v) if v else np.empty(0) for k, v in cols.items()}
    values = (
        np.column_stack([arr["r"], arr["u2"], -arr["u1"], arr["u4"], -arr["u3"]])
        if curves
        else np.empty((0, 5))
    )
    return TranslationKeyTable(
        r=arr["r"], u1=arr["u1"], u2=arr["u2"], u3=arr["u3"], u4=arr["u4"],
        values=values,
        tags=np.repeat(ranks, [len(c) - 1 for c in curves]),
        ids_by_rank=ids_by_rank,
    )


def _shift5(c: np.ndarray) -> np.ndarray:
    return np.array([0.0, c[0], -c[0], c[1], -c[1]])


class TranslationCurveIndex:
    """Curve set indexed for nearest-curve segment queries under translation."""

    def __init__(self, curves: Sequence[Curve]):
        self.table = translation_key_table(list(curves))
        t = self.table
        self._index = (
            DominanceIndex(t.values, tags=t.tags, sort_keys=_morton_keys(t.values))
            if t.values.shape[0]
            else None
        )

    def __len__(self) -> int:
        return 0 if self._index is None else len(self._index)

    def describe(self) -> dict:
        """Size of the underlying index (see :meth:`DominanceIndex.describe`)."""
        return _describe(self._index)

    def decide(self, s: Segment, d: float) -> Optional[str]:
        """Some curve within distance d of s under translation, or None.

        Per key: r <= d, u2 - c.x <= 2d, c.x - u1 <= 2d, u4 - c.y <= 2d,
        c.y - u3 <= 2d, with c = b - a signed (equivalently the four
        orientation-specific formulations of the same conditions).
        """
        if d < 0:
            raise ValueError("decision distance must be non-negative")
        if self._index is None:
            return None
        tag = self._index.decide(_shift5(s.b - s.a), d, scales=_SCALES5)
        return None if tag is None else self.table.ids_by_rank[tag]

    def nearest(self, s: Segment) -> tuple[str, float]:
        """Closest curve under translation, with its exact distance."""
        if self._index is None:
            raise ValueError("nearest query on an empty structure")
        best, tag = self._index.nearest(_shift5(s.b - s.a), scales=_SCALES5)
        return self.table.ids_by_rank[tag], best


class TranslationSegmentIndex:
    """Segment set (as difference points) for curve queries under translation."""

    def __init__(self, segments: Sequence[Segment]):
        self.ids_by_rank, ranks, a, b = _segment_table(list(segments), "segment structure")
        c = b - a
        self._index = DominanceIndex(
            np.column_stack([-c[:, 0], c[:, 0], -c[:, 1], c[:, 1]]),
            tags=ranks,
            sort_keys=_morton_keys(c),
        )

    def __len__(self) -> int:
        return len(self._index)

    def describe(self) -> dict:
        """Size of the underlying index (see :meth:`DominanceIndex.describe`)."""
        return self._index.describe()

    def points_in_rect(self, rect) -> list[str]:
        """Ids whose difference point lies in the closed rectangle ((x0,y0),(x1,y1))."""
        (x0, y0), (x1, y1) = rect
        tags = self._index.collect_thresholds(np.array([-x0, x1, -y0, y1]))
        return [self.ids_by_rank[k] for k in tags]

    def nearest_to_curve(self, q: Curve) -> tuple[str, float]:
        """Closest segment to q under translation, with exact distance.

        One shift row (-u2, u1, -u4, u3) per split of q, scale 2, and the
        split's radius r as row constant.
        """
        if len(q) < 2:
            raise ValueError("query curve must have at least 2 vertices")
        t = translation_key_table([Curve("q", q.pts)])
        best, tag = self._index.nearest(
            np.column_stack([-t.u2, t.u1, -t.u4, t.u3]), scales=2.0, row_consts=t.r
        )
        return self.ids_by_rank[tag], best
