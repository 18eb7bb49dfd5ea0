"""Planar geometry primitives: curves, metrics, and the discrete Fréchet distance.

Everything downstream rests on the prefix/suffix characterization of the
segment-vs-curve distance: ``d(ab, C) <= r`` iff ``C`` splits at some index
``i`` so that the prefix fits in the radius-``r`` ball around ``a`` and the
suffix in the ball around ``b``.  This module provides the exact dynamic
program over alignments, the linear-time split form, per-split extrema and
translation keys, and the enclosing-shape helpers the center solvers need.

All containers are immutable after construction and all functions are pure,
so concurrent use requires no locking.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

Metric = Literal["linf", "l2"]

__all__ = [
    "Metric",
    "Curve",
    "Segment",
    "PartitionProfile",
    "as_point",
    "point_dist",
    "dfd_dp",
    "dfd_segment_curve",
    "partition_profile",
    "partition_profiles",
    "running_max",
    "translation_keys",
    "min_enclosing_square_radius",
    "min_enclosing_ball",
    "circumcircle",
    "circle_intersections",
]


def _check_metric(metric: str) -> None:
    if metric not in ("linf", "l2"):
        raise ValueError(f"unknown metric {metric!r}; expected 'linf' or 'l2'")


def as_point(p) -> np.ndarray:
    """Validate and freeze a single (x, y) point."""
    try:
        q = np.array(p, dtype=float).reshape(2)
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric, too large or not 2 numbers
        raise ValueError(f"point {p!r}: expected two numeric coordinates") from None
    if not np.isfinite(q).all():
        raise ValueError("point coordinates must be finite")
    q.setflags(write=False)
    return q


def _as_points(data, what: str) -> np.ndarray:
    try:
        pts = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError):  # ragged, non-numeric or too large
        raise ValueError(f"{what}: expected a non-empty (k, 2) array of numeric points") from None
    if pts.ndim == 1 and pts.size == 2:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError(f"{what}: expected a non-empty (k, 2) array of points")
    if not np.isfinite(pts).all():
        raise ValueError(f"{what}: coordinates must be finite")
    return pts


@dataclass(frozen=True, eq=False)
class Curve:
    """Polygonal curve: an identifier plus an ordered (m, 2) vertex array."""

    id: str
    pts: np.ndarray

    def __post_init__(self) -> None:
        pts = _as_points(self.pts, f"curve {self.id!r}")
        pts.setflags(write=False)
        object.__setattr__(self, "pts", pts)

    def __len__(self) -> int:
        return self.pts.shape[0]

    def translated(self, t) -> "Curve":
        return Curve(self.id, self.pts + np.asarray(t, dtype=float).reshape(2))


@dataclass(frozen=True, eq=False)
class Segment:
    """Directed segment from a to b; a == b (a point) is permitted."""

    id: str
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_point(self.a))
        object.__setattr__(self, "b", as_point(self.b))

    def as_curve(self) -> Curve:
        return Curve(self.id, np.array([self.a, self.b]))

    def translated(self, t) -> "Segment":
        t = np.asarray(t, dtype=float).reshape(2)
        return Segment(self.id, self.a + t, self.b + t)


def _frozen(cls, *fields):
    """``cls(*fields)`` on fields already checked and read-only, skipping ``__post_init__``."""
    item = object.__new__(cls)
    item.__dict__.update(zip(cls.__dataclass_fields__, fields))
    return item


def _item_list(items, noun: str) -> list:
    """``items`` as a list, refused when it is empty or repeats an id: the
    list rules of every structure and center solver.  ``noun`` names the
    items in the messages."""
    items = list(items)
    if not items:
        raise ValueError(f"expected a non-empty {noun} list")
    if len({x.id for x in items}) != len(items):
        raise ValueError(f"{noun} ids must be unique")
    return items


def _curve_list(curves) -> tuple[list, np.ndarray]:
    """A checked curve list (:func:`_item_list`) and its vertex counts,
    refused when some curve has fewer than 2 vertices."""
    curves = _item_list(curves, "curve")
    sizes = np.fromiter(map(len, curves), int, len(curves))
    if (sizes < 2).any():
        c = curves[int(np.argmin(sizes))]
        raise ValueError(f"curve {c.id!r} has {len(c)} vertex; need m >= 2")
    return curves, sizes


def _query_curve(q: Curve) -> Curve:
    """The query curve of a curve query, refused below 2 vertices."""
    if len(q) < 2:
        raise ValueError("query curve must have at least 2 vertices")
    return q


def _pts_of(obj) -> np.ndarray:
    if isinstance(obj, Curve):
        return obj.pts
    if isinstance(obj, Segment):
        return np.array([obj.a, obj.b])
    return _as_points(obj, "curve data")


def point_dist(p, q, metric: Metric = "l2") -> float:
    _check_metric(metric)
    d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    if metric == "linf":
        return float(np.max(np.abs(d)))
    return float(math.hypot(d[0], d[1]))


def _dists_to(pts: np.ndarray, q: np.ndarray, metric: Metric) -> np.ndarray:
    d = pts - q
    if metric == "linf":
        return np.max(np.abs(d), axis=1)
    return np.hypot(d[:, 0], d[:, 1])


def _dist_matrix(P: np.ndarray, Q: np.ndarray, metric: Metric) -> np.ndarray:
    d = P[:, None, :] - Q[None, :, :]
    if metric == "linf":
        return np.max(np.abs(d), axis=2)
    return np.hypot(d[:, :, 0], d[:, :, 1])


def dfd_dp(c1, c2, metric: Metric = "l2") -> float:
    """Exact discrete Fréchet distance by dynamic programming.

    Minimum over all monotone vertex alignments of the maximum pairwise
    point distance.  Full (m x m') table; exact to machine precision.
    """
    _check_metric(metric)
    P, Q = _pts_of(c1), _pts_of(c2)
    D = _dist_matrix(P, Q, metric)
    m, k = D.shape
    T = np.empty_like(D)
    T[0] = np.maximum.accumulate(D[0])
    for i in range(1, m):
        prev = T[i - 1]
        row = T[i]
        row[0] = max(D[i, 0], prev[0])
        for j in range(1, k):
            reach = min(prev[j], prev[j - 1], row[j - 1])
            row[j] = reach if reach > D[i, j] else D[i, j]
    return float(T[m - 1, k - 1])


def dfd_segment_curve(s: Segment, c, metric: Metric = "l2") -> tuple[float, int]:
    """Discrete Fréchet distance between a segment and a curve, with split.

    Returns ``(distance, i)`` where ``i`` in ``[1, m-1]`` is an optimal
    split: the prefix ``C[1..i]`` pairs with ``a`` and the suffix with
    ``b``.  Equals ``dfd_dp`` on the same inputs.  For a single-vertex
    curve the DP value is returned with split 0 (no split exists).
    """
    _check_metric(metric)
    pts = _pts_of(c)
    m = pts.shape[0]
    if m < 2:
        return dfd_dp(s.as_curve(), pts, metric), 0
    da = _dists_to(pts, s.a, metric)
    db = _dists_to(pts, s.b, metric)
    pref = np.maximum.accumulate(da)[: m - 1]
    suf = np.maximum.accumulate(db[::-1])[::-1][1:]
    cost = np.maximum(pref, suf)
    i = int(np.argmin(cost))
    return float(cost[i]), i + 1


@dataclass(frozen=True, eq=False)
class PartitionProfile:
    """Per-split coordinate extrema of a curve.

    Entry ``i-1`` of each array covers split index ``i`` (1-based): the
    ``pre_*`` arrays aggregate vertices ``C[1..i]`` and the ``suf_*``
    arrays ``C[i+1..m]``.  Note the naming inversion used throughout: the
    *left* edge of the prefix intersection rectangle at radius ``d`` sits
    at ``pre_max_x - d`` (the right-most prefix vertex contributes it).
    """

    pre_max_x: np.ndarray
    pre_min_x: np.ndarray
    pre_max_y: np.ndarray
    pre_min_y: np.ndarray
    suf_max_x: np.ndarray
    suf_min_x: np.ndarray
    suf_max_y: np.ndarray
    suf_min_y: np.ndarray

    @property
    def nsplits(self) -> int:
        return self.pre_max_x.shape[0]


def partition_profile(c) -> PartitionProfile:
    """One forward and one backward extrema pass over the vertices (O(m))."""
    pts = _pts_of(c)
    m = pts.shape[0]
    if m < 2:
        raise ValueError("partition_profile requires a curve with at least 2 vertices")
    x, y = pts[:, 0], pts[:, 1]
    prof = PartitionProfile(
        pre_max_x=np.maximum.accumulate(x)[: m - 1],
        pre_min_x=np.minimum.accumulate(x)[: m - 1],
        pre_max_y=np.maximum.accumulate(y)[: m - 1],
        pre_min_y=np.minimum.accumulate(y)[: m - 1],
        suf_max_x=np.maximum.accumulate(x[::-1])[::-1][1:],
        suf_min_x=np.minimum.accumulate(x[::-1])[::-1][1:],
        suf_max_y=np.maximum.accumulate(y[::-1])[::-1][1:],
        suf_min_y=np.minimum.accumulate(y[::-1])[::-1][1:],
    )
    for a in vars(prof).values():
        a.setflags(write=False)
    return prof


def _run_max(rank: np.ndarray, sizes, span: int) -> np.ndarray:
    lift = np.repeat(np.arange(len(sizes)) * span, sizes)
    return np.maximum.accumulate(lift + rank, axis=-1) - lift


def running_max(values: np.ndarray, sizes) -> np.ndarray:
    """Running max along the last axis, restarting at each of consecutive
    runs of the given ``sizes``: ranks lifted above every earlier run's
    restart one ``np.maximum.accumulate``; outputs are inputs, memory O(N)."""
    vals, rank = np.unique(values, return_inverse=True)
    return vals[_run_max(rank.reshape(np.shape(values)), sizes, len(vals))]


def partition_profiles(curves) -> PartitionProfile:
    """Every curve's :func:`partition_profile`, concatenated in input
    order, in one flat pass.  Minima are running maxima of reversed
    ranks, so every entry is an input coordinate."""
    pts = [_pts_of(c) for c in curves]
    sizes = np.array([p.shape[0] for p in pts], dtype=int)
    if (sizes < 2).any():
        raise ValueError("partition_profiles requires curves with at least 2 vertices")
    xy = np.vstack(pts).T if pts else np.empty((2, 0))
    vals, rank = np.unique(xy, return_inverse=True)
    top = len(vals) - 1
    rank = rank.reshape(xy.shape)[[0, 0, 1, 1]]
    rank[1::2] = top - rank[1::2]  # rows: max x, min x, max y, min y
    ends = np.cumsum(sizes)
    pre = np.delete(_run_max(rank, sizes, top + 1), ends - 1, axis=1)
    suf = np.delete(_run_max(rank[:, ::-1], sizes[::-1], top + 1)[:, ::-1], ends - sizes, axis=1)
    ext = np.vstack([pre, suf])
    ext[1::2] = top - ext[1::2]
    ext = vals[ext]
    ext.setflags(write=False)
    return PartitionProfile(*ext)


def translation_keys(p: PartitionProfile) -> tuple[np.ndarray, ...]:
    """Per-split translation-invariant keys ``(r, u1, u2, u3, u4)``: r is
    the larger prefix/suffix smallest-enclosing-square radius, u1 <= u2
    the least and greatest x offsets from a prefix to a suffix vertex,
    u3 <= u4 the same in y."""
    r = np.maximum(np.maximum(p.pre_max_x - p.pre_min_x, p.pre_max_y - p.pre_min_y),
                   np.maximum(p.suf_max_x - p.suf_min_x, p.suf_max_y - p.suf_min_y)) / 2.0
    return (r, p.suf_min_x - p.pre_max_x, p.suf_max_x - p.pre_min_x,
            p.suf_min_y - p.pre_max_y, p.suf_max_y - p.pre_min_y)


def min_enclosing_square_radius(points) -> float:
    """Radius of the smallest axis-parallel enclosing square: max extent / 2."""
    pts = _as_points(points, "min_enclosing_square_radius")
    ext = pts.max(axis=0) - pts.min(axis=0)
    return float(max(ext[0], ext[1]) / 2.0)


# --- smallest enclosing ball (move-to-front incremental construction) ---

_MEB_EPS = 1e-12


def circumcircle(a, b, c) -> Optional[tuple[np.ndarray, float]]:
    """Circumscribed circle of three points, or None when collinear."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    # Translate near the origin for numerical stability.
    o = (np.minimum(np.minimum(a, b), c) + np.maximum(np.maximum(a, b), c)) / 2.0
    ax, ay = a - o
    bx, by = b - o
    cx, cy = c - o
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    center = o + np.array([ux, uy])
    r = max(math.hypot(*(p - center)) for p in (a, b, c))
    return center, float(r)


def _diameter_ball(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    c = (a + b) / 2.0
    r = max(math.hypot(*(a - c)), math.hypot(*(b - c)))
    return c, float(r)


def _in_ball(center: np.ndarray, r: float, p: np.ndarray) -> bool:
    return math.hypot(p[0] - center[0], p[1] - center[1]) <= r * (1.0 + 1e-14) + _MEB_EPS


def min_enclosing_ball(points) -> tuple[np.ndarray, float]:
    """Exact smallest enclosing disk of a non-empty point set.

    Move-to-front incremental construction; expected linear time under the
    seeded shuffle.  Three-point radii come from :func:`circumcircle`, as
    the L2 center's candidate radii do; two-point radii can differ by an
    ulp from the candidates' half distances ``hypot(p - q) / 2``.
    """
    pts = _as_points(points, "min_enclosing_ball")
    order = list(range(pts.shape[0]))
    random.Random(0x5EED ^ len(order)).shuffle(order)
    shuffled = pts[order]

    center, r = shuffled[0].copy(), 0.0
    for i in range(1, len(shuffled)):
        p = shuffled[i]
        if _in_ball(center, r, p):
            continue
        # p is on the boundary of the ball of shuffled[:i+1]
        center, r = p.copy(), 0.0
        for j in range(i):
            q = shuffled[j]
            if _in_ball(center, r, q):
                continue
            # p and q on the boundary
            center, r = _diameter_ball(p, q)
            for k in range(j):
                w = shuffled[k]
                if _in_ball(center, r, w):
                    continue
                cc = circumcircle(p, q, w)
                if cc is None:
                    # collinear support: fall back to the widest diameter
                    for pair in ((p, w), (q, w)):
                        c2, r2 = _diameter_ball(*pair)
                        if r2 > r:
                            center, r = c2, r2
                else:
                    center, r = cc
    center = center.copy()
    center.setflags(write=False)
    return center, float(r)


def circle_intersections(c1, c2, r: float) -> np.ndarray:
    """Intersection points of circles of common radius r around the center
    pairs (c1, c2): two points, or two (P, 2) stacks of them.

    Returns a (k, 2) array, pair by pair: nothing when the centers
    coincide or lie farther apart than 2r, one point at exact tangency,
    else the point left of c1 -> c2 and then the one right of it.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    p = np.asarray(c1, dtype=float).reshape(-1, 2)
    q = np.asarray(c2, dtype=float).reshape(-1, 2)
    v = q - p
    d = np.array(list(map(math.hypot, *v.T.tolist())))  # np.hypot rounds differently
    meet = (d != 0.0) & ~(d > 2.0 * r)
    p, q, v, d = p[meet], q[meet], v[meet], d[meet]
    mid = (p + q) / 2.0
    h2 = r * r - (d / 2.0) ** 2
    h = np.sqrt(np.where(h2 > 0.0, h2, 0.0))[:, None]
    off = h * (v[:, ::-1] / d[:, None] * [-1.0, 1.0])  # h times the unit normal (-u_y, u_x)
    pts = np.stack([np.where(h > 0.0, mid + off, mid), mid - off], axis=1)
    return pts[np.column_stack([np.ones(len(h), bool), h[:, 0] > 0.0])]
