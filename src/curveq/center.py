"""Optimal segment centers for curve sets ((1,2)-Center solvers).

Find the segment ab and smallest radius r such that every input curve
splits into a prefix inside the radius-r ball around a and a suffix
inside the ball around b.  Three exact solvers:

* :func:`center_linf` -- fixed positions, squares.  An optimal prefix
  square can be anchored at a corner of the global bounding rectangle, so
  four corner sweeps cover all optima (no sweeps of reversed curves; see
  its docstring).  A sweep gives every vertex a key, the smallest side of
  the corner square that puts it in its curve's prefix (a running max of
  L-infinity distances from the corner), and scores each key as a side
  with the suffix extrema taken in key order; O(nm log nm) in all.

* :func:`center_linf_translation` -- every curve may translate.  Both
  squares anchor at opposite corners of the rectangle spanned by the
  maximal per-curve extents; the radius is the least, over the four
  corner pairings, of the worst curve's best closed-form split bound in
  the keys of :func:`~curveq.geometry.translation_keys`, in one flat pass.

* :func:`center_l2` -- disks.  Binary search over the O((nm)^3) candidate
  radii (pair half-distances and acute circumradii); each decision takes
  the disk centers and all center pairs' circle intersections as places
  for ``a``, grows maximal prefixes around them in one array pass, and
  tests suffix coverage by a minimum-enclosing-ball emptiness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    Curve,
    _curve_list,
    circle_intersections,
    circumcircle,
    min_enclosing_ball,
    partition_profiles,
    running_max,
    translation_keys,
)

__all__ = [
    "CenterSolution",
    "center_linf",
    "center_linf_translation",
    "candidate_radii",
    "center_l2_decision",
    "center_l2",
]

_PAIRINGS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_L2_TOL = 1e-9  # slack for within-r checks; absorbs sqrt rounding
# candidate_radii tests all n^3/6 vertex triples (550k at 150 vertices) and
# calls circumcircle once per acute one: at 150 vertices it took 2.3 s and
# 5 MiB, center_l2 4.7 s and 87 MiB (2-vCPU Xeon), so larger inputs are refused
MAX_RADII_VERTICES = 150


@dataclass(frozen=True, eq=False)
class CenterSolution:
    """A center segment: ball centers a, b of common radius, with witnesses.

    ``splits[id]`` is the 1-based split index assigned to each curve;
    ``translations[id]`` is the vector the translation solver applies to
    the curve; the fixed-position solvers list none, and
    :meth:`translation_of` reads zero for an unlisted curve.  After
    applying its translation, every curve's prefix lies in B(a, radius)
    and suffix in B(b, radius) under the solution's metric.
    """

    metric: str
    a: np.ndarray
    b: np.ndarray
    radius: float
    splits: dict[str, int]
    translations: dict[str, np.ndarray] = field(default_factory=dict)

    def translation_of(self, cid: str) -> np.ndarray:
        return self.translations.get(cid, np.zeros(2))


def _flat(curves: Sequence[Curve]):
    """A checked curve list, its vertex counts and offsets, and all its
    vertices stacked curve by curve."""
    curves, sizes = _curve_list(curves)
    return curves, sizes, np.cumsum(sizes) - sizes, np.vstack([c.pts for c in curves])


# ---------------------------------------------------------------------------
# fixed-position L-infinity center
# ---------------------------------------------------------------------------

def _prefix_keys(sizes: np.ndarray, offsets: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Smallest square side at which each vertex joins its curve's prefix.

    ``d`` holds every vertex's L-inf distance from the corner, curve by
    curve.  Vertex i joins once the side covers vertices 0..i, so its key
    is their running max; a last vertex never joins (key +inf).
    """
    keys = running_max(d, sizes)
    keys[offsets + sizes - 1] = np.inf
    return keys


def _corner_sweep(cols: np.ndarray, keys: np.ndarray, r0: float) -> tuple[float, float]:
    """Best (cost, square side) over squares anchored at one corner.

    The square of side s holds every vertex with key <= s; the rest form
    the suffixes.  Sides below ``r0`` miss some first vertex, and between
    consecutive keys the suffix extents do not change, so the candidates
    are ``r0`` and every finite key above it.  A candidate costs
    max(side, suffix x extent, suffix y extent) / 2; the first minimum in
    ascending side order wins.
    """
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    # suffix extrema in key order; take copies in C order (cols[:, order] is F-ordered)
    rev = cols.take(order, axis=1)[:, ::-1]
    hi = np.maximum.accumulate(rev, axis=1)[:, ::-1]
    lo = np.minimum.accumulate(rev, axis=1)[:, ::-1]
    sides = np.concatenate(([r0], ks[(ks >= r0) & (ks < np.inf)]))
    first = np.searchsorted(ks, sides, side="right")  # last vertices keep this in range
    e = hi[:, first] - lo[:, first]
    ext = np.maximum(e[0], e[1])
    cost = np.maximum(sides, ext) / 2.0
    k = int(np.argmin(cost))
    return float(cost[k]), float(sides[k])


def _bbox_center(pts: np.ndarray) -> np.ndarray:
    return (pts.min(axis=0) + pts.max(axis=0)) / 2.0


def center_linf(curves: Sequence[Curve]) -> CenterSolution:
    """Exact (1,2)-Center under L-infinity, O(nm log nm).

    One sweep per corner of the global bounding box B gives every vertex
    a key, the square side at which it joins its curve's prefix, and
    scores the candidate sides with suffix extrema taken in key order.
    Ties break by smallest radius, then (corner index, side).  Sweeps of
    the reversed curves are not needed, since some corner square of side
    2r* holds an optimal prefix set P: per axis, P touches the low or the
    high side of B and that side's corner covers P's extent (<= 2r*), or
    P touches neither, so the suffixes span B, which is then at most 2r*
    wide there.  Each comparison is a float subtraction sharing one
    operand, so rounding keeps these orders.
    """
    curves, sizes, offsets, flat = _flat(curves)
    cols = np.ascontiguousarray(flat.T)  # x row, y row: no reductions over axes of length 2
    lo, hi = flat.min(axis=0), flat.max(axis=0)
    corners = [np.array([lo[0], lo[1]]), np.array([hi[0], lo[1]]),
               np.array([lo[0], hi[1]]), np.array([hi[0], hi[1]])]

    best = None  # ((cost, corner_idx, side), keys)
    for ci, corner in enumerate(corners):
        d = np.maximum(np.abs(cols[0] - corner[0]), np.abs(cols[1] - corner[1]))
        keys = _prefix_keys(sizes, offsets, d)
        cost, side = _corner_sweep(cols, keys, float(d[offsets].max()))
        cand = (cost, ci, side)
        if best is None or cand < best[0]:
            best = (cand, keys)
    (cost, _, side), keys = best

    in_pre = keys <= side
    splits = np.add.reduceat(in_pre.astype(int), offsets)
    return CenterSolution(
        metric="linf",
        a=_bbox_center(flat[in_pre]),
        b=_bbox_center(flat[~in_pre]),
        radius=float(cost),
        splits={c.id: int(s) for c, s in zip(curves, splits)},
    )


# ---------------------------------------------------------------------------
# L-infinity center under translation
# ---------------------------------------------------------------------------

def _r_lower_bounds(keys, pairing, dx_star: float, dy_star: float) -> np.ndarray:
    """Minimal radius of every (curve, split) for one corner pairing:
    max(r, (dx* - gx)/4, (dy* - gy)/4) with the gaps gx = u1 or -u2 and
    gy = u3 or -u4 sign-adjusted to the pairing; each term is a necessary
    bound and their max is feasible."""
    r, u1, u2, u3, u4 = keys
    gap_x = u1 if pairing[0] > 0 else -u2
    gap_y = u3 if pairing[1] > 0 else -u4
    return np.maximum(r, np.maximum((dx_star - gap_x) / 4.0, (dy_star - gap_y) / 4.0))


def center_linf_translation(curves: Sequence[Curve]) -> CenterSolution:
    """Exact (1,2)-Center under translation and L-infinity, O(nm log nm):
    every pairing's bound at every split, each curve's first minimizing
    split, and the pairing whose worst curve is least (ties: lower index)."""
    curves, sizes, offsets, flat = _flat(curves)
    starts = offsets - np.arange(len(curves))  # each curve's first split entry
    span = np.maximum.reduceat(flat, offsets) - np.minimum.reduceat(flat, offsets)
    dx_star, dy_star = float(span[:, 0].max()), float(span[:, 1].max())
    prof = partition_profiles(curves)
    keys = translation_keys(prof)

    bounds = np.stack([_r_lower_bounds(keys, p, dx_star, dy_star) for p in _PAIRINGS])
    per_curve = np.minimum.reduceat(bounds, starts, axis=1)
    worst = np.maximum(0.0, per_curve.max(axis=1))
    pi = int(np.argmin(worst))
    r, (sx, sy) = float(worst[pi]), _PAIRINGS[pi]
    hit = bounds[pi] == np.repeat(per_curve[pi], sizes - 1)
    first = np.minimum.reduceat(np.where(hit, np.arange(hit.size), hit.size), starts)

    # pairing (+1, .) puts the suffix square to the right of the prefix square
    s_x = (0.0, 2 * r) if sx > 0 else (dx_star - 2 * r, dx_star)
    t_x = (dx_star - 2 * r, dx_star) if sx > 0 else (0.0, 2 * r)
    s_y = (0.0, 2 * r) if sy > 0 else (dy_star - 2 * r, dy_star)
    t_y = (dy_star - 2 * r, dy_star) if sy > 0 else (0.0, 2 * r)

    p = {f: v[first] for f, v in vars(prof).items()}
    lox = np.maximum(s_x[0] - p["pre_min_x"], t_x[0] - p["suf_min_x"])
    hix = np.minimum(s_x[1] - p["pre_max_x"], t_x[1] - p["suf_max_x"])
    loy = np.maximum(s_y[0] - p["pre_min_y"], t_y[0] - p["suf_min_y"])
    hiy = np.minimum(s_y[1] - p["pre_max_y"], t_y[1] - p["suf_max_y"])
    moves = np.column_stack([(lox + hix) / 2.0, (loy + hiy) / 2.0])

    return CenterSolution(
        metric="linf",
        a=np.array([(s_x[0] + s_x[1]) / 2.0, (s_y[0] + s_y[1]) / 2.0]),
        b=np.array([(t_x[0] + t_x[1]) / 2.0, (t_y[0] + t_y[1]) / 2.0]),
        radius=r,
        splits={c.id: int(s) for c, s in zip(curves, first - starts + 1)},
        translations={c.id: t for c, t in zip(curves, moves)},
    )


# ---------------------------------------------------------------------------
# L2 center
# ---------------------------------------------------------------------------

def _rowdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, 2) arrays, rounded as ``np.dot`` rounds each row."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def candidate_radii(curves: Sequence[Curve]) -> np.ndarray:
    """Sorted, duplicate-free candidate radii for the L2 center.

    Zero, half the distance of every vertex pair, and the circumradius of
    every acute vertex triple: the optimal radius is the radius of a
    minimum enclosing ball of some vertex subset, whose support is one,
    two, or three (acute) vertices.  Raises ValueError above
    ``MAX_RADII_VERTICES`` vertices in total.
    """
    _, _, _, pts = _flat(curves)
    n = pts.shape[0]
    if n > MAX_RADII_VERTICES:
        raise ValueError(
            f"L2 center of {n} vertices refused: candidate radii enumerate "
            f"O(n^3) vertex triples, limit {MAX_RADII_VERTICES} vertices"
        )
    first, second = np.triu_indices(n, 1)
    edges = pts[second] - pts[first]
    vals = [np.zeros(1), np.array(list(map(math.hypot, *edges.T.tolist()))) / 2.0]
    # triples i < j < k one first vertex i at a time: (j, k) are the pairs with j > i
    for i, start in enumerate(np.searchsorted(first, np.arange(1, n + 1))):
        j, k, bc = first[start:], second[start:], edges[start:]
        ab = pts[j] - pts[i]
        ac = pts[k] - pts[i]
        # acute iff every angle's adjacent edge dot product is positive
        acute = (_rowdot(ab, ac) > 0) & (_rowdot(-ab, bc) > 0) & (_rowdot(-ac, -bc) > 0)
        ccs = (circumcircle(pts[i], pts[a], pts[b]) for a, b in zip(j[acute], k[acute]))
        vals.append(np.array([cc[1] for cc in ccs if cc is not None]))
    return np.unique(np.concatenate(vals))


def center_l2_decision(curves: Sequence[Curve], r: float) -> Optional[tuple[np.ndarray, np.ndarray, dict[str, int]]]:
    """Feasibility of radius r for the L2 center, with a witness.

    Candidate positions for ``a`` are all vertices plus all pairwise
    intersection points of the radius-r circles around vertices: any
    nonempty intersection of equal-radius disks contains one of these.
    For each candidate the maximal prefix of every curve within r is
    grown (first-failure rule) and the leftover suffixes are coverable by
    one ball iff their minimum enclosing ball has radius <= r.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    curves, sizes, offsets, verts = _flat(curves)
    tol = max(_L2_TOL, 16 * float(np.spacing(np.abs(verts).max())))  # a few ulps at large coordinates

    i, j = np.triu_indices(verts.shape[0], 1)
    cand = np.vstack([verts, circle_intersections(verts[i], verts[j], r)])

    diff = cand[:, None, :] - verts[None, :, :]
    within = np.hypot(diff[:, :, 0], diff[:, :, 1]) <= r + tol

    # a curve's lead is its first vertex outside r, or m when all are within
    pos = np.arange(verts.shape[0]) - np.repeat(offsets, sizes)
    leads = np.minimum.reduceat(np.where(within, np.repeat(sizes, sizes), pos), offsets, axis=1)

    splits = np.minimum(leads, sizes - 1)
    meb_cache: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}
    for row in np.flatnonzero((leads > 0).all(axis=1)):
        key = tuple(splits[row].tolist())
        if key not in meb_cache:
            meb_cache[key] = min_enclosing_ball(verts[pos >= np.repeat(splits[row], sizes)])
        center, radius = meb_cache[key]
        if radius <= r + tol:
            a = cand[row].copy()
            a.setflags(write=False)
            return a, center, {c.id: s for c, s in zip(curves, key)}
    return None


def center_l2(curves: Sequence[Curve]) -> CenterSolution:
    """Exact (1,2)-Center under L2 via binary search over candidate radii."""
    curves, _ = _curve_list(curves)
    radii = candidate_radii(curves)
    lo, hi = 0, len(radii) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if center_l2_decision(curves, float(radii[mid])) is not None:
            hi = mid
        else:
            lo = mid + 1
    r = float(radii[lo])
    witness = center_l2_decision(curves, r)
    assert witness is not None  # the largest candidate is always feasible
    a, b, splits = witness
    return CenterSolution(
        metric="l2",
        a=a,
        b=b,
        radius=r,
        splits=splits,
    )
