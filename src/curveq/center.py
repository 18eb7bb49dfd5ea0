"""Optimal segment centers for curve sets ((1,2)-Center solvers).

Find the segment ab and smallest radius r such that every input curve
splits into a prefix inside the radius-r ball around a and a suffix
inside the ball around b.  Three exact solvers:

* :func:`center_linf` -- fixed positions, squares.  An optimal prefix (or
  suffix) square can be anchored at a corner of the global bounding
  rectangle, so eight corner/role sweeps cover all optima.  A sweep gives
  every vertex a key, the smallest side of the corner square that puts
  it in its curve's prefix (a running max of L-infinity distances from
  the corner), and scores each key as a side with the suffix extrema
  taken in key order; O(nm log nm) in all.

* :func:`center_linf_translation` -- every curve may translate.  Both
  squares anchor at opposite corners of the rectangle spanned by the
  maximal per-curve extents; the optimal radius is a closed-form max of
  per-split lower bounds, maximized over curves and minimized over the
  four corner pairings.

* :func:`center_l2` -- disks.  Binary search over the O((nm)^3) candidate
  radii (pair half-distances and acute circumradii); each decision
  enumerates candidate positions for ``a`` (disk centers and pairwise
  circle intersections), grows maximal prefixes around the candidate,
  and tests suffix coverage by a minimum-enclosing-ball emptiness check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    Curve,
    PartitionProfile,
    circle_intersections,
    circumcircle,
    min_enclosing_ball,
    partition_profile,
)

__all__ = [
    "CenterSolution",
    "center_linf",
    "center_linf_translation",
    "r_lower_bound",
    "candidate_radii",
    "center_l2_decision",
    "center_l2",
]

_PAIRINGS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_L2_TOL = 1e-9  # slack for within-r checks; absorbs sqrt rounding
# candidate_radii loops over every vertex triple in Python (about 550k
# triples at 150 vertices), so larger inputs are refused
MAX_RADII_VERTICES = 150


@dataclass(frozen=True, eq=False)
class CenterSolution:
    """A center segment: ball centers a, b of common radius, with witnesses.

    ``splits[id]`` is the 1-based split index assigned to each curve;
    ``translations[id]`` is the vector applied to the curve (zero unless
    produced by the translation solver).  After applying its translation,
    every curve's prefix lies in B(a, radius) and suffix in B(b, radius)
    under the solution's metric.
    """

    metric: str
    a: np.ndarray
    b: np.ndarray
    radius: float
    splits: dict[str, int]
    translations: dict[str, np.ndarray] = field(default_factory=dict)

    def translation_of(self, cid: str) -> np.ndarray:
        return self.translations.get(cid, np.zeros(2))


def _validate(curves: Sequence[Curve]) -> list[Curve]:
    curves = list(curves)
    if not curves:
        raise ValueError("center solvers require at least one curve")
    for c in curves:
        if len(c) < 2:
            raise ValueError(f"curve {c.id!r} has {len(c)} vertex; need m >= 2")
    if len({c.id for c in curves}) != len(curves):
        raise ValueError("curve ids must be unique")
    return curves


# ---------------------------------------------------------------------------
# fixed-position L-infinity center
# ---------------------------------------------------------------------------

def _prefix_keys(sizes: np.ndarray, offsets: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Smallest square side at which each vertex joins its curve's prefix.

    ``d`` holds every vertex's L-inf distance from the corner, curve by
    curve.  Vertex i joins once the side covers vertices 0..i, so its key
    is their running max; a last vertex never joins (key +inf).
    """
    owner = np.repeat(np.arange(len(sizes)), sizes)
    vals, rank = np.unique(d, return_inverse=True)
    # lifting each curve's ranks above every earlier curve's makes one
    # running max over the flat array restart at each curve
    lift = owner * len(vals)
    keys = vals[np.maximum.accumulate(lift + rank) - lift]
    keys[offsets + sizes - 1] = np.inf
    return keys


def _corner_sweep(flat: np.ndarray, keys: np.ndarray, r0: float) -> tuple[float, float]:
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
    rev = flat[order][::-1]  # suffix extrema in key order
    hi = np.maximum.accumulate(rev, axis=0)[::-1]
    lo = np.minimum.accumulate(rev, axis=0)[::-1]
    sides = np.concatenate(([r0], ks[(ks >= r0) & (ks < np.inf)]))
    first = np.searchsorted(ks, sides, side="right")  # last vertices keep this in range
    ext = (hi[first] - lo[first]).max(axis=1)
    cost = np.maximum(sides, ext) / 2.0
    k = int(np.argmin(cost))
    return float(cost[k]), float(sides[k])


def _bbox_center(pts: np.ndarray) -> np.ndarray:
    return (pts.min(axis=0) + pts.max(axis=0)) / 2.0


def center_linf(curves: Sequence[Curve]) -> CenterSolution:
    """Exact (1,2)-Center under L-infinity, O(nm log nm).

    Four corner sweeps on the curves and four on their reversals cover
    the prefix-determined and suffix-determined optima.  Each sweep gives
    every vertex a key, the square side at which it joins its curve's
    prefix, and scores the candidate sides with suffix extrema taken in
    key order.  Ties break by smallest radius, then (role, corner index,
    side).
    """
    curves = _validate(curves)
    sizes = np.array([len(c) for c in curves])
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    flats = (np.vstack([c.pts for c in curves]), np.vstack([c.pts[::-1] for c in curves]))
    lo, hi = flats[0].min(axis=0), flats[0].max(axis=0)
    corners = [np.array([lo[0], lo[1]]), np.array([hi[0], lo[1]]),
               np.array([lo[0], hi[1]]), np.array([hi[0], hi[1]])]

    best = None  # ((cost, role, corner_idx, side), keys)
    for role, flat in enumerate(flats):
        for ci, corner in enumerate(corners):
            d = np.abs(flat - corner).max(axis=1)
            keys = _prefix_keys(sizes, offsets, d)
            cost, side = _corner_sweep(flat, keys, float(d[offsets].max()))
            cand = (cost, role, ci, side)
            if best is None or cand < best[0]:
                best = (cand, keys)
    (cost, role, _, side), keys = best

    in_pre = keys <= side
    splits = np.add.reduceat(in_pre.astype(int), offsets)
    a, b = _bbox_center(flats[role][in_pre]), _bbox_center(flats[role][~in_pre])
    if role == 1:  # reversed curves: map splits and swap the ball roles
        splits = sizes - splits
        a, b = b, a
    return CenterSolution(
        metric="linf",
        a=a,
        b=b,
        radius=float(cost),
        splits={c.id: int(s) for c, s in zip(curves, splits)},
        translations={c.id: np.zeros(2) for c in curves},
    )


# ---------------------------------------------------------------------------
# L-infinity center under translation
# ---------------------------------------------------------------------------

def _gap_terms(p: PartitionProfile, pairing) -> tuple[np.ndarray, np.ndarray]:
    sx, sy = pairing
    gap_x = (p.suf_min_x - p.pre_max_x) if sx > 0 else (p.pre_min_x - p.suf_max_x)
    gap_y = (p.suf_min_y - p.pre_max_y) if sy > 0 else (p.pre_min_y - p.suf_max_y)
    return gap_x, gap_y


def _r_lower_bounds(p: PartitionProfile, pairing, dx_star: float, dy_star: float) -> np.ndarray:
    ext = np.maximum(
        np.maximum(p.pre_max_x - p.pre_min_x, p.suf_max_x - p.suf_min_x),
        np.maximum(p.pre_max_y - p.pre_min_y, p.suf_max_y - p.suf_min_y),
    ) / 2.0
    gap_x, gap_y = _gap_terms(p, pairing)
    return np.maximum(ext, np.maximum((dx_star - gap_x) / 4.0, (dy_star - gap_y) / 4.0))


def r_lower_bound(profile: PartitionProfile, i: int, pairing,
                  dx_star: float, dy_star: float) -> float:
    """Minimal radius for one (curve, split) and corner pairing.

    Max of the prefix/suffix half-extents in both axes and the two
    opposing-vertex terms (delta* - gap)/4, with gaps sign-adjusted to
    the pairing.  Each term is a necessary lower bound and their max is
    feasible, which the interval-feasibility oracle confirms.
    """
    return float(_r_lower_bounds(profile, pairing, dx_star, dy_star)[i - 1])


def center_linf_translation(curves: Sequence[Curve]) -> CenterSolution:
    """Exact (1,2)-Center under translation and L-infinity, O(nm)."""
    curves = _validate(curves)
    profiles = [partition_profile(c) for c in curves]
    widths = np.array([c.pts[:, 0].max() - c.pts[:, 0].min() for c in curves])
    heights = np.array([c.pts[:, 1].max() - c.pts[:, 1].min() for c in curves])
    dx_star, dy_star = float(widths.max()), float(heights.max())

    best = None  # (radius, pairing_idx, per-curve split list)
    for pi, pairing in enumerate(_PAIRINGS):
        splits = []
        worst = 0.0
        for p in profiles:
            r_i = _r_lower_bounds(p, pairing, dx_star, dy_star)
            k = int(np.argmin(r_i))
            splits.append(k + 1)
            if r_i[k] > worst:
                worst = float(r_i[k])
        cand = (worst, pi, splits)
        if best is None or cand[:2] < best[:2]:
            best = cand
    r, pi, splits = best
    sx, sy = _PAIRINGS[pi]

    # pairing (+1, .) puts the suffix square to the right of the prefix square
    s_x = (0.0, 2 * r) if sx > 0 else (dx_star - 2 * r, dx_star)
    t_x = (dx_star - 2 * r, dx_star) if sx > 0 else (0.0, 2 * r)
    s_y = (0.0, 2 * r) if sy > 0 else (dy_star - 2 * r, dy_star)
    t_y = (dy_star - 2 * r, dy_star) if sy > 0 else (0.0, 2 * r)

    translations = {}
    for c, p, s in zip(curves, profiles, splits):
        i = s - 1
        lox = max(s_x[0] - p.pre_min_x[i], t_x[0] - p.suf_min_x[i])
        hix = min(s_x[1] - p.pre_max_x[i], t_x[1] - p.suf_max_x[i])
        loy = max(s_y[0] - p.pre_min_y[i], t_y[0] - p.suf_min_y[i])
        hiy = min(s_y[1] - p.pre_max_y[i], t_y[1] - p.suf_max_y[i])
        translations[c.id] = np.array([(lox + hix) / 2.0, (loy + hiy) / 2.0])

    return CenterSolution(
        metric="linf",
        a=np.array([(s_x[0] + s_x[1]) / 2.0, (s_y[0] + s_y[1]) / 2.0]),
        b=np.array([(t_x[0] + t_x[1]) / 2.0, (t_y[0] + t_y[1]) / 2.0]),
        radius=r,
        splits={c.id: s for c, s in zip(curves, splits)},
        translations=translations,
    )


# ---------------------------------------------------------------------------
# L2 center
# ---------------------------------------------------------------------------

def candidate_radii(curves: Sequence[Curve]) -> np.ndarray:
    """Sorted, duplicate-free candidate radii for the L2 center.

    Zero, half the distance of every vertex pair, and the circumradius of
    every acute vertex triple: the optimal radius is the radius of a
    minimum enclosing ball of some vertex subset, whose support is one,
    two, or three (acute) vertices.  Raises ValueError above
    ``MAX_RADII_VERTICES`` vertices in total.
    """
    pts = np.vstack([_pts_any(c) for c in curves])
    n = pts.shape[0]
    if n == 0:
        raise ValueError("candidate_radii requires at least one vertex")
    if n > MAX_RADII_VERTICES:
        raise ValueError(
            f"L2 center of {n} vertices refused: candidate radii enumerate "
            f"O(n^3) vertex triples, limit {MAX_RADII_VERTICES} vertices"
        )
    vals = [0.0]
    for i in range(n):
        for j in range(i + 1, n):
            vals.append(math.hypot(*(pts[i] - pts[j])) / 2.0)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ab = pts[j] - pts[i]
                ac = pts[k] - pts[i]
                bc = pts[k] - pts[j]
                # acute iff every angle's adjacent edge dot product is positive
                if (np.dot(ab, ac) > 0 and np.dot(-ab, bc) > 0 and np.dot(-ac, -bc) > 0):
                    cc = circumcircle(pts[i], pts[j], pts[k])
                    if cc is not None:
                        vals.append(cc[1])
    return np.unique(np.asarray(vals))


def _pts_any(c) -> np.ndarray:
    return c.pts if isinstance(c, Curve) else np.asarray(c, dtype=float)


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
    curves = _validate(curves)
    verts = np.vstack([c.pts for c in curves])
    sizes = [len(c) for c in curves]
    offsets = np.cumsum([0] + sizes[:-1])

    cands = [verts]
    nv = verts.shape[0]
    for i in range(nv):
        for j in range(i + 1, nv):
            inter = circle_intersections(verts[i], verts[j], r)
            if inter.size:
                cands.append(inter)
    cand = np.vstack(cands)

    diff = cand[:, None, :] - verts[None, :, :]
    within = np.hypot(diff[:, :, 0], diff[:, :, 1]) <= r + _L2_TOL

    leads = np.empty((cand.shape[0], len(curves)), dtype=int)
    for j, (off, m) in enumerate(zip(offsets, sizes)):
        block = within[:, off:off + m]
        first_false = np.argmin(block, axis=1)
        leads[:, j] = np.where(block.all(axis=1), m, first_false)

    feasible_rows = np.nonzero((leads > 0).all(axis=1))[0]
    meb_cache: dict[tuple[int, ...], tuple[np.ndarray, float]] = {}
    for row in feasible_rows:
        splits = tuple(
            min(int(leads[row, j]), sizes[j] - 1) for j in range(len(curves))
        )
        hit = meb_cache.get(splits)
        if hit is None:
            suffix = np.vstack([c.pts[s:] for c, s in zip(curves, splits)])
            hit = min_enclosing_ball(suffix)
            meb_cache[splits] = hit
        center, radius = hit
        if radius <= r + _L2_TOL:
            a = cand[row].copy()
            a.setflags(write=False)
            return a, center, {c.id: s for c, s in zip(curves, splits)}
    return None


def center_l2(curves: Sequence[Curve]) -> CenterSolution:
    """Exact (1,2)-Center under L2 via binary search over candidate radii."""
    curves = _validate(curves)
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
        translations={c.id: np.zeros(2) for c in curves},
    )
