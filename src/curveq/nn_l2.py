"""(1+eps)-approximate nearest neighbor under the L2 discrete Fréchet distance.

* :class:`ExponentialGrid` + :class:`AnnStructure`: the (1+eps, r) problem
  for segment queries over curves.  Each curve gets exponential grids
  around its first and last vertex covering radii [eps*r/(2*sqrt(2)), r];
  every same-curve cell pair (g, h) is annotated with the input curve
  closest to the segment of cell centers.  A query locates the cells of
  a and b and returns the best annotation: when some curve is within r,
  the answer is within (1+eps)*r.  Exact L2 segment queries without a
  radius go through :meth:`curveq.nn_linf.SegmentQueryIndex.nearest_l2`.

* :class:`KgonStructure`: curve queries over segments.  Replaces the
  L-infinity squares by regular k-gons with k chosen so that
  1/cos(pi/k) <= 1+eps; the exact k-gon optimum, rescaled by 1/cos(pi/k),
  sandwiches the true L2 optimum within [d*, (1+eps) d*].  The k-gon
  optimum is a min-max over per-split shift rows of support values,
  answered by :meth:`DominanceIndex.nearest` over Morton-ordered
  endpoint blocks.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .geometry import Curve, Segment
from .nn_linf import _morton_keys, _segment_table
from .rangetree import DominanceIndex

__all__ = [
    "ExponentialGrid",
    "AnnStructure",
    "kgon_sides",
    "KgonStructure",
]

# AnnStructure's annotation compares every same-curve cell pair with every
# split of every curve; builds above this many comparisons are refused
MAX_ANN_COMPARISONS = 10**8


class ExponentialGrid:
    """Concentric annulus grids of doubling scale around a center point.

    Level i uses the square S_i of side lambda_i = min(2^i * alpha,
    2*beta); the innermost square is a single cell, every further level
    tiles S_i \\ S_{i-1} with cells of side eps*lambda_i/(2*sqrt(2)).
    Clamping the outermost side to 2*beta makes the grid cover the whole
    closed L2 ball of radius beta while keeping every assigned cell
    center within max(sqrt(2)*alpha, eps*beta/2) of the located point.
    """

    def __init__(self, center, eps: float, alpha: float, beta: float):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        if not 0 < alpha <= beta:
            raise ValueError("need 0 < alpha <= beta")
        self.center = np.asarray(center, dtype=float).reshape(2)
        self.eps = float(eps)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.nlevels = max(1, math.ceil(math.log2(2.0 * beta / alpha)))

        rects: list[np.ndarray] = []
        centers: list[np.ndarray] = []
        self._levels = []  # (half_side, cell_w, ncells, {(row, col): cell index})
        cx, cy = self.center
        half_prev = 0.0
        for i in range(1, self.nlevels + 1):
            lam = min(2.0 ** i * alpha, 2.0 * beta)
            half = lam / 2.0
            if i == 1:
                rects.append(np.array([cx - half, cy - half, cx + half, cy + half]))
                centers.append(self.center.copy())
                self._levels.append((half, 2.0 * half, 1, {(0, 0): 0}))
                half_prev = half
                continue
            w = eps * lam / (2.0 * math.sqrt(2.0))
            ncells = math.ceil(lam / w)
            lookup = {}
            x0 = cx - half
            y0 = cy - half
            for row in range(ncells):
                yl, yh = y0 + row * w, y0 + (row + 1) * w
                for col in range(ncells):
                    xl, xh = x0 + col * w, x0 + (col + 1) * w
                    # skip cells buried inside the previous square or
                    # entirely outside this one
                    if (max(abs(xl - cx), abs(xh - cx)) < half_prev
                            and max(abs(yl - cy), abs(yh - cy)) < half_prev):
                        continue
                    if xl - cx > half or cx - xh > half or yl - cy > half or cy - yh > half:
                        continue
                    lookup[(row, col)] = len(rects)
                    rects.append(np.array([xl, yl, xh, yh]))
                    centers.append(np.array([(xl + xh) / 2.0, (yl + yh) / 2.0]))
            self._levels.append((half, w, ncells, lookup))
            half_prev = half
        self.rects = np.vstack(rects)
        self.cell_centers = np.vstack(centers)

    @property
    def ncells(self) -> int:
        return self.rects.shape[0]

    def locate(self, q) -> Optional[int]:
        """Cell index containing q, or None when q is outside every square."""
        q = np.asarray(q, dtype=float).reshape(2)
        dinf = float(np.max(np.abs(q - self.center)))
        for li, (half, w, ncells, lookup) in enumerate(self._levels):
            if dinf <= half:
                if li == 0:
                    return 0
                col = min(int((q[0] - (self.center[0] - half)) // w), ncells - 1)
                row = min(int((q[1] - (self.center[1] - half)) // w), ncells - 1)
                cell = lookup.get((row, col))
                assert cell is not None, "located cell must have been kept"
                return cell
        return None


def _prefix_suffix_maxima(centers: np.ndarray, pts: np.ndarray):
    """Running max distances from many points to curve prefixes/suffixes."""
    d = centers[:, None, :] - pts[None, :, :]
    dist = np.hypot(d[:, :, 0], d[:, :, 1])
    pre = np.maximum.accumulate(dist, axis=1)[:, :-1]
    suf = np.maximum.accumulate(dist[:, ::-1], axis=1)[:, ::-1][:, 1:]
    return pre, suf


class AnnStructure:
    """(1+eps, r)-approximate nearest curve for segment queries.

    Build cost is dominated by annotating every same-curve cell pair with
    its nearest input curve (distance computed exactly per pair), i.e.
    O(n^2 K^2 m) point distances for K cells per grid.  Raises
    ValueError when that count exceeds ``MAX_ANN_COMPARISONS``.
    """

    def __init__(self, curves: Sequence[Curve], eps: float, r: float):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        if r <= 0:
            raise ValueError("r must be positive")
        curves = list(curves)
        for c in curves:
            if len(c) < 2:
                raise ValueError(f"curve {c.id!r} needs m >= 2")
        self.curves = curves
        self.eps = float(eps)
        self.r = float(r)
        alpha = eps * r / (2.0 * math.sqrt(2.0))
        self.grids_first = [ExponentialGrid(c.pts[0], eps, alpha, r) for c in curves]
        self.grids_last = [ExponentialGrid(c.pts[-1], eps, alpha, r) for c in curves]
        work = (sum(gf.ncells * gl.ncells for gf, gl in zip(self.grids_first, self.grids_last))
                * sum(len(c) - 1 for c in curves))
        if work > MAX_ANN_COMPARISONS:
            raise ValueError(
                f"AnnStructure build of {work:.3g} comparisons refused: cell pairs "
                f"times curve splits, limit {MAX_ANN_COMPARISONS:.0e}"
            )

        # pair annotations: nearest curve over the whole set per (g, h)
        self.pair_dist: list[np.ndarray] = []
        self.pair_curve: list[np.ndarray] = []
        for gf, gl in zip(self.grids_first, self.grids_last):
            best_d = np.full((gf.ncells, gl.ncells), np.inf)
            best_c = np.zeros((gf.ncells, gl.ncells), dtype=int)
            for ci, c in enumerate(curves):
                pre, suf = _prefix_suffix_maxima(
                    np.vstack([gf.cell_centers, gl.cell_centers]), c.pts
                )
                pre_g = pre[: gf.ncells]
                suf_h = suf[gf.ncells:]
                d = np.min(
                    np.maximum(pre_g[:, None, :], suf_h[None, :, :]), axis=2
                )
                better = d < best_d
                best_d[better] = d[better]
                best_c[better] = ci
            self.pair_dist.append(best_d)
            self.pair_curve.append(best_c)

    def query(self, s: Segment) -> Optional[tuple[str, float]]:
        """(curve id, certified bound (1+eps)*r) or None when nothing stabs.

        A None is only possible when no curve lies within r of s; when
        some curve is within r, the returned curve is within (1+eps)*r.
        """
        best = None
        for j in range(len(self.curves)):
            g = self.grids_first[j].locate(s.a)
            if g is None:
                continue
            h = self.grids_last[j].locate(s.b)
            if h is None:
                continue
            d = self.pair_dist[j][g, h]
            if best is None or d < best[0]:
                best = (d, self.pair_curve[j][g, h])
        if best is None:
            return None
        return self.curves[best[1]].id, (1.0 + self.eps) * self.r


# ---------------------------------------------------------------------------
# k-gon structure: curve queries over segments
# ---------------------------------------------------------------------------

def kgon_sides(eps: float) -> int:
    """Smallest k >= 3 with 1/cos(pi/k) <= 1 + eps."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    k = 3
    while 1.0 / math.cos(math.pi / k) > 1.0 + eps:
        k += 1
    return k


class KgonStructure:
    """Segments indexed by their endpoints' k-gon support values.

    The radius-d regular k-gon around p is {x : (x - p) . n_t <= d} for
    the k outward unit normals n_t; it contains the L2 ball of radius d
    and fits in the ball of radius d/cos(pi/k).  A curve query reduces to
    2k one-sided conditions per split on running minima of vertex support
    values.
    """

    def __init__(self, segments: Sequence[Segment], eps: float):
        self.ids_by_rank, ranks, a, b = _segment_table(list(segments), "k-gon structure")
        self.eps = float(eps)
        self.k = kgon_sides(eps)
        ang = 2.0 * math.pi * np.arange(self.k) / self.k
        self.normals = np.column_stack([np.cos(ang), np.sin(ang)])
        self._index = DominanceIndex(
            np.hstack([a @ self.normals.T, b @ self.normals.T]),
            tags=ranks,
            sort_keys=_morton_keys(np.hstack([a, b])),
        )

    def __len__(self) -> int:
        return len(self._index)

    def describe(self) -> dict:
        """Size of the underlying index (see :meth:`DominanceIndex.describe`)."""
        return self._index.describe()

    def _shift_rows(self, q: Curve) -> np.ndarray:
        if len(q) < 2:
            raise ValueError("query curve must have at least 2 vertices")
        dots = q.pts @ self.normals.T  # (m, k)
        pre = np.minimum.accumulate(dots, axis=0)[:-1]
        suf = np.minimum.accumulate(dots[::-1], axis=0)[::-1][1:]
        return np.hstack([pre, suf])

    def decide(self, q: Curve, d: float) -> Optional[str]:
        """Some segment whose k-gon distance to q is at most d, or None.

        Per split i, endpoint a must satisfy a.n_t <= (prefix min of
        p.n_t) + d for every orientation t, and b the suffix analogue.
        """
        if d < 0:
            raise ValueError("decision distance must be non-negative")
        tag = self._index.decide(self._shift_rows(q), d)
        return None if tag is None else self.ids_by_rank[tag]

    def nearest(self, q: Curve) -> tuple[str, float]:
        """Nearest segment with distance estimate d~ in [d*, (1+eps) d*].

        The exact k-gon optimum is the smallest per-split maximum of
        support-value differences; rescaling by 1/cos(pi/k) turns the
        inner-approximation into the two-sided guarantee.
        """
        d_kgon, tag = self._index.nearest(self._shift_rows(q))
        return self.ids_by_rank[tag], d_kgon / math.cos(math.pi / self.k)
