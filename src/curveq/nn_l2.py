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
  sandwiches the true L2 optimum within [d*, (1+eps) d*].  It is the
  support-value index of :class:`~curveq.nn_linf.SegmentInputIndex` on
  the k-gon's k normals instead of the four axis normals.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Sequence

import numpy as np

from .geometry import Curve, Segment, _curve_list
from .nn_linf import _SupportIndex

__all__ = ["ExponentialGrid", "AnnStructure", "kgon_sides", "KgonStructure"]

# AnnStructure's annotation compares every same-curve cell pair with every
# split of every curve; builds above this many comparisons are refused
MAX_ANN_COMPARISONS = 10**8


def _first(n: int, pred) -> int:
    """First k in [0, n) with pred(k), for pred monotone from False to True."""
    return bisect.bisect_left(range(n), True, key=pred)


def _grid_levels(center, eps: float, alpha: float, beta: float) -> list:
    """The levels of :class:`ExponentialGrid`: (half side, cell width, n
    cells per side, per axis (x, y) the cells [a0, a1) meeting this square
    and [b0, b1) inside the previous one, cell count).  Cell k spans x0 +
    k*w to x0 + (k+1)*w, monotone in k, so each range end is a binary
    search over the float steps of a scan; a cell is kept unless in b on
    both axes."""
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    if not math.isfinite(2.0 * beta):
        raise ValueError(f"beta must be finite with 2*beta finite, got {beta}")
    if not 0 < alpha <= beta:
        raise ValueError("need 0 < alpha <= beta")
    levels, half_prev = [], 0.0
    for i in range(1, max(1, math.ceil(math.log2(2.0 * beta / alpha))) + 1):
        lam = min(2.0 ** i * alpha, 2.0 * beta)
        half = lam / 2.0
        w = 2.0 * half if i == 1 else eps * lam / (2.0 * math.sqrt(2.0))
        n = 1 if i == 1 else math.ceil(lam / w)  # level 1 is one cell
        axes = []
        for c in center:
            x0 = c - half
            a0 = _first(n, lambda k: c - (x0 + (k + 1) * w) <= half)
            a1 = _first(n, lambda k: (x0 + k * w) - c > half)
            b0 = max(a0, _first(n, lambda k: (x0 + k * w) - c > -half_prev))
            axes.append((a0, a1, b0, max(b0, min(a1, _first(
                n, lambda k: (x0 + (k + 1) * w) - c >= half_prev)))))
        (ax0, ax1, bx0, bx1), (ay0, ay1, by0, by1) = axes
        levels.append((half, w, n, axes, (ax1 - ax0) * (ay1 - ay0) - (bx1 - bx0) * (by1 - by0)))
        half_prev = half
    return levels


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
        self.center = np.asarray(center, dtype=float).reshape(2)
        levels = _grid_levels(self.center, eps, alpha, beta)
        self.eps, self.alpha, self.beta = float(eps), float(alpha), float(beta)
        self.nlevels = len(levels)
        centers, self._levels = [], []  # levels: (half_side, cell_w, ncells, {(row, col): cell})
        for half, w, n, ((ax0, ax1, bx0, bx1), (ay0, ay1, by0, by1)), _ in levels:
            keep = np.ones((ay1 - ay0, ax1 - ax0), dtype=bool)
            keep[by0 - ay0:by1 - ay0, bx0 - ax0:bx1 - ax0] = False
            rows, cols = np.nonzero(keep)
            rows, cols = rows + ay0, cols + ax0
            x0, ks = self.center - half, np.column_stack([cols, rows])  # (col, row): (x, y)
            mids = ((x0 + ks * w) + (x0 + (ks + 1) * w)) / 2.0 if n > 1 else self.center[None, :]
            start = sum(map(len, centers))
            cells = dict(zip(zip(rows.tolist(), cols.tolist()), range(start, start + len(rows))))
            self._levels.append((half, w, n, cells))
            centers.append(mids)
        self.cell_centers = np.vstack(centers)

    @property
    def ncells(self) -> int:
        return self.cell_centers.shape[0]

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
    ValueError when that count exceeds ``MAX_ANN_COMPARISONS``, before
    any grid is built.
    """

    def __init__(self, curves: Sequence[Curve], eps: float, r: float):
        if not 0 < eps <= 1:
            raise ValueError("eps must be in (0, 1]")
        if r <= 0:
            raise ValueError("r must be positive")
        if not math.isfinite(2.0 * r):  # also bounds the (1 + eps) * r answers
            raise ValueError(f"r must be finite with 2r finite, got {r}")
        curves, sizes = _curve_list(curves)
        self.curves = curves
        self.eps = float(eps)
        self.r = float(r)
        alpha = eps * r / (2.0 * math.sqrt(2.0))
        # cells of every curve's first and last grid, counted without building them
        cells = [sum(level[-1] for level in _grid_levels(p, eps, alpha, r))
                 for c in curves for p in (c.pts[0], c.pts[-1])]
        work = sum(f * g for f, g in zip(cells[::2], cells[1::2])) * int((sizes - 1).sum())
        if work > MAX_ANN_COMPARISONS:
            raise ValueError(
                f"AnnStructure build of {work:.3g} comparisons refused: cell pairs "
                f"times curve splits, limit {MAX_ANN_COMPARISONS:.0e}"
            )
        self.grids_first = [ExponentialGrid(c.pts[0], eps, alpha, r) for c in curves]
        self.grids_last = [ExponentialGrid(c.pts[-1], eps, alpha, r) for c in curves]

        # pair annotations: nearest curve over the whole set per (g, h)
        self.pair_dist: list[np.ndarray] = []
        self.pair_curve: list[np.ndarray] = []
        for gf, gl in zip(self.grids_first, self.grids_last):
            best_d = np.full((gf.ncells, gl.ncells), np.inf)
            best_c = np.zeros((gf.ncells, gl.ncells), dtype=int)
            for ci, c in enumerate(curves):
                pre_g = _prefix_suffix_maxima(gf.cell_centers, c.pts)[0]
                suf_h = _prefix_suffix_maxima(gl.cell_centers, c.pts)[1]
                d = np.maximum.outer(pre_g[:, 0], suf_h[:, 0])
                for j in range(1, pre_g.shape[1]):
                    np.minimum(d, np.maximum.outer(pre_g[:, j], suf_h[:, j]), out=d)
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


class KgonStructure(_SupportIndex):
    """Segments indexed by their endpoints' support values on the k outward
    unit normals of the regular k-gon: the index of
    :class:`~curveq.nn_linf.SegmentInputIndex` on k normals instead of
    four.  The radius-d k-gon around p contains the L2 ball of radius d
    and fits in the ball of radius d/cos(pi/k).
    """

    def __init__(self, segments: Sequence[Segment], eps: float):
        self.eps = float(eps)
        self.k = kgon_sides(eps)
        ang = 2.0 * math.pi * np.arange(self.k) / self.k
        super().__init__(segments, np.column_stack([np.cos(ang), np.sin(ang)]))

    def nearest(self, q: Curve) -> tuple[str, float]:
        """Nearest segment with distance estimate d~ in [d*, (1+eps) d*].

        The exact k-gon optimum is the smallest per-split maximum of
        support-value differences; rescaling by 1/cos(pi/k) turns the
        inner-approximation into the two-sided guarantee.
        """
        sid, d_kgon = self._nearest(self._shift_rows(q))
        return sid, d_kgon / math.cos(math.pi / self.k)
